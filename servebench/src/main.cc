// servebench: drives the real Server with one named workload and prints
// its metrics. Usage:
//
//   servebench --workload <lstm-wmt|lstm-tiny|tree-sst> --seed <n>
//              --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. Every metric
// is printed as a "metric <name> <value> <unit> n=<samples>" line, and the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// README.md documents the workloads and what each metric should move.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "servebench/src/layers.h"
#include "servebench/src/load.h"
#include "servebench/src/workload.h"
#include "src/core/server.h"
#include "src/tensor/gemm.h"
#include "src/util/topology.h"

namespace servebench {
namespace {

using namespace batchmaker;

// Setup repetitions per run; setup_s is their median.
constexpr int kSetupReps = 31;
// The generator has fallen behind its schedule when its p99 send lag, read
// like every latency on the undisturbed side of the windows, exceeds this
// share of the workload's latency limit.
constexpr double kMaxLagShare = 0.25;
// The traced run's gather, exec and idle spans must sum to workers x wall
// time within this share.
constexpr double kAccountingTolerance = 0.05;
// Phase shares of --seconds. The end-to-end run starts with a closed loop
// of WorkloadSpec::fixed_requests requests instead of a timed warm-up; a
// run whose host cannot serve them within kFixedMaxSeconds is invalid.
constexpr double kFixedMaxSeconds = 30;
constexpr double kWarmShare = 0.05;
constexpr double kClosedShare = 0.6;
constexpr double kNominalShare = 0.2;
constexpr double kLadderShare = 0.15;
constexpr double kTracedNominalShare = 0.45;
constexpr double kTracedClosedShare = 0.2;
constexpr double kReplayShare = 0.1;
// Minimum latency windows per open-loop phase.
constexpr size_t kMinWindows = 1;
// Rounds of closed, nominal and ladder phases in the end-to-end run.
constexpr int kRounds = 4;
// A ladder step is overloaded once its backlog passes this many times the
// requests the latency limit allows in flight.
constexpr double kMaxBacklogLimits = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

// Collects metrics, failures and validity problems of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit, int64_t samples,
           bool in_json = true) {
    std::printf("metric %-32s %14.6f %-8s n=%lld\n", name.c_str(), value, unit.c_str(),
                static_cast<long long>(samples));
    if (!std::isfinite(value)) {
      Invalid(name + " is not finite");
      value = -1;
    }
    if (in_json) {
      metrics_.push_back(Metric{name, value, unit, samples});
    }
  }
  void Invalid(const std::string& why) {
    std::printf("INVALID: %s\n", why.c_str());
    valid_ = false;
  }
  void Count(const PhaseResult& phase) {
    attempted_ += phase.sent;
    failed_ += phase.Failures();
    wrong_ += phase.mismatched + phase.callback_errors;
    checked_ += phase.checked;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  void PrintFinal() const {
    std::printf("checked %lld sampled outputs against the SyncEngine reference, %lld wrong\n",
                static_cast<long long>(checked_), static_cast<long long>(wrong_));
    std::string json = "{\"correct\": ";
    json += valid_ && wrong_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i > 0 ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  bool valid_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t wrong_ = 0;
  int64_t checked_ = 0;
};

// Other tenants of a shared host only ever add latency and take away
// throughput. Each figure is therefore read on the undisturbed side of its
// per-window values: the 10th percentile of latencies (the best window when
// there are ten or fewer) and the 90th percentile of rates.
double LatencyOf(const std::vector<double>& windows) { return Percentile(windows, 0.1); }
double RateOf(const std::vector<double>& windows) { return Percentile(windows, 0.9); }
double LatencyOf(const std::vector<double>& values, double q) {
  return LatencyOf(WindowPercentiles(values, q));
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Peak resident memory of the process so far, MB.
double PeakResidentMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Build, host and placement facts every result carries.
void PrintInfo(const Args& args, Report* report) {
  const Topology topo = DiscoverTopology();
  std::printf("info workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("info build_type=%s compiler=\"%s\" flags=\"%s\"\n", SERVEBENCH_BUILD_TYPE,
              __VERSION__, SERVEBENCH_CXX_FLAGS);
  std::printf("info gemm_kernel fp32=%s bf16=%s int8=%s\n", GemmKernelName(Precision::kF32),
              GemmKernelName(Precision::kBf16), GemmKernelName(Precision::kInt8));
  std::printf("info nproc=%ld topology={\"nodes\": %zu, \"cpus\": %d, \"from_sysfs\": %s}\n",
              sysconf(_SC_NPROCESSORS_ONLN), topo.nodes.size(), topo.num_cpus,
              topo.from_sysfs ? "true" : "false");
  if (std::strcmp(SERVEBENCH_BUILD_TYPE, "Release") != 0) {
    report->Invalid(std::string("built as ") + SERVEBENCH_BUILD_TYPE + ", not Release");
  }
}

struct SetupTimes {
  double pack_ms;
  double start_ms;
  double total_s;
};

// Builds the model and starts a Server kSetupReps times. Each part is
// timed as the CPU time the whole process spent on it, so set-up work
// counts wherever it runs (the Server's threads start inside Start()) and
// time other tenants of the host take does not.
SetupTimes MeasureSetup(const WorkloadSpec& spec) {
  std::vector<double> pack, start, total;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = ProcessCpuNs();
    std::unique_ptr<Model> model = BuildModel(spec);
    const int64_t t1 = ProcessCpuNs();
    Server server(&model->registry, MakeServerOptions(spec, false));
    server.Start();
    const int64_t t2 = ProcessCpuNs();
    server.Shutdown();
    pack.push_back(static_cast<double>(t1 - t0) / 1e6);
    start.push_back(static_cast<double>(t2 - t1) / 1e6);
    total.push_back(static_cast<double>(t2 - t0) / 1e9);
  }
  return SetupTimes{Percentile(pack, 0.5), Percentile(start, 0.5), Percentile(total, 0.5)};
}

void PrintPhase(const char* name, double rate, const PhaseResult& r, double limit_ms) {
  std::printf(
      "phase %-8s rate=%8.0f sent=%7lld ok=%7lld ok_rps=%9.1f p50=%8.3fms p99=%8.3fms "
      "lag_p99=%7.3fms backlog=%5lld limit=%.0fms fail=%lld cpu=%.2fus/req\n",
      name, rate, static_cast<long long>(r.sent), static_cast<long long>(r.ok),
      RateOf(r.window_ok_rps), r.latency_ms.empty() ? 0.0 : LatencyOf(r.latency_ms, 0.5),
      r.latency_ms.empty() ? 0.0 : LatencyOf(r.latency_ms, 0.99),
      r.lag_ms.empty() ? 0.0 : LatencyOf(r.lag_ms, 0.99),
      static_cast<long long>(r.backlog_at_end), limit_ms,
      static_cast<long long>(r.Failures()), r.server_cpu_s * 1e6 / static_cast<double>(r.ok));
}

// An open-loop phase long enough for `windows` windows of a p99 with ten
// samples beyond it, after its lead-in.
double OpenSeconds(double rate, double share_seconds, size_t windows) {
  return std::max(share_seconds,
                  static_cast<double>(windows) * kWindowSamples * 1.25 / rate);
}

void CheckLag(const WorkloadSpec& spec, double lag_p99, Report* report) {
  if (lag_p99 > kMaxLagShare * spec.latency_limit_ms) {
    report->Invalid("load generator fell behind: send lag p99 " + std::to_string(lag_p99) +
                    " ms");
  }
}

// --trace 0: the end-to-end metrics.
void RunEndToEnd(const WorkloadSpec& spec, const Args& args, Report* report) {
  const double s = args.seconds;
  const SetupTimes setup = MeasureSetup(spec);

  std::unique_ptr<Model> model = BuildModel(spec);
  std::vector<PoolEntry> pool = BuildPool(spec, *model, args.seed);
  ComputeReferences(*model, &pool);

  Server server(&model->registry, MakeServerOptions(spec, false));
  server.Start();
  LoadGenerator gen(&server, &pool, args.seed);
  std::printf("info load_thread_priority_raised=%d\n", gen.priority_raised() ? 1 : 0);
  const double limit = spec.latency_limit_ms;

  // A fixed number of requests warms the server up and sets the memory
  // figure: peak resident memory after it depends on what was served, not
  // on how fast the host ran.
  const PhaseResult fixed =
      gen.ClosedLoop(spec.closed_outstanding, kFixedMaxSeconds, spec.fixed_requests);
  report->Count(fixed);
  PrintPhase("fixed", 0, fixed, limit);
  const double peak_rss_mb = PeakResidentMb();
  if (fixed.sent != spec.fixed_requests) {
    report->Invalid("the fixed closed-loop phase sent " + std::to_string(fixed.sent) +
                    " of " + std::to_string(spec.fixed_requests) + " requests in time");
  }

  // kRounds rounds of a closed phase, a nominal phase and a share of the
  // ladder. Spreading each metric's windows over the whole run lets it find
  // the stretches the host left undisturbed.
  const double closed_s = kClosedShare * s / kRounds;
  const int64_t closed_max =
      spec.closed_outstanding + static_cast<int64_t>(spec.closed_max_rps * closed_s);
  const double nominal_s =
      OpenSeconds(spec.nominal_rps, kNominalShare * s / kRounds, kMinWindows);
  std::vector<double> closed_rps, p50_ms, p99_ms, lag_p99_ms;
  int64_t closed_ok = 0;
  double closed_cpu_s = 0;
  int64_t nominal_sent = 0;
  // The ladder is walked once, its steps spread over the rounds. A step
  // passes when it fails no request, its p99 meets the limit, and its
  // backlog never passes kMaxBacklogLimits times what the limit allows in
  // flight (Little's law), which also stops an overloaded step early. With
  // k passing steps, the SLO rate is the rate the k-th step was sent at: on
  // a quiet host the passing steps are the lowest k, and a step that a
  // disturbance flips moves the result by one step only.
  const size_t steps = spec.ladder_rps.size();
  const double step_s = kLadderShare * s / static_cast<double>(steps);
  std::vector<bool> step_passed(steps, false);
  std::vector<double> step_rps(steps, 0.0);
  int64_t slo_samples = 0;
  for (int round = 0; round < kRounds; ++round) {
    const PhaseResult closed = gen.ClosedLoop(spec.closed_outstanding, closed_s, closed_max);
    report->Count(closed);
    PrintPhase("closed", 0, closed, limit);
    Append(&closed_rps, closed.window_ok_rps);
    closed_ok += closed.ok;
    closed_cpu_s += closed.server_cpu_s;

    const PhaseResult nominal = gen.OpenLoop(spec.nominal_rps, nominal_s);
    report->Count(nominal);
    PrintPhase("nominal", spec.nominal_rps, nominal, limit);
    Append(&p50_ms, WindowPercentiles(nominal.latency_ms, 0.5));
    Append(&p99_ms, WindowPercentiles(nominal.latency_ms, 0.99));
    Append(&lag_p99_ms, WindowPercentiles(nominal.lag_ms, 0.99));
    nominal_sent += nominal.sent;

    for (size_t i = round * steps / kRounds; i < (round + 1) * steps / kRounds; ++i) {
      const double rate = spec.ladder_rps[i];
      const PhaseResult step =
          gen.OpenLoop(rate, OpenSeconds(rate, step_s, 1),
                       static_cast<int64_t>(kMaxBacklogLimits * rate * limit / 1e3));
      report->Count(step);
      PrintPhase("ladder", rate, step, limit);
      step_rps[i] = step.sent_rps;
      if (step.Failures() == 0 && !step.overloaded &&
          LatencyOf(step.latency_ms, 0.99) <= limit) {
        step_passed[i] = true;
        slo_samples += step.sent;
      }
    }
  }
  const auto passed = std::count(step_passed.begin(), step_passed.end(), true);
  const double slo_rps = passed > 0 ? step_rps[static_cast<size_t>(passed - 1)] : 0.0;
  CheckLag(spec, LatencyOf(lag_p99_ms), report);
  server.Shutdown();

  report->Add("setup_s", setup.total_s, "s", kSetupReps);
  report->Add("cpu_us_per_request", closed_cpu_s * 1e6 / static_cast<double>(closed_ok), "us",
              closed_ok);
  report->Add("peak_rss_mb", peak_rss_mb, "MB", fixed.sent);
  // Wall-clock figures: printed, not part of the result, because another
  // tenant of a shared host moves them by more than any useful bound.
  report->Add("throughput_rps", RateOf(closed_rps), "1/s", closed_ok, /*in_json=*/false);
  report->Add("latency_p50_ms", LatencyOf(p50_ms), "ms", nominal_sent, /*in_json=*/false);
  report->Add("latency_p99_ms", LatencyOf(p99_ms), "ms", nominal_sent, /*in_json=*/false);
  report->Add("slo_rate_rps", slo_rps, "1/s", slo_samples, /*in_json=*/false);
  report->Add("fail_ratio",
              static_cast<double>(report->failed()) / static_cast<double>(report->attempted()),
              "ratio", report->attempted(), /*in_json=*/false);
}

// --trace 1: the per-layer metrics.
void RunTraced(const WorkloadSpec& spec, const Args& args, Report* report) {
  const double s = args.seconds;
  const SetupTimes setup = MeasureSetup(spec);

  std::unique_ptr<Model> model = BuildModel(spec);
  std::vector<PoolEntry> pool = BuildPool(spec, *model, args.seed);
  ComputeReferences(*model, &pool);

  Server server(&model->registry, MakeServerOptions(spec, false));
  server.Start();
  LoadGenerator gen(&server, &pool, args.seed);
  std::printf("info load_thread_priority_raised=%d\n", gen.priority_raised() ? 1 : 0);
  const double limit = spec.latency_limit_ms;
  const double closed_s = kTracedClosedShare * s;
  const int64_t closed_max =
      spec.closed_outstanding + static_cast<int64_t>(spec.closed_max_rps * closed_s);

  const PhaseResult warm = gen.OpenLoop(spec.nominal_rps, kWarmShare * s);
  report->Count(warm);
  PrintPhase("warm", spec.nominal_rps, warm, limit);
  const PhaseResult plain = gen.ClosedLoop(spec.closed_outstanding, closed_s, closed_max);
  report->Count(plain);
  PrintPhase("closed", 0, plain, limit);

  // Same server, same load, tracing on.
  server.trace().Enable();
  const PhaseResult traced = gen.ClosedLoop(spec.closed_outstanding, closed_s, closed_max);
  report->Count(traced);
  PrintPhase("closed+t", 0, traced, limit);
  const size_t records_before = server.metrics().NumCompleted();
  const PhaseResult nominal = gen.OpenLoop(
      spec.nominal_rps, OpenSeconds(spec.nominal_rps, kTracedNominalShare * s, kMinWindows));
  report->Count(nominal);
  PrintPhase("nominal+t", spec.nominal_rps, nominal, limit);
  CheckLag(spec, LatencyOf(nominal.lag_ms, 0.99), report);
  server.trace().Disable();
  server.Shutdown();

  // The analysis window spans the nominal phase's arrivals, in trace time.
  const std::vector<TraceEvent> events = server.trace().SortedEvents();
  double window_begin = -1, window_end = -1;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEventKind::kRequestArrival && ev.id == nominal.first_id) {
      window_begin = ev.ts_micros;
    }
    if (ev.kind == TraceEventKind::kRequestArrival && ev.id == nominal.last_id) {
      window_end = ev.ts_micros;
    }
  }
  if (!(window_end > window_begin)) {
    report->Invalid("nominal phase arrivals missing from the trace");
    window_begin = 0;
    window_end = 1;
  }
  const TraceStages stages = AnalyzeTrace(events, window_begin, window_end, kNumWorkers);

  std::vector<double> queue_ms, compute_ms;
  const auto& records = server.metrics().records();
  for (size_t i = records_before; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    if (r.id >= nominal.first_id && r.id <= nominal.last_id && r.exec_start_micros >= 0) {
      queue_ms.push_back(r.QueueingMicros() / 1e3);
      compute_ms.push_back(r.ComputeMicros() / 1e3);
    }
  }

  const ManagerReplay manager =
      ReplayManager(spec, *model, pool, args.seed, kReplayShare * s);
  const KernelReplay kernels = ReplayKernels(*model, stages.batches, args.seed);

  const int64_t n_nominal = nominal.sent;
  const int64_t n_tasks = stages.tasks;
  report->Add("server.submit_us", Mean(nominal.submit_us), "us", n_nominal);
  report->Add("server.queue_ms", Mean(queue_ms), "ms", static_cast<int64_t>(queue_ms.size()));
  report->Add("server.compute_ms", Mean(compute_ms), "ms",
              static_cast<int64_t>(compute_ms.size()));
  report->Add("server.form_to_gather_us", stages.form_to_gather_us, "us", n_tasks);
  report->Add("server.gather_us", stages.gather_us, "us", n_tasks);
  report->Add("server.staged_wait_us", stages.staged_wait_us, "us", n_tasks);
  report->Add("server.exec_us", stages.exec_us, "us", n_tasks);
  report->Add("server.worker_idle_ratio", stages.idle_ratio, "ratio", n_tasks);
  report->Add("server.batch_size_mean", stages.batch_size_mean, "rows", n_tasks);
  report->Add("server.tasks_per_request",
              static_cast<double>(n_tasks) / static_cast<double>(n_nominal), "count", n_nominal);
  report->Add("server.steals", static_cast<double>(server.StealsExecuted()), "count", 1);
  report->Add("scheduler.schedule_us", manager.schedule_us, "us", manager.requests);
  report->Add("scheduler.tasks_per_call", manager.tasks_per_call, "count", manager.requests);
  report->Add("request_processor.add_us", manager.add_us, "us", manager.requests);
  report->Add("request_processor.complete_us", manager.complete_us, "us", manager.requests);
  report->Add("assembler.gather_us_per_row", kernels.gather_us_per_row, "us", kernels.tasks);
  report->Add("assembler.scatter_us_per_row", kernels.scatter_us_per_row, "us", kernels.tasks);
  report->Add("executor.cell_us", kernels.cell_us, "us", kernels.tasks);
  report->Add("executor.non_gemm_share", kernels.non_gemm_share, "ratio", kernels.tasks);
  report->Add("tensor.gemm_us", kernels.gemm_us, "us", kernels.tasks);
  report->Add("tensor.gemm_gflops", kernels.gemm_gflops, "GFLOP/s", kernels.tasks);
  report->Add("tensor.gate_ops_us", kernels.gate_ops_us, "us", kernels.tasks);
  report->Add("tensor.gemm_flops_per_task", kernels.gemm_flops_per_task, "count",
              kernels.tasks);
  report->Add("tensor.gemm_bytes_per_task", kernels.gemm_bytes_per_task, "bytes",
              kernels.tasks);
  report->Add("mem.rss_bytes_per_request",
              static_cast<double>(plain.heap_growth_bytes) / static_cast<double>(plain.sent),
              "bytes", plain.sent);
  // The CPU cost per request traced over untraced: unlike their
  // throughputs, it does not move with the load of other programs.
  report->Add("obs.trace_overhead",
              (traced.server_cpu_s / static_cast<double>(traced.ok)) /
                      (plain.server_cpu_s / static_cast<double>(plain.ok)) -
                  1.0,
              "ratio", traced.ok);
  report->Add("obs.span_sum_ratio", stages.sum_ratio, "ratio", kNumWorkers);
  report->Add("obs.span_coverage_min", stages.coverage_min, "ratio", kNumWorkers);
  report->Add("setup.pack_ms", setup.pack_ms, "ms", kSetupReps);
  report->Add("setup.start_ms", setup.start_ms, "ms", kSetupReps);
  report->Add("loadgen.lag_ms_p99", LatencyOf(nominal.lag_ms, 0.99), "ms", n_nominal);
  report->Add("loadgen.max_outstanding", static_cast<double>(nominal.max_outstanding), "count",
              n_nominal);
  std::printf("accounting: spans sum to %.4f of workers x wall (limit 1 +- %.2f); %s\n",
              stages.sum_ratio, kAccountingTolerance,
              std::abs(stages.sum_ratio - 1.0) <= kAccountingTolerance ? "pass" : "FAIL");
  if (std::abs(stages.sum_ratio - 1.0) > kAccountingTolerance) {
    report->Invalid("worker time accounting: gather, exec and idle spans sum to " +
                    std::to_string(stages.sum_ratio) + " of workers x wall time");
  }
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  PrintInfo(args, &report);
  if (args.trace) {
    RunTraced(*spec, args, &report);
  } else {
    RunEndToEnd(*spec, args, &report);
  }
  report.PrintFinal();
  return 0;
}
