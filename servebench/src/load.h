// The load generator: one thread that submits recycled pool requests to a
// running Server, open loop (Poisson arrivals at a fixed rate) or closed
// loop (a fixed number outstanding), and checks every answer from outside
// the program: each Submit's callback must fire exactly once, and a seeded
// sample of kOk outputs must equal the SyncEngine reference bitwise.

#ifndef SERVEBENCH_SRC_LOAD_H_
#define SERVEBENCH_SRC_LOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "servebench/src/workload.h"
#include "src/core/server.h"
#include "src/util/rng.h"

namespace servebench {

int64_t NowNs();
// CPU time of the whole process so far (every thread, user and system),
// ns. It advances only while a thread runs, so time other tenants of the
// host take does not count.
int64_t ProcessCpuNs();

// Nearest-rank percentile of `values` (q in [0, 1]); +inf entries sort
// last. NaN for an empty vector.
double Percentile(std::vector<double> values, double q);

// Phases are measured in short consecutive windows: latency percentiles
// per kWindowSamples requests (so a p99 has ten samples beyond it), rates
// per kRateWindowSeconds. The host's vCPUs are preempted in bursts; short
// windows leave some of them undisturbed.
inline constexpr double kWindowSamples = 1000;
inline constexpr double kRateWindowSeconds = 0.1;

// Percentile q of each window of consecutive `values` (in send order).
std::vector<double> WindowPercentiles(const std::vector<double>& values, double q);

// What one phase sent and got back.
struct PhaseResult {
  int64_t sent = 0;
  int64_t ok = 0;
  // Terminal statuses other than kOk, by kind.
  int64_t shed = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  // kOk responses whose sampled output differed from the reference.
  int64_t mismatched = 0;
  int64_t checked = 0;
  // Submits whose callback fired zero times or more than once.
  int64_t callback_errors = 0;
  // Per request, from its due send time (open loop) or actual send time
  // (closed loop) to its callback, in ms; +inf for anything but a correct
  // kOk. Open loop: only requests due after the phase's first tenth.
  std::vector<double> latency_ms;
  // Open loop: actual minus due send time per request, ms (same requests).
  std::vector<double> lag_ms;
  // Wall time of each Server::Submit call on the load thread, us.
  std::vector<double> submit_us;
  int64_t max_outstanding = 0;
  // Requests still outstanding when the last one was sent.
  int64_t backlog_at_end = 0;
  // Open loop: sending stopped early because the backlog passed its cap.
  bool overloaded = false;
  // Open loop: the rate the requests were sent at, from their due times.
  double sent_rps = 0.0;
  // Growth of the process's heap in use from the first send until every
  // answer arrived (the phase's own bookkeeping is allocated beforehand).
  int64_t heap_growth_bytes = 0;
  // kOk completions per second in each kRateWindowSeconds span of the
  // phase after its first tenth.
  std::vector<double> window_ok_rps;
  double seconds = 0.0;
  // CPU time the server spent on the phase, from the first send until
  // every answer arrived, seconds: every thread of the process but the
  // load thread, plus the load thread's time inside Server::Submit.
  double server_cpu_s = 0.0;
  // Server-side ids of the first and last request sent.
  batchmaker::RequestId first_id = batchmaker::kInvalidRequestId;
  batchmaker::RequestId last_id = batchmaker::kInvalidRequestId;

  int64_t Failures() const {
    return shed + rejected + failed + cancelled + mismatched + callback_errors;
  }
};

class LoadGenerator {
 public:
  // `server` must be started; `pool` must outlive the generator.
  LoadGenerator(batchmaker::Server* server, const std::vector<PoolEntry>* pool,
                uint64_t seed);
  // Callbacks may still reference the phases: destroy the generator only
  // after the Server has shut down.
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Whether the load thread got its raised scheduling priority (needs
  // CAP_SYS_NICE); without it, send lag rises on a busy host.
  bool priority_raised() const { return priority_raised_; }

  // Poisson arrivals at `rate_rps` for `seconds`; waits for every answer.
  // Latency and lag are kept for requests after the first tenth. Stops
  // sending once more than `max_backlog` requests are outstanding (0: no
  // cap), which bounds the memory an overloaded phase takes.
  PhaseResult OpenLoop(double rate_rps, double seconds, int64_t max_backlog = 0);
  // Keeps `outstanding` requests in flight for `seconds`; waits for every
  // answer. Sends at most `max_requests`.
  PhaseResult ClosedLoop(int outstanding, double seconds, int64_t max_requests);

 private:
  struct Phase;
  struct Answer;
  // The pool entry to send next: entries go out in passes over a fresh
  // shuffle of the whole pool, so every stretch of a phase sends the same
  // mix of request sizes.
  uint32_t NextEntry(batchmaker::Rng* rng);
  void Send(Phase* phase, int64_t index, batchmaker::CellGraph graph,
            std::vector<batchmaker::Tensor> externals, PhaseResult* result);
  // Waits for the phase's answers and tallies them; `start` is when the
  // phase began sending and `heap_before` the heap in use just before.
  void Finish(Phase* phase, int64_t start, int64_t heap_before, PhaseResult* result);

  batchmaker::Server* server_;
  const std::vector<PoolEntry>* pool_;
  uint64_t seed_;
  bool priority_raised_ = false;
  // Phases of one generator draw from distinct streams.
  uint64_t phase_counter_ = 0;
  std::vector<std::unique_ptr<Phase>> phases_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_SRC_LOAD_H_
