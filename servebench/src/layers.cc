#include "servebench/src/layers.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "servebench/src/load.h"
#include "src/core/batch_assembler.h"
#include "src/core/request_processor.h"
#include "src/core/scheduler.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace servebench {

using namespace batchmaker;

namespace {

// Task shapes drawn from the traced run's histogram, and timed repetitions
// of each (the median is kept).
constexpr int kReplayTasks = 48;
constexpr int kReplayReps = 5;
// Leaf tokens stay below every workload's vocabulary.
constexpr uint64_t kReplayTokens = 1000;

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

// Length of the union of `spans` clipped to [begin, end).
double CoveredLength(std::vector<std::pair<double, double>> spans, double begin, double end) {
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double reach = begin;
  for (auto [lo, hi] : spans) {
    lo = std::max(lo, reach);
    hi = std::min(hi, end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

}  // namespace

TraceStages AnalyzeTrace(const std::vector<TraceEvent>& events, double window_begin,
                         double window_end, int num_workers) {
  struct Span {
    double formed = -1, gather_begin = -1, gather_end = -1, exec_begin = -1, exec_end = -1;
    int worker = -1;
    int type = -1;
    int batch = 0;
  };
  TraceStages out;
  std::unordered_map<uint64_t, Span> tasks;
  std::vector<std::vector<std::pair<double, double>>> busy(static_cast<size_t>(num_workers));
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case TraceEventKind::kTaskFormed:
        tasks[ev.id].formed = ev.ts_micros;
        break;
      case TraceEventKind::kGatherBegin:
        tasks[ev.id].gather_begin = ev.ts_micros;
        break;
      case TraceEventKind::kGatherEnd:
        tasks[ev.id].gather_end = ev.ts_micros;
        break;
      case TraceEventKind::kExecBegin: {
        Span& span = tasks[ev.id];
        span.exec_begin = ev.ts_micros;
        span.worker = ev.worker;
        span.type = ev.type;
        span.batch = ev.value;
        break;
      }
      case TraceEventKind::kExecEnd:
        tasks[ev.id].exec_end = ev.ts_micros;
        break;
      case TraceEventKind::kWorkerIdle:
        if (ev.worker >= 0 && ev.worker < num_workers) {
          busy[static_cast<size_t>(ev.worker)].emplace_back(ev.ts_micros, ev.aux_micros);
          out.idle_ratio += std::max(0.0, std::min(ev.aux_micros, window_end) -
                                              std::max(ev.ts_micros, window_begin));
        }
        break;
      default:
        break;
    }
  }

  double form_to_gather = 0, gather = 0, staged_wait = 0, exec = 0, batch = 0;
  int64_t gathered = 0;
  for (const auto& [id, span] : tasks) {
    if (span.worker < 0 || span.worker >= num_workers || span.exec_end < 0) {
      continue;
    }
    auto& spans = busy[static_cast<size_t>(span.worker)];
    spans.emplace_back(span.exec_begin, span.exec_end);
    if (span.gather_begin >= 0 && span.gather_end >= 0) {
      spans.emplace_back(span.gather_begin, span.gather_end);
    }
    if (span.exec_begin < window_begin || span.exec_begin >= window_end) {
      continue;
    }
    ++out.tasks;
    exec += span.exec_end - span.exec_begin;
    batch += span.batch;
    ++out.batches[{span.type, span.batch}];
    if (span.formed >= 0 && span.gather_begin >= 0 && span.gather_end >= 0) {
      ++gathered;
      form_to_gather += span.gather_begin - span.formed;
      gather += span.gather_end - span.gather_begin;
      staged_wait += span.exec_begin - span.gather_end;
    }
  }
  if (out.tasks > 0) {
    out.exec_us = exec / static_cast<double>(out.tasks);
    out.batch_size_mean = batch / static_cast<double>(out.tasks);
  }
  if (gathered > 0) {
    out.form_to_gather_us = form_to_gather / static_cast<double>(gathered);
    out.gather_us = gather / static_cast<double>(gathered);
    out.staged_wait_us = staged_wait / static_cast<double>(gathered);
  }
  const double wall = window_end - window_begin;
  double summed = 0.0;
  out.coverage_min = 1.0;
  for (auto& spans : busy) {
    for (const auto& [lo, hi] : spans) {
      summed += std::max(0.0, std::min(hi, window_end) - std::max(lo, window_begin));
    }
    const double coverage = CoveredLength(std::move(spans), window_begin, window_end) / wall;
    out.coverage_min = std::min(out.coverage_min, coverage);
  }
  out.sum_ratio = summed / (num_workers * wall);
  out.idle_ratio /= num_workers * wall;
  return out;
}

ManagerReplay ReplayManager(const WorkloadSpec& spec, const Model& model,
                            const std::vector<PoolEntry>& pool, uint64_t seed,
                            double seconds) {
  const int workers = kNumWorkers / spec.num_shards;
  const int64_t outstanding = std::max(1, spec.closed_outstanding / spec.num_shards);
  const size_t depth = static_cast<size_t>(MakeServerOptions(spec, false).pipeline_depth);
  int64_t active = 0;
  ManagerReplay out;
  std::unique_ptr<Scheduler> scheduler;
  RequestProcessor processor(
      &model.registry, [&](Subgraph* sg) { scheduler->EnqueueSubgraph(sg); },
      [&](RequestState*) {
        --active;
        ++out.requests;
      });
  scheduler = std::make_unique<Scheduler>(&model.registry, &processor, SchedulerOptions{});

  Rng rng(seed);
  std::vector<std::deque<BatchedTask>> inflight(static_cast<size_t>(workers));
  int64_t add_ns = 0, adds = 0, schedule_ns = 0, calls = 0, formed = 0;
  int64_t complete_ns = 0, completions = 0;
  RequestId next_id = 1;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    while (active < outstanding) {
      CellGraph graph = pool[rng.NextBelow(pool.size())].graph;
      const int64_t t0 = NowNs();
      processor.AddRequest(next_id++, std::move(graph), 0.0);
      add_ns += NowNs() - t0;
      ++adds;
      ++active;
    }
    for (auto& stream : inflight) {
      const int worker = static_cast<int>(&stream - inflight.data());
      while (stream.size() < depth) {
        const int64_t t0 = NowNs();
        std::vector<BatchedTask> tasks = scheduler->Schedule(worker, 0.0);
        schedule_ns += NowNs() - t0;
        ++calls;
        formed += static_cast<int64_t>(tasks.size());
        if (tasks.empty()) {
          break;
        }
        for (BatchedTask& task : tasks) {
          stream.push_back(std::move(task));
        }
      }
    }
    bool progressed = false;
    for (auto& stream : inflight) {
      if (stream.empty()) {
        continue;
      }
      const BatchedTask task = std::move(stream.front());
      stream.pop_front();
      const int64_t t0 = NowNs();
      scheduler->OnTaskCompleted(task);
      complete_ns += NowNs() - t0;
      ++completions;
      progressed = true;
    }
    BM_CHECK(progressed) << "manager replay stalled with " << active << " active requests";
  }
  out.schedule_us = static_cast<double>(schedule_ns) / 1e3 / static_cast<double>(calls);
  out.tasks_per_call = static_cast<double>(formed) / static_cast<double>(calls);
  out.add_us = static_cast<double>(add_ns) / 1e3 / static_cast<double>(adds);
  out.complete_us = static_cast<double>(complete_ns) / 1e3 / static_cast<double>(completions);
  return out;
}

KernelReplay ReplayKernels(const Model& model, const BatchHistogram& batches, uint64_t seed) {
  KernelReplay out;
  int64_t total = 0;
  for (const auto& [shape, count] : batches) {
    total += count;
  }
  if (total == 0) {
    return out;
  }
  Rng rng(seed);
  const CellRegistry& registry = model.registry;
  BatchAssembler assembler(&registry);
  TensorArena staging;
  TensorArena scratch;
  TensorArena op_arena;
  const ExecContext gather_ctx{nullptr, &staging, Precision::kF32};
  const ExecContext exec_ctx{nullptr, &scratch, Precision::kF32};
  // Weights packed once per MatMul, as the executor pre-packs them.
  std::map<std::pair<int, int>, PackedMatrix> packed;

  double gather_us = 0, scatter_us = 0, cell_us = 0, gemm_us = 0, gate_us = 0;
  double flops = 0, bytes = 0;
  int64_t rows = 0;
  for (int k = 0; k < kReplayTasks; ++k) {
    int64_t pick = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(total)));
    auto it = batches.begin();
    while (pick >= it->second) {
      pick -= it->second;
      ++it;
    }
    const CellTypeId type = it->first.first;
    const int b = it->first.second;
    const CellDef& def = registry.def(type);

    // b single-cell requests whose inputs are all externals.
    RequestProcessor processor(&registry, [](Subgraph*) {}, [](RequestState*) {});
    BatchedTask task;
    task.id = static_cast<uint64_t>(k);
    task.type = type;
    std::vector<RequestState*> states;
    for (int i = 0; i < b; ++i) {
      CellGraph graph;
      std::vector<ValueRef> inputs;
      std::vector<Tensor> externals;
      for (int slot = 0; slot < def.NumInputs(); ++slot) {
        const CellInputSpec& spec = def.input_spec(slot);
        inputs.push_back(ValueRef::External(slot));
        if (spec.dtype == DType::kI32) {
          const auto token = static_cast<int32_t>(rng.NextBelow(kReplayTokens));
          externals.push_back(ExternalTokenTensor(token));
        } else {
          std::vector<int64_t> dims{1};
          for (int64_t d : spec.row_shape.dims()) {
            dims.push_back(d);
          }
          externals.push_back(Tensor::RandomUniform(Shape(std::move(dims)), 1.0f, &rng));
        }
      }
      graph.AddNode(type, std::move(inputs));
      const RequestId id = static_cast<RequestId>(i + 1);
      states.push_back(processor.AddRequest(id, std::move(graph), 0.0, std::move(externals)));
      task.entries.push_back(TaskEntry{id, 0});
    }

    std::vector<double> gather_t, exec_t, scatter_t, gemm_t, gate_t;
    double task_flops = 0, task_bytes = 0;
    for (int rep = 0; rep < kReplayReps; ++rep) {
      GatheredBatch gathered;
      const int64_t t0 = NowNs();
      assembler.GatherInputs(task, states, &gathered, &gather_ctx);
      const int64_t t1 = NowNs();
      std::vector<Tensor> outputs = assembler.ExecuteGathered(task, gathered, &exec_ctx);
      const int64_t t2 = NowNs();
      assembler.ScatterOutputs(task, states, outputs, &exec_ctx);
      const int64_t t3 = NowNs();
      gather_t.push_back(static_cast<double>(t1 - t0) / 1e3);
      exec_t.push_back(static_cast<double>(t2 - t1) / 1e3);
      scatter_t.push_back(static_cast<double>(t3 - t2) / 1e3);
      outputs.clear();
      scratch.Reset();

      // The cell's ops one by one on the same gathered inputs.
      double gemm_ns = 0, gate_ns = 0;
      task_flops = 0;
      task_bytes = 0;
      {
        ArenaScope scope(&op_arena);
        std::vector<Tensor> values(static_cast<size_t>(def.NumOps()));
        auto in = [&](const OpNode& op, int i) -> const Tensor& {
          const int src = op.inputs[static_cast<size_t>(i)];
          return def.op(src).kind == OpKind::kParam ? def.op(src).weight
                                                    : values[static_cast<size_t>(src)];
        };
        for (const int id : def.TopoOrder()) {
          const OpNode& op = def.op(id);
          Tensor& value = values[static_cast<size_t>(id)];
          if (op.kind == OpKind::kParam) {
            continue;
          }
          if (op.kind == OpKind::kInput) {
            value = gathered.inputs[static_cast<size_t>(op.i0)];
            continue;
          }
          const int64_t s = NowNs();
          switch (op.kind) {
            case OpKind::kMatMul: {
              const Tensor& a = in(op, 0);
              const Tensor& w = in(op, 1);
              PackedMatrix& pm = packed[{type, id}];
              if (pm.n() == 0) {
                pm = PackedMatrix::Pack(w);
              }
              const int64_t m = a.shape().Dim(0);
              value = Tensor::Uninitialized(Shape{m, pm.n()});
              const int64_t g0 = NowNs();
              GemmPacked(a.f32(), pm, value.f32(), m, /*accumulate=*/false);
              gemm_ns += static_cast<double>(NowNs() - g0);
              task_flops += 2.0 * static_cast<double>(m * pm.k() * pm.n());
              task_bytes += 4.0 * static_cast<double>(m * pm.k() + pm.k() * pm.n() + m * pm.n());
              continue;
            }
            case OpKind::kAdd:
              value = Add(in(op, 0), in(op, 1));
              break;
            case OpKind::kSub:
              value = Sub(in(op, 0), in(op, 1));
              break;
            case OpKind::kMul:
              value = Mul(in(op, 0), in(op, 1));
              break;
            case OpKind::kAddBias:
              value = AddBias(in(op, 0), in(op, 1));
              break;
            case OpKind::kSigmoid:
              value = Sigmoid(in(op, 0));
              break;
            case OpKind::kTanh:
              value = Tanh(in(op, 0));
              break;
            case OpKind::kConcat: {
              std::vector<const Tensor*> parts;
              for (size_t i = 0; i < op.inputs.size(); ++i) {
                parts.push_back(&in(op, static_cast<int>(i)));
              }
              value = ConcatCols(parts);
              break;
            }
            case OpKind::kSlice:
              value = SliceCols(in(op, 0), op.i0, op.i1);
              break;
            case OpKind::kEmbedLookup:
              value = EmbeddingLookup(in(op, 0), in(op, 1));
              break;
            default:
              BM_CHECK(false) << "servebench: no op timing for " << OpKindName(op.kind);
          }
          gate_ns += static_cast<double>(NowNs() - s);
        }
      }
      op_arena.Reset();
      gathered.inputs.clear();
      staging.Reset();
      gemm_t.push_back(gemm_ns / 1e3);
      gate_t.push_back(gate_ns / 1e3);
    }
    gather_us += Median(gather_t);
    cell_us += Median(exec_t);
    scatter_us += Median(scatter_t);
    gemm_us += Median(gemm_t);
    gate_us += Median(gate_t);
    flops += task_flops;
    bytes += task_bytes;
    rows += b;
  }
  const double n = kReplayTasks;
  out.tasks = kReplayTasks;
  out.gather_us_per_row = gather_us / static_cast<double>(rows);
  out.scatter_us_per_row = scatter_us / static_cast<double>(rows);
  out.cell_us = cell_us / n;
  out.gemm_us = gemm_us / n;
  out.gate_ops_us = gate_us / n;
  out.gemm_gflops = flops / (gemm_us * 1e3);
  out.non_gemm_share = 1.0 - gemm_us / cell_us;
  out.gemm_flops_per_task = flops / n;
  out.gemm_bytes_per_task = bytes / n;
  return out;
}

}  // namespace servebench
