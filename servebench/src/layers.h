// Per-layer measurements for the traced run. Nothing here adds a trace
// point to the program: the server stages come from the events the Server
// already records, and the manager, assembler, executor and tensor layers
// are timed by calling their public functions from the benchmark.

#ifndef SERVEBENCH_SRC_LAYERS_H_
#define SERVEBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "servebench/src/workload.h"
#include "src/obs/trace.h"

namespace servebench {

// (cell type, batch size) -> tasks executed.
using BatchHistogram = std::map<std::pair<int, int>, int64_t>;

// Stage spans of the tasks that began executing inside the window, from
// the Server's trace. Means, in microseconds.
struct TraceStages {
  int64_t tasks = 0;
  double form_to_gather_us = 0.0;  // TaskFormed -> GatherBegin (stream queue)
  double gather_us = 0.0;          // GatherBegin -> GatherEnd
  double staged_wait_us = 0.0;     // GatherEnd -> ExecBegin
  double exec_us = 0.0;            // ExecBegin -> ExecEnd (execute + scatter)
  double batch_size_mean = 0.0;
  // WorkerIdle time in the window over workers x wall time.
  double idle_ratio = 0.0;
  // Worker time accounting over the window. sum_ratio: the gather, exec
  // and idle spans of all workers summed, over workers x wall time (gather
  // runs on the staging thread, so it can overlap exec). coverage_min: the
  // lowest worker's share of wall time inside the union of its spans; the
  // rest is per-task work no span covers, such as the completion hand-off.
  double sum_ratio = 0.0;
  double coverage_min = 0.0;
  BatchHistogram batches;
};

// `window_begin`/`window_end` are trace timestamps (micros since Start).
TraceStages AnalyzeTrace(const std::vector<batchmaker::TraceEvent>& events,
                         double window_begin, double window_end, int num_workers);

// Manager-only replay of the workload's request stream through
// RequestProcessor::AddRequest, Scheduler::Schedule and
// Scheduler::OnTaskCompleted (which runs RequestProcessor::MarkCompleted),
// with no tensors and no execution, for one shard and its workers.
struct ManagerReplay {
  double schedule_us = 0.0;     // mean per Schedule call
  double tasks_per_call = 0.0;  // tasks formed per Schedule call
  double add_us = 0.0;          // mean per AddRequest
  double complete_us = 0.0;     // mean per task completion
  int64_t requests = 0;
};
ManagerReplay ReplayManager(const WorkloadSpec& spec, const Model& model,
                            const std::vector<PoolEntry>& pool, uint64_t seed,
                            double seconds);

// Single-thread replay of GatherInputs / ExecuteGathered / ScatterOutputs
// at task shapes drawn from `batches`, plus GemmPacked and the cell's
// other ops timed one by one at the same shapes. Per-task means unless
// named otherwise.
struct KernelReplay {
  double gather_us_per_row = 0.0;
  double scatter_us_per_row = 0.0;
  double cell_us = 0.0;       // ExecuteGathered
  double gemm_us = 0.0;       // GemmPacked over the cell's MatMuls
  double gate_ops_us = 0.0;   // every other op of the cell, timed alone
  double gemm_gflops = 0.0;
  double non_gemm_share = 0.0;  // 1 - gemm_us / cell_us
  double gemm_flops_per_task = 0.0;
  double gemm_bytes_per_task = 0.0;  // A, packed B and C, from shapes
  int64_t tasks = 0;
};
KernelReplay ReplayKernels(const Model& model, const BatchHistogram& batches, uint64_t seed);

}  // namespace servebench

#endif  // SERVEBENCH_SRC_LAYERS_H_
