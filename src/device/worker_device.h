// WorkerDevice: the device one Server worker thread executes its task
// stream on (DESIGN.md "Worker device").
//
// The paper's §5 execution model is one FIFO stream per device. Each
// Server worker owns one WorkerDevice and runs every task it pops through
// it synchronously, one task at a time: Gather, Execute, Scatter. Task t
// has scattered before task t+1 gathers, so a consumer never reads a row
// its producer has not written, no completion needs a fence, and one
// staging arena, reset after every execute, suffices.
//
// All three calls run on the worker thread, and the device is built there
// too, after any NUMA pinning: its pool threads, arenas and weight
// replicas inherit the thread's affinity and first-touch placement. A
// respawned worker thread builds a fresh device.

#ifndef SRC_DEVICE_WORKER_DEVICE_H_
#define SRC_DEVICE_WORKER_DEVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/batch_assembler.h"

namespace batchmaker {

// What a device is built from. Each device reads the fields it needs.
struct WorkerDeviceOptions {
  const CellRegistry* registry = nullptr;
  // Engine-wide GEMM precision (a cell's own precision wins) — cpu.
  Precision precision = Precision::kF32;
  // Intra-task pool width and its thread-name prefix — cpu.
  int threads = 1;
  std::string thread_name_prefix;
  // NUMA node the worker thread is pinned to, -1 = unpinned: the arenas
  // are prefaulted from the pinned thread — cpu.
  int numa_node = -1;
  // Hold node-local replicas of the packed weights
  // (NumaPolicy::kPinReplicate) — cpu.
  bool replicate_weights = false;
  // Fixed execute latency per task, micros — null.
  double null_latency_micros = 0.0;
};

class WorkerDevice {
 public:
  WorkerDevice() = default;
  WorkerDevice(const WorkerDevice&) = delete;
  WorkerDevice& operator=(const WorkerDevice&) = delete;
  virtual ~WorkerDevice() = default;

  // Batches one row per task entry, per cell input slot, into the
  // device's staging arena. Rows marked in `poisoned` (optional, size ==
  // batch) gather as zeros: their producers failed and wrote nothing.
  virtual GatheredBatch Gather(const BatchedTask& task,
                               const std::vector<RequestState*>& states,
                               const std::vector<uint8_t>* poisoned) = 0;

  // Runs the whole batch and resets the staging and scratch arenas.
  // Returns the [batch, ...] outputs, which own their storage, or nullopt
  // when the task produced nothing (the cell threw).
  virtual std::optional<std::vector<Tensor>> Execute(const BatchedTask& task,
                                                     GatheredBatch&& gathered) = 0;

  // Writes each output row back to its entry's node outputs, skipping the
  // rows marked in `poisoned`.
  virtual void Scatter(const BatchedTask& task, const std::vector<RequestState*>& states,
                       const std::vector<Tensor>& outputs,
                       const std::vector<uint8_t>* poisoned) = 0;
};

// Builds one worker's device; call it on the worker thread.
using MakeWorkerDeviceFn = std::unique_ptr<WorkerDevice> (*)(const WorkerDeviceOptions&);

// The builder of device `name`: "cpu" (real compute) or "null" (zero
// outputs after a fixed latency). Null for any other name.
MakeWorkerDeviceFn FindWorkerDevice(const std::string& name);

}  // namespace batchmaker

#endif  // SRC_DEVICE_WORKER_DEVICE_H_
