#include "src/device/worker_device.h"

#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "src/graph/cell_def.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace batchmaker {

namespace {

// The real-compute device: pre-packed GEMM on an intra-task ThreadPool,
// TensorArena staging and scratch, and node-local weight replicas under
// NumaPolicy::kPinReplicate. It makes exactly the BatchAssembler calls
// SyncEngine makes, so results are bitwise identical (determinism_test).
class CpuDevice : public WorkerDevice {
 public:
  explicit CpuDevice(const WorkerDeviceOptions& options)
      : registry_(options.registry),
        assembler_(options.registry),
        pool_(options.threads, options.thread_name_prefix),
        replica_node_(options.replicate_weights ? options.numa_node : -1),
        stage_ctx_{/*pool=*/nullptr, &staging_, options.precision},
        exec_ctx_{&pool_, &scratch_, options.precision, replica_node_} {
    if (options.numa_node >= 0) {
      // First-touch both arenas from the pinned owner so their
      // steady-state pages live on this node.
      staging_.Prefault(size_t{1} << 20);
      scratch_.Prefault(size_t{1} << 20);
    }
    if (replica_node_ >= 0) {
      replicated_.reserve(static_cast<size_t>(registry_->NumTypes()));
      for (CellTypeId t = 0; t < registry_->NumTypes(); ++t) {
        const CellExecutor& executor = registry_->executor(t);
        executor.AcquireNodeReplica(replica_node_, executor.precision() != Precision::kF32
                                                       ? executor.precision()
                                                       : options.precision);
        replicated_.push_back(&executor);
      }
    }
  }

  ~CpuDevice() override {
    for (const CellExecutor* executor : replicated_) {
      executor->ReleaseNodeReplica(replica_node_);
    }
  }

  GatheredBatch Gather(const BatchedTask& task, const std::vector<RequestState*>& states,
                       const std::vector<uint8_t>* poisoned) override {
    // Serial row copies: the gather is a small share of a task (DESIGN.md
    // "One thread per worker").
    GatheredBatch gathered;
    assembler_.GatherInputs(task, states, &gathered, &stage_ctx_, poisoned);
    return gathered;
  }

  std::optional<std::vector<Tensor>> Execute(const BatchedTask& task,
                                             GatheredBatch&& gathered) override {
    std::optional<std::vector<Tensor>> outputs;
    try {
      outputs = assembler_.ExecuteGathered(task, gathered, &exec_ctx_);
    } catch (const std::exception&) {
      // A real (non-injected) execution failure: the task produced nothing.
    }
    // The staged inputs and the cell intermediates are dead; the outputs
    // own their storage.
    gathered.inputs.clear();
    staging_.Reset();
    scratch_.Reset();
    return outputs;
  }

  void Scatter(const BatchedTask& task, const std::vector<RequestState*>& states,
               const std::vector<Tensor>& outputs,
               const std::vector<uint8_t>* poisoned) override {
    assembler_.ScatterOutputs(task, states, outputs, &exec_ctx_, poisoned);
  }

 private:
  const CellRegistry* registry_;
  const BatchAssembler assembler_;
  ThreadPool pool_;
  TensorArena staging_;
  TensorArena scratch_;
  const int replica_node_;
  std::vector<const CellExecutor*> replicated_;
  const ExecContext stage_ctx_;
  const ExecContext exec_ctx_;
};

// The compute-free device for scheduling studies and stress tests: it
// reads no input rows and completes each task with zero outputs of the
// declared shapes after a fixed latency, so the Server's own machinery —
// scheduling, failure poisoning, watchdog — runs without kernel cost.
class NullDevice : public WorkerDevice {
 public:
  explicit NullDevice(const WorkerDeviceOptions& options)
      : registry_(options.registry),
        assembler_(options.registry),
        latency_(std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::micro>(options.null_latency_micros))) {
    BM_CHECK_GE(options.null_latency_micros, 0.0);
  }

  GatheredBatch Gather(const BatchedTask&, const std::vector<RequestState*>&,
                       const std::vector<uint8_t>*) override {
    return {};
  }

  std::optional<std::vector<Tensor>> Execute(const BatchedTask& task,
                                             GatheredBatch&&) override {
    const CellDef& cell = registry_->def(task.type);
    std::vector<Tensor> outputs;
    outputs.reserve(static_cast<size_t>(cell.NumOutputs()));
    for (int i = 0; i < cell.NumOutputs(); ++i) {
      const ValueType& vt = cell.output_type(i);
      std::vector<int64_t> dims{task.BatchSize()};
      dims.insert(dims.end(), vt.shape.dims().begin(), vt.shape.dims().end());
      outputs.push_back(Tensor::Zeros(Shape(std::move(dims)), vt.dtype));
    }
    std::this_thread::sleep_for(latency_);
    return outputs;
  }

  void Scatter(const BatchedTask& task, const std::vector<RequestState*>& states,
               const std::vector<Tensor>& outputs,
               const std::vector<uint8_t>* poisoned) override {
    // A real scatter: downstream tasks and terminal outputs see the zero
    // rows, so the dataflow plumbing stays exercised.
    assembler_.ScatterOutputs(task, states, outputs, /*ctx=*/nullptr, poisoned);
  }

 private:
  const CellRegistry* registry_;
  const BatchAssembler assembler_;
  const std::chrono::steady_clock::duration latency_;
};

template <typename Device>
std::unique_ptr<WorkerDevice> Make(const WorkerDeviceOptions& options) {
  BM_CHECK(options.registry != nullptr);
  return std::make_unique<Device>(options);
}

}  // namespace

MakeWorkerDeviceFn FindWorkerDevice(const std::string& name) {
  if (name == "cpu") {
    return &Make<CpuDevice>;
  }
  if (name == "null") {
    return &Make<NullDevice>;
  }
  return nullptr;
}

}  // namespace batchmaker
