#include "src/core/batch_assembler.h"

#include "src/tensor/ops.h"
#include "src/util/logging.h"

namespace batchmaker {

BatchAssembler::BatchAssembler(const CellRegistry* registry) : registry_(registry) {
  BM_CHECK(registry != nullptr);
}

void BatchAssembler::ExecuteTask(const BatchedTask& task, RequestProcessor* processor,
                                 const ExecContext* ctx) const {
  BM_CHECK(processor != nullptr);
  std::vector<RequestState*> states;
  states.reserve(task.entries.size());
  for (const TaskEntry& entry : task.entries) {
    RequestState* state = processor->FindRequest(entry.request);
    BM_CHECK(state != nullptr) << "task entry for unknown request " << entry.request;
    states.push_back(state);
  }
  ExecuteTask(task, states, ctx);
}

void BatchAssembler::ExecuteTask(const BatchedTask& task,
                                 const std::vector<RequestState*>& states,
                                 const ExecContext* ctx) const {
  TensorArena* arena = ctx != nullptr ? ctx->arena : nullptr;
  std::vector<Tensor> outputs;
  {
    // Gather + execute share the arena: the per-slot batch buffers and
    // every cell intermediate live exactly as long as this task. The
    // outputs that ExecuteGathered returns are owned copies, so the arena
    // can be recycled before the scatter.
    GatheredBatch gathered;
    GatherInputs(task, states, &gathered, ctx);
    outputs = ExecuteGathered(task, gathered, ctx);
  }
  if (arena != nullptr) {
    arena->Reset();  // gather buffers + intermediates recycled for the next task
  }
  ScatterOutputs(task, states, outputs, ctx);
}

void BatchAssembler::GatherInputs(const BatchedTask& task,
                                  const std::vector<RequestState*>& states,
                                  GatheredBatch* out, const ExecContext* ctx,
                                  const std::vector<uint8_t>* poisoned) const {
  BM_CHECK(out != nullptr);
  BM_CHECK_GT(task.BatchSize(), 0);
  BM_CHECK_EQ(states.size(), task.entries.size());
  const CellDef& def = registry_->def(task.type);
  const int batch = task.BatchSize();
  ThreadPool* pool = ctx != nullptr ? ctx->pool : nullptr;
  TensorArena* arena = ctx != nullptr ? ctx->arena : nullptr;
  if (poisoned != nullptr) {
    BM_CHECK_EQ(poisoned->size(), task.entries.size());
  }
  for (RequestState* state : states) {
    BM_CHECK(state != nullptr);
    BM_CHECK(!state->externals.empty())
        << "real-compute execution requires external input tensors";
  }

  ArenaScope arena_scope(arena);
  out->inputs.clear();
  out->inputs.reserve(static_cast<size_t>(def.NumInputs()));
  std::vector<const Tensor*> sources(static_cast<size_t>(batch));
  const std::vector<int64_t> rows(static_cast<size_t>(batch), 0);  // sources are [1, ...]
  for (int slot = 0; slot < def.NumInputs(); ++slot) {
    const CellInputSpec& slot_spec = def.input_spec(slot);
    // Lazily built substitute source for poisoned rows. A default Tensor is
    // rank 0 with one element, so rank is what marks it unbuilt.
    Tensor zero_row;
    for (int i = 0; i < batch; ++i) {
      if (poisoned != nullptr && (*poisoned)[static_cast<size_t>(i)] != 0) {
        if (zero_row.shape().Rank() == 0) {
          std::vector<int64_t> row_dims{1};
          for (int64_t d : slot_spec.row_shape.dims()) {
            row_dims.push_back(d);
          }
          zero_row = Tensor::Zeros(Shape(std::move(row_dims)), slot_spec.dtype);
        }
        sources[static_cast<size_t>(i)] = &zero_row;
        continue;
      }
      const TaskEntry& entry = task.entries[static_cast<size_t>(i)];
      RequestState* state = states[static_cast<size_t>(i)];
      const CellNode& node = state->graph.node(entry.node);
      const ValueRef& ref = node.inputs[static_cast<size_t>(slot)];
      if (ref.is_external()) {
        BM_CHECK_LT(static_cast<size_t>(ref.external), state->externals.size());
        sources[static_cast<size_t>(i)] =
            &state->externals[static_cast<size_t>(ref.external)];
      } else {
        const auto& producer_outputs = state->node_outputs[static_cast<size_t>(ref.node)];
        BM_CHECK(!producer_outputs.empty())
            << "node " << ref.node << " of request " << entry.request
            << " consumed before it produced output (scheduling bug)";
        sources[static_cast<size_t>(i)] =
            &producer_outputs[static_cast<size_t>(ref.output)];
      }
    }
    std::vector<int64_t> out_dims{batch};
    for (int64_t d : slot_spec.row_shape.dims()) {
      out_dims.push_back(d);
    }
    Tensor gathered = Tensor::Uninitialized(Shape(std::move(out_dims)), slot_spec.dtype);
    if (pool != nullptr && pool->num_threads() > 1 && batch >= 2 * pool->num_threads()) {
      // Row copies are independent; strided row ownership keeps the
      // result identical for any thread count.
      pool->Run(batch,
                [&](int64_t i) { GatherRowsInto(sources, rows, &gathered, i, i + 1); });
    } else {
      GatherRowsInto(sources, rows, &gathered, 0, batch);
    }
    out->inputs.push_back(std::move(gathered));
  }
}

std::vector<Tensor> BatchAssembler::ExecuteGathered(const BatchedTask& task,
                                                    const GatheredBatch& gathered,
                                                    const ExecContext* ctx) const {
  const CellExecutor& executor = registry_->executor(task.type);
  std::vector<const Tensor*> input_ptrs;
  input_ptrs.reserve(gathered.inputs.size());
  for (const Tensor& t : gathered.inputs) {
    input_ptrs.push_back(&t);
  }
  // Execute the whole batch in one cell invocation; the executor opens its
  // own ArenaScope on ctx->arena for intermediates, and its returned
  // outputs always own their storage.
  return executor.Execute(input_ptrs, ctx);
}

void BatchAssembler::ScatterOutputs(const BatchedTask& task,
                                    const std::vector<RequestState*>& states,
                                    const std::vector<Tensor>& outputs,
                                    const ExecContext* ctx,
                                    const std::vector<uint8_t>* poisoned) const {
  BM_CHECK_EQ(states.size(), task.entries.size());
  const int batch = task.BatchSize();
  ThreadPool* pool = ctx != nullptr ? ctx->pool : nullptr;
  if (poisoned != nullptr) {
    BM_CHECK_EQ(poisoned->size(), task.entries.size());
  }
  // Scatter each output row back to its node. Entries are distinct
  // (request, node) pairs, so rows write disjoint node_outputs slots; the
  // extracted tensors are owned (no ambient arena here, and pool threads
  // never inherit one).
  auto scatter_row = [&](int64_t i) {
    if (poisoned != nullptr && (*poisoned)[static_cast<size_t>(i)] != 0) {
      return;  // failed entry: its row is garbage and must not land anywhere
    }
    const TaskEntry& entry = task.entries[static_cast<size_t>(i)];
    RequestState* state = states[static_cast<size_t>(i)];
    auto& node_out = state->node_outputs[static_cast<size_t>(entry.node)];
    node_out.clear();
    node_out.reserve(outputs.size());
    for (const Tensor& out : outputs) {
      node_out.push_back(ExtractRow(out, i));
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && batch >= 2 * pool->num_threads()) {
    pool->Run(batch, scatter_row);
  } else {
    for (int i = 0; i < batch; ++i) {
      scatter_row(i);
    }
  }
}

Tensor ExternalTokenTensor(int32_t token) {
  return Tensor::FromIntVector(Shape{1, 1}, {token});
}

Tensor ExternalVecTensor(const std::vector<float>& values) {
  const int64_t dim = static_cast<int64_t>(values.size());
  return Tensor::FromVector(Shape{1, dim}, values);
}

Tensor ExternalZeroVecTensor(int64_t dim) { return Tensor::Zeros(Shape{1, dim}); }

}  // namespace batchmaker
