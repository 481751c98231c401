#include "src/graph/executor.h"

#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/util/logging.h"

namespace batchmaker {

CellExecutor::CellExecutor(const CellDef* def, Precision precision)
    : def_(def), precision_(precision) {
  BM_CHECK(def != nullptr);
  BM_CHECK(def->finalized());
  // Pre-pack every MatMul weight whose RHS is an embedded parameter (shape
  // inference guarantees the RHS is unbatched, which in the cell vocabulary
  // means a kParam node). Done once per CellDef, at registration.
  for (int id : def->TopoOrder()) {
    const OpNode& node = def->op(id);
    if (node.kind != OpKind::kMatMul) {
      continue;
    }
    const OpNode& rhs = def->op(node.inputs[1]);
    if (rhs.kind == OpKind::kParam) {
      packed_weights_.emplace(id, PackedMatrix::Pack(rhs.weight));
    }
  }

  // MatMul -> AddBias(matmul, param) chains where the MatMul has no other
  // reader fold the bias into the int8 dequant epilogue. Identified once
  // here; Execute consults the map only when running at int8.
  std::vector<int> consumer_count(static_cast<size_t>(def->NumOps()), 0);
  std::vector<int> sole_consumer(static_cast<size_t>(def->NumOps()), -1);
  std::vector<bool> is_output(static_cast<size_t>(def->NumOps()), false);
  for (int id = 0; id < def->NumOps(); ++id) {
    for (int input : def->op(id).inputs) {
      consumer_count[static_cast<size_t>(input)]++;
      sole_consumer[static_cast<size_t>(input)] = id;
    }
  }
  for (int i = 0; i < def->NumOutputs(); ++i) {
    is_output[static_cast<size_t>(def->output_op(i))] = true;
  }
  for (const auto& [mm_id, packed] : packed_weights_) {
    (void)packed;
    if (consumer_count[static_cast<size_t>(mm_id)] != 1 ||
        is_output[static_cast<size_t>(mm_id)]) {
      continue;
    }
    const int consumer = sole_consumer[static_cast<size_t>(mm_id)];
    const OpNode& cnode = def->op(consumer);
    if (cnode.kind != OpKind::kAddBias || cnode.inputs[0] != mm_id) {
      continue;
    }
    if (def->op(cnode.inputs[1]).kind != OpKind::kParam) {
      continue;
    }
    fused_bias_[mm_id] = consumer;
    fused_bias_rev_[consumer] = mm_id;
  }

  if (precision_ != Precision::kF32) {
    EnsurePacked(precision_);
  }
}

void CellExecutor::EnsurePacked(Precision p) const {
  switch (p) {
    case Precision::kF32:
      return;
    case Precision::kBf16:
      std::call_once(bf16_once_, [this] {
        for (const auto& [id, packed] : packed_weights_) {
          (void)packed;
          const OpNode& rhs = def_->op(def_->op(id).inputs[1]);
          packed_bf16_.emplace(id, PackedMatrix::PackBf16(rhs.weight));
        }
      });
      return;
    case Precision::kInt8:
      std::call_once(int8_once_, [this] {
        for (const auto& [id, packed] : packed_weights_) {
          (void)packed;
          const OpNode& rhs = def_->op(def_->op(id).inputs[1]);
          packed_int8_.emplace(id, PackedMatrix::PackInt8(rhs.weight));
        }
      });
      return;
  }
}

void CellExecutor::AcquireNodeReplica(int node, Precision p) const {
  if (node < 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(replica_mu_);
  NodeReplica& rep = replicas_[node];
  ++rep.refs;
  const size_t slot = static_cast<size_t>(p);
  if (rep.ready[slot]) {
    return;
  }
  // Re-pack from the source weights on the calling thread: under the pin
  // policies the caller is the node's own worker thread, so first-touch
  // places every panel page on `node`. Packing is deterministic, keeping
  // replica reads bitwise-identical to the shared packs.
  auto& packs = rep.packs[slot];
  for (const auto& [id, packed] : packed_weights_) {
    (void)packed;
    const OpNode& rhs = def_->op(def_->op(id).inputs[1]);
    switch (p) {
      case Precision::kF32:
        packs.emplace(id, PackedMatrix::Pack(rhs.weight));
        break;
      case Precision::kBf16:
        packs.emplace(id, PackedMatrix::PackBf16(rhs.weight));
        break;
      case Precision::kInt8:
        packs.emplace(id, PackedMatrix::PackInt8(rhs.weight));
        break;
    }
  }
  rep.ready[slot] = true;
}

void CellExecutor::ReleaseNodeReplica(int node) const {
  if (node < 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(replica_mu_);
  const auto it = replicas_.find(node);
  if (it == replicas_.end()) {
    return;
  }
  if (--it->second.refs <= 0) {
    replicas_.erase(it);
  }
}

int CellExecutor::NumNodeReplicas() const {
  std::lock_guard<std::mutex> lock(replica_mu_);
  return static_cast<int>(replicas_.size());
}

bool CellExecutor::HasNodeReplica(int node, Precision p) const {
  std::lock_guard<std::mutex> lock(replica_mu_);
  const auto it = replicas_.find(node);
  return it != replicas_.end() && it->second.ready[static_cast<size_t>(p)];
}

const CellExecutor::NodeReplica* CellExecutor::FindNodeReplica(int node) const {
  std::lock_guard<std::mutex> lock(replica_mu_);
  const auto it = replicas_.find(node);
  return it != replicas_.end() ? &it->second : nullptr;
}

std::vector<Tensor> CellExecutor::Execute(const std::vector<const Tensor*>& inputs,
                                          const ExecContext* ctx) const {
  const CellDef& def = *def_;
  BM_CHECK_EQ(static_cast<int>(inputs.size()), def.NumInputs());
  ThreadPool* pool = ctx != nullptr ? ctx->pool : nullptr;
  // Effective GEMM precision: the cell's own knob wins; otherwise the
  // engine-wide context default applies.
  Precision prec = precision_;
  if (prec == Precision::kF32 && ctx != nullptr) {
    prec = ctx->precision;
  }
  if (prec != Precision::kF32 && !packed_weights_.empty()) {
    EnsurePacked(prec);
  }
  // One locked lookup per call resolves the caller's node-local replica
  // (null when no replica policy is active); per-matmul reads below are
  // then lock-free against its immutable packs.
  const NodeReplica* replica = nullptr;
  if (ctx != nullptr && ctx->numa_node >= 0 && !packed_weights_.empty()) {
    replica = FindNodeReplica(ctx->numa_node);
  }
  // The packed panel for op `id` at precision `pr`: the node replica when
  // it carries one, else the shared pack (never null on the paths below,
  // which all guard on packed_weights_ membership / EnsurePacked).
  auto packed_for = [&](int id, Precision pr) -> const PackedMatrix* {
    if (replica != nullptr) {
      const auto& packs = replica->packs[static_cast<size_t>(pr)];
      const auto it = packs.find(id);
      if (it != packs.end()) {
        return &it->second;
      }
    }
    const std::unordered_map<int, PackedMatrix>& shared =
        pr == Precision::kBf16 ? packed_bf16_
        : pr == Precision::kInt8 ? packed_int8_
                                 : packed_weights_;
    const auto it = shared.find(id);
    return it != shared.end() ? &it->second : nullptr;
  };
  // All intermediates below allocate from the worker's arena while this
  // scope is active; the output copies at the end materialize owned storage.
  ArenaScope arena_scope(ctx != nullptr ? ctx->arena : nullptr);

  // Validate inputs and determine the batch size.
  int64_t batch = -1;
  for (int i = 0; i < def.NumInputs(); ++i) {
    const CellInputSpec& spec = def.input_spec(i);
    const Tensor& t = *inputs[static_cast<size_t>(i)];
    BM_CHECK(t.dtype() == spec.dtype) << "input " << i << " dtype mismatch";
    BM_CHECK(t.shape().RowShape() == spec.row_shape)
        << "input " << i << " row shape " << t.shape().RowShape().ToString() << " != "
        << spec.row_shape.ToString();
    if (batch < 0) {
      batch = t.shape().Dim(0);
    } else {
      BM_CHECK_EQ(batch, t.shape().Dim(0)) << "inputs disagree on batch size";
    }
  }
  BM_CHECK_GT(batch, 0);

  // values[id] points at the tensor produced by op `id`. Computed values are
  // owned by `computed`; inputs and params are referenced in place.
  std::vector<const Tensor*> values(static_cast<size_t>(def.NumOps()), nullptr);
  std::vector<Tensor> computed(static_cast<size_t>(def.NumOps()));

  auto set_computed = [&](int id, Tensor t) {
    computed[static_cast<size_t>(id)] = std::move(t);
    values[static_cast<size_t>(id)] = &computed[static_cast<size_t>(id)];
  };

  for (int id : def.TopoOrder()) {
    const OpNode& node = def.op(id);
    auto in = [&](size_t i) -> const Tensor& {
      const Tensor* t = values[static_cast<size_t>(node.inputs[i])];
      BM_CHECK(t != nullptr);
      return *t;
    };
    switch (node.kind) {
      case OpKind::kInput:
        values[static_cast<size_t>(id)] = inputs[static_cast<size_t>(node.i0)];
        break;
      case OpKind::kParam:
        values[static_cast<size_t>(id)] = &node.weight;
        break;
      case OpKind::kMatMul: {
        const auto packed_it = packed_weights_.find(id);
        if (packed_it == packed_weights_.end()) {
          set_computed(id, MatMul(in(0), in(1)));
          break;
        }
        if (prec == Precision::kInt8 && fused_bias_.count(id) != 0) {
          // Deferred: the consuming AddBias computes this MatMul with the
          // bias fused into the dequant epilogue.
          break;
        }
        set_computed(id, MatMulPacked(in(0), *packed_for(id, prec), pool));
        break;
      }
      case OpKind::kAdd:
        set_computed(id, Add(in(0), in(1)));
        break;
      case OpKind::kSub:
        set_computed(id, Sub(in(0), in(1)));
        break;
      case OpKind::kMul:
        set_computed(id, Mul(in(0), in(1)));
        break;
      case OpKind::kAddBias: {
        if (prec == Precision::kInt8) {
          const auto fused_it = fused_bias_rev_.find(id);
          if (fused_it != fused_bias_rev_.end()) {
            const OpNode& mm = def.op(fused_it->second);
            const Tensor* lhs = values[static_cast<size_t>(mm.inputs[0])];
            BM_CHECK(lhs != nullptr);
            set_computed(
                id, MatMulPackedBias(
                        *lhs, *packed_for(fused_it->second, Precision::kInt8), in(1), pool));
            break;
          }
        }
        set_computed(id, AddBias(in(0), in(1)));
        break;
      }
      case OpKind::kSigmoid:
        set_computed(id, Sigmoid(in(0)));
        break;
      case OpKind::kTanh:
        set_computed(id, Tanh(in(0)));
        break;
      case OpKind::kRelu:
        set_computed(id, Relu(in(0)));
        break;
      case OpKind::kSoftmax:
        set_computed(id, Softmax(in(0)));
        break;
      case OpKind::kConcat: {
        std::vector<const Tensor*> parts;
        parts.reserve(node.inputs.size());
        for (size_t i = 0; i < node.inputs.size(); ++i) {
          parts.push_back(&in(i));
        }
        set_computed(id, ConcatCols(parts));
        break;
      }
      case OpKind::kSlice:
        set_computed(id, SliceCols(in(0), node.i0, node.i1));
        break;
      case OpKind::kEmbedLookup:
        set_computed(id, EmbeddingLookup(in(0), in(1)));
        break;
      case OpKind::kArgmax:
        set_computed(id, ArgmaxRows(in(0)));
        break;
      case OpKind::kReduceSum:
        set_computed(id, RowSum(in(0)));
        break;
      case OpKind::kMax:
        set_computed(id, MaxElem(in(0), in(1)));
        break;
      case OpKind::kExp:
        set_computed(id, Exp(in(0)));
        break;
      case OpKind::kRecip:
        set_computed(id, Recip(in(0)));
        break;
      case OpKind::kScaleRows:
        set_computed(id, ScaleRows(in(0), in(1)));
        break;
    }
  }

  std::vector<Tensor> outputs;
  outputs.reserve(static_cast<size_t>(def.NumOutputs()));
  for (int i = 0; i < def.NumOutputs(); ++i) {
    const int op_id = def.output_op(i);
    const Tensor* value = values[static_cast<size_t>(op_id)];
    BM_CHECK(value != nullptr);
    // Copy: outputs outlive the executor call, and Tensor's copy
    // constructor materializes owned storage even for arena-backed values.
    outputs.push_back(*value);
  }
  return outputs;
}

}  // namespace batchmaker
