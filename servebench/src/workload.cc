#include "servebench/src/workload.h"

#include <algorithm>
#include <utility>

#include "src/core/batch_assembler.h"
#include "src/core/sync_engine.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/workload/datasets.h"

namespace servebench {

using namespace batchmaker;

namespace {

// Weights are fixed; only the inputs follow --seed.
constexpr uint64_t kWeightSeed = 1;
constexpr int32_t kTreeVocab = 10000;
// Each pool entry is drawn from its own stratum of this many samples.
constexpr int kStratum = 8;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  // Figure 7 on real compute: cell execution dominates, and requests of
  // very different lengths join batches mid-flight.
  WorkloadSpec wmt;
  wmt.name = "lstm-wmt";
  wmt.model = ModelKind::kLstm;
  wmt.hidden = 256;
  wmt.max_len = 100;
  wmt.max_batch = 256;
  wmt.num_shards = 1;
  wmt.pool_size = 512;
  wmt.closed_outstanding = 64;
  wmt.fixed_requests = 4000;
  wmt.closed_max_rps = 8000;
  wmt.nominal_rps = 1000;
  wmt.ladder_rps = {1300, 1650, 2100, 2650, 3350, 4200};
  wmt.latency_limit_ms = 100;
  out.push_back(wmt);

  // Tiny cells: per-task overhead (submit, scheduling, hand-offs,
  // callbacks) dominates and GEMM is a small share.
  WorkloadSpec tiny;
  tiny.name = "lstm-tiny";
  tiny.model = ModelKind::kLstm;
  tiny.hidden = 64;
  tiny.max_len = 8;
  tiny.max_batch = 16;
  tiny.num_shards = 2;
  tiny.pool_size = 1024;
  tiny.closed_outstanding = 1024;
  tiny.fixed_requests = 40000;
  tiny.closed_max_rps = 80000;
  tiny.nominal_rps = 10000;
  tiny.ladder_rps = {15000, 19000, 24000, 30000, 38000};
  tiny.latency_limit_ms = 25;
  out.push_back(tiny);

  // TreeLSTM (§7.5): two prioritized cell types, fan-in gathers.
  WorkloadSpec tree;
  tree.name = "tree-sst";
  tree.model = ModelKind::kTreeLstm;
  tree.hidden = 128;
  tree.max_batch = 64;
  tree.num_shards = 1;
  tree.pool_size = 512;
  tree.closed_outstanding = 256;
  tree.fixed_requests = 8000;
  tree.closed_max_rps = 20000;
  tree.nominal_rps = 1500;
  tree.ladder_rps = {3000, 3800, 4800, 6100, 7700, 9700};
  tree.latency_limit_ms = 50;
  out.push_back(tree);
  return out;
}

// Draws kStratum * count items, sorts them by depth (the longest chain of
// dependent cells, which bounds a request's latency) and size, keeps one
// random item per consecutive block of kStratum, then shuffles.
std::vector<WorkItem> StratifiedItems(const WorkloadSpec& spec, int count, Rng* rng) {
  const int total = count * kStratum;
  std::vector<WorkItem> items =
      spec.model == ModelKind::kLstm
          ? SampleChainDataset(total, WmtLengthSampler(spec.max_len), rng)
          : SampleTreeDataset(total, kTreeVocab, rng);
  auto depth = [](const WorkItem& item) {
    return item.kind == WorkItem::Kind::kTree ? item.tree.Depth() : item.length;
  };
  std::stable_sort(items.begin(), items.end(), [&](const WorkItem& a, const WorkItem& b) {
    return std::pair(depth(a), a.NumCells()) < std::pair(depth(b), b.NumCells());
  });
  std::vector<WorkItem> picked;
  picked.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const size_t at = static_cast<size_t>(i * kStratum) + rng->NextBelow(kStratum);
    picked.push_back(std::move(items[at]));
  }
  for (size_t i = picked.size(); i > 1; --i) {
    std::swap(picked[i - 1], picked[rng->NextBelow(i)]);
  }
  return picked;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::unique_ptr<Model> BuildModel(const WorkloadSpec& spec) {
  auto model = std::make_unique<Model>();
  Rng rng(kWeightSeed);
  if (spec.model == ModelKind::kLstm) {
    model->lstm = std::make_unique<LstmModel>(
        &model->registry, LstmSpec{.input_dim = spec.hidden, .hidden = spec.hidden}, &rng);
  } else {
    model->tree = std::make_unique<TreeLstmModel>(
        &model->registry,
        TreeLstmSpec{.vocab = kTreeVocab, .embed_dim = spec.hidden, .hidden = spec.hidden},
        &rng);
  }
  for (CellTypeId type = 0; type < model->registry.NumTypes(); ++type) {
    model->registry.SetMaxBatch(type, spec.max_batch);
  }
  return model;
}

ServerOptions MakeServerOptions(const WorkloadSpec& spec, bool tracing) {
  ServerOptions options;
  options.backend = "cpu";
  options.num_workers = kNumWorkers;
  options.threads_per_worker = kThreadsPerWorker;
  options.num_shards = spec.num_shards;
  options.precision = Precision::kF32;
  options.enable_tracing = tracing;
  return options;
}

std::vector<PoolEntry> BuildPool(const WorkloadSpec& spec, const Model& model,
                                 uint64_t seed) {
  Rng rng(seed);
  const std::vector<WorkItem> items = StratifiedItems(spec, spec.pool_size, &rng);
  std::vector<PoolEntry> pool;
  pool.reserve(items.size());
  for (const WorkItem& item : items) {
    PoolEntry entry;
    if (spec.model == ModelKind::kLstm) {
      const int len = item.length;
      entry.graph = model.lstm->Unfold(len);
      for (int t = 0; t < len; ++t) {
        entry.externals.push_back(Tensor::RandomUniform(Shape{1, spec.hidden}, 1.0f, &rng));
      }
      entry.externals.push_back(ExternalZeroVecTensor(spec.hidden));
      entry.externals.push_back(ExternalZeroVecTensor(spec.hidden));
      entry.output = ValueRef::Output(len - 1, 0);
    } else {
      entry.graph = model.tree->Unfold(item.tree);
      for (const BinaryTree::Node& node : item.tree.nodes) {
        if (node.is_leaf()) {
          entry.externals.push_back(ExternalTokenTensor(node.token));
        }
      }
      // Unfold adds the root last.
      entry.output = ValueRef::Output(entry.graph.NumNodes() - 1, 0);
    }
    pool.push_back(std::move(entry));
  }
  return pool;
}

void ComputeReferences(const Model& model, std::vector<PoolEntry>* pool) {
  SyncEngine engine(&model.registry);
  std::vector<RequestId> ids;
  ids.reserve(pool->size());
  for (const PoolEntry& entry : *pool) {
    ids.push_back(engine.Submit(entry.graph, entry.externals, {entry.output}));
  }
  engine.RunToCompletion();
  for (size_t i = 0; i < pool->size(); ++i) {
    Response response = engine.TakeResponse(ids[i]);
    BM_CHECK(response.ok() && response.outputs.size() == 1)
        << "reference run failed for pool entry " << i;
    (*pool)[i].reference = std::move(response.outputs[0]);
  }
}

}  // namespace servebench
