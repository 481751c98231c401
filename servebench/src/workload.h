// The benchmark's three serving workloads and the inputs they send.
//
// Every workload runs the real Server on the cpu backend in fp32 with two
// workers and one intra-task thread each. What differs is the model, the
// request shapes and the load; README.md records why each was chosen and
// which layer metric should move which end-to-end metric on it.

#ifndef SERVEBENCH_SRC_WORKLOAD_H_
#define SERVEBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/graph/cell_registry.h"
#include "src/nn/lstm.h"
#include "src/nn/tree_lstm.h"
#include "src/tensor/tensor.h"

namespace servebench {

inline constexpr int kNumWorkers = 2;
inline constexpr int kThreadsPerWorker = 1;

enum class ModelKind { kLstm, kTreeLstm };

struct WorkloadSpec {
  std::string name;
  ModelKind model = ModelKind::kLstm;
  int64_t hidden = 0;
  // Chains: request lengths are WMT-15 lengths clipped to [1, max_len].
  int max_len = 0;
  // Batch cap of every cell type.
  int max_batch = 256;
  int num_shards = 1;
  // Distinct requests generated before timing and recycled by the load
  // thread.
  int pool_size = 0;
  // Closed loop: requests kept outstanding.
  int closed_outstanding = 0;
  // Requests of the closed-loop phase that opens the end-to-end run, after
  // which peak resident memory is read.
  int64_t fixed_requests = 0;
  // Upper bound on closed-loop throughput, only to size the request log.
  double closed_max_rps = 0.0;
  // Open loop: Poisson rate of the latency phase, and the ascending ladder
  // the SLO search walks.
  double nominal_rps = 0.0;
  std::vector<double> ladder_rps;
  // p99 latency limit of the SLO search.
  double latency_limit_ms = 0.0;
};

const std::vector<WorkloadSpec>& Workloads();
// Null if no workload has this name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The served model: cell registration (with weight pre-pack) into its own
// registry. Not movable: the models keep a pointer to the registry.
struct Model {
  batchmaker::CellRegistry registry;
  std::unique_ptr<batchmaker::LstmModel> lstm;
  std::unique_ptr<batchmaker::TreeLstmModel> tree;
};
std::unique_ptr<Model> BuildModel(const WorkloadSpec& spec);

batchmaker::ServerOptions MakeServerOptions(const WorkloadSpec& spec, bool tracing);

// One request of the recycled input pool.
struct PoolEntry {
  batchmaker::CellGraph graph;
  std::vector<batchmaker::Tensor> externals;
  batchmaker::ValueRef output;
  // The SyncEngine's answer for the same inputs; kOk responses must match
  // it bitwise.
  batchmaker::Tensor reference;
};

// Draws the pool from `seed`. Request sizes are stratified over a large
// sample of the size distribution, so every seed sends the same mix of
// short and long requests and only the contents and order differ.
std::vector<PoolEntry> BuildPool(const WorkloadSpec& spec, const Model& model, uint64_t seed);

// Fills PoolEntry::reference by running every entry through a SyncEngine.
void ComputeReferences(const Model& model, std::vector<PoolEntry>* pool);

}  // namespace servebench

#endif  // SERVEBENCH_SRC_WORKLOAD_H_
