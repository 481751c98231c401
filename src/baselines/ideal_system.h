// IdealFixedGraphSystem: the Figure 15 upper-bound baseline.
//
// "We implement an ideal baseline system by hardcoding in TensorFlow a
// dataflow graph matching the fixed binary tree structure. Each node in
// this dataflow graph can execute up to 64 corresponding operations, one
// for each input in a batch size of 64." (§7.5)
//
// Every request must be the same complete binary tree. A batch of up to
// `max_batch` requests executes one kernel per tree node (2L-1 kernels at
// batch = #requests), with zero scheduling or gather overhead. The batch
// completes as a whole — which is why the ideal baseline has *higher*
// latency than BatchMaker despite higher peak throughput.

#ifndef SRC_BASELINES_IDEAL_SYSTEM_H_
#define SRC_BASELINES_IDEAL_SYSTEM_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/cost_model.h"
#include "src/runtime/event_queue.h"
#include "src/runtime/sim_worker.h"
#include "src/sim/serving_system.h"

namespace batchmaker {

struct IdealSystemOptions {
  int num_leaves = 16;
  int max_batch = 64;
  CostCurve cell_curve = GpuTreeCellCurve();
};

class IdealFixedGraphSystem : public ServingSystem {
 public:
  explicit IdealFixedGraphSystem(IdealSystemOptions options, std::string name = "Ideal");

  void SubmitAt(double at_micros, const WorkItem& item) override;
  void Run(double deadline_micros) override;
  const MetricsCollector& metrics() const override { return metrics_; }
  size_t NumUnfinished() const override { return pending_.size() + inflight_count_; }
  std::string Name() const override { return name_; }

  // Exposed for tests: cost of one batch of `batch` identical trees.
  double BatchCostMicros(int batch) const;

 private:
  struct Pending {
    RequestId id;
    double arrival_micros;
    int num_nodes;
  };

  void TryDispatch();
  void OnBatchDone(const BatchedTask& task);

  IdealSystemOptions options_;
  std::string name_;
  EventQueue events_;
  CostModel unused_cost_model_;  // tasks carry explicit costs
  std::unique_ptr<SimWorkerPool> pool_;
  MetricsCollector metrics_;

  std::deque<Pending> pending_;
  size_t inflight_count_ = 0;
  RequestId next_id_ = 1;
  uint64_t next_task_id_ = 0;
  std::unordered_map<uint64_t, std::vector<Pending>> inflight_;
};

}  // namespace batchmaker

#endif  // SRC_BASELINES_IDEAL_SYSTEM_H_
