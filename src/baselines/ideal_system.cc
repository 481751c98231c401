#include "src/baselines/ideal_system.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

IdealFixedGraphSystem::IdealFixedGraphSystem(IdealSystemOptions options, std::string name)
    : options_(std::move(options)), name_(std::move(name)) {
  BM_CHECK_GT(options_.num_leaves, 0);
  BM_CHECK_GT(options_.max_batch, 0);
  pool_ = std::make_unique<SimWorkerPool>(1, &events_, &unused_cost_model_);
  pool_->set_on_task_done([this](const BatchedTask& task) { OnBatchDone(task); });
  pool_->set_on_idle([this](int) { TryDispatch(); });
}

void IdealFixedGraphSystem::SubmitAt(double at_micros, const WorkItem& item) {
  BM_CHECK(item.kind == WorkItem::Kind::kTree);
  BM_CHECK_EQ(item.tree.NumLeaves(), options_.num_leaves)
      << "the ideal baseline's hardcoded graph only fits the fixed tree";
  const RequestId id = next_id_++;
  const int num_nodes = item.tree.NumNodes();
  events_.ScheduleAt(at_micros, [this, id, at_micros, num_nodes] {
    pending_.push_back(Pending{id, at_micros, num_nodes});
    events_.ScheduleAt(at_micros, [this] {
      if (pool_->IsIdle(0)) {
        TryDispatch();
      }
    });
  });
}

double IdealFixedGraphSystem::BatchCostMicros(int batch) const {
  // One kernel per tree node (2L-1 of them), each at batch = #requests; no
  // scheduling or gather overhead.
  const int kernels = 2 * options_.num_leaves - 1;
  return kernels * options_.cell_curve.Micros(batch);
}

void IdealFixedGraphSystem::TryDispatch() {
  if (pending_.empty()) {
    return;
  }
  const int batch = std::min<int>(options_.max_batch, static_cast<int>(pending_.size()));
  std::vector<Pending> taken;
  taken.reserve(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    taken.push_back(pending_.front());
    pending_.pop_front();
  }
  inflight_count_ += taken.size();

  BatchedTask task;
  task.id = next_task_id_++;
  task.type = 0;
  task.explicit_cost_micros = BatchCostMicros(batch);
  for (const Pending& p : taken) {
    task.entries.push_back(TaskEntry{p.id, 0});
  }
  inflight_.emplace(task.id, std::move(taken));
  pool_->Submit(0, std::move(task));
}

void IdealFixedGraphSystem::OnBatchDone(const BatchedTask& task) {
  const auto it = inflight_.find(task.id);
  BM_CHECK(it != inflight_.end());
  const double now = events_.Now();
  const double exec_start = now - task.explicit_cost_micros;
  for (const Pending& p : it->second) {
    RequestRecord record;
    record.id = p.id;
    record.arrival_micros = p.arrival_micros;
    record.exec_start_micros = std::max(p.arrival_micros, exec_start);
    record.completion_micros = now;
    record.num_nodes = p.num_nodes;
    metrics_.Record(record);
  }
  inflight_count_ -= it->second.size();
  inflight_.erase(it);
}

void IdealFixedGraphSystem::Run(double deadline_micros) {
  if (deadline_micros == std::numeric_limits<double>::infinity()) {
    events_.RunAll();
  } else {
    events_.RunUntil(deadline_micros);
  }
}

}  // namespace batchmaker
