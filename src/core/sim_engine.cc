#include "src/core/sim_engine.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

SimEngine::SimEngine(const CellRegistry* registry, const CostModel* cost_model,
                     SimEngineOptions options)
    : registry_(registry),
      cost_model_(cost_model),
      trace_([this] { return events_.Now(); }) {
  BM_CHECK(registry != nullptr);
  BM_CHECK(cost_model != nullptr);
  // The simulator's only device is the cost model ("sim"); the real
  // devices run on Server.
  BM_CHECK(options.backend.empty() || options.backend == "sim")
      << "SimEngine prices tasks with its CostModel; backend '" << options.backend
      << "' runs on Server";
  BM_CHECK_GT(options.num_workers, 0);
  BM_CHECK_GT(options.num_shards, 0);
  num_shards_ = std::min(options.num_shards, options.num_workers);
  if (options.enable_tracing) {
    trace_.Enable();
  }
  metrics_.InitShards(num_shards_);

  shard_of_worker_.assign(static_cast<size_t>(options.num_workers), 0);
  for (int s = 0; s < num_shards_; ++s) {
    const int begin = s * options.num_workers / num_shards_;
    const int end = (s + 1) * options.num_workers / num_shards_;
    for (int w = begin; w < end; ++w) {
      shard_of_worker_[static_cast<size_t>(w)] = s;
    }
    // The simulator's device model *is* the cost model, so the slack
    // policy sees exact costs — no online calibration needed (or wanted:
    // the virtual-time paths must never observe anything but the model).
    shards_.push_back(std::make_unique<ShardManager>(
        registry, options, s, num_shards_, begin, end, cost_model_, std::vector<int>{},
        static_cast<ShardTransport*>(this), &metrics_, &trace_));
  }
  inboxes_.resize(static_cast<size_t>(num_shards_));
  armed_wake_.assign(static_cast<size_t>(num_shards_),
                     std::numeric_limits<double>::infinity());
  pool_ = std::make_unique<SimWorkerPool>(options.num_workers, &events_, cost_model_);

  pool_->set_on_task_start([this](const BatchedTask& task) {
    // A task's entries all belong to the shard that owns its worker: tasks
    // are formed by that shard's scheduler out of its own processor.
    RequestProcessor& processor =
        shards_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(task.worker)])]
            ->processor();
    for (const TaskEntry& entry : task.entries) {
      RequestState* state = processor.FindRequest(entry.request);
      if (state != nullptr) {
        state->MarkExecStarted(events_.Now());
      }
    }
    trace_.ExecBegin(task.id, task.type, task.worker, task.BatchSize());
  });
  pool_->set_on_task_done([this](const BatchedTask& task) {
    trace_.ExecEnd(task.id, task.type, task.worker, task.BatchSize());
    const int shard = shard_of_worker_[static_cast<size_t>(task.worker)];
    CompletionMsg msg;
    msg.task = task;
    shards_[static_cast<size_t>(shard)]->Handle(std::move(msg), events_.Now());
    Step(shard);
  });
}

RequestId SimEngine::SubmitAt(double at_micros, CellGraph graph, SubmitOptions opts) {
  const RequestId id = next_request_id_++;
  auto msg = std::make_shared<ArrivalMsg>();
  msg->id = id;
  msg->arrival_micros = at_micros;
  msg->deadline_micros = opts.deadline_micros;
  msg->priority = opts.priority;
  if (opts.terminate_after_node >= 0) {
    BM_CHECK_LT(opts.terminate_after_node, graph.NumNodes());
    msg->submission.terminate = [node = opts.terminate_after_node](const RequestState&,
                                                        int completed_node) {
      return completed_node == node;
    };
  }
  msg->graph = std::move(graph);
  // Arrival routing: requests spread across shards by id.
  const int home = static_cast<int>(id % static_cast<RequestId>(num_shards_));
  events_.ScheduleAt(at_micros, [this, home, msg] {
    trace_.RequestArrival(msg->arrival_micros, msg->id, msg->graph.NumNodes());
    shards_[static_cast<size_t>(home)]->Handle(std::move(*msg), events_.Now());
    // Kick scheduling in a separate same-time event so that all arrivals
    // with identical timestamps are admitted before any task is formed —
    // the real server likewise drains its inbox before scheduling.
    events_.ScheduleAt(events_.Now(), [this, home] { Step(home); });
  });
  return id;
}

void SimEngine::Run(double deadline_micros) {
  if (deadline_micros == std::numeric_limits<double>::infinity()) {
    events_.RunAll();
  } else {
    events_.RunUntil(deadline_micros);
  }
}

size_t SimEngine::NumActiveRequests() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->processor().NumActiveRequests();
  }
  return total;
}

size_t SimEngine::TrackedRequests() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->TrackedRequests();
  }
  return total;
}

int64_t SimEngine::TotalTasksFormed() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->scheduler().TotalTasksFormed();
  }
  return total;
}

int64_t SimEngine::TotalMigrations() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->scheduler().TotalMigrations();
  }
  return total;
}

void SimEngine::PushTasks(int worker, std::vector<BatchedTask>&& tasks) {
  for (BatchedTask& task : tasks) {
    pool_->Submit(worker, std::move(task));
  }
}

void SimEngine::Send(int shard, ShardMsg msg) {
  inboxes_[static_cast<size_t>(shard)].push_back(std::move(msg));
  events_.ScheduleAt(events_.Now(), [this, shard] {
    std::deque<ShardMsg>& inbox = inboxes_[static_cast<size_t>(shard)];
    ShardMsg next = std::move(inbox.front());
    inbox.pop_front();
    shards_[static_cast<size_t>(shard)]->Handle(std::move(next), events_.Now());
    Step(shard);
  });
}

void SimEngine::Step(int shard) {
  shards_[static_cast<size_t>(shard)]->Step(events_.Now());
  ArmWake(shard);
}

void SimEngine::ArmWake(int shard) {
  const double wake = shards_[static_cast<size_t>(shard)]->NextWakeMicros();
  double& armed = armed_wake_[static_cast<size_t>(shard)];
  if (wake <= events_.Now() || wake >= armed) {
    return;  // passed (the next pass acts on it) or already armed
  }
  armed = wake;
  events_.ScheduleAt(wake, [this, shard, wake] {
    if (armed_wake_[static_cast<size_t>(shard)] == wake) {
      armed_wake_[static_cast<size_t>(shard)] = std::numeric_limits<double>::infinity();
    }
    shards_[static_cast<size_t>(shard)]->Wake(events_.Now());
    ArmWake(shard);
  });
}

}  // namespace batchmaker
