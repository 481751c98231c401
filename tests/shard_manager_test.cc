// Tests for ShardManager, the clock-free shard state machine shared by
// Server and SimEngine.
//
// The explorer drives two or three managers through an in-memory
// transport that holds every message, task stream, completion and cancel
// in flight, and delivers them in a seeded random order with a virtual
// clock; workers occasionally fail tasks. After every step it checks the
// manager invariants the system claims: at most one terminal callback per
// arrival (exactly one once drained), no request owned by two shards, only
// never-scheduled requests migrate, and each worker's outstanding count
// matches the tasks actually in flight and stays within
// 0..pipeline_depth - 1 + max_tasks_to_submit (a stream below the
// watermark receives one whole Schedule result, Algorithm 1's
// MaxTasksToSubmit).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/shard_manager.h"
#include "src/core/sim_engine.h"
#include "src/runtime/cost_model.h"
#include "src/util/rng.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

struct ExplorerConfig {
  int num_shards = 2;
  int num_workers = 2;
  int pipeline_depth = 2;
  int requests = 24;
  int max_tasks_to_submit = 1;
};

// The fake world: per-shard inboxes, per-worker FIFO streams and a
// virtual clock, with every delivery order chosen by the seed.
class Explorer : public ShardTransport {
 public:
  Explorer(uint64_t seed, const ExplorerConfig& config) : config_(config), rng_(seed) {
    fix_.registry.SetMaxBatch(fix_.model.cell_type(), 3);
    for (CellTypeId t = 0; t < fix_.registry.NumTypes(); ++t) {
      cost_.SetCurve(t, UnitCostCurve());
    }
    EngineOptions options;
    options.num_workers = config.num_workers;
    options.num_shards = config.num_shards;
    options.pipeline_depth = config.pipeline_depth;
    // A refill below the watermark hands over up to this many tasks, so at
    // 1 a stream is topped up to exactly pipeline_depth.
    options.scheduler.max_tasks_to_submit = config.max_tasks_to_submit;
    options.scheduler.max_node_retries = 2;
    options.admission.queue_timeout_micros = 40.0;
    options.batch_policy.slack_batching = rng_.NextBelow(2) == 0;
    options.batch_policy.max_delay_micros = 5.0;
    metrics_.InitShards(config.num_shards);
    metrics_.InitWorkers(config.num_workers);
    inbox_.resize(static_cast<size_t>(config.num_shards));
    stream_.resize(static_cast<size_t>(config.num_workers));
    poison_.resize(static_cast<size_t>(config.num_workers));
    in_flight_.assign(static_cast<size_t>(config.num_workers), 0);
    held_.resize(static_cast<size_t>(config.num_workers));
    health_.assign(static_cast<size_t>(config.num_workers), Health::kRunning);
    for (int s = 0; s < config.num_shards; ++s) {
      const int begin = s * config.num_workers / config.num_shards;
      const int end = (s + 1) * config.num_workers / config.num_shards;
      for (int w = begin; w < end; ++w) {
        shard_of_worker_.push_back(s);
      }
      shards_.push_back(std::make_unique<ShardManager>(
          &fix_.registry, options, s, config.num_shards, begin, end, &cost_,
          std::vector<int>{}, this, &metrics_, &trace_));
      // The Server's poison purge: a drained parked subgraph re-runs clean.
      shards_.back()->scheduler().set_unpark_hook([this](Subgraph* sg) {
        if (sg->last_worker >= 0) {
          for (int node : sg->nodes) {
            poison_[static_cast<size_t>(sg->last_worker)].erase({sg->owner->id, node});
          }
        }
      });
    }
  }

  // ShardTransport.
  void PushTasks(int worker, std::vector<BatchedTask>&& tasks) override {
    const Health health = health_[static_cast<size_t>(worker)];
    EXPECT_TRUE(health == Health::kRunning || health == Health::kQuarantineSent)
        << "task pushed to quarantined worker " << worker;
    for (BatchedTask& task : tasks) {
      stream_[static_cast<size_t>(worker)].push_back(std::move(task));
    }
  }
  void Send(int shard, ShardMsg msg) override {
    if (auto* migrate = std::get_if<MigrateMsg>(&msg)) {
      EXPECT_FALSE(migrate->state->ever_scheduled)
          << "request " << migrate->state->id << " migrated after being scheduled";
      EXPECT_FALSE(migrate->state->ExecStarted());
    }
    inbox_[static_cast<size_t>(shard)].push_back(std::move(msg));
  }
  void RequestFinished(const RequestState& state) override {
    for (size_t n = 0; n < state.nodes.size(); ++n) {
      if (state.nodes[n].stage == NodeStage::kCancelled) {
        for (auto& keys : poison_) {
          keys.erase({state.id, static_cast<int>(n)});
        }
      }
    }
  }

  // Runs the seeded interleaving to quiescence; returns false on a failed
  // invariant (the gtest failure says which).
  bool Run() {
    int arrived = 0;
    for (int step = 0; step < 20000; ++step) {
      const bool more_arrivals = arrived < config_.requests;
      if (!more_arrivals && Quiescent()) {
        return CheckDrained();
      }
      switch (rng_.NextBelow(more_arrivals ? 6 : 4)) {
        case 0:
        case 1:
          DeliverMessage();
          break;
        case 2:
          CompleteTask();
          break;
        case 3:
          AdvanceClock(more_arrivals);
          break;
        case 4:
          Arrive(++arrived);
          break;
        default:
          Disturb(arrived);
          break;
      }
      if (!CheckInvariants()) {
        return false;
      }
    }
    ADD_FAILURE() << "no quiescence after 20000 steps";
    return false;
  }

 private:
  ShardManager& OwnerOf(int worker) {
    return *shards_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(worker)])];
  }

  void Arrive(RequestId id) {
    ArrivalMsg msg;
    msg.id = id;
    msg.graph = fix_.model.Unfold(static_cast<int>(rng_.NextInt(1, 6)));
    msg.arrival_micros = now_;
    msg.priority = static_cast<int>(rng_.NextBelow(2));
    // Some requests carry an SLA deadline, some opt out of shedding.
    const uint64_t kind = rng_.NextBelow(4);
    msg.deadline_micros = kind == 0 ? 25.0 : (kind == 1 ? -1.0 : 0.0);
    if (rng_.NextBelow(3) == 0) {
      const int stop = static_cast<int>(rng_.NextBelow(
          static_cast<uint64_t>(msg.graph.NumNodes())));
      msg.submission.terminate = [stop](const RequestState&, int node) { return node == stop; };
    }
    msg.submission.on_response = [this](RequestId rid, RequestStatus, std::vector<Tensor>) {
      ++answers_[rid];
    };
    answers_.emplace(id, 0);
    inbox_[static_cast<size_t>(id % static_cast<RequestId>(config_.num_shards))]
        .push_back(std::move(msg));
  }

  // Delivers the oldest message of a random non-empty inbox, then (like
  // the Server after an inbox batch) runs the shard's Step.
  void DeliverMessage() {
    std::vector<int> ready;
    for (int s = 0; s < config_.num_shards; ++s) {
      if (!inbox_[static_cast<size_t>(s)].empty()) {
        ready.push_back(s);
      }
    }
    if (ready.empty()) {
      return;
    }
    const int s = ready[rng_.NextBelow(ready.size())];
    ShardMsg msg = std::move(inbox_[static_cast<size_t>(s)].front());
    inbox_[static_cast<size_t>(s)].pop_front();
    if (auto* done = std::get_if<CompletionMsg>(&msg)) {
      in_flight_[static_cast<size_t>(done->task.worker)]--;
    }
    if (auto* readmit = std::get_if<ReadmitMsg>(&msg)) {
      health_[static_cast<size_t>(readmit->worker)] = Health::kRunning;
    }
    if (auto* quarantine = std::get_if<QuarantineMsg>(&msg)) {
      health_[static_cast<size_t>(quarantine->worker)] = Health::kQuarantined;
      // The Server's reclaim: drain the worker's queued stream.
      std::deque<BatchedTask>& stream = stream_[static_cast<size_t>(quarantine->worker)];
      for (BatchedTask& task : stream) {
        quarantine->reclaimed.push_back(std::move(task));
      }
      stream.clear();
    }
    ShardManager& shard = *shards_[static_cast<size_t>(s)];
    shard.Handle(std::move(msg), now_);
    shard.Step(now_);
  }

  // A random running worker runs the head of its stream; the completion
  // travels back as a message. Like the Server's worker, an injected fault
  // fails the whole task and poisons its outputs for the rest of the
  // stream, and an entry consuming a poisoned output fails as a cascade.
  void CompleteTask() {
    std::vector<int> busy;
    for (int w = 0; w < config_.num_workers; ++w) {
      if (!stream_[static_cast<size_t>(w)].empty() &&
          health_[static_cast<size_t>(w)] == Health::kRunning) {
        busy.push_back(w);
      }
    }
    if (busy.empty()) {
      return;
    }
    const int w = busy[rng_.NextBelow(busy.size())];
    CompletionMsg msg = RunHead(w);
    in_flight_[static_cast<size_t>(w)]++;
    inbox_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(w)])].push_back(
        std::move(msg));
  }

  // Worker w runs the head of its stream; returns the completion to send.
  CompletionMsg RunHead(int w) {
    CompletionMsg msg;
    msg.task = std::move(stream_[static_cast<size_t>(w)].front());
    stream_[static_cast<size_t>(w)].pop_front();
    std::set<std::pair<RequestId, int>>& poison = poison_[static_cast<size_t>(w)];
    const bool fault = rng_.NextBelow(12) == 0;
    for (int i = 0; i < msg.task.BatchSize(); ++i) {
      const TaskEntry& entry = msg.task.entries[static_cast<size_t>(i)];
      RequestState* state = OwnerOf(w).processor().FindRequest(entry.request);
      bool failed = fault;
      for (const ValueRef& ref : state->graph.node(entry.node).inputs) {
        failed |= !ref.is_external() && poison.count({entry.request, ref.node}) != 0;
      }
      if (failed) {
        poison.insert({entry.request, entry.node});
        msg.failed_entries.push_back(i);
      } else {
        poison.erase({entry.request, entry.node});
        state->MarkExecStarted(now_);
      }
    }
    if (fault && rng_.NextBelow(2) == 0) {
      msg.victim_entry =
          static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(msg.task.BatchSize())));
    }
    return msg;
  }

  // The Server's hung-worker race: worker w hangs inside the head of its
  // stream and is quarantined. It finishes the task only after its
  // re-admission is requested, and the completion reaches the inbox behind
  // the ReadmitMsg — on the Server, complete() clears the busy marker
  // before it pushes, so the watchdog's idle probe can get in first.
  void HangInsideTask(int w) {
    held_[static_cast<size_t>(w)] = RunHead(w);
    health_[static_cast<size_t>(w)] = Health::kQuarantineSent;
    inbox_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(w)])].push_back(
        QuarantineMsg{w, false, {}});
  }

  // Sends the completion a hung worker held back (after its ReadmitMsg).
  void ReleaseHeld(int w) {
    std::optional<CompletionMsg>& held = held_[static_cast<size_t>(w)];
    if (held.has_value()) {
      in_flight_[static_cast<size_t>(w)]++;
      inbox_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(w)])].push_back(
          std::move(*held));
      held.reset();
    }
  }

  // Moves virtual time forward and wakes every shard whose wake-up passed.
  // Without pending arrivals, jumps straight to the earliest wake-up.
  void AdvanceClock(bool small_steps) {
    double next = now_ + static_cast<double>(rng_.NextInt(1, 15));
    if (!small_steps) {
      next = now_ + 50.0;
      for (auto& shard : shards_) {
        next = std::min(next, shard->NextWakeMicros());
      }
    }
    now_ = std::max(next, now_ + 1.0);
    for (auto& shard : shards_) {
      if (shard->NextWakeMicros() <= now_) {
        shard->Wake(now_);
      }
    }
  }

  // A cancel broadcast, or a quarantine / re-admission request.
  void Disturb(int arrived) {
    if (arrived > 0 && rng_.NextBelow(3) != 0) {
      const RequestId id = 1 + rng_.NextBelow(static_cast<uint64_t>(arrived));
      for (auto& inbox : inbox_) {
        inbox.push_back(CancelMsg{id});
      }
      return;
    }
    const int w = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(config_.num_workers)));
    const size_t owner = static_cast<size_t>(shard_of_worker_[static_cast<size_t>(w)]);
    Health& health = health_[static_cast<size_t>(w)];
    if (health == Health::kQuarantined) {
      health = Health::kReadmitSent;
      inbox_[owner].push_back(ReadmitMsg{w});
      ReleaseHeld(w);
    } else if (health == Health::kRunning && !stream_[static_cast<size_t>(w)].empty() &&
               rng_.NextBelow(2) == 0) {
      HangInsideTask(w);
    } else if (health == Health::kRunning) {
      health = Health::kQuarantineSent;
      inbox_[owner].push_back(QuarantineMsg{w, false, {}});
    }
  }

  bool Quiescent() {
    for (size_t w = 0; w < stream_.size(); ++w) {
      if (health_[w] == Health::kQuarantined) {
        // Re-admit so the drain can finish: "delayed, never lost".
        health_[w] = Health::kReadmitSent;
        inbox_[static_cast<size_t>(shard_of_worker_[w])].push_back(
            ReadmitMsg{static_cast<int>(w)});
        ReleaseHeld(static_cast<int>(w));
        return false;
      }
    }
    for (const auto& inbox : inbox_) {
      if (!inbox.empty()) {
        return false;
      }
    }
    for (const auto& stream : stream_) {
      if (!stream.empty()) {
        return false;
      }
    }
    for (auto& shard : shards_) {
      if (shard->NextWakeMicros() != std::numeric_limits<double>::infinity()) {
        return false;
      }
    }
    return true;
  }

  bool CheckInvariants() {
    for (const auto& [id, count] : answers_) {
      if (count > 1) {
        ADD_FAILURE() << "request " << id << " answered " << count << " times";
        return false;
      }
      int owners = 0;
      for (auto& shard : shards_) {
        owners += shard->processor().FindRequest(id) != nullptr ? 1 : 0;
      }
      if (owners > 1) {
        ADD_FAILURE() << "request " << id << " owned by " << owners << " shards";
        return false;
      }
    }
    for (int w = 0; w < config_.num_workers; ++w) {
      const int outstanding = OwnerOf(w).Outstanding(w);
      const int actual = static_cast<int>(stream_[static_cast<size_t>(w)].size()) +
                         in_flight_[static_cast<size_t>(w)] +
                         (held_[static_cast<size_t>(w)].has_value() ? 1 : 0);
      const int bound = config_.pipeline_depth - 1 + config_.max_tasks_to_submit;
      if (outstanding != actual || outstanding < 0 || outstanding > bound) {
        ADD_FAILURE() << "worker " << w << " outstanding " << outstanding << ", in flight "
                      << actual << ", bound " << bound;
        return false;
      }
    }
    return !::testing::Test::HasFailure();
  }

  bool CheckDrained() {
    for (const auto& [id, count] : answers_) {
      if (count != 1) {
        ADD_FAILURE() << "request " << id << " answered " << count << " times";
        return false;
      }
    }
    for (auto& shard : shards_) {
      EXPECT_EQ(shard->processor().NumActiveRequests(), 0u) << "shard " << shard->id();
      EXPECT_EQ(shard->TrackedRequests(), 0u) << "shard " << shard->id();
      EXPECT_EQ(shard->StealCandidates(), 0u) << "shard " << shard->id();
    }
    return !::testing::Test::HasFailure();
  }

  ExplorerConfig config_;
  Rng rng_;
  TinyLstmFixture fix_;
  CostModel cost_;
  MetricsCollector metrics_;
  TraceRecorder trace_{[this] { return now_; }};
  double now_ = 0.0;
  std::vector<std::unique_ptr<ShardManager>> shards_;
  std::vector<int> shard_of_worker_;
  std::vector<std::deque<ShardMsg>> inbox_;
  std::vector<std::deque<BatchedTask>> stream_;
  // Per worker: (request, node) outputs a failed task never produced.
  std::vector<std::set<std::pair<RequestId, int>>> poison_;
  // Completion messages sent but not yet delivered, per worker.
  std::vector<int> in_flight_;
  // Per worker: the completion of the task a hung worker is inside.
  std::vector<std::optional<CompletionMsg>> held_;
  // A worker stops running tasks when its quarantine is requested and
  // resumes when the owning shard handles the re-admission. As with the
  // Server's watchdog, re-admission is requested only after the shard
  // handled the quarantine, and the shard must push the worker nothing in
  // between.
  enum class Health { kRunning, kQuarantineSent, kQuarantined, kReadmitSent };
  std::vector<Health> health_;
  std::map<RequestId, int> answers_;
};

TEST(ShardManagerTest, RandomInterleavingsKeepManagerInvariants) {
  const ExplorerConfig configs[] = {
      {.num_shards = 2, .num_workers = 2, .pipeline_depth = 1},
      {.num_shards = 2, .num_workers = 3, .pipeline_depth = 2},
      {.num_shards = 3, .num_workers = 4, .pipeline_depth = 2},
  };
  for (int max_tasks : {1, 2, 5}) {
    for (uint64_t seed = 1; seed <= 300; ++seed) {
      ExplorerConfig config = configs[seed % 3];
      config.max_tasks_to_submit = max_tasks;
      Explorer explorer(seed, config);
      ASSERT_TRUE(explorer.Run()) << "seed " << seed << " (" << config.num_shards
                                  << " shards, " << config.num_workers << " workers, depth "
                                  << config.pipeline_depth << ", max_tasks_to_submit "
                                  << max_tasks << ")";
    }
  }
}

TEST(ShardManagerTest, ShedRequestsWithTerminationLeaveNoBookkeeping) {
  // Every request declares an early-termination node, and a tight queue
  // timeout sheds most of them before that node ever runs. Each shard's
  // per-request bookkeeping must still be gone once the run ends.
  TinyLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.cell_type(), 2);
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), CostCurve({{1, 10.0}, {2, 12.0}}));
  for (int shards : {1, 2}) {
    SimEngineOptions options;
    options.num_workers = 2;
    options.num_shards = shards;
    options.admission.queue_timeout_micros = 30.0;
    SimEngine engine(&fix.registry, &cost, options);
    for (int i = 0; i < 40; ++i) {
      SubmitOptions opts;
      opts.terminate_after_node = 3;
      engine.SubmitAt(static_cast<double>(i), fix.model.Unfold(8), opts);
    }
    engine.Run();
    EXPECT_GT(engine.metrics().NumDropped(), 0u) << shards << " shards";
    EXPECT_GT(engine.metrics().NumCompleted(), 0u) << shards << " shards";
    EXPECT_EQ(engine.metrics().NumDropped() + engine.metrics().NumCompleted(), 40u);
    EXPECT_EQ(engine.NumActiveRequests(), 0u);
    EXPECT_EQ(engine.TrackedRequests(), 0u) << shards << " shards";
  }
}

}  // namespace
}  // namespace batchmaker
