// SimEngine: BatchMaker running against the virtual-time device model.
//
// This binds the real RequestProcessor + Scheduler (Algorithm 1) to a
// SimWorkerPool whose task durations come from a CostModel. It is the
// engine behind every throughput/latency experiment in EXPERIMENTS.md: the
// scheduling decisions are made by exactly the same code as the
// real-compute server, only "kernel execution" is simulated.
//
// Manager shards (see DESIGN.md "Sharded manager"): the simulator runs
// the Server's ShardManager (src/core/shard_manager.h) — the same
// arrival, completion, shedding, stealing, refill and slack-wake code —
// with virtual time as its clock. EngineOptions::num_shards shards each
// own a contiguous slice of the simulated workers; arrivals route by
// request id, and peer messages of the steal protocol are delivered as
// events at the instant they are sent. The event loop is single-threaded,
// so the sharded policy runs deterministically — which is how it gets
// reproducible tests.

#ifndef SRC_CORE_SIM_ENGINE_H_
#define SRC_CORE_SIM_ENGINE_H_

#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/engine_options.h"
#include "src/core/metrics.h"
#include "src/core/request_processor.h"
#include "src/core/scheduler.h"
#include "src/core/shard_manager.h"
#include "src/graph/cell_registry.h"
#include "src/obs/trace.h"
#include "src/runtime/cost_model.h"
#include "src/runtime/event_queue.h"
#include "src/runtime/sim_worker.h"

namespace batchmaker {

// Simulator configuration. The common engine core (workers, shards,
// pipeline_depth, scheduler, tracing, admission) lives in EngineOptions;
// see src/core/engine_options.h.
struct SimEngineOptions : EngineOptions {
  // Virtual time has no completion→manager→schedule latency to hide: a
  // deeper stream buys nothing and *costs* batching (tasks form earlier,
  // before would-be joiners arrive), so the simulator's watermark defaults
  // to 1 — schedule only when a stream drains — and existing simulated
  // figures stay byte-identical. Depth >= 2 models a runtime that
  // pipelines task submission and exposes that trade-off in virtual time.
  SimEngineOptions() { pipeline_depth = 1; }
};

class SimEngine : private ShardTransport {
 public:
  SimEngine(const CellRegistry* registry, const CostModel* cost_model,
            SimEngineOptions options = {});

  // Schedules a request arrival at virtual time `at_micros` (>= current
  // virtual time). Returns the request id. Per-request parameters
  // (deadline override, terminate_after_node, priority) ride in `opts`;
  // the sim has no token values, so early termination is declared up front
  // via SubmitOptions::terminate_after_node (evaluated as a TerminationFn,
  // exactly as Server::Submit does).
  RequestId SubmitAt(double at_micros, CellGraph graph, SubmitOptions opts = {});

  // Runs the simulation until all events are processed, or until virtual
  // time reaches `deadline_micros`.
  void Run(double deadline_micros = std::numeric_limits<double>::infinity());

  EventQueue& events() { return events_; }
  const MetricsCollector& metrics() const { return metrics_; }
  const SimWorkerPool& workers() const { return *pool_; }
  // Shard 0's scheduler (the only shard unless num_shards > 1). Aggregate
  // across shards with TotalTasksFormed()/TotalMigrations() instead.
  const Scheduler& scheduler() const { return shards_[0]->scheduler(); }
  size_t NumActiveRequests() const;
  // Requests whose submission bookkeeping (termination predicate, wanted
  // outputs, callback) some shard still holds; 0 once every request has
  // reached its terminal state.
  size_t TrackedRequests() const;
  // Effective shard count (num_shards clamped to [1, num_workers]).
  int num_shards() const { return num_shards_; }
  // Requests migrated across shards by the stealing policy.
  int64_t StealsExecuted() const { return metrics_.TotalSteals(); }
  int64_t TotalTasksFormed() const;
  int64_t TotalMigrations() const;

  // Event trace (virtual-time timestamps); enable via
  // EngineOptions::enable_tracing or trace().Enable().
  const TraceRecorder& trace() const { return trace_; }
  TraceRecorder& trace() { return trace_; }

 private:
  // ShardTransport: tasks go to the simulated worker streams; a peer
  // message is queued on the destination's inbox and delivered by an event
  // at the current instant (FIFO per instant, like the Server's inboxes).
  void PushTasks(int worker, std::vector<BatchedTask>&& tasks) override;
  void Send(int shard, ShardMsg msg) override;
  // Runs shard `shard`'s post-message pass and re-arms its wake event.
  void Step(int shard);
  // Schedules a wake event at the shard's NextWakeMicros when that is
  // earlier than the one already armed. Stale wake events (the deadline
  // was pruned, or the hint moved) are harmless.
  void ArmWake(int shard);

  const CellRegistry* registry_;
  // Prices every simulated task duration and migration penalty.
  const CostModel* cost_model_;
  int num_shards_ = 1;
  EventQueue events_;
  MetricsCollector metrics_;
  TraceRecorder trace_;
  std::vector<std::unique_ptr<ShardManager>> shards_;
  std::vector<std::deque<ShardMsg>> inboxes_;
  std::vector<double> armed_wake_;  // +inf = none armed
  std::vector<int> shard_of_worker_;
  std::unique_ptr<SimWorkerPool> pool_;
  RequestId next_request_id_ = 1;
};

}  // namespace batchmaker

#endif  // SRC_CORE_SIM_ENGINE_H_
