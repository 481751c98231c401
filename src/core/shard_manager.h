// ShardManager: one manager shard of BatchMaker (paper Figure 6's request
// processor + Algorithm-1 scheduler) as a clock-free state machine.
//
// A shard owns a RequestProcessor + Scheduler, the submission bookkeeping
// of the requests it owns, per-worker stream accounting for a contiguous
// slice [worker_begin, worker_end) of the workers, the shedding-deadline
// heap and the cross-shard stealing state (DESIGN.md "Sharded manager").
// It never reads a clock and never blocks: an engine feeds it messages
// together with the current instant, and it acts on the world only through
// a ShardTransport (push tasks to a worker's stream, send a message to a
// peer shard). Two engines run it:
//   * Server runs one manager thread per shard over a blocking inbox, with
//     the steady clock, and reclaims a quarantined worker's stream;
//   * SimEngine delivers the same messages as virtual-time events.
// Both therefore run one copy of the arrival, completion, shedding,
// stealing, donation, refill, slack-wake and quarantine rules.

#ifndef SRC_CORE_SHARD_MANAGER_H_
#define SRC_CORE_SHARD_MANAGER_H_

#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/engine_options.h"
#include "src/core/metrics.h"
#include "src/core/request_processor.h"
#include "src/core/scheduler.h"
#include "src/graph/cell_registry.h"
#include "src/obs/trace.h"

namespace batchmaker {

class CostModel;

// Early-termination predicate, evaluated by the owning shard after each of
// the request's nodes completes. Returning true cancels all of the
// request's not-yet-scheduled nodes (e.g. stop decoding once the token
// output of `completed_node` is <eos>). SubmitOptions::terminate_after_node
// is the declared-up-front special case.
using TerminationFn = std::function<bool(const RequestState&, int completed_node)>;

// What a request's submitter asked for, held by the owning shard until the
// terminal callback and migrated with the request when it is stolen.
struct Submission {
  std::vector<ValueRef> outputs_wanted;
  ResponseFn on_response;  // may be null
  TerminationFn terminate;  // may be null
};

// ---- Messages a shard handles ----------------------------------------------

struct ArrivalMsg {
  RequestId id = 0;
  CellGraph graph;
  std::vector<Tensor> externals;  // empty in virtual time
  Submission submission;
  double arrival_micros = 0.0;
  // Per-request SLA deadline (SubmitOptions::deadline_micros, verbatim):
  // 0 = none, negative opts out of shedding. The engine queue timeout is
  // stamped onto the RequestState separately at arrival.
  double deadline_micros = 0.0;
  int priority = 0;
};
struct CompletionMsg {
  BatchedTask task;
  // Indices into task.entries that did not execute (injected fault or
  // poisoned by an earlier failure in the stream); empty = clean task.
  std::vector<int> failed_entries;
  // Entry blamed for an injected fault (-1 for cascades: the blame was
  // assigned when the original fault fired).
  int victim_entry = -1;
};
struct CancelMsg {
  RequestId id = 0;
};
// Cross-shard stealing protocol: a thief with a starved worker asks a
// victim for a never-scheduled request...
struct StealRequestMsg {
  int thief = 0;
};
// ...the victim either migrates one over (whole RequestState plus the
// submission bookkeeping) or denies; a denied thief tries the next victim,
// and the denying victim remembers the hungry thief so it can donate
// surplus later without being asked again.
struct MigrateMsg {
  std::unique_ptr<RequestState> state;
  Submission submission;
  int from_shard = 0;
};
struct StealDenyMsg {
  int victim = 0;
};
// Worker failure domains: pull `worker` from scheduling. The engine
// reclaims the worker's undone stream (the tasks it was handed but will
// never report) into `reclaimed` before handing the message over; the
// shard requeues them.
struct QuarantineMsg {
  int worker = 0;
  bool dead = false;  // worker thread exited (vs hung: alive but stalled)
  std::vector<BatchedTask> reclaimed;
};
// ...and later re-admit it once a recovery probe passes.
struct ReadmitMsg {
  int worker = 0;
};
using ShardMsg = std::variant<ArrivalMsg, CompletionMsg, CancelMsg, StealRequestMsg,
                              MigrateMsg, StealDenyMsg, QuarantineMsg, ReadmitMsg>;

// How a shard reaches the world. Calls happen synchronously from inside
// ShardManager's entry points.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;
  // Appends `tasks` (formed for `worker`, in order) to the worker's FIFO
  // stream.
  virtual void PushTasks(int worker, std::vector<BatchedTask>&& tasks) = 0;
  // Delivers `msg` to shard `shard`'s ShardManager::Handle.
  virtual void Send(int shard, ShardMsg msg) = 0;
  // Engine cleanup after a request's terminal callback fired; the state is
  // destroyed right after this returns.
  virtual void RequestFinished(const RequestState& /*state*/) {}
};

class ShardManager {
 public:
  // Manages shard `id` of `num_shards`, owning workers [worker_begin,
  // worker_end). Reads pipeline_depth, scheduler, batch_policy and
  // admission.queue_timeout_micros from `options`. `cost_model` feeds the
  // slack policy when options.batch_policy enables it (ignored otherwise).
  // `shard_node` maps every shard to the NUMA node of its workers; empty
  // when placement is off. Everything passed by pointer must outlive the
  // manager.
  ShardManager(const CellRegistry* registry, const EngineOptions& options, int id,
               int num_shards, int worker_begin, int worker_end,
               const CostModel* cost_model, std::vector<int> shard_node,
               ShardTransport* transport, MetricsCollector* metrics,
               TraceRecorder* trace);

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  // Handles one message at instant `now_micros`. Engines hand over every
  // message queued at an instant, then call Step once.
  void Handle(ShardMsg msg, double now_micros);
  // The pass after a batch of messages: sheds expired requests, refills
  // every worker stream below the watermark, donates surplus to hungry
  // peers and starts a steal round if a worker starved.
  void Step(double now_micros);
  // The timed wake-up (see NextWakeMicros): sheds expired requests and,
  // with slack batching on, offers deferred batches a launch.
  void Wake(double now_micros);
  // When the engine must call Wake if no message arrives first: the
  // earliest live shedding deadline, or the deferred-batch launch hint
  // while some worker has stream room; +inf for none. Discards heap
  // entries of requests that can no longer shed.
  double NextWakeMicros();
  // Drops every cancel tombstone. Only safe once no request is in flight
  // anywhere (no migration can still land a cancelled request here).
  void ForgetCancels() { pending_cancels_.clear(); }

  int id() const { return id_; }
  RequestProcessor& processor() { return *processor_; }
  const RequestProcessor& processor() const { return *processor_; }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  // Deadline-heap entries not yet discarded.
  size_t PendingDeadlines() const { return deadlines_.size(); }
  // Requests whose Submission is still held; 0 once every owned request
  // answered.
  size_t TrackedRequests() const { return submissions_.size(); }
  // Requests with a queued steal candidacy (stale ones included).
  size_t StealCandidates() const { return stealable_.size(); }
  // Tasks handed to `worker`'s stream and not yet completed or reclaimed.
  int Outstanding(int worker) const {
    return outstanding_[static_cast<size_t>(worker - worker_begin_)];
  }

 private:
  void OnArrival(ArrivalMsg msg);
  void OnCompletion(CompletionMsg msg);
  void OnCancel(RequestId id);
  void OnStealRequest(int thief);
  void OnMigrate(MigrateMsg msg);
  void OnStealDeny();
  void OnQuarantine(QuarantineMsg msg);
  void OnReadmit(int worker);
  // Terminal callback of the processor: metrics, outputs, the response.
  void Finish(RequestState* state);
  void ExpireDeadlines();
  void PushDeadline(const RequestState& state);
  // Pops the lowest-priority, oldest stealable (= never-scheduled, still
  // kOk) request, or null. Lazily discards stale candidates.
  RequestState* PopStealable();
  // Extracts `state` and ships it to shard `thief`.
  void MigrateOut(RequestState* state, int thief);
  void MaybeInitiateSteal();
  void TryDonate();
  // When every worker is quarantined, pushes all stealable requests to
  // peers (same-NUMA-node peers first).
  void DonateAllStealable();
  void TrySchedule(int worker);
  void TryRefillWorkers();
  void Requeue(int worker, const BatchedTask& task);
  bool HasRoom(size_t local) const {
    return quarantined_[local] == 0 && outstanding_[local] < pipeline_depth_;
  }

  const int id_;
  const int num_shards_;
  const int worker_begin_;
  const int worker_end_;  // exclusive
  const int pipeline_depth_;
  const double queue_timeout_micros_;
  // Slack-aware batch formation is on (gates the launch-hint wake).
  const bool slack_on_;
  const std::vector<int> shard_node_;
  ShardTransport* const transport_;
  MetricsCollector* const metrics_;
  TraceRecorder* const trace_;
  // The instant of the entry point being handled.
  double now_ = 0.0;

  std::unique_ptr<RequestProcessor> processor_;
  std::unique_ptr<Scheduler> scheduler_;

  // Submissions of the owned requests, erased at the terminal callback.
  std::unordered_map<RequestId, Submission> submissions_;
  // Submissions with a live TerminationFn: completions skip the
  // termination pass while there are none (the common case).
  int terminating_ = 0;

  // Tasks in flight per owned worker, indexed worker - worker_begin.
  std::vector<int> outstanding_;
  int refill_start_ = 0;  // rotating scan start (local worker offset)
  // Quarantined workers (indexed worker - worker_begin): excluded from
  // every refill / steal / donate scan until re-admitted.
  std::vector<uint8_t> quarantined_;

  // Min-heap of (absolute shed deadline, request). Entries for requests
  // that finished, migrated away or began executing are discarded lazily.
  std::priority_queue<std::pair<double, RequestId>,
                      std::vector<std::pair<double, RequestId>>,
                      std::greater<std::pair<double, RequestId>>>
      deadlines_;

  // Steal candidates ordered by (priority, id): lowest priority first,
  // oldest first among equals. Entries go stale when a request is
  // scheduled, terminal, or gone; PopStealable discards them lazily (the
  // terminal path also erases eagerly).
  std::set<std::pair<int, RequestId>> stealable_;
  // One outstanding steal round at a time: a StealRequestMsg is in flight
  // (or bouncing through denials) until a migration lands or every peer
  // denied.
  bool steal_pending_ = false;
  // A message other than a steal request or denial arrived since the last
  // round started. A round that every peer denied is retried only after
  // such an event, so two starved shards never ping-pong steal messages.
  bool steal_retry_ = true;
  int steal_next_ = 0;     // peer the current round last asked
  int steal_denials_ = 0;  // denials received this round
  // Peers whose steal request this shard denied; when this shard's workers
  // saturate with stealable surplus left over, it donates to them unasked.
  std::vector<int> hungry_;
  // Cancels that arrived for requests this shard does not (yet) own. A
  // cancel broadcast can reach the thief before the migration it races
  // with; the tombstone cancels the request the moment it is adopted.
  std::unordered_set<RequestId> pending_cancels_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_SHARD_MANAGER_H_
