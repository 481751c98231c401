#include "src/core/server.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/util/logging.h"
#include "src/util/topology.h"

namespace batchmaker {

namespace {

// Poison-set key for one (request, node) pair. Node indices are bounded by
// graph size (well under 2^20) and request ids are sequential from 1, so
// the packing cannot collide — a collision would be a correctness bug
// (erasing one pair's key would unpoison another's failed output).
uint64_t PoisonKey(RequestId request, int node) {
  BM_CHECK_LT(node, 1 << 20);
  return (static_cast<uint64_t>(request) << 20) | static_cast<uint64_t>(node);
}

}  // namespace

const char* WorkerHealthName(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return "healthy";
    case WorkerHealth::kSlow:
      return "slow";
    case WorkerHealth::kHung:
      return "hung";
    case WorkerHealth::kDead:
      return "dead";
  }
  return "unknown";
}

// Per-worker state shared by the worker thread (WorkerLoop), the owning
// shard's manager and the watchdog.
//
// The worker thread runs each task of its FIFO stream to the end — gather,
// execute, scatter — before it pops the next, so task t has scattered
// before task t+1 gathers: a consumer never reads a row its producer has
// not written, and its device's one staging arena, reset after every task,
// suffices.
//
// Failure poison (`failed_produced`): when a task fails to execute
// (injected fault or a throwing cell), its entries' (request, node) keys go
// here — the nodes produced nothing, and later tasks in this stream that
// consume them have nothing to read. The worker checks each entry's inputs
// against this set to build the task's poisoned mask; poisoned rows gather
// as zeros, are skipped by the scatter, and are reported to the manager as
// failed entries (a cascade). Keys are purged three ways so a re-scheduled
// healthy execution is never mis-poisoned: the worker self-cleans an
// entry's own stale key when it runs cleanly, the scheduler's unpark hook
// erases a parked subgraph's keys once its in-flight tasks drain, and
// request finalization sweeps keys of nodes that were cancelled outright.
struct Server::WorkerPipeline {
  // Guards failed_produced and the in-flight copy below.
  std::mutex mu;
  std::unordered_set<uint64_t> failed_produced;
  // Total worker-thread time blocked on the task queue (see
  // WorkerIdleMicros). Written only by the worker thread; read from any
  // thread.
  std::atomic<double> idle_micros{0.0};
  // Stream seq of the next popped task. Touched only by the worker thread;
  // kept here so a respawned thread continues the stream's numbering.
  int64_t next_seq = 0;

  // ---- Worker failure domains (written only when health_on_) ----------
  // Progress heartbeat: a monotonically increasing epoch plus a wall
  // stamp, bumped by the worker thread at pop, gather and scatter
  // boundaries. The watchdog reads both lock-free.
  std::atomic<int64_t> hb_epoch{0};
  std::atomic<double> hb_stamp{0.0};
  // The task the worker thread is currently inside: stream seq (-1 = idle,
  // published last with release so the fields below are valid when read
  // after an acquire load), entry instant, cell type and batch size. The
  // watchdog prices the expected span with the online cost model and
  // flags the worker hung when the actual span blows past it.
  std::atomic<double> busy_since{0.0};
  std::atomic<int> busy_type{-1};
  std::atomic<int> busy_batch{0};
  std::atomic<int64_t> busy_task_seq{-1};
  // Worker-thread liveness: 0 = not yet running, 1 = alive, 2 = exited. A
  // chaos thread-exit (or any early return) leaves 2 behind while the
  // watchdog is still running; normal shutdown exits only after the
  // watchdog stopped.
  std::atomic<int> alive{0};
  // In-flight task metadata for dead-worker reclamation: a copy of the
  // task the worker thread popped (recorded under mu right after the pop,
  // cleared before its completion message is pushed). A live worker —
  // healthy or hung — resolves its popped task itself; a dead one never
  // will, so the manager requeues this copy.
  BatchedTask inflight_task;
  bool inflight_valid = false;
  // Count of quarantine operations the shard manager has completed on
  // this pipeline. The watchdog records the value it expects before
  // sending a QuarantineMsg and probes for re-admission only after the
  // count reaches it, so a ReadmitMsg can never overtake its
  // QuarantineMsg through the inbox.
  std::atomic<int64_t> quarantine_acks{0};
};

// One manager shard (DESIGN.md "Sharded manager"): the clock-free
// ShardManager plus what makes it run in real time — an inbox that
// completions, arrivals, cancels, peer steal traffic and watchdog requests
// land in, and the manager thread that drains it.
struct Server::Shard {
  explicit Shard(std::unique_ptr<ShardManager> manager) : core(std::move(manager)) {}
  std::unique_ptr<ShardManager> core;
  BlockingQueue<ShardMsg> inbox;
  std::thread thread;
};

Server::Server(const CellRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(options),
      admission_(options.admission),
      trace_([this] { return NowMicros(); }),
      fault_injector_(options_.fault) {
  BM_CHECK(registry != nullptr);
  BM_CHECK_GT(options_.num_workers, 0);
  BM_CHECK_GT(options_.threads_per_worker, 0);
  BM_CHECK_GT(options_.pipeline_depth, 0);
  BM_CHECK_GT(options_.num_shards, 0);
  num_shards_ = std::min(options_.num_shards, options_.num_workers);

  // Resolve the worker device (DESIGN.md "Worker device"); empty selects
  // the real-compute cpu device.
  const std::string backend_name = options_.backend.empty() ? "cpu" : options_.backend;
  make_device_ = FindWorkerDevice(backend_name);
  BM_CHECK(make_device_ != nullptr)
      << "unknown device backend '" << backend_name << "' (Server runs \"cpu\" or \"null\")";
  if (options_.enable_tracing) {
    trace_.Enable();
  }
  metrics_.InitShards(num_shards_);

  // Slack-aware batch formation (DESIGN.md): an online cost model —
  // seeded with the static Figure-3 anchors, continuously re-fitted from
  // measured exec spans when calibration is on — feeds every shard
  // scheduler's delay/launch decision. The health watchdog prices its
  // hang thresholds from the same model, so it is created for either
  // feature (the scheduler only consults it under slack_on_).
  slack_on_ = options_.batch_policy.slack_batching &&
              options_.batch_policy.max_delay_micros > 0.0;
  health_on_ = options_.health.health_watchdog;
  if (slack_on_ || health_on_) {
    online_cost_model_ = std::make_unique<OnlineCostModel>();
    // Key the calibrated curves by precision: exec spans measured at int8
    // must never re-fit the fp32 curve (or vice versa).
    online_cost_model_->set_active_precision(options_.precision);
    online_cost_model_->set_on_refit(
        [this](CellTypeId type, int num_anchors, int64_t observations) {
          trace_.CostModelRefit(type, num_anchors, observations);
        });
  }

  const int num_workers = options_.num_workers;
  shard_of_worker_.assign(static_cast<size_t>(num_workers), 0);
  for (int i = 0; i < num_workers; ++i) {
    task_queues_.push_back(std::make_unique<BlockingQueue<WorkerTask>>());
    pipelines_.push_back(std::make_unique<WorkerPipeline>());
  }

  // Worker failure domains (DESIGN.md): published per-worker health and
  // the watchdog's private state machine. Allocated regardless of the
  // flag so HealthReport() is always safe to call; never written with the
  // watchdog off.
  metrics_.InitWorkers(num_workers);
  worker_health_ =
      std::make_unique<std::atomic<uint8_t>[]>(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    worker_health_[static_cast<size_t>(i)].store(
        static_cast<uint8_t>(WorkerHealth::kHealthy), std::memory_order_relaxed);
  }
  watch_.resize(static_cast<size_t>(num_workers));
  if (health_on_) {
    BM_CHECK_GT(options_.health.check_interval_micros, 0.0);
    BM_CHECK_GT(options_.health.probe_backoff_micros, 0.0);
  }

  // NUMA-aware placement (DESIGN.md): discover the topology, assign each
  // worker a node, and align shard boundaries with node boundaries so the
  // stealing protocol is the only deliberately cross-node traffic. With the
  // policy off, nothing is discovered and the proportional boundaries below
  // are computed exactly as before.
  numa_on_ = options_.numa_policy != NumaPolicy::kNone;
  numa_replicate_ = options_.numa_policy == NumaPolicy::kPinReplicate;
  worker_node_.assign(static_cast<size_t>(num_workers), -1);
  worker_pinned_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    worker_pinned_[static_cast<size_t>(i)].store(false, std::memory_order_relaxed);
  }
  std::vector<int> shard_bounds(static_cast<size_t>(num_shards_) + 1, 0);
  for (int s = 0; s <= num_shards_; ++s) {
    shard_bounds[static_cast<size_t>(s)] = s * num_workers / num_shards_;
  }
  if (numa_on_) {
    topology_ = DiscoverTopology(options_.numa_sysfs_root.empty()
                                     ? "/sys"
                                     : options_.numa_sysfs_root);
    worker_node_ = AssignWorkerNodes(num_workers,
                                     static_cast<int>(topology_.nodes.size()));
    shard_bounds = PartitionWorkersByNode(num_workers, num_shards_, worker_node_);
    metrics_.InitNodes(static_cast<int>(topology_.nodes.size()));
  }

  // A shard's workers share one node whenever shards don't outnumber
  // nodes (the boundary snapping above); its manager pins there too.
  for (int s = 0; s < num_shards_; ++s) {
    shard_node_.push_back(
        numa_on_ ? worker_node_[static_cast<size_t>(shard_bounds[static_cast<size_t>(s)])]
                 : -1);
  }
  for (int s = 0; s < num_shards_; ++s) {
    const int begin = shard_bounds[static_cast<size_t>(s)];
    const int end = shard_bounds[static_cast<size_t>(s) + 1];
    for (int w = begin; w < end; ++w) {
      shard_of_worker_[static_cast<size_t>(w)] = s;
    }
    auto core = std::make_unique<ShardManager>(
        registry, options_, s, num_shards_, begin, end, online_cost_model_.get(),
        numa_on_ ? shard_node_ : std::vector<int>{}, static_cast<ShardTransport*>(this),
        &metrics_, &trace_);
    // When a failure-parked subgraph drains and is about to re-enqueue,
    // purge its nodes' poison keys from the worker that ran the failed task
    // (the pinned — hence last — worker): with zero tasks in flight nothing
    // can still consume them, and a healthy re-execution scheduled back to
    // that worker must not be mis-poisoned by the stale keys.
    core->scheduler().set_unpark_hook([this](Subgraph* sg) {
      if (sg->last_worker < 0) {
        return;
      }
      WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(sg->last_worker)];
      std::lock_guard<std::mutex> lock(pipe.mu);
      for (int node : sg->nodes) {
        pipe.failed_produced.erase(PoisonKey(sg->owner->id, node));
      }
    });
    shards_.push_back(std::make_unique<Shard>(std::move(core)));
  }
}

Server::~Server() { Shutdown(); }

void Server::Start() {
  BM_CHECK(!started_.exchange(true)) << "Start() called twice";
  start_time_ = std::chrono::steady_clock::now();
  // Low-precision serving: quantize + pack every registered cell's weights
  // up front so the first batch doesn't pay the (one-time) quantization
  // cost, and record which kernel the dispatcher resolved the precision to.
  if (options_.precision != Precision::kF32) {
    for (CellTypeId t = 0; t < registry_->NumTypes(); ++t) {
      registry_->executor(t).EnsurePacked(options_.precision);
    }
  }
  trace_.GemmKernelInfo(static_cast<int>(options_.precision));
  for (int s = 0; s < num_shards_; ++s) {
    Shard* sh = shards_[static_cast<size_t>(s)].get();
    sh->thread = std::thread([this, sh, s] {
      SetCurrentThreadName("manager/" + std::to_string(s));
      const int node = shard_node_[static_cast<size_t>(s)];
      if (node >= 0) {
        // Keep the manager on its workers' node: refill messages and the
        // request map stay node-local. Best-effort, like every pin.
        PinCurrentThreadToCpus(topology_.nodes[static_cast<size_t>(node)].cpus);
      }
      TraceRecorder::SetThreadShard(s);
      ManagerLoop(*sh);
    });
  }
  for (int i = 0; i < options_.num_workers; ++i) {
    const int shard = shard_of_worker_[static_cast<size_t>(i)];
    worker_threads_.emplace_back([this, i, shard] {
      TraceRecorder::SetThreadShard(shard);
      WorkerLoop(i);
    });
  }
  if (health_on_) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
}

int Server::WorkerNode(int worker) const {
  BM_CHECK_GE(worker, 0);
  BM_CHECK_LT(static_cast<size_t>(worker), worker_node_.size());
  return worker_node_[static_cast<size_t>(worker)];
}

bool Server::WorkerPinnedOk(int worker) const {
  BM_CHECK_GE(worker, 0);
  BM_CHECK_LT(worker, options_.num_workers);
  return worker_pinned_[static_cast<size_t>(worker)].load(std::memory_order_relaxed);
}

int Server::NumPinnedWorkers() const {
  int pinned = 0;
  for (int w = 0; w < options_.num_workers; ++w) {
    pinned += WorkerPinnedOk(w) ? 1 : 0;
  }
  return pinned;
}

double Server::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_time_)
             .count() /
         1000.0;
}

std::string Server::ValidateSubmission(const CellGraph& graph,
                                       const std::vector<Tensor>& externals,
                                       const std::vector<ValueRef>& outputs_wanted) const {
  if (graph.NumNodes() == 0) {
    return "empty cell graph";
  }
  if (externals.empty()) {
    return "real-compute submissions require external input tensors";
  }
  std::string err = graph.ValidateOrError(*registry_, static_cast<int>(externals.size()));
  if (!err.empty()) {
    return err;
  }
  for (const ValueRef& ref : outputs_wanted) {
    if (ref.is_external()) {
      return "outputs_wanted must reference node outputs, not externals";
    }
    if (ref.node < 0 || ref.node >= graph.NumNodes()) {
      return "outputs_wanted references nonexistent node " + std::to_string(ref.node);
    }
    const CellDef& def = registry_->def(graph.node(ref.node).type);
    if (ref.output < 0 || ref.output >= def.NumOutputs()) {
      return "outputs_wanted references nonexistent output " + std::to_string(ref.output);
    }
  }
  return {};
}

RequestId Server::Submit(CellGraph graph, std::vector<Tensor> externals,
                         std::vector<ValueRef> outputs_wanted, ResponseFn on_response,
                         SubmitOptions opts, TerminationFn terminate) {
  BM_CHECK(started_.load()) << "Submit before Start";
  const RequestId id = next_request_id_.fetch_add(1);
  bool accepted = ValidateSubmission(graph, externals, outputs_wanted).empty();
  if (opts.terminate_after_node >= 0) {
    BM_CHECK(!terminate)
        << "pass terminate_after_node or a TerminationFn, not both";
    if (opts.terminate_after_node >= graph.NumNodes()) {
      accepted = false;
    } else {
      terminate = [node = opts.terminate_after_node](const RequestState&,
                                                     int completed_node) {
        return completed_node == node;
      };
    }
  }
  if (accepted) {
    ArrivalMsg msg;
    msg.graph = std::move(graph);
    msg.externals = std::move(externals);
    msg.submission = {std::move(outputs_wanted), std::move(on_response), std::move(terminate)};
    // The per-request SLA deadline rides verbatim; the engine-wide queue
    // timeout is stamped separately at arrival and shedding fires on
    // whichever of the two is tighter (RequestState::ShedDeadlineMicros).
    msg.deadline_micros = opts.deadline_micros;
    msg.priority = opts.priority;
    const int num_nodes = msg.graph.NumNodes();

    // The shutdown/admission check, unfinished-count increment and inbox
    // push must be one atomic step with respect to Shutdown: otherwise a
    // submission can pass the check, Shutdown can observe zero unfinished
    // requests and close the inboxes, and the late Push lands on a closed
    // queue — silently dropped with unfinished_requests_ stuck nonzero.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shutdown_.load()) {
      accepted = false;  // lost the race; never enqueued
    } else if (admission_.max_queued_requests > 0 &&
               unfinished_requests_.load() >= admission_.max_queued_requests) {
      accepted = false;  // admission control: the server is full
    } else {
      msg.id = id;
      msg.arrival_micros = NowMicros();
      trace_.RequestArrival(msg.arrival_micros, id, num_nodes);
      unfinished_requests_.fetch_add(1);
      // Arrival routing: requests spread across shards by id.
      shards_[static_cast<size_t>(id % static_cast<RequestId>(num_shards_))]
          ->inbox.Push(std::move(msg));
      return id;
    }
    on_response = std::move(msg.submission.on_response);  // reclaim for the rejection
  }
  // Rejected (invalid graph, full queue, or shutdown): the terminal answer
  // fires synchronously on the submitter's thread, outside lifecycle_mu_.
  metrics_.RecordRejected();
  trace_.RequestReject(id);
  if (on_response) {
    on_response(id, RequestStatus::kRejected, {});
  }
  return id;
}

Response Server::SubmitAndWait(CellGraph graph, std::vector<Tensor> externals,
                               std::vector<ValueRef> outputs_wanted, SubmitOptions opts) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  Submit(std::move(graph), std::move(externals), std::move(outputs_wanted),
         [&promise](RequestId, RequestStatus status, std::vector<Tensor> outputs) {
           promise.set_value(Response{status, std::move(outputs)});
         },
         opts);
  // Every submission — accepted or rejected — gets exactly one callback,
  // so the future always resolves.
  return future.get();
}

void Server::Cancel(RequestId id) {
  BM_CHECK(started_.load()) << "Cancel before Start";
  // Broadcast: only the owning shard acts, but ownership can be mid-flight
  // in a MigrateMsg, so every shard gets the message (non-owners keep a
  // tombstone; see Shard::pending_cancels). Push on a closed inbox is a
  // no-op: after Shutdown the request is already terminal, so there is
  // nothing left to cancel.
  for (auto& shard : shards_) {
    shard->inbox.Push(CancelMsg{id});
  }
}

void Server::Shutdown() {
  if (!started_.load()) {
    return;
  }
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    if (shutdown_.exchange(true)) {
      return;
    }
    // Drain: every accepted request must finish before the threads stop.
    // Setting shutdown_ under lifecycle_mu_ means no further Submit can
    // slip in, so unfinished_requests_ only decreases from here; the
    // completion callback signals when it hits zero. (With zero unfinished
    // requests no migration is in flight either — a migrating request
    // counts as unfinished — so no shard inbox holds live request state.)
    // The wait is unbounded by design — abandoning a live-but-hung worker
    // thread is unsound (on wake it would scatter into freed request
    // state) — but it must not be *silent*: a worker hung past every
    // recovery path (DESIGN.md "Worker failure domains") would wedge this
    // drain forever, so warn periodically with the stuck workers named.
    const auto warn_every = std::chrono::seconds(5);
    const auto pred = [this] { return unfinished_requests_.load() == 0; };
    while (!drained_cv_.wait_for(lock, warn_every, pred)) {
      std::ostringstream stuck;
      if (health_on_) {
        for (const WorkerHealthSnapshot& row : HealthReport()) {
          if (row.health != WorkerHealth::kHealthy) {
            stuck << "; worker " << row.worker << " "
                  << WorkerHealthName(row.health) << " (busy seq "
                  << row.busy_task_seq << ")";
          }
        }
      }
      BM_LOG(Warning) << "Shutdown drain stalled: " << unfinished_requests_.load()
                      << " unfinished request(s)" << stuck.str();
    }
  }
  // The watchdog must run through the drain (quarantine recovery is what
  // completes it under a fault) and stop before the inboxes close, so no
  // Quarantine/Readmit message can land on a closed queue.
  if (health_on_) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    if (watchdog_thread_.joinable()) {
      watchdog_thread_.join();
    }
  }
  for (auto& shard : shards_) {
    shard->inbox.Close();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // After the drain there are no tasks in flight: closing a task queue
  // stops that worker's thread.
  for (auto& queue : task_queues_) {
    queue->Close();
  }
  for (std::thread& t : worker_threads_) {
    // A chaos-killed worker thread the watchdog already joined (and maybe
    // replaced) leaves a non-joinable slot behind.
    if (t.joinable()) {
      t.join();
    }
  }
  // Fold the schedulers' delayed-launch totals into the per-shard metrics
  // now that their manager threads have stopped (exactly once: a second
  // Shutdown call returns at the exchange above).
  for (auto& shard : shards_) {
    const Scheduler& scheduler = shard->core->scheduler();
    ShardCounters& counters = metrics_.shard(shard->core->id());
    counters.delayed_batches.fetch_add(scheduler.TotalDelayedLaunches(),
                                       std::memory_order_relaxed);
    counters.batch_delay_micros.fetch_add(
        static_cast<int64_t>(scheduler.TotalBatchDelayMicros()),
        std::memory_order_relaxed);
  }
}

size_t Server::PendingDeadlines() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->core->PendingDeadlines();
  }
  return total;
}

double Server::WorkerIdleMicros(int worker) const {
  BM_CHECK_GE(worker, 0);
  BM_CHECK_LT(static_cast<size_t>(worker), pipelines_.size());
  return pipelines_[static_cast<size_t>(worker)]->idle_micros.load(
      std::memory_order_relaxed);
}

double Server::TotalWorkerIdleMicros() const {
  double total = 0.0;
  for (const auto& pipe : pipelines_) {
    total += pipe->idle_micros.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<WorkerHealthSnapshot> Server::HealthReport() const {
  std::vector<WorkerHealthSnapshot> out(
      static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    WorkerHealthSnapshot& snap = out[static_cast<size_t>(w)];
    const WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(w)];
    snap.worker = w;
    snap.health = static_cast<WorkerHealth>(
        worker_health_[static_cast<size_t>(w)].load(std::memory_order_relaxed));
    snap.quarantined = snap.health == WorkerHealth::kHung ||
                       snap.health == WorkerHealth::kDead;
    snap.heartbeat_epoch = pipe.hb_epoch.load(std::memory_order_relaxed);
    snap.heartbeat_micros = pipe.hb_stamp.load(std::memory_order_relaxed);
    snap.busy_task_seq = pipe.busy_task_seq.load(std::memory_order_relaxed);
    const WorkerHealthCounters& counters = metrics_.worker(w);
    snap.quarantines = counters.quarantines.load(std::memory_order_relaxed);
    snap.requeued_tasks = counters.requeued_tasks.load(std::memory_order_relaxed);
    snap.respawns = counters.respawns.load(std::memory_order_relaxed);
  }
  return out;
}

void Server::ManagerLoop(Shard& shard) {
  ShardManager& core = *shard.core;
  for (;;) {
    // A shedding deadline or deferred launch is pending: sleep at most
    // until it fires, so a queued request is shed — and a deferred batch
    // launched — on time even with no messages in flight.
    const double wake = core.NextWakeMicros();
    std::optional<ShardMsg> msg;
    if (wake == std::numeric_limits<double>::infinity()) {
      msg = shard.inbox.Pop();
      if (!msg) {
        break;  // closed and drained
      }
    } else {
      const double wait = wake - NowMicros();
      if (wait > 0.0) {
        msg = shard.inbox.PopFor(std::chrono::duration<double, std::micro>(wait));
        if (!msg && shard.inbox.Closed()) {
          break;  // nullopt with the queue closed implies drained
        }
      }
      if (!msg) {
        core.Wake(NowMicros());
        continue;
      }
    }
    Dispatch(shard, std::move(*msg));
    // Admit everything that queued up behind this message before the
    // refill pass: near-simultaneous requests batch together, and a burst
    // of completions is absorbed in one scan instead of one per message.
    while (auto more = shard.inbox.TryPop()) {
      Dispatch(shard, std::move(*more));
    }
    core.Step(NowMicros());
    if (unfinished_requests_.load(std::memory_order_relaxed) == 0) {
      // Fully drained ⇒ no migration in flight ⇒ every tombstone is stale.
      core.ForgetCancels();
    }
  }
}

void Server::Dispatch(Shard& shard, ShardMsg msg) {
  if (auto* quarantine = std::get_if<QuarantineMsg>(&msg)) {
    ReclaimStream(*quarantine);
  }
  shard.core->Handle(std::move(msg), NowMicros());
}

void Server::ReclaimStream(QuarantineMsg& msg) {
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(msg.worker)];
  // Every task this worker was handed is either still queued — drained
  // here — or was popped by its thread. A live thread (healthy, or hung and
  // waking later) runs a popped task to the end and reports it through the
  // inbox like any other, so the completion path resolves it; with the
  // stream no longer refilled, nothing is popped after the drain. A dead
  // thread was joined before this message was sent, and its in-flight task
  // is reclaimed from the pipeline's copy.
  if (msg.dead) {
    std::lock_guard<std::mutex> lock(pipe.mu);
    if (pipe.inflight_valid) {
      // Drop any poison key the task left behind: the requeued nodes run
      // again and must not be mis-poisoned after re-admission.
      for (const TaskEntry& entry : pipe.inflight_task.entries) {
        pipe.failed_produced.erase(PoisonKey(entry.request, entry.node));
      }
      msg.reclaimed.push_back(std::move(pipe.inflight_task));
      pipe.inflight_valid = false;
    }
    // The dead thread left its busy marker set; clear it so the
    // watchdog's idle probe can pass once the replacement runs.
    pipe.busy_task_seq.store(-1, std::memory_order_release);
  }
  for (WorkerTask& wt : task_queues_[static_cast<size_t>(msg.worker)]->DrainAll()) {
    msg.reclaimed.push_back(std::move(wt.task));
  }
  // Ack strictly after the reclaim and the drain: the watchdog respawns a
  // dead worker's thread and probes for re-admission only once the counter
  // advances, so the replacement starts on an empty stream and a
  // ReadmitMsg can never overtake this quarantine through the inbox.
  pipe.quarantine_acks.fetch_add(1);
}

void Server::PushTasks(int worker, std::vector<BatchedTask>&& tasks) {
  RequestProcessor& processor =
      shards_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(worker)])]
          ->core->processor();
  trace_.StreamRefill(worker, static_cast<int>(tasks.size()));
  for (BatchedTask& task : tasks) {
    WorkerTask wt;
    wt.states.reserve(task.entries.size());
    for (const TaskEntry& entry : task.entries) {
      RequestState* state = processor.FindRequest(entry.request);
      BM_CHECK(state != nullptr);
      wt.states.push_back(state);
    }
    wt.task = std::move(task);
    task_queues_[static_cast<size_t>(worker)]->Push(std::move(wt));
  }
}

void Server::Send(int shard, ShardMsg msg) {
  // Cannot land on a closed inbox: a migrating request is unfinished, so
  // Shutdown's drain wait has not released and no inbox is closed yet; a
  // steal request or denial lost to a closed inbox has nothing to move.
  shards_[static_cast<size_t>(shard)]->inbox.Push(std::move(msg));
}

void Server::RequestFinished(const RequestState& state) {
  // Sweep stale poison keys of nodes that were cancelled after a failure
  // (their keys sit in the failing worker's failed_produced set and the
  // request will never unpark anything to purge them). Gated on an actual
  // failure having happened, so the common path never touches the
  // pipeline locks from the manager.
  if (state.cancelled_nodes > 0 &&
      (fault_injector_.enabled() || tasks_failed_.load(std::memory_order_relaxed) > 0)) {
    std::vector<uint64_t> keys;
    for (size_t n = 0; n < state.nodes.size(); ++n) {
      if (state.nodes[n].stage == NodeStage::kCancelled) {
        keys.push_back(PoisonKey(state.id, static_cast<int>(n)));
      }
    }
    for (auto& pipe : pipelines_) {
      std::lock_guard<std::mutex> lock(pipe->mu);
      for (uint64_t key : keys) {
        pipe->failed_produced.erase(key);
      }
    }
  }
  if (unfinished_requests_.fetch_sub(1) == 1) {
    // Last in-flight request: wake a Shutdown() waiting for the drain.
    // Taking the mutex orders this notify after the waiter's predicate
    // check, so the wakeup cannot be missed.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    drained_cv_.notify_all();
  }
}

void Server::WatchdogLoop() {
  SetCurrentThreadName("watchdog");
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  const auto interval =
      std::chrono::duration<double, std::micro>(options_.health.check_interval_micros);
  // wait_for returns true only when watchdog_stop_ is set; each timeout is
  // one sampling pass over all workers.
  while (!watchdog_cv_.wait_for(lock, interval, [this] { return watchdog_stop_; })) {
    const double now = NowMicros();
    for (int w = 0; w < options_.num_workers; ++w) {
      WatchdogCheckWorker(w, now);
    }
  }
}

void Server::WatchdogCheckWorker(int worker, double now_micros) {
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];
  WorkerWatch& watch = watch_[static_cast<size_t>(worker)];
  std::atomic<uint8_t>& health = worker_health_[static_cast<size_t>(worker)];
  const HealthOptions& opts = options_.health;
  const int owner_shard = shard_of_worker_[static_cast<size_t>(worker)];

  const auto begin_quarantine = [&](bool dead) {
    watch.quarantined = true;
    watch.respawned = false;
    watch.quarantined_at = now_micros;
    watch.acks_wanted = pipe.quarantine_acks.load() + 1;
    watch.backoff = opts.probe_backoff_micros;
    watch.next_probe = now_micros + watch.backoff;
    health.store(static_cast<uint8_t>(dead ? WorkerHealth::kDead : WorkerHealth::kHung),
                 std::memory_order_relaxed);
    shards_[static_cast<size_t>(owner_shard)]->inbox.Push(
        QuarantineMsg{worker, dead, {}});
  };

  if (watch.quarantined) {
    if (pipe.quarantine_acks.load() < watch.acks_wanted) {
      return;  // the shard manager has not processed the quarantine yet
    }
    // A dead worker's thread was joined before the quarantine was
    // requested; replace it once the manager's reclaim completed (the
    // replacement then only ever sees the drained stream).
    if (!watch.respawned &&
        health.load(std::memory_order_relaxed) ==
            static_cast<uint8_t>(WorkerHealth::kDead)) {
      worker_threads_[static_cast<size_t>(worker)] =
          std::thread([this, worker, owner_shard] {
            TraceRecorder::SetThreadShard(owner_shard);
            WorkerLoop(worker);
          });
      watch.respawned = true;
      metrics_.worker(worker).respawns.fetch_add(1, std::memory_order_relaxed);
      trace_.WorkerRespawn(worker);
    }
    if (now_micros < watch.next_probe) {
      return;
    }
    // Re-admission probe: the worker thread must be alive and idle. Idle
    // means it holds no task, so its staging arena was reset by the last
    // task it ran and the re-admitted stream restarts clean.
    if (pipe.alive.load() == 1 &&
        pipe.busy_task_seq.load(std::memory_order_acquire) == -1) {
      watch.quarantined = false;
      watch.respawned = false;
      watch.backoff = 0.0;
      health.store(static_cast<uint8_t>(WorkerHealth::kHealthy),
                   std::memory_order_relaxed);
      trace_.WorkerReadmit(worker, watch.quarantined_at);
      shards_[static_cast<size_t>(owner_shard)]->inbox.Push(ReadmitMsg{worker});
      return;
    }
    // Still stuck: back off exponentially, bounded.
    watch.backoff = std::min(std::max(watch.backoff * 2.0, opts.probe_backoff_micros),
                             opts.probe_backoff_max_micros);
    watch.next_probe = now_micros + watch.backoff;
    return;
  }

  const int alive = pipe.alive.load();
  if (alive == 0) {
    return;  // worker thread not yet running; nothing to judge
  }
  if (alive == 2) {
    // The worker thread exited outside shutdown: dead. Join the corpse so
    // its slot can be respawned, then ask the owning shard to quarantine
    // and reclaim (including the task the thread died inside).
    if (worker_threads_[static_cast<size_t>(worker)].joinable()) {
      worker_threads_[static_cast<size_t>(worker)].join();
    }
    begin_quarantine(/*dead=*/true);
    return;
  }
  const int64_t busy_seq = pipe.busy_task_seq.load(std::memory_order_acquire);
  if (busy_seq < 0) {
    // Idle is healthy by definition (the stream may simply be empty).
    if (health.load(std::memory_order_relaxed) ==
        static_cast<uint8_t>(WorkerHealth::kSlow)) {
      health.store(static_cast<uint8_t>(WorkerHealth::kHealthy),
                   std::memory_order_relaxed);
    }
    return;
  }
  // Busy: compare the in-flight span against the cost model's expectation
  // for this (type, batch). The model self-calibrates from measured spans,
  // so the thresholds track the machine, not a hardcoded constant.
  const double span = now_micros - pipe.busy_since.load(std::memory_order_relaxed);
  const double predicted = online_cost_model_->TaskMicros(
      static_cast<CellTypeId>(pipe.busy_type.load(std::memory_order_relaxed)),
      std::max(1, pipe.busy_batch.load(std::memory_order_relaxed)));
  const double hang_at =
      std::max(opts.min_hang_micros, opts.hang_multiplier * predicted);
  if (span >= hang_at) {
    begin_quarantine(/*dead=*/false);
    return;
  }
  if (opts.slow_multiplier > 0.0 && predicted > 0.0 &&
      span >= opts.slow_multiplier * predicted) {
    health.store(static_cast<uint8_t>(WorkerHealth::kSlow),
                 std::memory_order_relaxed);
    metrics_.worker(worker).slow_ticks.fetch_add(1, std::memory_order_relaxed);
  } else if (health.load(std::memory_order_relaxed) ==
             static_cast<uint8_t>(WorkerHealth::kSlow)) {
    health.store(static_cast<uint8_t>(WorkerHealth::kHealthy),
                 std::memory_order_relaxed);
  }
}

void Server::WorkerLoop(int worker) {
  SetCurrentThreadName("worker/" + std::to_string(worker));
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];
  // Pin before building the device: its pool threads inherit this
  // thread's affinity mask, so one pin covers the whole intra-task pool.
  const int my_node = numa_on_ ? worker_node_[static_cast<size_t>(worker)] : -1;
  if (my_node >= 0) {
    const bool pinned =
        PinCurrentThreadToCpus(topology_.nodes[static_cast<size_t>(my_node)].cpus);
    worker_pinned_[static_cast<size_t>(worker)].store(pinned,
                                                      std::memory_order_relaxed);
    trace_.WorkerPinned(worker, my_node, pinned);
  }
  // This worker's execution resources — intra-task pool, staging and
  // scratch arenas, NUMA weight replicas — live in its device, built here
  // on the pinned thread so they inherit the affinity and first-touch
  // placement. Destroying the device (normal exit, chaos exit) releases
  // the replicas, so a respawned thread re-acquires them by building a new
  // one.
  WorkerDeviceOptions device_options;
  device_options.registry = registry_;
  device_options.precision = options_.precision;
  device_options.threads = options_.threads_per_worker;
  device_options.thread_name_prefix = "pool/" + std::to_string(worker) + "-";
  device_options.numa_node = my_node;
  device_options.replicate_weights = numa_replicate_ && my_node >= 0;
  device_options.null_latency_micros = options_.null_latency_micros;
  std::unique_ptr<WorkerDevice> device = make_device_(device_options);
  auto& tasks = *task_queues_[static_cast<size_t>(worker)];
  // Completions go to the inbox of the shard that owns this worker.
  auto& inbox = shards_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(worker)])]
                    ->inbox;
  double idle_accum = pipe.idle_micros.load(std::memory_order_relaxed);
  const bool chaos_on = fault_injector_.worker_chaos_enabled();
  if (health_on_) {
    pipe.alive.store(1);
  }

  std::optional<WorkerTask> wt;
  const auto heartbeat = [&] {
    pipe.hb_epoch.fetch_add(1, std::memory_order_relaxed);
    pipe.hb_stamp.store(NowMicros(), std::memory_order_relaxed);
  };
  // Ends the busy span and reports the popped task to the owning shard.
  const auto complete = [&](CompletionMsg msg) {
    if (health_on_) {
      {
        std::lock_guard<std::mutex> lock(pipe.mu);
        pipe.inflight_valid = false;
      }
      heartbeat();
      pipe.busy_task_seq.store(-1, std::memory_order_release);
    }
    msg.task = std::move(wt->task);
    inbox.Push(std::move(msg));
  };
  // The whole task produced nothing: poison every entry's output for the
  // rest of this stream and report every entry failed. `victim` is the
  // entry blamed for an injected fault, -1 for cascades (the blame was
  // assigned when the original fault fired) and execution failures.
  const auto fail_all = [&](int victim) {
    const int batch = wt->task.BatchSize();
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      for (const TaskEntry& entry : wt->task.entries) {
        pipe.failed_produced.insert(PoisonKey(entry.request, entry.node));
      }
    }
    trace_.TaskFailed(wt->task.id, wt->task.type, worker, batch);
    CompletionMsg msg;
    msg.failed_entries.resize(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      msg.failed_entries[static_cast<size_t>(i)] = i;
    }
    msg.victim_entry = victim;
    complete(std::move(msg));
  };

  for (;;) {
    wt = tasks.TryPop();
    if (!wt) {
      // The gap the watermark protocol exists to shrink: the stream is
      // empty, so this worker's cores idle until the manager round-trips
      // a refill.
      const double idle_begin = NowMicros();
      wt = tasks.Pop();
      const double idle_end = NowMicros();
      idle_accum += idle_end - idle_begin;
      pipe.idle_micros.store(idle_accum, std::memory_order_relaxed);
      trace_.WorkerIdle(idle_begin, idle_end, worker);
      if (!wt) {
        break;  // closed and drained
      }
    }
    const int64_t seq = pipe.next_seq++;
    const uint64_t task_id = wt->task.id;
    const CellTypeId type = wt->task.type;
    const int batch = wt->task.BatchSize();

    if (health_on_) {
      // Heartbeat + busy marker: record what this thread is about to be
      // inside so the watchdog can price the expected span. The in-flight
      // copy (under mu) is the manager's handle for reclaiming the task if
      // this thread dies inside it.
      const double now = NowMicros();
      pipe.hb_epoch.fetch_add(1, std::memory_order_relaxed);
      pipe.hb_stamp.store(now, std::memory_order_relaxed);
      pipe.busy_since.store(now, std::memory_order_relaxed);
      pipe.busy_type.store(static_cast<int>(type), std::memory_order_relaxed);
      pipe.busy_batch.store(batch, std::memory_order_relaxed);
      pipe.busy_task_seq.store(seq, std::memory_order_release);
      std::lock_guard<std::mutex> lock(pipe.mu);
      pipe.inflight_task = wt->task;
      pipe.inflight_valid = true;
    }
    double slowdown = 1.0;
    if (chaos_on) {
      // Deterministic worker chaos (watchdog drills), keyed on
      // (worker, stream seq): hang before executing, die before
      // executing, or stretch the exec span below.
      const WorkerChaos chaos = fault_injector_.ChaosAt(worker, seq);
      slowdown = chaos.slowdown_factor;
      if (chaos.hang_micros > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(chaos.hang_micros));
      }
      if (chaos.exit_thread) {
        // Crash drill: exit without executing, scattering or reporting.
        // inflight_valid stays set — the watchdog-initiated quarantine
        // reclaims the task from the pipeline's copy. The device is torn
        // down like a normal exit (releasing any weight replicas) so the
        // respawned thread can build a new one.
        device.reset();
        if (health_on_) {
          pipe.alive.store(2);
        }
        return;
      }
    }

    if (fault_injector_.ShouldFail(task_id)) {
      tasks_failed_.fetch_add(1);
      fail_all(fault_injector_.VictimEntry(task_id, batch));
      continue;
    }

    // Cascade mask: an entry consuming an output a failed task never
    // produced gathers zeros, skips the scatter and is reported failed.
    // The same pass updates the entries' own keys: a poisoned entry
    // propagates the cascade, and a clean one drops a stale key left by
    // an earlier failed attempt of its node (the revert machinery may
    // have re-scheduled it here).
    std::vector<uint8_t> poisoned;
    int num_poisoned = 0;
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      if (!pipe.failed_produced.empty()) {
        poisoned.assign(static_cast<size_t>(batch), 0);
        for (int i = 0; i < batch; ++i) {
          const TaskEntry& entry = wt->task.entries[static_cast<size_t>(i)];
          const CellNode& node = wt->states[static_cast<size_t>(i)]->graph.node(entry.node);
          for (const ValueRef& ref : node.inputs) {
            if (!ref.is_external() &&
                pipe.failed_produced.count(PoisonKey(entry.request, ref.node)) != 0) {
              poisoned[static_cast<size_t>(i)] = 1;
              num_poisoned++;
              break;
            }
          }
        }
        for (int i = 0; i < batch; ++i) {
          const TaskEntry& entry = wt->task.entries[static_cast<size_t>(i)];
          const uint64_t key = PoisonKey(entry.request, entry.node);
          if (poisoned[static_cast<size_t>(i)] != 0) {
            pipe.failed_produced.insert(key);
          } else {
            pipe.failed_produced.erase(key);
          }
        }
      }
    }
    if (num_poisoned == batch) {
      fail_all(-1);  // a pure cascade: nothing to gather or execute
      continue;
    }
    if (num_poisoned == 0) {
      poisoned.clear();
    }
    const std::vector<uint8_t>* mask = poisoned.empty() ? nullptr : &poisoned;

    trace_.GatherBegin(task_id, type, worker, batch);
    GatheredBatch gathered = device->Gather(wt->task, wt->states, mask);
    trace_.GatherEnd(task_id, type, worker, batch);
    if (health_on_) {
      heartbeat();
    }

    if (my_node >= 0) {
      // Estimated cross-node gather traffic: rows whose producing request
      // last scattered on another node, priced at the task's mean row
      // bytes. An upper bound (the row may have been node-local anyway
      // after a steal) and purely diagnostic.
      int64_t gathered_bytes = 0;
      for (const Tensor& t : gathered.inputs) {
        gathered_bytes += t.NumElements() * static_cast<int64_t>(DTypeSize(t.dtype()));
      }
      int64_t remote_rows = 0;
      for (int i = 0; i < batch; ++i) {
        if (mask != nullptr && poisoned[static_cast<size_t>(i)] != 0) {
          continue;
        }
        const int producer_node = wt->states[static_cast<size_t>(i)]->last_scatter_node.load(
            std::memory_order_relaxed);
        if (producer_node >= 0 && producer_node != my_node) {
          ++remote_rows;
        }
      }
      if (remote_rows > 0) {
        metrics_.node(my_node).remote_gather_bytes.fetch_add(
            gathered_bytes * remote_rows / batch, std::memory_order_relaxed);
      }
    }

    const double exec_start = NowMicros();
    // First-execution stamping happens here (not on the manager): any
    // worker may win the CAS, and readers only look after the completion
    // has round-tripped through the inbox. Poisoned entries did not begin
    // executing — they stay eligible for deadline shedding.
    for (int i = 0; i < batch; ++i) {
      if (mask == nullptr || poisoned[static_cast<size_t>(i)] == 0) {
        wt->states[static_cast<size_t>(i)]->MarkExecStarted(exec_start);
      }
    }
    trace_.ExecBegin(exec_start, task_id, type, worker, batch);
    // Execute also recycles the device's arenas. A task that produced
    // nothing is treated exactly like an injected fault with no victim.
    std::optional<std::vector<Tensor>> outputs =
        device->Execute(wt->task, std::move(gathered));
    if (slowdown > 1.0) {
      // Degraded-worker drill: stretch the measured span before the
      // post-execute heartbeat so both the watchdog's slow classifier and
      // the cost model's calibration observe the inflated span.
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
          (slowdown - 1.0) * (NowMicros() - exec_start)));
    }

    if (!outputs) {
      tasks_failed_.fetch_add(1);
      fail_all(-1);
      continue;
    }

    device->Scatter(wt->task, wt->states, *outputs, mask);
    if (my_node >= 0) {
      // Remember where these requests' outputs now live; gathers use it to
      // estimate cross-node traffic (diagnostic only).
      for (int i = 0; i < batch; ++i) {
        if (mask == nullptr || poisoned[static_cast<size_t>(i)] == 0) {
          wt->states[static_cast<size_t>(i)]->last_scatter_node.store(
              my_node, std::memory_order_relaxed);
        }
      }
    }
    tasks_executed_.fetch_add(1);
    if (online_cost_model_ != nullptr && options_.batch_policy.calibrate) {
      // Calibration sample: measured execute+scatter span for this
      // (type, batch). The EWMA smooths scheduling noise; every
      // refit_interval samples the model re-fits the type's cost curve.
      online_cost_model_->Observe(type, batch, NowMicros() - exec_start);
    }
    CompletionMsg msg;
    for (int i = 0; mask != nullptr && i < batch; ++i) {
      if (poisoned[static_cast<size_t>(i)] != 0) {
        msg.failed_entries.push_back(i);
      }
    }
    complete(std::move(msg));
    // Recorded after the completion hand-off, so this thread's gather,
    // exec and idle spans cover its whole loop.
    trace_.ExecEnd(task_id, type, worker, batch);
  }

  device.reset();
  if (health_on_) {
    pipe.alive.store(2);
  }
}

}  // namespace batchmaker
