#include "src/core/server.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/device/device_registry.h"
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
// not written, and one staging arena, reset after every task, suffices.
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
  // Device staging buffer (backend_->CreateArena()); the CPU backend's
  // wraps a TensorArena, compute-free backends hand out a no-op arena.
  std::unique_ptr<DeviceArena> staging;
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

// One manager shard (DESIGN.md "Sharded manager"): a full single-manager
// slice of the server — its own RequestProcessor + Scheduler (so subgraph
// queues, pinning and failure parking are shard-private), its own inbox,
// deadline heap and submission bookkeeping, and a contiguous range
// [worker_begin, worker_end) of the workers. The only cross-shard traffic
// is the stealing protocol (StealRequestMsg / MigrateMsg / StealDenyMsg)
// and the global drain counter; everything else a shard touches is owned
// by its manager thread alone.
struct Server::Shard {
  int id = 0;
  int worker_begin = 0;
  int worker_end = 0;  // exclusive

  std::unique_ptr<RequestProcessor> processor;
  std::unique_ptr<Scheduler> scheduler;
  BlockingQueue<ManagerMsg> inbox;

  // Submission bookkeeping, keyed by request id; entries migrate with the
  // request when it is stolen.
  std::unordered_map<RequestId, std::vector<ValueRef>> outputs_wanted;
  std::unordered_map<RequestId, ResponseFn> callbacks;
  std::unordered_map<RequestId, TerminationFn> terminations;

  // In-flight task count per owned worker, indexed worker - worker_begin.
  std::vector<int> outstanding;
  int refill_start = 0;  // rotating scan start (local worker offset)
  // Workers the watchdog quarantined (indexed worker - worker_begin):
  // excluded from every refill / steal / donate scan until re-admitted.
  // Touched only by this shard's manager; always all-zero with the
  // watchdog off.
  std::vector<uint8_t> quarantined;

  // Min-heap of (absolute shed deadline, request). Entries for requests
  // that finished or migrated away are discarded lazily when they surface.
  std::priority_queue<std::pair<double, RequestId>,
                      std::vector<std::pair<double, RequestId>>,
                      std::greater<std::pair<double, RequestId>>>
      deadlines;

  // ---- Stealing state (all touched only by this shard's manager) ----
  // Steal candidates ordered by (priority, id): lowest priority first,
  // oldest first among equals. Entries go stale when a request is
  // scheduled, terminal, or gone; PopStealable discards them lazily (the
  // completion path also erases eagerly).
  std::set<std::pair<int, RequestId>> stealable;
  // One outstanding steal round at a time: a StealRequestMsg is in flight
  // (or bouncing through denials) until a migration lands or every peer
  // denied.
  bool steal_pending = false;
  int steal_next = 0;     // peer the current round last asked
  int steal_denials = 0;  // denials received this round
  // Peers whose steal request this shard denied; when this shard's workers
  // saturate with stealable surplus left over, it donates to them unasked.
  std::vector<int> hungry;
  // Cancels that arrived for requests this shard does not (yet) own. A
  // cancel broadcast can reach the thief before the migration it races
  // with; the tombstone cancels the request the moment it is adopted.
  // Pruned whenever the server drains (no in-flight request ⇒ no in-flight
  // migration ⇒ every tombstone is stale).
  std::unordered_set<RequestId> pending_cancels;

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

  // Resolve the execution device (DESIGN.md "Device backend API"). The
  // Server drives any registered backend through the DeviceBackend seam;
  // empty selects the real-compute CPU backend, the pre-refactor
  // behaviour.
  DeviceConfig device_config;
  device_config.registry = registry;
  device_config.precision = options_.precision;
  device_config.null_latency_micros = options_.null_latency_micros;
  const std::string backend_name =
      options_.backend.empty() ? "cpu" : options_.backend;
  backend_ = DeviceRegistry::Instance().Create(backend_name, device_config);
  BM_CHECK(backend_ != nullptr)
      << "unknown or unavailable device backend '" << backend_name << "'";
  caps_ = backend_->caps();
  BM_CHECK(!caps_.virtual_time)
      << "backend '" << backend_name
      << "' models virtual time; drive it through SimEngine, not Server";
  BM_CHECK(caps_.supported_precisions[static_cast<int>(options_.precision)])
      << "backend '" << backend_name << "' does not support the requested "
      << "GEMM precision";
  if (options_.numa_policy != NumaPolicy::kNone && !caps_.supports_numa_pinning) {
    BM_LOG(Warning) << "backend '" << backend_name << "' does not support "
                    << "NUMA pinning; degrading numa_policy to none";
    options_.numa_policy = NumaPolicy::kNone;
  }
  if (options_.health.health_watchdog && !caps_.supports_watchdog) {
    BM_LOG(Warning) << "backend '" << backend_name << "' execution makes no "
                    << "heartbeat-visible progress; disabling health watchdog";
    options_.health.health_watchdog = false;
  }
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
    auto pipe = std::make_unique<WorkerPipeline>();
    pipe->staging = backend_->CreateArena();
    pipelines_.push_back(std::move(pipe));
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

  for (int s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>();
    Shard* sh = shard.get();
    sh->id = s;
    sh->worker_begin = shard_bounds[static_cast<size_t>(s)];
    sh->worker_end = shard_bounds[static_cast<size_t>(s) + 1];
    BM_CHECK_LT(sh->worker_begin, sh->worker_end);
    // A shard's workers share one node whenever shards don't outnumber
    // nodes (the boundary snapping above); its manager pins there too.
    shard_node_.push_back(
        numa_on_ ? worker_node_[static_cast<size_t>(sh->worker_begin)] : -1);
    for (int w = sh->worker_begin; w < sh->worker_end; ++w) {
      shard_of_worker_[static_cast<size_t>(w)] = s;
    }
    sh->outstanding.assign(static_cast<size_t>(sh->worker_end - sh->worker_begin), 0);
    sh->quarantined.assign(static_cast<size_t>(sh->worker_end - sh->worker_begin), 0);
    sh->steal_next = s;

    sh->processor = std::make_unique<RequestProcessor>(
        registry,
        /*on_subgraph_ready=*/
        [sh](Subgraph* sg) { sh->scheduler->EnqueueSubgraph(sg); },
        /*on_request_complete=*/
        [this, sh](RequestState* state) {
          const RequestStatus status = state->status;
          switch (status) {
            case RequestStatus::kOk: {
              RequestRecord record;
              record.id = state->id;
              record.arrival_micros = state->arrival_micros;
              record.exec_start_micros = state->ExecStartMicros();
              record.completion_micros = NowMicros();
              record.num_nodes = state->graph.NumNodes();
              metrics_.Record(record);
              metrics_.shard(sh->id).completions.fetch_add(1,
                                                           std::memory_order_relaxed);
              break;
            }
            case RequestStatus::kShed:
              metrics_.RecordDropped();
              break;
            case RequestStatus::kFailed:
              metrics_.RecordFailed();
              break;
            case RequestStatus::kCancelled:
              break;  // caller-initiated; neither a completion nor a drop
            case RequestStatus::kRejected:
              break;  // unreachable: rejected requests are never admitted
          }

          // The request is terminal: drop its steal candidacy eagerly
          // (PopStealable would discard it lazily anyway).
          sh->stealable.erase({state->priority, state->id});

          // Collect wanted outputs (kOk only — other terminal states carry
          // none) and fire the callback exactly once.
          const auto wanted_it = sh->outputs_wanted.find(state->id);
          BM_CHECK(wanted_it != sh->outputs_wanted.end());
          std::vector<Tensor> outputs;
          if (status == RequestStatus::kOk) {
            outputs.reserve(wanted_it->second.size());
            for (const ValueRef& ref : wanted_it->second) {
              if (state->nodes[static_cast<size_t>(ref.node)].stage ==
                  NodeStage::kCancelled) {
                continue;  // early termination cancelled this producer
              }
              const auto& node_out = state->node_outputs[static_cast<size_t>(ref.node)];
              BM_CHECK_LT(static_cast<size_t>(ref.output), node_out.size());
              outputs.push_back(node_out[static_cast<size_t>(ref.output)]);
            }
          }
          sh->outputs_wanted.erase(wanted_it);
          sh->terminations.erase(state->id);

          // Sweep stale poison keys of nodes that were cancelled after a
          // failure (their keys sit in the failing worker's failed_produced
          // set and the request will never unpark anything to purge them).
          // Gated on an actual failure having happened, so the common path
          // never touches the pipeline locks from the manager.
          if (state->cancelled_nodes > 0 &&
              (fault_injector_.enabled() ||
               tasks_failed_.load(std::memory_order_relaxed) > 0)) {
            std::vector<uint64_t> keys;
            for (size_t n = 0; n < state->nodes.size(); ++n) {
              if (state->nodes[n].stage == NodeStage::kCancelled) {
                keys.push_back(PoisonKey(state->id, static_cast<int>(n)));
              }
            }
            if (!keys.empty()) {
              for (auto& pipe : pipelines_) {
                std::lock_guard<std::mutex> lock(pipe->mu);
                for (uint64_t key : keys) {
                  pipe->failed_produced.erase(key);
                }
              }
            }
          }

          const auto cb_it = sh->callbacks.find(state->id);
          BM_CHECK(cb_it != sh->callbacks.end());
          ResponseFn callback = std::move(cb_it->second);
          sh->callbacks.erase(cb_it);
          if (callback) {
            callback(state->id, status, std::move(outputs));
          }
          if (status == RequestStatus::kShed) {
            trace_.RequestDrop(state->id);
          } else {
            trace_.RequestComplete(state->id, state->ExecStartMicros());
          }
          if (unfinished_requests_.fetch_sub(1) == 1) {
            // Last in-flight request: wake a Shutdown() waiting for the
            // drain. Taking the mutex orders this notify after the waiter's
            // predicate check, so the wakeup cannot be missed.
            std::lock_guard<std::mutex> lock(lifecycle_mu_);
            drained_cv_.notify_all();
          }
        });
    sh->scheduler =
        std::make_unique<Scheduler>(registry, sh->processor.get(), options_.scheduler);
    sh->scheduler->set_trace(&trace_);
    if (slack_on_) {
      sh->scheduler->set_cost_model(online_cost_model_.get());
      sh->scheduler->set_batch_policy(options_.batch_policy);
    }
    // Task ids partition across shards (seed s, stride S) so trace and
    // fault-injection ids stay globally unique without coordination.
    sh->scheduler->SetTaskIdSpace(static_cast<uint64_t>(s),
                                  static_cast<uint64_t>(num_shards_));
    // When a failure-parked subgraph drains and is about to re-enqueue,
    // purge its nodes' poison keys from the worker that ran the failed task
    // (the pinned — hence last — worker): with zero tasks in flight nothing
    // can still consume them, and a healthy re-execution scheduled back to
    // that worker must not be mis-poisoned by the stale keys.
    sh->scheduler->set_unpark_hook([this](Subgraph* sg) {
      if (sg->last_worker < 0) {
        return;
      }
      WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(sg->last_worker)];
      std::lock_guard<std::mutex> lock(pipe.mu);
      for (int node : sg->nodes) {
        pipe.failed_produced.erase(PoisonKey(sg->owner->id, node));
      }
    });
    shards_.push_back(std::move(shard));
  }
}

Server::~Server() { Shutdown(); }

void Server::Start() {
  BM_CHECK(!started_.exchange(true)) << "Start() called twice";
  start_time_ = std::chrono::steady_clock::now();
  // Low-precision serving: quantize + pack every registered cell's weights
  // up front so the first batch doesn't pay the (one-time) quantization
  // cost, and record which kernel the dispatcher resolved the precision to.
  // Only real-compute backends read the packs.
  if (caps_.real_compute && options_.precision != Precision::kF32) {
    for (CellTypeId t = 0; t < registry_->NumTypes(); ++t) {
      registry_->executor(t).EnsurePacked(options_.precision);
    }
  }
  trace_.GemmKernelInfo(static_cast<int>(options_.precision));
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    sh->thread = std::thread([this, sh] {
      SetCurrentThreadName("manager/" + std::to_string(sh->id));
      if (numa_on_ && shard_node_[static_cast<size_t>(sh->id)] >= 0) {
        // Keep the manager on its workers' node: refill messages and the
        // request map stay node-local. Best-effort, like every pin.
        PinCurrentThreadToCpus(
            topology_.nodes[static_cast<size_t>(shard_node_[static_cast<size_t>(sh->id)])]
                .cpus);
      }
      TraceRecorder::SetThreadShard(sh->id);
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
    msg.outputs_wanted = std::move(outputs_wanted);
    msg.on_response = std::move(on_response);
    msg.terminate = std::move(terminate);
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
          ->inbox.Push(ManagerMsg{std::move(msg)});
      return id;
    }
    on_response = std::move(msg.on_response);  // reclaim for the rejection
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
    shard->inbox.Push(ManagerMsg{CancelMsg{id}});
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
    ShardCounters& counters = metrics_.shard(shard->id);
    counters.delayed_batches.fetch_add(shard->scheduler->TotalDelayedLaunches(),
                                       std::memory_order_relaxed);
    counters.batch_delay_micros.fetch_add(
        static_cast<int64_t>(shard->scheduler->TotalBatchDelayMicros()),
        std::memory_order_relaxed);
  }
}

size_t Server::PendingDeadlines() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->deadlines.size();
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
  for (;;) {
    std::optional<ManagerMsg> msg;
    // Purge dead heap tops first: a completed/cancelled/executing request's
    // deadline must never shape the wake-up wait (a stale top would wake
    // the manager for nothing, or mask a later live deadline behind an
    // already-passed one).
    PruneDeadlines(shard);
    double wake = std::numeric_limits<double>::infinity();
    if (!shard.deadlines.empty()) {
      wake = shard.deadlines.top().first;
    }
    if (slack_on_) {
      // Deferred-batch launch hint — only actionable when some owned
      // worker has stream room; a hint that passes unactioned is expired
      // below so the loop cannot spin on it.
      for (size_t i = 0; i < shard.outstanding.size(); ++i) {
        if (shard.outstanding[i] < options_.pipeline_depth) {
          wake = std::min(wake, shard.scheduler->NextLaunchMicros());
          break;
        }
      }
    }
    if (wake == std::numeric_limits<double>::infinity()) {
      msg = shard.inbox.Pop();
      if (!msg) {
        break;  // closed and drained
      }
    } else {
      // A shedding deadline or deferred launch is pending: sleep at most
      // until it fires, so a queued request is shed — and a deferred batch
      // launched — on time even with no messages in flight.
      const double now = NowMicros();
      const double wait = wake - now;
      if (wait <= 0.0) {
        ExpireDeadlines(shard, now);
        if (slack_on_) {
          TryRefillWorkers(shard);
          shard.scheduler->ExpireLaunchHints(NowMicros());
        }
        continue;
      }
      msg = shard.inbox.PopFor(std::chrono::duration<double, std::micro>(wait));
      if (!msg) {
        if (shard.inbox.Closed()) {
          break;  // nullopt with the queue closed implies drained
        }
        ExpireDeadlines(shard, NowMicros());
        if (slack_on_) {
          TryRefillWorkers(shard);
          shard.scheduler->ExpireLaunchHints(NowMicros());
        }
        continue;
      }
    }
    HandleMsg(shard, std::move(*msg));
    // Admit everything that queued up behind this message before the
    // refill pass: near-simultaneous requests batch together, and a burst
    // of completions is absorbed in one scan instead of one per message.
    while (auto more = shard.inbox.TryPop()) {
      HandleMsg(shard, std::move(*more));
    }
    ExpireDeadlines(shard, NowMicros());
    TryRefillWorkers(shard);
    TryDonate(shard);
    MaybeInitiateSteal(shard);
    if (!shard.pending_cancels.empty() &&
        unfinished_requests_.load(std::memory_order_relaxed) == 0) {
      // Fully drained ⇒ no migration in flight ⇒ every tombstone is stale.
      shard.pending_cancels.clear();
    }
  }
}

void Server::HandleMsg(Shard& shard, ManagerMsg msg) {
  if (std::holds_alternative<ArrivalMsg>(msg)) {
    HandleArrival(shard, std::move(std::get<ArrivalMsg>(msg)));
  } else if (std::holds_alternative<CompletionMsg>(msg)) {
    HandleCompletion(shard, std::move(std::get<CompletionMsg>(msg)));
  } else if (std::holds_alternative<CancelMsg>(msg)) {
    HandleCancel(shard, std::get<CancelMsg>(msg));
  } else if (std::holds_alternative<StealRequestMsg>(msg)) {
    HandleStealRequest(shard, std::get<StealRequestMsg>(msg));
  } else if (std::holds_alternative<MigrateMsg>(msg)) {
    HandleMigrate(shard, std::move(std::get<MigrateMsg>(msg)));
  } else if (std::holds_alternative<QuarantineMsg>(msg)) {
    HandleQuarantine(shard, std::get<QuarantineMsg>(msg));
  } else if (std::holds_alternative<ReadmitMsg>(msg)) {
    HandleReadmit(shard, std::get<ReadmitMsg>(msg));
  } else {
    HandleStealDeny(shard, std::get<StealDenyMsg>(msg));
  }
}

void Server::HandleArrival(Shard& shard, ArrivalMsg msg) {
  shard.outputs_wanted.emplace(msg.id, std::move(msg.outputs_wanted));
  shard.callbacks.emplace(msg.id, std::move(msg.on_response));
  if (msg.terminate) {
    shard.terminations.emplace(msg.id, std::move(msg.terminate));
  }
  metrics_.shard(shard.id).arrivals.fetch_add(1, std::memory_order_relaxed);
  RequestState* state = shard.processor->AddRequest(
      msg.id, std::move(msg.graph), msg.arrival_micros, std::move(msg.externals));
  state->priority = msg.priority;
  state->deadline_micros = msg.deadline_micros;
  state->queue_timeout_micros = admission_.queue_timeout_micros;
  const double shed = state->ShedDeadlineMicros();
  if (shed > 0.0) {
    shard.deadlines.emplace(msg.arrival_micros + shed, msg.id);
  }
  // Every request starts never-scheduled, hence stealable; the candidacy
  // goes stale the moment the first task forms.
  shard.stealable.insert({state->priority, state->id});
}

void Server::HandleCancel(Shard& shard, CancelMsg msg) {
  RequestState* state = shard.processor->FindRequest(msg.id);
  if (state == nullptr) {
    // Not owned here — but it may be owned *nowhere* right now (in flight
    // between a steal victim and its thief). Tombstone so an adoption that
    // lost the race to this broadcast still honours the cancel.
    if (num_shards_ > 1) {
      shard.pending_cancels.insert(msg.id);
    }
    return;
  }
  if (!state->MarkTerminal(RequestStatus::kCancelled)) {
    return;  // already finished (kOk won the race) or terminal
  }
  shard.scheduler->CancelRequest(msg.id);
}

void Server::PruneDeadlines(Shard& shard) {
  while (!shard.deadlines.empty()) {
    RequestState* state = shard.processor->FindRequest(shard.deadlines.top().second);
    if (state == nullptr || state->ExecStarted() ||
        state->status != RequestStatus::kOk) {
      // Finished, migrated away, already executing, or terminal: this
      // entry can never shed anything — drop it before it shapes a wait.
      shard.deadlines.pop();
      continue;
    }
    break;
  }
}

void Server::ExpireDeadlines(Shard& shard, double now_micros) {
  while (!shard.deadlines.empty() && shard.deadlines.top().first <= now_micros) {
    const RequestId id = shard.deadlines.top().second;
    shard.deadlines.pop();
    RequestState* state = shard.processor->FindRequest(id);
    if (state == nullptr || state->ExecStarted() ||
        state->status != RequestStatus::kOk) {
      continue;  // finished, migrated away, running, or already terminal
    }
    // Same semantics as the simulator's queue timeout: a request sheds
    // only if it has not begun executing when the deadline fires. (The
    // ExecStarted read races benignly with a worker's first-execution CAS;
    // losing it just means the request completes normally.)
    state->MarkTerminal(RequestStatus::kShed);
    shard.scheduler->CancelRequest(id);
  }
}

void Server::HandleCompletion(Shard& shard, CompletionMsg msg) {
  const int worker = msg.task.worker;
  BM_CHECK_GE(worker, shard.worker_begin);
  BM_CHECK_LT(worker, shard.worker_end);
  const size_t local = static_cast<size_t>(worker - shard.worker_begin);
  shard.outstanding[local]--;
  BM_CHECK_GE(shard.outstanding[local], 0);
  if (msg.failed_entries.empty()) {
    shard.scheduler->OnTaskCompleted(msg.task);
  } else {
    shard.scheduler->OnTaskFailed(msg.task, msg.failed_entries, msg.victim_entry);
  }
  // Early-termination predicates (the request may already be finalized, in
  // which case FindRequest returns null and nothing happens). Skipped
  // entirely when no request registered one — the common case. Failed
  // entries are skipped: their nodes did not complete.
  if (!shard.terminations.empty()) {
    std::vector<bool> failed(msg.task.entries.size(), false);
    for (int i : msg.failed_entries) {
      failed[static_cast<size_t>(i)] = true;
    }
    for (size_t i = 0; i < msg.task.entries.size(); ++i) {
      if (failed[i]) {
        continue;
      }
      const TaskEntry& entry = msg.task.entries[i];
      const auto term_it = shard.terminations.find(entry.request);
      if (term_it == shard.terminations.end()) {
        continue;
      }
      RequestState* state = shard.processor->FindRequest(entry.request);
      if (state == nullptr) {
        continue;
      }
      if (term_it->second(*state, entry.node)) {
        shard.terminations.erase(term_it);
        shard.scheduler->CancelRequest(entry.request);
      }
    }
  }
  // Targeted refill: this completion may have dropped the worker below the
  // watermark and unlocked successors it can run; hand them over now,
  // before the manager touches any other queued message.
  if (shard.outstanding[local] < options_.pipeline_depth) {
    TrySchedule(shard, worker);
  }
}

RequestState* Server::PopStealable(Shard& shard) {
  while (!shard.stealable.empty()) {
    const auto it = shard.stealable.begin();
    const RequestId id = it->second;
    shard.stealable.erase(it);
    RequestState* state = shard.processor->FindRequest(id);
    if (state == nullptr || state->ever_scheduled ||
        state->status != RequestStatus::kOk) {
      continue;  // stale candidate: gone, already pinned work, or terminal
    }
    return state;
  }
  return nullptr;
}

void Server::MigrateOut(Shard& victim, RequestState* state, int thief) {
  const RequestId id = state->id;
  MigrateMsg msg;
  msg.from_shard = victim.id;
  // Unhook the queued subgraphs from the victim's scheduler first (the
  // processor checks the request really was never scheduled), then move
  // the state and its submission bookkeeping wholesale. The stale
  // deadline-heap entry stays behind; FindRequest discards it lazily.
  victim.scheduler->DetachRequest(state);
  msg.state = victim.processor->ReleaseRequest(id);
  const auto wanted_it = victim.outputs_wanted.find(id);
  BM_CHECK(wanted_it != victim.outputs_wanted.end());
  msg.outputs_wanted = std::move(wanted_it->second);
  victim.outputs_wanted.erase(wanted_it);
  const auto cb_it = victim.callbacks.find(id);
  BM_CHECK(cb_it != victim.callbacks.end());
  msg.on_response = std::move(cb_it->second);
  victim.callbacks.erase(cb_it);
  const auto term_it = victim.terminations.find(id);
  if (term_it != victim.terminations.end()) {
    msg.terminate = std::move(term_it->second);
    victim.terminations.erase(term_it);
  }
  metrics_.shard(victim.id).steals_out.fetch_add(1, std::memory_order_relaxed);
  // Cannot land on a closed inbox: a migrating request is unfinished, so
  // Shutdown's drain wait has not released and no inbox is closed yet.
  shards_[static_cast<size_t>(thief)]->inbox.Push(ManagerMsg{std::move(msg)});
}

void Server::HandleStealRequest(Shard& shard, const StealRequestMsg& msg) {
  RequestState* state = PopStealable(shard);
  if (state != nullptr) {
    MigrateOut(shard, state, msg.thief);
    return;
  }
  // Nothing to give: remember the hungry peer for later donation and let
  // it try the next victim.
  if (std::find(shard.hungry.begin(), shard.hungry.end(), msg.thief) ==
      shard.hungry.end()) {
    shard.hungry.push_back(msg.thief);
  }
  shards_[static_cast<size_t>(msg.thief)]->inbox.Push(
      ManagerMsg{StealDenyMsg{shard.id}});
}

void Server::HandleMigrate(Shard& shard, MigrateMsg msg) {
  // A migration ends any pending steal round, requested or donated. A
  // straggler denial from the old round is ignored (or at worst ends the
  // next round early — harmless, the round restarts while the imbalance
  // persists).
  shard.steal_pending = false;
  shard.steal_denials = 0;
  const int from_shard = msg.from_shard;
  RequestState* state = shard.processor->AdoptRequest(std::move(msg.state));
  const RequestId id = state->id;
  shard.outputs_wanted.emplace(id, std::move(msg.outputs_wanted));
  shard.callbacks.emplace(id, std::move(msg.on_response));
  if (msg.terminate) {
    shard.terminations.emplace(id, std::move(msg.terminate));
  }
  // Re-key on the destination heap (the stale entry left behind on the
  // victim's heap is pruned lazily there).
  const double shed = state->ShedDeadlineMicros();
  if (shed > 0.0) {
    shard.deadlines.emplace(state->arrival_micros + shed, id);
  }
  shard.stealable.insert({state->priority, id});
  steals_.fetch_add(1);
  metrics_.shard(shard.id).steals_in.fetch_add(1, std::memory_order_relaxed);
  if (numa_on_) {
    // With node-aligned shard boundaries, a steal between shards on
    // different nodes is the only deliberately cross-node traffic; count it
    // separately so the locality bench can report it.
    const int to_node = shard_node_[static_cast<size_t>(shard.id)];
    const int from_node = shard_node_[static_cast<size_t>(from_shard)];
    if (to_node >= 0 && from_node >= 0 && to_node != from_node) {
      metrics_.node(to_node).cross_node_steals.fetch_add(1,
                                                         std::memory_order_relaxed);
    }
  }
  trace_.ShardSteal(id, from_shard, shard.id);
  const auto tomb_it = shard.pending_cancels.find(id);
  if (tomb_it != shard.pending_cancels.end()) {
    // A cancel broadcast beat the migration here; honour it now.
    shard.pending_cancels.erase(tomb_it);
    if (state->MarkTerminal(RequestStatus::kCancelled)) {
      shard.scheduler->CancelRequest(id);
    }
  }
}

void Server::HandleStealDeny(Shard& shard, const StealDenyMsg& msg) {
  (void)msg;
  if (!shard.steal_pending) {
    return;  // stale denial from a round a migration already ended
  }
  if (++shard.steal_denials >= num_shards_ - 1) {
    shard.steal_pending = false;  // every peer denied; round over
    return;
  }
  do {
    shard.steal_next = (shard.steal_next + 1) % num_shards_;
  } while (shard.steal_next == shard.id);
  shards_[static_cast<size_t>(shard.steal_next)]->inbox.Push(
      ManagerMsg{StealRequestMsg{shard.id}});
}

void Server::MaybeInitiateSteal(Shard& shard) {
  if (num_shards_ <= 1 || shard.steal_pending) {
    return;
  }
  // Steal only on genuine starvation: an owned worker with an empty stream
  // that the refill pass just failed to feed (no compatible ready work).
  bool starved = false;
  for (int w = shard.worker_begin; w < shard.worker_end && !starved; ++w) {
    const size_t local = static_cast<size_t>(w - shard.worker_begin);
    if (health_on_ && shard.quarantined[local] != 0) {
      continue;  // a quarantined worker is empty by design, not starved
    }
    starved = shard.outstanding[local] == 0 &&
              !shard.scheduler->HasCompatibleReadyWork(w);
  }
  if (!starved) {
    return;
  }
  shard.steal_pending = true;
  shard.steal_denials = 0;
  shard.steal_next = (shard.id + 1) % num_shards_;
  shards_[static_cast<size_t>(shard.steal_next)]->inbox.Push(
      ManagerMsg{StealRequestMsg{shard.id}});
}

void Server::TryDonate(Shard& shard) {
  if (shard.hungry.empty() || num_shards_ <= 1) {
    return;
  }
  // Donate only surplus: every owned worker already at the watermark means
  // local scheduling cannot absorb a stealable request any time soon.
  // Quarantined workers don't count — their streams are deliberately empty
  // and must not make the shard look under-committed forever.
  for (size_t local = 0; local < shard.outstanding.size(); ++local) {
    if (health_on_ && shard.quarantined[local] != 0) {
      continue;
    }
    if (shard.outstanding[local] < options_.pipeline_depth) {
      return;
    }
  }
  while (!shard.hungry.empty()) {
    RequestState* state = PopStealable(shard);
    if (state == nullptr) {
      return;  // no surplus left; keep the hungry list for the next burst
    }
    const int thief = shard.hungry.front();
    shard.hungry.erase(shard.hungry.begin());
    MigrateOut(shard, state, thief);
  }
}

void Server::TrySchedule(Shard& shard, int worker) {
  if (health_on_ &&
      shard.quarantined[static_cast<size_t>(worker - shard.worker_begin)] != 0) {
    return;  // the stream stops refilling until the watchdog re-admits
  }
  // The clock read only feeds the slack policy; skip it (and pass the
  // ignored 0) on the greedy path.
  std::vector<BatchedTask> tasks =
      shard.scheduler->Schedule(worker, slack_on_ ? NowMicros() : 0.0);
  if (tasks.empty()) {
    return;
  }
  trace_.StreamRefill(worker, static_cast<int>(tasks.size()));
  for (BatchedTask& task : tasks) {
    WorkerTask wt;
    wt.states.reserve(task.entries.size());
    for (const TaskEntry& entry : task.entries) {
      RequestState* state = shard.processor->FindRequest(entry.request);
      BM_CHECK(state != nullptr);
      wt.states.push_back(state);
    }
    wt.task = std::move(task);
    shard.outstanding[static_cast<size_t>(worker - shard.worker_begin)]++;
    task_queues_[static_cast<size_t>(worker)]->Push(std::move(wt));
  }
}

void Server::TryRefillWorkers(Shard& shard) {
  if (!shard.scheduler->HasReadyWork()) {
    return;
  }
  // Watermark refill: top up every owned worker whose stream has fewer
  // than pipeline_depth tasks in flight. The scan start rotates so that
  // under light load (work for one task, everyone below watermark) the
  // first fresh subgraph does not always pin to the shard's first worker.
  const int n = shard.worker_end - shard.worker_begin;
  const int start = shard.refill_start;
  shard.refill_start = (shard.refill_start + 1) % n;
  for (int i = 0; i < n; ++i) {
    const int local = (start + i) % n;
    if (health_on_ && shard.quarantined[static_cast<size_t>(local)] != 0) {
      continue;
    }
    if (shard.outstanding[static_cast<size_t>(local)] < options_.pipeline_depth) {
      TrySchedule(shard, shard.worker_begin + local);
      if (!shard.scheduler->HasReadyWork()) {
        break;
      }
    }
  }
}

void Server::HandleQuarantine(Shard& shard, const QuarantineMsg& msg) {
  const int worker = msg.worker;
  BM_CHECK_GE(worker, shard.worker_begin);
  BM_CHECK_LT(worker, shard.worker_end);
  const size_t local = static_cast<size_t>(worker - shard.worker_begin);
  shard.quarantined[local] = 1;
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];

  // Reclaim the undone stream. Every task this worker was handed is
  // either still queued — drained and requeued below — or was popped by
  // its thread. A live thread (healthy, or hung and waking later) runs a
  // popped task to the end and reports it through the inbox like any
  // other, so the completion path resolves it; with the stream no longer
  // refilled, nothing is popped after the drain. A dead thread was joined
  // before this message was sent, and its in-flight task is requeued from
  // the pipeline's copy.
  std::vector<BatchedTask> reclaimed;
  if (msg.dead) {
    std::lock_guard<std::mutex> lock(pipe.mu);
    if (pipe.inflight_valid) {
      // Drop any poison key the task left behind: the requeued nodes run
      // again and must not be mis-poisoned after re-admission.
      for (const TaskEntry& entry : pipe.inflight_task.entries) {
        pipe.failed_produced.erase(PoisonKey(entry.request, entry.node));
      }
      reclaimed.push_back(std::move(pipe.inflight_task));
      pipe.inflight_valid = false;
    }
    // The dead thread left its busy marker set; clear it so the
    // watchdog's idle probe can pass once the replacement runs.
    pipe.busy_task_seq.store(-1, std::memory_order_release);
  }
  std::deque<WorkerTask> queued = task_queues_[static_cast<size_t>(worker)]->DrainAll();
  // Ack strictly after the reclaim and the drain: the watchdog respawns a
  // dead worker's thread and probes for re-admission only once the counter
  // advances, so the replacement starts on an empty stream and a
  // ReadmitMsg can never overtake this quarantine through the inbox.
  pipe.quarantine_acks.fetch_add(1);
  for (const BatchedTask& task : reclaimed) {
    RequeueReclaimed(shard, worker, task);
  }
  for (const WorkerTask& wt : queued) {
    RequeueReclaimed(shard, worker, wt.task);
  }
  metrics_.worker(worker).quarantines.fetch_add(1, std::memory_order_relaxed);
  trace_.WorkerQuarantine(worker, msg.dead,
                          static_cast<int>(reclaimed.size() + queued.size()));

  // A shard with every worker quarantined cannot run the reclaimed work;
  // hand never-scheduled requests to healthy peers rather than sitting on
  // them for the whole recovery.
  bool any_healthy = false;
  for (uint8_t q : shard.quarantined) {
    any_healthy |= q == 0;
  }
  if (!any_healthy) {
    DonateAllStealable(shard);
  }
}

void Server::HandleReadmit(Shard& shard, const ReadmitMsg& msg) {
  const int worker = msg.worker;
  BM_CHECK_GE(worker, shard.worker_begin);
  BM_CHECK_LT(worker, shard.worker_end);
  const size_t local = static_cast<size_t>(worker - shard.worker_begin);
  if (shard.quarantined[local] == 0) {
    return;  // never quarantined here: stale or duplicate message
  }
  shard.quarantined[local] = 0;
  metrics_.worker(worker).readmissions.fetch_add(1, std::memory_order_relaxed);
  TrySchedule(shard, worker);
}

void Server::RequeueReclaimed(Shard& shard, int worker, const BatchedTask& task) {
  const size_t local = static_cast<size_t>(worker - shard.worker_begin);
  shard.outstanding[local]--;
  BM_CHECK_GE(shard.outstanding[local], 0);
  metrics_.worker(worker).requeued_tasks.fetch_add(1, std::memory_order_relaxed);
  shard.scheduler->RequeueTask(task);
}

void Server::DonateAllStealable(Shard& shard) {
  if (num_shards_ <= 1) {
    return;
  }
  // Same-node peers first, so the forced migration respects numa_policy's
  // node boundaries whenever a same-node shard exists.
  std::vector<int> peers;
  const int my_node = numa_on_ ? shard_node_[static_cast<size_t>(shard.id)] : -1;
  for (int s = 0; s < num_shards_; ++s) {
    if (s != shard.id && numa_on_ &&
        shard_node_[static_cast<size_t>(s)] == my_node) {
      peers.push_back(s);
    }
  }
  for (int s = 0; s < num_shards_; ++s) {
    if (s != shard.id &&
        !(numa_on_ && shard_node_[static_cast<size_t>(s)] == my_node)) {
      peers.push_back(s);
    }
  }
  size_t next = 0;
  for (;;) {
    RequestState* state = PopStealable(shard);
    if (state == nullptr) {
      return;
    }
    MigrateOut(shard, state, peers[next % peers.size()]);
    ++next;
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
        ManagerMsg{QuarantineMsg{worker, dead}});
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
      shards_[static_cast<size_t>(owner_shard)]->inbox.Push(
          ManagerMsg{ReadmitMsg{worker}});
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
  // Pin before constructing the pool: spawned pool threads inherit this
  // thread's affinity mask, so one pin covers the whole intra-task pool.
  const int my_node = numa_on_ ? worker_node_[static_cast<size_t>(worker)] : -1;
  if (my_node >= 0) {
    const bool pinned =
        PinCurrentThreadToCpus(topology_.nodes[static_cast<size_t>(my_node)].cpus);
    worker_pinned_[static_cast<size_t>(worker)].store(pinned,
                                                      std::memory_order_relaxed);
    trace_.WorkerPinned(worker, my_node, pinned);
    // First-touch the staging arena from its pinned owner: its steady-state
    // pages land on this node, so gathers write locally.
    pipe.staging->Prefault(size_t{1} << 20);
  }
  // This worker's execution resources — intra-task pool, scratch arena,
  // NUMA weight replicas — live inside its device queue, constructed here
  // on the pinned thread so backend allocations inherit the affinity and
  // first-touch placement. Destroying the queue (normal exit, chaos exit)
  // releases the replicas, so a respawned thread re-acquires them by
  // re-creating it.
  DeviceQueueOptions qopts;
  qopts.worker = worker;
  qopts.threads = options_.threads_per_worker;
  qopts.thread_name_prefix = "pool/" + std::to_string(worker) + "-";
  qopts.numa_node = my_node;
  qopts.replicate_weights = numa_replicate_ && my_node >= 0;
  std::unique_ptr<DeviceQueue> device = backend_->CreateQueue(qopts);
  BM_CHECK(device != nullptr);
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
    inbox.Push(ManagerMsg{std::move(msg)});
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
        // reclaims the task from the pipeline's copy. The queue is torn
        // down like a normal exit (releasing any weight replicas) so the
        // respawned thread can re-create it.
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
    // Compute-free backends stage nothing.
    GatheredBatch gathered;
    if (caps_.requires_gather) {
      backend_->Gather(wt->task, wt->states, &gathered, pipe.staging.get(), mask);
    }
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
    // Submit to the device stream and fence on completion. The CPU backend
    // executes inline (the event returns signalled). A failed event means
    // the whole task produced nothing — treated exactly like an injected
    // fault with no victim.
    DeviceEventPtr done = device->Submit(wt->task, gathered);
    done->Wait();
    const bool exec_threw = done->failed();
    std::vector<Tensor> outputs = done->TakeOutputs();
    if (slowdown > 1.0) {
      // Degraded-worker drill: stretch the measured span before the
      // post-execute heartbeat so both the watchdog's slow classifier and
      // the cost model's calibration observe the inflated span.
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
          (slowdown - 1.0) * (NowMicros() - exec_start)));
    }
    // The gather buffers are dead: drop the arena-backed tensors, then
    // recycle the staging arena for the next task (the backend recycled
    // its own scratch inside Submit).
    gathered.inputs.clear();
    pipe.staging->Reset();

    if (exec_threw) {
      tasks_failed_.fetch_add(1);
      fail_all(-1);
      continue;
    }

    device->Scatter(wt->task, wt->states, outputs, mask);
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
