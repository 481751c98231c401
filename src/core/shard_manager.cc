#include "src/core/shard_manager.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

ShardManager::ShardManager(const CellRegistry* registry, const EngineOptions& options,
                           int id, int num_shards, int worker_begin, int worker_end,
                           const CostModel* cost_model, std::vector<int> shard_node,
                           ShardTransport* transport, MetricsCollector* metrics,
                           TraceRecorder* trace)
    : id_(id),
      num_shards_(num_shards),
      worker_begin_(worker_begin),
      worker_end_(worker_end),
      pipeline_depth_(options.pipeline_depth),
      queue_timeout_micros_(options.admission.queue_timeout_micros),
      slack_on_(options.batch_policy.slack_batching &&
                options.batch_policy.max_delay_micros > 0.0),
      shard_node_(std::move(shard_node)),
      transport_(transport),
      metrics_(metrics),
      trace_(trace),
      outstanding_(static_cast<size_t>(worker_end - worker_begin), 0),
      quarantined_(static_cast<size_t>(worker_end - worker_begin), 0),
      steal_next_(id) {
  BM_CHECK_LT(worker_begin, worker_end);
  BM_CHECK_GT(pipeline_depth_, 0);
  processor_ = std::make_unique<RequestProcessor>(
      registry,
      /*on_subgraph_ready=*/[this](Subgraph* sg) { scheduler_->EnqueueSubgraph(sg); },
      /*on_request_complete=*/[this](RequestState* state) { Finish(state); });
  scheduler_ = std::make_unique<Scheduler>(registry, processor_.get(), options.scheduler);
  scheduler_->set_trace(trace_);
  if (slack_on_) {
    scheduler_->set_cost_model(cost_model);
    scheduler_->set_batch_policy(options.batch_policy);
  }
  // Task ids partition across shards (seed id, stride num_shards) so trace
  // and fault-injection ids stay globally unique without coordination;
  // with one shard this is the identity numbering.
  scheduler_->SetTaskIdSpace(static_cast<uint64_t>(id),
                             static_cast<uint64_t>(num_shards));
}

void ShardManager::Handle(ShardMsg msg, double now_micros) {
  now_ = now_micros;
  if (auto* m = std::get_if<StealRequestMsg>(&msg)) {
    OnStealRequest(m->thief);
    return;
  }
  if (std::holds_alternative<StealDenyMsg>(msg)) {
    OnStealDeny();
    return;
  }
  steal_retry_ = true;
  if (auto* m = std::get_if<ArrivalMsg>(&msg)) {
    OnArrival(std::move(*m));
  } else if (auto* m = std::get_if<CompletionMsg>(&msg)) {
    OnCompletion(std::move(*m));
  } else if (auto* m = std::get_if<CancelMsg>(&msg)) {
    OnCancel(m->id);
  } else if (auto* m = std::get_if<MigrateMsg>(&msg)) {
    OnMigrate(std::move(*m));
  } else if (auto* m = std::get_if<QuarantineMsg>(&msg)) {
    OnQuarantine(std::move(*m));
  } else {
    OnReadmit(std::get<ReadmitMsg>(msg).worker);
  }
}

void ShardManager::Step(double now_micros) {
  now_ = now_micros;
  ExpireDeadlines();
  TryRefillWorkers();
  TryDonate();
  MaybeInitiateSteal();
}

void ShardManager::Wake(double now_micros) {
  now_ = now_micros;
  ExpireDeadlines();
  if (slack_on_) {
    TryRefillWorkers();
    // A hint that passed without a launch (its nodes pinned to a busy
    // worker, or every stream at the watermark) must not wake the engine
    // again at once; the deferral itself stays, so the next feasible
    // Schedule launches.
    scheduler_->ExpireLaunchHints(now_micros);
  }
}

double ShardManager::NextWakeMicros() {
  // Purge dead heap tops first: a completed/cancelled/executing request's
  // deadline must never shape the wake-up (a stale top would wake the
  // engine for nothing, or mask a later live deadline).
  while (!deadlines_.empty()) {
    RequestState* state = processor_->FindRequest(deadlines_.top().second);
    if (state != nullptr && !state->ExecStarted() && state->status == RequestStatus::kOk) {
      break;
    }
    deadlines_.pop();
  }
  double wake = deadlines_.empty() ? std::numeric_limits<double>::infinity()
                                   : deadlines_.top().first;
  if (slack_on_) {
    // The deferred-batch launch hint is only actionable when some owned
    // worker has stream room.
    for (size_t local = 0; local < outstanding_.size(); ++local) {
      if (HasRoom(local)) {
        wake = std::min(wake, scheduler_->NextLaunchMicros());
        break;
      }
    }
  }
  return wake;
}

void ShardManager::OnArrival(ArrivalMsg msg) {
  terminating_ += msg.submission.terminate ? 1 : 0;
  submissions_.emplace(msg.id, std::move(msg.submission));
  metrics_->shard(id_).arrivals.fetch_add(1, std::memory_order_relaxed);
  RequestState* state = processor_->AddRequest(msg.id, std::move(msg.graph),
                                               msg.arrival_micros, std::move(msg.externals));
  state->priority = msg.priority;
  // The per-request SLA deadline and the engine queue timeout stay
  // distinct: shedding fires on whichever is tighter, the slack policy
  // reasons about the SLA deadline only.
  state->deadline_micros = msg.deadline_micros;
  state->queue_timeout_micros = queue_timeout_micros_;
  PushDeadline(*state);
  // Every request starts never-scheduled, hence stealable; the candidacy
  // goes stale the moment the first task forms.
  stealable_.insert({state->priority, state->id});
}

void ShardManager::PushDeadline(const RequestState& state) {
  const double shed = state.ShedDeadlineMicros();
  if (shed > 0.0) {
    deadlines_.emplace(state.arrival_micros + shed, state.id);
  }
}

void ShardManager::OnCancel(RequestId id) {
  RequestState* state = processor_->FindRequest(id);
  if (state == nullptr) {
    // Not owned here — but it may be owned *nowhere* right now (in flight
    // between a steal victim and its thief). Tombstone so an adoption that
    // lost the race to this broadcast still honours the cancel.
    if (num_shards_ > 1) {
      pending_cancels_.insert(id);
    }
    return;
  }
  if (!state->MarkTerminal(RequestStatus::kCancelled)) {
    return;  // already finished (kOk won the race) or terminal
  }
  scheduler_->CancelRequest(id);
}

void ShardManager::ExpireDeadlines() {
  while (!deadlines_.empty() && deadlines_.top().first <= now_) {
    const RequestId id = deadlines_.top().second;
    deadlines_.pop();
    RequestState* state = processor_->FindRequest(id);
    if (state == nullptr || state->ExecStarted() || state->status != RequestStatus::kOk) {
      continue;  // finished, migrated away, running, or already terminal
    }
    // A request sheds only if it has not begun executing when its deadline
    // fires. (On the Server the ExecStarted read races benignly with a
    // worker's first-execution CAS; losing it just means the request
    // completes normally.)
    state->MarkTerminal(RequestStatus::kShed);
    scheduler_->CancelRequest(id);
  }
}

void ShardManager::OnCompletion(CompletionMsg msg) {
  const int worker = msg.task.worker;
  BM_CHECK_GE(worker, worker_begin_);
  BM_CHECK_LT(worker, worker_end_);
  const size_t local = static_cast<size_t>(worker - worker_begin_);
  outstanding_[local]--;
  BM_CHECK_GE(outstanding_[local], 0);
  if (msg.failed_entries.empty()) {
    scheduler_->OnTaskCompleted(msg.task);
  } else {
    scheduler_->OnTaskFailed(msg.task, msg.failed_entries, msg.victim_entry);
  }
  // Early-termination predicates (a request already finalized has no
  // submission left). Failed entries are skipped: their nodes did not
  // complete.
  if (terminating_ > 0) {
    std::vector<bool> failed(msg.task.entries.size(), false);
    for (int i : msg.failed_entries) {
      failed[static_cast<size_t>(i)] = true;
    }
    for (size_t i = 0; i < msg.task.entries.size(); ++i) {
      if (failed[i]) {
        continue;
      }
      const TaskEntry& entry = msg.task.entries[i];
      const auto it = submissions_.find(entry.request);
      if (it == submissions_.end() || !it->second.terminate) {
        continue;
      }
      if (it->second.terminate(*processor_->FindRequest(entry.request), entry.node)) {
        it->second.terminate = nullptr;
        --terminating_;
        scheduler_->CancelRequest(entry.request);
      }
    }
  }
  // Targeted refill: this completion may have dropped the worker below the
  // watermark and unlocked successors it can run; hand them over now,
  // before any other queued message is handled.
  if (outstanding_[local] < pipeline_depth_) {
    TrySchedule(worker);
  }
}

void ShardManager::Finish(RequestState* state) {
  const RequestStatus status = state->status;
  switch (status) {
    case RequestStatus::kOk: {
      RequestRecord record;
      record.id = state->id;
      record.arrival_micros = state->arrival_micros;
      record.exec_start_micros = state->ExecStartMicros();
      record.completion_micros = now_;
      record.num_nodes = state->graph.NumNodes();
      metrics_->Record(record);
      metrics_->shard(id_).completions.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case RequestStatus::kShed:
      metrics_->RecordDropped();
      break;
    case RequestStatus::kFailed:
      metrics_->RecordFailed();
      break;
    case RequestStatus::kCancelled:
      break;  // caller-initiated; neither a completion nor a drop
    case RequestStatus::kRejected:
      break;  // unreachable: rejected requests are never admitted
  }
  stealable_.erase({state->priority, state->id});

  // Collect wanted outputs (kOk only — other terminal states carry none)
  // and fire the callback exactly once.
  const auto it = submissions_.find(state->id);
  BM_CHECK(it != submissions_.end());
  Submission submission = std::move(it->second);
  submissions_.erase(it);
  terminating_ -= submission.terminate ? 1 : 0;
  std::vector<Tensor> outputs;
  if (status == RequestStatus::kOk) {
    outputs.reserve(submission.outputs_wanted.size());
    for (const ValueRef& ref : submission.outputs_wanted) {
      if (state->nodes[static_cast<size_t>(ref.node)].stage == NodeStage::kCancelled) {
        continue;  // early termination cancelled this producer
      }
      const auto& node_out = state->node_outputs[static_cast<size_t>(ref.node)];
      BM_CHECK_LT(static_cast<size_t>(ref.output), node_out.size());
      outputs.push_back(node_out[static_cast<size_t>(ref.output)]);
    }
  }
  if (submission.on_response) {
    submission.on_response(state->id, status, std::move(outputs));
  }
  if (status == RequestStatus::kShed) {
    trace_->RequestDrop(state->id);
  } else {
    trace_->RequestComplete(state->id, state->ExecStartMicros());
  }
  transport_->RequestFinished(*state);
}

RequestState* ShardManager::PopStealable() {
  while (!stealable_.empty()) {
    const auto it = stealable_.begin();
    const RequestId id = it->second;
    stealable_.erase(it);
    RequestState* state = processor_->FindRequest(id);
    if (state == nullptr || state->ever_scheduled || state->status != RequestStatus::kOk) {
      continue;  // stale candidate: gone, already pinned work, or terminal
    }
    return state;
  }
  return nullptr;
}

void ShardManager::MigrateOut(RequestState* state, int thief) {
  const RequestId id = state->id;
  MigrateMsg msg;
  msg.from_shard = id_;
  // Unhook the queued subgraphs from the scheduler first (the processor
  // checks the request really was never scheduled), then move the state
  // and its submission bookkeeping wholesale. The stale deadline-heap
  // entry stays behind; FindRequest discards it lazily.
  scheduler_->DetachRequest(state);
  msg.state = processor_->ReleaseRequest(id);
  const auto it = submissions_.find(id);
  BM_CHECK(it != submissions_.end());
  msg.submission = std::move(it->second);
  submissions_.erase(it);
  terminating_ -= msg.submission.terminate ? 1 : 0;
  metrics_->shard(id_).steals_out.fetch_add(1, std::memory_order_relaxed);
  transport_->Send(thief, std::move(msg));
}

void ShardManager::OnStealRequest(int thief) {
  RequestState* state = PopStealable();
  if (state != nullptr) {
    MigrateOut(state, thief);
    return;
  }
  // Nothing to give: remember the hungry peer for later donation and let
  // it try the next victim.
  if (std::find(hungry_.begin(), hungry_.end(), thief) == hungry_.end()) {
    hungry_.push_back(thief);
  }
  transport_->Send(thief, StealDenyMsg{id_});
}

void ShardManager::OnMigrate(MigrateMsg msg) {
  // A migration ends any pending steal round, requested or donated. A
  // straggler denial from the old round is ignored (or at worst ends the
  // next round early — harmless, the round restarts while the imbalance
  // persists).
  steal_pending_ = false;
  steal_denials_ = 0;
  const int from_shard = msg.from_shard;
  RequestState* state = processor_->AdoptRequest(std::move(msg.state));
  const RequestId id = state->id;
  terminating_ += msg.submission.terminate ? 1 : 0;
  submissions_.emplace(id, std::move(msg.submission));
  // Re-key on this shard's heap (the entry left behind on the victim's
  // heap is pruned lazily there).
  PushDeadline(*state);
  stealable_.insert({state->priority, id});
  metrics_->shard(id_).steals_in.fetch_add(1, std::memory_order_relaxed);
  if (!shard_node_.empty()) {
    // With node-aligned shard boundaries, a steal between shards on
    // different nodes is the only deliberately cross-node traffic; count it
    // separately so the locality bench can report it.
    const int to_node = shard_node_[static_cast<size_t>(id_)];
    const int from_node = shard_node_[static_cast<size_t>(from_shard)];
    if (to_node >= 0 && from_node >= 0 && to_node != from_node) {
      metrics_->node(to_node).cross_node_steals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  trace_->ShardSteal(id, from_shard, id_);
  const auto tomb_it = pending_cancels_.find(id);
  if (tomb_it != pending_cancels_.end()) {
    // A cancel broadcast beat the migration here; honour it now.
    pending_cancels_.erase(tomb_it);
    if (state->MarkTerminal(RequestStatus::kCancelled)) {
      scheduler_->CancelRequest(id);
    }
  }
}

void ShardManager::OnStealDeny() {
  if (!steal_pending_) {
    return;  // stale denial from a round a migration already ended
  }
  if (++steal_denials_ >= num_shards_ - 1) {
    steal_pending_ = false;  // every peer denied; round over
    return;
  }
  do {
    steal_next_ = (steal_next_ + 1) % num_shards_;
  } while (steal_next_ == id_);
  transport_->Send(steal_next_, StealRequestMsg{id_});
}

void ShardManager::MaybeInitiateSteal() {
  if (num_shards_ <= 1 || steal_pending_ || !steal_retry_) {
    return;
  }
  // Steal only on genuine starvation: an owned worker with an empty stream
  // that the refill pass just failed to feed (no compatible ready work).
  // A quarantined worker is empty by design, not starved.
  bool starved = false;
  for (int w = worker_begin_; w < worker_end_ && !starved; ++w) {
    const size_t local = static_cast<size_t>(w - worker_begin_);
    starved = quarantined_[local] == 0 && outstanding_[local] == 0 &&
              !scheduler_->HasCompatibleReadyWork(w);
  }
  if (!starved) {
    return;
  }
  steal_pending_ = true;
  steal_retry_ = false;
  steal_denials_ = 0;
  steal_next_ = (id_ + 1) % num_shards_;
  transport_->Send(steal_next_, StealRequestMsg{id_});
}

void ShardManager::TryDonate() {
  if (hungry_.empty()) {
    return;
  }
  // Donate only surplus: every owned worker already at the watermark means
  // local scheduling cannot absorb a stealable request any time soon.
  // Quarantined workers don't count — their streams are deliberately empty
  // and must not make the shard look under-committed forever.
  for (size_t local = 0; local < outstanding_.size(); ++local) {
    if (HasRoom(local)) {
      return;
    }
  }
  while (!hungry_.empty()) {
    RequestState* state = PopStealable();
    if (state == nullptr) {
      return;  // no surplus left; keep the hungry list for the next burst
    }
    const int thief = hungry_.front();
    hungry_.erase(hungry_.begin());
    MigrateOut(state, thief);
  }
}

void ShardManager::TrySchedule(int worker) {
  const size_t local = static_cast<size_t>(worker - worker_begin_);
  if (quarantined_[local] != 0) {
    return;  // the stream stops refilling until the watchdog re-admits
  }
  std::vector<BatchedTask> tasks = scheduler_->Schedule(worker, now_);
  if (tasks.empty()) {
    return;
  }
  outstanding_[local] += static_cast<int>(tasks.size());
  transport_->PushTasks(worker, std::move(tasks));
}

void ShardManager::TryRefillWorkers() {
  if (!scheduler_->HasReadyWork()) {
    return;
  }
  // Watermark refill: top up every owned worker whose stream has fewer
  // than pipeline_depth tasks in flight. The scan start rotates so that
  // under light load (work for one task, everyone below watermark) the
  // first fresh subgraph does not always pin to the shard's first worker.
  const int n = worker_end_ - worker_begin_;
  const int start = refill_start_;
  refill_start_ = (refill_start_ + 1) % n;
  for (int i = 0; i < n; ++i) {
    const int local = (start + i) % n;
    if (HasRoom(static_cast<size_t>(local))) {
      TrySchedule(worker_begin_ + local);
      if (!scheduler_->HasReadyWork()) {
        break;
      }
    }
  }
}

void ShardManager::OnQuarantine(QuarantineMsg msg) {
  const int worker = msg.worker;
  BM_CHECK_GE(worker, worker_begin_);
  BM_CHECK_LT(worker, worker_end_);
  quarantined_[static_cast<size_t>(worker - worker_begin_)] = 1;
  for (const BatchedTask& task : msg.reclaimed) {
    Requeue(worker, task);
  }
  metrics_->worker(worker).quarantines.fetch_add(1, std::memory_order_relaxed);
  trace_->WorkerQuarantine(worker, msg.dead, static_cast<int>(msg.reclaimed.size()));
  // A shard with every worker quarantined cannot run the reclaimed work;
  // hand never-scheduled requests to healthy peers rather than sitting on
  // them for the whole recovery.
  if (std::find(quarantined_.begin(), quarantined_.end(), 0) == quarantined_.end()) {
    DonateAllStealable();
  }
}

void ShardManager::OnReadmit(int worker) {
  BM_CHECK_GE(worker, worker_begin_);
  BM_CHECK_LT(worker, worker_end_);
  uint8_t& quarantined = quarantined_[static_cast<size_t>(worker - worker_begin_)];
  if (quarantined == 0) {
    return;  // never quarantined here: stale or duplicate message
  }
  quarantined = 0;
  metrics_->worker(worker).readmissions.fetch_add(1, std::memory_order_relaxed);
  // Refill only below the watermark, like every other refill: a live
  // worker can still owe completions (on the Server the watchdog's probe
  // may reach the inbox ahead of them), and their targeted refills cover
  // the rest.
  const size_t local = static_cast<size_t>(worker - worker_begin_);
  if (HasRoom(local)) {
    TrySchedule(worker);
  }
}

void ShardManager::Requeue(int worker, const BatchedTask& task) {
  const size_t local = static_cast<size_t>(worker - worker_begin_);
  outstanding_[local]--;
  BM_CHECK_GE(outstanding_[local], 0);
  metrics_->worker(worker).requeued_tasks.fetch_add(1, std::memory_order_relaxed);
  scheduler_->RequeueTask(task);
}

void ShardManager::DonateAllStealable() {
  if (num_shards_ <= 1) {
    return;
  }
  // Same-node peers first, so the forced migration respects numa_policy's
  // node boundaries whenever a same-node shard exists.
  const auto same_node = [this](int s) {
    return !shard_node_.empty() &&
           shard_node_[static_cast<size_t>(s)] == shard_node_[static_cast<size_t>(id_)];
  };
  std::vector<int> peers;
  for (int pass = 0; pass < 2; ++pass) {
    for (int s = 0; s < num_shards_; ++s) {
      if (s != id_ && same_node(s) == (pass == 0)) {
        peers.push_back(s);
      }
    }
  }
  for (size_t next = 0;; ++next) {
    RequestState* state = PopStealable();
    if (state == nullptr) {
      return;
    }
    MigrateOut(state, peers[next % peers.size()]);
  }
}

}  // namespace batchmaker
