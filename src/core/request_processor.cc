#include "src/core/request_processor.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

namespace {

// Union-find over cell-graph nodes, used to group same-type connected
// components into subgraphs.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      parent_[static_cast<size_t>(i)] = i;
    }
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] = parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Union(int a, int b) {
    const int ra = Find(a);
    const int rb = Find(b);
    if (ra != rb) {
      parent_[static_cast<size_t>(rb)] = ra;
    }
  }

 private:
  std::vector<int> parent_;
};

// Distinct predecessor node ids of `id` in `graph`.
std::set<int> DistinctPreds(const CellGraph& graph, int id) {
  std::set<int> preds;
  for (const ValueRef& ref : graph.node(id).inputs) {
    if (!ref.is_external()) {
      preds.insert(ref.node);
    }
  }
  return preds;
}

// Returns, per tentative component, whether it belongs to a strongly
// connected component of size > 1 in the condensed component graph.
// Iterative Tarjan (requests can have thousands of nodes; no recursion).
std::vector<bool> ComponentsInCycles(const CellGraph& graph, const std::vector<int>& comp_of,
                                     int num_comps) {
  // Condensed distinct edges pred_comp -> comp.
  std::vector<std::set<int>> edges(static_cast<size_t>(num_comps));
  for (int id = 0; id < graph.NumNodes(); ++id) {
    const int comp = comp_of[static_cast<size_t>(id)];
    for (int pred : DistinctPreds(graph, id)) {
      const int pred_comp = comp_of[static_cast<size_t>(pred)];
      if (pred_comp != comp) {
        edges[static_cast<size_t>(pred_comp)].insert(comp);
      }
    }
  }

  std::vector<int> index(static_cast<size_t>(num_comps), -1);
  std::vector<int> lowlink(static_cast<size_t>(num_comps), 0);
  std::vector<bool> on_stack(static_cast<size_t>(num_comps), false);
  std::vector<int> stack;
  std::vector<bool> in_cycle(static_cast<size_t>(num_comps), false);
  int next_index = 0;

  struct Frame {
    int comp;
    std::set<int>::const_iterator next;
  };
  for (int start = 0; start < num_comps; ++start) {
    if (index[static_cast<size_t>(start)] != -1) {
      continue;
    }
    std::vector<Frame> frames;
    index[static_cast<size_t>(start)] = lowlink[static_cast<size_t>(start)] = next_index++;
    stack.push_back(start);
    on_stack[static_cast<size_t>(start)] = true;
    frames.push_back(Frame{start, edges[static_cast<size_t>(start)].begin()});
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const size_t u = static_cast<size_t>(frame.comp);
      if (frame.next != edges[u].end()) {
        const int w = *frame.next++;
        const size_t wi = static_cast<size_t>(w);
        if (index[wi] == -1) {
          index[wi] = lowlink[wi] = next_index++;
          stack.push_back(w);
          on_stack[wi] = true;
          frames.push_back(Frame{w, edges[wi].begin()});
        } else if (on_stack[wi]) {
          lowlink[u] = std::min(lowlink[u], index[wi]);
        }
        continue;
      }
      // u finished: close its SCC if it is a root.
      if (lowlink[u] == index[u]) {
        std::vector<int> scc;
        for (;;) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[static_cast<size_t>(w)] = false;
          scc.push_back(w);
          if (w == frame.comp) {
            break;
          }
        }
        if (scc.size() > 1) {
          for (int w : scc) {
            in_cycle[static_cast<size_t>(w)] = true;
          }
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        const size_t parent = static_cast<size_t>(frames.back().comp);
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  return in_cycle;
}

}  // namespace

RequestProcessor::RequestProcessor(const CellRegistry* registry,
                                   SubgraphReadyFn on_subgraph_ready,
                                   RequestCompleteFn on_request_complete)
    : registry_(registry),
      on_subgraph_ready_(std::move(on_subgraph_ready)),
      on_request_complete_(std::move(on_request_complete)) {
  BM_CHECK(registry != nullptr);
  BM_CHECK(on_subgraph_ready_ != nullptr);
  BM_CHECK(on_request_complete_ != nullptr);
}

RequestState* RequestProcessor::AddRequest(RequestId id, CellGraph graph,
                                           double arrival_micros,
                                           std::vector<Tensor> externals) {
  BM_CHECK_GT(graph.NumNodes(), 0) << "empty cell graph";
  BM_CHECK_EQ(requests_.count(id), 0u) << "duplicate request id " << id;
  if (!externals.empty()) {
    graph.Validate(*registry_, static_cast<int>(externals.size()));
  }

  auto state = std::make_unique<RequestState>();
  RequestState* s = state.get();
  s->id = id;
  s->graph = std::move(graph);
  s->arrival_micros = arrival_micros;
  s->externals = std::move(externals);
  s->remaining_nodes = s->graph.NumNodes();
  s->nodes.resize(static_cast<size_t>(s->graph.NumNodes()));
  if (!s->externals.empty()) {
    s->node_outputs.resize(static_cast<size_t>(s->graph.NumNodes()));
  }
  requests_.emplace(id, std::move(state));

  Partition(s);

  // Release subgraphs whose external dependencies are already satisfied.
  for (const auto& sg : s->subgraphs) {
    if (sg->unmet_external == 0) {
      ReleaseSubgraph(sg.get());
    }
  }
  return s;
}

void RequestProcessor::Partition(RequestState* state) {
  const CellGraph& graph = state->graph;
  const int n = graph.NumNodes();

  // Connected components over same-type edges.
  UnionFind uf(n);
  for (int id = 0; id < n; ++id) {
    for (int pred : DistinctPreds(graph, id)) {
      if (graph.node(pred).type == graph.node(id).type) {
        uf.Union(pred, id);
      }
    }
  }

  // Tentative component index per node.
  std::unordered_map<int, int> root_to_comp;
  std::vector<int> comp_of(static_cast<size_t>(n));
  int num_comps = 0;
  for (int id = 0; id < n; ++id) {
    const int root = uf.Find(id);
    auto [it, inserted] = root_to_comp.emplace(root, num_comps);
    if (inserted) {
      ++num_comps;
    }
    comp_of[static_cast<size_t>(id)] = it->second;
  }

  // A subgraph only releases once ALL its external dependencies complete
  // (paper §4.3), which requires the condensed component graph to be
  // acyclic. Models whose types alternate back and forth along a path
  // (e.g. decoder -> attention chain -> decoder) can create strongly
  // connected components there; splitting every member of such an SCC
  // into singleton subgraphs restores acyclicity (singletons mirror the
  // node DAG) at the cost of coarse-grained pinning for those nodes. The
  // paper's models never hit this path.
  const std::vector<bool> in_cycle = ComponentsInCycles(graph, comp_of, num_comps);
  std::unordered_map<int, int> key_to_sg;  // component (or ~node) -> subgraph id
  for (int id = 0; id < n; ++id) {
    const int comp = comp_of[static_cast<size_t>(id)];
    // Singleton-split nodes key by their own id (bit-flipped to avoid
    // clashing with component indices).
    const int key = in_cycle[static_cast<size_t>(comp)] ? ~id : comp;
    auto [it, inserted] = key_to_sg.emplace(key, static_cast<int>(state->subgraphs.size()));
    if (inserted) {
      auto sg = std::make_unique<Subgraph>();
      sg->owner = state;
      sg->id = it->second;
      sg->type = graph.node(id).type;
      state->subgraphs.push_back(std::move(sg));
    }
    Subgraph* sg = state->subgraphs[static_cast<size_t>(it->second)].get();
    sg->nodes.push_back(id);
    sg->unscheduled++;
    state->nodes[static_cast<size_t>(id)].subgraph = it->second;
  }

  // Dependency counters.
  for (int id = 0; id < n; ++id) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    Subgraph* sg = state->subgraphs[static_cast<size_t>(node.subgraph)].get();
    for (int pred : DistinctPreds(graph, id)) {
      if (state->nodes[static_cast<size_t>(pred)].subgraph == node.subgraph) {
        node.unmet_internal++;
      } else {
        node.unmet_external++;
        sg->unmet_external++;
      }
    }
  }
}

void RequestProcessor::ReleaseSubgraph(Subgraph* sg) {
  BM_CHECK(!sg->released);
  BM_CHECK_EQ(sg->unmet_external, 0);
  sg->released = true;
  RequestState* state = sg->owner;
  for (int id : sg->nodes) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    if (node.unmet_internal == 0 && node.stage == NodeStage::kPending) {
      node.stage = NodeStage::kReady;
      sg->ready.push_back(id);
    }
  }
  BM_CHECK(!sg->ready.empty()) << "released subgraph must have at least one ready node";
  on_subgraph_ready_(sg);
}

int RequestProcessor::MarkScheduled(Subgraph* sg, const std::vector<int>& nodes) {
  BM_CHECK(sg != nullptr);
  RequestState* state = sg->owner;
  // The request now has (or is about to have) in-flight work pinned to a
  // worker; it is no longer eligible for cross-shard stealing.
  state->ever_scheduled = true;
  int newly_ready = 0;

  for (int id : nodes) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    BM_CHECK_EQ(node.subgraph, sg->id) << "task entry from a foreign subgraph";
    BM_CHECK(node.stage == NodeStage::kReady);
    node.stage = NodeStage::kScheduled;
    sg->unscheduled--;
    // Remove from the ready list.
    for (size_t i = 0; i < sg->ready.size(); ++i) {
      if (sg->ready[i] == id) {
        sg->ready[i] = sg->ready.back();
        sg->ready.pop_back();
        break;
      }
    }
  }
  BM_CHECK_GE(sg->unscheduled, 0);

  // Unlock same-subgraph successors: their data will be produced earlier in
  // the same worker stream (pinning guarantees ordering).
  for (int id : nodes) {
    for (int succ : state->graph.Successors(id)) {
      NodeState& succ_node = state->nodes[static_cast<size_t>(succ)];
      if (succ_node.subgraph != sg->id) {
        continue;  // cross-subgraph edges are satisfied by completion
      }
      BM_CHECK_GT(succ_node.unmet_internal, 0);
      if (--succ_node.unmet_internal == 0 && succ_node.unmet_external == 0 &&
          succ_node.stage != NodeStage::kCancelled) {
        // (A cancelled successor: early termination cut the chain while a
        // reverted predecessor was in flight, and that predecessor runs again.)
        BM_CHECK(succ_node.stage == NodeStage::kPending);
        succ_node.stage = NodeStage::kReady;
        sg->ready.push_back(succ);
        ++newly_ready;
      }
    }
  }
  return newly_ready;
}

void RequestProcessor::CompleteEntry(const TaskEntry& entry,
                                     std::vector<RequestState*>* to_finalize) {
  RequestState* state = FindRequest(entry.request);
  BM_CHECK(state != nullptr) << "completion for unknown request " << entry.request;
  NodeState& node = state->nodes[static_cast<size_t>(entry.node)];
  BM_CHECK(node.stage == NodeStage::kScheduled);
  node.stage = NodeStage::kCompleted;
  state->remaining_nodes--;
  BM_CHECK_GE(state->remaining_nodes, 0);

  // Propagate cross-subgraph dependencies. Cancelled consumers no longer
  // care about their inputs.
  for (int succ : state->graph.Successors(entry.node)) {
    NodeState& succ_node = state->nodes[static_cast<size_t>(succ)];
    if (succ_node.subgraph == node.subgraph || succ_node.stage == NodeStage::kCancelled) {
      continue;
    }
    Subgraph* succ_sg = state->subgraphs[static_cast<size_t>(succ_node.subgraph)].get();
    BM_CHECK_GT(succ_node.unmet_external, 0);
    succ_node.unmet_external--;
    BM_CHECK_GT(succ_sg->unmet_external, 0);
    succ_sg->unmet_external--;
    if (succ_sg->unmet_external == 0 && !succ_sg->cancelled) {
      ReleaseSubgraph(succ_sg);
    }
  }

  if (state->remaining_nodes == 0) {
    to_finalize->push_back(state);
  }
}

void RequestProcessor::MarkCompleted(const BatchedTask& task) {
  std::vector<RequestState*> to_finalize;
  for (const TaskEntry& entry : task.entries) {
    CompleteEntry(entry, &to_finalize);
  }
  for (RequestState* state : to_finalize) {
    on_request_complete_(state);
    requests_.erase(state->id);
  }
}

void RequestProcessor::MarkCompletedEntries(const BatchedTask& task,
                                            const std::vector<int>& indices) {
  std::vector<RequestState*> to_finalize;  // intentionally unused: caller finalizes
  for (int i : indices) {
    BM_CHECK_GE(i, 0);
    BM_CHECK_LT(static_cast<size_t>(i), task.entries.size());
    CompleteEntry(task.entries[static_cast<size_t>(i)], &to_finalize);
  }
}

void RequestProcessor::CancelScheduledNode(RequestState* state, int node_id) {
  BM_CHECK(state != nullptr);
  NodeState& node = state->nodes[static_cast<size_t>(node_id)];
  BM_CHECK(node.stage == NodeStage::kScheduled);
  node.stage = NodeStage::kCancelled;
  state->remaining_nodes--;
  state->cancelled_nodes++;
  BM_CHECK_GE(state->remaining_nodes, 0);
}

void RequestProcessor::RevertScheduledNode(Subgraph* sg, int node_id, bool charge_retry) {
  BM_CHECK(sg != nullptr);
  BM_CHECK(sg->parked) << "revert requires the subgraph to be parked";
  RequestState* state = sg->owner;
  NodeState& node = state->nodes[static_cast<size_t>(node_id)];
  BM_CHECK(node.stage == NodeStage::kScheduled);
  node.stage = NodeStage::kPending;
  if (charge_retry) {
    node.retries++;
  }
  sg->unscheduled++;

  // Return the schedule-time credit to same-subgraph successors. A kReady
  // successor is demoted back to kPending; a kScheduled one sits doomed in
  // a later in-flight task of the same stream (it consumes this node's
  // never-produced output) and is reverted or cancelled when that task's
  // poisoned execution fails. kCancelled successors (early termination)
  // never read the counter again.
  for (int succ : state->graph.Successors(node_id)) {
    NodeState& succ_node = state->nodes[static_cast<size_t>(succ)];
    if (succ_node.subgraph != sg->id) {
      continue;  // external consumers wait on completion, which never happened
    }
    if (succ_node.stage == NodeStage::kReady) {
      succ_node.stage = NodeStage::kPending;
      for (size_t i = 0; i < sg->ready.size(); ++i) {
        if (sg->ready[i] == succ) {
          sg->ready[i] = sg->ready.back();
          sg->ready.pop_back();
          break;
        }
      }
    }
    succ_node.unmet_internal++;
  }
}

int RequestProcessor::CancelSubgraphRemainder(Subgraph* sg) {
  BM_CHECK(sg != nullptr);
  RequestState* state = sg->owner;
  int cancelled = 0;
  for (int id : sg->nodes) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    if (node.stage == NodeStage::kPending || node.stage == NodeStage::kReady) {
      node.stage = NodeStage::kCancelled;
      ++cancelled;
    }
  }
  if (cancelled > 0) {
    sg->unscheduled -= cancelled;
    BM_CHECK_GE(sg->unscheduled, 0);
    sg->ready.clear();
    state->remaining_nodes -= cancelled;
    state->cancelled_nodes += cancelled;
    BM_CHECK_GE(state->remaining_nodes, 0);
  }
  if (sg->unscheduled == 0 && !sg->released) {
    // Nothing of this subgraph will ever run; it must not release later.
    sg->cancelled = true;
  }
  if (cancelled > 0 && sg->released) {
    sg->cancelled = (sg->unscheduled == 0);
  }
  return cancelled;
}

bool RequestProcessor::FinalizeIfDone(RequestState* state) {
  BM_CHECK(state != nullptr);
  if (state->remaining_nodes > 0) {
    return false;
  }
  on_request_complete_(state);
  requests_.erase(state->id);
  return true;
}

std::unique_ptr<RequestState> RequestProcessor::ReleaseRequest(RequestId id) {
  const auto it = requests_.find(id);
  BM_CHECK(it != requests_.end()) << "release of unknown request " << id;
  std::unique_ptr<RequestState> state = std::move(it->second);
  requests_.erase(it);
  BM_CHECK(!state->ever_scheduled) << "cannot migrate a request with scheduled work";
  for (const auto& sg : state->subgraphs) {
    BM_CHECK_EQ(sg->inflight_tasks, 0);
    BM_CHECK(!sg->parked);
    BM_CHECK(!sg->in_queue) << "detach queued subgraphs from the scheduler first";
    BM_CHECK_EQ(sg->pinned_worker, -1);
  }
  return state;
}

RequestState* RequestProcessor::AdoptRequest(std::unique_ptr<RequestState> state) {
  BM_CHECK(state != nullptr);
  RequestState* s = state.get();
  BM_CHECK_EQ(requests_.count(s->id), 0u) << "duplicate request id " << s->id;
  requests_.emplace(s->id, std::move(state));
  // Re-announce released subgraphs to the adopting shard's scheduler. The
  // ready sets survived the migration untouched (nothing was scheduled),
  // so this mirrors AddRequest's release pass exactly.
  for (const auto& sg : s->subgraphs) {
    if (sg->released && !sg->cancelled) {
      on_subgraph_ready_(sg.get());
    }
  }
  return s;
}

RequestState* RequestProcessor::FindRequest(RequestId id) {
  const auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : it->second.get();
}

}  // namespace batchmaker
