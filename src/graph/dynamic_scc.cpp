#include "graph/dynamic_scc.hpp"

#include <algorithm>

#include "graph/tarjan.hpp"
#include "support/check.hpp"

namespace wolf {

namespace {

// tarjan_scc successor cursor over a whole adjacency list.
auto whole_graph(const std::vector<std::vector<DynamicScc::Node>>& out) {
  return [&out](std::uint32_t v, std::size_t& cursor) {
    const std::vector<DynamicScc::Node>& succ = out[v];
    return cursor < succ.size() ? static_cast<std::uint32_t>(succ[cursor++])
                                : kNoNode;
  };
}

}  // namespace

int DynamicScc::new_component_label() const {
  members_.emplace_back();
  ord_.push_back(0);
  pending_flag_.push_back(0);
  stamp_.push_back(0);
  return static_cast<int>(members_.size()) - 1;
}

DynamicScc::Node DynamicScc::add_node() {
  const Node v = static_cast<Node>(out_.size());
  out_.emplace_back();
  in_.emplace_back();
  const int label = new_component_label();
  members_[static_cast<std::size_t>(label)].push_back(v);
  // A fresh isolated node has no order constraints; park it after every
  // existing position so no reorder is needed.
  ord_[static_cast<std::size_t>(label)] = next_ord_++;
  ++live_components_;
  comp_.push_back(label);
  local_.push_back(kNoNode);
  dirty_flag_.push_back(0);
  mark_dirty(v);
  return v;
}

void DynamicScc::mark_dirty(Node v) {
  const auto vi = static_cast<std::size_t>(v);
  if (dirty_flag_[vi]) return;
  dirty_flag_[vi] = 1;
  dirty_nodes_.push_back(v);
}

bool DynamicScc::has_dirty() const {
  return !dirty_nodes_.empty() || !pending_split_.empty();
}

std::vector<int> DynamicScc::dirty_components() const {
  flush();
  const std::uint32_t gen = ++stamp_gen_;
  std::vector<int> comps;
  for (Node v : dirty_nodes_) {
    const int c = comp_[static_cast<std::size_t>(v)];
    if (stamp_[static_cast<std::size_t>(c)] == gen) continue;
    stamp_[static_cast<std::size_t>(c)] = gen;
    comps.push_back(c);
  }
  return comps;
}

std::vector<int> DynamicScc::drain_dirty() {
  std::vector<int> comps = dirty_components();
  for (Node v : dirty_nodes_) dirty_flag_[static_cast<std::size_t>(v)] = 0;
  dirty_nodes_.clear();
  retired_.clear();
  return comps;
}

void DynamicScc::bounded_search(int start, std::int64_t lo, std::int64_t hi,
                                bool forward,
                                std::vector<int>& visited) const {
  const std::uint32_t gen = ++stamp_gen_;
  std::vector<int> stack{start};
  stamp_[static_cast<std::size_t>(start)] = gen;
  while (!stack.empty()) {
    const int c = stack.back();
    stack.pop_back();
    visited.push_back(c);
    ++order_visits_;
    for (Node v : members_[static_cast<std::size_t>(c)]) {
      const auto& adj =
          forward ? out_[static_cast<std::size_t>(v)] : in_[static_cast<std::size_t>(v)];
      for (Node w : adj) {
        const int cw = comp_[static_cast<std::size_t>(w)];
        const auto cwi = static_cast<std::size_t>(cw);
        if (cw == c || stamp_[cwi] == gen) continue;
        if (ord_[cwi] < lo || ord_[cwi] > hi) continue;
        stamp_[cwi] = gen;
        stack.push_back(cw);
      }
    }
  }
}

bool DynamicScc::add_edge(Node u, Node v) {
  flush();
  out_[static_cast<std::size_t>(u)].push_back(v);
  in_[static_cast<std::size_t>(v)].push_back(u);
  const int cu = comp_[static_cast<std::size_t>(u)];
  const int cv = comp_[static_cast<std::size_t>(v)];
  if (cu == cv) return false;  // intra-component (incl. self loops): no change
  const std::int64_t ou = ord_[static_cast<std::size_t>(cu)];
  const std::int64_t ov = ord_[static_cast<std::size_t>(cv)];
  // Order already consistent with the new edge — the common case, O(1).
  if (ou < ov) return false;

  // Bounded discovery (Pearce–Kelly): every component on a cv→…→cu path has
  // its order inside [ov, ou] (the order was valid before this edge), so two
  // searches restricted to that range see everything that matters.
  std::vector<int> forward_set, backward_set;
  bounded_search(cv, ov, ou, /*forward=*/true, forward_set);
  bounded_search(cu, ov, ou, /*forward=*/false, backward_set);

  // The affected region's positions, ascending: the only ones reassigned.
  std::vector<std::int64_t> pool;
  pool.reserve(forward_set.size() + backward_set.size());
  for (int c : forward_set) pool.push_back(ord_[static_cast<std::size_t>(c)]);
  for (int c : backward_set) pool.push_back(ord_[static_cast<std::size_t>(c)]);
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  std::sort(forward_set.begin(), forward_set.end());
  std::sort(backward_set.begin(), backward_set.end());
  std::vector<int> on_cycle;
  std::set_intersection(forward_set.begin(), forward_set.end(),
                        backward_set.begin(), backward_set.end(),
                        std::back_inserter(on_cycle));
  // F\C and B\C: with no cycle, C is empty and these are F and B.
  auto drop_cycle = [&](std::vector<int>& set) {
    std::vector<int> rest;
    std::set_difference(set.begin(), set.end(), on_cycle.begin(),
                        on_cycle.end(), std::back_inserter(rest));
    std::sort(rest.begin(), rest.end(), [&](int a, int b) {
      return ord_[static_cast<std::size_t>(a)] <
             ord_[static_cast<std::size_t>(b)];
    });
    set = std::move(rest);
  };
  drop_cycle(forward_set);
  drop_cycle(backward_set);

  // Local repair inside the pool, each group keeping its relative order:
  // B\C takes the lowest positions, F\C the highest, and the merged
  // component (if any) the one after B\C. B\C only moves down and F\C
  // only up, so edges leaving the region stay forward; an edge entering the
  // cycle comes from below the pool and one leaving it goes above, so any
  // pool slot is valid for the merged component; and no edge runs from
  // F\C or C back into B\C, nor from F\C into C — either would put its
  // source on the new cycle (PK Thm. 1, extended to the collapse).
  std::size_t slot = 0;
  for (int c : backward_set) ord_[static_cast<std::size_t>(c)] = pool[slot++];
  if (!on_cycle.empty())
    ord_[static_cast<std::size_t>(merge(on_cycle))] = pool[slot];
  slot = pool.size() - forward_set.size();
  for (int c : forward_set) ord_[static_cast<std::size_t>(c)] = pool[slot++];
  if (on_cycle.empty()) return false;
  mark_dirty(u);  // the merged component's membership changed
  mark_dirty(v);
  return true;
}

int DynamicScc::merge(const std::vector<int>& on_cycle) {
  // The new edge closes a cycle through exactly these components. Collapse
  // them into the one with the most members (smaller-into-larger keeps total
  // relabel work O(n log n) over the graph's lifetime).
  ++merges_;
  int target = on_cycle.front();
  for (int c : on_cycle)
    if (members_[static_cast<std::size_t>(c)].size() >
        members_[static_cast<std::size_t>(target)].size())
      target = c;
  auto& into = members_[static_cast<std::size_t>(target)];
  for (int c : on_cycle) {
    if (c == target) continue;
    for (Node m : members_[static_cast<std::size_t>(c)]) {
      comp_[static_cast<std::size_t>(m)] = target;
      into.push_back(m);
      mark_dirty(m);
    }
    members_[static_cast<std::size_t>(c)].clear();
    members_[static_cast<std::size_t>(c)].shrink_to_fit();
    retired_.push_back(c);
    --live_components_;
  }
  return target;
}

void DynamicScc::remove_edge(Node u, Node v) {
  auto& succ = out_[static_cast<std::size_t>(u)];
  auto it = std::find(succ.begin(), succ.end(), v);
  WOLF_CHECK_MSG(it != succ.end(),
                 "DynamicScc::remove_edge: edge " << u << "->" << v
                                                  << " not present");
  succ.erase(it);
  auto& pred = in_[static_cast<std::size_t>(v)];
  pred.erase(std::find(pred.begin(), pred.end(), u));

  const int cu = comp_[static_cast<std::size_t>(u)];
  if (cu != comp_[static_cast<std::size_t>(v)])
    return;  // cross-component: drops a constraint, never splits or reorders
  // Intra-component: the SCC may have split. Queue a bounded rebuild of this
  // component only; a batch of expiries pays one rebuild per touched
  // component when the next read flushes.
  const auto cui = static_cast<std::size_t>(cu);
  if (!pending_flag_[cui]) {
    pending_flag_[cui] = 1;
    pending_split_.push_back(cu);
  }
}

void DynamicScc::rebuild_component(int comp) const {
  const std::vector<Node>& mem = members_[static_cast<std::size_t>(comp)];
  if (mem.size() < 2) return;  // singletons cannot split
  // Tarjan over the members only, as local ids (their positions in `mem`):
  // edges leaving the component are skipped, so a split costs O(members +
  // their edges), never O(graph).
  for (std::size_t i = 0; i < mem.size(); ++i)
    local_[static_cast<std::size_t>(mem[i])] = static_cast<std::uint32_t>(i);
  std::vector<std::vector<Node>> sccs;
  tarjan_scc(
      static_cast<std::uint32_t>(mem.size()),
      [&](std::uint32_t v, std::size_t& cursor) {
        const std::vector<Node>& succ = out_[static_cast<std::size_t>(mem[v])];
        while (cursor < succ.size()) {
          const std::uint32_t w =
              local_[static_cast<std::size_t>(succ[cursor++])];
          if (w != kNoNode) return w;
        }
        return kNoNode;
      },
      [&](std::span<const std::uint32_t> scc) {
        sccs.emplace_back();
        for (std::uint32_t v : scc) sccs.back().push_back(mem[v]);
      },
      tarjan_);
  for (Node v : mem) local_[static_cast<std::size_t>(v)] = kNoNode;
  if (sccs.size() < 2) return;  // still strongly connected
  ++splits_;
  // Keep the old label for the largest piece (least relabel churn), fresh
  // labels for the rest. Every member is dirty: its component's membership
  // changed, so consumers must re-examine the tuples hanging off it.
  std::size_t largest = 0;
  for (std::size_t i = 1; i < sccs.size(); ++i)
    if (sccs[i].size() > sccs[largest].size()) largest = i;
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    int label = comp;
    if (i != largest) {  // positioned by flush()'s order pass
      label = new_component_label();
      ++live_components_;
    }
    members_[static_cast<std::size_t>(label)] = sccs[i];
    for (Node m : sccs[i]) {
      comp_[static_cast<std::size_t>(m)] = label;
      const_cast<DynamicScc*>(this)->mark_dirty(m);
    }
  }
}

void DynamicScc::flush() const {
  if (pending_split_.empty()) return;
  const std::size_t splits_before = splits_;
  for (int comp : pending_split_) {
    pending_flag_[static_cast<std::size_t>(comp)] = 0;
    rebuild_component(comp);
  }
  pending_split_.clear();
  // A split changed the condensation's shape; one global order pass keeps
  // every position consistent (cheap: the condensation is the lock graph's,
  // orders of magnitude smaller than the tuple store this layer gates).
  if (splits_ != splits_before) recompute_order();
}

void DynamicScc::recompute_order() const {
  ++order_rebuilds_;
  // One whole-graph pass: components come out in reverse topological order
  // of the condensation, so numbering them from the top position down is a
  // topological order.
  std::int64_t position = static_cast<std::int64_t>(live_components_);
  tarjan_scc(
      static_cast<std::uint32_t>(out_.size()), whole_graph(out_),
      [&](std::span<const std::uint32_t> scc) {
        ord_[static_cast<std::size_t>(comp_[scc.front()])] = --position;
      },
      tarjan_);
  WOLF_CHECK_MSG(position == 0, "DynamicScc: labels disagree with Tarjan");
  order_visits_ += live_components_;
  next_ord_ = static_cast<std::int64_t>(live_components_);
}

std::vector<std::vector<DynamicScc::Node>> DynamicScc::tarjan_components()
    const {
  flush();
  std::vector<std::vector<Node>> sccs;
  tarjan_scc(
      static_cast<std::uint32_t>(out_.size()), whole_graph(out_),
      [&](std::span<const std::uint32_t> scc) {
        sccs.emplace_back(scc.begin(), scc.end());
      },
      tarjan_);
  return sccs;
}

int DynamicScc::component_of(Node v) const {
  flush();
  return comp_[static_cast<std::size_t>(v)];
}

bool DynamicScc::same_component(Node u, Node v) const {
  flush();
  return comp_[static_cast<std::size_t>(u)] == comp_[static_cast<std::size_t>(v)];
}

std::size_t DynamicScc::component_count() const {
  flush();
  return live_components_;
}

const std::vector<DynamicScc::Node>& DynamicScc::members(int comp) const {
  flush();
  return members_[static_cast<std::size_t>(comp)];
}

bool DynamicScc::component_alive(int comp) const {
  flush();
  return comp >= 0 && static_cast<std::size_t>(comp) < members_.size() &&
         !members_[static_cast<std::size_t>(comp)].empty();
}

std::size_t DynamicScc::component_capacity() const {
  flush();
  return members_.size();
}

std::int64_t DynamicScc::order_of(int comp) const {
  flush();
  return ord_[static_cast<std::size_t>(comp)];
}

void DynamicScc::clear() {
  out_.clear();
  in_.clear();
  comp_.clear();
  local_.clear();
  members_.clear();
  ord_.clear();
  live_components_ = 0;
  pending_split_.clear();
  pending_flag_.clear();
  dirty_nodes_.clear();
  dirty_flag_.clear();
  retired_.clear();
  stamp_.clear();
  stamp_gen_ = 0;
  next_ord_ = 0;
  merges_ = 0;
  splits_ = 0;
  order_rebuilds_ = 0;
  order_visits_ = 0;
}

}  // namespace wolf
