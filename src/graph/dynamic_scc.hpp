// Incremental SCC maintenance under edge insertions and deletions
// (ROADMAP item 2; DESIGN.md §16).
//
// The governed streaming detector consults the lock-level holds→requests
// digraph every window. Recomputing its SCC decomposition from scratch is
// cheap only while suspicious windows are rare; an adversarial stream that
// mutates an edge every window turns the per-window Tarjan — and, far
// worse, the full tuple-store enumeration it gates — into a quadratic
// recompute loop. This class maintains the decomposition *as the graph
// changes*, so a window's cost is proportional to what the window touched:
//
//   * insertions — Pearce–Kelly topological-order maintenance on the
//     condensation ("A Dynamic Topological Sort Algorithm for Directed
//     Acyclic Graphs", JEA 2006; the bounded-discovery family of Bender et
//     al.): an edge u→v whose components already satisfy ord(u) < ord(v)
//     is O(1). Otherwise two searches bounded to the affected order range
//     [ord(v), ord(u)] find the forward set F and backward set B. With no
//     cycle the region's positions are reassigned B then F; with a cycle
//     the components C = F∩B on v→…→u paths collapse into one condensation
//     node, and the positions go B\C, the merged node, F\C — either way
//     only the region is touched, never the whole order. Components are
//     explicit label sets merged smaller-into-larger, so collapse is
//     amortized O(n log n) relabels over the graph's lifetime — no
//     union-find deletion problem later;
//   * deletions — removing a cross-component edge cannot change any SCC or
//     invalidate the order: O(1). Removing an intra-component edge can
//     split the component; the split is *lazy and bounded*: the component
//     is queued, and the next structural operation re-runs Tarjan over
//     that component's members only (as local ids): O(members + their
//     edges). A batch of expiries costs one rebuild per touched component,
//     and a flush that split anything reads every position off one
//     whole-graph Tarjan pass (splits only follow eviction). All of these,
//     and the oracle, run the cycle engine's routine (graph/tarjan.hpp);
//   * dirty tracking — node-granular marks, folded upward: any membership
//     change (merge, split, node creation) and any caller-reported touch
//     leaves a mark, and drain_dirty() maps the marks to their *current*
//     components. Consumers enumerate only tuples of dirty components.
//
// Every query answers over the fully-applied mutation history (pending
// splits are flushed first), so `component_of` and the Tarjan oracle
// `tarjan_components()` always agree — the differential contract the fuzz
// tests assert after every mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/tarjan.hpp"

namespace wolf {

class DynamicScc {
 public:
  using Node = int;

  // Adds an isolated node (its own singleton component) and returns its id.
  Node add_node();
  std::size_t node_count() const { return out_.size(); }

  // Inserts the directed edge u -> v. The caller guarantees the edge is not
  // currently present (parallel edges are the caller's refcounting job).
  // Returns true when the insertion created a cycle and merged components.
  bool add_edge(Node u, Node v);

  // Removes the directed edge u -> v (which must be present). A deletion
  // inside a component queues that component for a lazy bounded rebuild;
  // cross-component deletions are O(1).
  void remove_edge(Node u, Node v);

  // Component label of `v` — stable until a merge or split relabels it.
  int component_of(Node v) const;
  bool same_component(Node u, Node v) const;
  std::size_t component_count() const;

  // Member nodes of a live component (unordered). `component_alive` is
  // false for labels retired by merges/splits; `component_capacity` bounds
  // the label space for iteration.
  const std::vector<Node>& members(int comp) const;
  bool component_alive(int comp) const;
  std::size_t component_capacity() const;

  // Topological position of a live component in the condensation: for every
  // cross-component edge u -> v, order_of(u's comp) < order_of(v's comp).
  std::int64_t order_of(int comp) const;

  // Out-neighbours of `v` (unique edges), for the order-invariant tests.
  const std::vector<Node>& successors(Node v) const {
    return out_[static_cast<std::size_t>(v)];
  }

  // Marks `v` dirty without mutating the graph — the caller's hook for
  // "something about this node's tuples changed" (new contribution, guard
  // narrowing, contributor expiry).
  void mark_dirty(Node v);
  // True when drain_dirty() would return anything — including marks a queued
  // lazy split will add once flushed.
  bool has_dirty() const;
  // Current component labels carrying at least one dirty mark, deduplicated
  // (pending splits are flushed first, so their marks are included). Costs
  // O(marks), never O(components).
  std::vector<int> dirty_components() const;
  // dirty_components(), then clears the dirty set and the retired list.
  // Marks survive merges and splits because they are stored per node and
  // mapped through the live labels at drain time.
  std::vector<int> drain_dirty();
  // Labels retired by merges since the last drain_dirty(); labels are never
  // reused, so a consumer caching per-label state can drop these entries.
  const std::vector<int>& retired_components() const { return retired_; }

  // Fresh whole-graph Tarjan over the stored adjacency — the executable
  // specification the incremental state must match, for the differential
  // fuzz tests. Components come back as member lists in reverse
  // topological order.
  std::vector<std::vector<Node>> tarjan_components() const;

  // Mutation statistics, surfaced for tests and bench diagnostics.
  std::size_t merges() const { return merges_; }
  std::size_t splits() const { return splits_; }
  // Global order passes (split flushes only; merges repair locally).
  std::size_t order_rebuilds() const { return order_rebuilds_; }
  // Components visited by order maintenance: bounded searches plus global
  // passes. The per-mutation work counter the flat-cost tests compare.
  std::size_t order_visits() const { return order_visits_; }

  void clear();

 private:
  // Applies queued split rebuilds; every public accessor funnels through
  // this so reads always see a consistent decomposition.
  void flush() const;
  // Splits `comp` into its current SCCs (Tarjan over its members only).
  void rebuild_component(int comp) const;
  // Renumbers every live component's position from one whole-graph pass.
  void recompute_order() const;
  // Collapses the cycle components into the largest one; returns its label.
  int merge(const std::vector<int>& on_cycle);
  // Condensation successors/predecessors of `comp` whose order lies in
  // [lo, hi], deduplicated via stamp_.
  void bounded_search(int comp, std::int64_t lo, std::int64_t hi, bool forward,
                      std::vector<int>& visited) const;

  std::vector<std::vector<Node>> out_;  // node-level adjacency (unique edges)
  std::vector<std::vector<Node>> in_;

  // The decomposition. Everything mutable: deletions queue work that the
  // next (possibly const) read applies.
  mutable std::vector<int> comp_;                  // node -> component label
  mutable std::vector<std::vector<Node>> members_; // label -> nodes ([] = dead)
  mutable std::vector<std::int64_t> ord_;          // label -> topo position
  mutable std::size_t live_components_ = 0;

  mutable std::vector<int> pending_split_;         // labels queued for rebuild
  mutable std::vector<char> pending_flag_;         // label -> queued?
  // Split rebuilds: node -> local id while its component is rebuilt,
  // kNoNode otherwise; and the Tarjan scratch every pass reuses.
  mutable std::vector<std::uint32_t> local_;
  mutable TarjanScratch tarjan_;

  mutable std::vector<Node> dirty_nodes_;
  mutable std::vector<char> dirty_flag_;           // node -> marked?
  std::vector<int> retired_;                       // merged-away labels

  // Per-operation visited stamps over component labels (avoids clearing a
  // bool vector on every bounded search).
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t stamp_gen_ = 0;

  // Next free topological position for components with no order constraints
  // yet (fresh nodes, split remainders before the order pass runs).
  mutable std::int64_t next_ord_ = 0;

  mutable std::size_t merges_ = 0;
  mutable std::size_t splits_ = 0;
  mutable std::size_t order_rebuilds_ = 0;
  mutable std::size_t order_visits_ = 0;

  int new_component_label() const;
};

}  // namespace wolf
