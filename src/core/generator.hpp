// Generator — Algorithm 3.
//
// For a potential deadlock θ that survives the Pruner, builds the
// synchronization dependency graph Gs over the execution indices of the lock
// acquisitions leading up to θ's deadlocking acquisitions (D'_σ). An edge
// (u, v) means "the acquisition at u must execute before the acquisition at
// v" in any re-execution that reproduces θ. Three edge types:
//
//   type-D — the deadlock condition itself: for ηi, ηj ∈ θ with
//            lock(ηi) ∈ lockset(ηj), the holder ηj's acquisition precedes
//            ηi's (blocking) request of the same lock.
//   type-C — per-lock trace order: every D'_σ acquisition of a lock that θ's
//            thread ti needs (its lockset and its requested lock) by another
//            cycle thread must precede ti's acquisition of it, so the
//            deadlocking context is set up as observed. Sources exclude θ's
//            own deadlocking tuples (they are ordered by type-D).
//   type-P — program order between consecutive acquisitions of each cycle
//            thread.
//
// A cyclic Gs proves the deadlock cannot manifest on any schedule of this
// trace (paper Fig. 7(b): the Collections θ4 false positive); an acyclic Gs
// is handed to the Replayer.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/detector.hpp"
#include "graph/digraph.hpp"

namespace wolf {

enum class GsEdgeKind : std::uint8_t { kTypeD, kTypeC, kTypeP };

const char* to_string(GsEdgeKind kind);

struct GsVertex {
  ThreadId thread = kInvalidThread;
  ExecIndex index;             // the acquisition's execution index
  LockId lock = kInvalidLock;  // the lock acquired there

  friend bool operator==(const GsVertex&, const GsVertex&) = default;
};

struct GsEdge {
  ExecIndex from;
  ExecIndex to;
  GsEdgeKind kind;

  friend bool operator==(const GsEdge&, const GsEdge&) = default;
};

class SyncDependencyGraph {
 public:
  // Adds (or finds) the vertex for an acquisition.
  Digraph::Node intern(const GsVertex& v);
  // Adds an edge; the first kind recorded for a (from, to) pair wins
  // (Algorithm 3 adds type-D, then type-C, then type-P).
  void add_edge(Digraph::Node u, Digraph::Node v, GsEdgeKind kind);

  std::optional<Digraph::Node> find(const ExecIndex& idx) const;
  const GsVertex& vertex(Digraph::Node n) const;

  Digraph& graph() { return graph_; }
  const Digraph& graph() const { return graph_; }

  int vertex_count() const { return graph_.node_count(); }
  bool cyclic() const { return graph_.has_cycle(); }

  // All edges with kinds, for tests and reports (alive endpoints only).
  std::vector<GsEdge> edges() const;

  // True iff vertex v has an incoming edge from a different thread —
  // Algorithm 4's pause condition.
  bool has_cross_thread_in_edge(Digraph::Node v) const;

  // Retires a vertex (dependencies satisfied or instruction skipped).
  void remove_vertex(Digraph::Node v);

  std::string to_dot(const SiteTable& sites) const;

 private:
  Digraph graph_;
  std::vector<GsVertex> vertices_;  // node id → vertex
  std::unordered_map<ExecIndex, Digraph::Node, ExecIndexHash> by_index_;
  std::unordered_map<std::uint64_t, GsEdgeKind> edge_kinds_;

  static std::uint64_t edge_key(Digraph::Node u, Digraph::Node v) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
           static_cast<std::uint32_t>(v);
  }
};

struct GeneratorResult {
  SyncDependencyGraph gs;
  bool feasible = false;  // false when Gs is cyclic → false positive
  // A witness cycle in Gs (execution indices) when infeasible.
  std::vector<ExecIndex> witness;
};

// Builds Gs for `cycle` from the full tuple sequence (Algorithm 3), using a
// prebuilt DependencyIndex for the trace-level scaffolding (D'_σ prefixes and
// per-lock acquisition order). The index depends only on the trace, so one
// index serves every cycle of a Detection; only the per-cycle type-D overlay
// and the cutoff slicing differ between calls. Edge and vertex insertion
// order is identical to the unindexed path, so the resulting Gs (including
// node numbering) is bit-identical.
GeneratorResult generate(const PotentialDeadlock& cycle,
                         const LockDependency& dep,
                         const DependencyIndex& index);

// Convenience overload that builds a throwaway index; prefer the indexed
// form when classifying several cycles of the same trace.
GeneratorResult generate(const PotentialDeadlock& cycle,
                         const LockDependency& dep);

// Rebuilds a graph keeping only the given edge kinds (same vertex set).
// Used by the ablation benches to quantify what each edge type buys.
SyncDependencyGraph filter_edges(const SyncDependencyGraph& gs,
                                 bool keep_d, bool keep_c, bool keep_p);

}  // namespace wolf
