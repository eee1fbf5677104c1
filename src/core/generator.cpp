#include "core/generator.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/counters.hpp"
#include "support/check.hpp"

namespace wolf {

namespace {
const obs::Counter kGsNodes("generator.gs_nodes");
const obs::Counter kGsEdges("generator.gs_edges");
const obs::Counter kEdgesD("generator.edges_d");
const obs::Counter kEdgesC("generator.edges_c");
const obs::Counter kEdgesP("generator.edges_p");
const obs::Counter kCyclicVerdicts("generator.cyclic_verdicts");
}  // namespace

const char* to_string(GsEdgeKind kind) {
  switch (kind) {
    case GsEdgeKind::kTypeD:
      return "D";
    case GsEdgeKind::kTypeC:
      return "C";
    case GsEdgeKind::kTypeP:
      return "P";
  }
  return "?";
}

Digraph::Node SyncDependencyGraph::intern(const GsVertex& v) {
  auto it = by_index_.find(v.index);
  if (it != by_index_.end()) {
    WOLF_CHECK_MSG(vertices_[static_cast<std::size_t>(it->second)] == v,
                   "conflicting vertex for index " << v.index.to_string());
    return it->second;
  }
  Digraph::Node n = graph_.add_node();
  WOLF_CHECK(static_cast<std::size_t>(n) == vertices_.size());
  vertices_.push_back(v);
  by_index_.emplace(v.index, n);
  return n;
}

void SyncDependencyGraph::add_edge(Digraph::Node u, Digraph::Node v,
                                   GsEdgeKind kind) {
  if (!graph_.has_edge(u, v)) {
    graph_.add_edge(u, v);
    edge_kinds_.emplace(edge_key(u, v), kind);
  }
}

std::optional<Digraph::Node> SyncDependencyGraph::find(
    const ExecIndex& idx) const {
  auto it = by_index_.find(idx);
  if (it == by_index_.end() || !graph_.alive(it->second)) return std::nullopt;
  return it->second;
}

const GsVertex& SyncDependencyGraph::vertex(Digraph::Node n) const {
  WOLF_CHECK(n >= 0 && static_cast<std::size_t>(n) < vertices_.size());
  return vertices_[static_cast<std::size_t>(n)];
}

std::vector<GsEdge> SyncDependencyGraph::edges() const {
  std::vector<GsEdge> out;
  for (Digraph::Node u : graph_.nodes()) {
    for (Digraph::Node v : graph_.successors(u)) {
      GsEdge e;
      e.from = vertex(u).index;
      e.to = vertex(v).index;
      e.kind = edge_kinds_.at(edge_key(u, v));
      out.push_back(e);
    }
  }
  return out;
}

bool SyncDependencyGraph::has_cross_thread_in_edge(Digraph::Node v) const {
  for (Digraph::Node u : graph_.predecessors(v))
    if (vertex(u).thread != vertex(v).thread) return true;
  return false;
}

void SyncDependencyGraph::remove_vertex(Digraph::Node v) {
  if (graph_.alive(v)) graph_.remove_node(v);
}

std::string SyncDependencyGraph::to_dot(const SiteTable& sites) const {
  std::vector<std::string> labels;
  labels.reserve(vertices_.size());
  for (const GsVertex& v : vertices_) {
    std::ostringstream os;
    os << 't' << v.thread << ' ' << sites.name(v.index.site) << " l" << v.lock;
    labels.push_back(os.str());
  }
  return graph_.to_dot(labels);
}

GeneratorResult generate(const PotentialDeadlock& cycle,
                         const LockDependency& dep,
                         const DependencyIndex& index) {
  GeneratorResult result;
  SyncDependencyGraph& gs = result.gs;

  const std::set<std::size_t> cycle_set(cycle.tuple_idx.begin(),
                                        cycle.tuple_idx.end());

  auto vertex_for = [&](const LockTuple& tuple, LockId l) {
    GsVertex v;
    v.thread = tuple.thread;
    v.index = tuple.mu(l);
    v.lock = l;
    return gs.intern(v);
  };

  // --- type-D edges: for every pair ηi, ηj ∈ θ with lock(ηi) ∈ lockset(ηj),
  // the holding acquisition precedes the blocked request.
  for (std::size_t i : cycle.tuple_idx) {
    for (std::size_t j : cycle.tuple_idx) {
      if (i == j) continue;
      const LockTuple& eta_i = dep.tuples[i];
      const LockTuple& eta_j = dep.tuples[j];
      if (!eta_j.holds(eta_i.lock)) continue;
      Digraph::Node v = vertex_for(eta_i, eta_i.lock);
      Digraph::Node u = vertex_for(eta_j, eta_i.lock);
      gs.add_edge(u, v, GsEdgeKind::kTypeD);
    }
  }

  // --- type-C edges: every other-thread acquisition in D'_σ of a lock that
  // ηi needs (lockset + requested lock) precedes ηi's acquisition of it,
  // reproducing the observed per-lock order. θ's own deadlocking tuples are
  // excluded as sources — their order is the deadlock itself (type-D).
  //
  // Sources come from the index's per-(thread, lock) acquisition order,
  // walked per cycle thread in cycle order — the same sequence the old
  // D'_σ scan produced by filtering the concatenated prefixes.
  for (std::size_t i : cycle.tuple_idx) {
    const LockTuple& eta_i = dep.tuples[i];
    std::vector<LockId> needed = eta_i.lockset;
    needed.push_back(eta_i.lock);
    for (LockId lk : needed) {
      Digraph::Node v = vertex_for(eta_i, lk);
      for (std::size_t cj : cycle.tuple_idx) {
        const LockTuple& eta_j = dep.tuples[cj];
        if (eta_j.thread == eta_i.thread) continue;
        for (std::size_t x :
             index.thread_lock_prefix(eta_j.thread, lk, eta_j.trace_pos)) {
          if (cycle_set.count(x) != 0) continue;
          Digraph::Node u = vertex_for(dep.tuples[x], lk);
          gs.add_edge(u, v, GsEdgeKind::kTypeC);
        }
      }
    }
  }

  // --- type-P edges: program order between consecutive acquisitions of each
  // cycle thread within D'_σ.
  for (std::size_t ci : cycle.tuple_idx) {
    const LockTuple& eta = dep.tuples[ci];
    auto prefix = index.thread_prefix(eta.thread, eta.trace_pos);
    for (std::size_t k = 1; k < prefix.size(); ++k) {
      const LockTuple& prev = dep.tuples[prefix[k - 1]];
      const LockTuple& next = dep.tuples[prefix[k]];
      Digraph::Node u = vertex_for(prev, prev.lock);
      Digraph::Node v = vertex_for(next, next.lock);
      gs.add_edge(u, v, GsEdgeKind::kTypeP);
    }
  }

  auto witness = gs.graph().find_cycle();
  if (witness.has_value()) {
    result.feasible = false;
    for (Digraph::Node n : *witness)
      result.witness.push_back(gs.vertex(n).index);
  } else {
    result.feasible = true;
  }

  // The edge-kind walk is only worth doing when someone is collecting.
  if (obs::counters_enabled()) {
    kGsNodes.add(static_cast<std::uint64_t>(gs.vertex_count()));
    std::uint64_t d = 0, c = 0, p = 0;
    for (const GsEdge& e : gs.edges()) {
      switch (e.kind) {
        case GsEdgeKind::kTypeD: ++d; break;
        case GsEdgeKind::kTypeC: ++c; break;
        case GsEdgeKind::kTypeP: ++p; break;
      }
    }
    kGsEdges.add(d + c + p);
    kEdgesD.add(d);
    kEdgesC.add(c);
    kEdgesP.add(p);
    if (!result.feasible) kCyclicVerdicts.add();
  }
  return result;
}

GeneratorResult generate(const PotentialDeadlock& cycle,
                         const LockDependency& dep) {
  return generate(cycle, dep, DependencyIndex::build(dep));
}

SyncDependencyGraph filter_edges(const SyncDependencyGraph& gs, bool keep_d,
                                 bool keep_c, bool keep_p) {
  SyncDependencyGraph out;
  for (Digraph::Node n : gs.graph().nodes()) out.intern(gs.vertex(n));
  for (const GsEdge& e : gs.edges()) {
    const bool keep = (e.kind == GsEdgeKind::kTypeD && keep_d) ||
                      (e.kind == GsEdgeKind::kTypeC && keep_c) ||
                      (e.kind == GsEdgeKind::kTypeP && keep_p);
    if (!keep) continue;
    auto u = out.find(e.from);
    auto v = out.find(e.to);
    WOLF_CHECK(u.has_value() && v.has_value());
    out.add_edge(*u, *v, e.kind);
  }
  return out;
}

}  // namespace wolf
