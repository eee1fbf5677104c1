#include "core/prefilter.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "support/check.hpp"

namespace wolf {

namespace {
const obs::Counter kEdgesCounter("prefilter.edges");
const obs::Counter kChecksCounter("prefilter.checks");
const obs::Counter kExpiriesCounter("prefilter.edge_expiries");
}  // namespace

GuardMask lockset_mask(std::span<const LockId> lockset) {
  GuardMask mask;
  for (LockId l : lockset)
    mask.set(static_cast<std::size_t>(static_cast<std::uint32_t>(l)));
  return mask;
}

int LockGraph::intern(LockId lock) {
  auto [it, inserted] = lock_ids_.emplace(lock, static_cast<int>(locks_.size()));
  if (inserted) {
    locks_.push_back(lock);
    out_.emplace_back();
    scc_.add_node();  // dense node ids stay aligned with locks_
  }
  return it->second;
}

void LockGraph::on_tuple(ThreadId thread, LockId lock,
                         std::span<const LockId> lockset) {
  if (lockset.empty()) return;  // top-of-stack acquisitions add no edge
  verdicts_fresh_ = false;
  // Held locks first: a fresh requested lock then gets the newest node and
  // the latest order position, so its fresh in-edges are already forward
  // and take add_edge's O(1) path.
  held_nodes_.clear();
  for (LockId held : lockset) {
    held_nodes_.push_back(intern(held));
    scc_.mark_dirty(held_nodes_.back());
  }
  const int to = intern(lock);
  const GuardMask guards = lockset_mask(lockset);
  scc_.mark_dirty(to);
  for (const int from : held_nodes_) {
    std::vector<Edge>& edges = out_[static_cast<std::size_t>(from)];
    auto it = std::find_if(edges.begin(), edges.end(),
                           [&](const Edge& e) { return e.to == to; });
    if (it == edges.end()) {
      Edge e;
      e.to = to;
      e.refcount = 1;
      e.first_thread = thread;
      e.guard_mask = guards;
      edges.push_back(e);
      ++edge_count_;
      kEdgesCounter.add();
      scc_.add_edge(from, to);
      continue;
    }
    // Existing edge: count the contributor, widen the thread set, narrow the
    // guard intersection. The dirty marks above are unconditional because a
    // re-fed edge can still carry a brand-new canonical tuple.
    ++it->refcount;
    if (it->first_thread != thread) it->multi_thread = true;
    it->guard_mask &= guards;
  }
}

void LockGraph::on_duplicate(LockId lock, std::span<const LockId> lockset) {
  if (lockset.empty()) return;
  verdicts_fresh_ = false;
  scc_.mark_dirty(node_of(lock));
  for (LockId held : lockset) scc_.mark_dirty(node_of(held));
}

int LockGraph::node_of(LockId lock) const {
  auto it = lock_ids_.find(lock);
  WOLF_CHECK_MSG(it != lock_ids_.end(), "lock graph: unknown lock " << lock);
  return it->second;
}

void LockGraph::on_tuple_removed(LockId lock, std::span<const LockId> lockset) {
  if (lockset.empty()) return;
  verdicts_fresh_ = false;
  const int to = node_of(lock);
  for (LockId held : lockset) {
    const int from = node_of(held);
    std::vector<Edge>& edges = out_[static_cast<std::size_t>(from)];
    auto it = std::find_if(edges.begin(), edges.end(),
                           [&](const Edge& e) { return e.to == to; });
    WOLF_CHECK_MSG(it != edges.end() && it->refcount > 0,
                   "on_tuple_removed: edge " << held << "->" << lock
                                             << " has no live contributor");
    if (--it->refcount > 0) continue;  // survivors keep (stale, sound) masks
    edges.erase(it);
    --edge_count_;
    kExpiriesCounter.add();
    scc_.remove_edge(from, to);
    // An expiry can only shrink the component's cycle set, but the cached
    // verdict may now be stale-suspicious; mark so it gets re-evaluated.
    scc_.mark_dirty(from);
    scc_.mark_dirty(to);
  }
}

bool LockGraph::evaluate(int comp) const {
  ++evaluations_;
  const std::vector<DynamicScc::Node>& mem = scc_.members(comp);
  // A suspicious SCC spans >= 2 locks, its edges come from >= 2 distinct
  // threads, and no lock is held by every contributing tuple of every
  // internal edge (see header for why each test is sound).
  if (mem.size() < 2) return false;
  ThreadId first_thread = kInvalidThread;
  bool multi_thread = false;
  GuardMask common = GuardMask::all();
  for (DynamicScc::Node v : mem) {
    for (const Edge& e : out_[static_cast<std::size_t>(v)]) {
      if (scc_.component_of(e.to) != comp) continue;
      common &= e.guard_mask;
      if (e.multi_thread) {
        multi_thread = true;
      } else if (first_thread == kInvalidThread) {
        first_thread = e.first_thread;
      } else if (first_thread != e.first_thread) {
        multi_thread = true;
      }
    }
  }
  return multi_thread && !common.any();
}

void LockGraph::set_verdict(int comp, bool suspicious) const {
  char& cached = comp_suspicious_[static_cast<std::size_t>(comp)];
  if (cached == static_cast<char>(suspicious)) return;
  cached = static_cast<char>(suspicious);
  if (suspicious)
    ++suspicious_count_;
  else
    --suspicious_count_;
}

void LockGraph::refresh_verdicts() const {
  if (verdicts_fresh_ || !scc_.has_dirty()) return;
  kChecksCounter.add();
  // Labels only grow, so this resize is amortized O(new labels).
  comp_suspicious_.resize(scc_.component_capacity(), 0);
  for (int c : scc_.retired_components()) set_verdict(c, false);
  for (int c : scc_.dirty_components()) set_verdict(c, evaluate(c));
  verdicts_fresh_ = true;
}

bool LockGraph::suspicious() const { return suspicious_scc_count() > 0; }

std::size_t LockGraph::suspicious_scc_count() const {
  refresh_verdicts();
  return suspicious_count_;
}

bool LockGraph::component_suspicious(int comp) const {
  refresh_verdicts();
  return comp_suspicious_[static_cast<std::size_t>(comp)] != 0;
}

std::vector<LockId> LockGraph::drain_dirty_suspicious_locks() {
  refresh_verdicts();
  std::vector<LockId> result;
  for (int comp : scc_.drain_dirty()) {
    if (!comp_suspicious_[static_cast<std::size_t>(comp)]) continue;
    for (DynamicScc::Node v : scc_.members(comp))
      result.push_back(locks_[static_cast<std::size_t>(v)]);
  }
  return result;
}

bool LockGraph::has_dirty() const { return scc_.has_dirty(); }

void LockGraph::clear() {
  lock_ids_.clear();
  locks_.clear();
  out_.clear();
  edge_count_ = 0;
  scc_.clear();
  comp_suspicious_.clear();
  suspicious_count_ = 0;
  verdicts_fresh_ = false;
  evaluations_ = 0;
}

}  // namespace wolf
