#include "testutil.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "support/check.hpp"


namespace wolf::test {

namespace {

// Emits one well-nested lock region for `thread`, choosing locks uniformly
// (re-acquiring a held lock exercises re-entrancy on purpose).
void emit_block(sim::Program& p, Rng& rng, const RandomProgramConfig& config,
                ThreadId thread, const std::vector<LockId>& locks, int depth,
                int& site_counter) {
  auto fresh_site = [&] {
    return p.site("rand.t" + std::to_string(thread), site_counter++);
  };
  LockId lock = locks[rng.index(locks)];
  p.lock(thread, lock, fresh_site());
  if (depth < config.max_nesting && rng.chance(config.nest_probability)) {
    emit_block(p, rng, config, thread, locks, depth + 1, site_counter);
  } else if (rng.chance(0.5)) {
    p.compute(thread, fresh_site());
  }
  p.unlock(thread, lock, fresh_site());
}

}  // namespace

sim::Program random_program(Rng& rng, const RandomProgramConfig& config) {
  sim::Program p;
  p.name = "random";
  int site_counter = 0;

  std::vector<LockId> locks;
  for (int l = 0; l < config.locks; ++l)
    locks.push_back(
        p.add_lock("L" + std::to_string(l), p.site("rand.alloc", l)));

  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  for (int w = 0; w < config.workers; ++w)
    workers.push_back(p.add_thread("w" + std::to_string(w)));

  // Worker bodies.
  for (ThreadId w : workers) {
    const int blocks = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(
                                   config.blocks_per_worker)));
    for (int b = 0; b < blocks; ++b)
      emit_block(p, rng, config, w, locks, 1, site_counter);
  }

  // Start/join topology: worker i is started either by main or (sometimes)
  // by worker i-1 *after* that worker's lock blocks — the start-ordering
  // structure the Pruner reasons about; main sometimes joins a worker before
  // starting the next, creating non-overlap regions.
  std::vector<ThreadId> joined;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const bool chained =
        i > 0 && rng.chance(config.chained_start_probability);
    if (chained) {
      sim::Op op;
      op.code = sim::OpCode::kStart;
      op.target_thread = workers[i];
      op.site = p.site("rand.chain", site_counter++);
      p.emit(workers[i - 1], op);
    } else {
      p.start(main, workers[i],
              p.site("rand.spawn", site_counter++));
      if (rng.chance(config.early_join_probability)) {
        p.join(main, workers[i], p.site("rand.earlyjoin", site_counter++));
        joined.push_back(workers[i]);
      }
    }
  }
  for (ThreadId w : workers) {
    if (std::find(joined.begin(), joined.end(), w) == joined.end())
      p.join(main, w, p.site("rand.join", site_counter++));
  }

  p.finalize();
  return p;
}

sim::Program lock_shape_program(const LockShape& shape) {
  sim::Program p;
  p.name = "shape-ring" + std::to_string(shape.ring_threads) + "x" +
           std::to_string(shape.ring_degree) + "x" +
           std::to_string(shape.ring_generations) + "-layered" +
           std::to_string(shape.layered_threads);
  const ThreadId main = p.add_thread("main");
  // generations[g] holds the threads main starts, then joins, in round g.
  std::vector<std::vector<ThreadId>> generations(
      static_cast<std::size_t>(std::max(1, shape.ring_generations)));

  std::vector<LockId> layers;
  for (int i = 0; i < shape.layered_locks; ++i)
    layers.push_back(p.add_lock("layer-" + std::to_string(i),
                                p.site("Layer.lock", i)));
  for (int t = 0; t < shape.layered_threads; ++t) {
    const ThreadId tid = p.add_thread("layer-" + std::to_string(t));
    generations[0].push_back(tid);
    for (int k = 0; k < shape.layered_pairs; ++k) {
      // A deterministic spread of ordered pairs a < b across the ladder.
      const int a = (t * 7 + k * 3) % (shape.layered_locks - 1);
      const int b = a + 1 + (t + k) % (shape.layered_locks - 1 - a);
      const int tag = t * 1000 + k;
      const LockId la = layers[static_cast<std::size_t>(a)];
      const LockId lb = layers[static_cast<std::size_t>(b)];
      p.lock(tid, la, p.site("Layer.outer", tag));
      p.lock(tid, lb, p.site("Layer.inner", tag));
      p.unlock(tid, lb, p.site("Layer.innerExit", tag));
      p.unlock(tid, la, p.site("Layer.outerExit", tag));
    }
  }

  std::vector<LockId> ring;
  for (int i = 0; i < shape.ring_threads; ++i)
    ring.push_back(
        p.add_lock("ring-" + std::to_string(i), p.site("Ring.lock", i)));
  for (std::size_t g = 0; g < generations.size() && !ring.empty(); ++g) {
    for (int i = 0; i < shape.ring_threads; ++i) {
      const ThreadId tid = p.add_thread("ring-" + std::to_string(g) + "-" +
                                        std::to_string(i));
      generations[g].push_back(tid);
      for (int d = 1; d <= shape.ring_degree; ++d) {
        const int tag = static_cast<int>(g) * 10000 + i * 100 + d;
        const LockId outer = ring[static_cast<std::size_t>(i)];
        const LockId inner =
            ring[static_cast<std::size_t>((i + d) % shape.ring_threads)];
        p.lock(tid, outer, p.site("Ring.outer", tag));
        p.lock(tid, inner, p.site("Ring.inner", tag));
        p.unlock(tid, inner, p.site("Ring.innerExit", tag));
        p.unlock(tid, outer, p.site("Ring.outerExit", tag));
        p.compute(tid, p.site("Ring.pause", tag));
      }
    }
  }

  for (std::size_t g = 0; g < generations.size(); ++g) {
    for (ThreadId t : generations[g])
      p.start(main, t, p.site("Main.spawn", static_cast<int>(g)));
    for (ThreadId t : generations[g])
      p.join(main, t, p.site("Main.join", static_cast<int>(g)));
  }
  p.finalize();
  return p;
}

std::vector<SiteId> deadlock_signature(const sim::RunResult& result) {
  std::vector<SiteId> sig;
  sig.reserve(result.deadlock_cycle.size());
  for (const sim::BlockedAt& b : result.deadlock_cycle)
    sig.push_back(b.index.site);
  std::sort(sig.begin(), sig.end());
  return sig;
}

namespace {

// Reference enumerator state:
//   * holders_of_ — lock ℓ → canonical tuples holding ℓ in their lockset, in
//     dep.unique order;
//   * chain_threads_/chain_locks_ — running thread set and lockset union of
//     the current chain, so the pairwise-disjointness test is O(|lockset|)
//     per candidate.
class ReferenceEnumerator {
 public:
  ReferenceEnumerator(const LockDependency& dep, const DetectorOptions& options)
      : dep_(dep), options_(options) {
    for (std::size_t u : dep_.unique)
      for (LockId l : dep_.tuples[u].lockset) holders_of_[l].push_back(u);
  }

  std::vector<PotentialDeadlock> run() {
    for (std::size_t u : dep_.unique) {
      if (exhausted()) break;
      push_member(u);
      extend();
      pop_member(u);
    }
    return std::move(cycles_);
  }

 private:
  bool exhausted() const { return cycles_.size() >= options_.max_cycles; }

  void push_member(std::size_t idx) {
    chain_.push_back(idx);
    const LockTuple& tuple = dep_.tuples[idx];
    chain_threads_.push_back(tuple.thread);
    for (LockId l : tuple.lockset) chain_locks_.insert(l);
  }

  void pop_member(std::size_t idx) {
    const LockTuple& tuple = dep_.tuples[idx];
    for (LockId l : tuple.lockset) chain_locks_.erase(l);
    chain_threads_.pop_back();
    chain_.pop_back();
  }

  // True when `candidate` can legally extend the current chain: distinct
  // thread and pairwise-disjoint lockset with every chain member.
  bool compatible(const LockTuple& candidate) const {
    for (ThreadId t : chain_threads_)
      if (t == candidate.thread) return false;
    for (LockId l : candidate.lockset)
      if (chain_locks_.count(l) != 0) return false;
    return true;
  }

  void extend() {
    if (exhausted()) return;
    const LockTuple& first = dep_.tuples[chain_.front()];
    const LockTuple& last = dep_.tuples[chain_.back()];

    // Close the cycle? Requires length >= 2 and lock(last) ∈ lockset(first).
    if (chain_.size() >= 2 && first.holds(last.lock)) {
      PotentialDeadlock cycle;
      cycle.tuple_idx = chain_;
      cycles_.push_back(std::move(cycle));
    }
    if (static_cast<int>(chain_.size()) >= options_.max_cycle_length) return;

    auto holders = holders_of_.find(last.lock);
    if (holders == holders_of_.end()) return;
    for (std::size_t u : holders->second) {
      if (exhausted()) return;
      const LockTuple& next = dep_.tuples[u];
      // Canonical rotation: the first tuple's thread is the cycle minimum.
      if (next.thread <= first.thread) continue;
      if (!compatible(next)) continue;
      push_member(u);
      extend();
      pop_member(u);
    }
  }

  const LockDependency& dep_;
  const DetectorOptions& options_;
  std::unordered_map<LockId, std::vector<std::size_t>> holders_of_;
  std::vector<std::size_t> chain_;
  std::vector<ThreadId> chain_threads_;
  std::unordered_set<LockId> chain_locks_;
  std::vector<PotentialDeadlock> cycles_;
};

}  // namespace

EnumerationResult enumerate_cycles_reference(const LockDependency& dep,
                                             const DetectorOptions& options) {
  EnumerationResult result;
  result.cycles = ReferenceEnumerator(dep, options).run();
  result.truncated = result.cycles.size() >= options.max_cycles;
  return result;
}

Detection detect_reference(const Trace& trace, const DetectorOptions& options) {
  LockDependencyBuilder builder;
  for (const Event& e : trace.events) builder.add(e);
  Detection det;
  det.dep = builder.take_dependency();
  det.clocks = builder.clocks();
  EnumerationResult res = enumerate_cycles_reference(det.dep, options);
  det.cycles = std::move(res.cycles);
  det.truncated = res.truncated;
  det.cycle_cap = res.truncated ? options.max_cycles : 0;
  det.defects = group_defects(det.cycles, det.dep);
  return det;
}

// ------------------------------------------------------ D_σ store oracle

namespace {

std::vector<std::int32_t> tuple_key(const LockTuple& t) {
  std::vector<std::int32_t> key{t.thread, t.lock};
  for (const ExecIndex& idx : t.context) key.push_back(idx.site);
  return key;
}

void compute_unique(LockDependency& dep) {
  std::set<std::vector<std::int32_t>> seen;
  dep.unique.clear();
  for (std::size_t i = 0; i < dep.tuples.size(); ++i)
    if (seen.insert(tuple_key(dep.tuples[i])).second) dep.unique.push_back(i);
}

}  // namespace

void ReferenceBuilder::add(const Event& e) {
  const std::size_t pos = pos_++;
  clocks_.apply(e);
  if (e.kind == EventKind::kLockAcquire) {
    auto& stack = held_[e.thread];
    LockTuple tuple;
    tuple.thread = e.thread;
    tuple.lock = e.lock;
    tuple.tau = clocks_.timestamp(e.thread);
    tuple.trace_pos = pos;
    for (const auto& [l, idx] : stack) {
      tuple.lockset.push_back(l);
      tuple.context.push_back(idx);
    }
    tuple.context.push_back(e.index());
    dep_.tuples.push_back(std::move(tuple));
    stack.emplace_back(e.lock, e.index());
  } else if (e.kind == EventKind::kLockRelease) {
    auto& stack = held_[e.thread];
    auto it = std::find_if(stack.rbegin(), stack.rend(),
                           [&](const auto& h) { return h.first == e.lock; });
    WOLF_CHECK_MSG(it != stack.rend(),
                   "trace releases lock " << e.lock << " not held by t"
                                          << e.thread);
    stack.erase(std::next(it).base());
  }
}

LockDependency ReferenceBuilder::take_dependency() {
  compute_unique(dep_);
  LockDependency out = std::move(dep_);
  dep_ = LockDependency{};
  return out;
}

LockDependency ReferenceBuilder::snapshot_dependency() const {
  LockDependency copy = dep_;
  compute_unique(copy);
  return copy;
}

LockDependency ReferenceBuilder::snapshot_subset(
    const std::vector<std::size_t>& indices) const {
  LockDependency sub;
  for (std::size_t i : indices) sub.tuples.push_back(dep_.tuples[i]);
  compute_unique(sub);
  return sub;
}

std::size_t ReferenceBuilder::compact(const RemovalHook& on_remove) {
  std::set<std::vector<std::int32_t>> seen;
  std::vector<LockTuple> kept;
  for (LockTuple& t : dep_.tuples) {
    if (seen.insert(tuple_key(t)).second) {
      kept.push_back(std::move(t));
    } else if (on_remove) {
      on_remove(t);
    }
  }
  const std::size_t removed = dep_.tuples.size() - kept.size();
  dep_.tuples = std::move(kept);
  return removed;
}

std::size_t ReferenceBuilder::evict_oldest(std::size_t max_tuples,
                                           const RemovalHook& on_remove) {
  if (dep_.tuples.size() <= max_tuples) return 0;
  const std::size_t evicted = dep_.tuples.size() - max_tuples;
  if (on_remove)
    for (std::size_t i = 0; i < evicted; ++i) on_remove(dep_.tuples[i]);
  dep_.tuples.erase(dep_.tuples.begin(),
                    dep_.tuples.begin() + static_cast<std::ptrdiff_t>(evicted));
  return evicted;
}

namespace {

// What the store charged a materialized tuple: its vectors' capacities.
std::size_t charged_bytes(const LockTuple& t) {
  return sizeof(LockTuple) + t.lockset.capacity() * sizeof(LockId) +
         t.context.capacity() * sizeof(ExecIndex);
}

}  // namespace

ReferenceGovernor::ReferenceGovernor(const GovernorOptions& options)
    : options_(options) {}

void ReferenceGovernor::note(std::string text) {
  if (verdict_.notes.size() < 16) {
    verdict_.notes.push_back(std::move(text));
  } else if (verdict_.notes.size() == 16) {
    verdict_.notes.push_back("(further notes suppressed)");
  }
}

void ReferenceGovernor::add(const Event& e) {
  if (poisoned_) return;
  const std::size_t before = builder_.tuple_count();
  try {
    builder_.add(e);
  } catch (const std::exception& ex) {
    poisoned_ = true;
    verdict_.coverage_complete = false;
    note(std::string("malformed event rejected, later input ignored: ") +
         ex.what());
    return;
  }
  for (std::size_t i = before; i < builder_.tuple_count(); ++i) {
    prefilter_.on_tuple(builder_.tuples()[i]);
    store_bytes_ += charged_bytes(builder_.tuples()[i]);
  }
  if (++window_events_ >= options_.window_events) close_window();
}

void ReferenceGovernor::govern_memory(WindowReport& w) {
  if (options_.memory_budget_mb == 0) return;
  const std::size_t budget = options_.memory_budget_mb << 20;
  if (store_bytes_ <= budget) return;
  const ReferenceBuilder::RemovalHook expire = [this](const LockTuple& t) {
    prefilter_.on_tuple_removed(t);
  };
  auto recount = [&] {
    store_bytes_ = 0;
    for (const LockTuple& t : builder_.tuples()) store_bytes_ += charged_bytes(t);
  };
  w.tuples_compacted = builder_.compact(expire);
  recount();
  if (store_bytes_ <= budget) return;
  const std::size_t live = builder_.tuple_count();
  const std::size_t avg =
      live == 0 ? 1 : std::max<std::size_t>(1, store_bytes_ / live);
  w.tuples_evicted =
      builder_.evict_oldest((budget - budget / 10) / avg, expire);
  recount();
  if (w.tuples_evicted > 0) w.level = DetectionLevel::kShedding;
}

void ReferenceGovernor::close_window() {
  WindowReport w;
  w.index = windows_.size();
  w.events = window_events_;
  if (prefilter_.has_dirty()) {
    w.suspicious = prefilter_.suspicious();
    const std::vector<LockId> locks = prefilter_.drain_dirty_suspicious_locks();
    std::vector<std::size_t> subset;
    if (w.suspicious) {
      for (std::size_t i = 0; i < builder_.tuple_count(); ++i)
        if (std::find(locks.begin(), locks.end(), builder_.tuples()[i].lock) !=
            locks.end())
          subset.push_back(i);
    }
    if (!subset.empty()) {
      const Detection det = finish_detection(builder_.snapshot_subset(subset),
                                             builder_.clocks(),
                                             options_.detector);
      for (const PotentialDeadlock& cycle : det.cycles) {
        // The smallest rotation of the cycle's key sequence.
        std::vector<std::vector<std::int32_t>> keys, id;
        for (std::size_t idx : cycle.tuple_idx)
          keys.push_back(tuple_key(det.dep.tuples[idx]));
        for (std::size_t r = 0; r < keys.size(); ++r) {
          std::vector<std::vector<std::int32_t>> rotated(keys.begin() + r,
                                                         keys.end());
          rotated.insert(rotated.end(), keys.begin(), keys.begin() + r);
          if (id.empty() || rotated < id) id = std::move(rotated);
        }
        if (std::find(seen_cycles_.begin(), seen_cycles_.end(), id) !=
            seen_cycles_.end())
          continue;
        seen_cycles_.push_back(std::move(id));
        ++w.new_cycles;
        live_.push_back(std::to_string(w.index) + " #" +
                        std::to_string(live_.size() + 1) + ": " +
                        cycle.to_string(det.dep));
      }
    }
  }
  govern_memory(w);
  w.tuples_live = builder_.tuple_count();
  w.store_bytes = store_bytes_;
  ++verdict_.windows;
  if (w.suspicious) ++verdict_.suspicious_windows;
  verdict_.tuples_compacted += w.tuples_compacted;
  if (w.tuples_evicted > 0) {
    verdict_.tuples_evicted += w.tuples_evicted;
    if (verdict_.coverage_complete) {
      verdict_.coverage_complete = false;
      note("window " + std::to_string(w.index) +
           ": memory budget forced eviction of " +
           std::to_string(w.tuples_evicted) +
           " tuples; coverage is incomplete from here");
    }
  }
  if (w.degraded()) ++verdict_.degraded_windows;
  windows_.push_back(std::move(w));
  window_events_ = 0;
}

Detection ReferenceGovernor::finish() {
  if (window_events_ > 0) close_window();
  LockDependency dep = builder_.take_dependency();
  return finish_detection(std::move(dep), builder_.clocks(),
                          options_.detector);
}

}  // namespace wolf::test
