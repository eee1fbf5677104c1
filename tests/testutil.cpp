#include "testutil.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/magic_prune.hpp"

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
  EnumerationResult res;
  if (options.magic_prune) {
    LockDependency reduced = det.dep;
    reduced.unique = magic_prune(det.dep);
    res = enumerate_cycles_reference(reduced, options);
  } else {
    res = enumerate_cycles_reference(det.dep, options);
  }
  det.cycles = std::move(res.cycles);
  det.truncated = res.truncated;
  det.cycle_cap = res.truncated ? options.max_cycles : 0;
  det.defects = group_defects(det.cycles, det.dep);
  return det;
}

}  // namespace wolf::test
