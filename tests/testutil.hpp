// Shared helpers for the WOLF test suite, most importantly a generator of
// random well-formed programs used by the property tests: every lock region
// is well nested, control flow is branch-free (so a completed trace covers
// every operation — the premise under which the detector is complete), and
// every operation gets a unique source site (so deadlock signatures identify
// operations exactly). Also home to the oracles the production code is
// checked against: the reference cycle enumerator (core/cycle_engine.hpp)
// and the array-of-structs D_σ store with the governor that drove it
// (core/lock_dependency.hpp, core/governor.hpp).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cycle_engine.hpp"
#include "core/detector.hpp"
#include "core/governor.hpp"
#include "sim/program.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace wolf::test {

struct RandomProgramConfig {
  int workers = 3;         // worker threads (thread 0 is always main)
  int locks = 3;
  int blocks_per_worker = 3;  // top-level lock regions per worker
  int max_nesting = 3;
  double nest_probability = 0.55;
  // Probability that a worker is started by the previous worker instead of
  // main, and that main joins a worker before starting the next one — both
  // create the start/join orderings the Pruner reasons about.
  double chained_start_probability = 0.3;
  double early_join_probability = 0.2;
};

// Builds a random program; deterministic in `rng`.
sim::Program random_program(Rng& rng, const RandomProgramConfig& config = {});

// Synthetic lock-order shapes that load enumeration and classification far
// beyond the paper's programs. Any mix of:
//   ring    — ring_threads threads on a ring of as many locks; thread i
//             nests (l_i, l_{(i+d) mod k}) for every chain degree d in
//             1..ring_degree, so every chain of forward hops that wraps the
//             ring within the cycle-length cap closes a potential deadlock;
//   layered — layered_threads threads nest layered_pairs globally ordered
//             pairs over layered_locks locks: many tuples, zero cycles.
// ring_generations > 1 repeats the ring's threads once per generation, each
// generation joined by main before the next starts: every cross-generation
// cycle is infeasible, so the Pruner's clock cut has cycles to remove.
// Every lock operation has its own site.
struct LockShape {
  int ring_threads = 0;
  int ring_degree = 1;
  int ring_generations = 1;
  int layered_threads = 0;
  int layered_locks = 0;
  int layered_pairs = 0;
};
sim::Program lock_shape_program(const LockShape& shape);

// Sorted site multiset of a run's deadlock cycle.
std::vector<SiteId> deadlock_signature(const sim::RunResult& result);

// The original iGoodLock-style DFS over every canonical tuple — the
// executable specification of the canonical cycle order (detector.hpp) that
// enumerate_cycles_ex must reproduce bit for bit. Unpruned:
// options.clock_prune_during_search is ignored.
EnumerationResult enumerate_cycles_reference(const LockDependency& dep,
                                             const DetectorOptions& options);

// detect() with the reference enumerator in place of the production engine:
// the same D_σ and clocks, the same defect grouping.
Detection detect_reference(const Trace& trace, const DetectorOptions& options);

// The D_σ store as an array of structs: one materialized LockTuple per
// acquire, `unique` computed by hashing every tuple's (thread, lock,
// context sites) key. The interning LockDependencyBuilder must hand out
// exactly what this hands out.
class ReferenceBuilder {
 public:
  using RemovalHook = std::function<void(const LockTuple&)>;

  void add(const Event& e);
  std::size_t tuple_count() const { return dep_.tuples.size(); }
  const std::vector<LockTuple>& tuples() const { return dep_.tuples; }
  const ClockTracker& clocks() const { return clocks_; }

  LockDependency take_dependency();
  LockDependency snapshot_dependency() const;
  LockDependency snapshot_subset(const std::vector<std::size_t>& indices) const;
  // Drops every tuple but the first occurrence of its key.
  std::size_t compact(const RemovalHook& on_remove = {});
  // Drops the oldest tuples until at most `max_tuples` remain.
  std::size_t evict_oldest(std::size_t max_tuples,
                           const RemovalHook& on_remove = {});

 private:
  LockDependency dep_;
  ClockTracker clocks_;
  std::map<ThreadId, std::vector<std::pair<LockId, ExecIndex>>> held_;
  std::size_t pos_ = 0;
};

// The governor over ReferenceBuilder: every tuple is fed to the lock graph
// and charged tuple_bytes() of its own vectors, windows enumerate every
// tuple whose lock lies in a dirty suspicious SCC, and a cycle is new unless
// the same sequence of tuple keys, up to rotation, surfaced before. No deadline ladder and no fault plan: a
// run stays at kFullScc unless eviction marks a window kShedding.
class ReferenceGovernor {
 public:
  explicit ReferenceGovernor(const GovernorOptions& options);

  void add(const Event& e);
  Detection finish();
  const std::vector<WindowReport>& windows() const { return windows_; }
  const GovernorVerdict& verdict() const { return verdict_; }
  // One line per live cycle: "<window> #<sequence>: <description>".
  const std::vector<std::string>& live() const { return live_; }

 private:
  void close_window();
  void govern_memory(WindowReport& w);
  void note(std::string text);

  GovernorOptions options_;
  ReferenceBuilder builder_;
  LockGraph prefilter_;
  std::vector<WindowReport> windows_;
  GovernorVerdict verdict_;
  bool poisoned_ = false;
  std::size_t window_events_ = 0;
  std::size_t store_bytes_ = 0;
  std::vector<std::vector<std::vector<std::int32_t>>> seen_cycles_;
  std::vector<std::string> live_;
};

}  // namespace wolf::test
