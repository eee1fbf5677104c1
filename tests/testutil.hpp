// Shared helpers for the WOLF test suite, most importantly a generator of
// random well-formed programs used by the property tests: every lock region
// is well nested, control flow is branch-free (so a completed trace covers
// every operation — the premise under which the detector is complete), and
// every operation gets a unique source site (so deadlock signatures identify
// operations exactly). Also home to the reference cycle enumerator, the
// oracle the production engine (core/cycle_engine.hpp) is checked against.
#pragma once

#include <string>
#include <vector>

#include "core/cycle_engine.hpp"
#include "core/detector.hpp"
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

// Sorted site multiset of a run's deadlock cycle.
std::vector<SiteId> deadlock_signature(const sim::RunResult& result);

// The original iGoodLock-style DFS over every canonical tuple — the
// executable specification of the canonical cycle order (detector.hpp) that
// enumerate_cycles_ex must reproduce bit for bit. Serial and unpruned:
// options.jobs and options.clock_prune_during_search are ignored.
EnumerationResult enumerate_cycles_reference(const LockDependency& dep,
                                             const DetectorOptions& options);

// detect() with the reference enumerator in place of the production engine:
// the same D_σ and clocks, the same magic_prune reduction, the same defect
// grouping.
Detection detect_reference(const Trace& trace, const DetectorOptions& options);

}  // namespace wolf::test
