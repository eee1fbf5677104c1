// Scalable cycle enumeration over D_σ (DESIGN.md §12).
//
// The engine emits the canonical cycle sequence of detector.hpp. The
// tuple-level holds→requests digraph is Tarjan-SCC-partitioned
// (graph/digraph), and DFS runs only from tuples in nontrivial SCCs, never
// leaving the start tuple's component: a cycle through η is itself a digraph
// cycle, hence confined to SCC(η), so acyclic regions of D_σ cost nothing.
// Chain state is dense-id bitsets (thread word-mask, lockset word-mask per
// tuple) instead of hash sets, and the Pruner's pairwise clock data
// (ClockPairMatrix) can optionally cut never-overlapping branches during the
// search.
//
// The SCC restriction and the clock cut only skip subtrees that emit
// nothing, so the emitted order is the one a plain DFS over every canonical
// tuple would produce (the test suite keeps that DFS as its oracle).
#pragma once

#include <cstddef>
#include <vector>

#include "clock/clock_tracker.hpp"
#include "core/detector.hpp"

namespace wolf {

struct EnumerationResult {
  std::vector<PotentialDeadlock> cycles;
  // True when enumeration stopped at DetectorOptions::max_cycles; more
  // cycles may exist beyond the ones returned.
  bool truncated = false;
};

// Enumerates the cycles of `dep`; what detect() and the governor call.
// `clocks` is only consulted when options.clock_prune_during_search is set;
// passing nullptr disables the in-search cut.
EnumerationResult enumerate_cycles_ex(const LockDependency& dep,
                                      const DetectorOptions& options,
                                      const ClockTracker* clocks = nullptr);

}  // namespace wolf
