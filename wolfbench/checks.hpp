// Reference checks. Every expected answer comes from outside the code under
// test: the synthetic streams' cycle sets from their generators, the suite's
// classifications from EXPERIMENTS.md Table 2 (WOLF columns), and the
// stress-16x4 classifications pinned from the commit that added this
// benchmark.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "streams.hpp"

namespace wolfbench {

// The cycles of a detection as shapes, sorted.
std::vector<CycleShape> cycle_shapes(const wolf::Detection& detection);

// What an ingest session must deliver: a complete verdict whose cycle set
// is exactly `expected`, every final cycle already surfaced live (its
// description among `live`) before finish(). Returns the first violation,
// or an empty string.
std::string check_stream_verdict(const wolf::Detection& detection,
                                 bool coverage_complete,
                                 const std::set<std::string>& live,
                                 const std::vector<CycleShape>& expected);

struct ClassCounts {
  int cycles = 0;
  int false_positive = 0;  // pruner + generator
  int reproduced = 0;
  int unknown = 0;

  friend bool operator==(const ClassCounts&, const ClassCounts&) = default;
};
ClassCounts class_counts(const wolf::WolfReport& report);

// Reference classification counts for a suite program or stress-16x4;
// nullptr for an unknown name.
const ClassCounts* reference_counts(const std::string& program);

// Cycles of `report` that cannot be matched to the reference: the count
// mismatch per class (a cycle in the wrong class counts once) plus every
// cycle whose classification degraded with a failure_reason.
int misclassified_cycles(const wolf::WolfReport& report,
                         const ClassCounts& reference);

// Feeds each checker a deliberately wrong answer and confirms it is
// refused. Returns the first checker that wrongly accepted, or "".
std::string checker_self_test();

}  // namespace wolfbench
