// Differential tests of the cycle enumeration engine (DESIGN.md §12):
//
//   equivalence — the SCC engine emits the bit-identical cycle sequence of
//                 the reference DFS oracle (testutil.hpp), over fixed
//                 workloads and randomized programs, and at every
//                 max_cycles cap;
//   clock cut   — with clock_prune_during_search, the emitted cycles equal
//                 the order-preserving subsequence of the full enumeration
//                 that survives Algorithm 2's prune();
//   truncation  — Detection::truncated/cycle_cap surface the cap identically
//                 in the engine and in the oracle.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/cycle_engine.hpp"
#include "core/detector.hpp"
#include "core/pruner.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/suite.hpp"

namespace wolf {
namespace {

DetectorOptions options_for(bool clock_prune = false,
                            std::size_t max_cycles = 100000) {
  DetectorOptions options;
  options.clock_prune_during_search = clock_prune;
  options.max_cycles = max_cycles;
  return options;
}

void expect_same_cycles(const std::vector<PotentialDeadlock>& a,
                        const std::vector<PotentialDeadlock>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].tuple_idx, b[i].tuple_idx) << what << " cycle " << i;
}

// Detections must agree bit-for-bit in everything enumeration controls.
void expect_equivalent(const Detection& a, const Detection& b,
                       const char* what) {
  expect_same_cycles(a.cycles, b.cycles, what);
  EXPECT_EQ(a.truncated, b.truncated) << what;
  EXPECT_EQ(a.cycle_cap, b.cycle_cap) << what;
  ASSERT_EQ(a.defects.size(), b.defects.size()) << what;
  for (std::size_t i = 0; i < a.defects.size(); ++i) {
    EXPECT_EQ(a.defects[i].signature, b.defects[i].signature) << what;
    EXPECT_EQ(a.defects[i].cycle_idx, b.defects[i].cycle_idx) << what;
  }
}

// Runs the reference oracle vs the scc engine on one trace and asserts
// bit-identity; returns the reference detection for further checks.
Detection check_engines_agree(const Trace& trace,
                              std::size_t max_cycles = 100000) {
  Detection ref =
      test::detect_reference(trace, options_for(false, max_cycles));
  expect_equivalent(ref, detect(trace, options_for(false, max_cycles)),
                    "reference vs scc");
  return ref;
}

Trace record_workload(const char* name) {
  for (workloads::Benchmark& b : workloads::standard_suite())
    if (b.name == name) {
      auto trace = sim::record_trace(b.program, 2014, 60);
      EXPECT_TRUE(trace.has_value()) << name;
      return trace.value_or(Trace{});
    }
  ADD_FAILURE() << "unknown workload " << name;
  return {};
}

TEST(CycleEngineTest, EnginesAgreeOnSuiteWorkloads) {
  for (const char* name : {"HashMap", "ArrayList", "TreeMap", "Stack"}) {
    SCOPED_TRACE(name);
    Trace trace = record_workload(name);
    if (trace.empty()) continue;
    Detection ref = check_engines_agree(trace);
    EXPECT_FALSE(ref.truncated);
    EXPECT_EQ(ref.cycle_cap, 0u);
  }
}

TEST(CycleEngineTest, EnginesAgreeOnPhilosophersRing) {
  // A 5-ring: one big nontrivial SCC, cycle length = ring size.
  auto program = workloads::make_philosophers(5).program;
  auto trace = sim::record_trace(program, 7, 60);
  ASSERT_TRUE(trace.has_value());
  Detection ref = check_engines_agree(*trace);
  EXPECT_FALSE(ref.cycles.empty());
}

TEST(CycleEngineTest, TruncationIsIdenticalAcrossEnginesAndJobs) {
  Trace trace = record_workload("HashMap");
  ASSERT_FALSE(trace.empty());
  Detection full = test::detect_reference(trace, options_for());
  ASSERT_GE(full.cycles.size(), 2u) << "workload too small for a cap test";

  for (std::size_t cap = 1; cap <= full.cycles.size(); ++cap) {
    SCOPED_TRACE(cap);
    Detection ref = check_engines_agree(trace, cap);
    EXPECT_EQ(ref.cycles.size(), cap);
    EXPECT_TRUE(ref.truncated);
    EXPECT_EQ(ref.cycle_cap, cap);
    // The capped enumeration is the prefix of the full one.
    for (std::size_t i = 0; i < cap; ++i)
      EXPECT_EQ(ref.cycles[i].tuple_idx, full.cycles[i].tuple_idx);
  }
}

// With the in-search clock cut, the emitted cycles must be exactly the
// order-preserving subsequence of the full enumeration that prune() keeps.
void check_clock_prune(const Trace& trace) {
  Detection full = detect(trace, options_for());
  const std::vector<PruneVerdict> verdicts = prune(full);
  std::vector<PotentialDeadlock> survivors;
  for (std::size_t i = 0; i < full.cycles.size(); ++i)
    if (!is_false(verdicts[i])) survivors.push_back(full.cycles[i]);

  Detection cut = detect(trace, options_for(/*clock_prune=*/true));
  expect_same_cycles(survivors, cut.cycles, "prune() survivors vs clock cut");
  // Everything emitted under the cut survives a batch prune.
  for (PruneVerdict v : prune(cut)) EXPECT_FALSE(is_false(v));
}

TEST(CycleEngineTest, ClockPruneDuringSearchMatchesBatchPruner) {
  for (const char* name : {"HashMap", "ArrayList", "TreeMap"}) {
    SCOPED_TRACE(name);
    Trace trace = record_workload(name);
    if (trace.empty()) continue;
    check_clock_prune(trace);
  }
}

TEST(CycleEngineTest, EmptyAndAcyclicDependenciesProduceNoCycles) {
  // Globally ordered locks: every tuple digraph edge points one way, all
  // SCCs are trivial, and the scc engine must do (and emit) nothing.
  LockDependency dep;
  DetectorOptions options;
  EnumerationResult empty = enumerate_cycles_ex(dep, options);
  EXPECT_TRUE(empty.cycles.empty());
  EXPECT_FALSE(empty.truncated);

  Trace trace = record_workload("LinkedList");
  if (!trace.empty()) check_engines_agree(trace);
}

// Randomized differential test: random programs with varying shape, fork/join
// structure and lock nesting; the engine must agree with the oracle, and the
// clock cut must match the batch pruner.
class CycleEnginePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CycleEnginePropertyTest, EnginesAgreeOnRandomPrograms) {
  const int seed_index = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed_index) * 0x9e3779b97f4a7c15ULL + 5);
  test::RandomProgramConfig config;
  config.workers = 2 + static_cast<int>(rng.below(4));
  config.locks = 2 + static_cast<int>(rng.below(4));
  config.blocks_per_worker = 2 + static_cast<int>(rng.below(3));
  config.max_nesting = 2 + static_cast<int>(rng.below(3));
  config.nest_probability = 0.35 + 0.4 * rng.uniform();
  config.chained_start_probability = 0.5 * rng.uniform();
  config.early_join_probability = 0.5 * rng.uniform();
  sim::Program program = test::random_program(rng, config);

  auto trace = sim::record_trace(program, rng(), 40);
  if (!trace.has_value()) GTEST_SKIP() << "every recording run deadlocked";

  Detection ref = check_engines_agree(*trace);
  check_clock_prune(*trace);

  // Re-run capped at half the cycles: truncation must match the oracle.
  if (ref.cycles.size() >= 2) check_engines_agree(*trace, ref.cycles.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleEnginePropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace wolf
