// The parallel analysis engine (DESIGN.md §10): thread-pool contract tests
// and end-to-end determinism — the report must not depend on how many
// workers classified it.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/multi.hpp"
#include "core/pipeline.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "robust/fault.hpp"
#include "support/thread_pool.hpp"
#include "testutil.hpp"
#include "workloads/collections.hpp"
#include "workloads/logging.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for_each(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.parallel_for_each(kCount, [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPoolTest, SingleJobRunsInlineOnTheCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.parallel_for_each(64, [&](std::size_t) {
    seen.insert(std::this_thread::get_id());  // serial: no synchronization
  });
  EXPECT_EQ(seen, std::set<std::thread::id>{caller});
}

TEST(ThreadPoolTest, AutoJobsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1);
  ThreadPool pool(0);
  EXPECT_GE(pool.jobs(), 1);
}

TEST(ThreadPoolTest, RethrowsLowestIndexException) {
  for (int jobs : {1, 4}) {
    ThreadPool pool(jobs);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for_each(100, [&](std::size_t i) {
        ran++;
        if (i == 7 || i == 40 || i == 99)
          throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 7") << "jobs=" << jobs;
    }
    // An exception does not abort the batch: every index still ran.
    EXPECT_EQ(ran.load(), 100) << "jobs=" << jobs;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for_each(10, [&](std::size_t i) {
      sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

// ---------------------------------------------------------- determinism

// Everything the report asserts must be independent of the jobs level:
// classifications, prune verdicts, replay trial statistics, defect grouping,
// cycle order, and the rendered summary.
void expect_identical_reports(const WolfReport& a, const WolfReport& b,
                              const SiteTable& sites) {
  ASSERT_EQ(a.trace_recorded, b.trace_recorded);
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t c = 0; c < a.cycles.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    EXPECT_EQ(a.cycles[c].cycle_index, b.cycles[c].cycle_index);
    EXPECT_EQ(a.cycles[c].classification, b.cycles[c].classification);
    EXPECT_EQ(a.cycles[c].prune_verdict, b.cycles[c].prune_verdict);
    EXPECT_EQ(a.cycles[c].gs_vertices, b.cycles[c].gs_vertices);
    EXPECT_EQ(a.cycles[c].failure_reason, b.cycles[c].failure_reason);
    EXPECT_EQ(a.cycles[c].replay_stats.attempts,
              b.cycles[c].replay_stats.attempts);
    EXPECT_EQ(a.cycles[c].replay_stats.hits, b.cycles[c].replay_stats.hits);
    EXPECT_EQ(a.cycles[c].replay_stats.other_deadlocks,
              b.cycles[c].replay_stats.other_deadlocks);
    EXPECT_EQ(a.cycles[c].replay_stats.no_deadlocks,
              b.cycles[c].replay_stats.no_deadlocks);
    EXPECT_EQ(a.cycles[c].replay_stats.timeouts,
              b.cycles[c].replay_stats.timeouts);
    // Same detected cycle in the same canonical order.
    EXPECT_EQ(a.detection.cycles[c].tuple_idx, b.detection.cycles[c].tuple_idx);
  }
  ASSERT_EQ(a.defects.size(), b.defects.size());
  for (std::size_t d = 0; d < a.defects.size(); ++d) {
    SCOPED_TRACE("defect " + std::to_string(d));
    EXPECT_EQ(a.defects[d].signature, b.defects[d].signature);
    EXPECT_EQ(a.defects[d].classification, b.defects[d].classification);
    EXPECT_EQ(a.defects[d].cycle_indices, b.defects[d].cycle_indices);
  }
  EXPECT_EQ(a.summary(sites), b.summary(sites));
}

void expect_jobs_invariant(const sim::Program& program,
                           WolfOptions options = {}) {
  options.seed = 2014;
  options.replay.attempts = 8;
  options.jobs = 1;
  WolfReport serial = run_wolf(program, options);
  EXPECT_EQ(serial.jobs_used, 1);
  options.jobs = 8;
  WolfReport parallel = run_wolf(program, options);
  EXPECT_EQ(parallel.jobs_used, 8);
  expect_identical_reports(serial, parallel, program.sites());
}

TEST(ParallelDeterminismTest, PaperExamples) {
  expect_jobs_invariant(workloads::make_figure1().program);
  expect_jobs_invariant(workloads::make_figure2().program);
  expect_jobs_invariant(workloads::make_figure4().program);
  expect_jobs_invariant(workloads::make_philosophers(4).program);
}

TEST(ParallelDeterminismTest, CollectionsLists) {
  expect_jobs_invariant(workloads::make_collections_list("ArrayList").program);
  expect_jobs_invariant(workloads::make_collections_list("Stack").program);
}

TEST(ParallelDeterminismTest, CollectionsMaps) {
  // Includes the θ4 generator false positive: the pruner/generator verdicts
  // must survive parallel classification unchanged.
  expect_jobs_invariant(workloads::make_collections_map("HashMap").program);
  expect_jobs_invariant(workloads::make_collections_map("TreeMap").program);
}

TEST(ParallelDeterminismTest, FaultInjectionIsolationIsJobsInvariant) {
  // A cycle whose classification stage crashes degrades the same way at any
  // jobs level — and only that cycle.
  auto w = workloads::make_collections_list("ArrayList");
  robust::FaultPlan fault;
  fault.classify_throw_cycle = 2;
  WolfOptions options;
  options.fault = &fault;
  expect_jobs_invariant(w.program, options);
}

// The 8-thread, degree-2 lock ring (testutil.hpp): 18 cycles in one
// strongly connected lock graph.
sim::Program stress_ring() {
  return test::lock_shape_program({.ring_threads = 8, .ring_degree = 2});
}

TEST(ParallelDeterminismTest, AnalyzeTraceJobsInvariant) {
  for (const sim::Program& program :
       {workloads::make_logging().program, stress_ring()}) {
    SCOPED_TRACE(program.name);
    auto trace = sim::record_trace(program, 77);
    ASSERT_TRUE(trace.has_value());
    WolfOptions options;
    options.replay.attempts = 8;
    options.jobs = 1;
    WolfReport serial = analyze_trace(program, *trace, options);
    options.jobs = 8;
    WolfReport parallel = analyze_trace(program, *trace, options);
    expect_identical_reports(serial, parallel, program.sites());
  }
}

TEST(ParallelDeterminismTest, ObservabilityOnOrOffDoesNotPerturbReports) {
  // The obs layer only observes: with counters and progress enabled, every
  // jobs level must still produce the identical report it produces with
  // them off (the cross-check inside expect_jobs_invariant), and the
  // enabled/disabled runs must agree with each other.
  for (const sim::Program& program :
       {workloads::make_collections_map("HashMap").program, stress_ring()}) {
    SCOPED_TRACE(program.name);
    WolfOptions options;
    options.seed = 2014;
    options.replay.attempts = 8;
    options.jobs = 8;

    obs::set_counters_enabled(false);
    WolfReport off = run_wolf(program, options);

    obs::set_counters_enabled(true);
    obs::set_progress_enabled(true);
    obs::set_progress_writer([](const char*) {});  // swallow heartbeats
    expect_jobs_invariant(program);
    WolfReport on = run_wolf(program, options);
    obs::set_progress_writer(nullptr);
    obs::set_progress_enabled(false);
    obs::set_counters_enabled(false);

    expect_identical_reports(off, on, program.sites());
  }
}

TEST(ParallelDeterminismTest, MultiRunMergeIsJobsInvariant) {
  auto w = workloads::make_collections_map("HashMap");
  MultiRunOptions options;
  options.runs = 4;
  options.wolf.replay.attempts = 6;
  options.jobs = 1;
  MultiRunReport serial = run_wolf_multi(w.program, options);
  options.jobs = 4;
  MultiRunReport parallel = run_wolf_multi(w.program, options);
  ASSERT_EQ(serial.defects.size(), parallel.defects.size());
  for (std::size_t d = 0; d < serial.defects.size(); ++d) {
    EXPECT_EQ(serial.defects[d].signature, parallel.defects[d].signature);
    EXPECT_EQ(serial.defects[d].classification,
              parallel.defects[d].classification);
    EXPECT_EQ(serial.defects[d].runs_detected,
              parallel.defects[d].runs_detected);
    EXPECT_EQ(serial.defects[d].first_seen_run,
              parallel.defects[d].first_seen_run);
  }
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t r = 0; r < serial.runs.size(); ++r)
    expect_identical_reports(serial.runs[r], parallel.runs[r],
                             w.program.sites());
}

}  // namespace
}  // namespace wolf
