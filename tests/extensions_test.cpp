// Tests for the paper's discussed extensions: defect ranking (§4.4) and
// multi-input analysis (§4.4). MagicFuzzer-style tuple pruning (§5) is
// subsumed by the cycle engine's tuple-SCC partition (cycle_engine_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/multi.hpp"
#include "core/ranking.hpp"
#include "sim/scheduler.hpp"
#include "workloads/collections.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

// ---------------------------------------------------------------- ranking

TEST(RankingTest, TiersOrderClassifications) {
  auto w = workloads::make_collections_map("HashMap");
  WolfOptions options;
  options.seed = 2014;
  options.replay.attempts = 8;
  WolfReport report = run_wolf(w.program, options);
  ASSERT_EQ(report.defects.size(), 3u);

  auto ranking = rank_defects(report);
  ASSERT_EQ(ranking.size(), 3u);
  // Two reproduced defects first, the Generator-eliminated θ4 last.
  EXPECT_EQ(report.defects[ranking[0].defect_index].classification,
            Classification::kReproduced);
  EXPECT_EQ(report.defects[ranking[1].defect_index].classification,
            Classification::kReproduced);
  EXPECT_EQ(report.defects[ranking[2].defect_index].classification,
            Classification::kFalseByGenerator);
  EXPECT_GT(ranking[0].score, ranking[2].score);
}

TEST(RankingTest, PrunerFalseRanksBelowGeneratorFalse) {
  // Build a report by hand with one defect of each elimination kind.
  WolfReport report;
  CycleReport pruner_cycle;
  pruner_cycle.classification = Classification::kFalseByPruner;
  CycleReport generator_cycle;
  generator_cycle.classification = Classification::kFalseByGenerator;
  report.cycles = {pruner_cycle, generator_cycle};
  DefectReport d0;
  d0.signature = {1, 2};
  d0.classification = Classification::kFalseByPruner;
  d0.cycle_indices = {0};
  DefectReport d1;
  d1.signature = {3, 4};
  d1.classification = Classification::kFalseByGenerator;
  d1.cycle_indices = {1};
  report.defects = {d0, d1};

  auto ranking = rank_defects(report);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].defect_index, 1u);  // generator-false first
  EXPECT_EQ(ranking[1].defect_index, 0u);  // pruner-false last
}

TEST(RankingTest, FormatListsEveryDefectOnce) {
  auto w = workloads::make_collections_list("Stack");
  WolfOptions options;
  options.seed = 9;
  options.replay.attempts = 6;
  WolfReport report = run_wolf(w.program, options);
  std::string text = format_ranking(report, w.program.sites());
  // Six ranked lines.
  EXPECT_NE(text.find("1. ["), std::string::npos);
  EXPECT_NE(text.find("6. ["), std::string::npos);
  EXPECT_EQ(text.find("7. ["), std::string::npos);
}

TEST(RankingTest, EmptyReportYieldsEmptyRanking) {
  WolfReport report;
  EXPECT_TRUE(rank_defects(report).empty());
}

// ---------------------------------------------------------------- multi-run

// A program whose control flow depends on a race: t1 runs one of two
// deadlock-prone code paths depending on whether the helper's flag write
// wins. Different recording seeds expose different defects.
sim::Program racy_branch_program() {
  sim::Program p;
  LockId x = p.add_lock("X", p.site("alloc", 1));
  LockId y = p.add_lock("Y", p.site("alloc", 2));
  int flag = p.add_flag();
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  ThreadId t2 = p.add_thread("t2");
  ThreadId helper = p.add_thread("helper");

  // t1: if (flag) pathA else pathB — same locks, different sites. A pad
  // before the check keeps the race with the helper close to even.
  p.compute(t1, p.site("t1.pad", 0));
  int jmp = p.jump_if_flag(t1, flag, 1, 0, p.site("t1.check", 1));
  // path B (flag still 0)
  p.lock(t1, x, p.site("t1.pathB.outer", 10));
  p.lock(t1, y, p.site("t1.pathB.inner", 11));
  p.unlock(t1, y, p.site("t1.pathB.iy", 12));
  p.unlock(t1, x, p.site("t1.pathB.ix", 13));
  int end_jump = p.jump(t1, 0, p.site("t1.skipA", 14));
  // path A
  int path_a = p.lock(t1, x, p.site("t1.pathA.outer", 20));
  p.lock(t1, y, p.site("t1.pathA.inner", 21));
  p.unlock(t1, y, p.site("t1.pathA.iy", 22));
  int done = p.unlock(t1, x, p.site("t1.pathA.ix", 23));
  p.patch_jump(t1, jmp, path_a);
  p.patch_jump(t1, end_jump, done + 1);

  // t2: reversed order — closes a cycle with whichever path t1 took.
  p.lock(t2, y, p.site("t2.outer", 1));
  p.lock(t2, x, p.site("t2.inner", 2));
  p.unlock(t2, x, p.site("t2.ix", 3));
  p.unlock(t2, y, p.site("t2.iy", 4));

  // helper races to set the flag (padded so both outcomes are likely).
  p.compute(helper, p.site("helper.pad", 1));
  p.compute(helper, p.site("helper.pad2", 3));
  p.set_flag(helper, flag, 1, p.site("helper.set", 2));

  SiteId spawn = p.site("spawn", 1);
  SiteId joinsite = p.site("join", 1);
  for (ThreadId t : {helper, t1, t2}) p.start(main, t, spawn);
  for (ThreadId t : {helper, t1, t2}) p.join(main, t, joinsite);
  p.finalize();
  return p;
}

TEST(MultiRunTest, UnionsDefectsAcrossSchedules) {
  sim::Program p = racy_branch_program();
  MultiRunOptions options;
  options.runs = 12;
  options.seed = 5;
  options.wolf.replay.attempts = 4;
  MultiRunReport report = run_wolf_multi(p, options);

  // Across a dozen schedules both paths should have been observed; a single
  // run can only ever see one of them.
  std::set<DefectSignature> merged;
  for (const MergedDefect& d : report.defects) merged.insert(d.signature);
  EXPECT_EQ(merged.size(), 2u);
  for (const WolfReport& run : report.runs)
    if (run.trace_recorded) {
      EXPECT_LE(run.defects.size(), 1u);
    }
}

TEST(MultiRunTest, MostAlarmingClassificationWins) {
  EXPECT_TRUE(overrides(Classification::kReproduced,
                        Classification::kUnknown));
  EXPECT_TRUE(overrides(Classification::kUnknown,
                        Classification::kFalseByGenerator));
  EXPECT_TRUE(overrides(Classification::kFalseByGenerator,
                        Classification::kFalseByPruner));
  EXPECT_FALSE(overrides(Classification::kFalseByPruner,
                         Classification::kReproduced));
  EXPECT_FALSE(overrides(Classification::kUnknown,
                         Classification::kUnknown));
}

TEST(MultiRunTest, CountsRunsDetected) {
  auto w = workloads::make_collections_map("HashMap");
  MultiRunOptions options;
  options.runs = 3;
  options.seed = 2;
  options.wolf.replay.attempts = 4;
  MultiRunReport report = run_wolf_multi(w.program, options);
  ASSERT_EQ(report.defects.size(), 3u);  // structural: same defects each run
  for (const MergedDefect& d : report.defects)
    EXPECT_EQ(d.runs_detected, 3);
  EXPECT_EQ(report.count(Classification::kReproduced), 2);
  EXPECT_EQ(report.count(Classification::kFalseByGenerator), 1);
}

}  // namespace
}  // namespace wolf
