// Resource-governed online detection (core/governor.hpp) and its
// linear-time sound pre-filter (core/prefilter.hpp).
//
// The load-bearing properties:
//   * pre-filter soundness — whenever tuple-level enumeration finds a
//     cycle, the lock graph is suspicious (differentially, over random
//     programs); the refinements (single-thread SCCs, common guard locks)
//     only discharge windows that provably contain no cycle;
//   * governed ≡ batch — with no budget, no deadline and no faults, the
//     governed detector's final Detection matches batch detect()'s bit for
//     bit, at every window size, and every cycle batch finds was surfaced
//     live before finish();
//   * honesty — eviction flips coverage_complete and marks the window
//     kShedding; a per-window detection fault degrades only that window
//     (finish() re-enumerates, coverage stays complete); a fault in the
//     final enumeration is reported as incomplete coverage, never as a
//     clean empty report;
//   * the degradation ladder is a pure function with hysteresis.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/governor.hpp"
#include "core/pipeline.hpp"
#include "core/prefilter.hpp"
#include "robust/fault.hpp"
#include "testutil.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

Event acquire(ThreadId t, LockId l, SiteId site, std::int32_t occ = 1) {
  Event e;
  e.kind = EventKind::kLockAcquire;
  e.thread = t;
  e.lock = l;
  e.site = site;
  e.occurrence = occ;
  return e;
}

Event release(ThreadId t, LockId l) {
  Event e;
  e.kind = EventKind::kLockRelease;
  e.thread = t;
  e.lock = l;
  return e;
}

// Classic two-thread AB/BA deadlock pattern, optionally guarded by a gate
// lock g held around both regions.
Trace ab_ba_trace(bool gated) {
  Trace trace;
  SiteId site = 1;
  auto region = [&](ThreadId t, LockId a, LockId b) {
    if (gated) trace.events.push_back(acquire(t, 5, site++));
    trace.events.push_back(acquire(t, a, site++));
    trace.events.push_back(acquire(t, b, site++));
    trace.events.push_back(release(t, b));
    trace.events.push_back(release(t, a));
    if (gated) trace.events.push_back(release(t, 5));
  };
  region(1, 10, 20);
  region(2, 20, 10);
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;
  return trace;
}

std::set<DefectSignature> signatures_of(const Detection& det) {
  std::set<DefectSignature> sigs;
  for (const PotentialDeadlock& cycle : det.cycles)
    sigs.insert(signature_of(cycle, det.dep));
  return sigs;
}

LockGraph graph_of(const Trace& trace) {
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(trace);
  for (const LockTuple& t : dep.tuples) g.on_tuple(t);
  return g;
}

// ------------------------------------------------------------- pre-filter

TEST(PrefilterTest, FlagsTheUngatedAbBaPattern) {
  LockGraph g = graph_of(ab_ba_trace(/*gated=*/false));
  EXPECT_TRUE(g.suspicious());
  EXPECT_GE(g.suspicious_scc_count(), 1u);
}

TEST(PrefilterTest, GateLockDischargesTheSccWithoutEnumeration) {
  // Both AB/BA regions run under gate lock 5: every edge of the {10,20}
  // SCC carries the gate in its guard intersection, so the lockset-
  // disjointness requirement can never be met — not suspicious.
  Trace gated = ab_ba_trace(/*gated=*/true);
  EXPECT_TRUE(detect(gated).cycles.empty());
  EXPECT_FALSE(graph_of(gated).suspicious());
}

TEST(PrefilterTest, SingleThreadCycleIsNotSuspicious) {
  // One thread acquiring in both orders creates the lock-graph cycle
  // 10 -> 20 -> 10, but a deadlock needs two distinct threads.
  Trace trace;
  SiteId site = 1;
  for (auto [a, b] : {std::pair<LockId, LockId>{10, 20}, {20, 10}}) {
    trace.events.push_back(acquire(1, a, site++));
    trace.events.push_back(acquire(1, b, site++));
    trace.events.push_back(release(1, b));
    trace.events.push_back(release(1, a));
  }
  EXPECT_FALSE(graph_of(trace).suspicious());
}

TEST(PrefilterTest, LocksetMaskCoversFourWordsAndDropsTheRest) {
  GuardMask low = lockset_mask({0, 3});
  EXPECT_EQ(low.w[0], (1ULL << 0) | (1ULL << 3));
  EXPECT_TRUE(low.any());
  // Lock 70 used to vanish from the old single-word mask; it now lands in
  // word 1 and can still discharge an SCC as a guard.
  GuardMask mid = lockset_mask({70});
  EXPECT_EQ(mid.w[1], 1ULL << 6);
  EXPECT_TRUE(mid.any());
  EXPECT_EQ(lockset_mask({255}).w[3], 1ULL << 63);
  // Locks >= GuardMask::kBits vanish: a vanished guard can only weaken the
  // common-guard refinement (more suspicious), never discharge an SCC.
  EXPECT_FALSE(lockset_mask({static_cast<LockId>(GuardMask::kBits)}).any());
  EXPECT_FALSE(lockset_mask({1000}).any());
}

TEST(PrefilterTest, GateLockAboveSixtyFourStillDischargesHundredLockTrace) {
  // 100 locks; the AB/BA pair is (90, 95) and the gate is lock 80 — all
  // beyond the old 64-bit mask. Touch locks 0..79 first so the interesting
  // ids really sit past word 0, then run both gated regions. The guard
  // refinement must discharge the SCC exactly as it does for small ids.
  Trace trace;
  SiteId site = 1;
  for (LockId l = 0; l < 80; ++l) {
    trace.events.push_back(acquire(1, l, site++));
    trace.events.push_back(release(1, l));
  }
  auto region = [&](ThreadId t, LockId a, LockId b) {
    trace.events.push_back(acquire(t, 80, site++));
    trace.events.push_back(acquire(t, a, site++));
    trace.events.push_back(acquire(t, b, site++));
    trace.events.push_back(release(t, b));
    trace.events.push_back(release(t, a));
    trace.events.push_back(release(t, 80));
  };
  region(1, 90, 95);
  region(2, 95, 90);
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;

  EXPECT_TRUE(detect(trace).cycles.empty());
  EXPECT_FALSE(graph_of(trace).suspicious());

  // Same trace without the gate: suspicious, and the detector agrees.
  Trace ungated;
  ungated.events.reserve(trace.events.size());
  for (const Event& e : trace.events)
    if (e.lock != 80) ungated.events.push_back(e);
  std::uint64_t reseq = 0;
  for (Event& e : ungated.events) e.seq = reseq++;
  EXPECT_FALSE(detect(ungated).cycles.empty());
  EXPECT_TRUE(graph_of(ungated).suspicious());
}

// Differential soundness over random programs: detector finds a cycle ⇒
// the pre-filter must have flagged the graph. (The converse may fail; that
// is the allowed direction.)
class PrefilterSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(PrefilterSoundnessTest, NeverClearsATraceWithCycles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 23);
  test::RandomProgramConfig config;
  config.workers = 2 + static_cast<int>(rng.below(3));
  config.locks = 2 + static_cast<int>(rng.below(3));
  sim::Program program = test::random_program(rng, config);
  auto trace = sim::record_trace(program, rng(), 40);
  if (!trace.has_value()) GTEST_SKIP() << "recording deadlocked";

  Detection det = detect(*trace);
  if (det.cycles.empty()) GTEST_SKIP() << "no cycles to witness";
  EXPECT_TRUE(graph_of(*trace).suspicious())
      << "pre-filter cleared a trace with " << det.cycles.size()
      << " enumerable cycle(s) — unsound";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefilterSoundnessTest,
                         ::testing::Range(0, 40));

// --------------------------------------------------------------- governor

TEST(GovernorTest, UngovernedMatchesStreamingDetectorBitForBit) {
  Rng rng(77);
  sim::Program program = test::random_program(rng);
  auto trace = sim::record_trace(program, 5, 40);
  ASSERT_TRUE(trace.has_value());

  Detection expected = detect(*trace);

  for (std::size_t window : {std::size_t{8}, std::size_t{1000},
                             std::size_t{1} << 20}) {
    GovernorOptions options;
    options.window_events = window;
    Governor governed(options);
    for (const Event& e : trace->events) governed.add(e);
    Detection got = governed.finish();

    EXPECT_EQ(got.cycles.size(), expected.cycles.size()) << window;
    for (std::size_t i = 0;
         i < std::min(got.cycles.size(), expected.cycles.size()); ++i)
      EXPECT_EQ(got.cycles[i].tuple_idx, expected.cycles[i].tuple_idx);
    EXPECT_EQ(got.defects.size(), expected.defects.size());
    EXPECT_EQ(got.dep.unique.size(), expected.dep.unique.size());

    GovernorVerdict verdict = governed.verdict();
    EXPECT_TRUE(verdict.coverage_complete);
    EXPECT_EQ(verdict.tuples_evicted, 0u);
    EXPECT_EQ(verdict.windows,
              (trace->size() + window - 1) / window);
  }
}

TEST(GovernorTest, SuspiciousWindowsSurfaceCyclesBeforeFinish) {
  Trace trace = ab_ba_trace(false);
  GovernorOptions options;
  options.window_events = 4;  // boundaries inside and after the pattern
  Governor governed(options);
  for (const Event& e : trace.events) governed.add(e);
  Detection det = governed.finish();
  ASSERT_FALSE(det.cycles.empty());

  std::size_t surfaced = 0;
  bool any_suspicious = false;
  for (const WindowReport& w : governed.windows()) {
    surfaced += w.new_cycles;
    any_suspicious |= w.suspicious;
  }
  EXPECT_TRUE(any_suspicious);
  EXPECT_GE(surfaced, 1u);
}

TEST(GovernorTest, CompactionIsLosslessForTheCycleSet) {
  // Repeat the AB/BA pattern many times: the tuple store fills with
  // duplicates that compaction may drop without changing the cycle set.
  LockDependencyBuilder builder;
  for (int rep = 0; rep < 50; ++rep)
    for (const Event& e : ab_ba_trace(false).events) builder.add(e);
  const std::size_t before = builder.tuple_count();
  LockDependency full = builder.snapshot_dependency();

  const std::size_t removed = builder.compact();
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(builder.tuple_count(), before - removed);

  Detection with_full = finish_detection(full, builder.clocks(), {});
  Detection compacted =
      finish_detection(builder.snapshot_dependency(), builder.clocks(), {});
  EXPECT_EQ(signatures_of(with_full), signatures_of(compacted));
  EXPECT_EQ(with_full.cycles.size(), compacted.cycles.size());
}

TEST(GovernorTest, EvictOldestDropsFromTheFront) {
  LockDependencyBuilder builder;
  for (const Event& e : ab_ba_trace(false).events) builder.add(e);
  const std::size_t total = builder.tuple_count();
  ASSERT_GE(total, 3u);
  const std::size_t first_kept =
      builder.pending().tuples[total - 2].trace_pos;
  EXPECT_EQ(builder.evict_oldest(2), total - 2);
  EXPECT_EQ(builder.tuple_count(), 2u);
  EXPECT_EQ(builder.pending().tuples.front().trace_pos, first_kept);
  EXPECT_EQ(builder.evict_oldest(10), 0u);  // already under the cap
}

TEST(GovernorTest, MemoryBudgetEvictionIsReportedHonestly) {
  // A long synthetic stream of distinct tuples (every acquisition has a
  // fresh site, so compaction cannot help) against a 1 MiB budget.
  Trace trace;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 40000; ++rep) {
    const ThreadId t = static_cast<ThreadId>(1 + (rep & 1));
    trace.events.push_back(acquire(t, 10, site++));
    trace.events.push_back(acquire(t, 20, site++));
    trace.events.push_back(release(t, 20));
    trace.events.push_back(release(t, 10));
  }
  for (Event& e : trace.events) e.seq = seq++;

  GovernorOptions options;
  options.memory_budget_mb = 1;
  options.window_events = 4096;
  Governor governed(options);
  for (const Event& e : trace.events) governed.add(e);
  (void)governed.finish();

  GovernorVerdict verdict = governed.verdict();
  EXPECT_GT(verdict.tuples_evicted, 0u);
  EXPECT_FALSE(verdict.coverage_complete);
  EXPECT_TRUE(verdict.degraded());
  EXPECT_FALSE(verdict.notes.empty());

  // The budget actually held: every post-governance window footprint is
  // under 1 MiB, and shedding windows are marked as such.
  std::size_t evicted = 0;
  for (const WindowReport& w : governed.windows()) {
    EXPECT_LE(w.store_bytes, options.memory_budget_mb << 20) << w.index;
    if (w.tuples_evicted > 0) {
      EXPECT_EQ(w.level, DetectionLevel::kShedding);
      EXPECT_TRUE(w.degraded());
    }
    evicted += w.tuples_evicted;
  }
  EXPECT_EQ(evicted, verdict.tuples_evicted);
}

TEST(GovernorTest, JobsWithMemoryBudgetIsSupported) {
  // Pins the Config contract (facade.cpp): jobs + memory_budget is a fully
  // supported combination, not a warning. Sessions detect serially, so
  // jobs changes nothing about a budgeted session: the budget is enforced
  // at window boundaries and the verdict is the same at every level.
  Config cfg;
  cfg.jobs = 4;
  cfg.memory_budget_mb = 1;
  for (const ConfigIssue& issue : cfg.validate()) {
    EXPECT_NE(issue.message.find("budget"), 0u);
    EXPECT_EQ(issue.message.find("memory"), std::string::npos)
        << "jobs+budget must not warn: " << issue.message;
  }

  // A stream hot enough to trip eviction under a 1 MiB budget, run at
  // several jobs levels: identical verdicts, and the budget holds for every
  // window at every level.
  Trace trace;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 10000; ++rep) {
    const ThreadId t = static_cast<ThreadId>(1 + (rep & 1));
    trace.events.push_back(acquire(t, 10, site++));
    trace.events.push_back(acquire(t, 20, site++));
    trace.events.push_back(release(t, 20));
    trace.events.push_back(release(t, 10));
  }
  for (Event& e : trace.events) e.seq = seq++;

  std::string baseline_summary;
  std::set<DefectSignature> baseline_sigs;
  for (int jobs : {1, 4}) {
    Config config;
    config.memory_budget_mb = 1;
    config.window_events = 4096;
    config.jobs = jobs;
    Session session = Session::open(config);
    VectorTraceReader reader(trace);
    session.ingest(reader);
    Session::Verdict v = session.finish();

    for (const WindowReport& w : v.windows)
      EXPECT_LE(w.store_bytes, config.memory_budget_mb << 20)
          << "jobs " << jobs << " window " << w.index;
    EXPECT_GT(v.governor.tuples_evicted, 0u) << "budget never engaged";

    if (baseline_summary.empty()) {
      baseline_summary = v.governor.summary();
      baseline_sigs = signatures_of(v.detection);
    } else {
      EXPECT_EQ(v.governor.summary(), baseline_summary) << "jobs " << jobs;
      EXPECT_EQ(signatures_of(v.detection), baseline_sigs)
          << "jobs " << jobs;
    }
  }
}

TEST(GovernorTest, PerWindowDetectionFaultIsContained) {
  Trace trace = ab_ba_trace(false);
  robust::FaultPlan fault;
  fault.detect_throw_window = 0;

  GovernorOptions options;
  options.window_events = 4;
  options.fault = &fault;
  Governor governed(options);
  for (const Event& e : trace.events) governed.add(e);
  Detection det = governed.finish();

  GovernorVerdict verdict = governed.verdict();
  EXPECT_EQ(verdict.detection_faults, 1u);
  // finish() re-enumerated over everything retained: the fault cost window
  // 0 its early surfacing, not final coverage.
  EXPECT_TRUE(verdict.coverage_complete);
  EXPECT_FALSE(det.cycles.empty());
  ASSERT_FALSE(governed.windows().empty());
  EXPECT_FALSE(governed.windows()[0].note.empty());
  EXPECT_TRUE(governed.windows()[0].degraded());
}

TEST(GovernorTest, FinalEnumerationFaultIsIncompleteNotClean) {
  Trace trace = ab_ba_trace(false);
  robust::FaultPlan fault;
  fault.detect_throw_final = true;
  GovernorOptions options;
  options.fault = &fault;
  Governor governed(options);
  for (const Event& e : trace.events) governed.add(e);
  Detection det = governed.finish();

  GovernorVerdict verdict = governed.verdict();
  EXPECT_TRUE(det.cycles.empty());
  // Window detection is unaffected; the final enumeration's fault is the
  // one that loses coverage.
  EXPECT_EQ(verdict.detection_faults, 1u);
  EXPECT_FALSE(verdict.coverage_complete)
      << "an empty report after a failed final enumeration must not look "
         "like a clean bill of health";
}

// ---------------------------------------------- incremental SCC pre-filter

using Partition = std::set<std::vector<DynamicScc::Node>>;

Partition oracle_partition(const DynamicScc& scc) {
  Partition p;
  for (std::vector<DynamicScc::Node> comp : scc.tarjan_components()) {
    std::sort(comp.begin(), comp.end());
    p.insert(std::move(comp));
  }
  return p;
}

Partition label_partition(const DynamicScc& scc) {
  Partition p;
  for (std::size_t c = 0; c < scc.component_capacity(); ++c) {
    if (!scc.component_alive(static_cast<int>(c))) continue;
    std::vector<DynamicScc::Node> comp = scc.members(static_cast<int>(c));
    std::sort(comp.begin(), comp.end());
    p.insert(std::move(comp));
  }
  return p;
}

// Random insert/expire interleavings through the LockGraph's tuple surface,
// with the differential oracle checked after EVERY mutation: the maintained
// decomposition must equal a fresh Tarjan over the same adjacency, and the
// incremental verdict must stay sound versus a graph rebuilt from only the
// live tuples (staleness may only ever point toward "more suspicious").
class LockGraphMutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LockGraphMutationFuzz, CondensationEqualsFreshTarjanAfterEveryStep) {
  Rng rng(0x10c6 + static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL);
  LockGraph g;
  std::vector<LockTuple> live;
  const int lock_universe = 3 + static_cast<int>(rng.below(5));
  SiteId next_site = 1;
  const int steps = 60;
  for (int s = 0; s < steps; ++s) {
    if (!live.empty() && rng.chance(0.4)) {
      const std::size_t pick = rng.below(live.size());
      g.on_tuple_removed(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      LockTuple t;
      t.thread = static_cast<ThreadId>(1 + rng.below(3));
      t.lock = static_cast<LockId>(rng.below(
          static_cast<std::uint64_t>(lock_universe)));
      const std::size_t depth = 1 + rng.below(3);
      for (std::size_t d = 0; d < depth; ++d) {
        const LockId held = static_cast<LockId>(
            rng.below(static_cast<std::uint64_t>(lock_universe)));
        if (std::find(t.lockset.begin(), t.lockset.end(), held) !=
            t.lockset.end())
          continue;
        t.lockset.push_back(held);
        ExecIndex idx;
        idx.site = next_site++;
        idx.occurrence = 1;
        t.context.push_back(idx);
      }
      if (t.lockset.empty()) continue;
      ExecIndex idx;
      idx.site = next_site++;
      idx.occurrence = 1;
      t.context.push_back(idx);
      g.on_tuple(t);
      live.push_back(std::move(t));
    }
    ASSERT_EQ(label_partition(g.scc()), oracle_partition(g.scc()))
        << "seed " << GetParam() << " step " << s;

    // Soundness of the (stale-refinement) incremental verdict: a graph
    // rebuilt from exactly the live tuples may only be LESS suspicious.
    LockGraph fresh;
    for (const LockTuple& t : live) fresh.on_tuple(t);
    if (fresh.suspicious()) {
      ASSERT_TRUE(g.suspicious())
          << "seed " << GetParam() << " step " << s
          << ": incremental verdict cleared a live suspicious graph";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockGraphMutationFuzz,
                         ::testing::Range(0, 200));

TEST(PrefilterTest, DirtyDrainReturnsSuspiciousLocksExactlyOnce) {
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(ab_ba_trace(false));
  for (const LockTuple& t : dep.tuples) g.on_tuple(t);
  ASSERT_TRUE(g.has_dirty());
  std::vector<LockId> locks = g.drain_dirty_suspicious_locks();
  std::set<LockId> lock_set(locks.begin(), locks.end());
  EXPECT_EQ(lock_set, (std::set<LockId>{10, 20}));
  // Caught up: nothing dirty, second drain is empty.
  EXPECT_FALSE(g.has_dirty());
  EXPECT_TRUE(g.drain_dirty_suspicious_locks().empty());
  // A re-fed identical edge-bearing tuple still re-marks its component (it
  // could be a brand-new canonical tuple in a stable SCC). Tuples with an
  // empty lockset carry no edge and leave no mark.
  for (const LockTuple& t : dep.tuples)
    if (!t.lockset.empty()) {
      g.on_tuple(t);
      break;
    }
  EXPECT_TRUE(g.has_dirty());
}

TEST(PrefilterTest, ExpiryToZeroRefcountRemovesTheEdgeAndVerdict) {
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(ab_ba_trace(false));
  for (const LockTuple& t : dep.tuples) g.on_tuple(t);
  ASSERT_TRUE(g.suspicious());
  const std::size_t edges = g.edge_count();
  // Remove every contributing tuple: the AB/BA SCC must dissolve.
  for (const LockTuple& t : dep.tuples)
    if (!t.lockset.empty()) g.on_tuple_removed(t);
  EXPECT_LT(g.edge_count(), edges);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.suspicious());
  EXPECT_EQ(g.suspicious_scc_count(), 0u);
}

TEST(GovernorTest, GovernedRunMatchesBatchDetectBitForBit) {
  // The governed run against its oracle, batch detect() over the same
  // stream, across window sizes and with a budget tight enough to force
  // compaction + eviction churn: complete coverage means the final cycles
  // ARE batch's (same tuple_idx sequence), a run that evicted nothing
  // surfaced every batch signature live before finish().
  Trace trace;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 400; ++rep) {
    const ThreadId t = static_cast<ThreadId>(1 + (rep & 1));
    trace.events.push_back(acquire(t, 10, site++));
    trace.events.push_back(acquire(t, 20, site++));
    trace.events.push_back(release(t, 20));
    trace.events.push_back(release(t, 10));
    if (rep % 50 == 49) {
      // Sprinkle the AB/BA ring through the stream, beside a disjoint copy
      // on {30, 40}: two independent suspicious SCCs in one window, so the
      // window's single enumeration spans several dirty components.
      for (Event e : ab_ba_trace(false).events) {
        if (e.lock == 10) e.lock = 30;
        if (e.lock == 20) e.lock = 40;
        trace.events.push_back(e);
      }
      for (const Event& e : ab_ba_trace(false).events)
        trace.events.push_back(e);
    }
  }
  for (Event& e : trace.events) e.seq = seq++;
  const Detection batch = detect(trace);
  ASSERT_FALSE(batch.cycles.empty());

  for (std::size_t window : {std::size_t{16}, std::size_t{256}}) {
    for (std::size_t budget_mb : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE(::testing::Message()
                   << "window " << window << " budget " << budget_mb);
      GovernorOptions options;
      options.window_events = window;
      options.memory_budget_mb = budget_mb;
      std::set<DefectSignature> live;
      options.on_cycle = [&live](const LiveCycle& lc) {
        live.insert(signature_of(*lc.cycle, *lc.dep));
      };
      Governor governed(options);
      for (const Event& e : trace.events) governed.add(e);
      Detection det = governed.finish();
      const GovernorVerdict verdict = governed.verdict();

      if (verdict.coverage_complete) {
        ASSERT_EQ(det.cycles.size(), batch.cycles.size());
        for (std::size_t i = 0; i < det.cycles.size(); ++i)
          EXPECT_EQ(det.cycles[i].tuple_idx, batch.cycles[i].tuple_idx);
      }
      if (verdict.tuples_evicted == 0) {
        EXPECT_EQ(live, signatures_of(batch));
      }
    }
  }
}

TEST(GovernorTest, LiveSubscriberSeesEveryCycleBeforeFinish) {
  Trace trace = ab_ba_trace(false);
  GovernorOptions options;
  options.window_events = 4;

  struct Sighting {
    std::size_t window;
    std::size_t sequence;
    DefectSignature signature;
  };
  std::vector<Sighting> sightings;
  bool finished = false;
  options.on_cycle = [&](const LiveCycle& lc) {
    EXPECT_FALSE(finished) << "LiveCycle delivered after finish()";
    sightings.push_back(
        {lc.window, lc.sequence, signature_of(*lc.cycle, *lc.dep)});
  };
  Governor subscribed(options);
  for (const Event& e : trace.events) subscribed.add(e);
  Detection sub_det = subscribed.finish();
  finished = true;

  options.on_cycle = nullptr;
  Governor plain(options);
  for (const Event& e : trace.events) plain.add(e);
  Detection plain_det = plain.finish();

  // Every committed cycle was surfaced mid-run, in sequence order, and the
  // surfaced set is exactly what batch detection finds.
  ASSERT_FALSE(sub_det.cycles.empty());
  ASSERT_EQ(sightings.size(), sub_det.cycles.size());
  EXPECT_EQ(subscribed.cycles_surfaced_live(), sightings.size());
  std::set<DefectSignature> surfaced;
  for (std::size_t i = 0; i < sightings.size(); ++i) {
    EXPECT_EQ(sightings[i].sequence, i + 1);
    surfaced.insert(sightings[i].signature);
  }
  EXPECT_EQ(surfaced, signatures_of(sub_det));
  EXPECT_EQ(surfaced, signatures_of(detect(trace)));

  // Subscription is observation-only: finish() is identical.
  EXPECT_EQ(sub_det.cycles.size(), plain_det.cycles.size());
  for (std::size_t i = 0; i < sub_det.cycles.size(); ++i)
    EXPECT_EQ(sub_det.cycles[i].tuple_idx, plain_det.cycles[i].tuple_idx);
  EXPECT_EQ(signatures_of(sub_det), signatures_of(plain_det));
  EXPECT_EQ(subscribed.verdict().coverage_complete,
            plain.verdict().coverage_complete);
}

TEST(GovernorTest, ThrowingSubscriberIsContainedAsAWindowFault) {
  Trace trace = ab_ba_trace(false);
  GovernorOptions options;
  options.window_events = 4;
  options.on_cycle = [](const LiveCycle&) {
    throw std::runtime_error("subscriber exploded");
  };
  Governor governed(options);
  for (const Event& e : trace.events) governed.add(e);
  Detection det = governed.finish();

  GovernorVerdict verdict = governed.verdict();
  EXPECT_GE(verdict.detection_faults, 1u);
  // finish() never delivers to the subscriber, so the authoritative pass
  // is untouched: full coverage, cycles present.
  EXPECT_TRUE(verdict.coverage_complete);
  EXPECT_FALSE(det.cycles.empty());
}

TEST(PrefilterTest, UndrainedDirtyMarksAccumulateAcrossWindows) {
  // The governor's catch-up contract: a kPrefilterOnly window skips the
  // drain, so the marks must still be there — folded onto current labels —
  // when a later promoted window finally drains. Simulate three windows of
  // feeding without draining, then one drain must cover everything.
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(ab_ba_trace(false));
  std::size_t fed = 0;
  for (const LockTuple& t : dep.tuples) {
    g.on_tuple(t);  // one "window" per tuple, never drained
    if (!t.lockset.empty()) {
      ++fed;
      ASSERT_TRUE(g.has_dirty()) << "mark lost after tuple " << fed;
    }
  }
  ASSERT_GE(fed, 2u);
  std::vector<LockId> locks = g.drain_dirty_suspicious_locks();
  std::set<LockId> lock_set(locks.begin(), locks.end());
  EXPECT_EQ(lock_set, (std::set<LockId>{10, 20}));
  EXPECT_FALSE(g.has_dirty());
}

// ----------------------------------------------------- degradation ladder

TEST(LadderTest, NoDeadlineNeverMoves) {
  int streak = 0;
  EXPECT_EQ(next_rung(DetectionLevel::kFullScc, 1e9, 0, streak),
            DetectionLevel::kFullScc);
}

TEST(LadderTest, DemotesOnMissAndStopsAtPrefilterOnly) {
  int streak = 5;
  DetectionLevel level = DetectionLevel::kFullScc;
  level = next_rung(level, 0.2, 100, streak);  // 200ms > 100ms deadline
  EXPECT_EQ(level, DetectionLevel::kClockPruned);
  EXPECT_EQ(streak, 0);
  level = next_rung(level, 0.2, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly);
  level = next_rung(level, 0.2, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly)
      << "deadline pressure never reaches kShedding";
}

TEST(LadderTest, PromotesOnlyAfterTwoConsecutiveFastWindows) {
  int streak = 0;
  DetectionLevel level = DetectionLevel::kPrefilterOnly;
  level = next_rung(level, 0.01, 100, streak);  // fast #1
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly);
  level = next_rung(level, 0.01, 100, streak);  // fast #2 -> promote
  EXPECT_EQ(level, DetectionLevel::kClockPruned);
  // A merely-adequate window (over deadline/2) resets the streak.
  level = next_rung(level, 0.07, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kClockPruned);
  level = next_rung(level, 0.01, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kClockPruned)
      << "one fast window after a reset must not promote";
  level = next_rung(level, 0.01, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kFullScc);
}

TEST(LadderTest, DeadlinePressureDemotesARealRun) {
  // An effectively-zero deadline (1ms against per-window enumeration of a
  // growing store) must walk the ladder down; the verdict reports the
  // demotion without losing final coverage.
  Trace trace;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 100; ++rep) {
    for (const Event& e : ab_ba_trace(false).events) {
      trace.events.push_back(e);
      trace.events.back().site =
          trace.events.back().site == kInvalidSite ? kInvalidSite : site++;
      trace.events.back().seq = seq++;
    }
  }
  GovernorOptions options;
  options.window_events = 64;
  options.window_deadline_ms = 0;  // ungoverned reference
  Governor reference(options);
  for (const Event& e : trace.events) reference.add(e);
  Detection expected = reference.finish();

  options.window_deadline_ms = 1;
  Governor governed(options);
  for (const Event& e : trace.events) governed.add(e);
  Detection got = governed.finish();

  EXPECT_EQ(signatures_of(got), signatures_of(expected))
      << "ladder demotions must not change the final detection";
  EXPECT_TRUE(governed.verdict().coverage_complete);
}

// ------------------------------------------------------------ end-to-end

TEST(GovernorTest, GovernedPipelineOnPaperWorkload) {
  workloads::Figure4 example = workloads::make_figure4();
  auto trace = sim::record_trace(example.program, 3, 40);
  ASSERT_TRUE(trace.has_value());

  Config config;
  config.jobs = 1;
  config.replay.attempts = 4;
  config.window_events = 16;
  config.live = true;  // governed, with no budget or deadline to bite
  const WolfOptions options = config.wolf_options();

  VectorTraceReader reader(*trace);
  Session session = Session::open(config);
  WolfReport report =
      analyze_session(example.program, session, reader, options);
  EXPECT_TRUE(report.governed);
  EXPECT_GT(report.governor.windows, 0u);
  EXPECT_TRUE(report.governor.coverage_complete);

  WolfReport batch = analyze_trace(example.program, *trace, options);
  EXPECT_EQ(report.detection.cycles.size(), batch.detection.cycles.size());
  EXPECT_EQ(report.defects.size(), batch.defects.size());
}

}  // namespace
}  // namespace wolf
