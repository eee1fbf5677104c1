// Tests for D_σ reconstruction: lockset/context bookkeeping, re-entrancy,
// hand-over-hand release order, µ, deduplication and thread prefixes.
#include <gtest/gtest.h>

#include <map>

#include "core/lock_dependency.hpp"
#include "sim/scheduler.hpp"
#include "support/check.hpp"
#include "wolf.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

// Builds a trace from (kind, thread, site, lock) shorthand.
struct Step {
  EventKind kind;
  ThreadId thread;
  SiteId site;
  LockId lock;
};

Trace trace_of(std::initializer_list<Step> steps) {
  Trace trace;
  std::uint64_t seq = 0;
  std::map<std::pair<ThreadId, SiteId>, std::int32_t> occ;
  for (const Step& s : steps) {
    Event e;
    e.seq = seq++;
    e.kind = s.kind;
    e.thread = s.thread;
    e.site = s.site;
    e.occurrence = occ[{s.thread, s.site}]++;
    e.lock = s.lock;
    trace.events.push_back(e);
  }
  return trace;
}

constexpr EventKind A = EventKind::kLockAcquire;
constexpr EventKind R = EventKind::kLockRelease;

TEST(LockDependencyTest, SimpleNestedAcquisition) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 2u);

  const LockTuple& outer = dep.tuples[0];
  EXPECT_EQ(outer.thread, 0);
  EXPECT_TRUE(outer.lockset.empty());
  EXPECT_EQ(outer.lock, 10);
  ASSERT_EQ(outer.context.size(), 1u);
  EXPECT_EQ(outer.context[0].site, 1);

  const LockTuple& inner = dep.tuples[1];
  EXPECT_EQ(inner.lockset, std::vector<LockId>{10});
  EXPECT_EQ(inner.lock, 11);
  ASSERT_EQ(inner.context.size(), 2u);
  EXPECT_EQ(inner.context[0].site, 1);
  EXPECT_EQ(inner.context[1].site, 2);
}

TEST(LockDependencyTest, HandOverHandReleaseOrder) {
  // Acquire 10, acquire 11, release 10 (out of order), acquire 12.
  Trace trace = trace_of({{A, 0, 1, 10},
                          {A, 0, 2, 11},
                          {R, 0, 3, 10},
                          {A, 0, 4, 12},
                          {R, 0, 5, 12},
                          {R, 0, 6, 11}});
  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 3u);
  const LockTuple& third = dep.tuples[2];
  EXPECT_EQ(third.lockset, std::vector<LockId>{11});
  EXPECT_EQ(third.lock, 12);
}

TEST(LockDependencyTest, ReleaseOfUnheldLockThrows) {
  Trace trace = trace_of({{R, 0, 1, 10}});
  EXPECT_THROW(LockDependency::from_trace(trace), CheckFailure);
}

TEST(LockDependencyTest, MuMapsLocksetAndAcquiredLock) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {A, 0, 3, 12},
                          {R, 0, 4, 12}, {R, 0, 5, 11}, {R, 0, 6, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  const LockTuple& deepest = dep.tuples[2];
  EXPECT_EQ(deepest.mu(10).site, 1);
  EXPECT_EQ(deepest.mu(11).site, 2);
  EXPECT_EQ(deepest.mu(12).site, 3);  // the acquired lock itself
  EXPECT_THROW(deepest.mu(99), CheckFailure);
}

TEST(LockDependencyTest, HoldsChecksLocksetOnly) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_TRUE(dep.tuples[1].holds(10));
  EXPECT_FALSE(dep.tuples[1].holds(11));  // the acquired lock is not "held"
  EXPECT_FALSE(dep.tuples[0].holds(10));
}

TEST(LockDependencyTest, DedupCollapsesRepeatedContexts) {
  // The same nested pattern executed twice: 4 tuples, 2 canonical.
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}, {A, 0, 1, 10}, {A, 0, 2, 11},
                          {R, 0, 3, 11}, {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_EQ(dep.tuples.size(), 4u);
  EXPECT_EQ(dep.unique.size(), 2u);
  // Canonical representatives are the first occurrences.
  EXPECT_EQ(dep.unique[0], 0u);
  EXPECT_EQ(dep.unique[1], 1u);
}

TEST(LockDependencyTest, DifferentContextSitesStayDistinct) {
  // Same (thread, lock) but acquired from different sites.
  Trace trace = trace_of({{A, 0, 1, 10}, {R, 0, 2, 10}, {A, 0, 7, 10},
                          {R, 0, 8, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_EQ(dep.unique.size(), 2u);
}

TEST(LockDependencyTest, ThreadPrefixRespectsPositionAndThread) {
  Trace trace = trace_of({{A, 0, 1, 10}, {R, 0, 2, 10}, {A, 1, 3, 11},
                          {A, 0, 4, 12}, {R, 0, 5, 12}, {R, 1, 6, 11}});
  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 3u);
  // Prefix of thread 0 up to its second acquisition (trace position 3).
  auto prefix = dep.thread_prefix(0, 3);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(dep.tuples[prefix[0]].lock, 10);
  EXPECT_EQ(dep.tuples[prefix[1]].lock, 12);
  // Prefix cut before it.
  EXPECT_EQ(dep.thread_prefix(0, 2).size(), 1u);
  EXPECT_EQ(dep.thread_prefix(1, 2).size(), 1u);
}

TEST(LockDependencyTest, TimestampsComeFromClockTracker) {
  // start bumps the parent's τ between two acquisitions (Fig. 5's η2 vs η8).
  Trace trace;
  std::uint64_t seq = 0;
  auto push = [&](EventKind kind, ThreadId t, SiteId site, LockId lock,
                  ThreadId other) {
    Event e;
    e.seq = seq++;
    e.kind = kind;
    e.thread = t;
    e.site = site;
    e.lock = lock;
    e.other = other;
    trace.events.push_back(e);
  };
  push(EventKind::kThreadBegin, 0, kInvalidSite, kInvalidLock, kInvalidThread);
  push(A, 0, 1, 10, kInvalidThread);
  push(R, 0, 2, 10, kInvalidThread);
  push(EventKind::kThreadStart, 0, 3, kInvalidLock, 1);
  push(A, 0, 4, 10, kInvalidThread);
  push(R, 0, 5, 10, kInvalidThread);

  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 2u);
  EXPECT_EQ(dep.tuples[0].tau, 1);
  EXPECT_EQ(dep.tuples[1].tau, 2);
}

TEST(LockDependencyTest, OnlineSinkMatchesOfflineBuilder) {
  // The online bookkeeping — a wolf::Session fed event by event, as a
  // substrate's trace sink would — must agree exactly with the offline
  // reconstruction, on a real recorded workload.
  auto fig = workloads::make_figure4();
  auto trace = sim::record_trace(fig.program, 5);
  ASSERT_TRUE(trace.has_value());

  LockDependency offline = LockDependency::from_trace(*trace);
  Session session = Session::open(Config{});
  for (const Event& e : trace->events) ASSERT_TRUE(session.feed(e));
  LockDependency online = session.finish().detection.dep;

  ASSERT_EQ(online.tuples.size(), offline.tuples.size());
  for (std::size_t i = 0; i < online.tuples.size(); ++i) {
    EXPECT_EQ(online.tuples[i].thread, offline.tuples[i].thread);
    EXPECT_EQ(online.tuples[i].lock, offline.tuples[i].lock);
    EXPECT_EQ(online.tuples[i].lockset, offline.tuples[i].lockset);
    EXPECT_EQ(online.tuples[i].context, offline.tuples[i].context);
    EXPECT_EQ(online.tuples[i].tau, offline.tuples[i].tau);
  }
  EXPECT_EQ(online.unique, offline.unique);
}

TEST(LockDependencyTest, ToStringIsReadable) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  std::string s = dep.tuples[1].to_string();
  EXPECT_NE(s.find("t0"), std::string::npos);
  EXPECT_NE(s.find("l11"), std::string::npos);
}

}  // namespace
}  // namespace wolf
