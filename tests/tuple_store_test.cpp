// Differential tests for the interning D_σ store (core/lock_dependency.hpp)
// and the governor that runs on it (core/governor.hpp), against the
// array-of-structs oracles in testutil: test::ReferenceBuilder keeps one
// LockTuple per acquire and dedups by hashing keys, test::ReferenceGovernor
// feeds every tuple to the lock graph. Everything either hands out —
// relations, subsets, compaction and eviction results, window reports,
// verdicts, live cycles, final detections — must be identical.
//
// Inputs: recorded random programs repeated under several schedules (so
// every seed carries duplicates), plus generated lock streams with
// non-LIFO releases, one site acquiring many locks, a negative thread id,
// a release of an unheld lock mid-stream, and stores large enough that a
// 1 MiB budget compacts and evicts canonical rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/governor.hpp"
#include "core/lock_dependency.hpp"
#include "sim/scheduler.hpp"
#include "testutil.hpp"

namespace wolf {
namespace {

// ------------------------------------------------------------------ inputs

struct StreamShape {
  int threads = 3;
  int locks = 4;
  int sites = 2;      // site pool per nesting depth, shared by every lock
  int max_depth = 2;  // < locks, so an acquire always finds a free lock
  std::size_t events = 2000;
  double non_lifo = 0;  // chance a release picks any held lock, not the top
  // Draw depth d's lock from band d of the lock ids, so nested acquisitions
  // never order two locks both ways; cycles then come from rings only.
  bool ordered = false;
  double ring = 0;  // chance a step runs an AB/BA ring region at fixed sites
};

// A random, well-formed lock stream: thread 0 starts the others, then each
// step acquires or releases on a random thread. Sites are drawn per depth
// independently of the lock, so one site acquires many locks.
std::vector<Event> random_stream(Rng& rng, const StreamShape& shape) {
  std::vector<Event> out;
  auto emit = [&](Event e) {
    e.seq = out.size();
    out.push_back(e);
  };
  for (int t = 1; t < shape.threads; ++t) {
    Event e;
    e.kind = EventKind::kThreadStart;
    e.thread = 0;
    e.other = t;
    emit(e);
  }
  std::vector<std::vector<LockId>> held(
      static_cast<std::size_t>(shape.threads));
  std::map<std::pair<ThreadId, SiteId>, std::int32_t> occurrence;
  while (out.size() < shape.events) {
    const auto t = static_cast<ThreadId>(
        rng.below(static_cast<std::uint64_t>(shape.threads)));
    auto& stack = held[static_cast<std::size_t>(t)];
    Event e;
    e.thread = t;
    const auto depth = static_cast<int>(stack.size());
    if (stack.empty() && rng.chance(shape.ring)) {
      // Lock ids past every band: the ring's two locks, taken in an order
      // that depends on the thread's parity.
      const LockId first = shape.locks + (t & 1);
      const LockId second = shape.locks + 1 - (t & 1);
      const SiteId site = 1000 + 2 * (t & 1);
      for (const auto& [kind, lock, s] :
           {std::tuple{EventKind::kLockAcquire, first, site},
            std::tuple{EventKind::kLockAcquire, second, site + 1},
            std::tuple{EventKind::kLockRelease, second, kInvalidSite},
            std::tuple{EventKind::kLockRelease, first, kInvalidSite}}) {
        Event r = e;
        r.kind = kind;
        r.lock = lock;
        r.site = s;
        if (kind == EventKind::kLockAcquire) r.occurrence = occurrence[{t, s}]++;
        emit(r);
      }
      continue;
    }
    // Ordered streams take the band above the highest one held (a
    // non-LIFO release can leave a high band on a short stack).
    const int band = shape.locks / (shape.max_depth + 1);
    int next_band = 0;
    for (LockId held_lock : stack)
      next_band = std::max(next_band, held_lock / band + 1);
    const bool may_acquire = depth < shape.max_depth &&
                             (!shape.ordered || next_band <= shape.max_depth);
    if (stack.empty() || (may_acquire && rng.chance(0.55))) {
      LockId lock = 0;
      do {
        lock = shape.ordered
                   ? static_cast<LockId>(
                         next_band * band +
                         static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(band))))
                   : static_cast<LockId>(rng.below(
                         static_cast<std::uint64_t>(shape.locks)));
      } while (std::find(stack.begin(), stack.end(), lock) != stack.end());
      e.kind = EventKind::kLockAcquire;
      e.lock = lock;
      e.site = static_cast<SiteId>(
          1 + depth * shape.sites +
          static_cast<int>(rng.below(static_cast<std::uint64_t>(shape.sites))));
      e.occurrence = occurrence[{t, e.site}]++;
      stack.push_back(lock);
    } else {
      std::size_t i = stack.size() - 1;
      if (rng.chance(shape.non_lifo)) i = rng.index(stack);
      e.kind = EventKind::kLockRelease;
      e.lock = stack[i];
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
    }
    emit(e);
  }
  return out;
}

// One random program recorded under three schedules, back to back: every
// code path runs three times, so the store always sees duplicates.
std::vector<Event> repeated_program(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
  test::RandomProgramConfig config;
  config.workers = 2 + static_cast<int>(rng.below(3));
  config.locks = 2 + static_cast<int>(rng.below(3));
  const sim::Program program = test::random_program(rng, config);
  std::vector<Event> out;
  for (std::uint64_t run = 0; run < 3; ++run) {
    auto trace = sim::record_trace(program, rng(), 40);
    EXPECT_TRUE(trace.has_value()) << "seed " << seed;
    if (!trace) return out;
    for (Event e : trace->events) {
      e.seq = out.size();
      out.push_back(e);
    }
  }
  return out;
}

Event lock_event(EventKind kind, ThreadId t, LockId l, SiteId site,
                 std::int32_t occurrence = 0) {
  Event e;
  e.kind = kind;
  e.thread = t;
  e.lock = l;
  e.site = site;
  e.occurrence = occurrence;
  return e;
}

// ------------------------------------------------------------- comparisons

std::string describe(const LockTuple& t) {
  return t.to_string() + "@" + std::to_string(t.trace_pos);
}

void expect_same(const LockDependency& got, const LockDependency& want,
                 const std::string& where) {
  ASSERT_EQ(got.tuples.size(), want.tuples.size()) << where;
  for (std::size_t i = 0; i < got.tuples.size(); ++i) {
    const LockTuple& a = got.tuples[i];
    const LockTuple& b = want.tuples[i];
    ASSERT_TRUE(a.thread == b.thread && a.lock == b.lock &&
                a.lockset == b.lockset && a.context == b.context &&
                a.tau == b.tau && a.trace_pos == b.trace_pos)
        << where << ", tuple " << i << ": " << describe(a) << " vs "
        << describe(b);
  }
  ASSERT_EQ(got.unique, want.unique) << where;
}

// Check messages name the file and line that threw; the two builders live
// in different files.
std::string without_location(const std::string& s) {
  static const std::regex location(" at [^ ]+:[0-9]+");
  return std::regex_replace(s, location, "");
}

std::string describe(const WindowReport& w) {
  std::ostringstream os;
  os << "window " << w.index << ": events=" << w.events
     << " live=" << w.tuples_live << " bytes=" << w.store_bytes
     << " level=" << to_string(w.level) << " suspicious=" << w.suspicious
     << " new=" << w.new_cycles << " compacted=" << w.tuples_compacted
     << " evicted=" << w.tuples_evicted << " note=" << w.note;
  return os.str();
}

std::string describe(const GovernorVerdict& v) {
  std::ostringstream os;
  os << "complete=" << v.coverage_complete << " windows=" << v.windows
     << " suspicious=" << v.suspicious_windows
     << " degraded=" << v.degraded_windows
     << " compacted=" << v.tuples_compacted
     << " evicted=" << v.tuples_evicted << " faults=" << v.detection_faults
     << " level=" << to_string(v.final_level);
  for (const std::string& note : v.notes)
    os << " | " << without_location(note);
  return os.str();
}

// Feeds both builders the same events and compares every hand-out along the
// way: snapshots and random subsets at each checkpoint, a compaction or an
// eviction (of a random number of the oldest rows, canonical ones
// included) at some. Stops, as the governor does, at the first event both
// reject. Returns how many duplicates the input carried.
std::size_t check_builder(const std::vector<Event>& events,
                          std::uint64_t seed) {
  Rng rng(seed);
  LockDependencyBuilder got;
  test::ReferenceBuilder want;
  const std::size_t checkpoint = std::max<std::size_t>(1, events.size() / 12);
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    bool got_threw = false;
    bool want_threw = false;
    std::string got_what;
    std::string want_what;
    try {
      got.add(events[i]);
    } catch (const std::exception& ex) {
      got_threw = true;
      got_what = ex.what();
    }
    try {
      want.add(events[i]);
    } catch (const std::exception& ex) {
      want_threw = true;
      want_what = ex.what();
    }
    EXPECT_EQ(got_threw, want_threw) << "event " << i;
    EXPECT_EQ(without_location(got_what), without_location(want_what));
    if (got_threw || want_threw) break;
    if ((i + 1) % checkpoint != 0) continue;

    const std::string where = "after event " + std::to_string(i);
    const LockDependency snapshot = got.snapshot_dependency();
    expect_same(snapshot, want.snapshot_dependency(), where);
    duplicates = std::max(duplicates,
                          snapshot.tuples.size() - snapshot.unique.size());
    std::vector<std::size_t> subset;
    for (std::size_t j = 0; j < got.tuple_count(); ++j)
      if (rng.chance(0.4)) subset.push_back(j);
    expect_same(got.snapshot_subset(subset), want.snapshot_subset(subset),
                where + ", subset");
    switch (rng.below(3)) {
      case 0:
        EXPECT_EQ(got.compact(), want.compact()) << where;
        break;
      case 1: {
        const std::size_t keep = rng.below(got.tuple_count() + 1);
        EXPECT_EQ(got.evict_oldest(keep), want.evict_oldest(keep)) << where;
        break;
      }
      default:
        break;
    }
    expect_same(got.snapshot_dependency(), want.snapshot_dependency(),
                where + ", after governance");
  }
  EXPECT_EQ(got.tuple_count(), want.tuple_count());
  expect_same(got.take_dependency(), want.take_dependency(), "take");
  return duplicates;
}

struct GovernedRun {
  std::vector<std::string> windows;
  std::string verdict;
  std::vector<std::string> live;
  Detection detection;
  std::size_t compacted = 0;
  std::size_t evicted = 0;
};

GovernedRun run_governor(const std::vector<Event>& events,
                         const GovernorOptions& base) {
  GovernedRun run;
  GovernorOptions options = base;
  options.on_cycle = [&run](const LiveCycle& lc) {
    run.live.push_back(std::to_string(lc.window) + " #" +
                       std::to_string(lc.sequence) + ": " +
                       lc.cycle->to_string(*lc.dep));
  };
  Governor governor(options);
  for (const Event& e : events) governor.add(e);
  run.detection = governor.finish();
  for (const WindowReport& w : governor.windows())
    run.windows.push_back(describe(w));
  run.verdict = describe(governor.verdict());
  run.compacted = governor.verdict().tuples_compacted;
  run.evicted = governor.verdict().tuples_evicted;
  return run;
}

GovernedRun run_reference(const std::vector<Event>& events,
                          const GovernorOptions& options) {
  GovernedRun run;
  test::ReferenceGovernor governor(options);
  for (const Event& e : events) governor.add(e);
  run.detection = governor.finish();
  for (const WindowReport& w : governor.windows())
    run.windows.push_back(describe(w));
  run.verdict = describe(governor.verdict());
  run.live = governor.live();
  return run;
}

// Governed runs at budgets {0, 1 MiB} × windows {8, 256}. Returns the
// tuples compacted and evicted across the runs, so inputs sized to make the
// budget bite can assert that it did.
std::pair<std::size_t, std::size_t> check_governed(
    const std::vector<Event>& events) {
  std::size_t compacted = 0;
  std::size_t evicted = 0;
  for (std::size_t budget_mb : {std::size_t{0}, std::size_t{1}}) {
    for (std::size_t window : {std::size_t{8}, std::size_t{256}}) {
      GovernorOptions options;
      options.memory_budget_mb = budget_mb;
      options.window_events = window;
      const std::string where = "budget " + std::to_string(budget_mb) +
                                " MiB, window " + std::to_string(window);
      const GovernedRun got = run_governor(events, options);
      const GovernedRun want = run_reference(events, options);
      EXPECT_EQ(got.windows, want.windows) << where;
      EXPECT_EQ(got.verdict, want.verdict) << where;
      EXPECT_EQ(got.live, want.live) << where;
      expect_same(got.detection.dep, want.detection.dep, where);
      EXPECT_EQ(got.detection.cycles.size(), want.detection.cycles.size())
          << where;
      for (std::size_t c = 0; c < std::min(got.detection.cycles.size(),
                                           want.detection.cycles.size());
           ++c)
        EXPECT_EQ(got.detection.cycles[c].tuple_idx,
                  want.detection.cycles[c].tuple_idx)
            << where;
      EXPECT_EQ(got.detection.defects.size(), want.detection.defects.size())
          << where;
      compacted += got.compacted;
      evicted += got.evicted;
    }
  }
  return {compacted, evicted};
}

// ------------------------------------------------------------------- tests

class TupleStoreProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(TupleStoreProgramTest, MatchesTheArrayOfStructsStore) {
  const std::vector<Event> events = repeated_program(GetParam());
  ASSERT_FALSE(events.empty());
  EXPECT_GT(check_builder(events, static_cast<std::uint64_t>(GetParam())), 0u)
      << "every repeated program must carry duplicates";
  check_governed(events);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleStoreProgramTest,
                         ::testing::Range(0, 12));

TEST(TupleStoreTest, NonLifoReleasesMatch) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    StreamShape shape;
    shape.events = 1000;
    shape.non_lifo = 0.5;
    const std::vector<Event> events = random_stream(rng, shape);
    EXPECT_GT(check_builder(events, seed), 0u);
    check_governed(events);
  }
}

TEST(TupleStoreTest, OneSiteAcquiringManyLocksMatches) {
  // One site per depth and eight locks: keys differ only by lock, and
  // shapes of one key differ only by the locks held.
  Rng rng(9);
  StreamShape shape;
  shape.sites = 1;
  shape.locks = 6;
  shape.threads = 4;
  const std::vector<Event> events = random_stream(rng, shape);
  EXPECT_GT(check_builder(events, 9), 0u);
  check_governed(events);
}

TEST(TupleStoreTest, EvictedCanonicalRowHandsTheFlagToTheNextOccurrence) {
  LockDependencyBuilder got;
  test::ReferenceBuilder want;
  // t1 takes 10 then 20 at the same sites twice; t2 takes 30 once.
  std::vector<Event> events;
  for (std::int32_t occ = 0; occ < 2; ++occ) {
    events.push_back(lock_event(EventKind::kLockAcquire, 1, 10, 1, occ));
    events.push_back(lock_event(EventKind::kLockAcquire, 1, 20, 2, occ));
    events.push_back(lock_event(EventKind::kLockRelease, 1, 20, 3));
    events.push_back(lock_event(EventKind::kLockRelease, 1, 10, 4));
  }
  events.push_back(lock_event(EventKind::kLockAcquire, 2, 30, 5));
  for (const Event& e : events) {
    got.add(e);
    want.add(e);
  }
  ASSERT_EQ(got.tuple_count(), 5u);
  EXPECT_EQ(got.snapshot_dependency().unique,
            (std::vector<std::size_t>{0, 1, 4}));
  // Evicting rows 0 and 1 drops both canonical rows of t1's keys: their
  // second occurrences take over.
  EXPECT_EQ(got.evict_oldest(3), 2u);
  EXPECT_EQ(want.evict_oldest(3), 2u);
  const LockDependency after = got.snapshot_dependency();
  EXPECT_EQ(after.unique, (std::vector<std::size_t>{0, 1, 2}));
  expect_same(after, want.snapshot_dependency(), "after eviction");
  EXPECT_EQ(got.compact(), 0u);
}

TEST(TupleStoreTest, NegativeThreadIdPoisonsBothStoresAlike) {
  Rng rng(3);
  std::vector<Event> events = random_stream(rng, StreamShape{});
  events.insert(events.begin() + 700,
                lock_event(EventKind::kLockAcquire, -1, 2, 99));
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i;
  check_builder(events, 3);
  check_governed(events);
  Governor governor;
  for (const Event& e : events) governor.add(e);
  EXPECT_TRUE(governor.poisoned());
}

TEST(TupleStoreTest, PoisoningReleaseMidStreamMatches) {
  Rng rng(4);
  std::vector<Event> events = random_stream(rng, StreamShape{});
  events.insert(events.begin() + 1000,
                lock_event(EventKind::kLockRelease, 0, 77, kInvalidSite));
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i;
  check_builder(events, 4);
  check_governed(events);
  Governor governor;
  for (const Event& e : events) governor.add(e);
  EXPECT_TRUE(governor.poisoned());
  EXPECT_FALSE(governor.verdict().coverage_complete);
}

TEST(TupleStoreTest, BudgetCompactionMatches) {
  // Few sites: ~20k acquires over a few hundred keys outgrow 1 MiB of
  // duplicates, and compaction alone brings the store back under it.
  Rng rng(5);
  StreamShape shape;
  shape.threads = 4;
  shape.locks = 12;
  shape.sites = 4;
  shape.max_depth = 3;
  shape.events = 40000;
  shape.non_lifo = 0.1;
  shape.ordered = true;
  shape.ring = 0.01;
  const std::vector<Event> events = random_stream(rng, shape);
  check_builder(events, 5);
  const auto [compacted, evicted] = check_governed(events);
  EXPECT_GT(compacted, 0u);
  EXPECT_EQ(evicted, 0u);
}

TEST(TupleStoreTest, BudgetEvictionOfCanonicalRowsMatches) {
  // Thousands of sites: most keys are distinct, so compaction cannot keep
  // the store under 1 MiB and eviction drops canonical rows whose keys
  // occur again later.
  Rng rng(6);
  StreamShape shape;
  shape.threads = 3;
  shape.locks = 9;
  shape.sites = 1500;
  shape.events = 30000;
  shape.ordered = true;
  shape.ring = 0.01;
  const std::vector<Event> events = random_stream(rng, shape);
  check_builder(events, 6);
  EXPECT_GT(check_governed(events).second, 0u);
}

}  // namespace
}  // namespace wolf
