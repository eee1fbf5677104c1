#include "core/governor.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"
#include "support/rng.hpp"

namespace wolf {

namespace {

const obs::Counter kWindowsCounter("governor.windows");
const obs::Counter kSuspiciousCounter("governor.windows_suspicious");
const obs::Counter kCompactionsCounter("governor.compactions");
const obs::Counter kEvictedCounter("governor.tuples_evicted");
const obs::Counter kFaultsCounter("governor.detection_faults");
// Rung changes depend on wall-clock latency, so this one is excluded from
// the byte-stable metrics report.
const obs::Counter kDegradedCounter("governor.windows_degraded",
                                    /*stable=*/false);

// Keep at most this many notes in the verdict; chaos schedules can fault
// every window and the verdict must stay O(1)-readable.
constexpr std::size_t kMaxNotes = 16;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

std::uint64_t cycle_key(const PotentialDeadlock& cycle,
                        const LockDependency& dep) {
  DefectSignature sig = signature_of(cycle, dep);
  std::uint64_t h = 0x90be17a9c0bef5ULL ^ sig.size();
  for (SiteId s : sig)
    h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)));
  // Fold in the thread multiset so distinct cycles over the same sites
  // still count separately.
  std::vector<ThreadId> threads;
  threads.reserve(cycle.tuple_idx.size());
  for (std::size_t idx : cycle.tuple_idx)
    threads.push_back(dep.tuples[idx].thread);
  std::sort(threads.begin(), threads.end());
  for (ThreadId t : threads)
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)) +
                   0x9e3779b97f4a7c15ULL));
  return h;
}

}  // namespace

const char* to_string(DetectionLevel level) {
  switch (level) {
    case DetectionLevel::kFullScc:
      return "full-scc";
    case DetectionLevel::kClockPruned:
      return "clock-pruned";
    case DetectionLevel::kPrefilterOnly:
      return "prefilter-only";
    case DetectionLevel::kShedding:
      return "shedding";
  }
  return "?";
}

std::string GovernorVerdict::summary() const {
  std::ostringstream os;
  if (coverage_complete && degraded_windows == 0) {
    os << "coverage complete: " << windows << " windows, "
       << suspicious_windows << " suspicious, level " << to_string(final_level);
  } else {
    os << (coverage_complete ? "DEGRADED" : "DEGRADED (coverage incomplete)")
       << ": " << windows << " windows, " << degraded_windows << " degraded, "
       << suspicious_windows << " suspicious";
    if (tuples_evicted > 0) os << ", " << tuples_evicted << " tuples evicted";
    if (detection_faults > 0) os << ", " << detection_faults << " detection faults";
    os << ", final level " << to_string(final_level);
  }
  return os.str();
}

DetectionLevel next_rung(DetectionLevel current, double detect_seconds,
                         std::int64_t deadline_ms, int& fast_streak) {
  if (deadline_ms <= 0) return current;
  // kShedding is a window marker, not a deadline rung; treat it as the
  // cheapest real rung if a caller ever passes it in.
  if (current == DetectionLevel::kShedding)
    current = DetectionLevel::kPrefilterOnly;
  const double deadline = static_cast<double>(deadline_ms) / 1000.0;
  if (detect_seconds > deadline) {
    fast_streak = 0;
    if (current == DetectionLevel::kPrefilterOnly) return current;
    return static_cast<DetectionLevel>(static_cast<int>(current) + 1);
  }
  if (detect_seconds < deadline / 2.0) {
    if (++fast_streak >= 2 && current != DetectionLevel::kFullScc) {
      fast_streak = 0;
      return static_cast<DetectionLevel>(static_cast<int>(current) - 1);
    }
  } else {
    fast_streak = 0;
  }
  return current;
}

std::size_t tuple_bytes(const LockTuple& tuple) {
  return sizeof(LockTuple) + tuple.lockset.capacity() * sizeof(LockId) +
         tuple.context.capacity() * sizeof(ExecIndex);
}

Governor::Governor(const GovernorOptions& options) : options_(options) {
  if (options_.window_events == 0) options_.window_events = 65536;
}

void Governor::add(const Event& e) {
  // Malformed input containment: a semantically inconsistent event (e.g. a
  // release of a lock the thread does not hold, from a corrupted live feed)
  // fires an invariant check inside the builder. The builder commits its
  // tuple before mutating held-lock state, so its store is still consistent
  // after the throw — stop ingesting, keep what was built, and report the
  // run as incomplete rather than crashing or silently analyzing garbage.
  if (poisoned_) return;
  try {
    builder_.add(e);
  } catch (const std::exception& ex) {
    poisoned_ = true;
    if (verdict_.coverage_complete) {
      verdict_.coverage_complete = false;
      note_event(verdict_,
                 std::string("malformed event rejected, later input ignored: ") +
                     ex.what());
    }
    return;
  }
  const auto& tuples = builder_.pending().tuples;
  for (std::size_t i = tuples_fed_; i < tuples.size(); ++i) {
    prefilter_.on_tuple(tuples[i]);
    store_bytes_ += tuple_bytes(tuples[i]);
    tuples_by_lock_[tuples[i].lock].push_back(i);
  }
  tuples_fed_ = tuples.size();
  if (++window_events_ >= options_.window_events) close_window();
}

void Governor::add_block(const std::vector<Event>& events) {
  for (const Event& e : events) add(e);
}

void Governor::note_event(GovernorVerdict& v, std::string note) const {
  if (v.notes.size() < kMaxNotes) {
    v.notes.push_back(std::move(note));
  } else if (v.notes.size() == kMaxNotes) {
    v.notes.push_back("(further notes suppressed)");
  }
}

void Governor::surface_new_cycles(const Detection& det, WindowReport& w) {
  for (const PotentialDeadlock& cycle : det.cycles) {
    const std::uint64_t key = cycle_key(cycle, det.dep);
    if (std::find(seen_cycle_keys_.begin(), seen_cycle_keys_.end(), key) !=
        seen_cycle_keys_.end())
      continue;
    seen_cycle_keys_.push_back(key);
    ++w.new_cycles;
    ++live_cycles_;
    if (options_.on_cycle) {
      LiveCycle lc;
      lc.window = w.index;
      lc.sequence = live_cycles_;
      lc.cycle = &cycle;
      lc.dep = &det.dep;
      options_.on_cycle(lc);
    }
  }
}

void Governor::run_window_detection(WindowReport& w) {
  if (options_.fault != nullptr &&
      options_.fault->detect_throw_window == static_cast<int>(w.index)) {
    throw std::runtime_error("injected detection fault (window " +
                             std::to_string(w.index) + ")");
  }

  DetectorOptions opt = options_.detector;
  if (w.level == DetectionLevel::kClockPruned)
    opt.clock_prune_during_search = true;

  // Nothing marked dirty since the last boundary ⇒ nothing to re-examine.
  if (!prefilter_.has_dirty()) return;
  w.suspicious = prefilter_.suspicious();
  if (!w.suspicious) {
    // All dirty components are benign; consume their marks (any change that
    // could flip a verdict later will re-mark).
    prefilter_.drain_dirty_suspicious_locks();
    return;
  }
  // At a non-enumerating rung keep the marks queued: a later promoted
  // window drains the accumulated dirt and catches up.
  if (w.level >= DetectionLevel::kPrefilterOnly) return;

  // A cycle's requested locks all lie in one lock-graph SCC, so the tuples
  // whose request lock belongs to a dirty suspicious SCC form a complete
  // enumeration domain for every cycle those SCCs could newly carry. An
  // empty drain means the suspicious SCCs are all unchanged.
  std::vector<std::size_t> subset;
  for (LockId lock : prefilter_.drain_dirty_suspicious_locks()) {
    auto it = tuples_by_lock_.find(lock);
    if (it == tuples_by_lock_.end()) continue;
    subset.insert(subset.end(), it->second.begin(), it->second.end());
  }
  if (subset.empty()) return;
  std::sort(subset.begin(), subset.end());  // canonical trace order
  surface_new_cycles(finish_detection(builder_.snapshot_subset(subset),
                                      builder_.clocks(), opt),
                     w);
}

void Governor::recompute_store_bytes() {
  store_bytes_ = 0;
  for (const LockTuple& t : builder_.pending().tuples)
    store_bytes_ += tuple_bytes(t);
}

void Governor::rebuild_lock_index() {
  tuples_by_lock_.clear();
  const auto& tuples = builder_.pending().tuples;
  for (std::size_t i = 0; i < tuples.size(); ++i)
    tuples_by_lock_[tuples[i].lock].push_back(i);
}

void Governor::govern_memory(WindowReport& w) {
  if (options_.memory_budget_mb == 0) return;
  const std::size_t budget = options_.memory_budget_mb << 20;
  if (store_bytes_ <= budget) return;

  // Every dropped tuple is reported to the pre-filter so its lock-graph edge
  // refcounts (and hence SCCs) track the live store.
  const LockDependencyBuilder::RemovalHook expire =
      [this](const LockTuple& t) { prefilter_.on_tuple_removed(t); };

  // Rung 1: compaction — lossless for the cycle set (enumeration runs over
  // the canonical view), so it is always tried first.
  w.tuples_compacted = builder_.compact(expire);
  recompute_store_bytes();
  tuples_fed_ = builder_.pending().tuples.size();
  if (w.tuples_compacted > 0) kCompactionsCounter.add();
  if (store_bytes_ > budget) {
    // Rung 2: aging — evict the oldest tuples down to ~90% of the budget so
    // the next window has headroom. Lossy; the report must say so.
    const std::size_t live = builder_.pending().tuples.size();
    const std::size_t avg =
        live == 0 ? 1 : std::max<std::size_t>(1, store_bytes_ / live);
    const std::size_t max_tuples = (budget - budget / 10) / avg;
    w.tuples_evicted = builder_.evict_oldest(max_tuples, expire);
    recompute_store_bytes();
    tuples_fed_ = builder_.pending().tuples.size();
    if (w.tuples_evicted > 0) {
      w.level = DetectionLevel::kShedding;
      kEvictedCounter.add(w.tuples_evicted);
    }
  }
  if (w.tuples_compacted + w.tuples_evicted > 0) rebuild_lock_index();
}

void Governor::close_window() {
  WindowReport w;
  w.index = windows_.size();
  w.events = window_events_;
  w.level = rung_;
  const double t0 = now_seconds();
  try {
    run_window_detection(w);
  } catch (const std::exception& ex) {
    // Containment: a per-window enumeration fault loses only this window's
    // early surfacing — finish() re-enumerates over everything retained —
    // so coverage stays complete. It is still a degraded window.
    w.note = ex.what();
    ++verdict_.detection_faults;
    kFaultsCounter.add();
    note_event(verdict_, "window " + std::to_string(w.index) +
                             " detection fault: " + w.note);
  }
  w.detect_seconds = now_seconds() - t0;
  govern_memory(w);
  w.tuples_live = builder_.pending().tuples.size();
  w.store_bytes = store_bytes_;

  rung_ = next_rung(rung_, w.detect_seconds, options_.window_deadline_ms,
                    fast_streak_);

  ++verdict_.windows;
  kWindowsCounter.add();
  if (w.suspicious) {
    ++verdict_.suspicious_windows;
    kSuspiciousCounter.add();
  }
  verdict_.tuples_compacted += w.tuples_compacted;
  if (w.tuples_evicted > 0) {
    verdict_.tuples_evicted += w.tuples_evicted;
    if (verdict_.coverage_complete) {
      verdict_.coverage_complete = false;
      note_event(verdict_, "window " + std::to_string(w.index) +
                               ": memory budget forced eviction of " +
                               std::to_string(w.tuples_evicted) +
                               " tuples; coverage is incomplete from here");
    }
  }
  if (w.degraded()) {
    ++verdict_.degraded_windows;
    kDegradedCounter.add();
  }
  windows_.push_back(std::move(w));
  window_events_ = 0;
}

Detection Governor::finish() {
  if (window_events_ > 0) close_window();
  finished_ = true;
  verdict_.final_level = rung_;
  Detection det;
  try {
    LockDependency dep = builder_.take_dependency();
    ClockTracker clocks = builder_.clocks();
    builder_.clear();
    tuples_by_lock_.clear();
    if (options_.fault != nullptr && options_.fault->detect_throw_final)
      throw std::runtime_error("injected final detection fault");
    det = finish_detection(std::move(dep), std::move(clocks),
                           options_.detector);
  } catch (const std::exception& ex) {
    // The authoritative enumeration failed: the empty cycle set below is
    // NOT a clean bill of health, and the verdict says so.
    ++verdict_.detection_faults;
    kFaultsCounter.add();
    verdict_.coverage_complete = false;
    note_event(verdict_,
               std::string("final detection fault: ") + ex.what());
    det = Detection{};
  }
  return det;
}

GovernorVerdict Governor::verdict() const {
  GovernorVerdict v = verdict_;
  if (!finished_) v.final_level = rung_;
  return v;
}

}  // namespace wolf
