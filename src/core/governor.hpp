// Resource-governed online detection (DESIGN.md §14).
//
// Batch detection accumulates an unbounded D_σ and enumerates once at the
// end — fine for offline analysis, fatal for an always-on engine ingesting
// millions of events per second. Governor is the production shape behind
// every governed wolf::Session: ingestion is chopped into fixed-size event
// windows, and at every window boundary the governor
//
//   1. consults the linear-time sound pre-filter (core/prefilter.hpp) — the
//      expensive tuple-level cycle enumeration fires only on windows the
//      lock graph flags as suspicious, and only at ladder rungs that allow
//      it;
//   2. enforces the memory budget on the tuple store: first *compaction*
//      (dropping non-canonical duplicate tuples — lossless for cycle
//      enumeration, which runs over the canonical view), then, only if the
//      budget is still exceeded, *aging* (evicting the oldest tuples —
//      lossy, and therefore reported);
//   3. drives the degradation ladder off the window's detection latency:
//
//          kFullScc → kClockPruned → kPrefilterOnly   (deadline pressure)
//                                      kShedding      (memory pressure)
//
//      A window that blows its deadline demotes the rung; two consecutive
//      comfortably-fast windows promote it back (hysteresis). kClockPruned
//      folds the Pruner's clock cut into the per-window search — cheaper,
//      and principled: the cycles it skips are exactly the ones the Pruner
//      would prove infeasible. kPrefilterOnly stops per-window enumeration
//      entirely; windows are still flagged. kShedding is not a rung the
//      deadline reaches — it marks windows where aging evicted tuples.
//
// Honesty contract (the same one --max-cycles truncation already honors):
// every downgrade is surfaced. Each window produces a WindowReport; the
// run produces a GovernorVerdict whose coverage_complete is true iff the
// final Detection provably equals what batch analysis of the same event
// stream would produce — no eviction, no detection fault. Per-window
// enumeration faults (injected or real) degrade only that window's early
// surfacing; finish() re-enumerates over everything retained, so they do
// not lose final coverage. A fault *in* finish() does, and flips
// coverage_complete.
//
// Per-window enumeration is *incremental* (DESIGN.md §16): the pre-filter
// maintains its SCC decomposition under tuple arrival and expiry
// (graph/dynamic_scc.hpp), and a window enumerates only the tuples whose
// request lock lies in a *dirty* suspicious SCC — one whose membership,
// edges, or fed tuples changed since the last enumerating window — through
// LockDependencyBuilder::snapshot_subset. finish() enumerates everything
// retained, so the window path only decides *when* a cycle surfaces, never
// *whether* it is reported. Windows can surface each first-sighted cycle to
// a CycleSubscriber the moment it is found.
//
// Window and final enumeration run serially on the ingesting thread
// (DESIGN.md §17).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/detector.hpp"
#include "core/prefilter.hpp"
#include "robust/fault.hpp"

namespace wolf {

// The degradation ladder, cheapest-last. Numeric order is demotion order.
enum class DetectionLevel : std::uint8_t {
  kFullScc = 0,        // suspicious windows get full cycle enumeration
  kClockPruned = 1,    // enumeration with the in-search clock cut
  kPrefilterOnly = 2,  // windows only flagged; enumeration deferred
  kShedding = 3,       // memory pressure: oldest tuples evicted (lossy)
};
const char* to_string(DetectionLevel level);

// One cycle surfaced mid-run by per-window enumeration, delivered to the
// subscriber at window granularity on its *first* sighting (finish() never
// re-delivers). The pointers borrow the window's transient detection state
// and are valid only for the duration of the callback — copy what you keep.
struct LiveCycle {
  std::size_t window = 0;    // WindowReport::index that surfaced it
  std::size_t sequence = 0;  // 1-based count of cycles surfaced so far
  const PotentialDeadlock* cycle = nullptr;
  const LockDependency* dep = nullptr;  // the enumeration's tuple view
};

// Subscription must be observation-only: finish() returns byte-identical
// results whether or not a subscriber is attached. A throwing subscriber is
// contained like any per-window detection fault (that window degrades; the
// final enumeration still covers everything retained).
using CycleSubscriber = std::function<void(const LiveCycle&)>;

struct GovernorOptions {
  // Tuple-store budget in MiB; 0 = unbounded (the store grows like batch
  // detection's). Approximate accounting — see tuple_bytes().
  std::size_t memory_budget_mb = 0;
  // Events per detection window. Also the granularity of budget and
  // deadline enforcement.
  std::size_t window_events = 65536;
  // Wall-clock budget for one window's detection work; 0 = no deadline
  // (the ladder never demotes).
  std::int64_t window_deadline_ms = 0;
  // Engine configuration for per-window and final enumeration.
  DetectorOptions detector;
  // Live cycle surfacing: invoked once per first-sighted cycle at window
  // granularity; empty = no mid-run surfacing. Never changes what finish()
  // returns.
  CycleSubscriber on_cycle;
  // Injected faults (robust/fault.hpp): detect_throw_window exercises the
  // per-window containment path, detect_throw_final the final-enumeration
  // one. Not owned.
  const robust::FaultPlan* fault = nullptr;
};

// What happened in one window — the structured, honestly-reported verdict
// of the degradation machinery.
struct WindowReport {
  std::size_t index = 0;
  std::size_t events = 0;       // events ingested in this window
  std::size_t tuples_live = 0;  // tuples retained after governance
  std::size_t store_bytes = 0;  // approx store footprint after governance
  DetectionLevel level = DetectionLevel::kFullScc;  // rung the window ran at
  bool suspicious = false;      // pre-filter verdict for this window
  std::size_t new_cycles = 0;   // cycles first surfaced in this window
  std::size_t tuples_compacted = 0;
  std::size_t tuples_evicted = 0;  // > 0 ⇒ lossy (level == kShedding)
  double detect_seconds = 0;    // detection latency of this window
  std::string note;             // fault/failure detail; empty when clean

  bool degraded() const {
    return level != DetectionLevel::kFullScc || tuples_evicted > 0 ||
           !note.empty();
  }
};

// Run-level roll-up. coverage_complete is the load-bearing bit: when true,
// the final Detection covers exactly what batch analysis would.
struct GovernorVerdict {
  bool coverage_complete = true;
  std::size_t windows = 0;
  std::size_t suspicious_windows = 0;
  std::size_t degraded_windows = 0;
  std::size_t tuples_compacted = 0;
  std::size_t tuples_evicted = 0;
  std::size_t detection_faults = 0;
  DetectionLevel final_level = DetectionLevel::kFullScc;
  std::vector<std::string> notes;  // one per fault/degradation event (capped)

  bool degraded() const { return degraded_windows > 0 || !coverage_complete; }
  std::string summary() const;  // one human-readable line
};

// Pure ladder-transition rule, exposed for deterministic tests: given the
// current rung, one window's detection latency and the deadline, returns
// the next rung and updates the promote-hysteresis streak (demote resets
// it; promotion requires two consecutive windows under half the deadline).
DetectionLevel next_rung(DetectionLevel current, double detect_seconds,
                         std::int64_t deadline_ms, int& fast_streak);

// Approximate heap footprint of one stored tuple (vector capacities
// included) — the unit of the governor's memory accounting.
std::size_t tuple_bytes(const LockTuple& tuple);

class Governor {
 public:
  explicit Governor(const GovernorOptions& options = {});

  void add(const Event& e);
  void add_block(const std::vector<Event>& events);

  std::size_t events_seen() const { return builder_.events_seen(); }
  std::size_t store_bytes() const { return store_bytes_; }
  DetectionLevel level() const { return rung_; }
  // True once a malformed event fired a builder invariant: ingestion has
  // stopped and the verdict is honestly incomplete.
  bool poisoned() const { return poisoned_; }
  const std::vector<WindowReport>& windows() const { return windows_; }
  // Cycles surfaced by per-window enumeration so far (first sightings; the
  // number of LiveCycle deliveries when a subscriber is attached).
  std::size_t cycles_surfaced_live() const { return live_cycles_; }

  // Closes the trailing partial window, runs the authoritative enumeration
  // over every retained tuple and returns the completed Detection. The
  // verdict is final after this call. Never throws on detection failure —
  // a fault there yields an empty cycle set and coverage_complete = false.
  Detection finish();

  // Valid (final) after finish(); before that it reflects windows so far.
  GovernorVerdict verdict() const;

 private:
  void close_window();
  // Pre-filter + (rung-permitting) enumeration for the closing window.
  void run_window_detection(WindowReport& w);
  // First-sighting dedup + subscriber delivery for one window's detection.
  void surface_new_cycles(const Detection& det, WindowReport& w);
  // Budget enforcement: compaction, then aging. Updates store_bytes_.
  void govern_memory(WindowReport& w);
  void recompute_store_bytes();
  // Re-keys tuples_by_lock_ after compaction/eviction renumbered the store.
  void rebuild_lock_index();
  void note_event(GovernorVerdict& v, std::string note) const;

  GovernorOptions options_;
  LockDependencyBuilder builder_;
  LockGraph prefilter_;
  std::vector<WindowReport> windows_;
  GovernorVerdict verdict_;
  bool finished_ = false;
  // Set when an event fired a builder invariant check (malformed input,
  // e.g. from a corrupted live feed): ingestion stops, coverage_complete is
  // cleared, and finish() analyzes only what was consistently built.
  bool poisoned_ = false;

  DetectionLevel rung_ = DetectionLevel::kFullScc;
  int fast_streak_ = 0;
  std::size_t window_events_ = 0;      // events in the open window
  std::size_t tuples_fed_ = 0;         // tuples already fed to the prefilter
  std::size_t store_bytes_ = 0;
  // Cycles already surfaced by per-window enumeration, keyed by signature
  // hash — so new_cycles counts first sightings only.
  std::vector<std::uint64_t> seen_cycle_keys_;
  std::size_t live_cycles_ = 0;
  // Store indices by request lock, so a dirty SCC's lock list maps straight
  // to the tuple subset to enumerate. Rebuilt after compaction/eviction
  // (which renumber the store).
  std::unordered_map<LockId, std::vector<std::size_t>> tuples_by_lock_;
};

}  // namespace wolf
