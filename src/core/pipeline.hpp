// The WOLF pipeline (paper Fig. 3): instrumented execution → extended cycle
// detection → Pruner → Generator → Replayer, with per-phase timings and the
// two defect-counting views of §4.3 (source-location defects and raw
// cycles).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/generator.hpp"
#include "core/governor.hpp"
#include "core/pruner.hpp"
#include "core/replayer.hpp"
#include "obs/span.hpp"
#include "sim/program.hpp"

namespace wolf {

enum class Classification : std::uint8_t {
  kFalseByPruner,     // Algorithm 2 proved the cycle infeasible
  kFalseByGenerator,  // cyclic Gs (Algorithm 3)
  kReproduced,        // a replay trial deadlocked at the exact locations
  kUnknown,           // left for manual comprehension
};

const char* to_string(Classification c);

struct CycleReport {
  std::size_t cycle_index = 0;  // into Detection::cycles
  Classification classification = Classification::kUnknown;
  PruneVerdict prune_verdict = PruneVerdict::kUnknown;
  int gs_vertices = 0;  // |Vs| (0 when pruned before generation)
  ReplayStats replay_stats;
  // Non-empty when this cycle's classification was degraded to kUnknown
  // because its prune/generate/replay stages threw or every replay trial
  // timed out. Other cycles are unaffected (per-cycle error isolation).
  std::string failure_reason;

  bool degraded() const { return !failure_reason.empty(); }
};

struct DefectReport {
  DefectSignature signature;
  Classification classification = Classification::kUnknown;
  std::vector<std::size_t> cycle_indices;  // into WolfReport::cycles
};

// Per-phase cost of one pipeline run. The record and detect phases are
// single-threaded, so their fields are plain wall clock. The three
// classification stages run on the parallel engine: their per-stage fields
// are *aggregate CPU seconds* (summed over cycles in index order — at
// jobs=1 that equals wall clock, under concurrency it exceeds it), and the
// wall clock of the two parallel phases is reported separately so neither
// view silently lies about the other.
//
// Since the observability layer landed this is a *view*: the pipeline
// records obs spans ("phase/record", "phase/detect", "phase/feasibility",
// "phase/replay" and per-cycle "cycle/prune|generate|replay" tagged with
// the cycle index) and from_spans() folds them into these fields, so all
// existing timing output is unchanged.
struct PhaseTimings {
  double record_seconds = 0;
  double detect_seconds = 0;
  // Aggregate CPU seconds across cycles, per classification stage.
  double prune_seconds = 0;
  double generate_seconds = 0;
  double replay_seconds = 0;
  // Wall-clock seconds of the two parallel classification phases:
  // feasibility (prune + generate) and replay.
  double feasibility_wall_seconds = 0;
  double replay_wall_seconds = 0;

  double classify_cpu_seconds() const {
    return prune_seconds + generate_seconds + replay_seconds;
  }
  double classify_wall_seconds() const {
    return feasibility_wall_seconds + replay_wall_seconds;
  }

  double detection_total() const {
    return record_seconds + detect_seconds + prune_seconds + generate_seconds;
  }

  // Folds a run's span tree into phase timings. Per-cycle stage durations
  // are summed in tag (= cycle-index) order, so the aggregates do not
  // depend on which worker thread recorded which span first.
  static PhaseTimings from_spans(const std::vector<obs::SpanRecord>& spans);
};

// Deprecated as a public entry type: prefer wolf::Config (wolf.hpp), whose
// wolf_options() produces this struct with the shared scalars folded in.
// Kept for one release as the underlying section type.
struct WolfOptions {
  std::uint64_t seed = 1;
  DetectorOptions detector;
  ReplayOptions replay;
  // Attempts at recording a completed (non-deadlocking) execution.
  int record_attempts = 20;
  std::uint64_t max_steps = 2'000'000;
  // Ablation switches (DESIGN.md §7): with the Pruner disabled, infeasible
  // start/join-ordered cycles fall through to replay; with the Generator's
  // cyclicity check disabled, cyclic-Gs cycles are replayed too (the graph
  // is still used to steer, so its contradictory constraints get force-
  // released at random).
  bool enable_pruner = true;
  bool enable_generator_check = true;
  // Injected faults, forwarded to the replay substrate and consulted by the
  // classification loop (robust/fault.hpp). nullptr = no faults. Not owned.
  const robust::FaultPlan* fault = nullptr;
  // Parallelism of the classification phases: 1 = serial (bit-identical to
  // the historical serial pipeline), 0 = hardware concurrency, N = N-way.
  // Any value produces identical reports — replay seeds are derived from the
  // serial seed chain regardless of how cycles are scheduled (DESIGN.md §10).
  int jobs = 1;
};

struct WolfReport {
  bool trace_recorded = false;  // false if every recording run deadlocked
  Detection detection;
  std::vector<CycleReport> cycles;
  std::vector<DefectReport> defects;
  PhaseTimings timings;
  // The raw span tree timings were computed from; feeds obs::RunMetrics
  // (core/metrics.hpp) and the --metrics-out report.
  std::vector<obs::SpanRecord> spans;
  double avg_gs_vertices = 0;  // over generated (non-pruned) cycles
  int jobs_used = 1;           // effective classification parallelism

  // Resource-governed streaming extras (core/governor.hpp), populated only
  // by analyze_session over a governed Session: per-window reports plus the
  // run-level verdict. When governor.coverage_complete is false the
  // detection — and therefore everything classified from it — may be
  // missing defects, and report writers must say so (the same honesty
  // contract as Detection::truncated).
  bool governed = false;
  std::vector<WindowReport> windows;
  GovernorVerdict governor;

  int count_cycles(Classification c) const;
  int count_defects(Classification c) const;
  int false_positive_cycles() const;
  int false_positive_defects() const;

  std::string summary(const SiteTable& sites) const;
};

// Records a trace of `program` and runs the full pipeline on it.
WolfReport run_wolf(const sim::Program& program, const WolfOptions& options);

// Runs the pipeline on a pre-recorded trace (the record phase is skipped).
WolfReport analyze_trace(const sim::Program& program, const Trace& trace,
                         const WolfOptions& options);

class Session;  // wolf.hpp — the unified online-analysis facade

// Runs the pipeline on a trace streamed from `reader` through an open
// wolf::Session: the session ingests and finishes inside the
// "phase/detect" span, then classification runs over the resulting
// detection. Governed sessions land their window reports and verdict in the
// report. This is the one streaming entry point; with an
// ungoverned session it produces the same report as analyze_trace over the
// equivalent materialized trace (a mid-stream reader failure — reader.ok()
// false afterwards — analyzes the prefix delivered).
WolfReport analyze_session(const sim::Program& program, Session& session,
                           TraceReader& reader, const WolfOptions& options);

// Classifies one detected cycle (prune → generate → replay); exposed for
// targeted tests and the comparison harnesses.
CycleReport classify_cycle(const sim::Program& program,
                           const Detection& detection, std::size_t cycle_index,
                           const WolfOptions& options);

}  // namespace wolf
