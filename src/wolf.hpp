// wolf.hpp — the single public entry point to the WOLF library.
//
// Library users include this header instead of the per-stage ones and
// configure everything through wolf::Config: one struct with the shared
// scalars every stage reads (seed, jobs, deadline) plus the per-stage option
// structs nested as sections (Config::detector, ::replay, ::executor,
// ::report). validate() reports misconfigurations before a run burns time
// on them; the *_options() exploders produce the per-stage structs the
// pipeline entry points take, with the shared scalars folded in (a shared
// scalar always wins over the section field it shadows, e.g. deadline_ms
// over replay.retry.attempt_deadline_ms).
//
// Batch analysis is run()/analyze() below. Online analysis — feeding events
// as they happen, from a trace file, a live program, or a serve client —
// has exactly one entry point: wolf::Session::open(Config), then
// feed/poll/finish (declared below). Config::governed() picks between the
// unbounded batch-equivalent session and the windowed, budgeted one of
// core/governor.hpp; both return the same Verdict. Detection — batch, per
// window and final — is one serial pass on the calling thread; Config::jobs
// parallelizes only classification and indexed v3 decode.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baseline/df_pipeline.hpp"
#include "core/metrics.hpp"
#include "core/multi.hpp"
#include "core/pipeline.hpp"
#include "core/report_writer.hpp"
#include "rt/executor.hpp"

namespace wolf {

// One finding from Config::validate(). Fatal issues make the configuration
// unusable (an exploded run would crash or silently do nothing); non-fatal
// ones flag conflicting settings where one silently wins (e.g. a
// deadline_ms that shadows replay.retry.attempt_deadline_ms).
struct ConfigIssue {
  bool fatal = false;
  std::string message;
};

struct Config {
  // ---- shared scalars, read by every stage ------------------------------
  std::uint64_t seed = 2014;
  // Parallelism of classification and of indexed v3 decode (the caller's
  // StreamTraceReader options): 0 = hardware concurrency, 1 = the serial
  // pipeline. Detection is always serial. Reports are identical at every
  // level. Overrides the per-run jobs split.
  int jobs = 0;
  // Per-trial wall-clock budget in ms (0 = unlimited). Arms the rt watchdog
  // and the recording retry deadline. Overrides replay.retry and
  // executor.deadline_ms.
  std::int64_t deadline_ms = 0;

  // ---- stage sections (the historical option structs) -------------------
  DetectorOptions detector;
  ReplayOptions replay;
  rt::ExecutorOptions executor;
  ReportWriterOptions report;

  // ---- pipeline scalars (historical WolfOptions fields) -----------------
  int record_attempts = 20;
  std::uint64_t max_steps = 2'000'000;
  bool enable_pruner = true;
  bool enable_generator_check = true;
  const robust::FaultPlan* fault = nullptr;  // not owned

  // ---- multi-run section ------------------------------------------------
  int runs = 5;

  // ---- resource governance (core/governor.hpp) --------------------------
  // Tuple-store budget for governed streaming analysis, in MiB (0 =
  // unbounded). Setting this or window_deadline_ms switches `wolf analyze`
  // onto the governed path.
  std::size_t memory_budget_mb = 0;
  // Events per detection window of the governed path.
  std::size_t window_events = 65536;
  // Per-window detection deadline in ms (0 = no deadline; the degradation
  // ladder never demotes).
  std::int64_t window_deadline_ms = 0;
  // Live cycle surfacing: called once per first-sighted cycle at window
  // granularity (`wolf analyze --live`). Setting it switches analysis onto
  // the governed path; it never changes the final result.
  CycleSubscriber on_cycle;
  // Pull-mode live surfacing: Session::poll() returns the cycles first
  // sighted since the last poll. Like on_cycle (the two compose), setting
  // it switches Session::open onto the governed path and never changes what
  // finish() returns. The serve sidecar runs sessions with live = true.
  bool live = false;

  bool governed() const {
    return memory_budget_mb != 0 || window_deadline_ms != 0 || live ||
           static_cast<bool>(on_cycle);
  }

  // Checks the configuration for fatal errors and conflicting settings.
  // Empty result = clean. Callers decide how to surface non-fatal issues.
  std::vector<ConfigIssue> validate() const;
  bool fatal() const {
    for (const ConfigIssue& issue : validate())
      if (issue.fatal) return true;
    return false;
  }

  // Exploders: per-stage option structs with the shared scalars folded in.
  WolfOptions wolf_options() const;
  MultiRunOptions multi_options() const;
  baseline::DfOptions df_options() const;
  rt::ExecutorOptions executor_options() const;
  GovernorOptions governor_options() const;
};

// One cycle surfaced between two Session::poll() calls — an owned copy of a
// LiveCycle delivery (safe to keep; nothing borrows detection state).
struct SessionCycle {
  std::size_t window = 0;    // WindowReport::index that surfaced it
  std::size_t sequence = 0;  // 1-based first-sighting sequence number
  std::string description;   // PotentialDeadlock::to_string rendering
};

// The one online-analysis entry point: open → feed → poll → finish.
//
// The CLI, the serve sidecar, the pipeline and the tests all share this
// lifecycle:
//
//   Session s = Session::open(config);          // throws on fatal config
//   while (reader.next_block(block)) {
//     s.feed(block);
//     for (const SessionCycle& c : s.poll()) ...;  // live cycles, if any
//   }
//   Session::Verdict v = s.finish();            // authoritative, final
//
// open() dispatches on Config::governed(): a governed config gets the full
// windowed/budgeted/laddered machinery of core/governor.hpp; an ungoverned
// one accumulates the unbounded D_σ and enumerates once in finish(), bit-
// identical to detect_reader. Both modes share the containment contract an
// always-on service needs: a malformed event *poisons* the session (feed
// returns false, ingestion stops, the verdict is honestly incomplete)
// instead of propagating out of feed, and governed finish() never throws.
// Detection runs serially on the calling thread, so Config::jobs never
// changes a session's results or its threads.
//
// A Session is single-owner state, not a thread-safe object: feed, poll and
// finish must be externally serialized (the serve sidecar gives each
// session its own thread).
class Session {
 public:
  // Everything finish() knows, in one struct. `detection` is authoritative;
  // `governor.coverage_complete` is the honesty bit (true iff the detection
  // provably equals batch analysis of the same event stream — ungoverned
  // sessions set it false only when poisoned). `windows` is empty for
  // ungoverned sessions.
  struct Verdict {
    Detection detection;
    std::vector<WindowReport> windows;
    GovernorVerdict governor;
    bool governed = false;
  };

  // Builds a session from a validated Config (throws std::invalid_argument
  // listing the fatal issues otherwise) and dispatches on
  // Config::governed(). Live cycles are collected for poll() iff
  // config.live; Config::on_cycle still fires push-mode either way.
  static Session open(const Config& config);

  Session(Session&& other) noexcept;
  Session& operator=(Session&& other) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  // Ingestion. Returns true while the session is healthy; false once it is
  // poisoned (a malformed event fired a builder invariant) — from then on
  // events are discarded and finish() reports an incomplete verdict over
  // the consistent prefix. Never throws on bad input.
  bool feed(const Event& e);
  bool feed(const std::vector<Event>& events);

  // Drains a TraceReader through feed(), one next_block() at a time on the
  // calling thread. Keeps draining after poisoning (the reader is left at
  // end-of-stream either way, so stream diagnostics stay meaningful).
  void ingest(TraceReader& reader);

  // Cycles first sighted since the last poll(), in surfacing order. Always
  // empty unless the session was opened with Config::live. Cheap when
  // empty.
  std::vector<SessionCycle> poll();

  // Observation (valid any time).
  bool governed() const;
  bool poisoned() const;
  std::size_t events_seen() const;
  std::size_t windows_closed() const;
  DetectionLevel level() const;
  std::size_t cycles_surfaced_live() const;

  // Closes the trailing window, runs the authoritative enumeration and
  // returns everything. Final: feed() after finish() is an error (asserts
  // in debug builds, no-op otherwise). Governed sessions never throw from
  // finish (a detection fault yields an honest incomplete verdict);
  // ungoverned sessions let a detection fault propagate, as detect_reader
  // does.
  Verdict finish();

 private:
  Session();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Facade entry points — the pipeline functions, taking Config directly.
inline WolfReport run(const sim::Program& program, const Config& config) {
  return run_wolf(program, config.wolf_options());
}
inline WolfReport analyze(const sim::Program& program, const Trace& trace,
                          const Config& config) {
  return analyze_trace(program, trace, config.wolf_options());
}
inline MultiRunReport run_multi(const sim::Program& program,
                                const Config& config) {
  return run_wolf_multi(program, config.multi_options());
}
inline baseline::DfReport run_baseline(const sim::Program& program,
                                       const Config& config) {
  return baseline::run_deadlock_fuzzer(program, config.df_options());
}

}  // namespace wolf
