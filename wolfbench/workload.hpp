// What every workload runner shares: its options, its result, the set-up
// and measurement loops, and the per-layer tallies of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "tracer.hpp"
#include "wolf.hpp"

namespace wolfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build";  // working files (the serve socket)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  std::vector<std::string> input;   // run-header lines: input sizes
  std::vector<std::string> lines;   // human-readable report lines
  std::vector<Metric> metrics;      // end-to-end (untraced) or per-layer
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few failure messages

  // Counts `n` failed operations under one message.
  void fail(std::string message, std::uint64_t n = 1);
};

// Runs `setup` at least kSetupRepeats times, and until kSetupSeconds have
// been spent, and returns the median wall seconds; the last repetition's
// product is what the run measures. Memory the other repetitions freed is
// returned to the system.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupSeconds = 0.25;
double timed_setup(const std::function<void()>& setup);

// Calls op(i) for i = 0, 1, ... until `seconds` have passed (at least
// min_ops times). Returns the first operation's resident growth in bytes:
// VmHWM after it minus VmRSS before it. Later operations reuse memory the
// allocator kept, so only the first shows what a session costs from cold,
// and its peak does not depend on how many operations the run fits. A
// traced run needs two traced and two untraced operations beyond its
// first, warm-up pair.
inline constexpr int kMinTracedOps = 6;
std::uint64_t run_for(double seconds, int min_ops,
                      const std::function<void(int)>& op);

inline double since_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Per-layer tallies the traced run accumulates next to its spans.
struct LayerCounts {
  std::uint64_t decode_events = 0;
  std::uint64_t decode_bytes = 0;
  std::uint64_t feed_events = 0;
  std::uint64_t add_events = 0;
  std::uint64_t probes = 0;           // builder probe passes
  std::uint64_t raw_tuples = 0;
  std::uint64_t canonical_tuples = 0;
  std::uint64_t enum_cycles = 0;
  std::uint64_t sessions = 0;
  std::uint64_t windows = 0;
  std::uint64_t suspicious_windows = 0;
  std::uint64_t compacted = 0;
  std::uint64_t evicted = 0;
  std::uint64_t session_raw_tuples = 0;  // raw tuples the sessions stored
  double peak_store_bytes = 0;
  std::vector<double> store_bytes_per_tuple;
  std::vector<double> window_detect_ms;
  std::uint64_t pruned_in = 0;
  std::uint64_t pruned = 0;
  std::uint64_t generated = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t gs_vertices = 0;
  std::uint64_t replayed = 0;
  std::uint64_t replay_attempts = 0;
  std::uint64_t replay_hits = 0;
  double classify_wall_s = 0;         // parallel classification wall
  int classify_jobs = 1;
  std::vector<double> handshake_ms;
  std::uint64_t upload_bytes = 0;
  double upload_s = 0;
  std::vector<double> session_skew;
  std::vector<double> op_untraced_s;  // tracing-overhead comparison
  std::vector<double> op_traced_s;
};

// Folds a governed session's public outputs into the tallies.
void count_governor(const wolf::Session::Verdict& verdict, LayerCounts& c);

// The per-layer metrics, in BENCHMARK.json order, from the traced run's
// spans and tallies. Layers a workload does not exercise report 0.
std::vector<Metric> layer_metrics(const std::vector<SpanRecord>& spans,
                                  const LayerCounts& c,
                                  std::vector<std::string>& lines);

// One live, polled session over v3 bytes: decode → feed → poll → finish.
struct SessionPass {
  double wall_s = 0;     // Session::open to finish() returned
  double finish_s = 0;   // finish(): end of input to final verdict
  std::uint64_t events = 0;
  std::vector<double> window_ms;  // window-closing feed → poll returned
  std::set<std::string> live;     // cycles polled before finish()
  wolf::Session::Verdict verdict;
  std::string error;              // reader failure, empty when clean
};
SessionPass run_session_pass(std::string_view bytes, const wolf::Config& cfg,
                             Tracer& tr, LayerCounts* counts);

// Traced-only probe of the detector's layers on the same bytes: decode →
// LockDependencyBuilder::add → take_dependency → enumerate_cycles_ex →
// detect (finish_detection), returning the detection.
wolf::Detection run_builder_probe(std::string_view bytes,
                                  const wolf::DetectorOptions& options,
                                  Tracer& tr, LayerCounts& counts);

// Traced-only: prune_cycle, then DependencyIndex::build + generate for the
// cycles the Pruner keeps. Returns the generator results aligned with the
// cycles (empty result for pruned ones) and whether each one needs replay.
struct Feasibility {
  std::vector<wolf::GeneratorResult> gen;
  std::vector<bool> pruned;
  std::vector<bool> replay_needed;
};
Feasibility run_feasibility_probe(const wolf::Detection& detection,
                                  Tracer& tr, LayerCounts& counts);

WorkloadResult run_ingest_dedup(const RunOptions& opts, TraceRun& run);
WorkloadResult run_churn_live(const RunOptions& opts, TraceRun& run);
WorkloadResult run_classify_suite(const RunOptions& opts, TraceRun& run);
WorkloadResult run_serve_pair(const RunOptions& opts, TraceRun& run);

}  // namespace wolfbench
