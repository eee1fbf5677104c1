// ingest-dedup and churn-live: pre-encoded v3 bytes through one governed,
// live-polled wolf::Session per operation, at jobs=1.
#include <sstream>

#include "checks.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "workload.hpp"

namespace wolfbench {

namespace {

struct IngestSpec {
  wolf::Config config;
  std::function<StreamInput(std::uint64_t seed)> make;
};

// Sessions a run needs so that its window samples leave at least ten beyond
// the p99.
int min_sessions(const StreamInput& in, const wolf::Config& cfg) {
  const std::uint64_t per_session = in.events / cfg.window_events;
  return static_cast<int>(std::max<std::uint64_t>(
      2, (1000 + per_session - 1) / std::max<std::uint64_t>(per_session, 1)));
}

std::string input_line(const StreamInput& in) {
  std::ostringstream os;
  os << "input: " << in.events << " events/session, " << in.bytes.size()
     << " v3 bytes (" << static_cast<double>(in.bytes.size()) /
                            static_cast<double>(in.events)
     << " B/event), " << in.cycles.size() << " expected cycles";
  return os.str();
}

// Checks one session against the stream's by-construction answer.
std::string check_session(const SessionPass& p, const StreamInput& in) {
  if (!p.error.empty()) return p.error;
  if (p.events != in.events) return "session saw a different event count";
  if (p.verdict.governor.tuples_evicted != 0) return "governor evicted tuples";
  return check_stream_verdict(p.verdict.detection,
                              p.verdict.governor.coverage_complete, p.live,
                              in.cycles);
}

WorkloadResult run_ingest(const IngestSpec& spec, const RunOptions& opts,
                          TraceRun& run) {
  WorkloadResult r;
  StreamInput input;
  const double setup_s = timed_setup([&] { input = spec.make(opts.seed); });
  r.input.push_back(input_line(input));

  TraceRun off(false, run.run_id());
  Tracer traced_tracer(run), quiet(off);
  LayerCounts counts;
  std::vector<double> mev, lag, wall, cps, window_ms;
  const int min_ops =
      opts.trace ? kMinTracedOps : min_sessions(input, spec.config);
  const std::uint64_t rss_growth = run_for(opts.seconds, min_ops, [&](int i) {
    // A traced run alternates untraced and traced session passes, each
    // after the same traced layer probe, so the two compare under the same
    // conditions (tracing overhead).
    const bool traced = opts.trace && i % 2 == 1;
    Tracer& tr = traced ? traced_tracer : quiet;
    tr.set_op(static_cast<std::uint32_t>(i));
    SessionPass p;
    {
      const auto op = tr.span("op");
      p = run_session_pass(input.bytes, spec.config, tr,
                           traced ? &counts : nullptr);
    }
    tr.flush();
    ++r.attempted;
    std::string error = check_session(p, input);
    if (opts.trace && error.empty()) {
      traced_tracer.set_op(static_cast<std::uint32_t>(i));
      {
        const auto probe = traced_tracer.span("op.probe");
        const wolf::Detection det = run_builder_probe(
            input.bytes, spec.config.detector, traced_tracer, counts);
        if (cycle_shapes(det) != input.cycles)
          error = "builder probe found a different cycle set";
        run_feasibility_probe(det, traced_tracer, counts);
      }
      traced_tracer.flush();
    }
    if (!error.empty()) r.fail("session " + std::to_string(i) + ": " + error);
    if (opts.trace) {
      if (i >= 2)  // the first pair warms the allocator
        (traced ? counts.op_traced_s : counts.op_untraced_s)
            .push_back(p.wall_s);
      return;
    }
    mev.push_back(static_cast<double>(p.events) / p.wall_s / 1e6);
    lag.push_back(p.finish_s * 1e3);
    wall.push_back(p.wall_s);
    cps.push_back(static_cast<double>(p.verdict.detection.cycles.size()) /
                  p.wall_s);
    window_ms.insert(window_ms.end(), p.window_ms.begin(), p.window_ms.end());
  });

  if (opts.trace) {
    r.metrics = layer_metrics(run.spans(), counts, r.lines);
    return r;
  }
  r.lines.push_back("window_p50_ms: " +
                    std::to_string(percentile(window_ms, 50)) + " ms");
  r.lines.push_back(describe_timing("window (feed -> poll)", window_ms, "ms"));
  r.lines.push_back(describe_timing("verdict_lag (finish)", lag, "ms"));
  r.lines.push_back(describe_timing("session wall", wall, "s"));
  if (!tail_supported(99, window_ms.size()))
    r.lines.push_back(
        "warning: window_p99_ms has fewer than 10 samples beyond");
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"ingest_mev_s", median(mev), "Mev/s"},
      {"window_p99_ms", percentile(window_ms, 99), "ms"},
      {"verdict_lag_ms", median(lag), "ms"},
      {"rss_per_session_mb",
       static_cast<double>(rss_growth) / (1 << 20), "MiB"},
      {"analyze_s", median(wall), "s"},
      {"cycles_per_s", median(cps), "1/s"},
  };
  return r;
}

}  // namespace

WorkloadResult run_ingest_dedup(const RunOptions& opts, TraceRun& run) {
  constexpr std::uint64_t kEvents = 1 << 19;
  IngestSpec spec;
  spec.config.jobs = 1;
  spec.config.live = true;
  spec.config.window_events = 8192;
  // Small enough that the raw store outgrows it many times per session
  // (compaction), large enough for the canonical set (never eviction).
  spec.config.memory_budget_mb = 4;
  spec.make = [](std::uint64_t seed) {
    return make_dedup_stream(kEvents, seed);
  };
  return run_ingest(spec, opts, run);
}

WorkloadResult run_churn_live(const RunOptions& opts, TraceRun& run) {
  constexpr std::uint64_t kWindowEvents = 512;
  constexpr std::uint64_t kWindows = 64;
  IngestSpec spec;
  spec.config.jobs = 1;
  spec.config.live = true;
  spec.config.window_events = kWindowEvents;
  spec.make = [](std::uint64_t seed) {
    return make_churn_stream(kWindows, kWindowEvents, seed);
  };
  return run_ingest(spec, opts, run);
}

}  // namespace wolfbench
