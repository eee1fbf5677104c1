// classify-suite: the paper's 11-program suite plus perf_pipeline's
// stress-16x4 ring program. Traces are recorded on sim during set-up; each
// operation streams every program's v3 bytes through a live session and
// classifies its trace with wolf::analyze at jobs=4.
#include <algorithm>
#include <numeric>
#include <sstream>

#include "checks.hpp"
#include "core/replayer.hpp"
#include "sim/scheduler.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"
#include "workload.hpp"

namespace wolfbench {

namespace {

// Table 2's record and replay seed and attempt count; the reference
// classifications hold for exactly these.
constexpr std::uint64_t kPipelineSeed = 2014;
constexpr int kReplayAttempts = 6;
constexpr int kJobs = 4;

// bench/perf_pipeline's many-cycle stress program: threads t_0..t_{k-1}
// share a ring of k locks and thread i nests l_i then l_{(i+d) mod k} for
// every chain degree d in 1..degree.
wolf::sim::Program make_stress(int threads, int degree) {
  wolf::sim::Program p;
  p.name = "stress-" + std::to_string(threads) + "x" + std::to_string(degree);
  std::vector<wolf::LockId> ring;
  for (int i = 0; i < threads; ++i)
    ring.push_back(
        p.add_lock("ring-" + std::to_string(i), p.site("Stress.ring", i)));
  const wolf::ThreadId main = p.add_thread("main");
  std::vector<wolf::ThreadId> workers;
  for (int i = 0; i < threads; ++i)
    workers.push_back(p.add_thread("worker-" + std::to_string(i)));
  for (int i = 0; i < threads; ++i) {
    const wolf::ThreadId t = workers[static_cast<std::size_t>(i)];
    const wolf::LockId outer = ring[static_cast<std::size_t>(i)];
    for (int d = 1; d <= degree; ++d) {
      const wolf::LockId inner =
          ring[static_cast<std::size_t>((i + d) % threads)];
      const int tag = i * 100 + d;
      p.lock(t, outer, p.site("Stress.outer", tag));
      p.lock(t, inner, p.site("Stress.inner", tag));
      p.unlock(t, inner, p.site("Stress.innerExit", tag));
      p.unlock(t, outer, p.site("Stress.outerExit", tag));
      p.compute(t, p.site("Stress.pause", tag));
    }
  }
  const wolf::SiteId spawn = p.site("Stress.spawn", 1);
  const wolf::SiteId join = p.site("Stress.join", 2);
  for (wolf::ThreadId t : workers) p.start(main, t, spawn);
  for (wolf::ThreadId t : workers) p.join(main, t, join);
  p.finalize();
  return p;
}

struct Program {
  std::string name;
  wolf::sim::Program program;
  std::uint64_t max_steps = 0;
  int record_attempts = 20;  // run_wolf's default
  wolf::Trace trace;
  std::string bytes;  // the trace as v3
  const ClassCounts* reference = nullptr;
};

// Records every program exactly as run_wolf (suite) and perf_pipeline
// (stress) do.
std::vector<Program> record_programs(std::string& error) {
  std::vector<Program> out;
  for (wolf::workloads::Benchmark& b : wolf::workloads::standard_suite()) {
    Program p;
    p.name = b.name;
    p.program = std::move(b.program);
    p.max_steps = b.max_steps;
    out.push_back(std::move(p));
  }
  Program stress;
  stress.program = make_stress(16, 4);
  stress.name = stress.program.name;
  stress.max_steps = 4'000'000;
  stress.record_attempts = 60;
  out.push_back(std::move(stress));
  for (Program& p : out) {
    wolf::robust::RetryPolicy retry;
    retry.max_attempts = p.record_attempts;
    std::optional<wolf::Trace> trace =
        wolf::sim::record_trace(p.program, kPipelineSeed, retry, p.max_steps);
    p.reference = reference_counts(p.name);
    if (!trace.has_value() || p.reference == nullptr) {
      error = p.name + ": no recorded trace or no reference";
      return {};
    }
    p.trace = std::move(*trace);
    p.bytes = encode_v3(p.trace.events);
  }
  return out;
}

wolf::Config analyze_config(const Program& p) {
  wolf::Config cfg;
  cfg.seed = kPipelineSeed;
  cfg.jobs = kJobs;
  cfg.replay.attempts = kReplayAttempts;
  cfg.max_steps = p.max_steps;
  return cfg;
}

std::vector<std::string> descriptions(const wolf::Detection& d) {
  std::vector<std::string> out;
  for (const wolf::PotentialDeadlock& c : d.cycles)
    out.push_back(c.to_string(d.dep));
  return out;
}

// Traced-only: re-derives every cycle's classification from the layers'
// public functions (the Pruner/Generator probe, then replay with the
// pipeline's serial seed chain) and counts the cycles on which it disagrees
// with wolf::analyze.
int probe_classification(const Program& p, const wolf::WolfReport& report,
                         Tracer& tr, LayerCounts& counts) {
  const wolf::Detection det =
      run_builder_probe(p.bytes, wolf::DetectorOptions{}, tr, counts);
  if (descriptions(det) != descriptions(report.detection))
    return static_cast<int>(std::max<std::size_t>(1, report.cycles.size()));
  const Feasibility f = run_feasibility_probe(det, tr, counts);
  const wolf::WolfOptions wo = analyze_config(p).wolf_options();
  // The pipeline's replay seeds (core/pipeline.cpp): mix64(seed ^ 0x57a7e5),
  // advanced once per replayed cycle in cycle order.
  std::uint64_t seed = wolf::mix64(wo.seed ^ 0x57a7e5ULL);
  int disagreements = 0;
  for (std::size_t c = 0; c < det.cycles.size(); ++c) {
    wolf::Classification got = wolf::Classification::kFalseByPruner;
    if (f.replay_needed[c]) {
      wolf::ReplayOptions ro = wo.replay;
      ro.seed = seed = wolf::mix64(seed);
      ro.max_steps = wo.max_steps;
      wolf::ReplayStats stats;
      {
        const auto sp = tr.span("replay");
        stats =
            wolf::replay(p.program, det.cycles[c], det.dep, f.gen[c].gs, ro);
      }
      ++counts.replayed;
      counts.replay_attempts += static_cast<std::uint64_t>(stats.attempts);
      counts.replay_hits += static_cast<std::uint64_t>(stats.hits);
      got = stats.reproduced() ? wolf::Classification::kReproduced
                               : wolf::Classification::kUnknown;
    } else if (!f.pruned[c]) {
      got = wolf::Classification::kFalseByGenerator;
    }
    if (got != report.cycles[c].classification) ++disagreements;
  }
  return disagreements;
}

}  // namespace

WorkloadResult run_classify_suite(const RunOptions& opts, TraceRun& run) {
  WorkloadResult r;
  std::vector<Program> programs;
  std::string setup_error;
  const double setup_s =
      timed_setup([&] { programs = record_programs(setup_error); });
  if (!setup_error.empty()) {
    ++r.attempted;
    r.fail("set-up: " + setup_error);
    return r;
  }
  {
    std::ostringstream os;
    std::size_t events = 0, bytes = 0;
    int cycles = 0;
    for (const Program& p : programs) {
      events += p.trace.size();
      bytes += p.bytes.size();
      cycles += p.reference->cycles;
    }
    os << "input: " << programs.size() << " programs, " << events
       << " events, " << bytes << " v3 bytes, " << cycles
       << " reference cycles";
    r.input.push_back(os.str());
  }

  // The live session over each program's bytes: small windows, so the
  // suite's few hundred events per program still close several windows.
  wolf::Config ingest_cfg;
  ingest_cfg.jobs = 1;
  ingest_cfg.live = true;
  ingest_cfg.window_events = 8;

  // The seed permutes the order programs are analyzed in; the programs,
  // their traces and the reference answers are pinned to Table 2.
  wolf::Rng rng(opts.seed);
  std::vector<std::size_t> order(programs.size());

  TraceRun off(false, run.run_id());
  Tracer traced_tracer(run), quiet(off);
  LayerCounts counts;
  std::vector<double> mev, lag, window_ms, analyze_s, cps;
  const int min_ops = opts.trace ? kMinTracedOps : 2;
  const std::uint64_t rss_growth = run_for(opts.seconds, min_ops, [&](int i) {
    // As in the ingest workloads, a traced run alternates traced and
    // untraced passes, every program followed by the same traced probe.
    const bool traced = opts.trace && i % 2 == 1;
    Tracer& tr = traced ? traced_tracer : quiet;
    tr.set_op(static_cast<std::uint32_t>(i));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t k = order.size(); k > 1; --k)
      std::swap(order[k - 1], order[rng.below(k)]);

    double ingest_events = 0, ingest_wall = 0, analyze_wall = 0,
           classify_wall = 0, cycles = 0;
    {
      const auto op = tr.span("op");
      // The live sessions run back to back, then the analyses, so neither
      // half times the other's cache and allocator aftermath.
      std::vector<std::vector<std::string>> session_cycles(programs.size());
      for (std::size_t idx : order) {
        const Program& p = programs[idx];
        SessionPass pass = run_session_pass(p.bytes, ingest_cfg, tr,
                                            traced ? &counts : nullptr);
        ingest_events += static_cast<double>(pass.events);
        ingest_wall += pass.wall_s;
        lag.push_back(pass.finish_s * 1e3);
        for (const wolf::WindowReport& w : pass.verdict.windows)
          window_ms.push_back(w.detect_seconds * 1e3);
        if (!pass.error.empty() || !pass.verdict.governor.coverage_complete)
          r.fail(p.name + ": live session verdict incomplete " + pass.error);
        session_cycles[idx] = descriptions(pass.verdict.detection);
      }
      for (std::size_t idx : order) {
        const Program& p = programs[idx];
        const auto t0 = std::chrono::steady_clock::now();
        wolf::WolfReport report;
        {
          const auto sp = tr.span("wolf.analyze");
          report = wolf::analyze(p.program, p.trace, analyze_config(p));
        }
        analyze_wall += since_s(t0);
        classify_wall += report.timings.classify_wall_seconds();
        cycles += static_cast<double>(report.cycles.size());

        r.attempted += static_cast<std::uint64_t>(std::max<std::size_t>(
            report.cycles.size(),
            static_cast<std::size_t>(p.reference->cycles)));
        const int wrong = misclassified_cycles(report, *p.reference);
        if (wrong > 0) {
          const ClassCounts got = class_counts(report);
          r.fail(p.name + ": cycles/FP/TP/unknown " +
                     std::to_string(got.cycles) + "/" +
                     std::to_string(got.false_positive) + "/" +
                     std::to_string(got.reproduced) + "/" +
                     std::to_string(got.unknown) + ", reference " +
                     std::to_string(p.reference->cycles) + "/" +
                     std::to_string(p.reference->false_positive) + "/" +
                     std::to_string(p.reference->reproduced) + "/" +
                     std::to_string(p.reference->unknown),
                 static_cast<std::uint64_t>(wrong));
        }
        if (session_cycles[idx] != descriptions(report.detection))
          r.fail(p.name + ": live session cycles differ from analyze's");
        if (opts.trace) {
          counts.classify_wall_s += report.timings.classify_wall_seconds();
          counts.classify_jobs = report.jobs_used;
          traced_tracer.set_op(static_cast<std::uint32_t>(i));
          const int disagree =
              probe_classification(p, report, traced_tracer, counts);
          if (disagree > 0)
            r.fail(p.name + ": layer probe disagrees with wolf::analyze",
                   static_cast<std::uint64_t>(disagree));
        }
      }
    }
    tr.flush();
    traced_tracer.flush();
    if (opts.trace) {
      if (i >= 2)  // the first pair warms the allocator
        (traced ? counts.op_traced_s : counts.op_untraced_s)
            .push_back(ingest_wall + analyze_wall);
      return;
    }
    mev.push_back(ingest_events / ingest_wall / 1e6);
    analyze_s.push_back(analyze_wall);
    cps.push_back(cycles / classify_wall);
  });

  if (opts.trace) {
    r.metrics = layer_metrics(run.spans(), counts, r.lines);
    return r;
  }
  r.lines.push_back(
      describe_timing("window (governor detect)", window_ms, "ms"));
  r.lines.push_back(describe_timing("verdict_lag (finish)", lag, "ms"));
  r.lines.push_back(describe_timing("analyze (12 programs)", analyze_s, "s"));
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"ingest_mev_s", median(mev), "Mev/s"},
      {"window_p99_ms", percentile(window_ms, 99), "ms"},
      {"verdict_lag_ms", median(lag), "ms"},
      {"rss_per_session_mb",
       static_cast<double>(rss_growth) / (1 << 20), "MiB"},
      {"analyze_s", median(analyze_s), "s"},
      {"cycles_per_s", median(cps), "1/s"},
  };
  return r;
}

}  // namespace wolfbench
