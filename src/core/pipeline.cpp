#include "core/pipeline.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/span.hpp"
#include "robust/fault.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"

namespace wolf {

const char* to_string(Classification c) {
  switch (c) {
    case Classification::kFalseByPruner:
      return "false(pruner)";
    case Classification::kFalseByGenerator:
      return "false(generator)";
    case Classification::kReproduced:
      return "reproduced";
    case Classification::kUnknown:
      return "unknown";
  }
  return "?";
}

PhaseTimings PhaseTimings::from_spans(
    const std::vector<obs::SpanRecord>& spans) {
  PhaseTimings t;
  // (tag, duration) per parallel stage; summed below in tag order so the
  // totals are independent of worker scheduling.
  std::vector<std::pair<std::uint64_t, double>> prune, generate, replay;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "phase/record") {
      t.record_seconds += s.duration_seconds;
    } else if (s.name == "phase/detect") {
      t.detect_seconds += s.duration_seconds;
    } else if (s.name == "phase/feasibility") {
      t.feasibility_wall_seconds += s.duration_seconds;
    } else if (s.name == "phase/replay") {
      t.replay_wall_seconds += s.duration_seconds;
    } else if (s.name == "cycle/prune") {
      prune.emplace_back(s.tag, s.duration_seconds);
    } else if (s.name == "cycle/generate") {
      generate.emplace_back(s.tag, s.duration_seconds);
    } else if (s.name == "cycle/replay") {
      replay.emplace_back(s.tag, s.duration_seconds);
    }
  }
  const auto sum_in_tag_order =
      [](std::vector<std::pair<std::uint64_t, double>>& stage) {
        std::sort(stage.begin(), stage.end(),
                  [](const std::pair<std::uint64_t, double>& a,
                     const std::pair<std::uint64_t, double>& b) {
                    return a.first < b.first;
                  });
        double total = 0;
        for (const auto& entry : stage) total += entry.second;
        return total;
      };
  t.prune_seconds = sum_in_tag_order(prune);
  t.generate_seconds = sum_in_tag_order(generate);
  t.replay_seconds = sum_in_tag_order(replay);
  return t;
}

int WolfReport::count_cycles(Classification c) const {
  int n = 0;
  for (const CycleReport& r : cycles)
    if (r.classification == c) ++n;
  return n;
}

int WolfReport::count_defects(Classification c) const {
  int n = 0;
  for (const DefectReport& r : defects)
    if (r.classification == c) ++n;
  return n;
}

int WolfReport::false_positive_cycles() const {
  return count_cycles(Classification::kFalseByPruner) +
         count_cycles(Classification::kFalseByGenerator);
}

int WolfReport::false_positive_defects() const {
  return count_defects(Classification::kFalseByPruner) +
         count_defects(Classification::kFalseByGenerator);
}

std::string WolfReport::summary(const SiteTable& sites) const {
  std::ostringstream os;
  os << "WOLF report: " << detection.cycles.size() << " cycle(s), "
     << detection.defects.size() << " defect(s)\n";
  int degraded = 0;
  for (const CycleReport& r : cycles)
    if (r.degraded()) ++degraded;
  if (degraded > 0)
    os << "  " << degraded
       << " cycle(s) degraded to unknown by classification failures\n";
  for (const DefectReport& d : defects) {
    os << "  defect [";
    for (std::size_t i = 0; i < d.signature.size(); ++i) {
      if (i != 0) os << ", ";
      os << sites.name(d.signature[i]);
    }
    os << "] -> " << to_string(d.classification) << " ("
       << d.cycle_indices.size() << " cycle(s))\n";
  }
  return os.str();
}

namespace {

// Fills `report.failure_reason` for a replay series that produced nothing but
// timed-out trials — the cycle is kept (kUnknown) instead of wedging or
// aborting the whole analysis.
void note_all_timeouts(CycleReport& report) {
  const ReplayStats& s = report.replay_stats;
  if (s.attempts > 0 && s.timeouts == s.attempts)
    report.failure_reason = "every replay trial timed out";
}

// Test hook: FaultPlan::classify_throw_cycle simulates a classification stage
// crashing for one specific cycle.
void maybe_throw_injected(const WolfOptions& options, std::size_t cycle_index) {
  if (options.fault != nullptr &&
      options.fault->classify_throw_cycle == static_cast<int>(cycle_index))
    throw std::runtime_error(
        "fault injection: classification stage threw for cycle " +
        std::to_string(cycle_index));
}

}  // namespace

CycleReport classify_cycle(const sim::Program& program,
                           const Detection& detection, std::size_t cycle_index,
                           const WolfOptions& options) {
  WOLF_CHECK(cycle_index < detection.cycles.size());
  const PotentialDeadlock& cycle = detection.cycles[cycle_index];

  CycleReport report;
  report.cycle_index = cycle_index;
  try {
    maybe_throw_injected(options, cycle_index);
    report.prune_verdict =
        prune_cycle(cycle, detection.dep, detection.clocks);
    if (is_false(report.prune_verdict)) {
      report.classification = Classification::kFalseByPruner;
      return report;
    }

    GeneratorResult gen = generate(cycle, detection.dep);
    report.gs_vertices = gen.gs.vertex_count();
    if (!gen.feasible) {
      report.classification = Classification::kFalseByGenerator;
      return report;
    }

    ReplayOptions replay_options = options.replay;
    replay_options.max_steps = options.max_steps;
    replay_options.fault = options.fault;
    report.replay_stats =
        replay(program, cycle, detection.dep, gen.gs, replay_options);
    if (report.replay_stats.reproduced()) {
      report.classification = Classification::kReproduced;
    } else {
      report.classification = Classification::kUnknown;
      note_all_timeouts(report);
    }
  } catch (const std::exception& e) {
    report.classification = Classification::kUnknown;
    report.failure_reason = e.what();
  }
  return report;
}

namespace {

Classification defect_classification(const std::vector<CycleReport>& cycles,
                                     const Defect& defect) {
  bool any_reproduced = false;
  bool any_unknown = false;
  bool any_generator_false = false;
  for (std::size_t c : defect.cycle_idx) {
    switch (cycles[c].classification) {
      case Classification::kReproduced:
        any_reproduced = true;
        break;
      case Classification::kUnknown:
        any_unknown = true;
        break;
      case Classification::kFalseByGenerator:
        any_generator_false = true;
        break;
      case Classification::kFalseByPruner:
        break;
    }
  }
  // One deadlocking re-execution proves the source location defective
  // (§4.3); conversely a defect is false only when every dynamic occurrence
  // is false.
  if (any_reproduced) return Classification::kReproduced;
  if (any_unknown) return Classification::kUnknown;
  return any_generator_false ? Classification::kFalseByGenerator
                             : Classification::kFalseByPruner;
}

// Per-cycle scratch state of the parallel classification engine. Workers
// write only their own slot; everything is merged serially afterwards.
struct CycleStage {
  CycleReport report;
  GeneratorResult gen;
  bool replay_needed = false;
};

// Classification back half of the pipeline, shared by the materialized and
// streaming front ends: takes a finished Detection and runs the parallel
// prune/generate/replay engine over its cycles. Timing goes through the
// obs span sink (which already holds the caller's record/detect spans);
// the merged report carries the span tree plus the PhaseTimings view of it.
WolfReport classify_detection(const sim::Program& program, Detection detection,
                              const WolfOptions& options,
                              obs::SpanSink& sink) {
  WolfReport report;
  report.trace_recorded = true;
  report.detection = std::move(detection);

  const std::size_t cycle_count = report.detection.cycles.size();
  const int jobs = options.jobs <= 0 ? ThreadPool::hardware_jobs()
                                     : options.jobs;
  report.jobs_used = jobs;
  ThreadPool pool(cycle_count <= 1 ? 1 : jobs);

  // Trace-level Gs scaffolding, shared read-only by every worker.
  const DependencyIndex dep_index =
      DependencyIndex::build(report.detection.dep);

  // Classification runs in two parallel phases over independent cycles.
  // Per-stage timings are accumulated (as CPU seconds, in cycle-index
  // order) so the Fig. 10 harness can report detection (prune+generate)
  // and reproduction overheads separately.
  //
  // Phase 1 — feasibility: prune + generate per cycle. A stage that throws
  // degrades only its own cycle to kUnknown (with the reason recorded); the
  // remaining cycles still classify normally.
  std::vector<CycleStage> stages(cycle_count);
  {
    obs::Span feasibility_span(&sink, "phase/feasibility");
    const obs::SpanId feasibility_id = feasibility_span.id();
    pool.parallel_for_each(cycle_count, [&](std::size_t c) {
      CycleStage& stage = stages[c];
      stage.report.cycle_index = c;
      try {
        maybe_throw_injected(options, c);

        {
          obs::Span prune_span(&sink, "cycle/prune", feasibility_id, c);
          stage.report.prune_verdict = prune_cycle(
              report.detection.cycles[c], report.detection.dep,
              report.detection.clocks);
        }

        if (options.enable_pruner && is_false(stage.report.prune_verdict)) {
          stage.report.classification = Classification::kFalseByPruner;
          return;
        }

        {
          obs::Span generate_span(&sink, "cycle/generate", feasibility_id, c);
          stage.gen =
              generate(report.detection.cycles[c], report.detection.dep,
                       dep_index);
        }
        stage.report.gs_vertices = stage.gen.gs.vertex_count();

        if (options.enable_generator_check && !stage.gen.feasible) {
          stage.report.classification = Classification::kFalseByGenerator;
          return;
        }
        stage.replay_needed = true;
      } catch (const std::exception& e) {
        stage.report.classification = Classification::kUnknown;
        stage.report.failure_reason = e.what();
      }
    });
  }

  // Replay seeds come from the serial seed chain, advanced in cycle-index
  // order over exactly the cycles that reach the replay stage. Which cycles
  // those are is deterministic (prune and generate consume no randomness),
  // so every jobs level — including the historical serial pipeline this
  // replaces — sees identical per-cycle seeds, making reports bit-identical.
  std::uint64_t replay_seed = mix64(options.seed ^ 0x57a7e5ULL);
  std::vector<std::uint64_t> replay_seeds(cycle_count, 0);
  for (std::size_t c = 0; c < cycle_count; ++c)
    if (stages[c].replay_needed)
      replay_seeds[c] = replay_seed = mix64(replay_seed);

  // Phase 2 — replay the surviving cycles.
  {
    obs::Span replay_span(&sink, "phase/replay");
    const obs::SpanId replay_id = replay_span.id();
    pool.parallel_for_each(cycle_count, [&](std::size_t c) {
      CycleStage& stage = stages[c];
      if (!stage.replay_needed) return;
      try {
        ReplayOptions replay_options = options.replay;
        replay_options.seed = replay_seeds[c];
        replay_options.max_steps = options.max_steps;
        replay_options.fault = options.fault;
        obs::Span cycle_span(&sink, "cycle/replay", replay_id, c);
        stage.report.replay_stats =
            replay(program, report.detection.cycles[c], report.detection.dep,
                   stage.gen.gs, replay_options);
        if (stage.report.replay_stats.reproduced()) {
          stage.report.classification = Classification::kReproduced;
        } else {
          stage.report.classification = Classification::kUnknown;
          note_all_timeouts(stage.report);
        }
      } catch (const std::exception& e) {
        stage.report.classification = Classification::kUnknown;
        stage.report.failure_reason = e.what();
      }
    });
  }

  // Deterministic merge, in cycle-index order.
  report.cycles.reserve(cycle_count);
  for (CycleStage& stage : stages)
    report.cycles.push_back(std::move(stage.report));

  // Defect rollup.
  for (const Defect& defect : report.detection.defects) {
    DefectReport d;
    d.signature = defect.signature;
    d.cycle_indices = defect.cycle_idx;
    d.classification = defect_classification(report.cycles, defect);
    report.defects.push_back(std::move(d));
  }

  // Average |Vs| over cycles that reached the Generator.
  int generated = 0;
  double total_vs = 0;
  for (const CycleReport& r : report.cycles) {
    if (r.gs_vertices > 0) {
      ++generated;
      total_vs += r.gs_vertices;
    }
  }
  report.avg_gs_vertices = generated == 0 ? 0 : total_vs / generated;

  report.spans = sink.take();
  report.timings = PhaseTimings::from_spans(report.spans);
  return report;
}

WolfReport analyze(const sim::Program& program, const Trace& trace,
                   const WolfOptions& options, obs::SpanSink& sink) {
  Detection detection;
  {
    obs::Span detect_span(&sink, "phase/detect");
    detection = detect(trace, options.detector);
  }
  return classify_detection(program, std::move(detection), options, sink);
}

}  // namespace

WolfReport run_wolf(const sim::Program& program, const WolfOptions& options) {
  obs::SpanSink sink;
  robust::RetryPolicy record_retry = options.replay.retry;
  record_retry.max_attempts = options.record_attempts;
  std::optional<Trace> trace;
  {
    obs::Span record_span(&sink, "phase/record");
    trace = sim::record_trace(program, options.seed, record_retry,
                              options.max_steps);
  }
  if (!trace.has_value()) {
    WolfReport report;
    report.trace_recorded = false;
    report.spans = sink.take();
    report.timings = PhaseTimings::from_spans(report.spans);
    return report;
  }
  return analyze(program, *trace, options, sink);
}

WolfReport analyze_trace(const sim::Program& program, const Trace& trace,
                         const WolfOptions& options) {
  obs::SpanSink sink;
  return analyze(program, trace, options, sink);
}

WolfReport analyze_session(const sim::Program& program, Session& session,
                           TraceReader& reader, const WolfOptions& options) {
  obs::SpanSink sink;
  Session::Verdict verdict;
  {
    obs::Span detect_span(&sink, "phase/detect");
    session.ingest(reader);
    verdict = session.finish();
  }
  WolfReport report = classify_detection(program, std::move(verdict.detection),
                                         options, sink);
  if (verdict.governed) {
    report.governed = true;
    report.windows = std::move(verdict.windows);
    report.governor = std::move(verdict.governor);
  }
  return report;
}

}  // namespace wolf
