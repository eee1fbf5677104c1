#include "suite_runner.hpp"

#include "rt/executor.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "trace/recorder.hpp"
#include "wolf.hpp"

namespace wolf::bench {

namespace {

// The full instrumentation cost of the paper's detector: every event is
// recorded and fed to the online D_σ/clock bookkeeping of a wolf::Session.
class InstrumentationSink final : public TraceSink {
 public:
  void on_event(Event e) override {
    recorder_.on_event(e);
    session_.feed(e);
  }

 private:
  TraceRecorder recorder_;
  Session session_ = Session::open(Config{});
};

}  // namespace

BenchmarkOutcome run_benchmark(const workloads::Benchmark& benchmark,
                               const SuiteOptions& options) {
  BenchmarkOutcome outcome;
  outcome.name = benchmark.name;
  outcome.paper = benchmark.paper;

  WolfOptions wolf_options;
  wolf_options.seed = options.seed;
  wolf_options.replay.attempts = options.replay_attempts;
  wolf_options.max_steps = benchmark.max_steps;
  outcome.wolf = run_wolf(benchmark.program, wolf_options);

  baseline::DfOptions df_options;
  df_options.seed = mix64(options.seed ^ 0xdfULL);
  df_options.replay.attempts = options.replay_attempts;
  df_options.max_steps = benchmark.max_steps;
  outcome.df = baseline::run_deadlock_fuzzer(benchmark.program, df_options);

  if (options.measure_slowdown) {
    outcome.slowdown = measure_rt_slowdown(benchmark.slowdown_program,
                                           options.seed,
                                           options.slowdown_runs);
  }
  return outcome;
}

std::vector<BenchmarkOutcome> run_suite(const SuiteOptions& options) {
  std::vector<BenchmarkOutcome> outcomes;
  for (const workloads::Benchmark& b : workloads::standard_suite())
    outcomes.push_back(run_benchmark(b, options));
  return outcomes;
}

double measure_rt_slowdown(const sim::Program& program, std::uint64_t seed,
                           int runs) {
  Rng rng(seed);
  auto timed_run = [&](bool instrument, std::uint64_t run_seed) -> double {
    rt::ExecutorOptions options;
    options.instrument = instrument;
    options.seed = run_seed;
    InstrumentationSink sink;
    if (instrument) options.sink = &sink;
    Stopwatch watch;
    sim::RunResult result = rt::execute(program, options);
    return result.outcome == sim::RunOutcome::kCompleted ? watch.seconds()
                                                         : 0.0;
  };
  // Paired design: each sample runs both modes back to back with the same
  // seed, so machine noise and scheduling variation hit both alike; the
  // reported slowdown is the median of the per-pair ratios. One warm-up
  // pair is discarded.
  (void)timed_run(false, seed);
  (void)timed_run(true, seed);
  Stats ratios;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t run_seed = rng();
    const double t0 = timed_run(false, run_seed);
    const double t1 = timed_run(true, run_seed);
    if (t0 > 0 && t1 > 0) ratios.add(t1 / t0);
  }
  return ratios.empty() ? 0.0 : ratios.median();
}

}  // namespace wolf::bench
