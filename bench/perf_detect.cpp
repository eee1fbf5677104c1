// perf_detect — benchmark-gated perf harness for cycle enumeration
// (DESIGN.md §12).
//
// Builds synthetic lock-dependency workloads spanning the shapes that matter
// for enumeration cost, records one trace per workload, and times the
// enumeration step alone (D_σ construction and clock tracking are paid once,
// outside the timed region) for:
//
//   scc              — the SCC-partitioned bitset engine;
//   scc+clock-cut    — the same engine with the Pruner's test folded into
//                      the search.
//
// Workloads:
//   ring     — k threads on a ring of k locks, chain degree d: one big
//              nontrivial SCC, combinatorially many cycles (enumeration-bound
//              in the cyclic region itself);
//   layered  — globally ordered lock pairs: a large acyclic D_σ with zero
//              cycles; the engine proves every component trivial and does no
//              search at all;
//   mixed    — the layered DAG with a small ring embedded: the largest
//              workload (cycles exist, but almost all tuples are acyclic
//              noise);
//   phased   — two thread generations separated by a join barrier sharing
//              one ring: every cross-generation cycle is infeasible, so the
//              in-search clock cut has real branches to kill.
//
// A replay_sharing section replays every feasible cycle of the mixed
// workload through the batch replayer (core/batch_replay.hpp) and reports
// how many re-executed steps the shared prefix removed versus independent
// per-cycle replay.
//
// Emits BENCH_detect.json (with hardware_concurrency recorded). Exits 1 if
// the engine's cycle sequence diverges from the reference DFS oracle of the
// test suite (tests/testutil.hpp, run untimed), or the clock-cut enumeration
// differs from the batch-pruned survivors: speed only counts when the answer
// is identical.
//
//   perf_detect [--quick] [--out=BENCH_detect.json]
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_replay.hpp"
#include "core/cycle_engine.hpp"
#include "core/detector.hpp"
#include "core/generator.hpp"
#include "core/pruner.hpp"
#include "robust/retry.hpp"
#include "sim/scheduler.hpp"
#include "support/flags.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "testutil.hpp"

using namespace wolf;

namespace {

// k threads on a ring of k locks; thread i acquires (l_i, l_{(i+d) mod k})
// for d in 1..degree (same shape as perf_pipeline's stress workload).
void add_ring(sim::Program& p, int threads, int degree, const char* tag,
              ThreadId main, std::vector<ThreadId>& workers) {
  std::vector<LockId> ring;
  for (int i = 0; i < threads; ++i)
    ring.push_back(p.add_lock(std::string(tag) + "-lock-" + std::to_string(i),
                              p.site(std::string(tag) + ".ring", i)));
  std::vector<ThreadId> ts;
  for (int i = 0; i < threads; ++i)
    ts.push_back(p.add_thread(std::string(tag) + "-" + std::to_string(i)));
  for (int i = 0; i < threads; ++i) {
    ThreadId t = ts[static_cast<std::size_t>(i)];
    for (int d = 1; d <= degree; ++d) {
      const int j = (i + d) % threads;
      const int site_tag = i * 100 + d;
      p.lock(t, ring[static_cast<std::size_t>(i)],
             p.site(std::string(tag) + ".outer", site_tag));
      p.lock(t, ring[static_cast<std::size_t>(j)],
             p.site(std::string(tag) + ".inner", site_tag));
      p.unlock(t, ring[static_cast<std::size_t>(j)],
               p.site(std::string(tag) + ".innerX", site_tag));
      p.unlock(t, ring[static_cast<std::size_t>(i)],
               p.site(std::string(tag) + ".outerX", site_tag));
      p.compute(t, p.site(std::string(tag) + ".pause", site_tag));
    }
  }
  (void)main;
  workers.insert(workers.end(), ts.begin(), ts.end());
}

// Globally ordered nested pairs: thread t acquires (l_a, l_b) with a < b
// only, so the tuple digraph is a DAG — many tuples, zero cycles.
void add_layered(sim::Program& p, int threads, int locks, int pairs_per_thread,
                 std::vector<ThreadId>& workers) {
  std::vector<LockId> order;
  for (int i = 0; i < locks; ++i)
    order.push_back(
        p.add_lock("layer-lock-" + std::to_string(i), p.site("Layer.lock", i)));
  for (int t = 0; t < threads; ++t) {
    ThreadId tid = p.add_thread("layer-" + std::to_string(t));
    workers.push_back(tid);
    for (int k = 0; k < pairs_per_thread; ++k) {
      // Deterministic spread of ordered pairs across the lock ladder.
      const int a = (t * 7 + k * 3) % (locks - 1);
      const int b = a + 1 + (t + k) % (locks - 1 - a);
      const int site_tag = t * 1000 + k;
      p.lock(tid, order[static_cast<std::size_t>(a)],
             p.site("Layer.outer", site_tag));
      p.lock(tid, order[static_cast<std::size_t>(b)],
             p.site("Layer.inner", site_tag));
      p.unlock(tid, order[static_cast<std::size_t>(b)],
               p.site("Layer.innerX", site_tag));
      p.unlock(tid, order[static_cast<std::size_t>(a)],
               p.site("Layer.outerX", site_tag));
    }
  }
}

void start_join_all(sim::Program& p, ThreadId main,
                    const std::vector<ThreadId>& workers) {
  SiteId spawn = p.site("Main.spawn", 1);
  SiteId joinsite = p.site("Main.join", 2);
  for (ThreadId t : workers) p.start(main, t, spawn);
  for (ThreadId t : workers) p.join(main, t, joinsite);
}

sim::Program make_ring(int threads, int degree) {
  sim::Program p;
  p.name = "ring-" + std::to_string(threads) + "x" + std::to_string(degree);
  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  add_ring(p, threads, degree, "Ring", main, workers);
  start_join_all(p, main, workers);
  p.finalize();
  return p;
}

sim::Program make_layered(int threads, int locks, int pairs) {
  sim::Program p;
  p.name = "layered-" + std::to_string(threads) + "t" + std::to_string(locks) +
           "l";
  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  add_layered(p, threads, locks, pairs, workers);
  start_join_all(p, main, workers);
  p.finalize();
  return p;
}

sim::Program make_mixed(int layer_threads, int locks, int pairs,
                        int ring_threads, int ring_degree) {
  sim::Program p;
  p.name = "mixed-" + std::to_string(layer_threads) + "t+" +
           std::to_string(ring_threads) + "ring";
  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  add_layered(p, layer_threads, locks, pairs, workers);
  add_ring(p, ring_threads, ring_degree, "Ring", main, workers);
  start_join_all(p, main, workers);
  p.finalize();
  return p;
}

// Two generations on the same ring, separated by a join barrier: every
// cross-generation cycle is infeasible by Algorithm 2.
sim::Program make_phased(int threads_per_gen, int degree) {
  sim::Program p;
  p.name = "phased-2x" + std::to_string(threads_per_gen);
  ThreadId main = p.add_thread("main");

  std::vector<LockId> ring;
  for (int i = 0; i < threads_per_gen; ++i)
    ring.push_back(
        p.add_lock("phase-lock-" + std::to_string(i), p.site("Phase.lock", i)));

  SiteId spawn = p.site("Phase.spawn", 1);
  SiteId joinsite = p.site("Phase.join", 2);
  for (int gen = 0; gen < 2; ++gen) {
    std::vector<ThreadId> ts;
    for (int i = 0; i < threads_per_gen; ++i)
      ts.push_back(p.add_thread("gen" + std::to_string(gen) + "-" +
                                std::to_string(i)));
    for (int i = 0; i < threads_per_gen; ++i) {
      ThreadId t = ts[static_cast<std::size_t>(i)];
      for (int d = 1; d <= degree; ++d) {
        const int j = (i + d) % threads_per_gen;
        const int site_tag = gen * 10000 + i * 100 + d;
        p.lock(t, ring[static_cast<std::size_t>(i)],
               p.site("Phase.outer", site_tag));
        p.lock(t, ring[static_cast<std::size_t>(j)],
               p.site("Phase.inner", site_tag));
        p.unlock(t, ring[static_cast<std::size_t>(j)],
                 p.site("Phase.innerX", site_tag));
        p.unlock(t, ring[static_cast<std::size_t>(i)],
                 p.site("Phase.outerX", site_tag));
      }
    }
    // The barrier: generation gen is fully joined before gen+1 starts.
    for (ThreadId t : ts) p.start(main, t, spawn);
    for (ThreadId t : ts) p.join(main, t, joinsite);
  }
  p.finalize();
  return p;
}

std::string cycles_fingerprint(const std::vector<PotentialDeadlock>& cycles) {
  std::ostringstream os;
  for (const PotentialDeadlock& c : cycles) {
    for (std::size_t idx : c.tuple_idx) os << idx << ',';
    os << ';';
  }
  return os.str();
}

struct EngineSample {
  double seconds = 0;  // best-of-reps enumeration wall clock
  std::size_t cycles = 0;
  double cycles_per_second = 0;
  std::string fingerprint;
};

EngineSample time_engine(const LockDependency& dep,
                         const DetectorOptions& options,
                         const ClockTracker* clocks, int reps) {
  EngineSample sample;
  sample.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    EnumerationResult result = enumerate_cycles_ex(dep, options, clocks);
    sample.seconds = std::min(sample.seconds, watch.seconds());
    if (rep == 0) {
      sample.cycles = result.cycles.size();
      sample.fingerprint = cycles_fingerprint(result.cycles);
    }
  }
  if (sample.seconds > 0)
    sample.cycles_per_second =
        static_cast<double>(sample.cycles) / sample.seconds;
  return sample;
}

struct WorkloadResult {
  std::string name;
  std::size_t events = 0;
  std::size_t tuples = 0;     // canonical
  std::size_t cycles = 0;     // full enumeration
  EngineSample scc;
  EngineSample clock_cut;
  std::size_t surviving_cycles = 0;  // batch-pruner survivors
  bool identical = false;  // oracle == scc, clock cut == survivors
};

WorkloadResult measure(const sim::Program& program, int reps,
                       std::uint64_t seed) {
  WorkloadResult r;
  r.name = program.name;

  robust::RetryPolicy retry;
  retry.max_attempts = 60;
  auto trace = sim::record_trace(program, seed, retry, 8'000'000);
  if (!trace.has_value()) {
    std::cerr << r.name << ": every recording run deadlocked; skipping\n";
    return r;
  }
  r.events = trace->size();

  // Build D_σ and the clocks once; only enumeration is timed.
  Detection det = detect(*trace);
  r.tuples = det.dep.unique.size();

  DetectorOptions options;
  r.scc = time_engine(det.dep, options, nullptr, reps);

  options.clock_prune_during_search = true;
  r.clock_cut = time_engine(det.dep, options, &det.clocks, reps);

  r.cycles = r.scc.cycles;

  // The correctness gates: the reference oracle's canonical sequence;
  // clock-cut enumeration == the batch pruner's survivors.
  const std::string oracle = cycles_fingerprint(
      test::enumerate_cycles_reference(det.dep, DetectorOptions{}).cycles);
  const std::vector<PruneVerdict> verdicts = prune(det);
  std::vector<PotentialDeadlock> survivors;
  for (std::size_t i = 0; i < det.cycles.size(); ++i)
    if (!is_false(verdicts[i])) survivors.push_back(det.cycles[i]);
  r.surviving_cycles = survivors.size();
  r.identical = oracle == r.scc.fingerprint &&
                r.clock_cut.fingerprint == cycles_fingerprint(survivors);
  return r;
}

// Batch-replays up to `max_members` feasible cycles of one workload over
// shared re-execution prefixes and compares the step count against what the
// same trials would cost replayed independently.
struct ReplaySharingResult {
  std::string workload;
  std::size_t feasible = 0;  // generator-approved cycles in the detection
  std::size_t members = 0;   // batched (capped at max_members)
  int attempts = 0;
  std::size_t reproduced = 0;  // members whose deadlock was re-triggered
  std::uint64_t shared_steps = 0;
  std::uint64_t replayed_steps = 0;
  std::uint64_t naive_steps = 0;
  double savings = 0;
  bool ok = false;  // measured (>= 1 member) and replayed fewer steps
};

ReplaySharingResult measure_replay_sharing(const sim::Program& program,
                                           std::uint64_t seed,
                                           std::size_t max_members,
                                           int attempts) {
  ReplaySharingResult r;
  r.workload = program.name;

  robust::RetryPolicy retry;
  retry.max_attempts = 60;
  auto trace = sim::record_trace(program, seed, retry, 8'000'000);
  if (!trace.has_value()) return r;
  Detection det = detect(*trace);

  // One index serves every cycle's Gs construction (pipeline.cpp does the
  // same); gens owns the graphs the members point into.
  const DependencyIndex index = DependencyIndex::build(det.dep);
  std::vector<GeneratorResult> gens;
  std::vector<const PotentialDeadlock*> cycles;
  gens.reserve(det.cycles.size());
  for (const PotentialDeadlock& cycle : det.cycles) {
    GeneratorResult gen = generate(cycle, det.dep, index);
    if (!gen.feasible) continue;
    gens.push_back(std::move(gen));
    cycles.push_back(&cycle);
  }
  r.feasible = gens.size();
  r.members = std::min(max_members, gens.size());
  std::vector<BatchReplayMember> members;
  for (std::size_t i = 0; i < r.members; ++i)
    members.push_back(BatchReplayMember{cycles[i], &gens[i].gs});
  if (members.empty()) return r;

  ReplayOptions options;
  options.attempts = attempts;
  options.seed = seed;
  BatchReplayReport report = replay_batch(program, det.dep, members, options);
  r.attempts = report.attempts;
  for (const ReplayStats& s : report.stats)
    if (s.reproduced()) ++r.reproduced;
  r.shared_steps = report.shared_steps;
  r.replayed_steps = report.replayed_steps;
  r.naive_steps = report.naive_steps;
  r.savings = report.savings();
  r.ok = r.replayed_steps <= r.naive_steps;
  return r;
}

void sample_json(std::ostream& os, const char* key, const EngineSample& s,
                 const char* trail) {
  os << "      \"" << key << "\": {\"seconds\": " << s.seconds
     << ", \"cycles\": " << s.cycles
     << ", \"cycles_per_second\": " << s.cycles_per_second << "}" << trail
     << '\n';
}

void write_json(std::ostream& os, const std::vector<WorkloadResult>& results,
                const ReplaySharingResult& sharing, bool quick) {
  os << "{\n"
     << "  \"bench\": \"perf_detect\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"hardware_concurrency\": " << ThreadPool::hardware_jobs() << ",\n"
     << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    os << "    {\n"
       << "      \"name\": \"" << r.name << "\",\n"
       << "      \"events\": " << r.events << ",\n"
       << "      \"canonical_tuples\": " << r.tuples << ",\n"
       << "      \"cycles\": " << r.cycles << ",\n"
       << "      \"surviving_cycles\": " << r.surviving_cycles << ",\n";
    sample_json(os, "scc", r.scc, ",");
    sample_json(os, "scc_clock_cut", r.clock_cut, ",");
    os << "      \"identical\": " << (r.identical ? "true" : "false") << '\n'
       << "    }" << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "  ],\n"
     << "  \"replay_sharing\": {\n"
     << "    \"workload\": \"" << sharing.workload << "\",\n"
     << "    \"feasible_cycles\": " << sharing.feasible << ",\n"
     << "    \"members\": " << sharing.members << ",\n"
     << "    \"attempts\": " << sharing.attempts << ",\n"
     << "    \"reproduced\": " << sharing.reproduced << ",\n"
     << "    \"shared_steps\": " << sharing.shared_steps << ",\n"
     << "    \"replayed_steps\": " << sharing.replayed_steps << ",\n"
     << "    \"naive_steps\": " << sharing.naive_steps << ",\n"
     << "    \"savings\": " << sharing.savings << '\n'
     << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_bool("quick", false,
                    "CI smoke mode: smaller workloads, fewer reps");
  flags.define_int("seed", 2014, "seed");
  flags.define_int("reps", 0, "timing repetitions (0 = 3 quick / 5 full)");
  flags.define_string("out", "BENCH_detect.json", "JSON output path");
  if (!flags.parse(argc, argv)) return 1;

  const bool quick = flags.get_bool("quick");
  int reps = static_cast<int>(flags.get_int("reps"));
  if (reps <= 0) reps = quick ? 3 : 5;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::vector<sim::Program> programs;
  if (quick) {
    programs.push_back(make_ring(8, 2));
    programs.push_back(make_layered(16, 20, 6));
    programs.push_back(make_mixed(16, 20, 6, 5, 2));
    programs.push_back(make_phased(4, 2));
  } else {
    programs.push_back(make_ring(12, 3));
    programs.push_back(make_layered(40, 48, 12));
    programs.push_back(make_mixed(40, 48, 12, 6, 2));
    programs.push_back(make_phased(6, 2));
  }

  std::vector<WorkloadResult> results;
  for (const sim::Program& program : programs)
    results.push_back(measure(program, reps, seed));

  // Replay-sharing measurement on the mixed workload: the embedded ring
  // yields several feasible cycles whose Gs graphs steer the same recorded
  // schedule, so prefixes actually coincide.
  const std::size_t mixed_index = 2;
  ReplaySharingResult sharing = measure_replay_sharing(
      programs[mixed_index], seed, /*max_members=*/8,
      /*attempts=*/quick ? 3 : 5);

  TextTable table(
      {"Workload", "Tuples", "Cycles", "SCC", "Clock-cut", "Identical"});
  for (const WorkloadResult& r : results)
    table.add_row({r.name, std::to_string(r.tuples), std::to_string(r.cycles),
                   TextTable::num(r.scc.seconds * 1e3, 2) + " ms",
                   TextTable::num(r.clock_cut.seconds * 1e3, 2) + " ms",
                   r.identical ? "yes" : "NO"});
  table.render(std::cout);

  std::cout << "\nreplay sharing (" << sharing.workload << "): "
            << sharing.members << "/" << sharing.feasible
            << " feasible cycles batched, " << sharing.reproduced
            << " reproduced; steps " << sharing.replayed_steps << " vs "
            << sharing.naive_steps << " naive ("
            << TextTable::num(sharing.savings * 100.0, 1) << "% saved, "
            << sharing.shared_steps << " shared)\n";

  const std::string out = flags.get_string("out");
  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  write_json(os, results, sharing, quick);
  std::cout << "\nwrote " << out << " (hardware concurrency "
            << ThreadPool::hardware_jobs() << ")\n";

  bool all_identical = true;
  for (const WorkloadResult& r : results) all_identical &= r.identical;
  if (!all_identical) {
    std::cerr << "FAIL: enumeration diverged from the reference oracle\n";
    return 1;
  }
  if (!sharing.ok) {
    std::cerr << "FAIL: batch replay measured nothing or replayed more "
                 "steps than independent replay\n";
    return 1;
  }
  return 0;
}
