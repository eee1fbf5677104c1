// The measured passes shared by the workloads: a live session over v3 bytes
// and the traced-only probes of the detector and classifier layers.
#include <istream>
#include <streambuf>

#include "core/cycle_engine.hpp"
#include "core/pruner.hpp"
#include "trace/trace_reader.hpp"
#include "workload.hpp"

namespace wolfbench {

namespace {

// A read-only istream buffer over bytes the caller keeps alive, so every
// pass decodes the set-up's encoding in place instead of copying it.
class ViewBuf final : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

}  // namespace

SessionPass run_session_pass(std::string_view bytes, const wolf::Config& cfg,
                             Tracer& tr, LayerCounts* counts) {
  SessionPass p;
  const auto pass = tr.span("session.pass");
  const auto t0 = std::chrono::steady_clock::now();
  wolf::Session session = [&] {
    const auto sp = tr.span("session.open");
    return wolf::Session::open(cfg);
  }();
  ViewBuf buf(bytes);
  std::istream is(&buf);
  wolf::StreamTraceReader reader(is);
  std::vector<wolf::Event> block;
  while (true) {
    bool more = false;
    {
      const auto sp = tr.span("trace.next_block");
      more = reader.next_block(block);
    }
    if (!more) break;
    const std::size_t closed = session.windows_closed();
    const auto f0 = std::chrono::steady_clock::now();
    {
      const auto sp = tr.span("session.feed");
      session.feed(block);
    }
    std::vector<wolf::SessionCycle> cycles;
    {
      const auto sp = tr.span("session.poll");
      cycles = session.poll();
    }
    const double feed_to_poll_ms = since_s(f0) * 1e3;
    if (session.windows_closed() > closed)
      p.window_ms.push_back(feed_to_poll_ms);
    for (wolf::SessionCycle& c : cycles)
      p.live.insert(std::move(c.description));
    p.events += block.size();
  }
  if (!reader.ok()) p.error = "v3 decode failed: " + reader.error();
  const auto f0 = std::chrono::steady_clock::now();
  {
    const auto sp = tr.span("session.finish");
    p.verdict = session.finish();
  }
  p.finish_s = since_s(f0);
  p.wall_s = since_s(t0);
  if (counts != nullptr) {
    counts->decode_events += p.events;
    counts->decode_bytes += bytes.size();
    counts->feed_events += p.events;
    count_governor(p.verdict, *counts);
  }
  return p;
}

wolf::Detection run_builder_probe(std::string_view bytes,
                                  const wolf::DetectorOptions& options,
                                  Tracer& tr, LayerCounts& counts) {
  const auto probe = tr.span("probe.builder");
  ViewBuf buf(bytes);
  std::istream is(&buf);
  wolf::StreamTraceReader reader(is);
  wolf::LockDependencyBuilder builder;
  std::vector<wolf::Event> block;
  while (true) {
    bool more = false;
    {
      const auto sp = tr.span("trace.next_block");
      more = reader.next_block(block);
    }
    if (!more) break;
    {
      const auto sp = tr.span("builder.add");
      for (const wolf::Event& e : block) builder.add(e);
    }
    counts.add_events += block.size();
    counts.decode_events += block.size();
  }
  counts.decode_bytes += bytes.size();
  counts.raw_tuples += builder.tuple_count();
  wolf::ClockTracker clocks = builder.clocks();
  wolf::LockDependency dep;
  {
    const auto sp = tr.span("builder.take");
    dep = builder.take_dependency();
  }
  counts.canonical_tuples += dep.unique.size();
  {
    const auto sp = tr.span("enum");
    counts.enum_cycles +=
        wolf::enumerate_cycles_ex(dep, options, &clocks).cycles.size();
  }
  wolf::Detection detection;
  {
    const auto sp = tr.span("detect");
    detection =
        wolf::finish_detection(std::move(dep), std::move(clocks), options);
  }
  ++counts.probes;
  return detection;
}

Feasibility run_feasibility_probe(const wolf::Detection& detection,
                                  Tracer& tr, LayerCounts& counts) {
  Feasibility f;
  const std::size_t n = detection.cycles.size();
  f.gen.resize(n);
  f.pruned.assign(n, false);
  f.replay_needed.assign(n, false);
  if (n == 0) return f;
  const auto probe = tr.span("probe.feasibility");
  const wolf::DependencyIndex index = [&] {
    const auto sp = tr.span("generate.index");
    return wolf::DependencyIndex::build(detection.dep);
  }();
  for (std::size_t c = 0; c < n; ++c) {
    const wolf::PotentialDeadlock& cycle = detection.cycles[c];
    wolf::PruneVerdict verdict = wolf::PruneVerdict::kUnknown;
    {
      const auto sp = tr.span("prune");
      verdict = wolf::prune_cycle(cycle, detection.dep, detection.clocks);
    }
    ++counts.pruned_in;
    if (wolf::is_false(verdict)) {
      ++counts.pruned;
      f.pruned[c] = true;
      continue;
    }
    {
      const auto sp = tr.span("generate");
      f.gen[c] = wolf::generate(cycle, detection.dep, index);
    }
    ++counts.generated;
    counts.gs_vertices +=
        static_cast<std::uint64_t>(f.gen[c].gs.vertex_count());
    if (!f.gen[c].feasible) {
      ++counts.infeasible;
      continue;
    }
    f.replay_needed[c] = true;
  }
  return f;
}

}  // namespace wolfbench
