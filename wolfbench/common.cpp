#include <malloc.h>

#include <algorithm>
#include <sstream>

#include "stats.hpp"
#include "workload.hpp"

namespace wolfbench {

void WorkloadResult::fail(std::string message, std::uint64_t n) {
  failed += n;
  if (failures.size() < 8) failures.push_back(std::move(message));
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> times;
  double spent = 0;
  while (static_cast<int>(times.size()) < kSetupRepeats ||
         spent < kSetupSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    setup();
    times.push_back(since_s(t0));
    spent += times.back();
  }
  // Hand back what the discarded set-ups freed, so the measured phase's
  // resident growth is the sessions' own, whatever set-up left behind.
  malloc_trim(0);
  return median(times);
}

std::uint64_t run_for(double seconds, int min_ops,
                      const std::function<void(int)>& op) {
  const std::uint64_t rss0 = vm_rss_bytes();
  const auto t0 = std::chrono::steady_clock::now();
  op(0);
  const std::uint64_t hwm = vm_hwm_bytes();
  for (int i = 1; i < min_ops || since_s(t0) < seconds; ++i) op(i);
  return hwm > rss0 ? hwm - rss0 : 0;
}

void count_governor(const wolf::Session::Verdict& verdict, LayerCounts& c) {
  ++c.sessions;
  if (!verdict.governed) return;
  const wolf::GovernorVerdict& g = verdict.governor;
  c.windows += g.windows;
  c.suspicious_windows += g.suspicious_windows;
  c.compacted += g.tuples_compacted;
  c.evicted += g.tuples_evicted;
  for (const wolf::WindowReport& w : verdict.windows) {
    c.window_detect_ms.push_back(w.detect_seconds * 1e3);
    c.peak_store_bytes =
        std::max(c.peak_store_bytes, static_cast<double>(w.store_bytes));
  }
  if (verdict.windows.empty()) return;
  const wolf::WindowReport& last = verdict.windows.back();
  if (last.tuples_live > 0)
    c.store_bytes_per_tuple.push_back(static_cast<double>(last.store_bytes) /
                                      static_cast<double>(last.tuples_live));
  // Every acquire stores one raw tuple: those still live after the last
  // window plus every one compacted or evicted on the way.
  c.session_raw_tuples +=
      last.tuples_live + g.tuples_compacted + g.tuples_evicted;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

std::vector<Metric> layer_metrics(const std::vector<SpanRecord>& spans,
                                  const LayerCounts& c,
                                  std::vector<std::string>& lines) {
  const std::map<std::string, LayerTime> t = layer_times(spans);
  const auto self = [&t](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.self_seconds;
  };
  const auto count = [&t](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto per = [&](const char* name, double scale) {
    return ratio(self(name) * scale, count(name));
  };

  const double decode_ns = ratio(self("trace.next_block") * 1e9,
                                 static_cast<double>(c.decode_events));
  const double add_ns =
      ratio(self("builder.add") * 1e9, static_cast<double>(c.add_events));
  const double feed_ns =
      ratio(self("session.feed") * 1e9, static_cast<double>(c.feed_events));
  const std::vector<double> polls_us = [&] {
    std::vector<double> v = durations(spans, "session.poll");
    for (double& x : v) x *= 1e6;
    return v;
  }();
  const double serial_classify_s =
      self("prune") + self("generate") + self("replay");
  const double untraced = median(c.op_untraced_s);
  const double traced = median(c.op_traced_s);

  if (!polls_us.empty())
    lines.push_back(describe_timing("session.poll", polls_us, "us"));
  if (!c.window_detect_ms.empty())
    lines.push_back(describe_timing("governor.window_detect",
                                    c.window_detect_ms, "ms"));
  {
    std::ostringstream os;
    os << "tracing overhead: traced op " << traced << " s vs untraced "
       << untraced << " s (" << c.op_traced_s.size() << " vs "
       << c.op_untraced_s.size() << " ops): "
       << (traced - untraced) * 1e3 << " ms/op, "
       << ratio((traced - untraced) * 100, untraced) << " %";
    lines.push_back(os.str());
  }

  const double probes = static_cast<double>(c.probes);
  const double raw = static_cast<double>(c.raw_tuples);
  return {
      {"trace.decode_ns_per_event", decode_ns, "ns"},
      {"trace.decode_mb_s",
       ratio(static_cast<double>(c.decode_bytes) / 1e6,
             self("trace.next_block")),
       "MB/s"},
      {"trace.bytes_per_event",
       ratio(static_cast<double>(c.decode_bytes),
             static_cast<double>(c.decode_events)),
       "B"},
      {"builder.add_ns_per_event", add_ns, "ns"},
      {"builder.raw_tuples", ratio(raw, probes), "count"},
      {"builder.canonical_ratio",
       ratio(static_cast<double>(c.canonical_tuples), raw), "ratio"},
      {"builder.take_ms", per("builder.take", 1e3), "ms"},
      {"session.feed_ns_per_event", feed_ns, "ns"},
      {"governor.overhead_ns_per_event",
       add_ns > 0 && feed_ns > 0 ? feed_ns - add_ns : 0, "ns"},
      {"session.poll_us_p99", percentile(polls_us, 99), "us"},
      {"session.finish_ms", per("session.finish", 1e3), "ms"},
      {"governor.windows",
       ratio(static_cast<double>(c.windows), static_cast<double>(c.sessions)),
       "count"},
      {"governor.window_detect_p99_ms", percentile(c.window_detect_ms, 99),
       "ms"},
      {"governor.compacted_ratio",
       ratio(static_cast<double>(c.compacted),
             static_cast<double>(c.session_raw_tuples)),
       "ratio"},
      {"governor.evicted_tuples", static_cast<double>(c.evicted), "count"},
      {"governor.peak_store_mb", c.peak_store_bytes / (1 << 20), "MiB"},
      {"governor.store_bytes_per_tuple", median(c.store_bytes_per_tuple), "B"},
      {"prefilter.suspicious_ratio",
       ratio(static_cast<double>(c.suspicious_windows),
             static_cast<double>(c.windows)),
       "ratio"},
      {"enum.ms", per("enum", 1e3), "ms"},
      {"enum.canonical_tuples",
       ratio(static_cast<double>(c.canonical_tuples), probes), "count"},
      {"enum.cycles", ratio(static_cast<double>(c.enum_cycles), probes),
       "count"},
      {"detect.ms", per("detect", 1e3), "ms"},
      {"prune.us_per_cycle", per("prune", 1e6), "us"},
      {"prune.pruned_ratio",
       ratio(static_cast<double>(c.pruned), static_cast<double>(c.pruned_in)),
       "ratio"},
      {"generate.index_ms", per("generate.index", 1e3), "ms"},
      {"generate.us_per_cycle", per("generate", 1e6), "us"},
      {"generate.gs_vertices_mean",
       ratio(static_cast<double>(c.gs_vertices),
             static_cast<double>(c.generated)),
       "count"},
      {"generate.infeasible_ratio",
       ratio(static_cast<double>(c.infeasible),
             static_cast<double>(c.generated)),
       "ratio"},
      {"replay.us_per_cycle", per("replay", 1e6), "us"},
      {"replay.us_per_attempt",
       ratio(self("replay") * 1e6, static_cast<double>(c.replay_attempts)),
       "us"},
      {"replay.attempts_per_cycle",
       ratio(static_cast<double>(c.replay_attempts),
             static_cast<double>(c.replayed)),
       "count"},
      {"replay.hit_ratio",
       ratio(static_cast<double>(c.replay_hits),
             static_cast<double>(c.replay_attempts)),
       "ratio"},
      {"classify.parallel_efficiency",
       ratio(serial_classify_s, c.classify_jobs * c.classify_wall_s), "ratio"},
      {"serve.handshake_ms", median(c.handshake_ms), "ms"},
      {"serve.upload_mb_s",
       ratio(static_cast<double>(c.upload_bytes) / 1e6, c.upload_s), "MB/s"},
      {"serve.session_skew", median(c.session_skew), "ratio"},
      {"tracing.overhead_pct", ratio((traced - untraced) * 100, untraced),
       "%"},
  };
}

}  // namespace wolfbench
