// Unit tests for the benchmark's own helpers: the percentile rule, span
// self-time arithmetic, /proc/self/status parsing, and the reference
// checkers' refusal of wrong answers.
#include <gtest/gtest.h>

#include <numeric>

#include "checks.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "tracer.hpp"

namespace wolfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(100), 99), 99);
  EXPECT_EQ(percentile(one_to(10), 99), 10);
  EXPECT_EQ(percentile({}, 99), 0);
  EXPECT_EQ(median(one_to(4)), 2.5);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
  const Tail t1000 = tail_percentile(one_to(1000));
  EXPECT_EQ(t1000.p, 99);
  EXPECT_EQ(t1000.beyond, 10u);
  EXPECT_EQ(t1000.value, 990);
  EXPECT_EQ(t1000.samples, 1000u);
  // 999 samples leave only 9 beyond p99, so the rule falls back to p90.
  EXPECT_EQ(tail_percentile(one_to(999)).p, 90);
  EXPECT_FALSE(tail_supported(99, 999));
  EXPECT_TRUE(tail_supported(99.9, 10000));
  EXPECT_EQ(tail_percentile(one_to(10000)).p, 99.9);
  // Too few for any tail: the median, with its sample count.
  const Tail small = tail_percentile(one_to(15));
  EXPECT_EQ(small.p, 50);
  EXPECT_EQ(small.samples, 15u);
  EXPECT_NE(describe_timing("x", one_to(1000), "ms").find("(n=1000"),
            std::string::npos);
}

SpanRecord span(std::uint32_t id, std::uint32_t parent, std::int64_t start,
                std::int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = parent == kNoParent ? "root" : "child";
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsChildrenOnce) {
  // root [0, 100) with children [10, 30) and [20, 50) overlapping, plus a
  // grandchild inside the first child; root self = 100 - 40.
  const std::vector<SpanRecord> spans = {
      span(1, kNoParent, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
      span(4, 2, 12, 18)};
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 60e-9);
  EXPECT_DOUBLE_EQ(self[1], 14e-9);
  EXPECT_DOUBLE_EQ(self[2], 30e-9);
  EXPECT_DOUBLE_EQ(self[3], 6e-9);
  const auto layers = layer_times(spans);
  EXPECT_DOUBLE_EQ(layers.at("child").self_seconds, 50e-9);
  EXPECT_EQ(layers.at("child").count, 3u);
  EXPECT_DOUBLE_EQ(layers.at("root").self_seconds, 60e-9);
}

TEST(SelfTime, ClipsChildrenToParent) {
  const std::vector<SpanRecord> spans = {span(1, kNoParent, 100, 200),
                                         span(2, 1, 50, 150)};
  EXPECT_DOUBLE_EQ(self_seconds(spans)[0], 50e-9);
}

TEST(Tracer, RecordsNestingAndDisabledIsSilent) {
  TraceRun run(true, "r");
  {
    Tracer tr(run);
    tr.set_op(7);
    const auto outer = tr.span("outer");
    const auto inner = tr.span("inner");
  }
  const std::vector<SpanRecord> spans = run.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].op, 7u);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);

  TraceRun off(false, "r");
  {
    Tracer tr(off);
    const auto s = tr.span("x");
  }
  EXPECT_TRUE(off.spans().empty());
}

TEST(ProcStatus, ParsesHwmDelta) {
  const std::string before = "Name:\twolfbench\nVmPeak:\t  100000 kB\n"
                             "VmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
  const std::string after = "VmHWM:\t   51200 kB\nVmRSS:\t   30000 kB\n";
  EXPECT_EQ(proc_status_bytes(before, "VmHWM"), 20480u * 1024);
  EXPECT_EQ(proc_status_bytes(before, "VmRSS"), 10240u * 1024);
  EXPECT_EQ(*proc_status_bytes(after, "VmHWM") -
                *proc_status_bytes(before, "VmRSS"),
            40960u * 1024);
  EXPECT_FALSE(proc_status_bytes(before, "VmSwap").has_value());
  EXPECT_FALSE(proc_status_bytes("VmHWM:\t12 MB\n", "VmHWM").has_value());
  EXPECT_FALSE(proc_status_bytes("VmHWM:\t kB\n", "VmHWM").has_value());
  // A key that is only a prefix of another must not match it.
  EXPECT_FALSE(proc_status_bytes("VmHWMX:\t5 kB\n", "VmHWM").has_value());
  EXPECT_GT(vm_hwm_bytes(), 0u);
}

TEST(Checks, RefuseDeliberatelyWrongVerdicts) {
  EXPECT_EQ(checker_self_test(), "");
}

TEST(Streams, SameSeedSameBytesAndConstructedCycles) {
  const StreamInput a = make_dedup_stream(20000, 5);
  EXPECT_EQ(a.bytes, make_dedup_stream(20000, 5).bytes);
  EXPECT_NE(a.bytes, make_dedup_stream(20000, 6).bytes);
  EXPECT_EQ(a.cycles.size(), 1u);
  const StreamInput c = make_churn_stream(4, 64, 5);
  EXPECT_EQ(c.events, 256u);
  EXPECT_EQ(c.cycles.size(), 4u);
}

}  // namespace
}  // namespace wolfbench
