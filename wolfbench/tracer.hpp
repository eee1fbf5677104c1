// Benchmark-side spans: the traced run wraps every call the benchmark makes
// into a layer's public functions in a span, so per-layer time comes from
// the benchmark's own files and nothing inside the library is instrumented.
//
// A Tracer belongs to one thread and keeps its spans in memory; the
// TraceRun collects every thread's spans and writes them out at exit as
// JSON lines. A disabled TraceRun hands out disabled tracers whose spans
// cost one branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace wolfbench {

inline constexpr std::uint32_t kNoParent = 0;

struct SpanRecord {
  std::uint32_t id = 0;                // 1-based, unique within the run
  std::uint32_t parent = kNoParent;
  const char* name = "";               // static string, e.g. "session.feed"
  std::int64_t start_ns = 0;           // steady clock, relative to the run
  std::int64_t end_ns = 0;
  std::uint32_t op = 0;                // operation index within the run
  std::uint32_t lane = 0;              // thread lane (client index)

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

class TraceRun {
 public:
  TraceRun(bool enabled, std::string run_id);

  bool enabled() const { return enabled_; }
  const std::string& run_id() const { return run_id_; }
  std::int64_t now_ns() const;
  std::uint32_t next_id() { return ++next_id_; }

  void absorb(std::vector<SpanRecord>&& spans);
  // All spans recorded so far (absorbed tracers only), in id order.
  std::vector<SpanRecord> spans() const;
  // One JSON object per line: run, id, parent, name, start_ns, end_ns, op,
  // lane.
  void write_jsonl(std::ostream& os) const;

 private:
  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class Tracer {
 public:
  explicit Tracer(TraceRun& run, std::uint32_t lane = 0)
      : run_(run.enabled() ? &run : nullptr), lane_(lane) {}
  ~Tracer() { flush(); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t slot) : tracer_(tracer), slot_(slot) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(slot_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t slot_;
  };

  // Opens a span as a child of this thread's innermost open span.
  [[nodiscard]] Scope span(const char* name) {
    if (run_ == nullptr) return Scope(nullptr, 0);
    return Scope(this, begin(name));
  }
  void set_op(std::uint32_t op) { op_ = op; }
  // Hands the recorded spans to the run once none is open.
  void flush();

 private:
  std::size_t begin(const char* name);
  void end(std::size_t slot);

  TraceRun* run_;
  std::uint32_t lane_;
  std::uint32_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  // slots of open spans, innermost last
};

// Per-name totals over a span set. Self time is a span's duration minus the
// part of its interval covered by its children (overlapping children are
// counted once).
struct LayerTime {
  double self_seconds = 0;
  std::size_t count = 0;
};
std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);
// Self time of each span, aligned with `spans`.
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);
// Durations of every span called `name`, in seconds.
std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const std::string& name);

}  // namespace wolfbench
