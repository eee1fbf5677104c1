#include "streams.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "support/rng.hpp"
#include "trace/serialize.hpp"

namespace wolfbench {

using wolf::Event;
using wolf::EventKind;
using wolf::LockId;
using wolf::SiteId;
using wolf::ThreadId;

namespace {

// Queue of scripted events shared by both generators.
class Script {
 public:
  bool empty() const { return pending_.empty(); }
  void push(EventKind kind, ThreadId t, LockId l, SiteId site) {
    Event e;
    e.kind = kind;
    e.thread = t;
    e.lock = l;
    e.site = site;
    e.occurrence = 1;
    pending_.push_back(e);
  }
  void acquire(ThreadId t, LockId l, SiteId site) {
    push(EventKind::kLockAcquire, t, l, site);
  }
  void release(ThreadId t, LockId l) {
    push(EventKind::kLockRelease, t, l, wolf::kInvalidSite);
  }
  Event pop(std::uint64_t seq) {
    Event e = pending_.front();
    pending_.pop_front();
    e.seq = seq;
    return e;
  }

  // AB/BA: ta takes a then b, tb takes b then a.
  void ring(ThreadId ta, ThreadId tb, LockId a, LockId b, SiteId sa1,
            SiteId sa2, SiteId sb1, SiteId sb2) {
    acquire(ta, a, sa1);
    acquire(ta, b, sa2);
    release(ta, b);
    release(ta, a);
    acquire(tb, b, sb1);
    acquire(tb, a, sb2);
    release(tb, a);
    release(tb, b);
  }

 private:
  std::deque<Event> pending_;
};

CycleShape ring_shape(ThreadId ta, ThreadId tb, LockId a, LockId b) {
  CycleShape shape = {CycleEdge{ta, {a}, b}, CycleEdge{tb, {b}, a}};
  std::sort(shape.begin(), shape.end());
  return shape;
}

class DedupGenerator {
 public:
  DedupGenerator(std::uint64_t events, std::uint64_t seed)
      : phase_every_(std::max<std::uint64_t>(1, events / kPhases)),
        ring_every_(std::max<std::uint64_t>(1, events / 64)),
        rng_(seed),
        held_(kWorkers) {}

  Event next() {
    if (script_.empty()) {
      if (emitted_ > 0 && emitted_ % ring_every_ == 0)
        script_.ring(kWorkers, kWorkers + 1, kLocks, kLocks + 1, 101, 102,
                     201, 202);
      else
        step_worker();
    }
    return script_.pop(emitted_++);
  }

  static CycleShape expected_ring() {
    return ring_shape(kWorkers, kWorkers + 1, kLocks, kLocks + 1);
  }

 private:
  static constexpr int kWorkers = 8;
  static constexpr int kLocks = 48;
  static constexpr int kMaxDepth = 4;
  static constexpr int kChoices = 3;
  static constexpr std::uint64_t kPhases = 8;

  // Depth d draws from lock band d: ids rise with nesting depth, so the
  // workers share locks without ever ordering two of them both ways.
  static LockId lock_at(ThreadId t, int depth, int choice) {
    const int band = kLocks / kMaxDepth;
    return static_cast<LockId>(depth * band +
                               (static_cast<int>(t) * kChoices + choice) %
                                   band);
  }

  // A fixed "source location" per (phase, thread, depth, choice).
  SiteId site_at(ThreadId t, int depth, int choice) const {
    const std::uint64_t phase = emitted_ / phase_every_;
    return static_cast<SiteId>(
        1000 + ((phase * kWorkers + static_cast<std::uint64_t>(t)) *
                    kMaxDepth +
                static_cast<std::uint64_t>(depth)) *
                   kChoices +
        static_cast<std::uint64_t>(choice));
  }

  void step_worker() {
    const auto t = static_cast<ThreadId>(rr_++ % kWorkers);
    auto& stack = held_[static_cast<std::size_t>(t)];
    const bool acquire =
        stack.empty() || (stack.size() < kMaxDepth && rng_.chance(0.55));
    if (acquire) {
      const auto depth = static_cast<int>(stack.size());
      const auto choice = static_cast<int>(rng_.below(kChoices));
      const LockId l = lock_at(t, depth, choice);
      script_.acquire(t, l, site_at(t, depth, choice));
      stack.push_back(l);
    } else {
      script_.release(t, stack.back());
      stack.pop_back();
    }
  }

  std::uint64_t phase_every_;
  std::uint64_t ring_every_;
  wolf::Rng rng_;
  std::vector<std::vector<LockId>> held_;
  std::uint64_t rr_ = 0;
  std::uint64_t emitted_ = 0;
  Script script_;
};

class ChurnGenerator {
 public:
  ChurnGenerator(std::uint64_t window_events, std::uint64_t seed)
      : window_events_(window_events), rng_(seed) {
    next_lock_ = static_cast<LockId>(1000 + rng_.below(1000));
    next_site_ = static_cast<SiteId>(1000 + rng_.below(1000));
  }

  // Window boundaries stay aligned because rings (8 events) and fillers (4)
  // both divide window_events.
  Event next() {
    if (script_.empty()) {
      if (emitted_ % window_events_ == 0)
        fresh_ring();
      else
        filler_pair();
    }
    return script_.pop(emitted_++);
  }

  std::vector<CycleShape> take_cycles() { return std::move(cycles_); }

 private:
  void fresh_ring() {
    const LockId a = next_lock_++, b = next_lock_++;
    const SiteId s = next_site_;
    next_site_ += 4;
    // Which ring thread goes first varies with the seed; the cycle does not.
    const bool swap = rng_.chance(0.5);
    const ThreadId ta = swap ? 2 : 1, tb = swap ? 1 : 2;
    script_.ring(ta, tb, a, b, s, s + 1, s + 2, s + 3);
    cycles_.push_back(ring_shape(ta, tb, a, b));
  }

  void filler_pair() {
    const auto t = static_cast<ThreadId>(3 + rng_.below(4));
    const LockId a = next_lock_++, b = next_lock_++;  // a < b: no cycle
    const SiteId s = next_site_;
    next_site_ += 2;
    script_.acquire(t, a, s);
    script_.acquire(t, b, s + 1);
    script_.release(t, b);
    script_.release(t, a);
  }

  std::uint64_t window_events_;
  wolf::Rng rng_;
  std::uint64_t emitted_ = 0;
  LockId next_lock_ = 0;
  SiteId next_site_ = 0;
  Script script_;
  std::vector<CycleShape> cycles_;
};

// Encodes `events` generated events block by block, so the v3 bytes are the
// only footprint the input leaves.
template <typename Generator>
std::string encode_generated(Generator& gen, std::uint64_t events) {
  std::ostringstream os;
  wolf::StreamTraceWriter writer(os, wolf::TraceFormat::kV3);
  std::vector<Event> block;
  for (std::uint64_t i = 0; i < events; i += block.size()) {
    block.clear();
    const std::uint64_t n = std::min<std::uint64_t>(events - i, 4096);
    for (std::uint64_t j = 0; j < n; ++j) block.push_back(gen.next());
    writer.write(block);
  }
  writer.finish();
  return std::move(os).str();
}

}  // namespace

StreamInput make_dedup_stream(std::uint64_t events, std::uint64_t seed) {
  DedupGenerator gen(events, seed);
  StreamInput in;
  in.bytes = encode_generated(gen, events);
  in.events = events;
  in.cycles = {DedupGenerator::expected_ring()};
  return in;
}

StreamInput make_churn_stream(std::uint64_t windows,
                              std::uint64_t window_events,
                              std::uint64_t seed) {
  ChurnGenerator gen(window_events, seed);
  StreamInput in;
  in.events = windows * window_events;
  in.bytes = encode_generated(gen, in.events);
  in.cycles = gen.take_cycles();
  std::sort(in.cycles.begin(), in.cycles.end());
  return in;
}

std::string encode_v3(const std::vector<Event>& events) {
  std::ostringstream os;
  wolf::StreamTraceWriter writer(os, wolf::TraceFormat::kV3);
  writer.write(events);
  writer.finish();
  return std::move(os).str();
}

}  // namespace wolfbench
