// wolf::Session — the one online-analysis entry point (wolf.hpp).
//
// Governed sessions delegate to the Governor (core/governor.hpp);
// ungoverned ones keep an unbounded LockDependencyBuilder and enumerate once
// in finish(), exactly like detect_reader.

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "trace/trace_reader.hpp"
#include "wolf.hpp"

namespace wolf {

namespace {

// Live-cycle collection state shared between the Session and the subscriber
// closure handed to the governor (which copies its options, so the closure
// must reference stable storage — hence the shared_ptr).
struct LiveCollector {
  CycleSubscriber user;  // chained push-mode subscriber (may be empty)
  std::vector<SessionCycle> pending;
};

}  // namespace

struct Session::Impl {
  bool finished = false;

  // Governed mode (null when ungoverned).
  std::unique_ptr<Governor> gov;
  std::shared_ptr<LiveCollector> live;  // non-null iff collecting for poll()

  // Ungoverned mode. Poisoning is handled here (the governor has its own):
  // the builder commits its tuple before mutating held-lock state, so after
  // a throw the store is consistent and finish() analyzes the prefix.
  DetectorOptions detector;
  LockDependencyBuilder builder;
  bool poisoned = false;
  std::string poison_note;
};

Session::Session() : impl_(std::make_unique<Impl>()) {}
Session::Session(Session&& other) noexcept = default;
Session& Session::operator=(Session&& other) noexcept = default;
Session::~Session() = default;

Session Session::open(const Config& config) {
  std::string fatal;
  for (const ConfigIssue& issue : config.validate()) {
    if (!issue.fatal) continue;
    if (!fatal.empty()) fatal += "; ";
    fatal += issue.message;
  }
  if (!fatal.empty())
    throw std::invalid_argument("wolf::Session::open: " + fatal);

  Session s;
  Impl& impl = *s.impl_;
  if (!config.governed()) {
    impl.detector = config.wolf_options().detector;
    return s;
  }
  GovernorOptions opts = config.governor_options();
  if (config.live) {
    auto live = std::make_shared<LiveCollector>();
    live->user = opts.on_cycle;
    impl.live = live;
    // Collect a copy for poll(), then chain the push-mode subscriber. A
    // throwing user callback still propagates to the governor's containment
    // exactly as it would unwrapped, so verdicts are unchanged.
    opts.on_cycle = [live](const LiveCycle& lc) {
      live->pending.push_back(
          SessionCycle{lc.window, lc.sequence, lc.cycle->to_string(*lc.dep)});
      if (live->user) live->user(lc);
    };
  }
  impl.gov = std::make_unique<Governor>(opts);
  return s;
}

bool Session::feed(const Event& e) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  if (impl_->gov) {
    impl_->gov->add(e);
    return !impl_->gov->poisoned();
  }
  if (impl_->poisoned) return false;
  try {
    impl_->builder.add(e);
  } catch (const std::exception& ex) {
    impl_->poisoned = true;
    impl_->poison_note = ex.what();
    return false;
  }
  return true;
}

bool Session::feed(const std::vector<Event>& events) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  if (impl_->gov) {
    impl_->gov->add_block(events);
    return !impl_->gov->poisoned();
  }
  for (const Event& e : events)
    if (!feed(e)) return false;
  return true;
}

void Session::ingest(TraceReader& reader) {
  std::vector<Event> block;
  while (reader.next_block(block)) feed(block);
}

std::vector<SessionCycle> Session::poll() {
  std::vector<SessionCycle> out;
  if (impl_->live) out.swap(impl_->live->pending);
  return out;
}

bool Session::governed() const { return impl_->gov != nullptr; }

bool Session::poisoned() const {
  return impl_->gov ? impl_->gov->poisoned() : impl_->poisoned;
}

std::size_t Session::events_seen() const {
  return impl_->gov ? impl_->gov->events_seen()
                    : impl_->builder.events_seen();
}

std::size_t Session::windows_closed() const {
  return impl_->gov ? impl_->gov->windows().size() : 0;
}

DetectionLevel Session::level() const {
  return impl_->gov ? impl_->gov->level() : DetectionLevel::kFullScc;
}

std::size_t Session::cycles_surfaced_live() const {
  return impl_->gov ? impl_->gov->cycles_surfaced_live() : 0;
}

Session::Verdict Session::finish() {
  assert(!impl_->finished && "finish() called twice");
  Verdict v;
  v.governed = governed();
  if (impl_->gov) {
    v.detection = impl_->gov->finish();
    v.windows = impl_->gov->windows();
    v.governor = impl_->gov->verdict();
  } else {
    // A detection fault propagates, as it does from detect_reader. Poisoned
    // prefixes still finish — over the consistent prefix — with an honest
    // verdict.
    LockDependency dep = impl_->builder.take_dependency();
    v.detection = finish_detection(std::move(dep), impl_->builder.clocks(),
                                   impl_->detector);
    impl_->builder.clear();
    if (impl_->poisoned) {
      v.governor.coverage_complete = false;
      v.governor.notes.push_back(
          "malformed event rejected, later input ignored: " +
          impl_->poison_note);
    }
  }
  impl_->finished = true;
  return v;
}

}  // namespace wolf
