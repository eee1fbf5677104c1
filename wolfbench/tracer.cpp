#include "tracer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace wolfbench {

TraceRun::TraceRun(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      epoch_(std::chrono::steady_clock::now()) {}

std::int64_t TraceRun::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceRun::absorb(std::vector<SpanRecord>&& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<SpanRecord> TraceRun::spans() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return out;
}

void TraceRun::write_jsonl(std::ostream& os) const {
  for (const SpanRecord& s : spans())
    os << "{\"run\":\"" << run_id_ << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"op\":" << s.op << ",\"lane\":" << s.lane << "}\n";
}

std::size_t Tracer::begin(const char* name) {
  SpanRecord s;
  s.id = run_->next_id();
  s.parent = open_.empty() ? kNoParent : spans_[open_.back()].id;
  s.name = name;
  s.op = op_;
  s.lane = lane_;
  s.start_ns = run_->now_ns();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t slot) {
  spans_[slot].end_ns = run_->now_ns();
  // Scopes close innermost first, so the slot is the top of the stack.
  if (!open_.empty() && open_.back() == slot) open_.pop_back();
}

void Tracer::flush() {
  // Open spans are addressed by slot, so nothing moves while one is open.
  if (run_ == nullptr || spans_.empty() || !open_.empty()) return;
  run_->absorb(std::move(spans_));
  spans_.clear();
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> slot_of;
  for (std::size_t i = 0; i < spans.size(); ++i) slot_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == kNoParent) continue;
    const auto it = slot_of.find(s.parent);
    if (it != slot_of.end())
      children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cur_start = 0, cur_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
      } else {
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_start;
    out[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return out;
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    t.self_seconds += self[i];
    ++t.count;
  }
  return out;
}

std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name) out.push_back(s.seconds());
  return out;
}

}  // namespace wolfbench
