#include "checks.hpp"

#include <algorithm>
#include <map>

namespace wolfbench {

std::vector<CycleShape> cycle_shapes(const wolf::Detection& detection) {
  std::vector<CycleShape> out;
  for (const wolf::PotentialDeadlock& cycle : detection.cycles) {
    CycleShape shape;
    for (std::size_t idx : cycle.tuple_idx) {
      const wolf::LockTuple& t = detection.dep.tuples[idx];
      shape.push_back(CycleEdge{t.thread, t.lockset, t.lock});
    }
    std::sort(shape.begin(), shape.end());
    out.push_back(std::move(shape));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string check_stream_verdict(const wolf::Detection& detection,
                                 bool coverage_complete,
                                 const std::set<std::string>& live,
                                 const std::vector<CycleShape>& expected) {
  if (!coverage_complete) return "verdict incomplete";
  if (detection.truncated) return "cycle enumeration truncated";
  const std::vector<CycleShape> got = cycle_shapes(detection);
  if (got != expected)
    return "cycle set differs from the generator's: " +
           std::to_string(got.size()) + " cycles, expected " +
           std::to_string(expected.size());
  for (const wolf::PotentialDeadlock& cycle : detection.cycles)
    if (live.count(cycle.to_string(detection.dep)) == 0)
      return "cycle not surfaced live before finish(): " +
             cycle.to_string(detection.dep);
  return "";
}

ClassCounts class_counts(const wolf::WolfReport& report) {
  ClassCounts c;
  c.cycles = static_cast<int>(report.cycles.size());
  c.false_positive = report.false_positive_cycles();
  c.reproduced = report.count_cycles(wolf::Classification::kReproduced);
  c.unknown = report.count_cycles(wolf::Classification::kUnknown);
  return c;
}

const ClassCounts* reference_counts(const std::string& program) {
  // EXPERIMENTS.md Table 2, WOLF columns (measured side): cycles, FP, TP,
  // unknown. Totals 91 / 12 / 62 / 17.
  static const std::map<std::string, ClassCounts> kTable2 = {
      {"cache4j", {0, 0, 0, 0}},       {"Jigsaw", {42, 7, 18, 17}},
      {"JavaLogging", {2, 0, 2, 0}},   {"ArrayList", {9, 0, 9, 0}},
      {"Stack", {9, 0, 9, 0}},         {"LinkedList", {9, 0, 9, 0}},
      {"HashMap", {4, 1, 3, 0}},       {"TreeMap", {4, 1, 3, 0}},
      {"WeakHashMap", {4, 1, 3, 0}},   {"LinkedHashMap", {4, 1, 3, 0}},
      {"IdentityHashMap", {4, 1, 3, 0}},
      // perf_pipeline's ring program at 16 threads x degree 4, recorded and
      // replayed at seed 2014 with 6 attempts; pinned, not from a paper.
      {"stress-16x4", {212, 0, 15, 197}},
  };
  const auto it = kTable2.find(program);
  return it == kTable2.end() ? nullptr : &it->second;
}

int misclassified_cycles(const wolf::WolfReport& report,
                         const ClassCounts& reference) {
  const ClassCounts got = class_counts(report);
  const int matched = std::min(got.false_positive, reference.false_positive) +
                      std::min(got.reproduced, reference.reproduced) +
                      std::min(got.unknown, reference.unknown);
  int wrong = std::max(got.cycles, reference.cycles) - matched;
  for (const wolf::CycleReport& c : report.cycles)
    if (!c.failure_reason.empty()) ++wrong;
  return std::min(wrong, std::max(got.cycles, reference.cycles));
}

std::string checker_self_test() {
  // A stream verdict with the right cycle set passes; one with a cycle
  // missing, an extra expected cycle, or a cycle never seen live fails.
  wolf::Detection det;
  wolf::LockTuple a, b;
  a.thread = 1;
  a.lockset = {10};
  a.lock = 11;
  a.context = {wolf::ExecIndex{1, 1, 1}};
  b.thread = 2;
  b.lockset = {11};
  b.lock = 10;
  b.context = {wolf::ExecIndex{2, 2, 1}};
  det.dep.tuples = {a, b};
  det.dep.unique = {0, 1};
  det.cycles.push_back(wolf::PotentialDeadlock{{0, 1}});
  const std::vector<CycleShape> expected = cycle_shapes(det);
  const std::set<std::string> live = {det.cycles[0].to_string(det.dep)};
  if (!check_stream_verdict(det, true, live, expected).empty())
    return "stream checker refused a right answer";
  std::vector<CycleShape> more = expected;
  more.push_back(CycleShape{CycleEdge{3, {12}, 13}, CycleEdge{4, {13}, 12}});
  if (check_stream_verdict(det, true, live, more).empty())
    return "stream checker accepted a missing cycle";
  if (check_stream_verdict(det, true, {}, expected).empty())
    return "stream checker accepted a cycle not surfaced live";
  if (check_stream_verdict(det, false, live, expected).empty())
    return "stream checker accepted an incomplete verdict";

  // A Jigsaw report with one true positive turned unknown must fail.
  wolf::WolfReport report;
  const ClassCounts& jigsaw = *reference_counts("Jigsaw");
  const auto add = [&report](wolf::Classification c, int n) {
    for (int i = 0; i < n; ++i) {
      wolf::CycleReport r;
      r.cycle_index = report.cycles.size();
      r.classification = c;
      report.cycles.push_back(r);
    }
  };
  add(wolf::Classification::kFalseByPruner, jigsaw.false_positive);
  add(wolf::Classification::kReproduced, jigsaw.reproduced);
  add(wolf::Classification::kUnknown, jigsaw.unknown);
  if (misclassified_cycles(report, jigsaw) != 0)
    return "classification checker refused Table 2's own counts";
  report.cycles[static_cast<std::size_t>(jigsaw.false_positive)]
      .classification = wolf::Classification::kUnknown;
  if (misclassified_cycles(report, jigsaw) != 1)
    return "classification checker accepted a reproduced cycle left unknown";
  report.cycles.back().failure_reason = "injected";
  if (misclassified_cycles(report, jigsaw) != 2)
    return "classification checker ignored a failure_reason";
  return "";
}

}  // namespace wolfbench
