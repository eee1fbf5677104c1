#include "core/detector.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "core/cycle_engine.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace wolf {

std::string PotentialDeadlock::to_string(const LockDependency& dep) const {
  std::ostringstream os;
  os << "θ{";
  for (std::size_t i = 0; i < tuple_idx.size(); ++i) {
    if (i != 0) os << ", ";
    os << dep.tuples[tuple_idx[i]].to_string();
  }
  os << "}";
  return os.str();
}

DefectSignature signature_of(const PotentialDeadlock& cycle,
                             const LockDependency& dep) {
  DefectSignature sig;
  sig.reserve(cycle.tuple_idx.size());
  for (std::size_t idx : cycle.tuple_idx)
    sig.push_back(dep.tuples[idx].acquire_index().site);
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::vector<PotentialDeadlock> enumerate_cycles(
    const LockDependency& dep, const DetectorOptions& options) {
  return enumerate_cycles_ex(dep, options).cycles;
}

namespace {

// Signatures are short sorted SiteId vectors; hash them the same way
// LockDependencyBuilder keys tuples (mix64 chaining).
struct DefectSignatureHash {
  std::size_t operator()(const DefectSignature& sig) const {
    std::uint64_t h = 0x5157ea7de7ec70ULL;
    for (SiteId s : sig)
      h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

std::vector<Defect> group_defects(const std::vector<PotentialDeadlock>& cycles,
                                  const LockDependency& dep) {
  // First-seen order: defects[k] is keyed by the k-th distinct signature in
  // cycle order, so the grouping is independent of the hash function.
  std::vector<Defect> defects;
  std::unordered_map<DefectSignature, std::size_t, DefectSignatureHash>
      by_signature;
  by_signature.reserve(cycles.size());
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    DefectSignature sig = signature_of(cycles[c], dep);
    auto [it, inserted] = by_signature.emplace(sig, defects.size());
    if (inserted) {
      Defect d;
      d.signature = std::move(sig);
      defects.push_back(std::move(d));
    }
    defects[it->second].cycle_idx.push_back(c);
  }
  return defects;
}

Detection finish_detection(LockDependency dep, ClockTracker clocks,
                           const DetectorOptions& options) {
  Detection det;
  det.dep = std::move(dep);
  det.clocks = std::move(clocks);
  EnumerationResult res = enumerate_cycles_ex(det.dep, options, &det.clocks);
  det.cycles = std::move(res.cycles);
  det.truncated = res.truncated;
  det.cycle_cap = res.truncated ? options.max_cycles : 0;
  det.defects = group_defects(det.cycles, det.dep);
  return det;
}

Detection detect_reader(TraceReader& reader, const DetectorOptions& options) {
  LockDependencyBuilder builder;
  std::vector<Event> block;
  while (reader.next_block(block))
    for (const Event& e : block) builder.add(e);
  LockDependency dep = builder.take_dependency();
  return finish_detection(std::move(dep), builder.clocks(), options);
}

Detection detect(const Trace& trace, const DetectorOptions& options) {
  VectorTraceReader reader(trace);
  return detect_reader(reader, options);
}

}  // namespace wolf
