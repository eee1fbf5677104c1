// Seeded synthetic event streams for the ingest workloads, and the cycle
// sets they contain by construction.
//
// Both streams are shaped after bench/perf_online's generators, but they are
// driven entirely by the benchmark's --seed and encoded to v3 bytes during
// set-up, so no generator cost lands inside a measured number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace wolfbench {

// One tuple of a cycle as the generator scripted it: `thread` acquires
// `lock` while holding exactly `held`.
struct CycleEdge {
  wolf::ThreadId thread = wolf::kInvalidThread;
  std::vector<wolf::LockId> held;
  wolf::LockId lock = wolf::kInvalidLock;

  friend bool operator==(const CycleEdge&, const CycleEdge&) = default;
  friend auto operator<=>(const CycleEdge&, const CycleEdge&) = default;
};
// A cycle as a sorted list of edges, so cycles compare independently of the
// tuple order a detector reports them in.
using CycleShape = std::vector<CycleEdge>;

struct StreamInput {
  std::string bytes;               // the v3 encoding (with footer index)
  std::uint64_t events = 0;
  std::vector<CycleShape> cycles;  // expected final cycle set, sorted
};

// Dedup-heavy stream: 8 worker threads take locks from 48 locks in ordered
// depth bands (so workers never form a cycle), each (thread, depth, choice)
// at a fixed site; the site namespace rotates through 8 phases; every
// events/64 events two extra threads run an AB/BA ring on two extra locks
// at fixed sites. Expected cycles: exactly the ring's one.
StreamInput make_dedup_stream(std::uint64_t events, std::uint64_t seed);

// Write-heavy stream: every window of `window_events` events opens with an
// AB/BA ring on two fresh locks at fresh sites, then fills with ordered
// pairs of fresh locks at fresh sites on four filler threads, so every tuple
// is canonical. `windows` windows; expected cycles: one ring per window.
StreamInput make_churn_stream(std::uint64_t windows,
                              std::uint64_t window_events,
                              std::uint64_t seed);

// Encodes events (already numbered in seq order) as v3 bytes.
std::string encode_v3(const std::vector<wolf::Event>& events);

}  // namespace wolfbench
