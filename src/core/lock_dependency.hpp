// The lock dependency relation D_σ (paper §3.1–3.2).
//
// During execution σ, when thread t acquires lock ℓ while holding the locks
// L_t (acquired at the execution indices C_t) at timestamp τ_t, the tuple
// η = (t, L_t, ℓ, C_t, τ_t) is added to D_σ. This module rebuilds D_σ
// offline from a recorded trace, running a ClockTracker alongside to stamp
// each tuple with the acquiring thread's timestamp — i.e. the "Extended
// Dynamic Cycle Detector" data of Algorithm 1 without re-executing anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clock/clock_tracker.hpp"
#include "support/arena.hpp"
#include "trace/event.hpp"
#include "trace/exec_index.hpp"
#include "trace/ids.hpp"

namespace wolf {

struct LockTuple {
  ThreadId thread = kInvalidThread;
  // Locks held at the acquisition, in acquisition order (the paper's L_t).
  std::vector<LockId> lockset;
  LockId lock = kInvalidLock;  // the lock being acquired
  // Execution indices of the lockset acquisitions, in the same order as
  // `lockset`, followed by the index of this acquisition itself (the paper's
  // C_t; cf. Fig. 5 where η1 = (1,{},ℓ1,{11})).
  std::vector<ExecIndex> context;
  Timestamp tau = kTsBottom;   // τ_t at the acquisition (§3.2)
  std::size_t trace_pos = 0;   // position of the acquire event in the trace

  // µ (paper §3.1): maps each lock in the lockset — and the acquired lock
  // itself — to its execution index.
  ExecIndex mu(LockId l) const;

  bool holds(LockId l) const;
  const ExecIndex& acquire_index() const { return context.back(); }

  std::string to_string() const;
};

struct LockDependency {
  // Every top-level acquisition of the trace, in trace order.
  std::vector<LockTuple> tuples;
  // Indices into `tuples` of the canonical (first-occurrence) tuples after
  // deduplication by (thread, lock, context sites): repeated executions of
  // the same code path produce one representative, exactly as iGoodLock's
  // set-based D_σ collapses them. Cycle enumeration runs over this view;
  // the Generator walks the full sequence.
  std::vector<std::size_t> unique;

  static LockDependency from_trace(const Trace& trace);

  // Tuples of `thread` up to and including position `last_pos` in trace
  // order — the paper's D'_σ restricted to one thread.
  std::vector<std::size_t> thread_prefix(ThreadId thread,
                                         std::size_t last_pos) const;
};

// Incremental construction of D_σ plus the τ/V clock state, one event at a
// time. This is the single build path behind LockDependency::from_trace
// (offline), detect_reader (block-by-block off a TraceReader) and
// wolf::Session (online, event by event) — because all three feed the same
// builder, batch and streaming detection cannot diverge.
//
// Store layout (DESIGN.md §14): D_σ is a set, so the builder interns it as
// it arrives instead of keeping one LockTuple per acquire. Each thread's
// held stack carries a running hash of its (lock, site) entries; an acquire
// looks up its *shape* — (thread, lock, held locks, context sites) — in an
// open-addressing table and verifies it exactly against the shape's
// arena-pooled arrays. Each shape maps to its dedup *key* (thread, lock,
// context sites), the identity `unique` collapses by. One occurrence is a
// POD Row (shape, τ, trace position, its context's occurrence counters in
// one pooled array, and whether it is the first retained occurrence of its
// key), so `unique`, compact() and the snapshots are linear filters over
// that flag. LockTuples exist only in the LockDependency values the builder
// hands out.
class LockDependencyBuilder {
 public:
  // One interned acquisition shape. Every occurrence shares its thread,
  // lock, lockset and context sites; the arrays live in the builder's arena
  // and stay valid until clear(), take_dependency(), or a compact() /
  // evict_oldest() that drops the shape.
  struct Shape {
    ThreadId thread = kInvalidThread;
    LockId lock = kInvalidLock;
    std::uint32_t depth = 0;  // |lockset|
    std::uint32_t key = 0;    // dedup key id
    std::uint32_t live = 0;   // retained rows of this shape
    std::uint64_t hash = 0;
    const LockId* held = nullptr;   // the lockset, in acquisition order
    const SiteId* sites = nullptr;  // depth + 1: the lockset's, then its own

    std::span<const LockId> lockset() const { return {held, depth}; }
  };

  // One retained occurrence, in trace order.
  struct Row {
    std::uint32_t shape : 31 = 0;
    std::uint32_t canonical : 1 = 0;  // first retained occurrence of its key
    Timestamp tau = kTsBottom;        // τ_t at the acquisition (§3.2)
    std::size_t trace_pos = 0;        // position of the acquire in the trace
    std::size_t occ = 0;  // offset of its depth + 1 occurrence counters
  };

  // Feeds the next event in trace order. Clocks are applied before any tuple
  // is constructed (Algorithm 1 order); the tuple's trace_pos is the running
  // event position — the vector index for a materialized trace, equivalently
  // the dense sequence number of a recorder-produced stream.
  void add(const Event& e);

  std::size_t tuple_count() const { return rows_.size(); }
  std::size_t events_seen() const { return pos_; }
  const ClockTracker& clocks() const { return clocks_; }

  // Finalizes the relation: materializes every retained occurrence with the
  // deduplicated `unique` view and empties the store. The clock state and
  // held-lock stacks stay in place, so callers can still read clocks()
  // afterwards; clear() resets everything.
  LockDependency take_dependency();
  void clear();

  // ---- governed-store surface (core/governor.hpp) -----------------------
  // The retained occurrences, in trace order, and their shapes. Rows and
  // their occurrence counters live in chunked storage, so the store grows
  // without copying what it holds.
  const std::deque<Row>& rows() const { return rows_; }
  const Shape& shape(std::uint32_t id) const { return shapes_[id]; }

  // Copy of the relation so far with `unique` computed, without consuming
  // the builder.
  LockDependency snapshot_dependency() const;

  // Ascending positions of the canonical rows whose lock is in `locks`,
  // found through the keys of each lock rather than a scan of the rows.
  std::vector<std::size_t> canonical_rows(std::span<const LockId> locks) const;

  // Copy of just the rows at `indices` (ascending positions into rows()),
  // with `unique` computed over that subset. The governor enumerates
  // dirty-SCC tuple subsets through this instead of snapshotting the whole
  // store.
  LockDependency snapshot_subset(const std::vector<std::size_t>& indices) const;

  // Invoked for each shape whose last retained row compaction or eviction
  // drops, in the order those rows are dropped and before the store forgets
  // the shape. The governor's pre-filter uses it to retract the shape's
  // lock-graph edges.
  using ExpiryHook = std::function<void(const Shape&)>;

  // Site-table compaction: drops every non-canonical duplicate row (same
  // thread, lock and context-site signature as an earlier one), keeping the
  // first occurrence. Cycle enumeration runs over the canonical view only,
  // so the cycle set is unchanged; returns the number of rows removed.
  std::size_t compact() { return compact(ExpiryHook{}); }
  std::size_t compact(const ExpiryHook& on_expire);

  // Aging: drops the *oldest* rows until at most `max_tuples` remain; a key
  // whose canonical row goes flags its next retained occurrence. Lossy —
  // evicted tuples can carry cycles — so callers must surface the returned
  // count as lost coverage. Clock and held-lock state are untouched (they
  // are O(threads + locks), not O(trace)).
  std::size_t evict_oldest(std::size_t max_tuples) {
    return evict_oldest(max_tuples, ExpiryHook{});
  }
  std::size_t evict_oldest(std::size_t max_tuples, const ExpiryHook& on_expire);

 private:
  // One held lock: its acquisition, plus the running hash of the stack's
  // (lock, site) entries up to and including this one.
  struct Held {
    LockId lock = kInvalidLock;
    SiteId site = kInvalidSite;
    std::int32_t occurrence = 0;
    std::uint64_t hash = 0;
  };
  using HeldStack = std::vector<Held>;
  // A dedup key, borrowing the sites array of the shape that created it.
  struct Key {
    ThreadId thread = kInvalidThread;
    LockId lock = kInvalidLock;
    std::uint32_t depth = 0;
    std::uint64_t hash = 0;
    const SiteId* sites = nullptr;
    std::size_t row = 0;  // position of its canonical row, while it has one
  };

  HeldStack& held_stack(ThreadId thread);
  std::uint32_t intern_shape(const Event& e, const HeldStack& stack,
                             std::uint64_t hash);
  std::uint32_t intern_key(const Shape& shape);
  void fill_tuple(const Row& row, LockTuple& out) const;
  // Drops rows for which `keep` is false, compacting the occurrence pool.
  template <typename Keep>
  std::size_t filter_rows(const ExpiryHook& on_expire, Keep keep);
  // Rebuilds the shape and key tables without dead shapes once they are
  // the majority, so a store under eviction stays bounded.
  void collect_dead_shapes();
  void reset_store();

  ClockTracker clocks_;
  // Per thread, indexed by id: ClockTracker::apply rejects a negative id
  // before the builder looks at held state.
  std::vector<HeldStack> held_;
  std::size_t pos_ = 0;

  std::deque<Row> rows_;
  std::deque<std::int32_t> occ_;  // every row's context occurrences
  std::vector<Shape> shapes_;
  std::vector<Key> keys_;
  // Per key: whether a retained row carries its canonical flag. Kept apart
  // from keys_ so the per-acquire test touches one byte.
  std::vector<std::uint8_t> key_canonical_;
  std::unordered_map<LockId, std::vector<std::uint32_t>> keys_by_lock_;
  // Open-addressing tables, power-of-two sized: id + 1 in the low half of a
  // slot (0 = empty), the entry's hash in the high half.
  std::vector<std::uint64_t> shape_slots_;
  std::vector<std::uint64_t> key_slots_;
  std::unique_ptr<support::Arena> arena_;  // shape lock and site arrays
};

// Trace-level scaffolding shared by every Gs the Generator builds for one
// Detection (DESIGN.md §10). The per-thread and per-(thread, lock)
// acquisition orders depend only on the trace, not on the cycle under
// classification, so they are computed once and every generate() call
// slices them by the cycle's cutoff positions instead of rescanning the
// whole tuple sequence. Read-only after build(): safe to share across the
// parallel classification workers.
//
// Storage is one arena-backed pool (DESIGN.md §15): every per-key sequence
// is an offset+length range into a single contiguous slab instead of its
// own heap vector, so build() does O(1) large allocations rather than
// O(threads + thread·lock pairs) small ones. Move-only (the spans handed
// out point into the arena, which the index owns).
class DependencyIndex {
 public:
  static DependencyIndex build(const LockDependency& dep);

  DependencyIndex(DependencyIndex&&) = default;
  DependencyIndex& operator=(DependencyIndex&&) = default;

  // Indices of `thread`'s tuples with trace_pos <= last_pos, in trace order —
  // the same sequence LockDependency::thread_prefix returns, as a view.
  std::span<const std::size_t> thread_prefix(ThreadId thread,
                                             std::size_t last_pos) const;

  // Indices of `thread`'s acquisitions *of* `lock` (tuple.lock == lock) with
  // trace_pos <= last_pos, in trace order. Powers the Generator's type-C
  // source enumeration.
  std::span<const std::size_t> thread_lock_prefix(ThreadId thread, LockId lock,
                                                  std::size_t last_pos) const;

 private:
  DependencyIndex() = default;

  // One per-key sequence: pool_[offset, offset + length). `filled` is
  // build()'s write cursor and equals length afterwards.
  struct Range {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t filled = 0;
    bool assigned = false;
  };

  std::span<const std::size_t> prefix_of(const Range* range,
                                         std::size_t last_pos) const;

  const LockDependency* dep_ = nullptr;  // not owned; must outlive the index
  std::unique_ptr<support::Arena> arena_;
  const std::size_t* pool_ = nullptr;  // all sequences, concatenated
  std::unordered_map<ThreadId, Range> by_thread_;
  std::unordered_map<std::uint64_t, Range>
      by_thread_lock_;  // key: (thread, lock) packed

  static std::uint64_t key(ThreadId thread, LockId lock) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(thread))
            << 32) |
           static_cast<std::uint32_t>(lock);
  }
};

}  // namespace wolf
