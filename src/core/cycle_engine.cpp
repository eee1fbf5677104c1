#include "core/cycle_engine.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "core/pruner.hpp"
#include "graph/tarjan.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"

namespace wolf {

namespace {

// Funnel statistics; deterministic for a given D_σ and options.
const obs::Counter kChains("detector.chains");
const obs::Counter kSccsVisited("detector.sccs_nontrivial");
const obs::Counter kClockCuts("detector.clock_cuts");
const obs::Counter kCyclesFound("detector.cycles");
// Engine footprint per enumeration: mask words and holder-index slots. Both
// are sized by the enumerated view, so equal views cost equal counts.
const obs::Counter kMaskWords("detector.mask_words");
const obs::Counter kHolderSlots("detector.holder_slots");

using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

inline std::size_t words_for(std::size_t bits) {
  return bits / kWordBits + 1;
}
inline bool test_bit(const Word* w, std::size_t i) {
  return (w[i / kWordBits] >> (i % kWordBits)) & 1u;
}
inline void flip_bit(Word* w, std::size_t i) {
  w[i / kWordBits] ^= Word{1} << (i % kWordBits);
}

constexpr std::uint32_t kNone = ~std::uint32_t{0};

// View-local dense lock ids: note() every occurrence, seal(), then of()
// maps a lock to its rank among the distinct locks noted (kNone if never
// noted). The ranks come from sort+unique; a small direct-mapped memo in
// front of both phases keeps repeats — a hot lock in thousands of locksets
// — from reaching the sort or the binary search. Its validity is one bit
// per slot, so starting a phase clears one word and a tiny window view pays
// no memset.
class DenseLockIds {
 public:
  explicit DenseLockIds(std::size_t expected) { ids_.reserve(expected); }

  void note(LockId id) {
    const std::size_t i = slot(id);
    if (hit(i, id)) return;
    fill(i, id, kNone);
    ids_.push_back(id);
  }

  void seal() {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    used_ = 0;
  }

  std::size_t size() const { return ids_.size(); }

  std::uint32_t of(LockId id) {
    const std::size_t i = slot(id);
    if (hit(i, id)) return memo_[i].dense;
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    const std::uint32_t dense =
        it == ids_.end() || *it != id
            ? kNone
            : static_cast<std::uint32_t>(it - ids_.begin());
    fill(i, id, dense);
    return dense;
  }

 private:
  struct Slot {
    LockId id;
    std::uint32_t dense;
  };
  static constexpr std::size_t kSlots = 64;

  // Fibonacci hashing: spreads ids that share their low bits.
  static std::size_t slot(LockId id) {
    return (static_cast<std::uint32_t>(id) * 0x9E3779B1u) >> 26;
  }
  bool hit(std::size_t i, LockId id) const {
    return ((used_ >> i) & 1u) != 0 && memo_[i].id == id;
  }
  void fill(std::size_t i, LockId id, std::uint32_t dense) {
    memo_[i] = {id, dense};
    used_ |= std::uint64_t{1} << i;
  }

  std::uint64_t used_ = 0;  // bit i: memo_[i] is valid in this phase
  std::array<Slot, kSlots> memo_;  // read only where used_ says valid
  std::vector<LockId> ids_;
};

// Dense model of the canonical tuple view: node i ↔ dep.unique[i], with the
// per-node thread/τ scalars hoisted into flat arrays. Every size is the
// view's, never the session's: held locks get view-local dense ids
// (sort+unique), the per-lock inverted holder index is CSR in node
// (= dep.unique) order, which fixes the canonical DFS candidate order, and
// lockset word-masks have bits only for the locks that nodes of nontrivial
// SCCs hold. A chain never leaves one nontrivial SCC, so a lock outside
// that set can neither overlap a chain member's lockset nor close a cycle:
// its "no bit" reads false in both tests.
class SccEngine {
 public:
  SccEngine(const LockDependency& dep, const DetectorOptions& options,
            const ClockTracker* clocks)
      : dep_(dep), options_(options) {
    const std::size_t n = dep.unique.size();
    ThreadId max_thread = -1;
    std::size_t held_entries = 0;
    DenseLockIds held(n);
    tuple_of_.reserve(n);
    thread_.reserve(n);
    tau_.reserve(n);
    for (std::size_t u : dep.unique) {
      const LockTuple& t = dep.tuples[u];
      tuple_of_.push_back(u);
      thread_.push_back(t.thread);
      tau_.push_back(t.tau);
      max_thread = std::max(max_thread, t.thread);
      held_entries += t.lockset.size();
      for (LockId l : t.lockset) held.note(l);
    }
    held.seal();
    entries_.reserve(held_entries);
    // Thread ids are dense process-wide (the clock tracker indexes by them).
    thread_words_ = words_for(static_cast<std::size_t>(max_thread + 1));

    index_holders(held);
    partition();
    assign_masks(held.size());
    kMaskWords.add(masks_.size());
    kHolderSlots.add(holder_start_.size() + holders_.size());

    if (options.clock_prune_during_search && clocks != nullptr)
      matrix_.emplace(*clocks, dep);
  }

  EnumerationResult run() const;

  // Builds the holder CSR: holder_start_[l]..holder_start_[l + 1] indexes
  // the nodes whose lockset holds dense lock l, in node order, and
  // request_[u] is the dense id of u's requested lock (kNone when no tuple
  // of the view holds it, i.e. u has no successor). entries_ keeps every
  // lockset entry as a dense id, node-major, for assign_masks.
  void index_holders(DenseLockIds& held) {
    const std::size_t n = tuple_of_.size();
    request_.reserve(n);
    holder_start_.assign(held.size() + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const LockTuple& t = dep_.tuples[tuple_of_[i]];
      request_.push_back(held.of(t.lock));
      for (LockId l : t.lockset) {
        entries_.push_back(held.of(l));
        ++holder_start_[entries_.back()];
      }
    }
    // Inclusive prefix sums put each lock's end in holder_start_[l];
    // filling back to front from the ends leaves every list in ascending
    // node order and holder_start_[l] at its start.
    for (std::size_t l = 1; l <= held.size(); ++l)
      holder_start_[l] += holder_start_[l - 1];
    holders_.resize(entries_.size());
    std::size_t e = entries_.size();
    for (std::size_t i = n; i-- > 0;)
      for (std::size_t k = lockset_size(i); k > 0; --k)
        holders_[--holder_start_[entries_[--e]]] =
            static_cast<std::uint32_t>(i);
  }

  // Gives a mask bit to every lock held by a nontrivial-SCC node, then
  // builds every node's lockset mask over those bits; every other lock
  // keeps lock_bit_ == kNone and is left out of the masks.
  void assign_masks(std::size_t held_locks) {
    const std::size_t n = tuple_of_.size();
    lock_bit_.assign(held_locks, kNone);
    std::uint32_t bits = 0;
    for (std::size_t i = 0, e = 0; i < n; e += lockset_size(i++)) {
      if (!in_nontrivial_scc(i)) continue;
      for (std::size_t k = e; k < e + lockset_size(i); ++k)
        if (lock_bit_[entries_[k]] == kNone) lock_bit_[entries_[k]] = bits++;
    }
    lock_words_ = words_for(bits);
    masks_.assign(n * lock_words_, 0);
    for (std::size_t i = 0, e = 0; i < n; e += lockset_size(i++)) {
      Word* mask = &masks_[i * lock_words_];
      for (std::size_t k = e; k < e + lockset_size(i); ++k)
        if (lock_bit_[entries_[k]] != kNone)
          flip_bit(mask, lock_bit_[entries_[k]]);
    }
  }

  // The mask bit of the lock `node` requests, or kNone.
  std::uint32_t request_bit(std::size_t node) const {
    const std::uint32_t l = request_[node];
    return l == kNone ? kNone : lock_bit_[l];
  }

  std::size_t lockset_size(std::size_t node) const {
    return dep_.tuples[tuple_of_[node]].lockset.size();
  }

  // Tarjan-partitions the tuple digraph (η → η' iff η' holds lock(η) and the
  // threads differ — every edge a deadlock chain can take) with the shared
  // routine (graph/tarjan.hpp). A cycle through a tuple is a digraph cycle,
  // hence confined to the tuple's SCC; only components with ≥ 2 nodes can
  // carry one (self loops are impossible: a thread is never its own
  // neighbor). The digraph stays implicit: a node's successors are read off
  // the holder CSR, same-thread holders skipped, so the partition costs
  // O(nodes) memory however many edges the tuples induce.
  void partition() {
    comp_.assign(tuple_of_.size(), 0);
    comp_nontrivial_.clear();
    TarjanScratch scratch;
    tarjan_scc(
        static_cast<std::uint32_t>(tuple_of_.size()),
        [this](std::uint32_t v, std::size_t& cursor) {
          const std::span<const std::uint32_t> succ = successors(v);
          while (cursor < succ.size()) {
            const std::uint32_t w = succ[cursor++];
            if (thread_[w] != thread_[v]) return w;
          }
          return kNoNode;
        },
        [&](std::span<const std::uint32_t> scc) {
          const auto c = static_cast<std::uint32_t>(comp_nontrivial_.size());
          for (std::uint32_t w : scc) comp_[w] = c;
          comp_nontrivial_.push_back(scc.size() >= 2);
        },
        scratch);
    kSccsVisited.add(static_cast<std::uint64_t>(
        std::count(comp_nontrivial_.begin(), comp_nontrivial_.end(), true)));
  }

  std::size_t size() const { return tuple_of_.size(); }

  bool in_nontrivial_scc(std::size_t node) const {
    return comp_nontrivial_[comp_[node]];
  }

  const Word* lockset(std::size_t node) const {
    return &masks_[node * lock_words_];
  }

  // The nodes holding the lock `node` requests, in node order.
  std::span<const std::uint32_t> successors(std::size_t node) const {
    const std::uint32_t l = request_[node];
    if (l == kNone) return {};
    return {holders_.data() + holder_start_[l],
            holders_.data() + holder_start_[l + 1]};
  }

  const LockDependency& dep_;
  const DetectorOptions& options_;
  std::size_t lock_words_ = 1;
  std::size_t thread_words_ = 1;
  std::vector<std::size_t> tuple_of_;  // node → index into dep.tuples
  std::vector<ThreadId> thread_;
  std::vector<Timestamp> tau_;
  std::vector<std::uint32_t> entries_;  // lockset entries, dense, node-major
  std::vector<std::uint32_t> request_;  // node → dense requested lock
  std::vector<std::uint32_t> holder_start_;  // dense lock → holders_ range
  std::vector<std::uint32_t> holders_;
  std::vector<std::uint32_t> lock_bit_;     // dense lock → mask bit
  std::vector<Word> masks_;  // node-major, lock_words_ words per node
  std::vector<std::uint32_t> comp_;  // node → SCC id
  std::vector<bool> comp_nontrivial_;
  std::optional<ClockPairMatrix> matrix_;
};

// One DFS worker: bitset chain state sized once, reused across starts.
struct ChainSearch {
  explicit ChainSearch(const SccEngine& engine)
      : e(engine),
        chain_threads(engine.thread_words_, 0),
        chain_locks(engine.lock_words_, 0) {}

  void run_from(std::uint32_t start) {
    first_thread = e.thread_[start];
    start_comp = e.comp_[start];
    push(start);
    extend(start);
    pop(start);
  }

  void push(std::uint32_t node) {
    kChains.add();
    chain.push_back(node);
    flip_bit(chain_threads.data(), static_cast<std::size_t>(e.thread_[node]));
    const Word* mask = e.lockset(node);
    for (std::size_t w = 0; w < e.lock_words_; ++w) chain_locks[w] ^= mask[w];
  }

  void pop(std::uint32_t node) {
    const Word* mask = e.lockset(node);
    for (std::size_t w = 0; w < e.lock_words_; ++w) chain_locks[w] ^= mask[w];
    flip_bit(chain_threads.data(), static_cast<std::size_t>(e.thread_[node]));
    chain.pop_back();
  }

  // The in-search clock cut: true when `node` forms a provably
  // non-overlapping pair with any chain member. Every cycle containing
  // such a pair is pruned by Algorithm 2, so the whole branch is dead.
  bool clock_cut(std::uint32_t node) const {
    const ClockPairMatrix& m = *e.matrix_;
    for (std::uint32_t member : chain) {
      const ThreadId tm = e.thread_[member];
      const ThreadId tn = e.thread_[node];
      if (m.never_overlaps(tm, tn) || m.never_overlaps(tn, tm)) return true;
      if (is_false(m.pair_verdict(tm, e.tau_[member], tn, e.tau_[node])) ||
          is_false(m.pair_verdict(tn, e.tau_[node], tm, e.tau_[member])))
        return true;
    }
    return false;
  }

  void extend(std::uint32_t last) {
    if (out.size() >= e.options_.max_cycles) return;
    const std::uint32_t first = chain.front();

    const std::uint32_t closing = e.request_bit(last);
    if (chain.size() >= 2 && closing != kNone &&
        test_bit(e.lockset(first), closing)) {
      kCyclesFound.add();
      PotentialDeadlock cycle;
      cycle.tuple_idx.reserve(chain.size());
      for (std::uint32_t node : chain)
        cycle.tuple_idx.push_back(e.tuple_of_[node]);
      out.push_back(std::move(cycle));
    }
    if (static_cast<int>(chain.size()) >= e.options_.max_cycle_length)
      return;

    for (std::uint32_t next : e.successors(last)) {
      if (out.size() >= e.options_.max_cycles) return;
      if (e.thread_[next] <= first_thread) continue;
      if (e.comp_[next] != start_comp) continue;
      if (test_bit(chain_threads.data(),
                   static_cast<std::size_t>(e.thread_[next])))
        continue;
      const Word* mask = e.lockset(next);
      bool overlap = false;
      for (std::size_t w = 0; w < e.lock_words_; ++w)
        overlap |= (chain_locks[w] & mask[w]) != 0;
      if (overlap) continue;
      if (e.matrix_.has_value() && clock_cut(next)) {
        kClockCuts.add();
        continue;
      }
      push(next);
      extend(next);
      pop(next);
    }
  }

  const SccEngine& e;
  ThreadId first_thread = kInvalidThread;
  std::uint32_t start_comp = 0;
  std::vector<std::uint32_t> chain;
  std::vector<Word> chain_threads;
  std::vector<Word> chain_locks;
  std::vector<PotentialDeadlock> out;
};

// Runs the search from every nontrivial-SCC start, in node order.
EnumerationResult SccEngine::run() const {
  const std::size_t n = size();
  ChainSearch search(*this);
  for (std::size_t i = 0; i < n; ++i) {
    if (search.out.size() >= options_.max_cycles) break;
    if (!in_nontrivial_scc(i)) continue;
    search.run_from(static_cast<std::uint32_t>(i));
    obs::progress_tick("detect", i + 1, n);
  }
  EnumerationResult result;
  result.cycles = std::move(search.out);
  result.truncated = result.cycles.size() >= options_.max_cycles;
  return result;
}

}  // namespace

EnumerationResult enumerate_cycles_ex(const LockDependency& dep,
                                      const DetectorOptions& options,
                                      const ClockTracker* clocks) {
  return SccEngine(dep, options, clocks).run();
}

}  // namespace wolf
