#include "core/cycle_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "core/pruner.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"

namespace wolf {

namespace {

// Funnel statistics; deterministic for a given D_σ and options.
const obs::Counter kChains("detector.chains");
const obs::Counter kSccsVisited("detector.sccs_nontrivial");
const obs::Counter kClockCuts("detector.clock_cuts");
const obs::Counter kCyclesFound("detector.cycles");

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

// Dense model of the canonical tuple view: node i ↔ dep.unique[i], with the
// per-node thread/lock/τ scalars hoisted into flat arrays, each lockset as a
// word-mask over dense LockIds, and the per-lock inverted holder index in
// node (= dep.unique) order, which fixes the canonical DFS candidate order.
class SccEngine {
 public:
  SccEngine(const LockDependency& dep, const DetectorOptions& options,
            const ClockTracker* clocks)
      : dep_(dep), options_(options) {
    const std::size_t n = dep.unique.size();
    LockId max_lock = -1;
    ThreadId max_thread = -1;
    for (std::size_t u : dep.unique) {
      const LockTuple& t = dep.tuples[u];
      max_lock = std::max(max_lock, t.lock);
      for (LockId l : t.lockset) max_lock = std::max(max_lock, l);
      max_thread = std::max(max_thread, t.thread);
    }
    lock_words_ = words_for(static_cast<std::size_t>(max_lock + 1));
    thread_words_ = words_for(static_cast<std::size_t>(max_thread + 1));

    tuple_of_.reserve(n);
    thread_.reserve(n);
    lock_.reserve(n);
    tau_.reserve(n);
    lockset_.assign(n * lock_words_, 0);
    holders_of_.assign(static_cast<std::size_t>(max_lock) + 1, {});
    for (std::size_t i = 0; i < n; ++i) {
      const LockTuple& t = dep.tuples[dep.unique[i]];
      tuple_of_.push_back(dep.unique[i]);
      thread_.push_back(t.thread);
      lock_.push_back(t.lock);
      tau_.push_back(t.tau);
      Word* mask = &lockset_[i * lock_words_];
      for (LockId l : t.lockset) {
        flip_bit(mask, static_cast<std::size_t>(l));
        holders_of_[static_cast<std::size_t>(l)].push_back(
            static_cast<std::uint32_t>(i));
      }
    }

    partition();

    if (options.clock_prune_during_search && clocks != nullptr)
      matrix_.emplace(*clocks, dep);
  }

  EnumerationResult run() const;

  // Tarjan-partitions the tuple digraph (η → η' iff η' holds lock(η) and the
  // threads differ — every edge a deadlock chain can take). A cycle through
  // a tuple is a digraph cycle, hence confined to the tuple's SCC; only
  // components with ≥ 2 nodes can carry one (self loops are impossible:
  // a thread is never its own neighbor). The digraph stays implicit: a
  // node's successors are read off holders_of_, so the partition costs
  // O(nodes) memory however many edges the tuples induce.
  void partition() {
    constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
    const std::size_t n = tuple_of_.size();
    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::uint32_t> stack;
    struct Frame {
      std::uint32_t node;
      std::uint32_t next;  // position in the node's holder list
    };
    std::vector<Frame> frames;
    std::uint32_t next_index = 0;
    auto open = [&](std::uint32_t v) {
      index[v] = low[v] = next_index++;
      stack.push_back(v);
      on_stack[v] = true;
      frames.push_back({v, 0});
    };
    comp_.assign(n, 0);
    comp_nontrivial_.clear();
    std::uint64_t nontrivial = 0;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (index[root] != kUnvisited) continue;
      open(root);
      while (!frames.empty()) {
        Frame& f = frames.back();
        const std::uint32_t u = f.node;
        const auto& succ = holders_of_[static_cast<std::size_t>(lock_[u])];
        if (f.next < succ.size()) {
          const std::uint32_t v = succ[f.next++];
          if (thread_[v] == thread_[u]) continue;
          if (index[v] == kUnvisited) {
            open(v);
          } else if (on_stack[v]) {
            low[u] = std::min(low[u], index[v]);
          }
          continue;
        }
        frames.pop_back();
        if (!frames.empty()) {
          const std::uint32_t parent = frames.back().node;
          low[parent] = std::min(low[parent], low[u]);
        }
        if (low[u] != index[u]) continue;
        const auto c = static_cast<std::uint32_t>(comp_nontrivial_.size());
        std::size_t size = 0;
        std::uint32_t w = 0;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp_[w] = c;
          ++size;
        } while (w != u);
        comp_nontrivial_.push_back(size >= 2);
        if (size >= 2) ++nontrivial;
      }
    }
    kSccsVisited.add(nontrivial);
  }

  std::size_t size() const { return tuple_of_.size(); }

  bool in_nontrivial_scc(std::size_t node) const {
    return comp_nontrivial_[comp_[node]];
  }

  const Word* lockset(std::size_t node) const {
    return &lockset_[node * lock_words_];
  }

  const std::vector<std::uint32_t>& holders(std::size_t lock) const {
    return holders_of_[lock];
  }

  const LockDependency& dep_;
  const DetectorOptions& options_;
  std::size_t lock_words_ = 1;
  std::size_t thread_words_ = 1;
  std::vector<std::size_t> tuple_of_;  // node → index into dep.tuples
  std::vector<ThreadId> thread_;
  std::vector<LockId> lock_;
  std::vector<Timestamp> tau_;
  std::vector<Word> lockset_;  // node-major, lock_words_ words per node
  std::vector<std::vector<std::uint32_t>> holders_of_;  // lock → nodes
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
    flip_bit(chain_threads.data(),
             static_cast<std::size_t>(e.thread_[node]));
    const Word* mask = e.lockset(node);
    for (std::size_t w = 0; w < e.lock_words_; ++w) chain_locks[w] ^= mask[w];
  }

  void pop(std::uint32_t node) {
    const Word* mask = e.lockset(node);
    for (std::size_t w = 0; w < e.lock_words_; ++w) chain_locks[w] ^= mask[w];
    flip_bit(chain_threads.data(),
             static_cast<std::size_t>(e.thread_[node]));
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

    if (chain.size() >= 2 &&
        test_bit(e.lockset(first), static_cast<std::size_t>(e.lock_[last]))) {
      kCyclesFound.add();
      PotentialDeadlock cycle;
      cycle.tuple_idx.reserve(chain.size());
      for (std::uint32_t node : chain)
        cycle.tuple_idx.push_back(e.tuple_of_[node]);
      out.push_back(std::move(cycle));
    }
    if (static_cast<int>(chain.size()) >= e.options_.max_cycle_length)
      return;

    for (std::uint32_t next :
         e.holders(static_cast<std::size_t>(e.lock_[last]))) {
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
