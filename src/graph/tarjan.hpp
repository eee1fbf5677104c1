// The one strongly-connected-components routine (DESIGN.md §12, §16).
//
// An iterative Tarjan over dense node ids 0..n-1, behind the cycle engine's
// partition, DynamicScc's split rebuild (members mapped to local ids) and
// order pass, and DynamicScc's test oracle. The graph is never built: a
// successor callback walks each node's edges through a frame-held cursor
// and may skip any of them, so a node subset or an edge filter costs only
// the edges it reads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace wolf {

// "No node": what a successor callback returns when a node's edges are
// exhausted, and a free marker for callers mapping ids into a local range.
inline constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

// Caller-owned working memory; one kept across calls makes repeated
// partitions allocation-free once its vectors have grown.
struct TarjanScratch {
  std::vector<std::uint32_t> index;  // node → DFS index (or a marker below)
  std::vector<std::uint32_t> low;
  std::vector<std::uint32_t> stack;  // Tarjan's stack of unassigned nodes
  std::vector<std::pair<std::uint32_t, std::size_t>> frames;  // node, cursor
};

// Emits the SCCs of the digraph on nodes 0..n-1.
//
//   next(v, cursor) → v's next successor from `cursor` on, advancing the
//     cursor (which starts at 0) past it, or kNoNode when none is left. An
//     edge the callback skips is absent from the graph.
//   emit(std::span<const std::uint32_t>) → one component's members, in the
//     order Tarjan pops them. The span is valid during the call only.
//
// Roots are tried in ascending id order. Components arrive in reverse
// topological order of the condensation: every edge between two components
// runs from a later-emitted one to an earlier-emitted one.
template <class Next, class Emit>
void tarjan_scc(std::uint32_t n, Next&& next, Emit&& emit, TarjanScratch& s) {
  constexpr std::uint32_t kUnvisited = kNoNode;
  // An assigned node's index: above every live one, so the lowlink update
  // along an edge into an already-emitted component is a no-op.
  constexpr std::uint32_t kAssigned = kNoNode - 1;
  s.index.assign(n, kUnvisited);
  s.low.resize(n);
  s.stack.clear();
  s.frames.clear();
  std::uint32_t next_index = 0;
  auto open = [&](std::uint32_t v) {
    s.index[v] = s.low[v] = next_index++;
    s.stack.push_back(v);
    s.frames.emplace_back(v, 0);
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (s.index[root] != kUnvisited) continue;
    open(root);
    while (!s.frames.empty()) {
      auto& [v, cursor] = s.frames.back();
      const std::uint32_t w = next(v, cursor);
      if (w != kNoNode) {
        if (s.index[w] == kUnvisited)
          open(w);
        else
          s.low[v] = std::min(s.low[v], s.index[w]);
        continue;
      }
      const std::uint32_t u = v;
      s.frames.pop_back();
      if (!s.frames.empty()) {
        const std::uint32_t parent = s.frames.back().first;
        s.low[parent] = std::min(s.low[parent], s.low[u]);
      }
      if (s.low[u] != s.index[u]) continue;
      // u roots a component: the stack from u up. Reversed, it reads in
      // pop order.
      const auto first =
          std::find(s.stack.rbegin(), s.stack.rend(), u).base() - 1;
      std::reverse(first, s.stack.end());
      for (auto it = first; it != s.stack.end(); ++it) s.index[*it] = kAssigned;
      emit(std::span<const std::uint32_t>(first, s.stack.end()));
      s.stack.erase(first, s.stack.end());
    }
  }
}

}  // namespace wolf
