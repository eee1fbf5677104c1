// DynamicScc contract tests: the incremental decomposition must equal its
// own fresh-Tarjan oracle after EVERY mutation, the maintained order must
// stay topological over the condensation, and dirty marks must map to live
// labels across merges and splits (DESIGN.md §16).
#include "graph/dynamic_scc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace wolf {
namespace {

using Partition = std::set<std::vector<DynamicScc::Node>>;

Partition partition_from_oracle(const DynamicScc& scc) {
  Partition p;
  for (std::vector<DynamicScc::Node> comp : scc.tarjan_components()) {
    std::sort(comp.begin(), comp.end());
    p.insert(std::move(comp));
  }
  return p;
}

Partition partition_from_labels(const DynamicScc& scc) {
  Partition p;
  for (std::size_t c = 0; c < scc.component_capacity(); ++c) {
    if (!scc.component_alive(static_cast<int>(c))) continue;
    std::vector<DynamicScc::Node> comp = scc.members(static_cast<int>(c));
    std::sort(comp.begin(), comp.end());
    p.insert(std::move(comp));
  }
  return p;
}

// Every cross-component edge goes forward in the maintained topological
// order; returns the first edge that does not, as "u->v", or "".
std::string order_violation(const DynamicScc& scc) {
  for (std::size_t u = 0; u < scc.node_count(); ++u) {
    const int cu = scc.component_of(static_cast<DynamicScc::Node>(u));
    for (DynamicScc::Node v : scc.successors(static_cast<DynamicScc::Node>(u))) {
      const int cv = scc.component_of(v);
      if (cu != cv && scc.order_of(cu) >= scc.order_of(cv))
        return std::to_string(u) + "->" + std::to_string(v);
    }
  }
  return "";
}

// The differential contract plus the order invariant.
void expect_consistent(const DynamicScc& scc) {
  EXPECT_EQ(partition_from_labels(scc), partition_from_oracle(scc));
  EXPECT_EQ(scc.component_count(), partition_from_oracle(scc).size());
  for (const auto& comp : scc.tarjan_components())
    for (DynamicScc::Node v : comp)
      EXPECT_TRUE(scc.component_alive(scc.component_of(v)));
  EXPECT_EQ(order_violation(scc), "") << "edge against the order";
}

TEST(DynamicSccTest, SingletonsStartAlone) {
  DynamicScc scc;
  for (int i = 0; i < 5; ++i) scc.add_node();
  EXPECT_EQ(scc.component_count(), 5u);
  EXPECT_FALSE(scc.same_component(0, 4));
  expect_consistent(scc);
}

TEST(DynamicSccTest, ChainStaysAcyclicAndOrdered) {
  DynamicScc scc;
  for (int i = 0; i < 6; ++i) scc.add_node();
  // Insert in an order that forces reordering work (back-to-front).
  for (int i = 4; i >= 0; --i) EXPECT_FALSE(scc.add_edge(i, i + 1));
  EXPECT_EQ(scc.component_count(), 6u);
  for (int i = 0; i < 5; ++i)
    EXPECT_LT(scc.order_of(scc.component_of(i)),
              scc.order_of(scc.component_of(i + 1)));
  EXPECT_EQ(scc.merges(), 0u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, BackEdgeCollapsesThePath) {
  DynamicScc scc;
  for (int i = 0; i < 5; ++i) scc.add_node();
  for (int i = 0; i < 4; ++i) scc.add_edge(i, i + 1);
  EXPECT_TRUE(scc.add_edge(4, 0));  // closes 0→1→2→3→4→0
  EXPECT_EQ(scc.component_count(), 1u);
  EXPECT_TRUE(scc.same_component(0, 4));
  EXPECT_EQ(scc.merges(), 1u);
  EXPECT_EQ(scc.order_rebuilds(), 0u);  // merges repair the order locally
  expect_consistent(scc);
}

TEST(DynamicSccTest, CollapseIsBoundedToThePath) {
  DynamicScc scc;
  for (int i = 0; i < 6; ++i) scc.add_node();
  // 0→1→2 and bystanders 3→4, 5 isolated; cycle only through 0..2.
  scc.add_edge(0, 1);
  scc.add_edge(1, 2);
  scc.add_edge(3, 4);
  EXPECT_TRUE(scc.add_edge(2, 0));
  EXPECT_EQ(scc.component_count(), 4u);  // {0,1,2}, {3}, {4}, {5}
  EXPECT_FALSE(scc.same_component(0, 3));
  expect_consistent(scc);
}

// The merge repair reorders only the affected region: a predecessor of the
// cycle parked above it (3) moves below the merged component, a successor
// parked below it (1) moves above, and a bystander keeps its position.
TEST(DynamicSccTest, MergeRepairsTheOrderAroundTheCollapsedRegion) {
  DynamicScc scc;
  for (int i = 0; i < 6; ++i) scc.add_node();  // positions follow the ids
  scc.add_edge(0, 2);
  scc.add_edge(2, 4);
  scc.add_edge(0, 1);
  scc.add_edge(3, 4);
  const std::int64_t bystander = scc.order_of(scc.component_of(5));
  const std::size_t visits = scc.order_visits();
  EXPECT_EQ(visits, 0u);  // every edge so far was already forward
  EXPECT_TRUE(scc.add_edge(4, 0));  // closes 0 -> 2 -> 4 -> 0
  const int merged = scc.component_of(0);
  EXPECT_EQ(merged, scc.component_of(2));
  EXPECT_EQ(merged, scc.component_of(4));
  EXPECT_LT(scc.order_of(scc.component_of(3)), scc.order_of(merged));
  EXPECT_LT(scc.order_of(merged), scc.order_of(scc.component_of(1)));
  EXPECT_EQ(scc.order_of(scc.component_of(5)), bystander);
  EXPECT_EQ(scc.order_visits(), 8u);  // F = {0,1,2,4}, B = {4,2,3,0}
  EXPECT_EQ(scc.order_rebuilds(), 0u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, RemovalSplitsLazilyButReadsStayConsistent) {
  DynamicScc scc;
  for (int i = 0; i < 3; ++i) scc.add_node();
  scc.add_edge(0, 1);
  scc.add_edge(1, 2);
  scc.add_edge(2, 0);
  ASSERT_EQ(scc.component_count(), 1u);
  scc.remove_edge(2, 0);  // queues the lazy rebuild
  // The very next read must already see the split decomposition.
  EXPECT_EQ(scc.component_count(), 3u);
  EXPECT_FALSE(scc.same_component(0, 2));
  EXPECT_EQ(scc.splits(), 1u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, ChordKeepsSubcycleAliveAfterRemoval) {
  DynamicScc scc;
  for (int i = 0; i < 3; ++i) scc.add_node();
  scc.add_edge(0, 1);
  scc.add_edge(1, 2);
  scc.add_edge(2, 0);
  scc.add_edge(1, 0);  // chord: 0↔1 survives without 2
  ASSERT_EQ(scc.component_count(), 1u);
  scc.remove_edge(2, 0);
  EXPECT_EQ(scc.component_count(), 2u);  // {0,1}, {2}
  EXPECT_TRUE(scc.same_component(0, 1));
  EXPECT_FALSE(scc.same_component(0, 2));
  expect_consistent(scc);
}

TEST(DynamicSccTest, CrossComponentRemovalIsStructurallyFree) {
  DynamicScc scc;
  scc.add_node();
  scc.add_node();
  scc.add_edge(0, 1);
  const std::size_t splits_before = scc.splits();
  scc.remove_edge(0, 1);
  EXPECT_EQ(scc.splits(), splits_before);
  EXPECT_EQ(scc.component_count(), 2u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, SelfLoopDoesNotMerge) {
  DynamicScc scc;
  scc.add_node();
  scc.add_node();
  EXPECT_FALSE(scc.add_edge(0, 0));
  EXPECT_EQ(scc.component_count(), 2u);
  scc.remove_edge(0, 0);
  expect_consistent(scc);
}

TEST(DynamicSccTest, DirtyMarksSurviveMergesAndMapToLiveLabels) {
  DynamicScc scc;
  for (int i = 0; i < 4; ++i) scc.add_node();
  (void)scc.drain_dirty();  // consume the add_node marks
  EXPECT_FALSE(scc.has_dirty());
  scc.mark_dirty(0);
  scc.add_edge(0, 1);
  scc.add_edge(1, 0);  // merge relabels node 0's component
  ASSERT_TRUE(scc.has_dirty());
  std::vector<int> dirty = scc.drain_dirty();
  // All marks (manual + merge-induced) fold onto the single live merged
  // label, delivered once.
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], scc.component_of(0));
  EXPECT_EQ(dirty[0], scc.component_of(1));
  EXPECT_FALSE(scc.has_dirty());
}

TEST(DynamicSccTest, SplitMarksEveryMemberDirty) {
  DynamicScc scc;
  for (int i = 0; i < 3; ++i) scc.add_node();
  scc.add_edge(0, 1);
  scc.add_edge(1, 2);
  scc.add_edge(2, 0);
  (void)scc.drain_dirty();
  scc.remove_edge(1, 2);
  EXPECT_TRUE(scc.has_dirty());  // pending split counts as dirt
  std::vector<int> dirty = scc.drain_dirty();
  std::set<int> labels(dirty.begin(), dirty.end());
  // After the split all three singleton components must be reported.
  EXPECT_EQ(labels.size(), 3u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, ClearResetsEverything) {
  DynamicScc scc;
  scc.add_node();
  scc.add_node();
  scc.add_edge(0, 1);
  scc.clear();
  EXPECT_EQ(scc.node_count(), 0u);
  EXPECT_EQ(scc.component_count(), 0u);
  EXPECT_FALSE(scc.has_dirty());
  scc.add_node();  // usable again
  EXPECT_EQ(scc.component_count(), 1u);
}

// Randomized differential campaign: arbitrary insert/remove interleavings,
// checked against the Tarjan oracle after EVERY mutation. Seeds beyond the
// first few are the regression net for order-maintenance corner cases
// (reorder vs collapse vs lazy split interactions).
class DynamicSccFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DynamicSccFuzz, MatchesFreshTarjanAfterEveryMutation) {
  Rng rng(0xD15Cu + static_cast<std::uint64_t>(GetParam()) * 7919u);
  DynamicScc scc;
  const int nodes = 4 + static_cast<int>(rng.below(8));  // 4..11
  for (int i = 0; i < nodes; ++i) scc.add_node();
  std::vector<std::pair<int, int>> live_edges;
  const int steps = 120;
  for (int s = 0; s < steps; ++s) {
    const bool removal = !live_edges.empty() && rng.chance(0.35);
    if (removal) {
      const std::size_t pick = rng.below(live_edges.size());
      auto [u, v] = live_edges[pick];
      live_edges.erase(live_edges.begin() +
                       static_cast<std::ptrdiff_t>(pick));
      scc.remove_edge(u, v);
    } else {
      const int u = static_cast<int>(rng.below(static_cast<std::size_t>(nodes)));
      const int v = static_cast<int>(rng.below(static_cast<std::size_t>(nodes)));
      if (std::find(live_edges.begin(), live_edges.end(),
                    std::make_pair(u, v)) != live_edges.end())
        continue;  // caller contract: no parallel edges
      live_edges.emplace_back(u, v);
      scc.add_edge(u, v);
    }
    ASSERT_EQ(partition_from_labels(scc), partition_from_oracle(scc))
        << "seed " << GetParam() << " step " << s;
    ASSERT_EQ(order_violation(scc), "")
        << "seed " << GetParam() << " step " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSccFuzz, ::testing::Range(0, 60));

// Structure-seeking interleavings: node creation, back edges that close
// cycles (merges), removals of edges inside a component (splits) and
// expiry batches — several removals queued before any read, so one flush
// rebuilds several components. After every step the partition must equal
// fresh Tarjan, the order must be topological, and a drain must name only
// live labels, each once.
class DynamicSccStructureFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DynamicSccStructureFuzz, MergeSplitExpiryInterleavingsStayConsistent) {
  Rng rng(0x5CC5u + static_cast<std::uint64_t>(GetParam()) * 104729u);
  DynamicScc scc;
  std::vector<std::pair<int, int>> live_edges;
  auto live = [&](int u, int v) {
    return std::find(live_edges.begin(), live_edges.end(),
                     std::make_pair(u, v)) != live_edges.end();
  };
  auto remove_at = [&](std::size_t pick) {
    const auto [u, v] = live_edges[pick];
    live_edges.erase(live_edges.begin() + static_cast<std::ptrdiff_t>(pick));
    scc.remove_edge(u, v);
  };
  for (int i = 0; i < 3; ++i) scc.add_node();
  std::size_t merges = 0, splits = 0;
  for (int s = 0; s < 150; ++s) {
    const int nodes = static_cast<int>(scc.node_count());
    const std::uint64_t op = rng.below(10);
    if (op == 0 && nodes < 16) {
      scc.add_node();
    } else if (op <= 3 && !live_edges.empty()) {
      // Back edge of a live edge: closes a cycle whenever absent.
      const auto [u, v] = live_edges[rng.below(live_edges.size())];
      if (!live(v, u)) {
        live_edges.emplace_back(v, u);
        scc.add_edge(v, u);
      }
    } else if (op <= 5) {
      // Removal inside a component: a candidate split.
      std::vector<std::size_t> inside;
      for (std::size_t e = 0; e < live_edges.size(); ++e)
        if (scc.same_component(live_edges[e].first, live_edges[e].second))
          inside.push_back(e);
      if (!inside.empty()) remove_at(inside[rng.below(inside.size())]);
    } else if (op == 6 && live_edges.size() >= 3) {
      // Expiry batch: up to three removals queued before any read.
      for (std::uint64_t k = 1 + rng.below(3); k > 0 && !live_edges.empty(); --k)
        remove_at(rng.below(live_edges.size()));
    } else {
      const int u = static_cast<int>(rng.below(static_cast<std::size_t>(nodes)));
      const int v = static_cast<int>(rng.below(static_cast<std::size_t>(nodes)));
      if (!live(u, v)) {
        live_edges.emplace_back(u, v);
        scc.add_edge(u, v);
      }
    }
    ASSERT_EQ(partition_from_labels(scc), partition_from_oracle(scc))
        << "seed " << GetParam() << " step " << s;
    ASSERT_EQ(order_violation(scc), "")
        << "seed " << GetParam() << " step " << s;
    if (rng.chance(0.3)) {
      const std::vector<int> dirty = scc.drain_dirty();
      ASSERT_EQ(std::set<int>(dirty.begin(), dirty.end()).size(), dirty.size());
      for (int c : dirty) ASSERT_TRUE(scc.component_alive(c));
      ASSERT_TRUE(scc.retired_components().empty());
    }
    merges = scc.merges();
    splits = scc.splits();
  }
  // The campaign must exercise what it claims.
  EXPECT_GT(merges, 0u) << "seed " << GetParam();
  EXPECT_GT(splits, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSccStructureFuzz,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace wolf
