// Unit and property tests for the digraph (dynamic mutation, cycle
// detection with witness extraction, ancestors) and for the shared Tarjan
// routine (graph/tarjan.hpp) that every SCC in the repo comes from.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "graph/digraph.hpp"
#include "graph/tarjan.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace wolf {
namespace {

Digraph path_graph(int n) {
  Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

// The alive nodes' SCCs through the shared routine, in emission order.
std::vector<std::vector<Digraph::Node>> sccs_of(const Digraph& g) {
  std::vector<std::vector<Digraph::Node>> sccs;
  TarjanScratch scratch;
  tarjan_scc(
      static_cast<std::uint32_t>(g.node_capacity()),
      [&](std::uint32_t v, std::size_t& cursor) {
        if (!g.alive(static_cast<Digraph::Node>(v))) return kNoNode;
        const auto& succ = g.successors(static_cast<Digraph::Node>(v));
        return cursor < succ.size() ? static_cast<std::uint32_t>(succ[cursor++])
                                    : kNoNode;
      },
      [&](std::span<const std::uint32_t> scc) {
        if (g.alive(static_cast<Digraph::Node>(scc.front())))
          sccs.emplace_back(scc.begin(), scc.end());
      },
      scratch);
  return sccs;
}

TEST(DigraphTest, AddAndQueryEdges) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(2), 1);
}

TEST(DigraphTest, ParallelEdgesCoalesce) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(DigraphTest, RemoveEdge) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 0u);
  // Removing a non-existent edge is a no-op.
  g.remove_edge(0, 1);
}

TEST(DigraphTest, RemoveNodeDropsIncidentEdges) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.remove_node(1);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_FALSE(g.alive(1));
  EXPECT_EQ(g.edge_count(), 1u);  // only 2 -> 0 remains
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(DigraphTest, OperationsOnDeadNodeThrow) {
  Digraph g(2);
  g.remove_node(0);
  EXPECT_THROW(g.add_edge(0, 1), CheckFailure);
  EXPECT_THROW(g.successors(0), CheckFailure);
  EXPECT_THROW(g.remove_node(0), CheckFailure);
}

TEST(DigraphTest, AddNodeGrows) {
  Digraph g;
  Digraph::Node a = g.add_node();
  Digraph::Node b = g.add_node();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  g.add_edge(a, b);
  EXPECT_TRUE(g.has_edge(a, b));
}

TEST(DigraphTest, PathIsAcyclic) {
  Digraph g = path_graph(5);
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.find_cycle(), std::nullopt);
}

TEST(DigraphTest, SelfLoopIsACycle) {
  Digraph g(1);
  g.add_edge(0, 0);
  auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 1u);
}

TEST(DigraphTest, FindCycleReturnsValidWitness) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  // Witness must be a genuine directed cycle.
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    Digraph::Node u = (*cycle)[i];
    Digraph::Node v = (*cycle)[(i + 1) % cycle->size()];
    EXPECT_TRUE(g.has_edge(u, v)) << u << "->" << v;
  }
  // And must contain the actual loop 1-2-3.
  std::set<Digraph::Node> nodes(cycle->begin(), cycle->end());
  EXPECT_EQ(nodes, (std::set<Digraph::Node>{1, 2, 3}));
}

TEST(DigraphTest, CycleBrokenByNodeRemoval) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(g.has_cycle());
  g.remove_node(2);
  EXPECT_FALSE(g.has_cycle());
}

TEST(DigraphTest, AncestorsFollowAllPaths) {
  Digraph g(6);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(4, 3);
  // Node 5 unrelated.
  auto anc = g.ancestors(3);
  std::set<Digraph::Node> expected{0, 1, 2, 4};
  EXPECT_EQ(std::set<Digraph::Node>(anc.begin(), anc.end()), expected);
  EXPECT_TRUE(g.ancestors(0).empty());
}

TEST(DigraphTest, AncestorsExcludeSelfUnlessLoop) {
  Digraph g = path_graph(3);
  auto anc = g.ancestors(2);
  EXPECT_EQ(anc.size(), 2u);
  EXPECT_EQ(std::count(anc.begin(), anc.end(), 2), 0);
}

TEST(DigraphTest, SccDecomposition) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // {0,1}
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 2);  // {2,3}
  // 4 isolated.
  auto sccs = sccs_of(g);
  std::set<std::set<Digraph::Node>> as_sets;
  for (auto& comp : sccs)
    as_sets.insert(std::set<Digraph::Node>(comp.begin(), comp.end()));
  EXPECT_EQ(as_sets.size(), 3u);
  EXPECT_TRUE(as_sets.count({0, 1}));
  EXPECT_TRUE(as_sets.count({2, 3}));
  EXPECT_TRUE(as_sets.count({4}));
}

TEST(DigraphTest, DotContainsNodesAndEdges) {
  Digraph g(2);
  g.add_edge(0, 1);
  std::string dot = g.to_dot({"alpha", "beta"});
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("alpha"), std::string::npos);
}

// ---------------------------------------------------------------- property

class GraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphPropertyTest, RandomDagHasNoCycleAndSortsTopologically) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 3 + static_cast<int>(rng.below(20));
  Digraph g(n);
  // Edges only from lower to higher id: a DAG by construction.
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.chance(0.25)) g.add_edge(i, j);
  EXPECT_FALSE(g.has_cycle());
  // Every SCC of a DAG is a singleton, and reversed emission order sorts
  // it topologically.
  const auto sccs = sccs_of(g);
  ASSERT_EQ(sccs.size(), static_cast<std::size_t>(n));
  std::vector<std::size_t> position(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    ASSERT_EQ(sccs[i].size(), 1u);
    position[static_cast<std::size_t>(sccs[i][0])] = sccs.size() - 1 - i;
  }
  for (Digraph::Node u : g.nodes())
    for (Digraph::Node v : g.successors(u))
      EXPECT_LT(position[static_cast<std::size_t>(u)],
                position[static_cast<std::size_t>(v)]);
}

TEST_P(GraphPropertyTest, BackEdgeCreatesDetectableCycle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const int n = 4 + static_cast<int>(rng.below(16));
  Digraph g(n);
  // A path plus random forward edges, then one back edge closing a loop.
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  for (int e = 0; e < n; ++e) {
    int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    int j = i + 1 +
            static_cast<int>(rng.below(static_cast<std::uint64_t>(n - i - 1)));
    g.add_edge(i, j);
  }
  int hi = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
  int lo = static_cast<int>(rng.below(static_cast<std::uint64_t>(hi)));
  g.add_edge(hi, lo);
  auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  for (std::size_t i = 0; i < cycle->size(); ++i)
    EXPECT_TRUE(g.has_edge((*cycle)[i], (*cycle)[(i + 1) % cycle->size()]));
}

TEST_P(GraphPropertyTest, SccAgreesWithCycleDetector) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  const int n = 3 + static_cast<int>(rng.below(12));
  Digraph g(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j && rng.chance(0.15)) g.add_edge(i, j);
  bool nontrivial_scc = false;
  for (const auto& comp : sccs_of(g))
    if (comp.size() > 1) nontrivial_scc = true;
  bool self_loop = false;
  for (int i = 0; i < n; ++i) self_loop |= g.has_edge(i, i);
  EXPECT_EQ(g.has_cycle(), nontrivial_scc || self_loop);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPropertyTest, ::testing::Range(0, 20));

// The shared Tarjan on a random digraph with self loops, restricted to a
// shuffled node subset mapped to local ids (as DynamicScc's split rebuild
// runs it) and behind an edge filter (as the cycle engine skips
// same-thread edges), against a brute-force mutual-reachability partition
// of the same restricted, filtered graph.
class TarjanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TarjanPropertyTest, MatchesMutualReachabilityInReverseTopologicalOrder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const std::size_t n = 2 + rng.below(30);
  const double density = 0.04 + 0.25 * rng.uniform();
  // adjacency[u][v]: 0 no edge, 1 edge the filter skips, 2 kept edge.
  std::vector<std::vector<int>> adjacency(n, std::vector<int>(n, 0));
  std::vector<std::vector<std::uint32_t>> out(n);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = 0; v < n; ++v)
      if (rng.chance(density)) {
        adjacency[u][v] = rng.chance(0.25) ? 1 : 2;
        out[u].push_back(static_cast<std::uint32_t>(v));
      }
  std::vector<std::uint32_t> subset;
  for (std::size_t v = 0; v < n; ++v)
    if (rng.chance(0.75)) subset.push_back(static_cast<std::uint32_t>(v));
  std::shuffle(subset.begin(), subset.end(), rng);
  std::vector<std::uint32_t> local(n, kNoNode);
  for (std::size_t i = 0; i < subset.size(); ++i)
    local[subset[i]] = static_cast<std::uint32_t>(i);
  const std::size_t m = subset.size();

  std::vector<std::vector<std::uint32_t>> emitted;
  TarjanScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {  // the scratch is reusable
    emitted.clear();
    tarjan_scc(
        static_cast<std::uint32_t>(m),
        [&](std::uint32_t v, std::size_t& cursor) {
          const std::uint32_t u = subset[v];
          while (cursor < out[u].size()) {
            const std::uint32_t w = out[u][cursor++];
            if (adjacency[u][w] == 2 && local[w] != kNoNode) return local[w];
          }
          return kNoNode;
        },
        [&](std::span<const std::uint32_t> scc) {
          emitted.emplace_back(scc.begin(), scc.end());
        },
        scratch);
  }

  // Brute force: reach[a][b] over the kept edges inside the subset.
  std::vector<std::vector<char>> reach(m, std::vector<char>(m, 0));
  for (std::size_t a = 0; a < m; ++a) {
    reach[a][a] = 1;
    for (std::size_t b = 0; b < m; ++b)
      if (adjacency[subset[a]][subset[b]] == 2) reach[a][b] = 1;
  }
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t a = 0; a < m; ++a)
      if (reach[a][k])
        for (std::size_t b = 0; b < m; ++b)
          if (reach[k][b]) reach[a][b] = 1;
  std::set<std::set<std::uint32_t>> expected;
  for (std::size_t a = 0; a < m; ++a) {
    std::set<std::uint32_t> comp;
    for (std::size_t b = 0; b < m; ++b)
      if (reach[a][b] && reach[b][a]) comp.insert(static_cast<std::uint32_t>(b));
    expected.insert(comp);
  }

  std::vector<std::size_t> emitted_at(m, emitted.size());
  std::set<std::set<std::uint32_t>> actual;
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    for (std::uint32_t v : emitted[i]) {
      ASSERT_LT(v, m);
      ASSERT_EQ(emitted_at[v], emitted.size()) << "node " << v << " twice";
      emitted_at[v] = i;
    }
    actual.emplace(emitted[i].begin(), emitted[i].end());
  }
  EXPECT_EQ(actual, expected);
  // Reverse topological emission: a cross-SCC edge runs from a
  // later-emitted component to an earlier-emitted one.
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (adjacency[subset[a]][subset[b]] == 2 &&
          emitted_at[a] != emitted_at[b]) {
        EXPECT_GT(emitted_at[a], emitted_at[b]) << a << " -> " << b;
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TarjanPropertyTest, ::testing::Range(0, 100));

}  // namespace
}  // namespace wolf
