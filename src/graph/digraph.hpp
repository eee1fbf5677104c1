// Directed graph over dense integer node ids, with the operations the WOLF
// pipeline needs: dynamic edge/node removal (the Replayer retires vertices as
// dependencies are satisfied), cycle detection with witness extraction (the
// Generator classifies a potential deadlock as false iff its synchronization
// dependency graph is cyclic) and DOT export for debugging. SCCs come from
// the one Tarjan routine in graph/tarjan.hpp.
//
// Node ids are assigned densely by add_node(); removed nodes keep their id
// (ids are never reused) but drop out of iteration and adjacency.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace wolf {

class Digraph {
 public:
  using Node = int;

  Digraph() = default;
  explicit Digraph(int node_count);

  // Returns the id of a fresh node.
  Node add_node();
  int node_capacity() const { return static_cast<int>(alive_.size()); }
  int node_count() const { return alive_node_count_; }
  bool alive(Node n) const;

  // Adds a directed edge u -> v; parallel edges are coalesced. Self loops are
  // permitted (and count as cycles). Both endpoints must be alive.
  void add_edge(Node u, Node v);

  bool has_edge(Node u, Node v) const;
  void remove_edge(Node u, Node v);

  // Removes the node and every edge incident on it.
  void remove_node(Node n);

  std::size_t edge_count() const { return edge_count_; }

  const std::vector<Node>& successors(Node n) const;
  const std::vector<Node>& predecessors(Node n) const;
  int in_degree(Node n) const;
  int out_degree(Node n) const;

  // All currently alive nodes, ascending.
  std::vector<Node> nodes() const;

  // True iff the graph (restricted to alive nodes) contains a directed cycle.
  bool has_cycle() const;

  // Returns one directed cycle as a node sequence [v0, v1, ..., vk] with
  // edges v0->v1->...->vk->v0, or nullopt when acyclic.
  std::optional<std::vector<Node>> find_cycle() const;

  // Every node u (alive) with a directed path u -> ... -> v, excluding v
  // itself. Used by the Replayer's vertex-retirement rule.
  std::vector<Node> ancestors(Node v) const;

  // GraphViz text; labeler may be empty (node ids used).
  std::string to_dot(
      const std::vector<std::string>& labels = {}) const;

 private:
  std::vector<std::vector<Node>> succ_;
  std::vector<std::vector<Node>> pred_;
  std::vector<bool> alive_;
  int alive_node_count_ = 0;
  std::size_t edge_count_ = 0;

  void check_node(Node n) const;
};

}  // namespace wolf
