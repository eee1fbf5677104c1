#include "graph/digraph.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace wolf {

Digraph::Digraph(int node_count) {
  WOLF_CHECK(node_count >= 0);
  succ_.resize(static_cast<std::size_t>(node_count));
  pred_.resize(static_cast<std::size_t>(node_count));
  alive_.assign(static_cast<std::size_t>(node_count), true);
  alive_node_count_ = node_count;
}

void Digraph::check_node(Node n) const {
  WOLF_CHECK_MSG(n >= 0 && n < node_capacity() && alive_[static_cast<std::size_t>(n)],
                 "node " << n << " is not alive");
}

Digraph::Node Digraph::add_node() {
  succ_.emplace_back();
  pred_.emplace_back();
  alive_.push_back(true);
  ++alive_node_count_;
  return static_cast<Node>(alive_.size()) - 1;
}

bool Digraph::alive(Node n) const {
  return n >= 0 && n < node_capacity() && alive_[static_cast<std::size_t>(n)];
}

void Digraph::add_edge(Node u, Node v) {
  check_node(u);
  check_node(v);
  auto& out = succ_[static_cast<std::size_t>(u)];
  if (std::find(out.begin(), out.end(), v) != out.end()) return;
  out.push_back(v);
  pred_[static_cast<std::size_t>(v)].push_back(u);
  ++edge_count_;
}

bool Digraph::has_edge(Node u, Node v) const {
  if (!alive(u) || !alive(v)) return false;
  const auto& out = succ_[static_cast<std::size_t>(u)];
  return std::find(out.begin(), out.end(), v) != out.end();
}

void Digraph::remove_edge(Node u, Node v) {
  check_node(u);
  check_node(v);
  auto& out = succ_[static_cast<std::size_t>(u)];
  auto it = std::find(out.begin(), out.end(), v);
  if (it == out.end()) return;
  out.erase(it);
  auto& in = pred_[static_cast<std::size_t>(v)];
  in.erase(std::find(in.begin(), in.end(), u));
  --edge_count_;
}

void Digraph::remove_node(Node n) {
  check_node(n);
  // Copy because remove_edge mutates the adjacency we iterate.
  const std::vector<Node> out = succ_[static_cast<std::size_t>(n)];
  for (Node v : out) remove_edge(n, v);
  const std::vector<Node> in = pred_[static_cast<std::size_t>(n)];
  for (Node u : in) remove_edge(u, n);
  alive_[static_cast<std::size_t>(n)] = false;
  --alive_node_count_;
}

const std::vector<Digraph::Node>& Digraph::successors(Node n) const {
  check_node(n);
  return succ_[static_cast<std::size_t>(n)];
}

const std::vector<Digraph::Node>& Digraph::predecessors(Node n) const {
  check_node(n);
  return pred_[static_cast<std::size_t>(n)];
}

int Digraph::in_degree(Node n) const {
  check_node(n);
  return static_cast<int>(pred_[static_cast<std::size_t>(n)].size());
}

int Digraph::out_degree(Node n) const {
  check_node(n);
  return static_cast<int>(succ_[static_cast<std::size_t>(n)].size());
}

std::vector<Digraph::Node> Digraph::nodes() const {
  std::vector<Node> out;
  out.reserve(static_cast<std::size_t>(alive_node_count_));
  for (Node n = 0; n < node_capacity(); ++n)
    if (alive_[static_cast<std::size_t>(n)]) out.push_back(n);
  return out;
}

namespace {
enum class Color : unsigned char { kWhite, kGray, kBlack };
}  // namespace

bool Digraph::has_cycle() const { return find_cycle().has_value(); }

std::optional<std::vector<Digraph::Node>> Digraph::find_cycle() const {
  const int n = node_capacity();
  std::vector<Color> color(static_cast<std::size_t>(n), Color::kWhite);
  std::vector<Node> parent(static_cast<std::size_t>(n), -1);

  // Iterative DFS; on a gray->gray edge we walk parents to extract the cycle.
  struct Frame {
    Node node;
    std::size_t next_child;
  };
  for (Node start = 0; start < n; ++start) {
    if (!alive_[static_cast<std::size_t>(start)]) continue;
    if (color[static_cast<std::size_t>(start)] != Color::kWhite) continue;
    std::vector<Frame> stack;
    stack.push_back({start, 0});
    color[static_cast<std::size_t>(start)] = Color::kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto& out = succ_[static_cast<std::size_t>(f.node)];
      if (f.next_child < out.size()) {
        Node child = out[f.next_child++];
        if (color[static_cast<std::size_t>(child)] == Color::kGray) {
          // Found a back edge f.node -> child; cycle is child..f.node.
          std::vector<Node> cycle;
          Node cur = f.node;
          cycle.push_back(cur);
          while (cur != child) {
            cur = parent[static_cast<std::size_t>(cur)];
            cycle.push_back(cur);
          }
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
        if (color[static_cast<std::size_t>(child)] == Color::kWhite) {
          color[static_cast<std::size_t>(child)] = Color::kGray;
          parent[static_cast<std::size_t>(child)] = f.node;
          stack.push_back({child, 0});
        }
      } else {
        color[static_cast<std::size_t>(f.node)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return std::nullopt;
}

std::vector<Digraph::Node> Digraph::ancestors(Node v) const {
  check_node(v);
  std::vector<bool> seen(static_cast<std::size_t>(node_capacity()), false);
  std::vector<Node> stack{v};
  seen[static_cast<std::size_t>(v)] = true;
  std::vector<Node> out;
  while (!stack.empty()) {
    Node cur = stack.back();
    stack.pop_back();
    for (Node p : pred_[static_cast<std::size_t>(cur)]) {
      if (seen[static_cast<std::size_t>(p)]) continue;
      seen[static_cast<std::size_t>(p)] = true;
      out.push_back(p);
      stack.push_back(p);
    }
  }
  return out;
}

std::string Digraph::to_dot(const std::vector<std::string>& labels) const {
  std::ostringstream os;
  os << "digraph G {\n";
  for (Node v : nodes()) {
    os << "  n" << v;
    if (static_cast<std::size_t>(v) < labels.size())
      os << " [label=\"" << labels[static_cast<std::size_t>(v)] << "\"]";
    os << ";\n";
  }
  for (Node v : nodes())
    for (Node w : succ_[static_cast<std::size_t>(v)])
      os << "  n" << v << " -> n" << w << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace wolf
