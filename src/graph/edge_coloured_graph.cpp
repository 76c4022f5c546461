#include "graph/edge_coloured_graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dmm::graph {

EdgeColouredGraph::EdgeColouredGraph(int n, int k) : k_(k) {
  if (n < 0) throw std::invalid_argument("EdgeColouredGraph: negative node count");
  if (k < 1) throw std::invalid_argument("EdgeColouredGraph: k must be >= 1");
  if (k > gk::kMaxPalette) throw std::invalid_argument("EdgeColouredGraph: k must be <= 255");
  adjacency_.resize(static_cast<std::size_t>(n));
}

EdgeColouredGraph::EdgeColouredGraph(int n, int k, std::vector<Edge> edges)
    : EdgeColouredGraph(n, k) {
  if (edges.size() >= static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("EdgeColouredGraph: edge count would exceed 32 bits");
  }
  // Per-edge checks first (cheap, no sort needed).
  for (const Edge& e : edges) {
    check_node(e.u);
    check_node(e.v);
    if (e.u == e.v) throw std::invalid_argument("EdgeColouredGraph: self-loops not allowed");
    if (e.colour < 1 || e.colour > k_) {
      throw std::invalid_argument("EdgeColouredGraph: colour out of range");
    }
  }
  // Properness and simplicity via one sorted half-edge list: a colour
  // reused at a node and a parallel edge both show up as an adjacent
  // duplicate under the right sort key.
  struct Half3 {
    NodeIndex at;
    NodeIndex to;
    Colour colour;
  };
  std::vector<Half3> halves;
  halves.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    halves.push_back({e.u, e.v, e.colour});
    halves.push_back({e.v, e.u, e.colour});
  }
  std::sort(halves.begin(), halves.end(), [](const Half3& a, const Half3& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.colour != b.colour) return a.colour < b.colour;
    return a.to < b.to;
  });
  for (std::size_t i = 1; i < halves.size(); ++i) {
    if (halves[i].at != halves[i - 1].at) continue;
    if (halves[i].colour == halves[i - 1].colour) {
      throw std::logic_error("EdgeColouredGraph: colour already used at node");
    }
    if (halves[i].to == halves[i - 1].to) {
      throw std::logic_error("EdgeColouredGraph: parallel edge");
    }
  }
  // Parallel edges of *different* colours sort apart under (at, colour);
  // re-check under (at, to).
  std::sort(halves.begin(), halves.end(), [](const Half3& a, const Half3& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.to < b.to;
  });
  for (std::size_t i = 1; i < halves.size(); ++i) {
    if (halves[i].at == halves[i - 1].at && halves[i].to == halves[i - 1].to) {
      throw std::logic_error("EdgeColouredGraph: parallel edge");
    }
  }
  // Adjacency in one pass with exact per-node reserves (add_edge's
  // push_back growth doubles allocations on hub rows).
  std::vector<std::size_t> deg(adjacency_.size(), 0);
  for (const Half3& h : halves) ++deg[static_cast<std::size_t>(h.at)];
  for (std::size_t v = 0; v < adjacency_.size(); ++v) adjacency_[v].reserve(deg[v]);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const auto slot = static_cast<std::int32_t>(i);
    adjacency_[static_cast<std::size_t>(e.u)].push_back({e.v, e.colour, slot});
    adjacency_[static_cast<std::size_t>(e.v)].push_back({e.u, e.colour, slot});
  }
  edges_ = std::move(edges);
}

void EdgeColouredGraph::check_node(NodeIndex v) const {
  if (v < 0 || v >= node_count()) throw std::out_of_range("EdgeColouredGraph: bad node index");
}

void EdgeColouredGraph::add_edge(NodeIndex u, NodeIndex v, Colour colour) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("EdgeColouredGraph: self-loops not allowed");
  if (colour < 1 || colour > k_) throw std::invalid_argument("EdgeColouredGraph: colour out of range");
  for (const Half& h : adjacency_[u]) {
    if (h.colour == colour) throw std::logic_error("EdgeColouredGraph: colour already used at u");
    if (h.to == v) throw std::logic_error("EdgeColouredGraph: parallel edge");
  }
  for (const Half& h : adjacency_[v]) {
    if (h.colour == colour) throw std::logic_error("EdgeColouredGraph: colour already used at v");
  }
  // edge_count() narrows to int; refuse the edge that would wrap it rather
  // than let a 10⁷-scale generator corrupt the count silently.
  if (edges_.size() >= static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("EdgeColouredGraph: edge count would exceed 32 bits");
  }
  const auto slot = static_cast<std::int32_t>(edges_.size());
  adjacency_[u].push_back({v, colour, slot});
  adjacency_[v].push_back({u, colour, slot});
  edges_.push_back({u, v, colour});
}

// Position of the half at -> to in at's row (the row's size if absent);
// adds the halves it inspects to remove_edge_probes_.
std::size_t EdgeColouredGraph::find_half(NodeIndex at, NodeIndex to) {
  const auto& halves = adjacency_[static_cast<std::size_t>(at)];
  std::size_t i = 0;
  while (i < halves.size() && halves[i].to != to) ++i;
  remove_edge_probes_ += std::min(i + 1, halves.size());
  return i;
}

void EdgeColouredGraph::remove_edge(NodeIndex u, NodeIndex v) {
  check_node(u);
  check_node(v);
  auto& at_u = adjacency_[static_cast<std::size_t>(u)];
  auto& at_v = adjacency_[static_cast<std::size_t>(v)];
  const std::size_t hu = find_half(u, v);
  if (hu == at_u.size()) {
    throw std::invalid_argument("EdgeColouredGraph: remove_edge on a non-edge");
  }
  const auto slot = static_cast<std::size_t>(at_u[hu].edge);
  const std::size_t hv = find_half(v, u);
  if (slot >= edges_.size() || hv == at_v.size() || at_v[hv].edge != at_u[hu].edge ||
      !((edges_[slot].u == u && edges_[slot].v == v) ||
        (edges_[slot].u == v && edges_[slot].v == u))) {
    throw std::logic_error("EdgeColouredGraph: adjacency/edge-list mismatch");
  }
  at_u[hu] = at_u.back();
  at_u.pop_back();
  at_v[hv] = at_v.back();
  at_v.pop_back();
  edges_[slot] = edges_.back();
  edges_.pop_back();
  if (slot == edges_.size()) return;  // the removed edge was the last one
  // The last edge moved into `slot`: re-point its two halves.
  const Edge& moved = edges_[slot];
  const auto repoint = [&](NodeIndex at, NodeIndex to) {
    adjacency_[static_cast<std::size_t>(at)][find_half(at, to)].edge =
        static_cast<std::int32_t>(slot);
  };
  repoint(moved.u, moved.v);
  repoint(moved.v, moved.u);
}

std::optional<Colour> EdgeColouredGraph::edge_colour(NodeIndex u, NodeIndex v) const {
  check_node(u);
  check_node(v);
  for (const Half& h : adjacency_[static_cast<std::size_t>(u)]) {
    if (h.to == v) return h.colour;
  }
  return std::nullopt;
}

bool EdgeColouredGraph::has_edge(NodeIndex u, NodeIndex v) const {
  check_node(u);
  check_node(v);
  for (const Half& h : adjacency_[u]) {
    if (h.to == v) return true;
  }
  return false;
}

std::optional<NodeIndex> EdgeColouredGraph::neighbour(NodeIndex v, Colour c) const {
  check_node(v);
  for (const Half& h : adjacency_[v]) {
    if (h.colour == c) return h.to;
  }
  return std::nullopt;
}

std::vector<Colour> EdgeColouredGraph::incident_colours(NodeIndex v) const {
  check_node(v);
  std::vector<Colour> out;
  out.reserve(adjacency_[v].size());
  for (const Half& h : adjacency_[v]) out.push_back(h.colour);
  std::sort(out.begin(), out.end());
  return out;
}

int EdgeColouredGraph::degree(NodeIndex v) const {
  check_node(v);
  return static_cast<int>(adjacency_[v].size());
}

int EdgeColouredGraph::max_degree() const {
  int d = 0;
  for (NodeIndex v = 0; v < node_count(); ++v) d = std::max(d, degree(v));
  return d;
}

bool EdgeColouredGraph::is_properly_coloured() const {
  for (const auto& halves : adjacency_) {
    std::vector<Colour> colours;
    for (const Half& h : halves) colours.push_back(h.colour);
    std::sort(colours.begin(), colours.end());
    if (std::adjacent_find(colours.begin(), colours.end()) != colours.end()) return false;
  }
  return true;
}

std::string EdgeColouredGraph::str() const {
  std::string out = "graph n=" + std::to_string(node_count()) + " k=" + std::to_string(k_) + "\n";
  for (const Edge& e : edges_) {
    out += "  " + std::to_string(e.u) + " -" + std::to_string(static_cast<int>(e.colour)) + "- " +
           std::to_string(e.v) + "\n";
  }
  return out;
}

}  // namespace dmm::graph
