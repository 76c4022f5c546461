#include "verify/matching.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace dmm::verify {

std::string Violation::describe() const {
  const char* names[] = {"M1", "M2", "M3"};
  std::string out = names[static_cast<int>(kind)];
  out += " violation at node " + std::to_string(node);
  if (other >= 0) out += " (other node " + std::to_string(other) + ")";
  if (colour != gk::kNoColour) out += " colour " + std::to_string(static_cast<int>(colour));
  return out;
}

bool MatchingReport::has(Violation::Kind kind) const noexcept {
  return std::any_of(violations.begin(), violations.end(),
                     [kind](const Violation& v) { return v.kind == kind; });
}

std::string MatchingReport::describe() const {
  if (ok()) return "valid maximal matching";
  std::string out;
  for (const Violation& v : violations) out += v.describe() + "\n";
  return out;
}

MatchingReport check_outputs(const graph::EdgeColouredGraph& g,
                             const std::vector<Colour>& outputs) {
  MatchingReport report;
  const auto n = static_cast<std::size_t>(g.node_count());
  if (outputs.size() != n) {
    report.violations.push_back({Violation::Kind::M1, -1, -1, gk::kNoColour});
    return report;
  }
  // Edge pass: v's partner is the far end of the edge carrying v's output
  // colour — at most one edge per node, the colouring being proper.  The
  // two-sided-⊥ (M3) edges are collected on the way, in edge order.
  std::vector<graph::NodeIndex> partner(n, -1);
  std::vector<Violation> unmatched_edges;
  for (const graph::Edge& e : g.edges()) {
    const Colour at_u = outputs[static_cast<std::size_t>(e.u)];
    const Colour at_v = outputs[static_cast<std::size_t>(e.v)];
    if (at_u == e.colour) partner[static_cast<std::size_t>(e.u)] = e.v;
    if (at_v == e.colour) partner[static_cast<std::size_t>(e.v)] = e.u;
    if (at_u == local::kUnmatched && at_v == local::kUnmatched) {
      unmatched_edges.push_back({Violation::Kind::M3, e.u, e.v, e.colour});
    }
  }
  // Node pass: M1 (no edge of v's colour) and M2 (the partner disagrees)
  // in node order, then the M3 edges.
  for (std::size_t v = 0; v < n; ++v) {
    const Colour out = outputs[v];
    if (out == local::kUnmatched) continue;
    const graph::NodeIndex p = partner[v];
    const auto node = static_cast<graph::NodeIndex>(v);
    if (p < 0) {
      report.violations.push_back({Violation::Kind::M1, node, -1, out});
    } else if (outputs[static_cast<std::size_t>(p)] != out) {
      report.violations.push_back({Violation::Kind::M2, node, p, out});
    }
  }
  report.violations.insert(report.violations.end(), unmatched_edges.begin(),
                           unmatched_edges.end());
  return report;
}

MatchingReport check_node(const graph::EdgeColouredGraph& g,
                          const std::vector<Colour>& outputs, graph::NodeIndex v) {
  if (v < 0 || v >= g.node_count()) throw std::out_of_range("check_node: bad node index");
  MatchingReport report;
  if (static_cast<int>(outputs.size()) != g.node_count()) {
    report.violations.push_back({Violation::Kind::M1, -1, -1, gk::kNoColour});
    return report;
  }
  const Colour out = outputs[static_cast<std::size_t>(v)];
  if (out != local::kUnmatched) {
    const auto partner = g.neighbour(v, out);
    if (!partner) {
      report.violations.push_back({Violation::Kind::M1, v, -1, out});
    } else if (outputs[static_cast<std::size_t>(*partner)] != out) {
      report.violations.push_back({Violation::Kind::M2, v, *partner, out});
    }
  } else {
    g.for_each_incident(v, [&](Colour c, graph::NodeIndex w) {
      if (outputs[static_cast<std::size_t>(w)] == local::kUnmatched) {
        report.violations.push_back({Violation::Kind::M3, v, w, c});
      }
    });
    // Row order follows the edit history; report by ascending colour.
    std::sort(report.violations.begin(), report.violations.end(),
              [](const Violation& a, const Violation& b) { return a.colour < b.colour; });
  }
  return report;
}

std::vector<graph::Edge> matched_edges(const graph::EdgeColouredGraph& g,
                                       const std::vector<Colour>& outputs) {
  std::vector<graph::Edge> out;
  for (const graph::Edge& e : g.edges()) {
    if (outputs[static_cast<std::size_t>(e.u)] == e.colour &&
        outputs[static_cast<std::size_t>(e.v)] == e.colour) {
      out.push_back(e);
    }
  }
  return out;
}

namespace {

/// Marks the endpoints of `edges`; nullopt when two of them share one.
/// Throws std::out_of_range on an endpoint that is not a node of g.
std::optional<std::vector<char>> covered_nodes(const graph::EdgeColouredGraph& g,
                                               const std::vector<graph::Edge>& edges) {
  std::vector<char> used(static_cast<std::size_t>(g.node_count()), 0);
  for (const graph::Edge& e : edges) {
    if (e.u < 0 || e.u >= g.node_count() || e.v < 0 || e.v >= g.node_count()) {
      throw std::out_of_range("verify: edge endpoint is not a node of the graph");
    }
    if (used[static_cast<std::size_t>(e.u)] || used[static_cast<std::size_t>(e.v)]) {
      return std::nullopt;
    }
    used[static_cast<std::size_t>(e.u)] = used[static_cast<std::size_t>(e.v)] = 1;
  }
  return used;
}

}  // namespace

bool is_matching(const graph::EdgeColouredGraph& g, const std::vector<graph::Edge>& edges) {
  return covered_nodes(g, edges).has_value();
}

bool is_maximal_matching(const graph::EdgeColouredGraph& g,
                         const std::vector<graph::Edge>& edges) {
  const auto used = covered_nodes(g, edges);
  if (!used) return false;
  for (const graph::Edge& e : g.edges()) {
    if (!(*used)[static_cast<std::size_t>(e.u)] && !(*used)[static_cast<std::size_t>(e.v)]) {
      return false;
    }
  }
  return true;
}

}  // namespace dmm::verify
