// Output verification (§2.4): a local output assignment encodes a maximal
// matching iff
//   (M1) every output is an incident colour or ⊥,
//   (M2) if v says colour c, then v's c-neighbour exists and also says c,
//   (M3) if v says ⊥, no neighbour of v says ⊥ ... more precisely every
//        neighbour is matched (along some edge), so no edge of the graph
//        has two unmatched endpoints.
#pragma once

#include <string>
#include <vector>

#include "colsys/colour_system.hpp"
#include "graph/edge_coloured_graph.hpp"
#include "local/algorithm.hpp"

namespace dmm::verify {

using gk::Colour;

struct Violation {
  enum class Kind { M1, M2, M3 } kind;
  graph::NodeIndex node = -1;     // offending node
  graph::NodeIndex other = -1;    // partner / unmatched neighbour, if any
  Colour colour = gk::kNoColour;  // colour involved, if any
  std::string describe() const;
};

struct MatchingReport {
  std::vector<Violation> violations;
  bool ok() const noexcept { return violations.empty(); }
  bool has(Violation::Kind kind) const noexcept;
  std::string describe() const;
};

/// Checks (M1)-(M3) of `outputs` (one entry per node) against g.  Cost:
/// one sequential pass over g.edges() (each node's partner along its
/// output colour, plus the two-sided-⊥ edges) and one pass over `outputs`
/// — O(n + m), with no per-node adjacency lookup.  Violations come in a
/// fixed order: M1/M2 by ascending node, then M3 in edges() order.
MatchingReport check_outputs(const graph::EdgeColouredGraph& g,
                             const std::vector<Colour>& outputs);

/// Checks (M1)-(M3) restricted to node v: v's own output (M1/M2) plus
/// every incident edge's two-sided-⊥ condition (M3, reported from v's
/// side, by ascending colour).  O(deg(v)) with no allocation when clean,
/// independent of n and m.  Clean at every node of N(v) ∪ {v} implies
/// check_outputs clean at v; DynamicMatcher::check() runs it over the
/// region a churn batch can have broken.  Throws std::out_of_range if v
/// is not a node of g.
MatchingReport check_node(const graph::EdgeColouredGraph& g,
                          const std::vector<Colour>& outputs, graph::NodeIndex v);

/// The matched edges induced by a valid output assignment.
std::vector<graph::Edge> matched_edges(const graph::EdgeColouredGraph& g,
                                       const std::vector<Colour>& outputs);

/// True iff `edges` is a matching of g (pairwise disjoint endpoints).
/// Throws std::out_of_range on an endpoint outside g, as does
/// is_maximal_matching.
bool is_matching(const graph::EdgeColouredGraph& g, const std::vector<graph::Edge>& edges);

/// True iff `edges` is a maximal matching of g.
bool is_maximal_matching(const graph::EdgeColouredGraph& g,
                         const std::vector<graph::Edge>& edges);

}  // namespace dmm::verify
