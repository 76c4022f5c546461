// Finite, anonymous, properly edge-coloured graphs (the paper's problem
// instances and network topologies, §1.2).
//
// Node indices exist only as simulation handles: no algorithm in this
// library may branch on them (anonymity).  The initial knowledge of a node
// is exactly the multiset of colours on its incident edges, as in §2.3.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gk/word.hpp"

namespace dmm::graph {

using gk::Colour;
using NodeIndex = std::int32_t;

struct Edge {
  NodeIndex u = 0;
  NodeIndex v = 0;
  Colour colour = gk::kNoColour;
};

class EdgeColouredGraph {
 public:
  /// An empty graph on n nodes with palette [k].
  EdgeColouredGraph(int n, int k);

  /// Bulk construction: takes the whole edge list at once and validates it
  /// in O(m log m) by sorting the half-edge list, instead of add_edge's
  /// O(deg) linear scan per edge — which is O(d²) per node and makes
  /// hub-heavy (star / power-law) instances quadratic to build.  Throws
  /// exactly the same errors as the add_edge path would (bad node index,
  /// self-loop, colour out of range, colour reused at an endpoint,
  /// parallel edge), just not necessarily on the same offending edge.
  EdgeColouredGraph(int n, int k, std::vector<Edge> edges);

  int node_count() const noexcept { return static_cast<int>(adjacency_.size()); }
  int edge_count() const noexcept { return static_cast<int>(edges_.size()); }
  int k() const noexcept { return k_; }

  /// Adds the edge {u, v} with the given colour.  Throws if the colouring
  /// would stop being proper at either endpoint, if u == v, or if the edge
  /// already exists.
  void add_edge(NodeIndex u, NodeIndex v, Colour colour);

  /// Removes the edge {u, v} (given in either orientation; the colour is
  /// whatever the live edge carries).  Throws std::invalid_argument when no
  /// such edge exists.  The colouring stays proper by construction —
  /// removing an edge can only free colours.  Cost: O(deg(u) + deg(v) +
  /// deg(a) + deg(b)) ⊆ O(Δ), where {a, b} is the last edge of edges(),
  /// independent of m: each half-edge stores its edge's slot in edges(),
  /// so only the moved edge's two halves need re-pointing.  Both sides are
  /// swap-popped, so edges() order is NOT preserved across removals
  /// (callers indexing into edges() must re-read after a removal).
  void remove_edge(NodeIndex u, NodeIndex v);

  /// Half-edges inspected by remove_edge over this graph's lifetime (the
  /// deterministic cost count behind remove_edge's O(Δ) bound).
  std::uint64_t remove_edge_probes() const noexcept { return remove_edge_probes_; }

  /// Colour of the edge {u, v}, if present (either orientation).
  std::optional<Colour> edge_colour(NodeIndex u, NodeIndex v) const;

  /// Neighbour of v along colour c, if any.
  std::optional<NodeIndex> neighbour(NodeIndex v, Colour c) const;

  /// True iff {u, v} is already an edge (of any colour).
  bool has_edge(NodeIndex u, NodeIndex v) const;

  /// Sorted colours incident to v (the node's entire initial knowledge).
  std::vector<Colour> incident_colours(NodeIndex v) const;

  /// Calls f(colour, neighbour) for each edge at v, in row order (which
  /// edits permute), without allocating.
  template <class F>
  void for_each_incident(NodeIndex v, F&& f) const {
    check_node(v);
    for (const Half& h : adjacency_[static_cast<std::size_t>(v)]) f(h.colour, h.to);
  }

  int degree(NodeIndex v) const;
  int max_degree() const;

  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Checks that no node has two incident edges of the same colour.  Always
  /// true for graphs built through add_edge; exposed for generator tests.
  bool is_properly_coloured() const;

  std::string str() const;

 private:
  struct Half {
    NodeIndex to;
    Colour colour;
    std::int32_t edge;  // slot of this edge in edges_
  };
  static_assert(sizeof(Half) == 12, "Half is {to, colour, edge}: 12 bytes");

  void check_node(NodeIndex v) const;
  std::size_t find_half(NodeIndex at, NodeIndex to);

  int k_;
  std::vector<std::vector<Half>> adjacency_;
  std::vector<Edge> edges_;
  std::uint64_t remove_edge_probes_ = 0;
};

}  // namespace dmm::graph
