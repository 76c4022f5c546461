// Edge-coloured graph substrate: proper-colouring enforcement, adjacency.
#include "graph/edge_coloured_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dmm::graph {
namespace {

TEST(EdgeColouredGraph, BasicAdjacency) {
  EdgeColouredGraph g(3, 4);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_EQ(*g.neighbour(0, 2), 1);
  EXPECT_EQ(*g.neighbour(1, 2), 0);
  EXPECT_EQ(*g.neighbour(1, 3), 2);
  EXPECT_FALSE(g.neighbour(0, 3).has_value());
  EXPECT_EQ(g.incident_colours(1), (std::vector<gk::Colour>{2, 3}));
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(g.is_properly_coloured());
}

TEST(EdgeColouredGraph, RejectsImproperColouring) {
  EdgeColouredGraph g(3, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(g.add_edge(0, 2, 1), std::logic_error);  // colour 1 reused at 0
  EXPECT_THROW(g.add_edge(1, 2, 1), std::logic_error);  // colour 1 reused at 1
  EXPECT_NO_THROW(g.add_edge(1, 2, 2));
}

TEST(EdgeColouredGraph, RejectsSelfLoopsAndParallelEdges) {
  EdgeColouredGraph g(2, 3);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(g.add_edge(0, 0, 2), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 2), std::logic_error);  // parallel
}

TEST(EdgeColouredGraph, RejectsBadColoursAndNodes) {
  EdgeColouredGraph g(2, 3);
  EXPECT_THROW(g.add_edge(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 4), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5, 1), std::out_of_range);
  EXPECT_THROW(g.degree(-1), std::out_of_range);
}

TEST(EdgeColouredGraph, RejectsPalettesBeyondEightBits) {
  EXPECT_NO_THROW(graph::EdgeColouredGraph(2, 255));
  EXPECT_THROW(graph::EdgeColouredGraph(2, 256), std::invalid_argument);
  EXPECT_THROW(graph::EdgeColouredGraph(2, 256, {}), std::invalid_argument);
}

TEST(EdgeColouredGraph, ProperColouringBoundsDegreeByK) {
  EdgeColouredGraph g(10, 3);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 2);
  g.add_edge(0, 3, 3);
  EXPECT_EQ(g.degree(0), 3);
  // A fourth edge at node 0 is impossible: all k colours used.
  for (gk::Colour c = 1; c <= 3; ++c) {
    EXPECT_THROW(g.add_edge(0, 4, c), std::logic_error);
  }
}

TEST(EdgeColouredGraph, EmptyGraph) {
  EdgeColouredGraph g(0, 1);
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_TRUE(g.is_properly_coloured());
}

TEST(EdgeColouredGraph, BulkConstructorMatchesAddEdge) {
  const std::vector<Edge> edges = {{0, 1, 2}, {1, 2, 3}, {0, 3, 1}, {2, 3, 2}};
  const EdgeColouredGraph bulk(4, 3, edges);
  EdgeColouredGraph incremental(4, 3);
  for (const Edge& e : edges) incremental.add_edge(e.u, e.v, e.colour);
  EXPECT_EQ(bulk.node_count(), incremental.node_count());
  EXPECT_EQ(bulk.edge_count(), incremental.edge_count());
  EXPECT_TRUE(bulk.is_properly_coloured());
  for (NodeIndex v = 0; v < 4; ++v) {
    EXPECT_EQ(bulk.degree(v), incremental.degree(v)) << v;
    EXPECT_EQ(bulk.incident_colours(v), incremental.incident_colours(v)) << v;
    for (gk::Colour c = 1; c <= 3; ++c) {
      EXPECT_EQ(bulk.neighbour(v, c), incremental.neighbour(v, c)) << v;
    }
  }
  // The retained edge list is the input, verbatim and in order.
  ASSERT_EQ(bulk.edges().size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(bulk.edges()[i].u, edges[i].u);
    EXPECT_EQ(bulk.edges()[i].v, edges[i].v);
    EXPECT_EQ(bulk.edges()[i].colour, edges[i].colour);
  }
}

TEST(EdgeColouredGraph, BulkConstructorRejectsEverythingAddEdgeDoes) {
  using E = std::vector<Edge>;
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 0, 1}}), std::invalid_argument);  // self-loop
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 0}}), std::invalid_argument);  // colour 0
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 3}}), std::invalid_argument);  // colour > k
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 5, 1}}), std::out_of_range);      // bad node
  // Colour reused at a shared endpoint.
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {0, 2, 1}}), std::logic_error);
  // Parallel edge, same colour and different colour (the different-colour
  // pair is invisible to the (node, colour) sort — the second pass exists
  // for exactly this case).
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {1, 0, 1}}), std::logic_error);
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {1, 0, 2}}), std::logic_error);
  EXPECT_NO_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {1, 2, 2}}));
  EXPECT_NO_THROW(EdgeColouredGraph(3, 2, E{}));
}

TEST(EdgeColouredGraph, RemoveEdgeDropsBothSides) {
  EdgeColouredGraph g(4, 3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 1);

  g.remove_edge(2, 1);  // either orientation works
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.neighbour(1, 2).has_value());
  EXPECT_FALSE(g.neighbour(2, 2).has_value());
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(2), 1);
  EXPECT_TRUE(g.is_properly_coloured());
  // The surviving edges are intact (edges() order is NOT preserved — the
  // removal swap-pops — so check membership, not position).
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));

  // The freed colour slot is reusable: re-add {1,2} on a different colour.
  g.add_edge(1, 2, 3);
  EXPECT_EQ(*g.edge_colour(1, 2), 3);
  EXPECT_TRUE(g.is_properly_coloured());
}

TEST(EdgeColouredGraph, RemoveEdgeRejectsNonEdges) {
  EdgeColouredGraph g(3, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(g.remove_edge(0, 2), std::invalid_argument);  // never existed
  EXPECT_THROW(g.remove_edge(0, 3), std::out_of_range);      // node range
  g.remove_edge(0, 1);
  EXPECT_THROW(g.remove_edge(0, 1), std::invalid_argument);  // already gone
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(EdgeColouredGraph, EdgeColourReadsEitherOrientation) {
  EdgeColouredGraph g(3, 2);
  g.add_edge(0, 1, 2);
  EXPECT_EQ(*g.edge_colour(0, 1), 2);
  EXPECT_EQ(*g.edge_colour(1, 0), 2);
  EXPECT_FALSE(g.edge_colour(0, 2).has_value());
  EXPECT_THROW(g.edge_colour(0, 9), std::out_of_range);
}

// c disjoint copies of a relabelled hypercube(3), copy j on nodes
// [8j, 8j + 8); edges() lists copy 0 first, in the gadget's edge order.
EdgeColouredGraph gadget_copies(int copies) {
  const EdgeColouredGraph cube = hypercube(3);
  const NodeIndex relabel[8] = {5, 2, 7, 0, 3, 6, 1, 4};
  std::vector<Edge> edges;
  for (NodeIndex j = 0; j < copies; ++j) {
    for (const Edge& e : cube.edges()) {
      edges.push_back({8 * j + relabel[e.u], 8 * j + relabel[e.v], e.colour});
    }
  }
  return EdgeColouredGraph(8 * copies, 3, edges);
}

// Half-edges remove_edge inspects for each delete of copy 0's edges, taken
// last-first and in alternating orientation.
std::vector<std::uint64_t> copy0_delete_probes(int copies) {
  EdgeColouredGraph g = gadget_copies(copies);
  const std::vector<Edge> copy0(g.edges().begin(), g.edges().begin() + 12);
  std::vector<std::uint64_t> probes;
  for (std::size_t i = copy0.size(); i-- > 0;) {
    const std::uint64_t before = g.remove_edge_probes();
    if (i % 2 == 0) {
      g.remove_edge(copy0[i].u, copy0[i].v);
    } else {
      g.remove_edge(copy0[i].v, copy0[i].u);
    }
    probes.push_back(g.remove_edge_probes() - before);
  }
  EXPECT_EQ(g.edge_count(), 12 * (copies - 1));
  return probes;
}

// remove_edge costs O(Δ), not O(m): the same deletes inspect exactly the
// same half-edges whether the graph has 120 or 12 000 edges.
TEST(EdgeColouredGraph, RemoveEdgeProbesAreIndependentOfEdgeCount) {
  const std::vector<std::uint64_t> small = copy0_delete_probes(10);
  const std::vector<std::uint64_t> large = copy0_delete_probes(1000);
  EXPECT_EQ(small, large);
  const int max_degree = gadget_copies(1).max_degree();
  for (const std::uint64_t p : large) {
    EXPECT_GT(p, 0u);
    EXPECT_LE(p, static_cast<std::uint64_t>(4 * max_degree));
  }
}

// The reference semantics of remove_edge on edges(): swap-pop the one edge
// joining {u, v}, found by a linear scan.
void model_remove(std::vector<Edge>& model, NodeIndex u, NodeIndex v) {
  for (std::size_t i = 0; i < model.size(); ++i) {
    if ((model[i].u == u && model[i].v == v) || (model[i].u == v && model[i].v == u)) {
      model[i] = model.back();
      model.pop_back();
      return;
    }
  }
}

::testing::AssertionResult matches_model(const EdgeColouredGraph& g,
                                         const std::vector<Edge>& model) {
  const std::vector<Edge>& edges = g.edges();
  if (edges.size() != model.size()) {
    return ::testing::AssertionFailure()
           << "edge_count " << edges.size() << " vs model " << model.size();
  }
  int degrees = 0;
  for (NodeIndex v = 0; v < g.node_count(); ++v) degrees += g.degree(v);
  if (degrees != 2 * g.edge_count()) {
    return ::testing::AssertionFailure() << "degree sum " << degrees;
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u != model[i].u || e.v != model[i].v || e.colour != model[i].colour) {
      return ::testing::AssertionFailure() << "edges()[" << i << "] differs from the model";
    }
    if (g.edge_colour(e.u, e.v) != e.colour || g.edge_colour(e.v, e.u) != e.colour) {
      return ::testing::AssertionFailure() << "edge_colour disagrees with edges()[" << i << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

// Seeded mixed add_edge/remove_edge ops, checking edges() against the model
// after every op.  Returns the number of successful adds and removes.
std::pair<int, int> churn_against_model(EdgeColouredGraph g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> model = g.edges();
  const auto n = static_cast<std::size_t>(g.node_count());
  int adds = 0;
  int removes = 0;
  for (int op = 0; op < 10000; ++op) {
    if (rng.chance(0.5)) {
      const auto u = static_cast<NodeIndex>(rng.index(n));
      const auto v = static_cast<NodeIndex>(rng.index(n));
      const auto c = static_cast<Colour>(1 + rng.index(static_cast<std::size_t>(g.k())));
      try {
        g.add_edge(u, v, c);
        model.push_back({u, v, c});
        ++adds;
      } catch (const std::logic_error&) {
        // Improper, parallel or a self-loop: the graph must be unchanged.
      }
    } else if (g.edge_count() > 0 && rng.chance(0.95)) {
      const Edge e = g.edges()[rng.index(static_cast<std::size_t>(g.edge_count()))];
      if (rng.chance(0.5)) {
        g.remove_edge(e.u, e.v);
      } else {
        g.remove_edge(e.v, e.u);
      }
      model_remove(model, e.u, e.v);
      ++removes;
    } else {
      const auto u = static_cast<NodeIndex>(rng.index(n));
      const auto v = static_cast<NodeIndex>(rng.index(n));
      if (!g.has_edge(u, v)) {
        EXPECT_THROW(g.remove_edge(u, v), std::invalid_argument);
      }
    }
    const auto verdict = matches_model(g, model);
    if (!verdict) {
      ADD_FAILURE() << "after op " << op << ": " << verdict.message();
      break;
    }
  }
  return {adds, removes};
}

TEST(EdgeColouredGraph, EdgeIndexMatchesLinearScanModelFromAddEdge) {
  Rng rng(11);
  const auto [adds, removes] = churn_against_model(random_coloured_graph(32, 5, 0.6, rng), 12);
  EXPECT_GT(adds, 1000);
  EXPECT_GT(removes, 1000);
}

TEST(EdgeColouredGraph, EdgeIndexMatchesLinearScanModelFromBulkConstructor) {
  Rng rng(21);
  std::vector<Edge> edges = random_coloured_graph(32, 5, 0.6, rng).edges();
  std::shuffle(edges.begin(), edges.end(), rng.engine());
  const auto [adds, removes] = churn_against_model(EdgeColouredGraph(32, 5, edges), 22);
  EXPECT_GT(adds, 1000);
  EXPECT_GT(removes, 1000);
}

}  // namespace
}  // namespace dmm::graph
