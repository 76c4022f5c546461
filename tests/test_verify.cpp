// The (M1)(M2)(M3) output checker (§2.4): each property caught separately.
#include "verify/matching.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "algo/greedy.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dmm::verify {
namespace {

graph::EdgeColouredGraph triangle_ish() {
  // Path 0 -1- 1 -2- 2 plus a pendant 2 -3- 3.
  return graph::path_graph(3, {1, 2, 3});
}

TEST(Verify, AcceptsValidMatching) {
  const auto g = triangle_ish();
  // Edge 1 matched, edge 3 matched: maximal.
  const std::vector<Colour> outputs{1, 1, 3, 3};
  EXPECT_TRUE(check_outputs(g, outputs).ok());
}

TEST(Verify, M1NonIncidentColour) {
  const auto g = triangle_ish();
  const std::vector<Colour> outputs{3, 1, 3, 3};  // node 0 has no colour-3 edge
  const MatchingReport r = check_outputs(g, outputs);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Violation::Kind::M1));
}

TEST(Verify, M2PartnerDisagrees) {
  const auto g = triangle_ish();
  const std::vector<Colour> outputs{1, 2, 2, local::kUnmatched};
  // Node 0 says 1 but node 1 says 2: M2 at node 0; also M3 on edge 3? node
  // 2 matched, node 3 unmatched -> fine.
  const MatchingReport r = check_outputs(g, outputs);
  EXPECT_TRUE(r.has(Violation::Kind::M2));
}

TEST(Verify, M3UnmatchedNeighbours) {
  const auto g = triangle_ish();
  const std::vector<Colour> outputs{1, 1, local::kUnmatched, local::kUnmatched};
  const MatchingReport r = check_outputs(g, outputs);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(Violation::Kind::M3));
  EXPECT_FALSE(r.has(Violation::Kind::M1));
  EXPECT_FALSE(r.has(Violation::Kind::M2));
}

TEST(Verify, AllUnmatchedOnEdgelessGraphIsFine) {
  const graph::EdgeColouredGraph g(3, 2);
  EXPECT_TRUE(check_outputs(g, {local::kUnmatched, local::kUnmatched, local::kUnmatched}).ok());
}

TEST(Verify, SizeMismatchRejected) {
  const auto g = triangle_ish();
  EXPECT_FALSE(check_outputs(g, {1, 1}).ok());
}

TEST(Verify, MatchedEdgesExtraction) {
  const auto g = triangle_ish();
  const std::vector<Colour> outputs{1, 1, 3, 3};
  const auto edges = matched_edges(g, outputs);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(is_matching(g, edges));
  EXPECT_TRUE(is_maximal_matching(g, edges));
}

TEST(Verify, IsMatchingRejectsSharedEndpoints) {
  const auto g = triangle_ish();
  std::vector<graph::Edge> both{g.edges()[0], g.edges()[1]};  // share node 1
  EXPECT_FALSE(is_matching(g, both));
  EXPECT_FALSE(is_maximal_matching(g, both));
}

TEST(Verify, IsMaximalMatchingRejectsExtendable) {
  const auto g = triangle_ish();
  // Only the middle edge (colour 2): edge 1... no wait, matching {edge 2}
  // blocks edges 1 and 3?  Edge 2 covers nodes 1 and 2, so edges 1 (0-1)
  // and 3 (2-3) are blocked: maximal.  Use the empty matching instead.
  EXPECT_FALSE(is_maximal_matching(g, {}));
  EXPECT_TRUE(is_maximal_matching(g, {g.edges()[1]}));
}

TEST(Verify, ViolationDescribeMentionsKindAndNode) {
  const auto g = triangle_ish();
  const MatchingReport r = check_outputs(g, {3, 1, 3, 3});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.describe().find("M1"), std::string::npos);
}

TEST(Verify, CheckNodeRejectsBadNodeIndex) {
  const auto g = triangle_ish();
  const std::vector<Colour> outputs{1, 1, 3, 3};
  EXPECT_THROW(check_node(g, outputs, -1), std::out_of_range);
  EXPECT_THROW(check_node(g, outputs, g.node_count()), std::out_of_range);
  EXPECT_TRUE(check_node(g, outputs, g.node_count() - 1).ok());
}

TEST(Verify, MatchingPredicatesRejectBadEndpoints) {
  const auto g = triangle_ish();
  const std::vector<graph::Edge> past_end{{0, g.node_count(), 1}};
  const std::vector<graph::Edge> negative{{-1, 1, 1}};
  EXPECT_THROW(is_matching(g, past_end), std::out_of_range);
  EXPECT_THROW(is_matching(g, negative), std::out_of_range);
  EXPECT_THROW(is_maximal_matching(g, past_end), std::out_of_range);
  EXPECT_THROW(is_maximal_matching(g, negative), std::out_of_range);
}

// ---- Differential test: check_outputs against the per-node reference ----

// The per-node form of the check, kept as the oracle: every matched node
// looks its partner up in its own adjacency row (g.neighbour), then one
// pass over the edges finds the two-sided-⊥ ones.
MatchingReport reference_check(const graph::EdgeColouredGraph& g,
                               const std::vector<Colour>& outputs) {
  MatchingReport report;
  if (static_cast<int>(outputs.size()) != g.node_count()) {
    report.violations.push_back({Violation::Kind::M1, -1, -1, gk::kNoColour});
    return report;
  }
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    const Colour out = outputs[static_cast<std::size_t>(v)];
    if (out == local::kUnmatched) continue;
    const auto partner = g.neighbour(v, out);
    if (!partner) {
      report.violations.push_back({Violation::Kind::M1, v, -1, out});
      continue;
    }
    if (outputs[static_cast<std::size_t>(*partner)] != out) {
      report.violations.push_back({Violation::Kind::M2, v, *partner, out});
    }
  }
  for (const graph::Edge& e : g.edges()) {
    if (outputs[static_cast<std::size_t>(e.u)] == local::kUnmatched &&
        outputs[static_cast<std::size_t>(e.v)] == local::kUnmatched) {
      report.violations.push_back({Violation::Kind::M3, e.u, e.v, e.colour});
    }
  }
  return report;
}

// Field by field and in order, reporting the first difference only;
// returns the number of violations compared.
std::size_t expect_same_report(const graph::EdgeColouredGraph& g,
                               const std::vector<Colour>& outputs, const std::string& label) {
  const MatchingReport got = check_outputs(g, outputs);
  const MatchingReport want = reference_check(g, outputs);
  EXPECT_EQ(got.violations.size(), want.violations.size()) << label;
  const std::size_t common = std::min(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < common; ++i) {
    const Violation& a = got.violations[i];
    const Violation& b = want.violations[i];
    if (a.kind != b.kind || a.node != b.node || a.other != b.other || a.colour != b.colour) {
      ADD_FAILURE() << label << " violation " << i << ": got " << a.describe() << ", want "
                    << b.describe();
      break;
    }
  }
  return common;
}

// A colour incident to v, uniformly, or ⊥ when v is isolated.
Colour incident_colour(const graph::EdgeColouredGraph& g, graph::NodeIndex v, Rng& rng) {
  const std::vector<Colour> colours = g.incident_colours(v);
  return colours.empty() ? local::kUnmatched : colours[rng.index(colours.size())];
}

// Seeded damage to an output vector, `flips` times:
//   ⊥ flip          — a matched node says ⊥, a ⊥ node says an incident colour;
//   foreign colour  — a colour with no edge at the node, often beyond k;
//   disagreement    — the node says c, its c-neighbour says something else.
std::vector<Colour> corrupt(const graph::EdgeColouredGraph& g, std::vector<Colour> outputs,
                            int flips, Rng& rng) {
  for (int f = 0; f < flips; ++f) {
    const auto v = static_cast<graph::NodeIndex>(rng.index(outputs.size()));
    Colour& out = outputs[static_cast<std::size_t>(v)];
    switch (rng.uniform(0, 2)) {
      case 0:
        out = out == local::kUnmatched ? incident_colour(g, v, rng) : local::kUnmatched;
        break;
      case 1:
        for (int tries = 0; tries < 16; ++tries) {
          const auto c = static_cast<Colour>(rng.uniform(1, 255));
          if (!g.neighbour(v, c)) {
            out = c;
            break;
          }
        }
        break;
      default: {
        out = incident_colour(g, v, rng);
        if (out == local::kUnmatched) break;
        const graph::NodeIndex w = *g.neighbour(v, out);
        Colour other = incident_colour(g, w, rng);
        if (other == out) other = local::kUnmatched;
        outputs[static_cast<std::size_t>(w)] = other;
        break;
      }
    }
  }
  return outputs;
}

// Removes about a third of the edges, picked uniformly from edges() —
// remove_edge swap-pops, so edges() order no longer follows insertion.
void churn(graph::EdgeColouredGraph& g, Rng& rng) {
  for (int r = g.edge_count() / 3; r > 0; --r) {
    const graph::Edge e = g.edges()[rng.index(g.edges().size())];
    g.remove_edge(e.u, e.v);
  }
}

TEST(VerifyDifferential, OnePassCheckMatchesPerNodeReference) {
  std::size_t compared = 0;
  bool seen[3] = {false, false, false};
  const auto run = [&](graph::EdgeColouredGraph g, const std::string& family,
                       std::uint64_t seed) {
    Rng rng(seed);
    for (const bool churned : {false, true}) {
      // Greedy outputs of the graph before churn: valid on the intact
      // graph, broken (M1 at removed matched edges, M3) after it.
      const std::vector<Colour> before = algo::greedy_outputs(g);
      if (churned) churn(g, rng);
      const std::vector<Colour> valid = algo::greedy_outputs(g);
      const std::vector<Colour> none(static_cast<std::size_t>(g.node_count()),
                                     local::kUnmatched);
      for (const std::vector<Colour>* base : {&valid, &before, &none}) {
        for (const int flips : {0, 1, 4, 64}) {
          const std::vector<Colour> outputs = corrupt(g, *base, flips, rng);
          const std::string label = family + " seed " + std::to_string(seed) +
                                    (churned ? " churned" : "") + " flips " +
                                    std::to_string(flips);
          compared += expect_same_report(g, outputs, label);
          for (const Violation& v : check_outputs(g, outputs).violations) {
            seen[static_cast<int>(v.kind)] = true;
          }
        }
      }
    }
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng gen(seed);
    run(graph::random_coloured_graph(300, 8, 0.7, gen), "random", seed);
    run(graph::hub_cluster_graph(3, 128, 128), "hub_cluster", seed);
    run(graph::star_graph(255), "star", seed);
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]) << "every violation kind must be exercised";
}

TEST(VerifyDifferential, EdgelessAndSizeMismatchMatchReference) {
  Rng rng(5);
  const graph::EdgeColouredGraph edgeless(6, 4);
  std::vector<Colour> outputs(6, local::kUnmatched);
  expect_same_report(edgeless, outputs, "edgeless all ⊥");
  for (Colour& c : outputs) c = static_cast<Colour>(rng.uniform(1, 255));
  EXPECT_EQ(expect_same_report(edgeless, outputs, "edgeless, every node says a colour"), 6u);
  const auto g = triangle_ish();
  for (const std::size_t size : {0u, 3u, 5u}) {
    const std::vector<Colour> wrong(size, local::kUnmatched);
    EXPECT_EQ(expect_same_report(g, wrong, "size " + std::to_string(size)), 1u);
  }
}

}  // namespace
}  // namespace dmm::verify
