// Engine equivalence: run_flat is only allowed to exist because it agrees
// with the reference oracle run_sync on every RunResult field, for every
// program — the native greedy, the flooding
// realisation of every LocalAlgorithm in src/algo/, and a zoo of
// misbehaving programs probing the engine edge cases.
#include "local/flat_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/greedy.hpp"
#include "algo/runner.hpp"
#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "local/flooding.hpp"
#include "local/program_pool.hpp"
#include "local/view_engine.hpp"
#include "util/rng.hpp"

namespace dmm::local {
namespace {

void expect_engines_agree(const graph::EdgeColouredGraph& g,
                          const ProgramSource& source, int max_rounds,
                          const std::string& context) {
  const RunResult oracle = run_sync(g, source, max_rounds);
  expect_same_result(oracle, run_flat(g, source, max_rounds), context + " [serial]");
  FlatEngineOptions threaded;
  threaded.threads = 3;
  expect_same_result(oracle, run_flat(g, source, max_rounds, threaded),
                     context + " [threads=3]");
}

TEST(FlatEngine, FuzzRandomGraphsEveryAlgorithm) {
  // ~200 random instances; the native greedy runs on all of them, the
  // flooding realisations (exponential views) on the small-k subset.
  int instances = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const int n = 2 + static_cast<int>(seed % 59);
    const int k = 1 + static_cast<int>(seed % 8);
    const double density = 0.2 + 0.1 * static_cast<double>(seed % 9);
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, density, rng);
    ++instances;
    const std::string context = "random n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                " seed=" + std::to_string(seed);
    if (k <= 4 && n <= 32) {
      for (const algo::EngineRealisation& r : algo::engine_realisations(k)) {
        expect_engines_agree(g, r.factory, r.round_bound, context + " " + r.name);
      }
    } else {
      expect_engines_agree(g, algo::greedy_program_factory(), k + 1, context + " greedy");
    }
  }
  EXPECT_EQ(instances, 200);
}

TEST(FlatEngine, WorstCaseChainsEveryAlgorithm) {
  // The adversarial instances of test_worst_case.cpp.  Chains have degree
  // <= 2, so views stay linear and every flooding realisation is cheap.
  for (int k = 2; k <= 8; ++k) {
    const graph::WorstCase wc = graph::worst_case_chain(k);
    for (const graph::EdgeColouredGraph* g : {&wc.long_path, &wc.short_path}) {
      for (const algo::EngineRealisation& r :
           algo::engine_realisations(k, /*flood_radius_cap=*/k)) {
        expect_engines_agree(*g, r.factory, r.round_bound,
                             "chain k=" + std::to_string(k) + " " + r.name);
      }
    }
  }
}

/// Checks the row contract from inside a program: init's row strictly
/// ascends, and the colour a node sends on each port arrives on the port of
/// the same colour at the other end.  Throws on a violation, so an engine
/// that leaves a row unsorted, or sorts colours without their peers, fails
/// loudly.
class RowProbe final : public NodeProgram {
 public:
  bool init(const Colour* incident, int degree) override {
    for (int i = 1; i < degree; ++i) {
      if (incident[i - 1] >= incident[i]) {
        throw std::logic_error("RowProbe: init row does not strictly ascend");
      }
    }
    return false;
  }
  void send(int, Outbox& out) override {
    for (int port = 0; port < out.ports(); ++port) {
      const char colour = static_cast<char>(out.colour(port));
      out.set(port, std::string_view(&colour, 1));
    }
  }
  bool receive(int, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) {
      const std::string_view m = in.at(port);
      if (m.size() != 1 || static_cast<Colour>(m[0]) != in.colour(port)) {
        throw std::logic_error("RowProbe: a port is paired with the wrong edge");
      }
    }
    return true;
  }
  Colour output() const override { return kUnmatched; }
};

bool has_unsorted_row(const graph::EdgeColouredGraph& g) {
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    int last = 0;
    bool sorted = true;
    g.for_each_incident(v, [&](Colour c, graph::NodeIndex) {
      sorted = sorted && c > last;
      last = c;
    });
    if (!sorted) return true;
  }
  return false;
}

TEST(FlatEngine, UnsortedRowsAgree) {
  // random_coloured_graph's rows ascend, so the fuzz above never needs the
  // engines' per-row sort.  Each graph here has the same edges in rows out
  // of colour order: bulk-built from a shuffled and from a colour-descending
  // edge list, built by add_edge in descending colour order, and edited by
  // remove_edge/add_edge (a removal swap-pops the row, a re-add appends).
  struct Base {
    int n, k;
    double density;
    bool every_algorithm;  // flooding views are exponential: small k only
  };
  for (const Base base : {Base{30, 4, 0.8, true}, Base{400, 8, 0.7, false}}) {
    Rng rng(static_cast<std::uint64_t>(base.n * 10 + base.k));
    const graph::EdgeColouredGraph sorted =
        graph::random_coloured_graph(base.n, base.k, base.density, rng);
    std::vector<graph::Edge> shuffled = sorted.edges();
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.index(i)]);
    }
    std::vector<graph::Edge> descending = sorted.edges();
    std::stable_sort(descending.begin(), descending.end(),
                     [](const graph::Edge& a, const graph::Edge& b) { return a.colour > b.colour; });
    graph::EdgeColouredGraph added(base.n, base.k);
    for (const graph::Edge& e : descending) added.add_edge(e.u, e.v, e.colour);
    graph::EdgeColouredGraph edited = sorted;
    std::vector<graph::Edge> removed;
    for (std::size_t i = 0; i < sorted.edges().size(); i += 3) removed.push_back(sorted.edges()[i]);
    for (const graph::Edge& e : removed) edited.remove_edge(e.u, e.v);
    for (auto e = removed.rbegin(); e != removed.rend(); ++e) edited.add_edge(e->u, e->v, e->colour);

    const std::vector<std::pair<std::string, graph::EdgeColouredGraph>> cases = {
        {"shuffled bulk", graph::EdgeColouredGraph(base.n, base.k, shuffled)},
        {"descending bulk", graph::EdgeColouredGraph(base.n, base.k, descending)},
        {"descending add_edge", added},
        {"remove/add edits", edited},
    };
    for (const auto& [name, g] : cases) {
      const std::string context = name + " n=" + std::to_string(base.n);
      ASSERT_TRUE(has_unsorted_row(g)) << context;
      EXPECT_NO_THROW(expect_engines_agree(g, pooled<RowProbe>(), 2, context + " probe"));
      expect_engines_agree(g, algo::greedy_program_factory(), base.k + 1, context + " greedy");
      EXPECT_EQ(run_flat(g, algo::greedy_program_factory(), base.k + 1).outputs,
                run_flat(sorted, algo::greedy_program_factory(), base.k + 1).outputs)
          << context;
      if (!base.every_algorithm) continue;
      for (const algo::EngineRealisation& r : algo::engine_realisations(base.k)) {
        expect_engines_agree(g, r.factory, r.round_bound, context + " " + r.name);
      }
    }
  }
}

TEST(FlatEngine, FloodingMatchesViewEngine) {
  // The flooding realisation is pinned to run_views as well: three
  // independent implementations of §2.3 give the same outputs.
  Rng rng(424242);
  const int k = 4;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(24, k, 0.7, rng);
  for (const algo::EngineRealisation& r : algo::engine_realisations(k)) {
    if (r.name.rfind("flood:", 0) != 0) continue;
    SCOPED_TRACE(r.name);
    expect_same_result(run_sync(g, r.factory, r.round_bound),
                       run_flat(g, r.factory, r.round_bound), r.name);
  }
  // Direct run_views pin for the canonical case: flooded greedy.
  const algo::GreedyLocal greedy(k);
  const std::vector<Colour> views = run_views(g, greedy);
  const RunResult flooded = run_flat(
      g, flooding_program_factory(std::make_shared<algo::GreedyLocal>(k), k), k + 1);
  EXPECT_EQ(views, flooded.outputs);
  const RunResult native = run_flat(g, algo::greedy_program_factory(), k + 1);
  EXPECT_EQ(views, native.outputs);
}

// --- misbehaving-program zoo: engine edge cases -------------------------

/// Halts immediately with output = smallest incident colour (or ⊥).
class HaltAtInit final : public NodeProgram {
 public:
  bool init(const Colour* incident, int degree) override {
    out_ = degree == 0 ? kUnmatched : incident[0];
    return true;
  }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return out_; }

 private:
  Colour out_ = kUnmatched;
};

/// Counts down `rounds` rounds, then halts with ⊥.
class HaltAfter final : public NodeProgram {
 public:
  explicit HaltAfter(int rounds) : remaining_(rounds) {}
  bool init(const Colour*, int) override { return remaining_ == 0; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return --remaining_ == 0; }
  Colour output() const override { return kUnmatched; }

 private:
  int remaining_;
};

/// Sends a payload that grows round over round on every port, crossing
/// the kFlatInlineBytes boundary: later rounds travel through the spill
/// arenas.
class SpillGrower final : public NodeProgram {
 public:
  bool init(const Colour*, int) override { return false; }
  void send(int round, Outbox& out) override {
    const Message payload(static_cast<std::size_t>(round) * 9, 'x');
    for (int port = 0; port < out.ports(); ++port) out.set(port, payload);
  }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) seen_ += in.at(port).size();
    return round >= 3;
  }
  Colour output() const override { return static_cast<Colour>(seen_ % 5); }

 private:
  std::size_t seen_ = 0;
};

/// Sends only on port 0 (its smallest incident colour); other ports stay
/// silent, so receivers see the engine-synthesised empty message.
class PartialSender final : public NodeProgram {
 public:
  bool init(const Colour*, int degree) override { return degree == 0; }
  void send(int, Outbox& out) override { out.set(0, "only"); }
  bool receive(int round, const Inbox& in) override {
    heard_ = 0;
    for (int port = 0; port < in.ports(); ++port) heard_ += in.at(port).empty() ? 0 : 1;
    return round >= 2;
  }
  Colour output() const override { return static_cast<Colour>(heard_); }

 private:
  int heard_ = 0;
};

/// A sleeper is awake in rounds 1 and kWake only — past the 255-round tag
/// wrap and past the flat engine's wake ring — sending "s" then "w" on
/// every port and folding what it hears; it halts in round kWake.  A
/// listener reads every port every round until kWake + 5.  Both fold what
/// they hear, and when, into their output, so a stale round-1 slot aliasing
/// round 256's stamp would change it.
class WrapSleeper final : public NodeProgram {
 public:
  static constexpr int kWake = 300;
  explicit WrapSleeper(bool listener) : listener_(listener) {}
  bool init(const Colour*, int) override { return false; }
  void send(int round, Outbox& out) override {
    if (!listener_ && awake(round)) out.broadcast(round == 1 ? "s" : "w");
  }
  bool receive(int round, const Inbox& in) override {
    if (!awake(round)) return false;
    for (int port = 0; port < in.ports(); ++port) {
      for (char ch : in.at(port)) sum_ = sum_ * 31 + static_cast<unsigned char>(ch) + round;
    }
    return round >= (listener_ ? kWake + 5 : kWake);
  }
  int wake_round(int round) const override {
    return listener_ || round == 0 ? round + 1 : kWake;
  }
  Colour output() const override { return static_cast<Colour>(sum_ % 251); }

 private:
  bool awake(int round) const { return listener_ || round == 1 || round == kWake; }

  bool listener_;
  std::size_t sum_ = 0;
};

TEST(FlatEngine, ProgramZooAgrees) {
  Rng rng(7);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(40, 6, 0.8, rng);
  expect_engines_agree(g, pooled<HaltAtInit>(), 10, "halt-at-init");
  const ProgramSource staggered([](std::size_t count, ProgramPool& pool) {
    for (std::size_t v = 0; v < count; ++v) pool.emplace<HaltAfter>(static_cast<int>(v % 5));
  });
  expect_engines_agree(g, staggered, 10, "staggered-halts");
  expect_engines_agree(g, pooled<SpillGrower>(), 10, "spill-grower");
  expect_engines_agree(g, pooled<PartialSender>(), 10, "partial-sender");
  const ProgramSource sleepers([](std::size_t count, ProgramPool& pool) {
    for (std::size_t v = 0; v < count; ++v) pool.emplace<WrapSleeper>(v % 3 == 0);
  });
  expect_engines_agree(g, sleepers, WrapSleeper::kWake + 5, "tag-wrap sleepers");
}

/// Halts in round `halt` but claims to sleep until round `hint` — an
/// unsound hint when hint > halt.  Counts its receives in `*steps`.
class Oversleeper final : public NodeProgram {
 public:
  Oversleeper(int halt, int hint, int* steps) : halt_(halt), hint_(hint), steps_(steps) {}
  bool init(const Colour*, int) override { return false; }
  void send(int, Outbox&) override {}
  bool receive(int round, const Inbox&) override {
    ++*steps_;
    return round >= halt_;
  }
  int wake_round(int) const override { return hint_; }
  Colour output() const override { return kUnmatched; }

 private:
  int halt_;
  int hint_;
  int* steps_;
};

TEST(FlatEngine, UnsoundHintIsCaughtBySync) {
  // run_sync steps every node every round, so a hint that sleeps through
  // the node's halting round shows as a RunResult mismatch — which is what
  // makes the flat ≡ sync suites the soundness test of every hint.
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  int steps = 0;
  const RunResult sync = run_sync(g, pooled<Oversleeper>(3, 5, &steps), 10);
  const RunResult flat = run_flat(g, pooled<Oversleeper>(3, 5, &steps), 10);
  EXPECT_EQ(sync.rounds, 3);
  EXPECT_EQ(flat.rounds, 5);
  EXPECT_NE(sync.halt_round, flat.halt_round);
  EXPECT_EQ(sync.node_steps, 9u);
  EXPECT_EQ(flat.node_steps, 3u);
}

TEST(FlatEngine, HintPastMaxRoundsIsClamped) {
  // An INT_MAX hint on nodes that never halt: both engines throw the same
  // "did not halt" error, and the flat engine steps each node once, in
  // round max_rounds, where the hint is clamped.  Its wake buckets are a
  // fixed ring, so nothing is sized by the hint or by max_rounds.
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  constexpr int kNever = std::numeric_limits<int>::max();
  const auto error_of = [&g](EngineKind kind, int threads, int* steps) {
    FlatEngineOptions options;
    options.threads = threads;
    const ProgramSource source = pooled<Oversleeper>(kNever, kNever, steps);
    try {
      if (kind == EngineKind::kSync) {
        run_sync(g, source, 50);
      } else {
        run_flat(g, source, 50, options);
      }
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  int sync_steps = 0;
  const std::string sync_error = error_of(EngineKind::kSync, 1, &sync_steps);
  EXPECT_NE(sync_error.find("did not halt within max_rounds"), std::string::npos) << sync_error;
  EXPECT_EQ(sync_steps, 3 * 50);
  for (const int threads : {1, 2}) {
    int flat_steps = 0;
    const std::string flat_error = error_of(EngineKind::kFlat, threads, &flat_steps);
    EXPECT_NE(flat_error.find("did not halt within max_rounds"), std::string::npos)
        << flat_error;
    EXPECT_EQ(flat_steps, 3) << "threads=" << threads;
  }
}

TEST(FlatEngine, SkewedGreedyStepsEachNodeOnce) {
  // hub_cluster_graph(h, 128, 128): a hub decides all its edges in round
  // 127 and each leaf's only colour c is decided in round c - 1, so with
  // sleep hints every node is stepped exactly once, while the run still
  // takes the full 254 rounds.
  for (const int hubs : {10, 100}) {
    const graph::EdgeColouredGraph g = graph::hub_cluster_graph(hubs, 128, 128);
    const RunResult flat = run_flat(g, algo::greedy_program_factory(), 256);
    EXPECT_EQ(flat.rounds, 254) << "hubs=" << hubs;
    EXPECT_EQ(flat.node_steps, static_cast<std::uint64_t>(g.node_count())) << "hubs=" << hubs;
    EXPECT_EQ(flat.messages_sent, static_cast<std::size_t>(g.node_count())) << "hubs=" << hubs;
  }
}

TEST(FlatEngine, IsolatedNodesAndEmptyGraphs) {
  const graph::EdgeColouredGraph empty(0, 3);
  expect_engines_agree(empty, algo::greedy_program_factory(), 4, "empty graph");
  const graph::EdgeColouredGraph isolated(5, 3);  // no edges
  expect_engines_agree(isolated, algo::greedy_program_factory(), 4, "isolated nodes");
}

TEST(FlatEngine, ThrowsLikeTheOracleWhenNotHalting) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  const ProgramSource factory = pooled<HaltAfter>(100);
  EXPECT_THROW(run_sync(g, factory, 5), std::runtime_error);
  EXPECT_THROW(run_flat(g, factory, 5), std::runtime_error);
  FlatEngineOptions threaded;
  threaded.threads = 2;
  EXPECT_THROW(run_flat(g, factory, 5, threaded), std::runtime_error);
}

/// Throws during send — the flat engine must fail fast on any thread.
class Thrower final : public NodeProgram {
 public:
  bool init(const Colour*, int) override { return false; }
  void send(int, Outbox&) override { throw std::runtime_error("node crashed"); }
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }
};

TEST(FlatEngine, ExceptionsPropagateFromWorkers) {
  graph::EdgeColouredGraph g(2, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(run_flat(g, pooled<Thrower>(), 10), std::runtime_error);
  FlatEngineOptions threaded;
  threaded.threads = 2;
  EXPECT_THROW(run_flat(g, pooled<Thrower>(), 10, threaded), std::runtime_error);
}

TEST(FlatEngine, RowOffsetsAre64BitSafe) {
  // The offsets the engine itself uses (build_csr → flat_row_offsets over
  // the graph's degrees) must accumulate in std::size_t: three nodes of
  // degree 2³⁰ push the running slot count past 2³¹, which wrapped in
  // 32-bit arithmetic.  The
  // offsets are pure bookkeeping — no plane is allocated here — so the
  // regression test covers the n·Δ > 2³¹ regime without 16 GiB of slots.
  const int big = 1 << 30;
  const std::vector<std::size_t> offsets = flat_row_offsets({big, big, big, 5});
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[2], std::size_t{2} << 30);
  EXPECT_EQ(offsets[3], std::size_t{3} << 30);  // 3 · 2³⁰ > 2³¹: needs 64 bits
  EXPECT_EQ(offsets[4], (std::size_t{3} << 30) + 5);
  // Port addressing widens before the addition as well.
  EXPECT_EQ(flat_slot(std::size_t{3} << 30, 7), (std::size_t{3} << 30) + 7);
  EXPECT_THROW(flat_row_offsets({1, -1}), std::invalid_argument);
}

/// (n, threads) grid — the `threads > n`, `n = 0` and near-empty-partition
/// edges every combination of which used to be easy to hit with
/// `dmm_cli --threads 8` on a toy instance.
class FlatEngineThreadGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FlatEngineThreadGrid, MatchesOracleForAnyPartition) {
  const auto [n, threads] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + threads));
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 3, 0.8, rng);
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), 5);
  FlatEngineOptions options;
  options.threads = threads;
  expect_same_result(oracle,
                     run_flat(g, algo::greedy_program_factory(), 5, options),
                     "n=" + std::to_string(n) + " threads=" + std::to_string(threads));
}

INSTANTIATE_TEST_SUITE_P(
    SmallNByManyThreads, FlatEngineThreadGrid,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 5, 8, 17),
                       ::testing::Values(1, 2, 7, 8, 64, 1000)));

TEST(FlatEngine, EngineKindSwitch) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(5).long_path;
  const RunResult via_sync = run(EngineKind::kSync, g, algo::greedy_program_factory(), 6);
  const RunResult via_flat = run(EngineKind::kFlat, g, algo::greedy_program_factory(), 6);
  expect_same_result(via_sync, via_flat, "EngineKind dispatch");
  EXPECT_STREQ(engine_kind_name(EngineKind::kSync), "sync");
  EXPECT_STREQ(engine_kind_name(EngineKind::kFlat), "flat");
  EXPECT_EQ(parse_engine_kind("sync"), EngineKind::kSync);
  EXPECT_EQ(parse_engine_kind("flat"), EngineKind::kFlat);
  EXPECT_FALSE(parse_engine_kind("warp").has_value());
}

}  // namespace
}  // namespace dmm::local
