// Schedule-perturbation stress suite for the flat engine's persistent
// pool and its shared chunk queue.
//
// The pool's contract is that RunResult is a pure function of
// (graph, program): the thread count and the chunk size change only
// *which worker executes which chunk*, never the simulated behaviour.
// This suite perturbs the schedule across the full grid
//
//   threads ∈ {1, 2, 7, 16} × chunk_slots ∈ {1, 64, default}
//
// and asserts every RunResult field is identical to the run_sync oracle —
// on random graphs for every engine realisation, on the maximally skewed
// instances the chunker exists for (a 255-leaf star, the model's degree
// cap, and hub-cluster / power-law-style graphs where a contiguous run of
// max-degree hub rows serialised the old static node-count partition), and
// across two round-stamp tag cycles with mixed halted/running nodes (the
// wipe_running_rows regression).  It also pins the structural gauge of the
// fix: threads are spawned once per engine, so threads_spawned is
// workers − 1 regardless of how many rounds run — the old engine spawned
// 2·rounds·(workers−1).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algo/greedy.hpp"
#include "algo/runner.hpp"
#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "local/flat_engine.hpp"
#include "local/program_pool.hpp"
#include "util/rng.hpp"

namespace dmm::local {
namespace {

struct Schedule {
  int threads;
  std::size_t chunk_slots;
};

std::string schedule_str(const Schedule& s) {
  return " [threads=" + std::to_string(s.threads) + " chunk=" + std::to_string(s.chunk_slots) +
         "]";
}

/// The full 12-configuration grid.  chunk_slots = 0 is the auto default;
/// 1 shatters into per-node chunks (maximum claim traffic on the shared
/// cursor); 64 sits between.
std::vector<Schedule> full_grid() {
  std::vector<Schedule> grid;
  for (int threads : {1, 2, 7, 16}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{64}, std::size_t{0}}) {
      grid.push_back({threads, chunk});
    }
  }
  return grid;
}

void expect_grid_agrees(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                        int max_rounds, const RunResult& oracle,
                        const std::vector<Schedule>& grid, const std::string& context) {
  for (const Schedule& s : grid) {
    FlatEngineOptions options;
    options.threads = s.threads;
    options.chunk_slots = s.chunk_slots;
    expect_same_result(oracle, run_flat(g, source, max_rounds, options),
                       context + schedule_str(s));
  }
}

TEST(FlatStress, FuzzRealisationsAcrossScheduleGrid) {
  // Every engine realisation on a spread of random instances, all 12
  // schedules each.  Smaller instance count than test_flat_engine's fuzz —
  // the grid multiplies every run by 12.
  const std::vector<Schedule> grid = full_grid();
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 31 + 5);
    const int n = 4 + static_cast<int>(seed * 2);
    const int k = 2 + static_cast<int>(seed % 3);
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, 0.7, rng);
    const std::string context =
        "random n=" + std::to_string(n) + " k=" + std::to_string(k);
    for (const algo::EngineRealisation& r : algo::engine_realisations(k)) {
      const RunResult oracle = run_sync(g, r.factory, r.round_bound);
      expect_grid_agrees(g, r.factory, r.round_bound, oracle, grid, context + " " + r.name);
    }
  }
}

TEST(FlatStress, StarGraphMaxSkewAgrees) {
  // The 255-leaf star is the most skewed instance the 8-bit colour model
  // admits: one row holds half of all slots, so with chunk_slots = 1 the
  // hub row is a single chunk one worker must take while the others claim
  // the leaves' chunks from the shared queue.  Greedy runs the full 254
  // rounds on it (k = 255).
  const graph::EdgeColouredGraph g = graph::star_graph(255);
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), 256);
  EXPECT_EQ(oracle.rounds, 254);  // greedy's k - 1 bound, maximal here
  expect_grid_agrees(g, algo::greedy_program_factory(), 256, oracle, full_grid(),
                     "star(255) greedy");
}

TEST(FlatStress, HubClusterPowerLawAgrees) {
  // Two-point degree distribution {60, 1}: 40 max-degree hubs front-loaded
  // in node order — the adversarial layout for the old static node-count
  // partition, where worker 0 got all the hubs.  Degree-aware chunking
  // splits the hub run; the shared chunk queue drains it.
  const graph::EdgeColouredGraph g =
      graph::hub_cluster_graph(/*hubs=*/40, /*hub_degree=*/60, /*first_colour=*/1);
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), 64);
  expect_grid_agrees(g, algo::greedy_program_factory(), 64, oracle, full_grid(),
                     "hub_cluster(40,60) greedy");
}

/// Broadcasts one byte per round for `rounds` rounds, then halts with the
/// count of non-empty messages heard (mod 251) — any misdelivered,
/// dropped or stale-slot-aliased message changes the output.
class PulseProgram final : public NodeProgram {
 public:
  explicit PulseProgram(int rounds) : remaining_(rounds) {}
  bool init(const Colour*, int) override { return false; }
  void send(int, Outbox& out) override { out.broadcast("p"); }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) {
      if (!in.at(port).empty()) ++heard_;
    }
    return round >= remaining_;
  }
  Colour output() const override { return static_cast<Colour>(heard_ % 251); }

 private:
  int remaining_;
  std::size_t heard_ = 0;
};

TEST(FlatStress, HotRowsAtHundredThousandNodes) {
  // n = 390 · 256 = 99 840 with every hub at the model's 255-degree cap:
  // the hub rows hold half the plane's slots in the first 0.4% of the node
  // range.  (The issue's literal one-hub n = 10⁵ star cannot exist — a
  // proper colouring of a degree-d hub needs d distinct colours and Colour
  // is uint8_t — so maximum-degree hubs are tiled instead.)
  const graph::EdgeColouredGraph g =
      graph::hub_cluster_graph(/*hubs=*/390, /*hub_degree=*/255, /*first_colour=*/1);
  EXPECT_EQ(g.node_count(), 99840);
  const ProgramSource factory = pooled<PulseProgram>(3);
  const RunResult oracle = run_sync(g, factory, 8);
  EXPECT_EQ(oracle.rounds, 3);
  expect_grid_agrees(g, factory, 8, oracle, full_grid(), "hub_cluster(390,255) pulse");
}

TEST(FlatStress, GreedySkewedAtHundredThousandNodes) {
  // Greedy end-to-end on a 10⁵-node skewed instance (hubs at degree 128,
  // colours 128..255, so the run lasts 254 rounds).  The serial flat run
  // is the oracle here — run_sync's per-round map inboxes are O(d² log d)
  // per hub and would dominate the suite; serial-vs-sync equivalence on
  // this family is already pinned at smaller n above.
  const graph::EdgeColouredGraph g =
      graph::hub_cluster_graph(/*hubs=*/776, /*hub_degree=*/128, /*first_colour=*/128);
  EXPECT_EQ(g.node_count(), 100104);
  const RunResult oracle = run_flat(g, algo::greedy_program_factory(), 256);
  EXPECT_EQ(oracle.rounds, 254);
  const std::vector<Schedule> grid = {
      {2, 0}, {7, 0}, {7, 64}, {7, 4096}, {16, 0},
  };
  expect_grid_agrees(g, algo::greedy_program_factory(), 256, oracle, grid,
                     "hub_cluster(776,128,first=128) greedy");
}

/// Halts after `rounds` rounds; while running, sends its running round
/// count on port 0 only (other ports deliberately silent) and folds
/// everything it hears into a checksum.  With staggered lifetimes this
/// leaves a mix of halted and running senders across the 255-round
/// tag-cycle boundaries: a wipe that misses a live row (stale stamp
/// aliasing a new round) or touches state it should not would corrupt the
/// checksum of some node.
class StaggeredChirper final : public NodeProgram {
 public:
  explicit StaggeredChirper(int rounds) : remaining_(rounds) {}
  bool init(const Colour*, int degree) override { return degree == 0; }
  void send(int round, Outbox& out) override { out.set(0, std::to_string(round)); }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) {
      for (char ch : in.at(port)) sum_ = sum_ * 31 + static_cast<unsigned char>(ch);
      sum_ += in.colour(port);
    }
    return round >= remaining_;
  }
  Colour output() const override { return static_cast<Colour>(sum_ % 255); }

 private:
  int remaining_;
  std::size_t sum_ = 0;
};

/// A third of the nodes (by index) chirp for 5 rounds, the rest for 600.
ProgramSource staggered_chirpers() {
  return ProgramSource([](std::size_t count, ProgramPool& pool) {
    for (std::size_t v = 0; v < count; ++v) {
      pool.emplace<StaggeredChirper>(v % 3 == 0 ? 5 : 600);
    }
  });
}

TEST(FlatStress, WipeCycleRegressionAcrossTwoTagCycles) {
  // Round stamps cycle 1..255, so a 600-round run crosses the wipe twice
  // (rounds 256 and 511).  A third of the nodes halt at round 5 and stay
  // halted through both wipes — their rows must keep serving the cached
  // announcement while the running rows are re-zeroed.  Lifetimes are
  // placed by node index, so every engine and schedule sees the same
  // per-node lifetimes.
  Rng rng(99);
  const int n = 60;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 5, 0.9, rng);
  const ProgramSource factory = staggered_chirpers();
  const RunResult oracle = run_sync(g, factory, 601);
  EXPECT_EQ(oracle.rounds, 600);  // crossed both tag cycles
  expect_grid_agrees(g, factory, 601, oracle, full_grid(), "two-tag-cycle chirper");
}

TEST(FlatStress, ThreadsSpawnedOncePerEngineNotPerRound) {
  // The structural gauge of the persistent pool: it is created once in the
  // session constructor, so threads_spawned is workers − 1 — independent of
  // the round count.  The old engine spawned 2·rounds·(workers−1) threads;
  // on this 600-round run that would have been 7188 with 7 workers.
  Rng rng(7);
  const int n = 60;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 5, 0.9, rng);
  const ProgramSource factory = staggered_chirpers();
  for (int threads : {1, 2, 7, 16}) {
    FlatEngineOptions options;
    options.threads = threads;
    const RunResult result = run_flat(g, factory, 601, options);
    EXPECT_EQ(result.rounds, 600);
    EXPECT_EQ(result.threads_spawned, static_cast<std::size_t>(threads - 1))
        << "threads=" << threads;
  }
  // Serial paths never spawn: run_sync by construction, run_flat threads=1
  // because the pool is only built for workers > 1.
  EXPECT_EQ(run_sync(g, algo::greedy_program_factory(), 6).threads_spawned, 0u);
  EXPECT_EQ(run_flat(g, algo::greedy_program_factory(), 6).threads_spawned, 0u);
  // The clamp still caps workers at the node count: 1000 requested threads
  // on 60 nodes spawn 59 pool threads, not 999.
  FlatEngineOptions oversub;
  oversub.threads = 1000;
  EXPECT_EQ(run_flat(g, algo::greedy_program_factory(), 6, oversub).threads_spawned, 59u);
}

}  // namespace
}  // namespace dmm::local
