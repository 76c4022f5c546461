// Tests for the benchmark's own code: percentiles and the tail-sample
// rule, the seeded arrival schedule, self time from nested spans, and the
// per-op checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/greedy.hpp"
#include "graph/generators.hpp"
#include "local/flat_engine.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "verify/matching.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> sample;
  for (int i = 100; i >= 1; --i) sample.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(sample, 0.5), 50);
  EXPECT_EQ(percentile(sample, 0.9), 90);
  EXPECT_EQ(percentile(sample, 0.99), 99);
  EXPECT_EQ(percentile(sample, 1.0), 100);
  EXPECT_EQ(median({3, 1, 2, 4}), 2);  // the lower middle of an even sample
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, TenSamplesBeyondTheHighestReported) {
  EXPECT_TRUE(reportable(0.99, 1000));   // rank 990: ten beyond
  EXPECT_FALSE(reportable(0.99, 999));   // rank 990: nine beyond
  EXPECT_TRUE(reportable(0.9, 100));
  EXPECT_FALSE(reportable(0.9, 99));
  EXPECT_TRUE(reportable(0.5, 20));
  EXPECT_FALSE(reportable(0.5, 19));
  EXPECT_FALSE(reportable(0.5, 0));
}

TEST(ArrivalSchedule, SameSeedSameSchedule) {
  const auto a = arrival_schedule(42, 155.0, 0.2, 10.0, 3, 6, 2);
  const auto b = arrival_schedule(42, 155.0, 0.2, 10.0, 3, 6, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].bulk, b[i].bulk);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].graph, b[i].graph);
  }
  const auto c = arrival_schedule(43, 155.0, 0.2, 10.0, 3, 6, 2);
  EXPECT_NE(c.front().due_s, a.front().due_s);
}

TEST(ArrivalSchedule, RateAndMix) {
  const auto a = arrival_schedule(7, 200.0, 0.1, 50.0, 3, 6, 2);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const Arrival& x, const Arrival& y) { return x.due_s < y.due_s; }));
  std::size_t interactive = 0;
  std::vector<int> bulk_graphs;
  std::vector<std::size_t> per_tenant(3, 0);
  for (const Arrival& r : a) {
    EXPECT_GE(r.due_s, 0.0);
    EXPECT_LT(r.due_s, 50.0);
    if (r.bulk) {
      bulk_graphs.push_back(r.graph);
    } else {
      ++interactive;
      ASSERT_LT(r.tenant, 3);
      ++per_tenant[static_cast<std::size_t>(r.tenant)];
      EXPECT_LT(r.graph, 6);
    }
  }
  EXPECT_EQ(interactive, 10'000u);  // rate · seconds, whatever the seed
  for (const std::size_t n : per_tenant) {
    EXPECT_NEAR(static_cast<double>(n), static_cast<double>(interactive) / 3.0, 300.0);
  }
  // One bulk request per 0.1 s period, cycling through the bulk pool.
  ASSERT_EQ(bulk_graphs.size(), 500u);
  for (std::size_t i = 0; i < bulk_graphs.size(); ++i) {
    EXPECT_EQ(bulk_graphs[i], static_cast<int>(i % 2));
  }
}

Span span(const char* name, std::int64_t start, std::int64_t end, std::int32_t parent,
          std::int64_t op = 0) {
  return Span{name, start, end, parent, op};
}

TEST(SelfTime, NestedSpans) {
  //  op      [0, 100)
  //    a     [10, 40)
  //      a1  [15, 25)
  //    b     [30, 60)   overlaps a: [30, 40) must count once for op
  //    c     [90, 120)  runs past op: only [90, 100) is op's
  const std::vector<Span> spans = {
      span("op", 0, 100, -1), span("a", 10, 40, 0), span("a1", 15, 25, 1),
      span("b", 30, 60, 0),   span("c", 90, 120, 0),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // children cover [10, 60) and [90, 100)
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTime, OpBreakdownAddsUpToWallTime) {
  const std::vector<Span> spans = {
      span("setup", 0, 5, -1, kNoOp),
      span("op", 10, 110, -1, 0),   span("local.build", 12, 30, 1, 0),
      span("local.step", 30, 50, 1, 0), span("local.step", 50, 80, 1, 0),
      span("verify.check", 85, 105, 1, 0),
      span("op", 200, 260, -1, 1),  span("local.step", 205, 255, 6, 1),
  };
  const std::vector<OpBreakdown> ops = op_breakdowns(spans, "op");
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op, 0);
  EXPECT_EQ(ops[0].wall_ns, 100);
  EXPECT_EQ(ops[0].self_ns.at("local.step"), 50);
  EXPECT_EQ(ops[0].self_ns.at("op"), 100 - 18 - 50 - 20);
  EXPECT_EQ(ops[0].residual_ns, 0);
  EXPECT_EQ(ops[1].self_ns.at("op"), 10);
  EXPECT_EQ(ops[1].residual_ns, 0);
  EXPECT_DOUBLE_EQ(mean_self_ms(ops, "local.step"), (50 + 50) / 2.0 / 1e6);
  EXPECT_DOUBLE_EQ(mean_self_ms(ops, "local.build"), 18 / 2.0 / 1e6);
}

TEST(Tracer, DisabledRecordsNothingAndScopesNest) {
  Tracer off(false);
  {
    Scope a(off, "op", 0);
    Scope b(off, "local.step", 0);
  }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    Scope a(on, "op", 3);
    Scope b(on, "local.step", 3);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].op, 3);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
}

TEST(Checks, FlagACorruptedMatching) {
  dmm::Rng rng(5);
  const auto g = dmm::graph::random_coloured_graph(400, 5, 0.7, rng);
  const dmm::local::RunResult good =
      dmm::local::run_flat(g, dmm::algo::greedy_program_factory(), g.k() + 1);
  const std::uint64_t fp = result_fingerprint(good);
  EXPECT_EQ(check_solve(g, good, dmm::verify::check_outputs(g, good.outputs), fp), "");

  // Unmatch one matched node: its partner now claims a colour nobody
  // answers (M2), and the check must say so.
  dmm::local::RunResult bad = good;
  const auto matched = std::find_if(bad.outputs.begin(), bad.outputs.end(), [](auto c) {
    return c != dmm::local::kUnmatched;
  });
  ASSERT_NE(matched, bad.outputs.end());
  *matched = dmm::local::kUnmatched;
  EXPECT_NE(check_solve(g, bad, dmm::verify::check_outputs(g, bad.outputs), fp), "");
  EXPECT_FALSE(same_result(good, bad));

  // A valid matching that is not the first solve's is flagged too.
  dmm::local::RunResult other = good;
  other.halt_round[0] += 1;
  EXPECT_NE(check_solve(g, other, dmm::verify::check_outputs(g, other.outputs), fp), "");

  // More rounds than the k-1 bound.
  dmm::local::RunResult slow = good;
  slow.rounds = g.k();
  EXPECT_NE(check_solve(g, slow, dmm::verify::check_outputs(g, slow.outputs), fp), "");
}

}  // namespace
}  // namespace perfbench
