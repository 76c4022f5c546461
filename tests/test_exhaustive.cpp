// Theorem 2's universal quantifier, brute-forced at small k: the adversary
// refutes *every single* 0-round algorithm.
//
//  * k = 2 (Lemma 4): all 12 M1-valid tables fail on one of T, U, V.
//  * k = 3 (Theorem 5): all 864 M1-valid tables are refuted with a
//    re-checkable certificate (none is even a correct maximal-matching
//    algorithm, let alone a fast one — exactly as the theorem demands,
//    since k-1 = 2 > 0 rounds are necessary).
//
// This is an independent end-to-end validation of the whole §3 machinery:
// if any lemma were implemented wrongly, some table would slip through.
#include <gtest/gtest.h>

#include <unordered_set>

#include "algo/zero_round_table.hpp"
#include "colsys/canon.hpp"
#include "lower/adversary.hpp"

namespace dmm::lower {
namespace {

TEST(Exhaustive, CountFormula) {
  EXPECT_EQ(algo::zero_round_algorithm_count(1), 2u);    // ∅:1 × {1}:2
  EXPECT_EQ(algo::zero_round_algorithm_count(2), 12u);   // 1·2·2·3
  EXPECT_EQ(algo::zero_round_algorithm_count(3), 864u);  // 1·2³·3³·4
}

TEST(Exhaustive, EnumerationIsValidAndDistinct) {
  const std::uint64_t total = algo::zero_round_algorithm_count(3);
  std::unordered_set<std::vector<gk::Colour>, colsys::SerialisationHash> seen;
  for (std::uint64_t i = 0; i < total; ++i) {
    const algo::ZeroRoundTable a = algo::make_zero_round_algorithm(3, i);
    EXPECT_TRUE(seen.insert(a.table()).second) << "duplicate at index " << i;
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(Exhaustive, Lemma4RefutesAllZeroRoundTablesK2) {
  const std::uint64_t total = algo::zero_round_algorithm_count(2);
  for (std::uint64_t i = 0; i < total; ++i) {
    const algo::ZeroRoundTable a = algo::make_zero_round_algorithm(2, i);
    const Lemma4Result result = run_lemma4(a);
    EXPECT_TRUE(result.contradiction_found) << "index " << i << ": " << a.name();
  }
}

TEST(Exhaustive, AdversaryRefutesAllZeroRoundTablesK3) {
  const std::uint64_t total = algo::zero_round_algorithm_count(3);
  std::uint64_t refuted = 0, inconclusive = 0, tight = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    const algo::ZeroRoundTable a = algo::make_zero_round_algorithm(3, i);
    const LowerBoundResult result = run_adversary(3, a);
    if (result.refuted()) {
      ++refuted;
      // Spot-check certificates (re-checking all 864 would be slow-ish but
      // fine; sample every 37th for suite speed).
      if (i % 37 == 0) {
        Evaluator fresh(a);
        EXPECT_TRUE(certificate_holds(std::get<Certificate>(result.outcome), fresh))
            << "index " << i;
      }
    } else if (result.tight()) {
      ++tight;
      ADD_FAILURE() << "0-round algorithm survived to a tight pair: " << a.name();
    } else {
      ++inconclusive;
      ADD_FAILURE() << "inconclusive for " << a.name() << ": " << result.summary();
    }
  }
  EXPECT_EQ(refuted, total);
  EXPECT_EQ(tight, 0u);
  EXPECT_EQ(inconclusive, 0u);
}

TEST(Exhaustive, TableRespectsM1ByConstruction) {
  EXPECT_THROW(algo::ZeroRoundTable(2, {0, 2, 0, 0}), std::invalid_argument);  // 2 ∉ {1}
  EXPECT_THROW(algo::ZeroRoundTable(2, {1, 0, 0, 0}), std::invalid_argument);  // 1 ∉ ∅
  EXPECT_NO_THROW(algo::ZeroRoundTable(2, {0, 1, 2, 1}));
}

}  // namespace
}  // namespace dmm::lower
