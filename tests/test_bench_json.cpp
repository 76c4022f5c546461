// The BENCH_*.json trajectory files are consumed by scripts across PRs, so
// the writer is under test: one well-formed declaration per metric, sparse
// records in declaration order, finite values only, a metrics block that
// declares what the records use, and an explicitly enumerated experiment
// set (nothing may assume "e1..e17" holds forever).
#include "bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

namespace dmm::benchjson {
namespace {

Record sample() {
  Record r;
  r.instance = "random n=256 k=4";
  r.engine = "flat";
  r.threads = 2;
  // Set out of declaration order on purpose.
  r.set("wall_ns", 1234567.25).set("n", 256).set("orbit_reduction", 23.64).set("rounds", 0);
  return r;
}

std::size_t index_of(const std::string& name) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kMetrics[i].name == name) return i;
  }
  return kMetricCount;
}

TEST(BenchJson, EveryMetricIsDeclaredOnceAndWellFormed) {
  std::set<std::string> names;
  for (const Metric& metric : kMetrics) {
    EXPECT_TRUE(names.insert(metric.name).second) << "declared twice: " << metric.name;
    EXPECT_STRNE(metric.unit, "") << metric.name;
    // Only banded metrics name a floor, and the floor is a declared
    // wall-clock metric, so the gate can compare its baseline to 50 ms.
    if (metric.gate != Gate::kBanded) {
      EXPECT_EQ(metric.floor, nullptr) << metric.name;
      continue;
    }
    ASSERT_NE(metric.floor, nullptr) << metric.name;
    const std::size_t floor = index_of(metric.floor);
    ASSERT_LT(floor, kMetricCount) << metric.name << " floor " << metric.floor;
    const std::string unit = kMetrics[floor].unit;
    EXPECT_TRUE(unit == "ns" || unit == "ms") << metric.name;
  }
  for (const char* key : {"instance", "engine", "threads", "metrics"}) {
    EXPECT_EQ(names.count(key), 0u) << key << " is a record key, not a metric";
  }
}

TEST(BenchJson, RecordsAreSparseAndInDeclarationOrder) {
  // This string is the record format; changing it breaks every reader.
  EXPECT_EQ(to_json(sample()),
            "{\"instance\":\"random n=256 k=4\",\"engine\":\"flat\",\"threads\":2,"
            "\"metrics\":{\"n\":256,\"rounds\":0,\"wall_ns\":1234567.25,"
            "\"orbit_reduction\":23.640000000000001}}");
  Record empty;
  empty.instance = "experiment table";
  EXPECT_EQ(to_json(empty),
            "{\"instance\":\"experiment table\",\"engine\":\"-\",\"threads\":1,\"metrics\":{}}");
}

TEST(BenchJson, AbsentMetricsReadAsZero) {
  const Record r = sample();
  EXPECT_EQ(r.get("n"), 256.0);
  EXPECT_EQ(r.get("crashes"), 0.0);
  EXPECT_FALSE(r.value(index_of("m")).has_value());
  EXPECT_THROW((void)r.get("bogus"), std::invalid_argument);
}

TEST(BenchJson, SetRejectsUndeclaredNamesAndNonFiniteValues) {
  Record r = sample();
  EXPECT_THROW(r.set("wall_ms", 1.0), std::invalid_argument);
  EXPECT_THROW(r.set("instance", 1.0), std::invalid_argument);
  for (const Metric& metric : kMetrics) {
    EXPECT_THROW(r.set(metric.name, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument)
        << metric.name;
    EXPECT_THROW(r.set(metric.name, std::numeric_limits<double>::infinity()),
                 std::invalid_argument)
        << metric.name;
    EXPECT_THROW(r.set(metric.name, -std::numeric_limits<double>::infinity()),
                 std::invalid_argument)
        << metric.name;
  }
  EXPECT_EQ(r, sample());  // a rejected set leaves the record untouched
}

TEST(BenchJson, NumbersAndStringsSurviveTheWriter) {
  Record r;
  r.instance = "quote \" backslash \\ tab \t done";
  const double third = 1.0 / 3.0 * 1e9;
  r.set("wall_ns", third).set("views", 21474836480.0);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"instance\":\"quote \\\" backslash \\\\ tab \\t done\""),
            std::string::npos);
  // %.17g round-trips doubles bit for bit and prints integral counts bare.
  const std::string::size_type at = json.find("\"wall_ns\":") + 10;
  EXPECT_EQ(std::strtod(json.c_str() + at, nullptr), third);
  EXPECT_NE(json.find("\"views\":21474836480}"), std::string::npos);
}

TEST(BenchJson, PeakRssIsPositiveOnLinux) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_bytes(), 0);
#else
  EXPECT_EQ(peak_rss_bytes(), 0);
#endif
}

TEST(BenchJson, ExperimentSetIsExplicit) {
  // 17 experiments exist; the numbering has no gaps left, but the set
  // stays an explicit list.
  EXPECT_EQ(std::end(kExperiments) - std::begin(kExperiments), 17);
  EXPECT_TRUE(known_experiment("e12"));
  for (const char* e : kExperiments) {
    EXPECT_TRUE(known_experiment(e)) << e;
  }
  EXPECT_FALSE(known_experiment("e0"));
  EXPECT_FALSE(known_experiment("e18"));
}

TEST(BenchJson, HarnessRejectsUnknownExperiments) {
  int argc = 1;
  char binary[] = "bench";
  char* argv[] = {binary, nullptr};
  EXPECT_THROW(Harness("e18", argc, argv), std::invalid_argument);
  EXPECT_THROW(Harness("bogus", argc, argv), std::invalid_argument);
}

TEST(BenchJson, HarnessStripsItsFlagsAndWrites) {
  char binary[] = "bench";
  char smoke[] = "--smoke";
  char json_dir[] = "--json-dir";
  char dir[] = ".";
  char passthrough[] = "--benchmark_filter=x";
  char* argv[] = {binary, smoke, json_dir, dir, passthrough, nullptr};
  int argc = 5;
  Harness h("e1", argc, argv);
  // Only the binary name and the google-benchmark flag survive.
  EXPECT_TRUE(h.smoke());
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], passthrough);

  h.add(sample());
  Record second;
  second.instance = "chain k=8";
  second.engine = "sync";
  second.set("csp_nodes", 7);
  h.timed(second, [] {});
  ASSERT_EQ(h.records().size(), 2u);
  EXPECT_TRUE(h.records()[1].value(index_of("wall_ns")).has_value());  // set by timed()

  EXPECT_EQ(h.write(), 0);
  std::ifstream in(h.path());
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("\"schema\":\"dmm-bench-9\""), std::string::npos);
  EXPECT_NE(text.find("\"experiment\":\"e1\""), std::string::npos);
  // The metrics block declares exactly the metrics the records use, in
  // declaration order, each with its unit and gate.
  const std::string block =
      "\"metrics\":{\n"
      "  \"n\":{\"unit\":\"nodes\",\"gate\":\"exact\"},\n"
      "  \"rounds\":{\"unit\":\"rounds\",\"gate\":\"exact\"},\n"
      "  \"wall_ns\":{\"unit\":\"ns\",\"gate\":\"banded\",\"floor\":\"wall_ns\"},\n"
      "  \"csp_nodes\":{\"unit\":\"count\",\"gate\":\"exact\"},\n"
      "  \"orbit_reduction\":{\"unit\":\"ratio\",\"gate\":\"close\"}},";
  EXPECT_NE(text.find(block), std::string::npos) << text;
  // Each stored record is embedded verbatim.
  for (const Record& r : h.records()) {
    EXPECT_NE(text.find(to_json(r)), std::string::npos);
  }
  std::remove(h.path().c_str());
}

}  // namespace
}  // namespace dmm::benchjson
