// Machine-readable benchmark trajectory: every bench binary emits a
// BENCH_<exp>.json file so perf PRs can show before/after numbers.
//
// File format (one JSON object per file, schema dmm-bench-9):
//
//   {"schema":"dmm-bench-9","experiment":"e14",
//    "metrics":{"n":{"unit":"nodes","gate":"exact"},
//               "wall_ns":{"unit":"ns","gate":"banded","floor":"wall_ns"}, ...},
//    "records":[
//     {"instance":"random n=100000 k=12","engine":"flat","threads":1,
//      "metrics":{"n":100000,"wall_ns":78368934, ...}}, ...]}
//
// Records are sparse: a record carries only the metrics its row measures,
// in declaration order, and the file's "metrics" block declares exactly the
// metrics its records use.  Every metric is declared once, in kMetrics
// below; adding one is one table line and needs no schema bump.  Records
// are keyed by (instance, engine, threads).
//
// Gate policies, applied by tools/run_benches.py against bench/baseline/:
//   exact   current == baseline, an absent value reading as 0
//   close   relative drift at most 1e-9 (ratios of exact counts)
//   banded  current at most 3x baseline, gated only when the baseline value
//           of the `floor` metric is at least 50 ms (shorter rows are noise)
//   none    recorded, never gated
//
// The experiment set is an explicit list, never "e1..e17": the seed shipped
// gaps, and the next gap must fail loudly instead of being iterated over.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dmm::benchjson {

/// Every experiment that exists in this repository, in bench/ file order.
inline constexpr const char* kExperiments[] = {
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
    "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17",
};

bool known_experiment(const std::string& experiment);

enum class Gate { kExact, kClose, kBanded, kNone };

struct Metric {
  const char* name;
  const char* unit;
  Gate gate;
  const char* floor = nullptr;  // banded only: the metric whose baseline decides the floor
};

/// The one declaration of every metric a record may carry.
inline constexpr Metric kMetrics[] = {
    {"n", "nodes", Gate::kExact},                  // nodes of the instance graph
    {"m", "edges", Gate::kExact},                  // edges of the instance graph
    {"k", "colours", Gate::kExact},                // palette size
    {"rounds", "rounds", Gate::kExact},            // rounds used (e17: rho-1, the rounds decided)
    {"wall_ns", "ns", Gate::kBanded, "wall_ns"},   // wall-clock of the measured section
    {"max_message_bytes", "bytes", Gate::kExact},  // largest message of the run
    {"views", "count", Gate::kExact},              // view catalogue (e17) / evaluations (e4)
    {"pairs", "count", Gate::kExact},              // compatible view pairs (e17)
    {"csp_nodes", "count", Gate::kExact},          // CSP search nodes explored (e17)
    {"memo_hits", "count", Gate::kExact},          // evaluator memo hits (e4)
    {"init_ms", "ms", Gate::kNone},                // engine setup: programs + init calls
    {"rss_bytes", "bytes", Gate::kNone},           // peak process RSS when recorded
    {"orbits", "count", Gate::kExact},             // distinct colour-permutation orbits
    {"orbit_reduction", "ratio", Gate::kClose},    // raw count / orbit count (~k!-fold cut)
    {"reps_generated", "count", Gate::kExact},     // canonical reps built (e17) / interned (e4)
    {"crashes", "count", Gate::kExact},            // crash events applied by the fault plan
    {"restarts", "count", Gate::kExact},           // restarts applied by the fault plan
    {"messages_dropped", "count", Gate::kExact},   // messages dropped in flight
    {"checkpoint_bytes", "bytes", Gate::kExact},   // serialised EngineCheckpoint size
    {"outputs_fnv", "hash", Gate::kExact},         // local::outputs_fnv, top 53 bits (e9)
    {"restore_ms", "ms", Gate::kNone},             // checkpoint read + engine restore
    {"send_ms", "ms", Gate::kNone},                // engine send-phase wall-clock
    {"receive_ms", "ms", Gate::kNone},             // engine receive-phase wall-clock
    {"sessions", "count", Gate::kExact},           // completed service sessions (e10)
    {"tenant_p50_ms", "ms", Gate::kBanded, "tenant_p50_ms"},  // worst tenant's median sojourn
    {"tenant_p99_ms", "ms", Gate::kBanded, "tenant_p99_ms"},  // worst tenant's p99 sojourn
    {"fairness_ratio", "ratio", Gate::kBanded, "tenant_p50_ms"},  // max/min tenant mean sojourn
    {"churn_ops", "count", Gate::kExact},          // insert/delete events applied (e12)
    {"repairs", "count", Gate::kExact},            // matching edges created by repair
    {"touched_nodes", "count", Gate::kExact},      // sum per batch of nodes repairs visited
    {"recompute_avoided", "count", Gate::kExact},  // sum per batch of nodes a rerun would redo
};

inline constexpr std::size_t kMetricCount = std::size(kMetrics);

/// One trajectory row: the (instance, engine, threads) key plus the
/// metrics it measures.
class Record {
 public:
  std::string instance;      // instance family / table row label
  std::string engine = "-";  // "sync", "flat", or "-"
  int threads = 1;           // worker threads used by the run

  /// Sets a declared metric.  Throws std::invalid_argument on an
  /// undeclared name or a non-finite value.
  Record& set(std::string_view name, double value);

  /// The metric's value; 0 when the row does not measure it.
  double get(std::string_view name) const;

  /// kMetrics[index]'s value, empty when the row does not measure it.
  const std::optional<double>& value(std::size_t index) const { return values_[index]; }

  bool operator==(const Record&) const = default;

 private:
  std::array<std::optional<double>, kMetricCount> values_{};
};

/// Peak resident set size of this process in bytes (getrusage); 0 where
/// the platform has no such counter.
long long peak_rss_bytes();

/// One-line JSON object: the key fields, then the set metrics in
/// declaration order.
std::string to_json(const Record& record);

/// Collects records for one experiment and writes BENCH_<exp>.json.
///
/// The constructor strips the harness flags out of argc/argv so that
/// google-benchmark never sees them:
///   --smoke            only the instrumented tables run, benchmark loops
///                      are skipped by the caller (see bench mains)
///   --scale            opt-in n = 10⁷ scale rows (the `bench_scale`
///                      nightly leg; only e14 and e17 react, every binary
///                      accepts the flag so run_benches.py can pass it
///                      uniformly)
///   --json-dir <path>  output directory (default: $DMM_BENCH_JSON_DIR,
///                      falling back to the working directory)
class Harness {
 public:
  Harness(std::string experiment, int& argc, char** argv);

  bool smoke() const noexcept { return smoke_; }
  bool scale() const noexcept { return scale_; }

  void add(Record record) { records_.push_back(std::move(record)); }

  /// Runs fn(), sets the record's wall_ns to its wall-clock, stores it.
  template <class F>
  void timed(Record record, F&& fn) {
    record.set("wall_ns", time_ns([&] { fn(); }));
    add(std::move(record));
  }

  /// Wall-clock of fn() in nanoseconds, for callers that patch a record
  /// with results computed inside fn().
  static double time_ns(const std::function<void()>& fn);

  /// Writes BENCH_<experiment>.json; returns 0, or 2 on I/O failure.  Call
  /// last in main().
  int write() const;

  const std::vector<Record>& records() const noexcept { return records_; }
  /// The last stored record, for metrics measured after it was added.
  Record& last() { return records_.back(); }
  std::string path() const;

  /// Shared main() body for the table-only experiments: one whole-table
  /// record, benchmark loops skipped in --smoke mode.  (The engine-aware
  /// benches e1/e2/e5/e14 record per-instance rows instead.)
  template <class Table, class Benchmarks>
  static int run_table_experiment(const char* experiment, int& argc, char** argv,
                                  Table&& print_table, Benchmarks&& run_benchmarks) {
    Harness harness(experiment, argc, argv);
    Record table;
    table.instance = "experiment table";
    harness.timed(std::move(table), std::forward<Table>(print_table));
    if (!harness.smoke()) run_benchmarks();
    return harness.write();
  }

 private:
  std::string experiment_;
  std::string directory_;
  bool smoke_ = false;
  bool scale_ = false;
  std::vector<Record> records_;
};

}  // namespace dmm::benchjson
