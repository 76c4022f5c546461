// The five benchmark workloads and the checks every op must pass.
//
// Each workload drives one user path of the library through the same
// public calls the matching `dmm_cli` command makes, and is the one
// workload where its layer does most of the work:
//
//   greedy-uniform  local::run_flat on a big random instance (few, fat rounds)
//   greedy-skewed   local::run_flat on a hub-cluster instance (254 thin rounds)
//   serve-mixed     an open loop of greedy jobs into one svc::MatchingService
//   churn-mixed     dyn::DynamicMatcher::apply of 256-op batches, then check()
//   views-k4        the k=4, d=3, ρ=3 neighbourhood CSP on both pipelines
//
// The workload seed is the only source of randomness; the library only
// ever sees the inputs generated from it.  README.md in this directory
// lists why each workload exists and which per-layer metric should move
// which end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "local/engine.hpp"
#include "trace.hpp"
#include "verify/matching.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  // length of the timed phase
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  int nproc = 1;          // CPUs this process may run on
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;  // false when any check failed (ops, oracle, counts)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run facts recorded with the result: thread counts, instance sizes.
  std::vector<std::pair<std::string, std::string>> meta;
  /// One line per failed check, printed to stderr.
  std::vector<std::string> errors;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; spans go to `tracer` when it is enabled.  Throws
/// std::invalid_argument for an unknown workload name.
Outcome run_workload(const RunConfig& config, Tracer& tracer);

// ---------------------------------------------------------------------------
// Checks (exposed for the benchmark's own tests).

/// Fingerprint of a run's per-node outputs and halt rounds.
std::uint64_t result_fingerprint(const dmm::local::RunResult& result);

/// Checks one greedy solve of `g`: `report` (verify::check_outputs of its
/// outputs, computed inside the timed op) found a maximal matching, the
/// run took at most k−1 rounds, and its fingerprint is `expected` (the
/// set-up's reference solve).  Returns "" when every check holds, otherwise the
/// first failure.
std::string check_solve(const dmm::graph::EdgeColouredGraph& g,
                        const dmm::local::RunResult& result,
                        const dmm::verify::MatchingReport& report, std::uint64_t expected);

/// True iff two runs agree on every field the engines guarantee to be
/// deterministic (outputs, halt rounds, rounds, message accounting).
bool same_result(const dmm::local::RunResult& a, const dmm::local::RunResult& b);

// ---------------------------------------------------------------------------
// The serve-mixed arrival schedule.

struct Arrival {
  double due_s = 0.0;  // offset from the start of the timed phase
  bool bulk = false;
  int tenant = 0;      // interactive tenant 0..kInteractiveTenants-1 (bulk: 0)
  int graph = 0;       // index into the interactive or the bulk job pool
};

/// round(interactive_rate · seconds) interactive requests arrive at
/// independent uniform times in [0, seconds) (a Poisson process
/// conditioned on its count), each from a uniformly chosen interactive
/// tenant with a graph drawn uniformly from the interactive pool.  Bulk
/// requests arrive every `bulk_period_s` seconds from a seeded phase,
/// cycling through the bulk pool.  Sorted by due time; a pure function of
/// its arguments.
std::vector<Arrival> arrival_schedule(std::uint64_t seed, double interactive_rate,
                                      double bulk_period_s, double seconds,
                                      int interactive_tenants, int interactive_pool,
                                      int bulk_pool);

}  // namespace perfbench
