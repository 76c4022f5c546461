#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "algo/greedy.hpp"
#include "dyn/churn.hpp"
#include "dyn/dynamic_matcher.hpp"
#include "graph/generators.hpp"
#include "local/flat_engine.hpp"
#include "nbhd/csp.hpp"
#include "nbhd/views.hpp"
#include "stats.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "verify/matching.hpp"

namespace perfbench {

namespace {

using namespace dmm;
using local::Colour;

// Set-up (input generation) runs this many times per run; setup_s is the
// median, so one slow repetition does not decide it.
constexpr int kSetupRepeats = 5;

// greedy-uniform: few rounds, each a big phase.  n = 6e4 keeps the solve's
// working set near 30 MB.  At n = 3e5 (~160 MB) the solve streamed memory
// that the host shares, and its run medians spread 0.14 and 0.33 (middle
// half over median) in two ten-run sets; in six interleaved runs each,
// n = 1e5 spread 0.14 and n = 6e4 spread 0.05.
constexpr std::int64_t kUniformNodes = 60'000;
constexpr int kUniformColours = 12;
constexpr double kUniformDensity = 0.7;

// greedy-skewed: 254 thin rounds over two-point degrees {128, 1}.
constexpr std::int64_t kSkewedHubs = 500;
constexpr int kSkewedHubDegree = 128;
constexpr int kSkewedFirstColour = 128;

// serve-mixed: an open loop at a fixed rate (75 interactive + 5 bulk
// requests per second), about a third of the service's capacity on a
// 4-vCPU x86-64 VM (README.md).  At two-thirds of capacity queueing
// amplified the host's run-to-run noise: the median sojourn's spread over
// five runs was 0.33-1.1, against 0.10 here.  The pool sizes are fixed and
// bulk jobs arrive on a fixed period, so the seed moves graph structure
// and arrival times but not the mix of work.
constexpr double kServeInteractiveRate = 75.0;
constexpr double kServeBulkPeriodS = 0.2;
constexpr int kServeInteractiveTenants = 3;
constexpr int kServeInteractivePool = 6;
constexpr std::int64_t kServeInteractiveMinNodes = 2'000;  // pool sizes evenly spaced
constexpr std::int64_t kServeInteractiveMaxNodes = 5'000;
constexpr int kServeBulkPool = 2;
constexpr std::int64_t kServeBulkNodes = 50'000;
constexpr int kServeColours = 6;  // greedy runs at most 5 rounds
constexpr double kServeDensity = 0.7;
constexpr double kServeSloMs = 20.0;  // interactive sojourn limit
constexpr std::size_t kServeLookahead = 16;
constexpr double kServeDrainSeconds = 60.0;

// churn-mixed: the plan is replayed forward, then inverted, so a run can
// apply any number of batches to a graph that returns to its start.
constexpr std::int64_t kChurnNodes = 100'000;
constexpr int kChurnColours = 8;
constexpr double kChurnDensity = 0.7;
constexpr int kChurnPlanBatches = 32;
constexpr int kChurnOpsPerBatch = 256;

// views-k4: the smallest catalogue whose CSP is UNSAT on both pipelines
// and still takes about a second each.
constexpr int kViewsK = 4;
constexpr int kViewsD = 3;
constexpr int kViewsRho = 3;

// Greedy ops run the flat engine single-threaded, as `dmm_cli greedy` does
// by default.  At threads = nproc the per-run median swung 0.24-0.38 s
// (greedy-uniform, then at n = 3e5) and 0.11-0.46 s (greedy-skewed)
// between ten runs on a 4-vCPU VM, far beyond any usable regression bound;
// the parallel engine is measured instead by local.parallel_speedup in the
// traced run, which times kSpeedupSolves solves at threads = nproc after
// the loop.
constexpr int kGreedyThreads = 1;
constexpr int kSpeedupSolves = 3;

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): independent generators per input.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void add(Outcome& out, std::string name, double value, std::string unit) {
  out.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void fail(Outcome& out, std::string why) {
  out.correct = false;
  out.errors.push_back(std::move(why));
}

template <class State, class Build>
std::unique_ptr<State> repeated_setup(Tracer& tracer, Outcome& out, const Build& build) {
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state.reset();  // one instance alive at a time keeps peak RSS honest
    const std::int64_t t0 = now_ns();
    {
      Scope span(tracer, "setup", kNoOp);
      state = build();
    }
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  add(out, "setup_s", median(seconds), "s");
  return state;
}

/// Latencies of a closed loop, split by whether the op was traced.
struct Loop {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::uint64_t ok = 0;
  double elapsed_s = 0.0;
};

/// Moves the calling thread over the CPUs it may run on, `ops_per_cpu` ops
/// on each in turn, and restores its affinity when destroyed.  On a shared host the
/// vCPUs are not equally fast (one ran the same solve 20% slower than the
/// others, run after run), and the scheduler keeps a single-threaded loop
/// on whichever vCPU it started on; visiting every CPU makes each run
/// sample all of them alike, so the median does not depend on placement.
class CpuRotation {
 public:
  explicit CpuRotation(std::int64_t ops_per_cpu) : ops_per_cpu_(ops_per_cpu) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the CPU of op `i`.
  void pin(std::int64_t i) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[static_cast<std::size_t>(i / ops_per_cpu_) % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::int64_t ops_per_cpu_;
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// One client, one op at a time, until the timed phase has lasted
/// config.seconds and at least `min_ops` ops ran, visiting every CPU in
/// turn (CpuRotation).  In a traced run every other op is traced, and each
/// traced op shares its CPU with the untraced one after it, so
/// trace.overhead_ratio compares ops measured under the same conditions.
/// `op(i, traced, latency_ms)` returns "" on success.
template <class Op>
Loop closed_loop(const RunConfig& config, Outcome& out, std::int64_t min_ops, const Op& op) {
  if (config.trace) min_ops = std::max<std::int64_t>(min_ops, 2);
  Loop loop;
  const CpuRotation rotation(config.trace ? 2 : 1);
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(config.seconds * 1e9);
  for (std::int64_t i = 0; i < min_ops || now_ns() - start < budget; ++i) {
    rotation.pin(i);
    const bool traced = config.trace && i % 2 == 0;
    double latency_ms = 0.0;
    std::string error;
    ++out.attempted;
    try {
      error = op(i, traced, latency_ms);
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    if (!error.empty()) {
      ++out.failed;
      fail(out, "op " + std::to_string(i) + ": " + error);
      continue;
    }
    ++loop.ok;
    (traced ? loop.traced_ms : loop.untraced_ms).push_back(latency_ms);
  }
  loop.elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  return loop;
}

/// End-to-end metrics every closed-loop workload reports.
void add_loop_metrics(Outcome& out, const Loop& loop) {
  add(out, "op_ms_p50", median(loop.untraced_ms), "ms");
  add(out, "ops_per_s", static_cast<double>(loop.ok) / loop.elapsed_s, "1/s");
}

/// Per-op layer split of a traced run: checks that the layers plus the
/// op's own (unattributed) time add up to its wall time, and reports the
/// unattributed remainder and the tracing overhead.
std::vector<OpBreakdown> split_ops(const Tracer& tracer, Outcome& out, const Loop& loop) {
  std::vector<OpBreakdown> ops = op_breakdowns(tracer.spans(), "op");
  for (const OpBreakdown& b : ops) {
    if (b.residual_ns != 0) {
      fail(out, "op " + std::to_string(b.op) + ": layer times miss " +
                    std::to_string(b.residual_ns) + " ns of the op's wall time");
    }
  }
  add(out, "local.unattributed_ms", mean_self_ms(ops, "op"), "ms");
  add(out, "trace.overhead_ratio", median(loop.traced_ms) / median(loop.untraced_ms),
      "ratio");
  return ops;
}

/// The value of counter `name`, which must read the same on every op.
double exact_count(const Tracer& tracer, Outcome& out, const char* name) {
  const std::vector<double> values = counter_values(tracer.counters(), name);
  if (values.empty()) {
    fail(out, std::string("no ") + name + " recorded");
    return 0.0;
  }
  for (const double v : values) {
    if (v != values.front()) fail(out, std::string(name) + " differs between ops");
  }
  return values.front();
}

// ---------------------------------------------------------------------------
// greedy-uniform, greedy-skewed

struct GreedyState {
  graph::EdgeColouredGraph g{0, 1};
  std::uint64_t reference = 0;  // fingerprint of the set-up's standalone solve
};

void run_greedy(const RunConfig& config, Tracer& tracer, Outcome& out, bool skewed) {
  const local::ProgramSource source = algo::greedy_program_factory();
  local::FlatEngineOptions engine_options;
  engine_options.threads = kGreedyThreads;
  const auto run_options = [](const graph::EdgeColouredGraph& g) {
    local::RunOptions options;
    options.max_rounds = g.k() + 1;  // dmm_cli greedy's budget
    return options;
  };
  const std::unique_ptr<GreedyState> state =
      repeated_setup<GreedyState>(tracer, out, [&] {
        auto st = std::make_unique<GreedyState>();
        {
          Scope span(tracer, "graph.generate", kNoOp);
          if (skewed) {
            st->g = graph::hub_cluster_graph(kSkewedHubs, kSkewedHubDegree, kSkewedFirstColour);
          } else {
            Rng rng(derive_seed(config.seed, 0));
            st->g = graph::random_coloured_graph(kUniformNodes, kUniformColours,
                                                 kUniformDensity, rng);
          }
        }
        Scope span(tracer, "local.reference", kNoOp);
        const local::RunResult reference =
            local::run_flat(st->g, source, run_options(st->g), engine_options);
        st->reference = result_fingerprint(reference);
        const std::string error = check_solve(
            st->g, reference, verify::check_outputs(st->g, reference.outputs), st->reference);
        if (!error.empty()) fail(out, "the reference solve: " + error);
        return st;
      });
  const graph::EdgeColouredGraph& g = state->g;
  out.meta.emplace_back("nodes", std::to_string(g.node_count()));
  out.meta.emplace_back("edges", std::to_string(g.edge_count()));
  out.meta.emplace_back("k", std::to_string(g.k()));
  out.meta.emplace_back("engine_threads", std::to_string(kGreedyThreads));

  std::vector<double> solve_ms;  // untraced run_flat calls alone
  const Loop loop = closed_loop(config, out, 1, [&](std::int64_t i, bool traced, double& latency) {
    local::RunResult result;
    verify::MatchingReport report;
    const std::int64_t t0 = now_ns();
    if (traced) {
      Scope op(tracer, "op", i);
      std::unique_ptr<local::Session> session;
      {
        Scope span(tracer, "local.build", i);
        session = local::make_flat_session(g, source, run_options(g), engine_options);
      }
      while (!session->done()) {
        Scope span(tracer, "local.step", i);
        session->step();
      }
      {
        Scope span(tracer, "local.result", i);
        result = session->result();
      }
      Scope span(tracer, "verify.check", i);
      report = verify::check_outputs(g, result.outputs);
    } else {
      result = local::run_flat(g, source, run_options(g), engine_options);
      solve_ms.push_back(ms_between(t0, now_ns()));
      report = verify::check_outputs(g, result.outputs);
    }
    latency = ms_between(t0, now_ns());

    if (traced) {
      tracer.count("local.init_ns", i, result.init_ns);
      tracer.count("local.send_ns", i, result.send_ns);
      tracer.count("local.receive_ns", i, result.receive_ns);
      tracer.count("local.rounds", i, result.rounds);
      tracer.count("local.messages_sent", i, static_cast<double>(result.messages_sent));
      tracer.count("local.message_bytes", i, static_cast<double>(result.total_message_bytes));
      tracer.count("local.threads_spawned", i, static_cast<double>(result.threads_spawned));
    }
    return check_solve(g, result, report, state->reference);
  });
  add_loop_metrics(out, loop);
  if (!config.trace) return;

  const std::vector<OpBreakdown> ops = split_ops(tracer, out, loop);
  add(out, "graph.generate_ms", median(durations_ms(tracer.spans(), "graph.generate")), "ms");
  add(out, "local.build_ms", mean_self_ms(ops, "local.build"), "ms");
  add(out, "local.result_ms", mean_self_ms(ops, "local.result"), "ms");
  add(out, "verify.check_ms", mean_self_ms(ops, "verify.check"), "ms");
  const double step_ms = mean_self_ms(ops, "local.step");
  const double init_ms = mean(counter_values(tracer.counters(), "local.init_ns")) / 1e6;
  const double send_ms = mean(counter_values(tracer.counters(), "local.send_ns")) / 1e6;
  const double receive_ms = mean(counter_values(tracer.counters(), "local.receive_ns")) / 1e6;
  add(out, "local.init_ms", init_ms, "ms");
  add(out, "local.send_ms", send_ms, "ms");
  add(out, "local.receive_ms", receive_ms, "ms");
  add(out, "local.step_ms", step_ms, "ms");
  add(out, "local.step_other_ms", step_ms - send_ms - receive_ms, "ms");
  const std::vector<double> steps = durations_ms(tracer.spans(), "local.step");
  add(out, "local.step_us_p50", median(steps) * 1e3, "us");
  add(out, "local.step_us_max",
      steps.empty() ? 0.0 : *std::max_element(steps.begin(), steps.end()) * 1e3, "us");
  for (const char* count : {"local.rounds", "local.messages_sent", "local.message_bytes",
                            "local.threads_spawned"}) {
    add(out, count, exact_count(tracer, out, count), "count");
  }

  // The same instance at threads = nproc.
  local::FlatEngineOptions parallel = engine_options;
  parallel.threads = config.nproc;
  std::vector<double> parallel_ms;
  for (int r = 0; r < kSpeedupSolves; ++r) {
    Scope span(tracer, "local.parallel_solve", kNoOp);
    const std::int64_t t0 = now_ns();
    const local::RunResult result = local::run_flat(g, source, run_options(g), parallel);
    parallel_ms.push_back(ms_between(t0, now_ns()));
    if (result_fingerprint(result) != state->reference) fail(out, "the parallel solve differs");
  }
  add(out, "local.parallel_speedup", median(solve_ms) / median(parallel_ms), "ratio");
}

// ---------------------------------------------------------------------------
// serve-mixed

struct ServeState {
  std::vector<graph::EdgeColouredGraph> interactive;
  std::vector<graph::EdgeColouredGraph> bulk;
  std::vector<local::RunResult> interactive_reference;  // standalone runs
  std::vector<local::RunResult> bulk_reference;
  std::vector<Arrival> arrivals;
};

/// What the client saw of one request.
struct Request {
  bool bulk = false;
  bool sent = false;
  bool ok = false;
  std::int64_t due = 0;
  std::int64_t submit_start = 0;
  std::int64_t submit_end = 0;
  std::int64_t done = 0;
  double engine_ms = 0.0;  // init + send + receive of its RunResult

  double sojourn_ms() const { return ms_between(due, done); }
};

void run_serve(const RunConfig& config, Tracer& tracer, Outcome& out) {
  const local::ProgramSource source = algo::greedy_program_factory();
  const auto standalone = [&](const graph::EdgeColouredGraph& g) {
    Scope span(tracer, "local.reference", kNoOp);
    return local::run_flat(g, source, g.k() + 1);
  };
  const std::unique_ptr<ServeState> state = repeated_setup<ServeState>(tracer, out, [&] {
    auto st = std::make_unique<ServeState>();
    Rng rng(derive_seed(config.seed, 1));
    {
      Scope span(tracer, "graph.generate", kNoOp);
      for (int i = 0; i < kServeInteractivePool; ++i) {
        const std::int64_t n = kServeInteractiveMinNodes +
                               (kServeInteractiveMaxNodes - kServeInteractiveMinNodes) * i /
                                   (kServeInteractivePool - 1);
        st->interactive.push_back(
            graph::random_coloured_graph(n, kServeColours, kServeDensity, rng));
      }
      for (int i = 0; i < kServeBulkPool; ++i) {
        st->bulk.push_back(
            graph::random_coloured_graph(kServeBulkNodes, kServeColours, kServeDensity, rng));
      }
    }
    for (const auto& g : st->interactive) st->interactive_reference.push_back(standalone(g));
    for (const auto& g : st->bulk) st->bulk_reference.push_back(standalone(g));
    Scope span(tracer, "client.schedule", kNoOp);
    st->arrivals =
        arrival_schedule(derive_seed(config.seed, 2), kServeInteractiveRate, kServeBulkPeriodS,
                         config.seconds, kServeInteractiveTenants, kServeInteractivePool,
                         kServeBulkPool);
    return st;
  });

  svc::ServiceOptions options;
  options.threads = std::max(1, config.nproc - 1);
  out.meta.emplace_back("runtime_threads", std::to_string(options.threads));
  out.meta.emplace_back("scheduler_threads", "1");
  out.meta.emplace_back("client_threads", "1");
  out.meta.emplace_back("interactive_rate_per_s", std::to_string(kServeInteractiveRate));
  out.meta.emplace_back("bulk_period_s", std::to_string(kServeBulkPeriodS));
  out.meta.emplace_back("slo_ms", std::to_string(kServeSloMs));

  const std::vector<Arrival>& arrivals = state->arrivals;
  std::vector<Request> requests(arrivals.size());
  struct Outstanding {
    std::size_t index;
    std::future<local::RunResult> future;
  };
  std::vector<Outstanding> outstanding;
  svc::MatchingService service(options);

  const auto finish = [&](Outstanding& o) {
    Request& r = requests[o.index];
    r.done = now_ns();
    const Arrival& a = arrivals[o.index];
    const auto pool_index = static_cast<std::size_t>(a.graph);
    const local::RunResult& want = a.bulk ? state->bulk_reference[pool_index]
                                          : state->interactive_reference[pool_index];
    try {
      const local::RunResult got = o.future.get();
      r.engine_ms = (got.init_ns + got.send_ns + got.receive_ns) / 1e6;
      r.ok = same_result(got, want);
      if (!r.ok) fail(out, "request " + std::to_string(o.index) + ": differs from standalone");
    } catch (const std::exception& e) {
      fail(out, "request " + std::to_string(o.index) + " threw: " + e.what());
    }
  };
  const auto poll = [&] {
    for (std::size_t j = 0; j < outstanding.size();) {
      if (outstanding[j].future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        finish(outstanding[j]);
        outstanding[j] = std::move(outstanding.back());
        outstanding.pop_back();
      } else {
        ++j;
      }
    }
  };
  const auto pause = [] { std::this_thread::sleep_for(std::chrono::microseconds(50)); };

  // Jobs (each a copy of its pool graph) are prepared up to kServeLookahead
  // requests ahead while the client waits, so copying a bulk graph does
  // not make the next request late.
  std::deque<svc::Job> prepared;
  std::size_t next_prepared = 0;
  const auto prepare_one = [&] {
    const Arrival& a = arrivals[next_prepared++];
    const auto pool_index = static_cast<std::size_t>(a.graph);
    const graph::EdgeColouredGraph& g =
        a.bulk ? state->bulk[pool_index] : state->interactive[pool_index];
    svc::Job job;
    job.graph = g;
    job.source = source;
    job.max_rounds = g.k() + 1;
    prepared.push_back(std::move(job));
  };
  const std::int64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    Request& r = requests[i];
    r.bulk = a.bulk;
    r.due = start + static_cast<std::int64_t>(a.due_s * 1e9);
    if (prepared.empty()) prepare_one();
    for (poll(); now_ns() < r.due; poll()) {
      if (next_prepared < arrivals.size() && next_prepared < i + kServeLookahead) {
        prepare_one();
      } else {
        pause();
      }
    }
    svc::Job job = std::move(prepared.front());
    prepared.pop_front();
    const std::string tenant = a.bulk ? "bulk" : "interactive-" + std::to_string(a.tenant);
    ++out.attempted;
    r.submit_start = now_ns();
    try {
      std::future<local::RunResult> future = service.submit(tenant, std::move(job));
      r.submit_end = now_ns();
      r.sent = true;
      outstanding.push_back(Outstanding{i, std::move(future)});
    } catch (const std::exception& e) {
      r.submit_end = r.done = now_ns();
      fail(out, "request " + std::to_string(i) + ": submit threw: " + e.what());
    }
  }
  const auto drain_deadline = now_ns() + static_cast<std::int64_t>(kServeDrainSeconds * 1e9);
  for (poll(); !outstanding.empty() && now_ns() < drain_deadline; poll()) pause();
  if (!outstanding.empty()) {
    fail(out, std::to_string(outstanding.size()) + " request(s) still pending after the drain");
    for (const Outstanding& o : outstanding) requests[o.index].done = now_ns();
  }
  const svc::ServiceStats stats = service.stats();

  // In a traced run even-numbered requests are traced; their spans are
  // recorded from the client's own timestamps, so the request's wall time
  // (due → seen done) splits exactly into generator lag, submit, pending.
  const auto traced = [&](std::size_t i) { return config.trace && i % 2 == 0; };
  std::vector<double> interactive_ms, interactive_traced_ms, bulk_ms, lag_ms;
  std::uint64_t completed = 0, interactive_sent = 0, slo_met = 0;
  std::int64_t last_done = start;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (!r.ok) ++out.failed;
    lag_ms.push_back(ms_between(r.due, r.submit_start));
    if (r.ok) ++completed;
    last_done = std::max(last_done, r.done);
    if (traced(i)) {
      const auto op = static_cast<std::int64_t>(i);
      const std::int32_t root = tracer.record("op", op, r.due, r.done, -1);
      tracer.record("client.lag", op, r.due, r.submit_start, root);
      tracer.record("svc.submit", op, r.submit_start, r.submit_end, root);
      if (r.sent) tracer.record("svc.pending", op, r.submit_end, r.done, root);
      tracer.count(r.bulk ? "svc.bulk_engine_ns" : "svc.engine_ns", op, r.engine_ms * 1e6);
    }
    if (r.bulk) {
      if (r.ok && !traced(i)) bulk_ms.push_back(r.sojourn_ms());
      continue;
    }
    if (traced(i)) {
      if (r.ok) interactive_traced_ms.push_back(r.sojourn_ms());
      continue;
    }
    ++interactive_sent;
    if (r.ok) interactive_ms.push_back(r.sojourn_ms());
    if (r.ok && r.sojourn_ms() <= kServeSloMs) ++slo_met;
  }

  add(out, "op_ms_p50", median(interactive_ms), "ms");
  if (reportable(0.99, interactive_ms.size())) {
    add(out, "op_ms_p99", percentile(interactive_ms, 0.99), "ms");
  } else {
    out.errors.push_back("op_ms_p99 not reported: " + std::to_string(interactive_ms.size()) +
                         " interactive requests, 1000 needed");
  }
  add(out, "bulk_ms_p50", median(bulk_ms), "ms");
  // The timed phase runs until the last request completed, so a service
  // that falls behind the arrival rate reads below it.
  add(out, "ops_per_s", static_cast<double>(completed) / (ms_between(start, last_done) / 1e3),
      "1/s");
  add(out, "slo_met_ratio",
      interactive_sent == 0 ? 0.0
                            : static_cast<double>(slo_met) / static_cast<double>(interactive_sent),
      "fraction");
  if (options.threads > 1 && stats.pool_spawns != 1) {
    fail(out, "the shared runtime spawned its pool " + std::to_string(stats.pool_spawns) +
                  " times, want 1");
  }
  add(out, "client.gen_lag_ms_p99", percentile(lag_ms, 0.99), "ms");
  if (!config.trace) return;

  const Loop loop{interactive_ms, interactive_traced_ms, 0, 0.0};
  split_ops(tracer, out, loop);
  add(out, "graph.generate_ms", median(durations_ms(tracer.spans(), "graph.generate")), "ms");
  std::vector<double> submit_us = durations_ms(tracer.spans(), "svc.submit");
  for (double& v : submit_us) v *= 1e3;
  add(out, "svc.submit_us_p50", median(submit_us), "us");
  // Every interactive request (the ones op_ms_p99 is about): the split
  // needs only the client's timestamps and the RunResult, which untraced
  // requests carry too, and p99 needs at least 1000 samples.
  std::vector<double> engine_ms, wait_ms;
  for (const Request& r : requests) {
    if (r.bulk || !r.ok) continue;
    engine_ms.push_back(r.engine_ms);
    wait_ms.push_back(r.sojourn_ms() - r.engine_ms);
  }
  add(out, "svc.engine_ms_p50", median(engine_ms), "ms");
  add(out, "svc.wait_ms_p50", median(wait_ms), "ms");
  if (!reportable(0.99, wait_ms.size())) {
    out.errors.push_back("svc.wait_ms_p99 rests on " + std::to_string(wait_ms.size()) +
                         " interactive requests, fewer than 1000");
  }
  add(out, "svc.wait_ms_p99", percentile(wait_ms, 0.99), "ms");
  add(out, "svc.sessions", static_cast<double>(stats.sessions), "count");
  std::uint64_t steps = 0;
  for (const svc::TenantStats& t : stats.tenants) steps += t.steps;
  add(out, "svc.steps_per_session",
      stats.sessions == 0 ? 0.0 : static_cast<double>(steps) / static_cast<double>(stats.sessions),
      "count");
  add(out, "svc.pool_spawns", static_cast<double>(stats.pool_spawns), "count");
}

// ---------------------------------------------------------------------------
// churn-mixed

struct ChurnState {
  std::unique_ptr<dyn::DynamicMatcher> matcher;
  /// The plan's batches, then their inverses in reverse order: applying
  /// the whole cycle returns the graph to its start.
  std::vector<dyn::ChurnBatch> cycle;
};

dyn::ChurnBatch inverse(const dyn::ChurnBatch& batch) {
  dyn::ChurnBatch inv;
  inv.ops.assign(batch.ops.rbegin(), batch.ops.rend());
  for (dyn::ChurnOp& op : inv.ops) {
    op.kind = op.kind == dyn::ChurnOp::Kind::kInsert ? dyn::ChurnOp::Kind::kDelete
                                                     : dyn::ChurnOp::Kind::kInsert;
  }
  return inv;
}

void run_churn(const RunConfig& config, Tracer& tracer, Outcome& out) {
  dyn::MatcherOptions matcher_options;
  matcher_options.engine = local::EngineKind::kFlat;
  matcher_options.threads = 1;
  const std::unique_ptr<ChurnState> state = repeated_setup<ChurnState>(tracer, out, [&] {
    auto st = std::make_unique<ChurnState>();
    std::optional<graph::EdgeColouredGraph> g;
    {
      Scope span(tracer, "graph.generate", kNoOp);
      Rng rng(derive_seed(config.seed, 3));
      g = graph::random_coloured_graph(kChurnNodes, kChurnColours, kChurnDensity, rng);
    }
    dyn::ChurnSpec spec;
    spec.batches = kChurnPlanBatches;
    spec.ops_per_batch = kChurnOpsPerBatch;
    spec.insert_fraction = 0.5;
    spec.seed = derive_seed(config.seed, 4);
    dyn::ChurnPlan plan;
    {
      Scope span(tracer, "dyn.plan", kNoOp);
      plan = dyn::ChurnPlan::random(*g, spec);
    }
    st->cycle = plan.batches();
    for (auto it = plan.batches().rbegin(); it != plan.batches().rend(); ++it) {
      st->cycle.push_back(inverse(*it));
    }
    Scope span(tracer, "dyn.seed", kNoOp);
    st->matcher = std::make_unique<dyn::DynamicMatcher>(std::move(*g), matcher_options);
    return st;
  });
  dyn::DynamicMatcher& matcher = *state->matcher;
  out.meta.emplace_back("nodes", std::to_string(matcher.graph().node_count()));
  out.meta.emplace_back("edges", std::to_string(matcher.graph().edge_count()));
  out.meta.emplace_back("threads", "1");
  if (!matcher.check().ok()) fail(out, "the seeded matching is not maximal");

  // Repair counts over exactly the plan's forward pass, so they repeat
  // exactly whatever number of batches the run gets through.
  dyn::RepairStats first_pass;
  const Loop loop = closed_loop(
      config, out, kChurnPlanBatches, [&](std::int64_t i, bool traced, double& latency) {
        const dyn::ChurnBatch& batch =
            state->cycle[static_cast<std::size_t>(i) % state->cycle.size()];
        // The substrate's own cost is timed by replaying the batch on a
        // copy of the graph just before the op, outside it.
        if (traced) {
          graph::EdgeColouredGraph mirror = matcher.graph();
          Scope replay(tracer, "graph.mirror", i);
          for (const dyn::ChurnOp& op : batch.ops) {
            if (op.kind == dyn::ChurnOp::Kind::kInsert) {
              Scope span(tracer, "graph.add_edge", i);
              mirror.add_edge(op.u, op.v, op.colour);
            } else {
              Scope span(tracer, "graph.remove_edge", i);
              mirror.remove_edge(op.u, op.v);
            }
          }
        }
        verify::MatchingReport report;
        const std::int64_t t0 = now_ns();
        {
          Scope op(tracer, "op", i);
          {
            Scope span(tracer, "dyn.apply", i);
            matcher.apply(batch);
          }
          Scope span(tracer, "verify.check", i);
          report = matcher.check();
        }
        latency = ms_between(t0, now_ns());
        if (i + 1 == kChurnPlanBatches) first_pass = matcher.stats();
        return report.ok() ? std::string() : "not a maximal matching:\n" + report.describe();
      });
  add_loop_metrics(out, loop);
  if (reportable(0.9, loop.untraced_ms.size())) {
    add(out, "op_ms_p90", percentile(loop.untraced_ms, 0.9), "ms");
  } else {
    out.errors.push_back("op_ms_p90 not reported: " + std::to_string(loop.untraced_ms.size()) +
                         " batches, 100 needed");
  }

  const std::int64_t oracle_start = now_ns();
  std::vector<Colour> oracle;
  {
    Scope span(tracer, "dyn.oracle", kNoOp);
    oracle = matcher.recompute();
  }
  const double oracle_ms = ms_between(oracle_start, now_ns());
  const verify::MatchingReport oracle_report = verify::check_outputs(matcher.graph(), oracle);
  if (!oracle_report.ok()) {
    fail(out, "the oracle matching is invalid:\n" + oracle_report.describe());
  }
  if (!config.trace) return;

  const std::vector<OpBreakdown> ops = split_ops(tracer, out, loop);
  const std::vector<OpBreakdown> mirrors = op_breakdowns(tracer.spans(), "graph.mirror");
  add(out, "graph.generate_ms", median(durations_ms(tracer.spans(), "graph.generate")), "ms");
  add(out, "dyn.plan_ms", median(durations_ms(tracer.spans(), "dyn.plan")), "ms");
  add(out, "dyn.seed_ms", median(durations_ms(tracer.spans(), "dyn.seed")), "ms");
  add(out, "dyn.apply_ms_p50", median(durations_ms(tracer.spans(), "dyn.apply")), "ms");
  const double substrate_ms = mean_self_ms(mirrors, "graph.remove_edge") +
                              mean_self_ms(mirrors, "graph.add_edge");
  add(out, "dyn.repair_ms", mean_self_ms(ops, "dyn.apply") - substrate_ms, "ms");
  add(out, "graph.remove_edge_us", mean(durations_ms(tracer.spans(), "graph.remove_edge")) * 1e3,
      "us");
  add(out, "graph.add_edge_us", mean(durations_ms(tracer.spans(), "graph.add_edge")) * 1e3, "us");
  add(out, "verify.check_ms", mean_self_ms(ops, "verify.check"), "ms");
  add(out, "dyn.oracle_ms", oracle_ms, "ms");
  add(out, "dyn.inserts", static_cast<double>(first_pass.inserts), "count");
  add(out, "dyn.deletes", static_cast<double>(first_pass.deletes), "count");
  add(out, "dyn.repairs", static_cast<double>(first_pass.repairs), "count");
  add(out, "dyn.touched_nodes", static_cast<double>(first_pass.touched_nodes), "count");
  const std::uint64_t changes = first_pass.inserts + first_pass.deletes;
  add(out, "dyn.touched_per_op",
      changes == 0 ? 0.0
                   : static_cast<double>(first_pass.touched_nodes) / static_cast<double>(changes),
      "ratio");
}

// ---------------------------------------------------------------------------
// views-k4

struct ViewsState {
  nbhd::OrbitCensus census;
  std::size_t pairs = 0;
};

void run_views(const RunConfig& config, Tracer& tracer, Outcome& out) {
  // The reference is the orbit catalogue's census and pair count; every op
  // must reproduce them on both pipelines.
  const std::unique_ptr<ViewsState> state = repeated_setup<ViewsState>(tracer, out, [&] {
    auto st = std::make_unique<ViewsState>();
    Scope span(tracer, "nbhd.reference", kNoOp);
    st->census = nbhd::orbit_census(kViewsK, kViewsD, kViewsRho);
    st->pairs = nbhd::compatible_pairs(nbhd::enumerate_orbits(kViewsK, kViewsD, kViewsRho)).size();
    return st;
  });
  out.meta.emplace_back("threads", "1");
  nbhd::CspOptions serial;
  serial.threads = 1;  // nodes_explored is exact only single-threaded

  std::optional<std::pair<std::uint64_t, std::uint64_t>> first_nodes;
  const Loop loop = closed_loop(config, out, 1, [&](std::int64_t i, bool traced, double& latency) {
    nbhd::CspResult raw, orbit;
    std::size_t views = 0, pairs = 0, orbit_pairs = 0;
    int orbits = 0;
    const std::int64_t t0 = now_ns();
    {
      Scope op(tracer, "op", i);
      {
        nbhd::ViewCatalogue catalogue;
        std::vector<nbhd::CompatiblePair> found;
        {
          Scope span(tracer, "nbhd.enumerate", i);
          catalogue = nbhd::enumerate_views(kViewsK, kViewsD, kViewsRho);
        }
        {
          Scope span(tracer, "nbhd.pairs", i);
          found = nbhd::compatible_pairs(catalogue);
        }
        Scope span(tracer, "nbhd.solve", i);
        raw = nbhd::solve(catalogue, found, serial);
        views = static_cast<std::size_t>(catalogue.size());
        pairs = found.size();
      }
      nbhd::OrbitCatalogue catalogue;
      std::vector<nbhd::CompatiblePair> found;
      {
        Scope span(tracer, "nbhd.orbit_enumerate", i);
        catalogue = nbhd::enumerate_orbits(kViewsK, kViewsD, kViewsRho);
      }
      {
        Scope span(tracer, "nbhd.orbit_pairs", i);
        found = nbhd::compatible_pairs(catalogue);
      }
      Scope span(tracer, "nbhd.orbit_solve", i);
      orbit = nbhd::solve(catalogue, found, serial);
      orbits = catalogue.orbit_count();
      orbit_pairs = found.size();
    }
    latency = ms_between(t0, now_ns());

    if (traced) {
      tracer.count("nbhd.views", i, static_cast<double>(views));
      tracer.count("nbhd.orbits", i, orbits);
      tracer.count("nbhd.pairs", i, static_cast<double>(pairs));
      tracer.count("nbhd.orbit_pairs", i, static_cast<double>(orbit_pairs));
      tracer.count("nbhd.csp_nodes", i, static_cast<double>(raw.nodes_explored));
      tracer.count("nbhd.orbit_csp_nodes", i, static_cast<double>(orbit.nodes_explored));
    }
    if (raw.satisfiable || orbit.satisfiable) return std::string("a pipeline returned SAT");
    if (static_cast<double>(views) != state->census.views ||
        static_cast<double>(orbits) != state->census.orbits) {
      return std::string("catalogue sizes differ from the Burnside census");
    }
    if (pairs != state->pairs || orbit_pairs != state->pairs) {
      return std::string("compatible-pair counts differ from the reference");
    }
    const std::pair<std::uint64_t, std::uint64_t> nodes{raw.nodes_explored, orbit.nodes_explored};
    if (!first_nodes) first_nodes = nodes;
    if (nodes != *first_nodes) return std::string("CSP search-node counts differ between ops");
    return std::string();
  });
  add_loop_metrics(out, loop);
  if (!config.trace) return;

  const std::vector<OpBreakdown> ops = split_ops(tracer, out, loop);
  for (const char* stage : {"nbhd.enumerate", "nbhd.pairs", "nbhd.solve", "nbhd.orbit_enumerate",
                            "nbhd.orbit_pairs", "nbhd.orbit_solve"}) {
    add(out, std::string(stage) + "_ms", mean_self_ms(ops, stage), "ms");
  }
  for (const char* count : {"nbhd.views", "nbhd.orbits", "nbhd.pairs", "nbhd.orbit_pairs",
                            "nbhd.csp_nodes", "nbhd.orbit_csp_nodes"}) {
    add(out, count, exact_count(tracer, out, count), "count");
  }
  add(out, "nbhd.orbit_reduction", state->census.views / state->census.orbits, "ratio");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"greedy-uniform", "greedy-skewed", "serve-mixed",
                                                 "churn-mixed", "views-k4"};
  return names;
}

Outcome run_workload(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  if (config.workload == "greedy-uniform") {
    run_greedy(config, tracer, out, false);
  } else if (config.workload == "greedy-skewed") {
    run_greedy(config, tracer, out, true);
  } else if (config.workload == "serve-mixed") {
    run_serve(config, tracer, out);
  } else if (config.workload == "churn-mixed") {
    run_churn(config, tracer, out);
  } else if (config.workload == "views-k4") {
    run_views(config, tracer, out);
  } else {
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
  }
  return out;
}

std::uint64_t result_fingerprint(const local::RunResult& result) {
  const std::uint64_t h = fingerprint(result.outputs.data(),
                                      result.outputs.size() * sizeof(result.outputs[0]));
  return fingerprint(result.halt_round.data(),
                     result.halt_round.size() * sizeof(result.halt_round[0]), h);
}

std::string check_solve(const graph::EdgeColouredGraph& g, const local::RunResult& result,
                        const verify::MatchingReport& report, std::uint64_t expected) {
  if (result.outputs.size() != static_cast<std::size_t>(g.node_count())) {
    return "one output per node expected";
  }
  if (!report.ok()) return "not a maximal matching:\n" + report.describe();
  if (result.rounds > g.k() - 1) {
    return "took " + std::to_string(result.rounds) + " rounds, bound k-1 = " +
           std::to_string(g.k() - 1);
  }
  if (result_fingerprint(result) != expected) return "outputs differ from the reference solve";
  return "";
}

bool same_result(const local::RunResult& a, const local::RunResult& b) {
  return a.outputs == b.outputs && a.halt_round == b.halt_round && a.rounds == b.rounds &&
         a.max_message_bytes == b.max_message_bytes &&
         a.total_message_bytes == b.total_message_bytes && a.messages_sent == b.messages_sent;
}

std::vector<Arrival> arrival_schedule(std::uint64_t seed, double interactive_rate,
                                      double bulk_period_s, double seconds,
                                      int interactive_tenants, int interactive_pool,
                                      int bulk_pool) {
  if (!(interactive_rate > 0.0) || !(bulk_period_s > 0.0) || interactive_tenants < 1 ||
      interactive_pool < 1 || bulk_pool < 1) {
    throw std::invalid_argument("arrival_schedule: rates, tenants and pools must be positive");
  }
  // Raw engine bits, not <random> distributions, so the schedule is the
  // same under every standard library.
  Rng rng(seed);
  const auto unit = [&rng] {
    return static_cast<double>(rng.engine()() >> 11) * 0x1.0p-53;  // [0, 1)
  };
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng.engine()() % static_cast<std::uint64_t>(n));
  };
  // A Poisson process conditioned on its count: round(rate · seconds)
  // arrivals at independent uniform times, so every seed offers the same
  // load and ops_per_s does not carry the count's sampling noise.
  std::vector<Arrival> arrivals(static_cast<std::size_t>(std::llround(interactive_rate * seconds)));
  for (Arrival& a : arrivals) {
    a.due_s = unit() * seconds;
    a.tenant = pick(interactive_tenants);
    a.graph = pick(interactive_pool);
  }
  int bulk = 0;
  for (double t = unit() * bulk_period_s; t < seconds; t += bulk_period_s, ++bulk) {
    Arrival a;
    a.due_s = t;
    a.bulk = true;
    a.graph = bulk % bulk_pool;
    arrivals.push_back(a);
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& x, const Arrival& y) { return x.due_s < y.due_s; });
  return arrivals;
}

}  // namespace perfbench
