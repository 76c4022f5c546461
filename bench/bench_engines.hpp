// Shared helper for the engine-aware benches (e1, e2, e5, e9, e14): run a
// NodeProgram on the chosen engine, time it, and append the BENCH_*.json
// record with the run's own rounds/message accounting.
#pragma once

#include <string>

#include "bench_json.hpp"
#include "core/dmm.hpp"

namespace dmm::benchjson {

/// local::outputs_fnv as a record value: the top 53 bits, so the value
/// stays an exact double in the JSON file.
inline double outputs_fingerprint(const local::RunResult& run) {
  return static_cast<double>(local::outputs_fnv(run) >> 11);
}

/// The fault counters are recorded only when `run_options` carries a fault
/// plan: a fault-free row does not measure them.
inline local::RunResult record_engine_run(Harness& harness, const std::string& instance,
                                          const graph::EdgeColouredGraph& g,
                                          local::EngineKind kind,
                                          const local::ProgramSource& source,
                                          const local::RunOptions& run_options,
                                          const local::FlatEngineOptions& options = {}) {
  Record record;
  record.instance = instance;
  record.engine = local::engine_kind_name(kind);
  // Sync is always serial; flat rows record the requested worker count so
  // the baseline gate can key rows by (instance, engine, threads).
  record.threads = kind == local::EngineKind::kFlat ? options.threads : 1;
  local::RunResult run;
  const double wall_ns = Harness::time_ns([&] {
    run = kind == local::EngineKind::kFlat ? local::run_flat(g, source, run_options, options)
                                           : local::run_sync(g, source, run_options);
  });
  record.set("n", g.node_count())
      .set("m", g.edge_count())
      .set("k", g.k())
      .set("rounds", run.rounds)
      .set("wall_ns", wall_ns)
      .set("max_message_bytes", run.max_message_bytes)
      .set("init_ms", run.init_ns / 1e6)
      .set("rss_bytes", peak_rss_bytes())
      .set("send_ms", run.send_ns / 1e6)
      .set("receive_ms", run.receive_ns / 1e6);
  if (run_options.faults.plan != nullptr) {
    record.set("crashes", run.crashes)
        .set("restarts", run.restarts)
        .set("messages_dropped", run.messages_dropped);
  }
  harness.add(std::move(record));
  return run;
}

}  // namespace dmm::benchjson
