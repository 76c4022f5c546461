// High-throughput simulation engine over a flat CSR message plane.
//
// run_flat simulates the same synchronous model as run_sync (engine.hpp)
// but replaces the per-round inbox containers with per-edge message slots
// in one contiguous, round-stamped buffer (the stamp subsumes the classic
// send/recv double-buffer swap: last round's slots read as absent):
//
//   * one 8-byte slot per directed edge, laid out sender-major so the send
//     phase streams sequentially and the plane stays cache-resident even
//     at millions of edges.  The session's colour-sorted CSR (port colour
//     and peer per slot) is copied from the graph's adjacency rows in one
//     sequential pass, each row insertion-sorted by colour as it lands
//     (rows of an edited graph are not in colour order);
//   * messages up to kFlatInlineBytes live inline in the slot, the
//     unbounded tail spills to a per-worker side arena (the model allows
//     unbounded messages — flooding programs exercise this path);
//   * programs see the slots through the port ABI (Outbox/Inbox,
//     engine.hpp); inboxes resolve lazily, so a program that reads one
//     port pays for one gather, not deg(v);
//   * a read of a halted node's port returns halted_announcement(output),
//     a view into one static table of all 256 announcements (engine.hpp),
//     so a run renders no announcement;
//   * a round steps only its awake nodes (NodeProgram::wake_round): every
//     running node sits in exactly one wake bucket, and a round's send and
//     receive phases walk the list drawn from its bucket instead of all n
//     nodes.  A sleeping node writes nothing, so its slots read as absent
//     exactly as run_sync's do for a node that sent nothing;
//   * the send and receive phases optionally run on the persistent worker
//     pool of a Runtime (runtime.hpp) — a shared one, or, for a standalone
//     run, a private one sized to options.threads whose pool is spawned
//     once, when the run is set up, parked on a condition-variable barrier
//     between phases, and joined when the run ends.  Each round's awake
//     list is split into chunks of roughly equal *slot* (directed-edge)
//     weight, so a run of max-degree hub rows does not serialise one
//     worker, and every worker claims chunks from one shared atomic cursor
//     until the round's queue is dry.  Writes stay per-slot disjoint — a
//     chunk is claimed by exactly one worker per phase — so no locks are
//     taken on the plane itself.
//
// Results are bit-identical to run_sync for every thread count and chunk
// size: all racy-looking state (message stats, spill arenas, newly-halted
// batches) is worker-indexed and merged with commutative folds.  run_sync
// stays the reference oracle: tests/test_flat_engine.cpp checks the two
// engines produce identical RunResult fields (outputs, halt rounds,
// message accounting) for every algorithm in the library, and
// tests/test_flat_stress.cpp re-checks that across a schedule-perturbation
// grid (threads × chunk_slots).  Like run_sync, a run is one stepped
// Session (engine.hpp): run_flat is construct + step to completion +
// result(), checkpoints leave through RunOptions::checkpoint.sink and
// resume through RunOptions::checkpoint.resume.
#pragma once

#include "local/engine.hpp"
#include "local/program_pool.hpp"
#include "local/runtime.hpp"

namespace dmm::local {

/// Messages at most this long are stored inline in the slot buffer (slots
/// are 8 bytes, so the whole plane stays cache-resident even at a million
/// edges); longer ones spill to the arena.
inline constexpr std::size_t kFlatInlineBytes = 6;

/// Spill payloads are addressed by a 40-bit byte offset plus an 8-bit
/// worker-arena index packed into the 6 payload bytes of the slot, so a
/// single worker arena may hold up to 1 TiB before the engine refuses —
/// with an explicit length_error, never a silent 32-bit wrap.
inline constexpr std::uint64_t kMaxSpillOffset = (std::uint64_t{1} << 40) - 1;

/// Hard cap on flat-engine workers (the spill arena index is one byte);
/// the shared runtime carries the same cap for the same reason.
inline constexpr int kMaxFlatWorkers = kMaxRuntimeWorkers;

struct FlatEngineOptions {
  /// Workers for the send/receive phases; 1 (the default) runs in-line on
  /// the calling thread.  Values above the node count or kMaxFlatWorkers
  /// are clamped; results are identical for every value.
  int threads = 1;
  /// Target slot (directed-edge) weight per work chunk of a round's awake
  /// list.  0 (the default) auto-sizes to roughly 16 chunks per worker,
  /// floored so small rounds do not shatter into per-node chunks.  Smaller
  /// chunks balance skewed degree distributions at the price of more
  /// atomic claims; results are identical for every value
  /// (tests/test_flat_stress.cpp).
  std::size_t chunk_slots = 0;
};

/// Exclusive prefix sum of per-node degrees into the CSR row offsets used
/// by the flat engine's slot plane.  Accumulates in std::size_t from the
/// first addition, so an n·Δ slot count beyond 2³¹ cannot wrap — pinned by
/// the 64-bit regression test in tests/test_flat_engine.cpp.  Throws
/// std::invalid_argument on a negative degree.
std::vector<std::size_t> flat_row_offsets(const std::vector<int>& degrees);

/// Slot index of `port` within the row starting at `row`; the port is
/// widened before the addition.
constexpr std::size_t flat_slot(std::size_t row, int port) noexcept {
  return row + static_cast<std::size_t>(port);
}

/// run_sync's model on the flat message plane; RunResults are identical.
/// Runs under the options' faults and checkpointing: a checkpoint captured
/// by either engine resumes here through options.checkpoint.resume (it
/// throws CheckpointError when captured on another instance).  `runtime`
/// (optional) is a shared pool, borrowed for the run; without one the run
/// owns a private pool of engine_options.threads workers.
RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options, const FlatEngineOptions& engine_options = {},
                   Runtime* runtime = nullptr);

/// A round-stepped flat run, optionally multiplexed on a shared Runtime.
/// The graph, fault plan and runtime are borrowed and must outlive the
/// session.
std::unique_ptr<Session> make_flat_session(const graph::EdgeColouredGraph& g,
                                           const ProgramSource& source,
                                           const RunOptions& options,
                                           const FlatEngineOptions& engine_options = {},
                                           Runtime* runtime = nullptr);

/// Engine-dispatching session factory with default engine options: a flat
/// session takes its worker count from `runtime` (serial without one);
/// kSync ignores runtime — the reference engine is always serial.
std::unique_ptr<Session> make_session(EngineKind kind, const graph::EdgeColouredGraph& g,
                                      const ProgramSource& source, const RunOptions& options,
                                      Runtime* runtime = nullptr);

}  // namespace dmm::local
