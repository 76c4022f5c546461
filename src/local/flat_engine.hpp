// High-throughput simulation engine over a flat CSR message plane.
//
// run_flat simulates the same synchronous model as run_sync (engine.hpp)
// but replaces the per-round inbox containers with per-edge message slots
// in one contiguous, round-stamped buffer (the stamp subsumes the classic
// send/recv double-buffer swap: last round's slots read as absent):
//
//   * one 8-byte slot per directed edge, laid out sender-major so the send
//     phase streams sequentially and the plane stays cache-resident even
//     at millions of edges;
//   * messages up to kFlatInlineBytes live inline in the slot, the
//     unbounded tail spills to a per-worker side arena (the model allows
//     unbounded messages — flooding programs exercise this path);
//   * programs see the slots through the port ABI (Outbox/Inbox,
//     engine.hpp); inboxes resolve lazily, so a program that reads one
//     port pays for one gather, not deg(v);
//   * a halted node's announcement is rendered once, when it halts — and
//     only if a still-running neighbour can read it — then served from
//     that cache in every later round;
//   * a round steps only its awake nodes (NodeProgram::wake_round): every
//     running node sits in exactly one wake bucket, and a round's send and
//     receive phases walk the list drawn from its bucket instead of all n
//     nodes.  A sleeping node writes nothing, so its slots read as absent
//     exactly as run_sync's do for a node that sent nothing;
//   * the send and receive phases optionally run on the persistent worker
//     pool of a Runtime (runtime.hpp) — a shared one, or, for a standalone
//     engine, a private one sized to options.threads whose pool is spawned
//     once in the constructor, parked on a condition-variable barrier
//     between phases, and joined in the destructor.  Each round's awake
//     list is split into chunks of roughly equal *slot* (directed-edge)
//     weight, so a run of max-degree hub rows does not serialise one
//     worker, and workers that exhaust their own chunk run steal the
//     remainder of the others' (options.steal).  Writes stay per-slot
//     disjoint — a chunk is claimed by exactly one worker per phase — so
//     no locks are taken on the plane itself.
//
// Results are bit-identical to run_sync for every thread count, chunk
// size and steal setting: all racy-looking state (message stats, spill
// arenas, newly-halted batches) is worker-indexed and merged with
// commutative folds.  run_sync stays the reference oracle:
// tests/test_flat_engine.cpp checks the two engines produce identical
// RunResult fields (outputs, halt rounds, message accounting) for every
// algorithm in the library, and tests/test_flat_stress.cpp re-checks that
// across a schedule-perturbation grid (threads × chunk_slots × steal).
#pragma once

#include <iosfwd>

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

/// Running totals for the paper's message-size accounting, one per worker.
/// Cache-line aligned: every send updates it, and unpadded adjacent
/// workers would false-share a line on each message.
struct alignas(64) MessageStats {
  std::size_t max_bytes = 0;
  std::size_t total_bytes = 0;
  std::size_t sent = 0;
};

struct FlatPlane;  // flat_engine.cpp
class FlatInbox;   // flat_engine.cpp

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
  /// When true (the default) a worker that drains its own chunk run keeps
  /// going on the other workers' remaining chunks, so a worker stuck on a
  /// hub-heavy run cannot leave the rest idle.  Results are identical
  /// either way.
  bool steal = true;
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

/// The engine object behind run_flat, exposed so a run can be checkpointed
/// and resumed (checkpoint.hpp): construct once (CSR build, chunk planning,
/// worker-pool spawn), then either run() to completion — optionally under a
/// FaultPlan, with a CheckpointOptions sink observing round boundaries — or
/// restore() a previously captured checkpoint and run() the remainder.
/// Programs are built from the source (held by value) on every run.
/// Checkpoints are engine-agnostic: a FlatEngine restores what run_sync
/// captured and vice versa (tests/test_faults.cpp).
class FlatEngine {
 public:
  /// Every engine runs on a Runtime's pool and spill arenas, and takes its
  /// borrow lock for each round step.  With `runtime` == nullptr the
  /// engine owns a private Runtime sized to options.threads (after the
  /// clamp) and spawns its pool here.  With a shared runtime the worker
  /// count comes from runtime->threads() and nothing is spawned here (the
  /// runtime spawns its pool lazily, once per process), so many concurrent
  /// sessions multiplex on one pool (runtime.hpp).
  FlatEngine(const graph::EdgeColouredGraph& g, ProgramSource source,
             const FlatEngineOptions& options = {}, Runtime* runtime = nullptr);
  ~FlatEngine();

  FlatEngine(const FlatEngine&) = delete;
  FlatEngine& operator=(const FlatEngine&) = delete;

  /// Runs to completion.  When the engine was primed by restore(), the run
  /// continues at checkpoint.round + 1 and finishes with a RunResult
  /// bit-identical to the uninterrupted run's.  Implemented as
  /// begin() + step() to completion + finish() — the stepped API below is
  /// the engine; this is the thin loop.
  RunResult run(const RunOptions& options);

  // Stepped session API (engine.hpp::Session wraps it via
  // make_flat_session).  begin() primes a run: applies the options'
  // fault plan, restores any checkpoint, builds programs and delivers
  // init.  Each step() then simulates exactly one round (including that
  // round's fault events and checkpoint sink); finish() moves the
  // RunResult out once done().
  void begin(const RunOptions& options);
  void step();
  bool done() const noexcept { return running_ == 0; }
  int round() const noexcept { return round_; }
  RunResult finish();

  /// The engine state after the last completed round, as the same
  /// engine-agnostic checkpoint run_sync captures; checkpoint() writes it
  /// to `out` in the checksummed io/serialize frame format.  Only valid
  /// while a run is in progress (i.e. from a CheckpointOptions sink).
  EngineCheckpoint snapshot();
  void checkpoint(std::ostream& out);

  /// Primes the engine with a checkpoint captured on the same instance (by
  /// either engine); throws CheckpointError on a fingerprint mismatch and
  /// io::CorruptFrameError on byte damage.  The next run() resumes it.
  void restore(const EngineCheckpoint& cp);
  void restore(std::istream& in);

 private:
  friend class FlatInbox;

  /// Lazy inbox resolution (Inbox::at): the message delivered into
  /// receiver slot s this round.  The sender's slot is found by a binary
  /// search of its (tiny, colour-sorted) row — programs typically read far
  /// fewer ports than there are slots, so no in-slot table is kept.  Under
  /// faults this is also where delivery is masked: a down sender reads as
  /// absent, and a dropped message reads as absent without the sender's
  /// slot ever being touched.
  std::string_view resolve(const FlatPlane& plane, std::size_t s,
                           std::uint8_t stamp) const noexcept;

  void build_csr();

  int degree(graph::NodeIndex v) const noexcept {
    return static_cast<int>(row_[static_cast<std::size_t>(v) + 1] -
                            row_[static_cast<std::size_t>(v)]);
  }

  /// Builds programs and per-run state; `cp` != nullptr overlays a restored
  /// checkpoint (init still runs — programs re-derive graph-shaped state —
  /// then load_state overwrites the dynamic part).
  void initialise(const EngineCheckpoint* cp);
  void step_round(int round);

  std::string_view slot_view(const FlatPlane& plane, std::size_t s,
                             std::uint8_t stamp) const noexcept;
  void halt(graph::NodeIndex v, int round);
  void merge_stats();  // folds the per-worker message stats into result_
  void render_announcement(graph::NodeIndex v);
  void wipe_running_rows();
  void schedule(graph::NodeIndex v, int hint, int now);
  void wake(int round);
  void plan_chunks();
  template <class F>
  void for_chunks(const F& fn);
  template <class F>
  void drain(int victim, int worker, const F& fn);

  struct Chunk {
    std::size_t begin;  // [begin, end) indexes awake_
    std::size_t end;
    std::size_t weight;  // slots + nodes
  };
  struct ChunkCursor;  // cache-line-isolated atomic claim cursor (flat_engine.cpp)

  const graph::EdgeColouredGraph& g_;
  ProgramSource source_;
  int max_rounds_ = 0;
  int n_ = 0;
  int workers_ = 1;
  std::size_t chunk_slots_ = 0;
  bool steal_ = true;
  double build_ns_ = 0.0;

  // Chunk plan of the current round (workers_ > 1 only): contiguous
  // ranges of awake_ of roughly equal slot weight, split into one
  // contiguous run per worker.
  std::vector<Chunk> chunks_;
  std::vector<std::int64_t> run_begin_;
  std::vector<std::int64_t> run_end_;
  std::unique_ptr<ChunkCursor[]> cursors_;
  std::unique_ptr<Runtime> own_runtime_;  // standalone engines only
  Runtime* runtime_ = nullptr;            // pool + arenas, borrowed per step
  std::size_t spawned_ = 0;               // threads own_runtime_ spawned

  std::vector<std::size_t> row_;             // n+1 offsets, sender-major CSR
  std::vector<Colour> port_colour_;          // per slot
  std::vector<graph::NodeIndex> peer_node_;  // per slot: the port's neighbour

  // Declared after the CSR vectors: programs may keep init's pointer into
  // port_colour_, so the pool (and its destructors) must go first.
  ProgramPool pool_;

  // Per-run state, owned by the engine so snapshot()/restore() can reach
  // it between rounds.
  RunResult result_;
  int running_ = 0;
  int round_ = 0;  // last completed round
  bool primed_ = false;
  bool planes_ready_ = false;
  std::vector<MessageStats> stats_;  // per worker, folded into result_ by merge_stats
  std::vector<std::vector<graph::NodeIndex>> newly_halted_;  // per worker
  std::vector<char> halted_;
  std::vector<char> down_;  // includes dead nodes (a dead node stays down)
  std::vector<char> dead_;
  std::vector<std::string> announcements_;
  std::unique_ptr<FlatPlane> plane_;

  // Wake buckets: one intrusive list per slot of a kWakeRing-round ring,
  // so memory is O(n + ring) whatever the hints or max_rounds.  A node
  // waking more than a ring ahead is parked at the ring's far end and
  // re-parked when that slot comes up, without being stepped.
  static constexpr int kWakeRing = 256;
  std::vector<int> wake_at_;                 // per node: its wake round
  std::vector<graph::NodeIndex> wake_next_;  // per node: bucket list link
  std::vector<graph::NodeIndex> wake_head_;  // per ring slot, -1 = empty
  std::vector<graph::NodeIndex> awake_;      // the current round's stepped nodes

  // Fault context of the current run (set by begin(), read by resolve()).
  const FaultPlan* plan_ = nullptr;
  bool faulty_ = false;
  bool drop_mask_ = false;
  int round_now_ = 0;
  std::size_t ev_ = 0;  // fault-event cursor

  // Checkpoint sink of the current run (set by begin(), fired by step()).
  int every_ = 0;
  std::function<void(const EngineCheckpoint&)> sink_;
};

/// run_sync's model on the flat message plane; RunResults are identical.
/// `runtime` (optional) is a shared pool, borrowed for the run.
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

/// Engine-dispatching session factory (kSync ignores engine_options and
/// runtime — the reference engine is always serial).
std::unique_ptr<Session> make_session(EngineKind kind, const graph::EdgeColouredGraph& g,
                                      const ProgramSource& source, const RunOptions& options,
                                      const FlatEngineOptions& engine_options = {},
                                      Runtime* runtime = nullptr);

}  // namespace dmm::local
