// Synchronous message-passing engine for anonymous networks (§1.2).
//
// In every round each node, in parallel, (1) sends a message to each
// neighbour, (2) receives the neighbours' messages, and (3) updates its
// state.  After any round — including "round 0", before any communication —
// a node may halt and announce its local output.  Per the paper, an
// announced output is visible to neighbours; the engine models this by
// continuing to deliver a halted node's final announcement.
//
// The engine measures the running time as the maximum halting round over
// all nodes, which matches the paper's definition (greedy halts everyone by
// round k-1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "local/algorithm.hpp"

namespace dmm::local {

/// Messages are opaque byte strings; the model allows unbounded messages.
using Message = std::string;

class FaultPlan;          // faults.hpp
struct EngineCheckpoint;  // checkpoint.hpp
class ProgramPool;        // program_pool.hpp
class Runtime;            // runtime.hpp

/// Write side of one node's ports for one round.  Port p is the node's
/// p-th incident edge in increasing colour order — the row init received —
/// so ports() and colour() are plain reads of that row; only set() and
/// broadcast() reach the engine.  A message may be set at most once per
/// port per round; a port left unset reads as empty at the receiver.
class Outbox {
 public:
  int ports() const noexcept { return count_; }
  Colour colour(int port) const noexcept { return colours_[port]; }

  /// Stores `bytes` on `port`; throws std::out_of_range outside
  /// [0, ports()).
  void set(int port, std::string_view bytes) {
    if (port < 0 || port >= count_) throw std::out_of_range("Outbox::set: port out of range");
    write(port, bytes);
  }

  /// Same bytes on every port.
  void broadcast(std::string_view bytes) {
    for (int port = 0; port < count_; ++port) write(port, bytes);
  }

 protected:
  Outbox() = default;
  ~Outbox() = default;
  virtual void write(int port, std::string_view bytes) = 0;

  const Colour* colours_ = nullptr;
  int count_ = 0;
};

/// Read side of one node's ports for one round, indexed like Outbox.
/// at(port) is empty when the neighbour sent nothing (or is down or its
/// message was dropped), and the neighbour's halted_announcement once it
/// has halted.
class Inbox {
 public:
  int ports() const noexcept { return count_; }
  Colour colour(int port) const noexcept { return colours_[port]; }

  /// Throws std::out_of_range outside [0, ports()).  The view is valid
  /// until receive returns.
  std::string_view at(int port) const {
    if (port < 0 || port >= count_) throw std::out_of_range("Inbox::at: port out of range");
    return read(port);
  }

 protected:
  Inbox() = default;
  ~Inbox() = default;
  virtual std::string_view read(int port) const = 0;

  const Colour* colours_ = nullptr;
  int count_ = 0;
};

/// Per-node state machine.  Implementations must be anonymous: the only
/// instance information ever provided is the sorted list of incident edge
/// colours and the messages received on them (port p is the p-th colour,
/// which is how an anonymous node tells its ports apart in an
/// edge-coloured graph).  The same program runs unchanged on run_sync,
/// run_flat and, through pn::ColouredAdapter, the PN engine.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 1 with the node's initial knowledge: its
  /// `degree` incident colours, ascending.  The row stays valid and
  /// unchanged for the whole run on every engine, so a program may keep
  /// the pointer instead of copying.  May halt immediately (return true) —
  /// that is a running time of 0.
  virtual bool init(const Colour* incident, int degree) = 0;

  /// Writes this round's outgoing messages.  Only called while the node
  /// is running.
  virtual void send(int round, Outbox& out) = 0;

  /// Delivers this round's incoming messages.  Returns true to halt after
  /// this round.
  virtual bool receive(int round, const Inbox& in) = 0;

  /// The local output; valid once halted.
  virtual Colour output() const = 0;

  /// Sleep hint: the next round in which this node's send or receive can
  /// matter.  Engines ask after init (as round 0) and after every receive
  /// that does not halt.  The contract: in every round after `round` and
  /// before the hint, send writes nothing and receive neither changes state
  /// nor halts, whatever it reads — so waking a node early is always
  /// harmless.  run_flat steps a node only in the rounds it asked for, in
  /// the first round after a restore, and, if it was down when due, in the
  /// first round it is up again; run_sync ignores the hint and steps every
  /// running node, which makes the flat ≡ sync suites the soundness test
  /// of a hint.  A hint ≤ round means round + 1; a hint past max_rounds is
  /// clamped to it.  The default never sleeps.
  virtual int wake_round(int round) const { return round + 1; }

  // Checkpoint hooks (optional; checkpoint.hpp).  save_state serialises
  // everything the program's future behaviour depends on *beyond* what
  // init re-derives from the graph; load_state restores it after init ran
  // on a resumed engine.  The defaults throw std::logic_error, so
  // checkpointing a program that has not implemented them fails loudly
  // instead of resuming with silently reset state (greedy and flooding
  // implement both).
  virtual void save_state(std::string& out) const;
  virtual void load_state(std::string_view in);
};

inline constexpr char kHaltedPrefix = '!';

/// What a halted node announces to its neighbours in every later round:
/// kHaltedPrefix followed by its output in decimal ("!0" is ⊥).  The view
/// points into one static table of all 256 announcements, shared by both
/// engines and valid for the life of the program.
std::string_view halted_announcement(Colour output) noexcept;

/// How the engines build programs: one callable that appends programs for
/// `count` nodes to the pool, in node order, constructing them in place in
/// the pool's slab arena.  local::pooled<T>(args...) (program_pool.hpp)
/// covers homogeneous populations; a program with per-node parameters
/// passes a fill that emplaces one program per node index.
class ProgramSource {
 public:
  using Fill = std::function<void(std::size_t count, ProgramPool& pool)>;

  ProgramSource() = default;
  explicit ProgramSource(Fill fill) : fill_(std::move(fill)) {}

  /// Fills `pool` with programs for `count` nodes (program_pool.cpp).
  /// Throws std::logic_error when the source is empty or builds too few.
  void build(std::size_t count, ProgramPool& pool) const;

 private:
  Fill fill_;
};

struct RunResult {
  std::vector<Colour> outputs;    // per node; kUnmatched = ⊥
  std::vector<int> halt_round;    // per node
  int rounds = 0;                 // max halting round = running time
  // Message accounting — the paper notes (after Theorem 2) that the lower
  // bound allows unbounded messages while greedy needs only constant-size
  // ones; the engine measures that claim.
  std::size_t max_message_bytes = 0;
  std::size_t total_message_bytes = 0;
  std::size_t messages_sent = 0;
  // Fault accounting (faults.hpp): crash events applied, restarts applied,
  // and messages dropped in flight.  All zero on fault-free runs.  Part of
  // engine equivalence — both engines must agree on every faulty run.
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t messages_dropped = 0;
  // Wall-clock of the setup phase (program construction + init calls —
  // and, on the flat engine, CSR construction and the worker-pool spawn,
  // which also happen in the session constructor), the
  // part the pooled allocator exists to shrink; surfaced as `init_ms` in
  // the BENCH_*.json schema.  Not part of engine equivalence.
  double init_ns = 0.0;
  // Wall-clock of the send and receive phases summed over every round
  // (fault phase 0 and checkpoint sinks excluded), surfaced as
  // `send_ms`/`receive_ms` in the BENCH_*.json schema so the per-phase
  // bench gate can tell a regressed send path from a regressed gather.
  // Not part of engine equivalence.
  double send_ns = 0.0;
  double receive_ns = 0.0;
  // Worker threads created over the whole run.  A standalone flat engine
  // owns a private Runtime whose pool (threads − 1 workers beyond the
  // caller) it spawns exactly once, in the constructor, and parks between
  // phases, so this stays constant in the round count.  An engine on a
  // shared runtime (runtime.hpp) reports only the threads the pool spawned
  // on ITS behalf: the one session that triggered the lazy spawn reports
  // threads − 1, every other session 0 — so the sum over N sessions stays
  // threads − 1 (one pool per process).  0 on every serial path
  // (run_sync, threads = 1).  Not part of engine equivalence.
  std::size_t threads_spawned = 0;
  // Programs stepped (one send + receive each), summed over rounds: every
  // running node per round on run_sync, only the awake ones on run_flat
  // (NodeProgram::wake_round).  Counts the rounds simulated by this run
  // only, not those before a resumed checkpoint.  Not part of engine
  // equivalence.
  std::uint64_t node_steps = 0;
};

/// FNV-1a over the per-node outputs and halt rounds: the one-line
/// fingerprint of a run's simulated behaviour.
std::uint64_t outputs_fnv(const RunResult& run);

/// Fault injection for a run: a borrowed FaultPlan (faults.hpp).  The plan
/// must outlive the run; nullptr or an empty plan means a fault-free run.
struct FaultOptions {
  const FaultPlan* plan = nullptr;
};

/// Checkpointing for a run (checkpoint.hpp).  When `every` > 0 and `sink`
/// is set, the engine hands a full EngineCheckpoint to `sink` after every
/// `every`-th completed round (while any node is still running).  `resume`
/// restores a previously captured checkpoint before the first round; the
/// run then continues at checkpoint.round + 1 and — given the same graph,
/// program and fault plan — finishes with a RunResult bit-identical to the
/// uninterrupted run's (tests/test_faults.cpp).
struct CheckpointOptions {
  int every = 0;
  std::function<void(const EngineCheckpoint&)> sink;
  const EngineCheckpoint* resume = nullptr;
};

/// Everything a run is parameterised by, in one struct.  Implicit from
/// max_rounds, so `run_sync(g, source, 8)` reads as it always did.
struct RunOptions {
  RunOptions(int max_rounds = 0) : max_rounds(max_rounds) {}  // NOLINT(google-explicit-constructor)

  /// Throw after this many rounds without global halt (a distributed
  /// algorithm that does not halt is a bug).  Must be positive.
  int max_rounds = 0;
  FaultOptions faults;
  CheckpointOptions checkpoint;
};

/// A round-stepped engine run.  A session is created primed (programs
/// built, init delivered, any checkpoint resumed); each step() simulates
/// exactly one synchronous round — send, receive, update, plus that
/// round's fault events and checkpoint sink.  When done(), result() moves
/// the finished RunResult out (call it once).
///
/// The run-to-completion entry points (run_sync / run_flat / run) are thin
/// loops over a session, so a stepped run is bit-identical to a closed
/// one — which is what lets a scheduler interleave steps of many sessions
/// in any order and still hand every caller the standalone result
/// (svc/service.hpp builds exactly that; tests/test_service.cpp pins it).
class Session {
 public:
  virtual ~Session() = default;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Simulates one round.  Throws (like the closed loops) when the round
  /// would exceed max_rounds, and propagates program exceptions.  Must not
  /// be called once done().
  virtual void step() = 0;

  /// True once every node has halted (or died permanently).
  virtual bool done() const noexcept = 0;

  /// The last completed round (0 before the first step).
  virtual int round() const noexcept = 0;

  /// Moves the finished RunResult out; valid once done(), once.
  virtual RunResult result() = 0;

 protected:
  Session() = default;
};

/// A round-stepped run_sync (the reference oracle, stepwise).
std::unique_ptr<Session> make_sync_session(const graph::EdgeColouredGraph& g,
                                           const ProgramSource& source,
                                           const RunOptions& options);

/// Runs one copy of the program on every node until all have halted or
/// options.max_rounds is exceeded (which throws — a distributed algorithm
/// that does not halt is a bug), under the options' faults and
/// checkpointing.
RunResult run_sync(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options);

/// The library's simulation engines.  kSync is the reference oracle
/// (per-round message containers, engine.cpp); kFlat is the high-throughput
/// CSR message plane (flat_engine.cpp).  The two are required to agree on
/// every RunResult field for every program.
enum class EngineKind {
  kSync,
  kFlat,
};

/// Dispatches to run_sync or run_flat (with default engine options).
RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, const RunOptions& options);

/// "sync" / "flat".
const char* engine_kind_name(EngineKind kind) noexcept;

/// Inverse of engine_kind_name; nullopt for anything else.
std::optional<EngineKind> parse_engine_kind(std::string_view name) noexcept;

}  // namespace dmm::local
