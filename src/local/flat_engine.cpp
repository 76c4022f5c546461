#include "local/flat_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "local/checkpoint.hpp"
#include "local/faults.hpp"

namespace dmm::local {

namespace {

/// Slot length value meaning "the payload spilled to the arena".
constexpr std::uint8_t kSpillLen = 0xff;

/// Auto chunking (FlatEngineOptions::chunk_slots == 0): aim for this many
/// chunks per worker so the tail imbalance of the last chunks stays a
/// small fraction of a phase, with a floor so small rounds do not shatter
/// into per-node chunks whose claim overhead exceeds their work.
constexpr std::size_t kChunksPerWorker = 16;
constexpr std::size_t kMinAutoChunkSlots = 1024;

double phase_elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - since)
                                 .count());
}

/// Running totals for the paper's message-size accounting, one per worker.
/// Cache-line aligned: every send updates it, and unpadded adjacent
/// workers would false-share a line on each message.
struct alignas(64) MessageStats {
  std::size_t max_bytes = 0;
  std::size_t total_bytes = 0;
  std::size_t sent = 0;
};

/// One directed-edge message slot, sender-major: node v's outgoing message
/// on its i-th port lives at slot row[v] + i, so the send phase streams
/// sequentially and only the receive phase gathers.  A slot is live only
/// when its stamp equals the current round's 8-bit tag, which makes
/// clearing the plane between rounds unnecessary (the engine wipes the
/// plane once per 255-round tag cycle instead).  Payloads up to
/// kFlatInlineBytes live inline — 8 slots per cache line, so even a
/// million-edge plane stays cache-resident; longer payloads spill to the
/// writing worker's arena, addressed by the {offset, arena} pair stored in
/// the payload bytes.
struct FlatSlot {
  std::uint8_t stamp = 0;  // 0 = never written; round tags are 1..255
  std::uint8_t len = 0;    // inline length, or kSpillLen
  char payload[kFlatInlineBytes];
};
static_assert(sizeof(FlatSlot) == 8, "eight slots per cache line");
static_assert(kFlatInlineBytes >= 6, "payload must hold a spill {offset, arena} pair");

struct FlatPlane {
  std::vector<FlatSlot> slots;
  // Spill for unbounded messages: the runtime's per-worker arenas.  Spills
  // are round-scoped scratch (cleared by new_round, read only within the
  // same step, never reachable from a stale-stamped slot), and the
  // runtime's borrow lock spans the whole step, so sharing them across
  // sessions is safe and keeps the steady-state footprint one arena set
  // per runtime, not per session.
  std::vector<std::vector<char>>* arenas = nullptr;

  void configure(std::size_t slot_count, std::vector<std::vector<char>>& runtime_arenas) {
    slots.assign(slot_count, FlatSlot{});
    arenas = &runtime_arenas;
  }

  /// Arena capacity is kept, so steady-state rounds allocate nothing; the
  /// slots themselves are invalidated by the round stamp, not by clearing.
  void new_round() {
    for (auto& arena : *arenas) arena.clear();
  }
};

/// The flat engine's outbox: writes straight into the sender's own slot
/// row.  One per chunk; at_node() rebinds it to the next sender, so the
/// send phase allocates nothing beyond spills.
class FlatOutbox final : public Outbox {
 public:
  FlatOutbox(FlatPlane& plane, int worker, std::uint8_t stamp, MessageStats& stats)
      : plane_(plane),
        arena_(static_cast<std::uint8_t>(worker)),
        stamp_(stamp),
        stats_(stats) {}

  void at_node(std::size_t base, const Colour* colours, int count) noexcept {
    base_ = base;
    colours_ = colours;
    count_ = count;
  }

 private:
  void write(int port, std::string_view bytes) override {
    stats_.max_bytes = std::max(stats_.max_bytes, bytes.size());
    stats_.total_bytes += bytes.size();
    ++stats_.sent;
    FlatSlot& slot = plane_.slots[flat_slot(base_, port)];
    slot.stamp = stamp_;
    if (bytes.size() <= kFlatInlineBytes) {
      slot.len = static_cast<std::uint8_t>(bytes.size());
      if (!bytes.empty()) std::memcpy(slot.payload, bytes.data(), bytes.size());
      return;
    }
    if (bytes.size() > 0xffffffffu) {
      throw std::length_error("Outbox::set: message too long");
    }
    std::vector<char>& arena = (*plane_.arenas)[arena_];
    const std::uint64_t off = arena.size();  // byte cursor: always 64-bit
    if (off > kMaxSpillOffset) {
      throw std::length_error("Outbox::set: spill arena exceeds the 40-bit offset space");
    }
    const auto len = static_cast<std::uint32_t>(bytes.size());
    arena.resize(arena.size() + sizeof(len) + bytes.size());
    std::memcpy(arena.data() + off, &len, sizeof(len));
    std::memcpy(arena.data() + off + sizeof(len), bytes.data(), bytes.size());
    slot.len = kSpillLen;
    // {offset:40, arena:8} packed little-endian byte by byte (portable).
    for (int i = 0; i < 5; ++i) {
      slot.payload[i] = static_cast<char>((off >> (8 * i)) & 0xff);
    }
    slot.payload[5] = static_cast<char>(arena_);
  }

  FlatPlane& plane_;
  std::size_t base_ = 0;  // first slot of the node's own row
  std::uint8_t arena_;    // spill arena of the writing worker (≤ 256 workers)
  std::uint8_t stamp_;    // current round: stamps written slots live
  MessageStats& stats_;
};

class FlatSession;

/// The flat engine's inbox: a lazy view over the peers' slots (the
/// session's resolve() does the gather).  One per chunk, rebound per node.
class FlatInbox final : public Inbox {
 public:
  FlatInbox(const FlatSession& session, std::uint8_t stamp)
      : session_(session), stamp_(stamp) {}

  void at_node(std::size_t row, const Colour* colours, int count) noexcept {
    row_ = row;
    colours_ = colours;
    count_ = count;
  }

 private:
  std::string_view read(int port) const override;

  const FlatSession& session_;
  std::size_t row_ = 0;  // first slot of the receiving node's row
  std::uint8_t stamp_;
};

/// A claim cursor on a line of its own: every worker fetch_adds it, and a
/// neighbouring field on the same line would bounce with each claim.
struct alignas(64) ChunkCursor {
  std::atomic<std::size_t> next{0};
};

/// run_flat, stepwise.  The constructor is the setup phase (CSR build,
/// worker-pool spawn, program construction, init delivery, checkpoint
/// resume); step() is one round.  run_flat itself is a thin loop over this
/// class, exactly as run_sync is over SyncSession (engine.cpp), so a
/// stepped run is the closed run.
class FlatSession final : public Session {
 public:
  /// Every session runs on a Runtime's pool and spill arenas, and takes its
  /// borrow lock for each round step.  With `runtime` == nullptr the
  /// session owns a private Runtime sized to engine_options.threads (after
  /// the clamp) and spawns its pool here.  With a shared runtime the worker
  /// count comes from runtime->threads() and nothing is spawned here (the
  /// runtime spawns its pool lazily, once per process), so many concurrent
  /// sessions multiplex on one pool (runtime.hpp).
  FlatSession(const graph::EdgeColouredGraph& g, const ProgramSource& source,
              const RunOptions& options, const FlatEngineOptions& engine_options,
              Runtime* runtime);

  void step() override;
  bool done() const noexcept override { return running_ == 0; }
  int round() const noexcept override { return round_; }
  RunResult result() override;

  /// Lazy inbox resolution (Inbox::at): the message delivered into
  /// receiver slot s this round.  The sender's slot is found by a binary
  /// search of its (tiny, colour-sorted) row — programs typically read far
  /// fewer ports than there are slots, so no in-slot table is kept.  Under
  /// faults this is also where delivery is masked: a down sender reads as
  /// absent, and a dropped message reads as absent without the sender's
  /// slot ever being touched.
  std::string_view resolve(std::size_t s, std::uint8_t stamp) const noexcept;

 private:
  void build_csr();

  int degree(graph::NodeIndex v) const noexcept {
    return static_cast<int>(row_[static_cast<std::size_t>(v) + 1] -
                            row_[static_cast<std::size_t>(v)]);
  }

  void step_round(int round);

  std::string_view slot_view(std::size_t s, std::uint8_t stamp) const noexcept;
  void halt(graph::NodeIndex v, int round);
  void merge_stats();  // folds the per-worker message stats into result_
  void wipe_running_rows();
  void schedule(graph::NodeIndex v, int hint, int now);
  void wake(int round);
  void plan_chunks();
  template <class F>
  void for_chunks(const F& fn);

  struct Chunk {
    std::size_t begin;  // [begin, end) indexes awake_
    std::size_t end;
  };

  const graph::EdgeColouredGraph& g_;
  int n_;
  int max_rounds_;
  int workers_ = 1;
  std::size_t chunk_slots_;

  // Chunk plan of the current round (workers_ > 1 only): contiguous
  // ranges of awake_ of roughly equal slot weight, claimed in order
  // through one shared cursor.
  std::vector<Chunk> chunks_;
  ChunkCursor next_chunk_;
  std::unique_ptr<Runtime> own_runtime_;  // standalone sessions only
  Runtime* runtime_;                      // pool + arenas, borrowed per step

  std::vector<std::size_t> row_;             // n+1 offsets, sender-major CSR
  std::vector<Colour> port_colour_;          // per slot
  std::vector<graph::NodeIndex> peer_node_;  // per slot: the port's neighbour

  // Declared after the CSR vectors: programs may keep init's pointer into
  // port_colour_, so the pool (and its destructors) must go first.
  ProgramPool pool_;

  RunResult result_;
  int running_ = 0;
  int round_ = 0;  // last completed round
  bool planes_ready_ = false;
  std::vector<MessageStats> stats_;  // per worker, folded into result_ by merge_stats
  std::vector<std::vector<graph::NodeIndex>> newly_halted_;  // per worker
  std::vector<char> halted_;
  std::vector<char> down_;  // includes dead nodes (a dead node stays down)
  std::vector<char> dead_;
  FlatPlane plane_;

  // Wake buckets: one intrusive list per slot of a kWakeRing-round ring,
  // so memory is O(n + ring) whatever the hints or max_rounds.  A node
  // waking more than a ring ahead is parked at the ring's far end and
  // re-parked when that slot comes up, without being stepped.
  static constexpr int kWakeRing = 256;
  std::vector<int> wake_at_;                 // per node: its wake round
  std::vector<graph::NodeIndex> wake_next_;  // per node: bucket list link
  std::vector<graph::NodeIndex> wake_head_;  // per ring slot, -1 = empty
  std::vector<graph::NodeIndex> awake_;      // the current round's stepped nodes

  // Fault context of the run (read by resolve()).
  const FaultPlan* plan_ = nullptr;
  bool drop_mask_ = false;
  int round_now_ = 0;
  std::size_t ev_ = 0;  // fault-event cursor

  // Checkpoint sink of the run (fired by step()).
  int every_;
  std::function<void(const EngineCheckpoint&)> sink_;
};

std::string_view FlatInbox::read(int port) const {
  return session_.resolve(flat_slot(row_, port), stamp_);
}

FlatSession::FlatSession(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                         const RunOptions& options, const FlatEngineOptions& engine_options,
                         Runtime* runtime)
    : g_(g),
      n_(g.node_count()),
      max_rounds_(options.max_rounds),
      chunk_slots_(engine_options.chunk_slots),
      runtime_(runtime),
      every_(options.checkpoint.every),
      sink_(options.checkpoint.sink) {
  plan_ = (options.faults.plan != nullptr && !options.faults.plan->empty())
              ? options.faults.plan
              : nullptr;
  if (plan_ != nullptr) plan_->require_fits(n_);
  drop_mask_ = plan_ != nullptr && plan_->has_drops();
  const EngineCheckpoint* cp = options.checkpoint.resume;
  if (cp != nullptr) cp->require_matches(g_);

  // Everything from here on — CSR construction, spawning a private pool,
  // program construction and init — is setup work, timed into init_ns.
  const auto init_start = std::chrono::steady_clock::now();
  // Worker clamp: never more workers than nodes, never more than the
  // one-byte spill-arena index can address, and never fewer than one.  A
  // shared runtime fixes the worker budget (its pool is process-wide and
  // fixed-size); a standalone session takes it from engine_options.threads.
  const int budget = runtime_ != nullptr ? runtime_->threads() : engine_options.threads;
  workers_ = std::max(1, std::min(budget, kMaxFlatWorkers));
  if (workers_ > n_) workers_ = std::max(1, n_);
  build_csr();
  if (runtime_ == nullptr) {
    // A standalone session owns a runtime of exactly its worker count and
    // spawns the pool now, once — per-round thread creations are zero by
    // construction, and threads_spawned stays workers − 1.
    own_runtime_ = std::make_unique<Runtime>(workers_);
    runtime_ = own_runtime_.get();
    result_.threads_spawned = runtime_->ensure_pool();
  }

  const auto n = static_cast<std::size_t>(n_);
  result_.outputs.assign(n, kUnmatched);
  result_.halt_round.assign(n, -1);
  halted_.assign(n, 0);
  down_.assign(n, 0);
  dead_.assign(n, 0);

  // Batch-construct every program in the pool's arena, then hand each
  // node a pointer straight into its CSR colour row — no per-node vector
  // is materialised.
  pool_.reserve(n);
  source.build(n, pool_);
  running_ = n_;
  wake_at_.assign(n, 0);
  wake_next_.assign(n, -1);
  wake_head_.assign(kWakeRing, -1);
  if (cp != nullptr) {
    // init still runs on every node — programs re-derive graph-shaped
    // state from it; the round-0 halt decisions it reports are already in
    // the checkpoint, and apply_checkpoint overwrites the dynamic state.
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      const std::size_t begin = row_[static_cast<std::size_t>(v)];
      pool_[static_cast<std::size_t>(v)]->init(port_colour_.data() + begin, degree(v));
    }
    apply_checkpoint(*cp, result_, halted_, down_, dead_, pool_);
    running_ = cp->running;
    round_ = cp->round;
    // Every running node wakes in the first resumed round.  An extra
    // wake-up is harmless (engine.hpp), so the checkpoint needs no hints.
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (!halted_[sv] && !dead_[sv]) schedule(v, round_ + 1, round_);
    }
  } else {
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      const std::size_t begin = row_[static_cast<std::size_t>(v)];
      NodeProgram& program = *pool_[static_cast<std::size_t>(v)];
      if (program.init(port_colour_.data() + begin, degree(v))) {
        halt(v, /*round=*/0);
        --running_;
      } else {
        schedule(v, program.wake_round(0), 0);
      }
    }
  }
  result_.init_ns = phase_elapsed_ns(init_start);

  // Per-worker round scratch.  The message plane itself is built lazily,
  // by the first step: a 0-round algorithm on a million nodes never pays
  // for it.
  stats_.assign(static_cast<std::size_t>(workers_), MessageStats{});
  newly_halted_.assign(static_cast<std::size_t>(workers_), {});

  // On a resume the checkpointed flags already reflect every fault event
  // up to round_, so the cursor skips them.
  ev_ = plan_ != nullptr ? plan_->first_event_at(round_ + 1) : 0;
}

void FlatSession::step() {
  const int round = round_ + 1;
  if (round > max_rounds_) {
    throw std::runtime_error("run_flat: algorithm did not halt within max_rounds");
  }
  step_round(round);
  round_ = round;
  // Round `round` is now complete — the only point a checkpoint can be
  // captured (checkpoint.hpp explains why round boundaries suffice).
  if (every_ > 0 && sink_ && running_ > 0 && round % every_ == 0) {
    merge_stats();
    sink_(capture_checkpoint(g_, round_, running_, result_, halted_, down_, dead_, pool_));
  }
}

void FlatSession::step_round(int round) {
  // Borrow the runtime for the WHOLE step, not per phase: the spill arenas
  // may be shared across sessions and a payload spilled in the send phase
  // is read in this step's receive phase — another session's step in
  // between would clear it.  (A private runtime's lock is uncontended.)
  const std::lock_guard<std::mutex> borrow(runtime_->mutex());
  round_now_ = round;
  // Phase 0: apply this round's fault events before the send phase.  A
  // crash aimed at a halted or dead node is a no-op; a permanent crash
  // removes the node from the run (output stays ⊥, halt_round −1).
  // Duplicated from run_sync on purpose: the sync engine is the reference
  // that Faults.EnginesAgree* compares this copy against.
  if (plan_ != nullptr) {
    const std::vector<FaultEvent>& events = plan_->events();
    while (ev_ < events.size() && events[ev_].round <= round) {
      const FaultEvent& e = events[ev_++];
      if (e.node < 0 || e.node >= n_) {
        throw std::invalid_argument("FaultPlan: event targets a node outside the graph");
      }
      const auto v = static_cast<std::size_t>(e.node);
      if (e.up) {
        if (!halted_[v] && !dead_[v] && down_[v]) {
          down_[v] = 0;
          ++result_.restarts;
        }
      } else {
        if (!halted_[v] && !dead_[v]) {
          down_[v] = 1;
          ++result_.crashes;
          if (e.permanent) {
            dead_[v] = 1;
            --running_;
          }
        }
      }
    }
  }
  if (!planes_ready_) {
    plane_.configure(port_colour_.size(), runtime_->arenas());
    planes_ready_ = true;
  }
  // One contiguous plane, reused every round: the round stamp plays the
  // role of the classic send/recv buffer swap — a slot whose stamp is
  // not this round's tag is last round's (or older) data and reads as
  // absent, so nothing needs clearing.  Tags cycle through 1..255; the
  // plane is wiped when the cycle restarts so a stale stamp can never
  // alias.  (A resumed session starts mid-cycle on a freshly zeroed
  // plane — stamp 0 never matches a round tag, so that reads as absent
  // exactly like the uninterrupted run's stale-stamp slots.)
  const auto stamp = static_cast<std::uint8_t>(1 + (round - 1) % 255);
  if (round > 1 && stamp == 1) wipe_running_rows();
  plane_.new_round();
  wake(round);
  result_.node_steps += awake_.size();
  if (workers_ > 1) plan_chunks();

  // Phase 1: this round's awake nodes stream their messages into their own
  // slot rows; sleeping nodes write nothing, and their slots keep older
  // stamps, which read as absent.  A chunk (contiguous range of the awake
  // list) is claimed by exactly one worker per phase, so no two workers
  // ever touch the same slot.
  const auto send_start = std::chrono::steady_clock::now();
  for_chunks([&](int worker, std::size_t begin, std::size_t end) {
    FlatOutbox out(plane_, worker, stamp, stats_[static_cast<std::size_t>(worker)]);
    for (std::size_t i = begin; i < end; ++i) {
      const auto v = static_cast<std::size_t>(awake_[i]);
      out.at_node(row_[v], port_colour_.data() + row_[v], degree(awake_[i]));
      pool_[v]->send(round, out);
    }
  });

  // Drop accounting: one serial pass over the awake senders' freshly
  // stamped slots, counting exactly what run_sync counts while building its
  // inboxes — a message actually in flight (running sender wrote the port,
  // running receiver on the other end) whose (round, sender, colour) hash
  // says drop.  The count is therefore read-independent: a program that
  // never reads the port still loses (and counts) the same messages.
  // Delivery masking happens separately in resolve().
  if (drop_mask_) {
    for (const graph::NodeIndex u : awake_) {
      const std::size_t begin = row_[static_cast<std::size_t>(u)];
      const std::size_t end = row_[static_cast<std::size_t>(u) + 1];
      for (std::size_t s = begin; s < end; ++s) {
        if (plane_.slots[s].stamp != stamp) continue;
        const graph::NodeIndex r = peer_node_[s];
        if (halted_[static_cast<std::size_t>(r)] || down_[static_cast<std::size_t>(r)]) continue;
        if (plan_->drops(round, u, port_colour_[s])) ++result_.messages_dropped;
      }
    }
  }
  result_.send_ns += phase_elapsed_ns(send_start);

  const auto receive_start = std::chrono::steady_clock::now();
  // Phase 2: hand each awake node a lazy view over its peers' slots,
  // reflecting the start-of-round halted state (a node halting this
  // round must not leak its decision to same-round receivers).  New
  // halts are collected per worker and applied after the barrier; a node
  // that keeps running leaves its sleep hint in wake_at_.
  for_chunks([&](int worker, std::size_t begin, std::size_t end) {
    FlatInbox in(*this, stamp);
    for (std::size_t i = begin; i < end; ++i) {
      const auto v = static_cast<std::size_t>(awake_[i]);
      in.at_node(row_[v], port_colour_.data() + row_[v], degree(awake_[i]));
      NodeProgram& program = *pool_[v];
      if (program.receive(round, in)) {
        newly_halted_[static_cast<std::size_t>(worker)].push_back(awake_[i]);
      } else {
        wake_at_[v] = program.wake_round(round);
      }
    }
  });

  for (auto& batch : newly_halted_) {
    for (graph::NodeIndex v : batch) {
      halt(v, round);
      --running_;
    }
    batch.clear();
  }
  for (const graph::NodeIndex v : awake_) {
    if (!halted_[static_cast<std::size_t>(v)]) {
      schedule(v, wake_at_[static_cast<std::size_t>(v)], round);
    }
  }
  result_.receive_ns += phase_elapsed_ns(receive_start);
}

void FlatSession::merge_stats() {
  // The fold is commutative, so the merged totals equal run_sync's inline
  // accounting however the rounds were split across workers.
  for (MessageStats& s : stats_) {
    result_.max_message_bytes = std::max(result_.max_message_bytes, s.max_bytes);
    result_.total_message_bytes += s.total_bytes;
    result_.messages_sent += s.sent;
    s = MessageStats{};
  }
}

RunResult FlatSession::result() {
  merge_stats();
  for (int r : result_.halt_round) result_.rounds = std::max(result_.rounds, r);
  return std::move(result_);
}

void FlatSession::build_csr() {
  // Built from the graph's own adjacency rows: offsets from the degrees,
  // then one sequential pass that copies each row into its slots.  Ports
  // must ascend by colour within a row (that is what defines the port
  // order seen by programs), and an edited row need not, so each row is
  // insertion-sorted by colour as it lands; rows have at most k entries.
  std::vector<int> degrees(static_cast<std::size_t>(n_));
  for (graph::NodeIndex v = 0; v < n_; ++v) degrees[static_cast<std::size_t>(v)] = g_.degree(v);
  row_ = flat_row_offsets(degrees);
  const std::size_t slot_count = row_[static_cast<std::size_t>(n_)];
  port_colour_.resize(slot_count);
  peer_node_.resize(slot_count);
  for (graph::NodeIndex v = 0; v < n_; ++v) {
    const std::size_t begin = row_[static_cast<std::size_t>(v)];
    std::size_t s = begin;
    g_.for_each_incident(v, [&](Colour c, graph::NodeIndex peer) {
      std::size_t j = s++;
      for (; j > begin && port_colour_[j - 1] > c; --j) {
        port_colour_[j] = port_colour_[j - 1];
        peer_node_[j] = peer_node_[j - 1];
      }
      port_colour_[j] = c;
      peer_node_[j] = peer;
    });
  }
}

std::string_view FlatSession::resolve(std::size_t s, std::uint8_t stamp) const noexcept {
  const graph::NodeIndex u = peer_node_[s];
  if (halted_[static_cast<std::size_t>(u)]) {
    return halted_announcement(result_.outputs[static_cast<std::size_t>(u)]);
  }
  // A down (or dead) sender reads as absent on the shared edge.
  if (plan_ != nullptr && down_[static_cast<std::size_t>(u)]) return {};
  const std::size_t u_row = row_[static_cast<std::size_t>(u)];
  const std::size_t u_end = row_[static_cast<std::size_t>(u) + 1];
  const auto begin = port_colour_.begin() + static_cast<std::ptrdiff_t>(u_row);
  const auto end = port_colour_.begin() + static_cast<std::ptrdiff_t>(u_end);
  const auto it = std::lower_bound(begin, end, port_colour_[s]);
  const std::string_view view = slot_view(u_row + static_cast<std::size_t>(it - begin), stamp);
  // Drop masking: a message the sender actually wrote this round reads as
  // absent when the (round, sender, colour) hash says drop.  Counting
  // happened in the serial pass of step_round; this is delivery only.
  if (drop_mask_ && !view.empty() && plan_->drops(round_now_, u, port_colour_[s])) {
    return {};
  }
  return view;
}

std::string_view FlatSession::slot_view(std::size_t s, std::uint8_t stamp) const noexcept {
  const FlatSlot& slot = plane_.slots[s];
  if (slot.stamp != stamp) return {};
  if (slot.len != kSpillLen) return {slot.payload, slot.len};
  // Unpack the {offset:40, arena:8} spill address written by
  // FlatOutbox::write; the offset expands into a 64-bit cursor.
  std::uint64_t off = 0;
  for (int i = 0; i < 5; ++i) {
    off |= static_cast<std::uint64_t>(static_cast<unsigned char>(slot.payload[i])) << (8 * i);
  }
  const auto arena = static_cast<unsigned char>(slot.payload[5]);
  std::uint32_t len = 0;
  const char* base = (*plane_.arenas)[arena].data() + off;
  std::memcpy(&len, base, sizeof(len));
  return {base + sizeof(len), len};
}

void FlatSession::halt(graph::NodeIndex v, int round) {
  halted_[static_cast<std::size_t>(v)] = 1;
  result_.halt_round[static_cast<std::size_t>(v)] = round;
  result_.outputs[static_cast<std::size_t>(v)] =
      pool_[static_cast<std::size_t>(v)]->output();
}

/// The tag cycle restarted: every stamp value is about to be reused, so
/// stale slots must be cleared — but only in rows whose sender is still
/// running.  A halted node never writes again, and resolve() serves its
/// announcement from the shared table without reading its slots, so
/// halted rows are dead storage; the old full-plane wipe rewrote them
/// every cycle (pinned by the two-tag-cycle regression in
/// tests/test_flat_stress.cpp).
/// Sleeping and down rows are wiped too: such a node may wake mid-cycle
/// and leave unwritten ports whose stale stamps must never alias a fresh
/// tag.  This is the one per-cycle walk over all nodes.
void FlatSession::wipe_running_rows() {
  for (graph::NodeIndex v = 0; v < n_; ++v) {
    if (halted_[static_cast<std::size_t>(v)]) continue;
    const std::size_t begin = row_[static_cast<std::size_t>(v)];
    const std::size_t end = row_[static_cast<std::size_t>(v) + 1];
    std::fill(plane_.slots.begin() + static_cast<std::ptrdiff_t>(begin),
              plane_.slots.begin() + static_cast<std::ptrdiff_t>(end), FlatSlot{});
  }
}

/// Queues running node `v` in the bucket of its wake round: `hint` clamped
/// to max_rounds, and round now + 1 when that is not past `now`.  A wake
/// round more than a ring ahead is parked at the ring's far end; wake()
/// re-parks it from there without stepping it.
void FlatSession::schedule(graph::NodeIndex v, int hint, int now) {
  int at = std::min(hint, max_rounds_);
  if (at <= now) at = now + 1;
  wake_at_[static_cast<std::size_t>(v)] = at;
  const int park = at - now > kWakeRing ? now + kWakeRing : at;
  const auto slot = static_cast<std::size_t>(park & (kWakeRing - 1));
  wake_next_[static_cast<std::size_t>(v)] = wake_head_[slot];
  wake_head_[slot] = v;
}

/// Drains round `round`'s bucket into awake_: a node parked for a later
/// round moves on, a dead node leaves the schedule, a down one waits for
/// the next round, and every other node is stepped this round.  The order
/// of awake_ affects only memory locality, never the RunResult.
void FlatSession::wake(int round) {
  awake_.clear();
  const auto slot = static_cast<std::size_t>(round & (kWakeRing - 1));
  graph::NodeIndex v = wake_head_[slot];
  wake_head_[slot] = -1;
  while (v >= 0) {
    const auto sv = static_cast<std::size_t>(v);
    const graph::NodeIndex next = wake_next_[sv];
    if (wake_at_[sv] > round) {
      schedule(v, wake_at_[sv], round);
    } else if (down_[sv]) {
      if (!dead_[sv]) schedule(v, round + 1, round);
    } else {
      awake_.push_back(v);
    }
    v = next;
  }
}

/// Splits the round's awake list into chunks of roughly `chunk_slots_`
/// slot (directed-edge) weight — a node costs 1 + degree, so a run of
/// max-degree hub rows splits into many chunks while the same node count
/// of leaves packs into one.
void FlatSession::plan_chunks() {
  std::size_t target = chunk_slots_;
  if (target == 0) {
    std::size_t total = 0;
    for (const graph::NodeIndex v : awake_) total += 1 + static_cast<std::size_t>(degree(v));
    target = std::max(kMinAutoChunkSlots,
                      total / (static_cast<std::size_t>(workers_) * kChunksPerWorker));
  }
  chunks_.clear();
  std::size_t begin = 0;
  std::size_t acc = 0;
  for (std::size_t i = 0; i < awake_.size(); ++i) {
    acc += 1 + static_cast<std::size_t>(degree(awake_[i]));
    if (acc >= target) {
      chunks_.push_back({begin, i + 1});
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < awake_.size()) chunks_.push_back({begin, awake_.size()});
}

/// Runs fn(worker, begin, end) over the planned chunks of awake_, in-line
/// when workers_ == 1 or the round is a single chunk.  Otherwise every
/// worker claims chunks in order from one shared cursor until the queue is
/// dry, so a worker stuck on a hub-heavy chunk never leaves the rest idle.
/// The cursor is a relaxed fetch_add: claimed values are unique, overshoot
/// past the end is harmless (the cursor is reset before the next phase),
/// and the pool's phase barrier provides all cross-phase ordering.
/// `worker` is the executing worker: stats, spill arenas and halt batches
/// stay worker-indexed whichever chunks a worker happens to claim, which
/// is what keeps results schedule-independent.  Exceptions propagate
/// through the pool's first-exception-wins barrier, matching the serial
/// engine's fail-fast contract.
template <class F>
void FlatSession::for_chunks(const F& fn) {
  if (workers_ == 1) {
    fn(0, std::size_t{0}, awake_.size());
    return;
  }
  // Lazy shared-pool spawn: exactly one session's call creates the threads
  // and inherits them into its threads_spawned gauge; every other session
  // (and every session whose private pool already exists) adds 0, so the
  // per-runtime sum stays threads - 1.
  result_.threads_spawned += runtime_->ensure_pool();
  if (chunks_.size() <= 1) {
    // Waking the pool for one chunk only adds a barrier round trip.
    if (!chunks_.empty()) fn(0, chunks_[0].begin, chunks_[0].end);
    return;
  }
  next_chunk_.next.store(0, std::memory_order_relaxed);
  auto phase = [&](int worker) {
    // The shared pool may carry more parked threads than this session has
    // workers (the runtime budget is clamped per session by node count);
    // surplus workers sit the phase out.
    if (worker >= workers_) return;
    for (;;) {
      const std::size_t c = next_chunk_.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_.size()) return;
      fn(worker, chunks_[c].begin, chunks_[c].end);
    }
  };
  runtime_->pool()->run(phase);
}

}  // namespace

std::vector<std::size_t> flat_row_offsets(const std::vector<int>& degrees) {
  std::vector<std::size_t> offsets(degrees.size() + 1, 0);
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    if (degrees[v] < 0) throw std::invalid_argument("flat_row_offsets: negative degree");
    offsets[v + 1] = offsets[v] + static_cast<std::size_t>(degrees[v]);
  }
  return offsets;
}

RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options, const FlatEngineOptions& engine_options,
                   Runtime* runtime) {
  FlatSession session(g, source, options, engine_options, runtime);
  while (!session.done()) session.step();
  return session.result();
}

std::unique_ptr<Session> make_flat_session(const graph::EdgeColouredGraph& g,
                                           const ProgramSource& source,
                                           const RunOptions& options,
                                           const FlatEngineOptions& engine_options,
                                           Runtime* runtime) {
  return std::make_unique<FlatSession>(g, source, options, engine_options, runtime);
}

std::unique_ptr<Session> make_session(EngineKind kind, const graph::EdgeColouredGraph& g,
                                      const ProgramSource& source, const RunOptions& options,
                                      Runtime* runtime) {
  switch (kind) {
    case EngineKind::kFlat:
      return make_flat_session(g, source, options, {}, runtime);
    case EngineKind::kSync:
      break;
  }
  return make_sync_session(g, source, options);
}

RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, const RunOptions& options) {
  switch (kind) {
    case EngineKind::kFlat:
      return run_flat(g, source, options);
    case EngineKind::kSync:
      break;
  }
  return run_sync(g, source, options);
}

const char* engine_kind_name(EngineKind kind) noexcept {
  return kind == EngineKind::kFlat ? "flat" : "sync";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) noexcept {
  if (name == "sync") return EngineKind::kSync;
  if (name == "flat") return EngineKind::kFlat;
  return std::nullopt;
}

}  // namespace dmm::local
