#include "local/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>

#include "local/checkpoint.hpp"
#include "local/faults.hpp"
#include "local/program_pool.hpp"

namespace dmm::local {

void NodeProgram::save_state(std::string& /*out*/) const {
  throw std::logic_error(
      "NodeProgram::save_state: this program does not support checkpointing");
}

void NodeProgram::load_state(std::string_view /*in*/) {
  throw std::logic_error(
      "NodeProgram::load_state: this program does not support checkpointing");
}

std::string_view halted_announcement(Colour output) noexcept {
  // Every announcement a Colour can produce, rendered once per process.
  static const std::array<std::string, 256> table = [] {
    std::array<std::string, 256> rendered;
    for (int c = 0; c < 256; ++c) {
      rendered[static_cast<std::size_t>(c)] = kHaltedPrefix;
      rendered[static_cast<std::size_t>(c)] += std::to_string(c);
    }
    return rendered;
  }();
  return table[output];
}

std::uint64_t outputs_fnv(const RunResult& run) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const Colour c : run.outputs) mix(c);
  for (const int r : run.halt_round) mix(static_cast<std::uint32_t>(r));
  return h;
}

namespace {

double elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - since)
                                 .count());
}

/// The oracle's outbox: one optional message per port, in a container the
/// round owns.  Accounting happens here, per message set, so it matches
/// whatever the program writes.
class SyncOutbox final : public Outbox {
 public:
  SyncOutbox(const std::vector<Colour>& row, std::vector<std::optional<Message>>& sent,
             RunResult& result)
      : sent_(sent), result_(result) {
    colours_ = row.data();
    count_ = static_cast<int>(row.size());
  }

 private:
  void write(int port, std::string_view bytes) override {
    result_.max_message_bytes = std::max(result_.max_message_bytes, bytes.size());
    result_.total_message_bytes += bytes.size();
    ++result_.messages_sent;
    sent_[static_cast<std::size_t>(port)] = Message(bytes);
  }

  std::vector<std::optional<Message>>& sent_;
  RunResult& result_;
};

/// The oracle's inbox: the messages this node receives, copied out per
/// port before anyone receives.
class SyncInbox final : public Inbox {
 public:
  SyncInbox(const std::vector<Colour>& row, const std::vector<Message>& received)
      : received_(received) {
    colours_ = row.data();
    count_ = static_cast<int>(row.size());
  }

 private:
  std::string_view read(int port) const override {
    return received_[static_cast<std::size_t>(port)];
  }

  const std::vector<Message>& received_;
};

/// run_sync, stepwise.  The constructor is the setup phase (program
/// construction, init delivery, checkpoint resume); step() is one round.
/// run_sync itself is a thin loop over this class, so a stepped run is the
/// closed run.
class SyncSession final : public Session {
 public:
  SyncSession(const graph::EdgeColouredGraph& g, const ProgramSource& source,
              const RunOptions& options)
      : g_(g),
        n_(g.node_count()),
        max_rounds_(options.max_rounds),
        every_(options.checkpoint.every),
        sink_(options.checkpoint.sink) {
    plan_ = (options.faults.plan != nullptr && !options.faults.plan->empty())
                ? options.faults.plan
                : nullptr;
    if (plan_ != nullptr) plan_->require_fits(n_);

    result_.outputs.assign(static_cast<std::size_t>(n_), kUnmatched);
    result_.halt_round.assign(static_cast<std::size_t>(n_), -1);
    halted_.assign(static_cast<std::size_t>(n_), 0);
    down_.assign(static_cast<std::size_t>(n_), 0);
    dead_.assign(static_cast<std::size_t>(n_), 0);
    running_ = n_;
    round_ = 0;

    // Setup phase (timed into init_ns): batch-construct the programs into
    // the pool, then deliver each node its initial knowledge.
    const auto init_start = std::chrono::steady_clock::now();
    rows_.reserve(static_cast<std::size_t>(n_));
    for (graph::NodeIndex v = 0; v < n_; ++v) rows_.push_back(g_.incident_colours(v));
    pool_.reserve(static_cast<std::size_t>(n_));
    source.build(static_cast<std::size_t>(n_), pool_);
    if (options.checkpoint.resume != nullptr) {
      const EngineCheckpoint& cp = *options.checkpoint.resume;
      cp.require_matches(g_);
      // init still runs on every node — it hands each program its initial
      // knowledge, from which graph-shaped state is re-derived.  The
      // round-0 halt decisions it reports are already recorded in the
      // checkpoint, so they are ignored here; apply_checkpoint overwrites
      // the dynamic state.
      for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) init(v);
      apply_checkpoint(cp, result_, halted_, down_, dead_, pool_);
      running_ = cp.running;
      round_ = cp.round;
    } else {
      for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
        if (init(v)) {
          halted_[v] = 1;
          result_.halt_round[v] = 0;
          result_.outputs[v] = pool_[v]->output();
          --running_;
        }
      }
    }
    result_.init_ns = elapsed_ns(init_start);

    // Fault-event cursor.  On a resume the checkpointed flags already
    // reflect every event up to round_, so the cursor skips them.
    ev_ = plan_ != nullptr ? plan_->first_event_at(round_ + 1) : 0;
  }

  bool done() const noexcept override { return running_ == 0; }
  int round() const noexcept override { return round_; }

  void step() override {
    const int round = round_ + 1;
    if (round > max_rounds_) {
      throw std::runtime_error("run_sync: algorithm did not halt within max_rounds");
    }
    // Phase 0: apply this round's fault events before the send phase.  A
    // crash aimed at a halted or dead node is a no-op; a permanent crash
    // removes the node from the run (output stays ⊥, halt_round −1).
    // Duplicated in FlatSession on purpose: this is the reference copy that
    // Faults.EnginesAgree* compares the flat engine's against.
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
    // Phase 1: collect outgoing messages.  Halted nodes re-announce their
    // final output (visible per the paper's output announcement); down and
    // dead nodes send nothing.
    const auto n = static_cast<std::size_t>(n_);
    const auto send_start = std::chrono::steady_clock::now();
    std::vector<std::vector<std::optional<Message>>> outgoing(n);
    for (std::size_t v = 0; v < n; ++v) {
      if (halted_[v] || down_[v]) continue;
      outgoing[v].resize(rows_[v].size());
      SyncOutbox out(rows_[v], outgoing[v], result_);
      pool_[v]->send(round, out);
    }
    result_.send_ns += elapsed_ns(send_start);
    // Phase 2: build every inbox from the state at the *start* of the
    // round, then deliver.  A node halting in this round must not leak its
    // decision to same-round receivers — all nodes act simultaneously.
    // Down/dead receivers get no inbox; a down/dead sender reads as absent
    // on the shared edge.  Drops hit only messages actually in flight
    // (running sender, running receiver, message present) — halted
    // announcements are environment, not messages, and are never dropped.
    const auto receive_start = std::chrono::steady_clock::now();
    std::vector<std::vector<Message>> inboxes(n);
    for (std::size_t v = 0; v < n; ++v) {
      if (halted_[v] || down_[v]) continue;
      const std::vector<Colour>& row = rows_[v];
      inboxes[v].resize(row.size());
      for (std::size_t port = 0; port < row.size(); ++port) {
        const Colour c = row[port];
        const graph::NodeIndex u = *g_.neighbour(static_cast<graph::NodeIndex>(v), c);
        const auto su = static_cast<std::size_t>(u);
        if (halted_[su]) {
          inboxes[v][port] = halted_announcement(result_.outputs[su]);
          continue;
        }
        if (down_[su]) continue;
        // The sender's port for the shared edge: c's place in its row.
        const std::vector<Colour>& peer_row = rows_[su];
        const auto at = std::lower_bound(peer_row.begin(), peer_row.end(), c);
        const std::optional<Message>& m =
            outgoing[su][static_cast<std::size_t>(at - peer_row.begin())];
        if (!m) continue;
        if (plan_ != nullptr && plan_->drops(round, u, c)) {
          ++result_.messages_dropped;
          continue;
        }
        inboxes[v][port] = *m;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (halted_[v] || down_[v]) continue;
      ++result_.node_steps;
      const SyncInbox in(rows_[v], inboxes[v]);
      if (pool_[v]->receive(round, in)) {
        halted_[v] = 1;
        result_.halt_round[v] = round;
        result_.outputs[v] = pool_[v]->output();
        --running_;
      }
    }
    result_.receive_ns += elapsed_ns(receive_start);
    round_ = round;
    // Round `round` is now complete — the only point a checkpoint can be
    // captured (checkpoint.hpp explains why round boundaries suffice).
    if (every_ > 0 && sink_ && running_ > 0 && round % every_ == 0) {
      sink_(capture_checkpoint(g_, round, running_, result_, halted_, down_, dead_, pool_));
    }
  }

  RunResult result() override {
    for (int r : result_.halt_round) result_.rounds = std::max(result_.rounds, r);
    return std::move(result_);
  }

 private:
  bool init(std::size_t v) {
    return pool_[v]->init(rows_[v].data(), static_cast<int>(rows_[v].size()));
  }

  const graph::EdgeColouredGraph& g_;
  int n_;
  int max_rounds_;
  int every_;
  std::function<void(const EngineCheckpoint&)> sink_;
  const FaultPlan* plan_ = nullptr;
  std::vector<std::vector<Colour>> rows_;  // per node: sorted incident colours
  // Declared after rows_: programs may keep init's pointer into a row, so
  // the pool (and its destructors) must go first.
  ProgramPool pool_;
  RunResult result_;
  std::vector<char> halted_;
  std::vector<char> down_;
  std::vector<char> dead_;
  int running_ = 0;
  int round_ = 0;  // last completed round
  std::size_t ev_ = 0;  // fault-event cursor
};

}  // namespace

std::unique_ptr<Session> make_sync_session(const graph::EdgeColouredGraph& g,
                                           const ProgramSource& source,
                                           const RunOptions& options) {
  return std::make_unique<SyncSession>(g, source, options);
}

RunResult run_sync(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options) {
  SyncSession session(g, source, options);
  while (!session.done()) session.step();
  return session.result();
}

}  // namespace dmm::local
