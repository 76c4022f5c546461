// The synchronous message-passing engine: halting, rounds, announcements,
// and the port ABI's typed errors on every engine.
#include "local/engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "local/flat_engine.hpp"
#include "local/program_pool.hpp"
#include "pn/adapter.hpp"

namespace dmm::local {
namespace {

/// Halts immediately with output = smallest incident colour (or ⊥).
class HaltAtInit final : public NodeProgram {
 public:
  bool init(const Colour* incident, int degree) override {
    out_ = degree == 0 ? kUnmatched : incident[0];
    return true;
  }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return out_; }

 private:
  Colour out_ = kUnmatched;
};

/// Counts down `rounds` rounds, then halts with ⊥.
class HaltAfter final : public NodeProgram {
 public:
  explicit HaltAfter(int rounds) : remaining_(rounds) {}
  bool init(const Colour*, int) override { return remaining_ == 0; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return --remaining_ == 0; }
  Colour output() const override { return kUnmatched; }

 private:
  int remaining_;
};

/// Halts after the first exchange; remembers what it heard on port 0.
class Listener final : public NodeProgram {
 public:
  bool init(const Colour*, int) override { return false; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox& in) override {
    last_heard = in.ports() == 0 ? Message{} : Message(in.at(0));
    return true;
  }
  Colour output() const override { return kUnmatched; }

  static Message last_heard;
};
Message Listener::last_heard;

TEST(Engine, ZeroRoundAlgorithmHaltsAtRoundZero) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  const RunResult r = run_sync(g, pooled<HaltAtInit>(), 10);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_EQ(r.outputs[0], 1);
  EXPECT_EQ(r.outputs[1], 1);
  EXPECT_EQ(r.outputs[2], 2);
  for (int h : r.halt_round) EXPECT_EQ(h, 0);
}

TEST(Engine, RunningTimeIsMaxHaltRound) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  const RunResult r = run_sync(g, pooled<HaltAfter>(3), 10);
  EXPECT_EQ(r.rounds, 3);
}

TEST(Engine, MixedHaltRoundsReported) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  const ProgramSource halt_at_index([](std::size_t count, ProgramPool& pool) {
    for (std::size_t v = 0; v < count; ++v) pool.emplace<HaltAfter>(static_cast<int>(v));
  });
  const RunResult r = run_sync(g, halt_at_index, 10);
  EXPECT_EQ(r.halt_round[0], 0);
  EXPECT_EQ(r.halt_round[1], 1);
  EXPECT_EQ(r.halt_round[2], 2);
  EXPECT_EQ(r.rounds, 2);
}

TEST(Engine, ThrowsIfAlgorithmNeverHalts) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  EXPECT_THROW(run_sync(g, pooled<HaltAfter>(100), 5), std::runtime_error);
}

TEST(Engine, IsolatedNodesHaltImmediately) {
  const graph::EdgeColouredGraph g(4, 2);  // no edges
  const RunResult r = run_sync(g, pooled<HaltAfter>(0), 10);
  EXPECT_EQ(r.rounds, 0);
}

/// Misbehaving program: touches a port outside its row, once.
enum class Overrun { kSetPastEnd, kSetNegative, kReadPastEnd, kReadNegative };

class PortOverrun final : public NodeProgram {
 public:
  explicit PortOverrun(Overrun how) : how_(how) {}
  bool init(const Colour*, int) override { return false; }
  void send(int, Outbox& out) override {
    if (how_ == Overrun::kSetPastEnd) out.set(out.ports(), "x");
    if (how_ == Overrun::kSetNegative) out.set(-1, "x");
  }
  bool receive(int, const Inbox& in) override {
    if (how_ == Overrun::kReadPastEnd) (void)in.at(in.ports());
    if (how_ == Overrun::kReadNegative) (void)in.at(-1);
    return true;
  }
  Colour output() const override { return kUnmatched; }

 private:
  Overrun how_;
};

TEST(Engine, PortOutsideTheRowIsATypedErrorOnEveryPath) {
  // The port ABI has no way to address a non-incident edge: a port outside
  // [0, ports()) is std::out_of_range on the oracle, on the flat plane
  // (serial and pooled) and through the PN adapter alike.
  const graph::EdgeColouredGraph g = graph::worst_case_chain(4).long_path;
  FlatEngineOptions threaded;
  threaded.threads = 3;
  for (const Overrun how : {Overrun::kSetPastEnd, Overrun::kSetNegative, Overrun::kReadPastEnd,
                            Overrun::kReadNegative}) {
    const ProgramSource source = pooled<PortOverrun>(how);
    EXPECT_THROW(run_sync(g, source, 10), std::out_of_range);
    EXPECT_THROW(run_flat(g, source, 10), std::out_of_range);
    EXPECT_THROW(run_flat(g, source, 10, threaded), std::out_of_range);
    graph::NodeIndex next = 0;
    const pn::PnFactory adapted = [&]() -> std::unique_ptr<pn::PnProgram> {
      const graph::NodeIndex v = next++;
      return std::make_unique<pn::ColouredAdapter>(std::make_unique<PortOverrun>(how),
                                                   g.incident_colours(v));
    };
    EXPECT_THROW(pn::run_pn(pn::PortNetwork::from_coloured(g), adapted, 10), std::out_of_range);
  }
}

/// Misbehaving program: throws during a round.
class Thrower final : public NodeProgram {
 public:
  bool init(const Colour*, int) override { return false; }
  void send(int, Outbox&) override { throw std::runtime_error("node crashed"); }
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }
};

TEST(Engine, FailureInjectionExceptionsPropagate) {
  // The engine is deterministic and fail-fast: a crashing node surfaces as
  // an exception rather than a silently wrong result.
  graph::EdgeColouredGraph g(2, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(run_sync(g, pooled<Thrower>(), 10),
               std::runtime_error);
}

TEST(Engine, MessageAccounting) {
  // Greedy uses constant-size messages (the remark after Theorem 2): one
  // byte of status per edge per round.
  const graph::EdgeColouredGraph g = graph::worst_case_chain(8).long_path;
  const RunResult r = run_sync(g, pooled<HaltAfter>(2), 10);
  EXPECT_EQ(r.max_message_bytes, 0u);  // HaltAfter sends empty messages
  EXPECT_EQ(r.total_message_bytes, 0u);
}

TEST(Engine, HaltedAnnouncementVisibleToNeighbours) {
  graph::EdgeColouredGraph g(2, 1);
  g.add_edge(0, 1, 1);
  Listener::last_heard.clear();
  const ProgramSource halter_then_listener([](std::size_t, ProgramPool& pool) {
    pool.emplace<HaltAtInit>();
    pool.emplace<Listener>();
  });
  const RunResult r = run_sync(g, halter_then_listener, 10);
  EXPECT_EQ(r.rounds, 1);
  // The listener received the halted-announcement of output 1.
  EXPECT_EQ(Listener::last_heard, std::string(1, kHaltedPrefix) + "1");
}

TEST(Engine, HaltedAnnouncementTableCoversEveryColour) {
  // One table serves both engines: the prefix, then the output in decimal
  // ("!0" for ⊥), and every call returns a view of the same entry.
  EXPECT_EQ(halted_announcement(kUnmatched), "!0");
  EXPECT_EQ(halted_announcement(9), "!9");
  EXPECT_EQ(halted_announcement(10), "!10");
  EXPECT_EQ(halted_announcement(100), "!100");
  EXPECT_EQ(halted_announcement(255), "!255");
  for (int c = 0; c <= 255; ++c) {
    const auto output = static_cast<Colour>(c);
    std::string want(1, kHaltedPrefix);
    want += std::to_string(c);
    EXPECT_EQ(halted_announcement(output), want) << c;
    EXPECT_EQ(halted_announcement(output).data(), halted_announcement(output).data()) << c;
  }
}

}  // namespace
}  // namespace dmm::local
