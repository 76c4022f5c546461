#include "local/checkpoint.hpp"

#include <ostream>

#include "io/serialize.hpp"
#include "local/engine.hpp"
#include "local/program_pool.hpp"

namespace dmm::local {

namespace {

constexpr std::uint32_t kCheckpointVersion = 1;

void write_flags(io::ByteWriter& w, const std::vector<std::uint8_t>& flags) {
  w.bytes(std::string_view(reinterpret_cast<const char*>(flags.data()), flags.size()));
}

std::vector<std::uint8_t> read_flags(io::ByteReader& r, std::size_t expected,
                                     const char* what) {
  const std::string_view v = r.bytes();
  if (v.size() != expected) {
    throw CheckpointError(std::string(what) + " array has wrong length");
  }
  std::vector<std::uint8_t> flags(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto b = static_cast<std::uint8_t>(v[i]);
    if (b > 1) throw CheckpointError(std::string(what) + " flag is not 0/1");
    flags[i] = b;
  }
  return flags;
}

}  // namespace

std::uint64_t graph_fingerprint(const graph::EdgeColouredGraph& g) {
  io::ByteWriter w;
  w.varint(static_cast<std::uint64_t>(g.node_count()));
  w.varint(static_cast<std::uint64_t>(g.k()));
  for (const graph::Edge& e : g.edges()) {
    w.varint(static_cast<std::uint64_t>(e.u));
    w.varint(static_cast<std::uint64_t>(e.v));
    w.u8(e.colour);
  }
  return io::fnv1a64(w.buffer().data(), w.buffer().size());
}

void EngineCheckpoint::write(std::ostream& out) const {
  {
    io::ByteWriter w;
    w.svarint(node_count);
    w.svarint(k);
    w.varint(edge_hash);
    w.svarint(round);
    w.svarint(running);
    w.varint(crashes);
    w.varint(restarts);
    w.varint(messages_dropped);
    w.varint(max_message_bytes);
    w.varint(total_message_bytes);
    w.varint(messages_sent);
    io::write_frame(out, "CKPH", kCheckpointVersion, w.buffer());
  }
  {
    io::ByteWriter w;
    w.bytes(std::string_view(reinterpret_cast<const char*>(outputs.data()), outputs.size()));
    w.varint(halt_round.size());
    for (std::int32_t r : halt_round) w.svarint(r);
    write_flags(w, halted);
    write_flags(w, down);
    write_flags(w, dead);
    io::write_frame(out, "CKPN", kCheckpointVersion, w.buffer());
  }
  {
    io::ByteWriter w;
    w.varint(program_state.size());
    for (const std::string& blob : program_state) w.bytes(blob);
    io::write_frame(out, "CKPP", kCheckpointVersion, w.buffer());
  }
}

EngineCheckpoint EngineCheckpoint::read(std::istream& in) {
  EngineCheckpoint cp;
  {
    const io::Frame frame = io::read_frame(in, "CKPH");
    if (frame.version != kCheckpointVersion) {
      throw CheckpointError("unsupported checkpoint version " + std::to_string(frame.version));
    }
    io::ByteReader r(frame.payload);
    cp.node_count = static_cast<std::int32_t>(r.svarint());
    cp.k = static_cast<std::int32_t>(r.svarint());
    cp.edge_hash = r.varint();
    cp.round = static_cast<std::int32_t>(r.svarint());
    cp.running = static_cast<std::int32_t>(r.svarint());
    cp.crashes = r.varint();
    cp.restarts = r.varint();
    cp.messages_dropped = r.varint();
    cp.max_message_bytes = r.varint();
    cp.total_message_bytes = r.varint();
    cp.messages_sent = r.varint();
    r.expect_done("checkpoint header");
    if (cp.node_count < 0 || cp.k < 0 || cp.round < 0 || cp.running < 0 ||
        cp.running > cp.node_count) {
      throw CheckpointError("impossible header counters");
    }
  }
  const auto n = static_cast<std::size_t>(cp.node_count);
  {
    const io::Frame frame = io::read_frame(in, "CKPN");
    io::ByteReader r(frame.payload);
    const std::string_view outs = r.bytes();
    if (outs.size() != n) throw CheckpointError("output array has wrong length");
    cp.outputs.assign(outs.begin(), outs.end());
    if (r.varint() != n) throw CheckpointError("halt_round array has wrong length");
    cp.halt_round.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cp.halt_round[i] = static_cast<std::int32_t>(r.svarint());
    }
    cp.halted = read_flags(r, n, "halted");
    cp.down = read_flags(r, n, "down");
    cp.dead = read_flags(r, n, "dead");
    r.expect_done("checkpoint node arrays");
  }
  {
    const io::Frame frame = io::read_frame(in, "CKPP");
    io::ByteReader r(frame.payload);
    const std::uint64_t count = r.varint();
    std::size_t expected = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!cp.halted[v] && !cp.dead[v]) ++expected;
    }
    if (count != expected) {
      throw CheckpointError("program state count does not match the live node set");
    }
    cp.program_state.reserve(expected);
    for (std::uint64_t i = 0; i < count; ++i) {
      cp.program_state.emplace_back(r.bytes());
    }
    r.expect_done("checkpoint program states");
  }
  // Cross-checks the arrays agree with the header.
  int live = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (cp.halted[v] && (cp.down[v] || cp.dead[v])) {
      throw CheckpointError("node is both halted and crashed");
    }
    if (!cp.halted[v] && !cp.dead[v]) ++live;
    if (cp.halted[v] != (cp.halt_round[v] >= 0)) {
      throw CheckpointError("halt_round disagrees with the halted flag");
    }
  }
  if (live != cp.running) throw CheckpointError("running count disagrees with the flags");
  return cp;
}

void EngineCheckpoint::require_matches(const graph::EdgeColouredGraph& g) const {
  if (node_count != g.node_count() || k != g.k() || edge_hash != graph_fingerprint(g)) {
    throw CheckpointError(
        "checkpoint was captured on a different instance (fingerprint mismatch)");
  }
}

EngineCheckpoint capture_checkpoint(const graph::EdgeColouredGraph& g, int round, int running,
                                    const RunResult& result, const std::vector<char>& halted,
                                    const std::vector<char>& down,
                                    const std::vector<char>& dead, const ProgramPool& pool) {
  EngineCheckpoint cp;
  cp.node_count = g.node_count();
  cp.k = g.k();
  cp.edge_hash = graph_fingerprint(g);
  cp.round = round;
  cp.running = running;
  cp.crashes = result.crashes;
  cp.restarts = result.restarts;
  cp.messages_dropped = result.messages_dropped;
  cp.max_message_bytes = result.max_message_bytes;
  cp.total_message_bytes = result.total_message_bytes;
  cp.messages_sent = result.messages_sent;
  cp.outputs = result.outputs;
  cp.halt_round.assign(result.halt_round.begin(), result.halt_round.end());
  cp.halted.assign(halted.begin(), halted.end());
  cp.down.assign(down.begin(), down.end());
  cp.dead.assign(dead.begin(), dead.end());
  for (std::size_t v = 0; v < halted.size(); ++v) {
    if (halted[v] || dead[v]) continue;
    std::string blob;
    pool[v]->save_state(blob);
    cp.program_state.push_back(std::move(blob));
  }
  return cp;
}

void apply_checkpoint(const EngineCheckpoint& cp, RunResult& result, std::vector<char>& halted,
                      std::vector<char>& down, std::vector<char>& dead, ProgramPool& pool) {
  result.outputs = cp.outputs;
  result.halt_round.assign(cp.halt_round.begin(), cp.halt_round.end());
  halted.assign(cp.halted.begin(), cp.halted.end());
  down.assign(cp.down.begin(), cp.down.end());
  dead.assign(cp.dead.begin(), cp.dead.end());
  result.crashes = cp.crashes;
  result.restarts = cp.restarts;
  result.messages_dropped = cp.messages_dropped;
  result.max_message_bytes = static_cast<std::size_t>(cp.max_message_bytes);
  result.total_message_bytes = static_cast<std::size_t>(cp.total_message_bytes);
  result.messages_sent = static_cast<std::size_t>(cp.messages_sent);
  std::size_t blob = 0;
  for (std::size_t v = 0; v < halted.size(); ++v) {
    if (halted[v] || dead[v]) continue;
    pool[v]->load_state(cp.program_state[blob++]);
  }
}

}  // namespace dmm::local
