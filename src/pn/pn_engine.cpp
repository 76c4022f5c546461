#include "pn/pn_engine.hpp"

#include <stdexcept>
#include <string_view>

namespace dmm::pn {

PnRunResult run_pn(const PortNetwork& net, const PnFactory& factory, int max_rounds,
                   bool broadcast) {
  const int n = net.node_count();
  PnRunResult result;
  result.outputs.assign(static_cast<std::size_t>(n), kPnUnmatched);
  result.halt_round.assign(static_cast<std::size_t>(n), -1);

  std::vector<std::unique_ptr<PnProgram>> programs;
  std::vector<char> halted(static_cast<std::size_t>(n), 0);
  int running = n;
  for (NodeIndex v = 0; v < n; ++v) {
    programs.push_back(factory());
    if (programs.back()->init(net.degree(v))) {
      halted[static_cast<std::size_t>(v)] = 1;
      result.halt_round[static_cast<std::size_t>(v)] = 0;
      result.outputs[static_cast<std::size_t>(v)] = programs.back()->output();
      --running;
    }
  }
  // Uniformity check at round 0.
  for (NodeIndex v = 1; v < n; ++v) {
    if (halted[static_cast<std::size_t>(v)] != halted[0]) result.uniform_throughout = false;
  }

  for (int round = 1; running > 0; ++round) {
    if (round > max_rounds) {
      throw std::runtime_error("run_pn: algorithm did not halt within max_rounds");
    }
    std::vector<std::map<Port, Message>> outgoing(static_cast<std::size_t>(n));
    for (NodeIndex v = 0; v < n; ++v) {
      if (halted[static_cast<std::size_t>(v)]) continue;
      outgoing[static_cast<std::size_t>(v)] = programs[static_cast<std::size_t>(v)]->send(round);
      if (broadcast) {
        // Every port counts, an unset one as the empty message it delivers:
        // sending on some ports and not others is port-dependent too.
        const auto& msgs = outgoing[static_cast<std::size_t>(v)];
        const auto sent = [&msgs](Port p) {
          const auto it = msgs.find(p);
          return it == msgs.end() ? std::string_view() : std::string_view(it->second);
        };
        for (Port p = 2; p <= net.degree(v); ++p) {
          if (sent(p) != sent(1)) {
            throw std::logic_error("run_pn: broadcast algorithm sent port-dependent messages");
          }
        }
      }
    }
    // Uniformity: all running nodes sent identical port->message maps.
    for (NodeIndex v = 1; v < n && result.uniform_throughout; ++v) {
      if (halted[static_cast<std::size_t>(v)] || halted[0]) continue;
      if (outgoing[static_cast<std::size_t>(v)] != outgoing[0]) result.uniform_throughout = false;
    }
    // Snapshot inboxes, then deliver (same simultaneity discipline as the
    // coloured engine).
    std::vector<std::map<Port, Message>> inboxes(static_cast<std::size_t>(n));
    for (NodeIndex v = 0; v < n; ++v) {
      if (halted[static_cast<std::size_t>(v)]) continue;
      for (Port p = 1; p <= net.degree(v); ++p) {
        const PortNetwork::End e = net.endpoint(v, p);
        if (halted[static_cast<std::size_t>(e.node)]) {
          Message& announcement = inboxes[static_cast<std::size_t>(v)][p];
          announcement = '!';
          announcement += std::to_string(result.outputs[static_cast<std::size_t>(e.node)]);
        } else {
          const auto it = outgoing[static_cast<std::size_t>(e.node)].find(e.port);
          inboxes[static_cast<std::size_t>(v)][p] =
              it == outgoing[static_cast<std::size_t>(e.node)].end() ? Message{} : it->second;
        }
      }
    }
    for (NodeIndex v = 0; v < n; ++v) {
      if (halted[static_cast<std::size_t>(v)]) continue;
      if (programs[static_cast<std::size_t>(v)]->receive(round, inboxes[static_cast<std::size_t>(v)])) {
        halted[static_cast<std::size_t>(v)] = 1;
        result.halt_round[static_cast<std::size_t>(v)] = round;
        result.outputs[static_cast<std::size_t>(v)] = programs[static_cast<std::size_t>(v)]->output();
        --running;
      }
    }
    for (NodeIndex v = 1; v < n && result.uniform_throughout; ++v) {
      if (halted[static_cast<std::size_t>(v)] != halted[0] ||
          (halted[0] && result.outputs[static_cast<std::size_t>(v)] != result.outputs[0])) {
        result.uniform_throughout = false;
      }
    }
  }
  for (int r : result.halt_round) result.rounds = std::max(result.rounds, r);
  return result;
}

bool pn_matching_valid(const PortNetwork& net, const std::vector<PnOutput>& outputs) {
  const int n = net.node_count();
  if (static_cast<int>(outputs.size()) != n) return false;
  for (NodeIndex v = 0; v < n; ++v) {
    const PnOutput out = outputs[static_cast<std::size_t>(v)];
    if (out == kPnUnmatched) continue;
    if (out < 1 || out > net.degree(v)) return false;  // (M1)
    const PortNetwork::End e = net.endpoint(v, out);
    if (outputs[static_cast<std::size_t>(e.node)] != e.port) return false;  // (M2)
  }
  // (M3): no edge with two unmatched endpoints.
  for (NodeIndex v = 0; v < n; ++v) {
    if (outputs[static_cast<std::size_t>(v)] != kPnUnmatched) continue;
    for (Port p = 1; p <= net.degree(v); ++p) {
      const PortNetwork::End e = net.endpoint(v, p);
      if (outputs[static_cast<std::size_t>(e.node)] == kPnUnmatched) return false;
    }
  }
  return true;
}

bool pn_symmetry_defeats(const PnFactory& factory, int cycle_size, int max_rounds) {
  const PortNetwork net = PortNetwork::symmetric_cycle(cycle_size);
  PnRunResult run;
  try {
    run = run_pn(net, factory, max_rounds);
  } catch (const std::runtime_error&) {
    return true;  // never halted: also not a correct algorithm
  }
  // A deterministic algorithm on a transitive instance stays uniform; a
  // uniform output is never a valid maximal matching on the cycle.
  return run.uniform_throughout && !pn_matching_valid(net, run.outputs);
}

}  // namespace dmm::pn
