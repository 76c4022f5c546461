// Synchronous engine for the port-numbering model, plus the broadcast
// variant of [2] (§1.4: the paper's lower bound covers both).
//
// A PN program initially knows only its degree; it exchanges messages per
// port.  In the broadcast variant, a node must send the *same* message on
// all ports (enforced by the engine, an unset port counting as the empty
// message).  The edge-coloured greedy algorithm is not a broadcast
// algorithm: in round t it writes its status only on its colour-(t+1)
// port, the one port that round decides.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pn/port_network.hpp"

namespace dmm::pn {

using Message = std::string;

/// Local output in the PN model: the matched port, or 0 for unmatched.
using PnOutput = Port;
inline constexpr PnOutput kPnUnmatched = 0;

class PnProgram {
 public:
  virtual ~PnProgram() = default;
  /// Initial knowledge is the degree only.  Return true to halt.
  virtual bool init(int degree) = 0;
  /// One message per port (1..degree).
  virtual std::map<Port, Message> send(int round) = 0;
  virtual bool receive(int round, const std::map<Port, Message>& inbox) = 0;
  virtual PnOutput output() const = 0;
};

using PnFactory = std::function<std::unique_ptr<PnProgram>()>;

struct PnRunResult {
  std::vector<PnOutput> outputs;
  std::vector<int> halt_round;
  int rounds = 0;
  /// True iff in every round every node had the same state footprint
  /// (same messages sent, same halting status) — the symmetry invariant
  /// of transitive PN networks such as symmetric_cycle.
  bool uniform_throughout = true;
};

/// Runs the PN engine.  If `broadcast` is true, throws std::logic_error if
/// any node sends different messages on different ports, where an unset
/// port counts as the empty message (so a partial send throws).
PnRunResult run_pn(const PortNetwork& net, const PnFactory& factory, int max_rounds,
                   bool broadcast = false);

/// Checks the §2.4 conditions translated to ports: matched ports pair up
/// consistently and no edge has two unmatched endpoints.
bool pn_matching_valid(const PortNetwork& net, const std::vector<PnOutput>& outputs);

/// The §1.4 demonstration: on the symmetric cycle, any deterministic PN
/// algorithm produces uniform outputs, and uniform outputs are never a
/// valid maximal matching (all-⊥ is not maximal; "everyone matches port p"
/// is inconsistent).  Returns true iff the algorithm indeed failed there.
bool pn_symmetry_defeats(const PnFactory& factory, int cycle_size, int max_rounds);

}  // namespace dmm::pn
