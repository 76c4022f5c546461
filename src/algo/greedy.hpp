// The greedy maximal matching algorithm (§1.2, Figure 1, Lemma 1).
//
// Step i considers all edges of colour i in parallel; an edge {u, v} of
// colour i joins the matching iff neither endpoint is matched yet.  Step 1
// needs no communication, so the running time is exactly k-1 rounds.
//
// Three equivalent realisations are provided and cross-validated in tests:
//   * greedy_outputs        — centralised reference implementation,
//   * GreedyProgram         — message-passing state machine, run unchanged
//     by run_sync, run_flat and (through pn::ColouredAdapter) run_pn,
//   * GreedyLocal           — the §2.3 functional form (input: radius-k view),
//     which is what the lower-bound adversary interrogates.
#pragma once

#include <memory>
#include <vector>

#include "local/algorithm.hpp"
#include "local/engine.hpp"

namespace dmm::algo {

using gk::Colour;

/// Reference implementation on a whole instance.
std::vector<Colour> greedy_outputs(const graph::EdgeColouredGraph& g);

/// Reference implementation on a colour system (tree instance); processes
/// the parent edges of all nodes, colours in increasing order.  Exact on
/// every node whose greedy fate is determined inside the truncation; callers
/// are responsible for only trusting sufficiently interior nodes.
std::vector<Colour> greedy_outputs(const colsys::ColourSystem& system);

/// Message-passing greedy.  Halts at round c-1 when matched along colour c;
/// an never-matched node halts once its largest incident colour has been
/// resolved.  Round t decides colour class t+1 only, so a node sends and
/// reads just its colour-(t+1) port — and sleeps (wake_round) through the
/// rounds in which it has none.  Allocation-free: it keeps init's pointer
/// to the incident colour row, and its only message is a one-byte
/// matched/free status.
class GreedyProgram final : public local::NodeProgram {
 public:
  bool init(const Colour* incident, int degree) override;
  void send(int round, local::Outbox& out) override;
  bool receive(int round, const local::Inbox& in) override;
  Colour output() const override { return output_; }
  /// The round deciding the next incident colour above round + 1.
  int wake_round(int round) const override;
  // Checkpoint hooks: the whole dynamic state is {matched_, output_} — the
  // incident colours are re-derived by init, and the port cursor from the
  // round of the next call.  Two bytes per node.
  void save_state(std::string& out) const override;
  void load_state(std::string_view in) override;

 private:
  bool try_finish(int completed_step);
  /// The port of colour round + 1, or -1 when there is none.
  int port_for(int round);

  const Colour* incident_ = nullptr;  // sorted; the engine's row
  int degree_ = 0;
  int cursor_ = 0;  // first port whose colour is not yet decided (monotone)
  Colour output_ = local::kUnmatched;
  bool matched_ = false;
};

/// The pooled greedy source (accepted directly by local::run/run_sync/
/// run_flat): all n programs in one contiguous arena block.
local::ProgramSource greedy_program_factory();

/// Functional greedy (running time k-1): simulates the greedy process on
/// the radius-k view and reports the root's fate, which the locality
/// argument of §1.2 shows is exact.
class GreedyLocal final : public local::LocalAlgorithm {
 public:
  explicit GreedyLocal(int k) : k_(k) {}
  int running_time() const override { return k_ - 1; }
  Colour evaluate(const colsys::ColourSystem& view) const override;
  std::string name() const override { return "greedy(k=" + std::to_string(k_) + ")"; }

 private:
  int k_;
};

}  // namespace dmm::algo
