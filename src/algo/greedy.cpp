#include "algo/greedy.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "local/program_pool.hpp"

namespace dmm::algo {

std::vector<Colour> greedy_outputs(const graph::EdgeColouredGraph& g) {
  std::vector<Colour> out(static_cast<std::size_t>(g.node_count()), local::kUnmatched);
  for (int c = 1; c <= g.k(); ++c) {
    for (const graph::Edge& e : g.edges()) {
      if (e.colour != c) continue;
      if (out[static_cast<std::size_t>(e.u)] == local::kUnmatched &&
          out[static_cast<std::size_t>(e.v)] == local::kUnmatched) {
        out[static_cast<std::size_t>(e.u)] = c;
        out[static_cast<std::size_t>(e.v)] = c;
      }
    }
  }
  return out;
}

std::vector<Colour> greedy_outputs(const colsys::ColourSystem& system) {
  std::vector<Colour> out(static_cast<std::size_t>(system.size()), local::kUnmatched);
  for (int c = 1; c <= system.k(); ++c) {
    for (colsys::NodeId v = 1; v < system.size(); ++v) {
      if (system.parent_colour(v) != c) continue;
      const colsys::NodeId p = system.parent(v);
      if (out[static_cast<std::size_t>(v)] == local::kUnmatched &&
          out[static_cast<std::size_t>(p)] == local::kUnmatched) {
        out[static_cast<std::size_t>(v)] = c;
        out[static_cast<std::size_t>(p)] = c;
      }
    }
  }
  return out;
}

bool GreedyProgram::init(const Colour* incident, int degree) {
  // The row outlives the run on every engine — borrow it.
  incident_ = incident;
  degree_ = degree;
  cursor_ = 0;
  // Step 1 needs no communication: an incident colour-1 edge matches both
  // of its endpoints immediately (a properly coloured graph has at most one
  // such edge per node, and its other endpoint reasons identically).
  if (degree_ > 0 && incident_[0] == 1) {
    matched_ = true;
    output_ = 1;
  }
  return try_finish(/*completed_step=*/1);
}

bool GreedyProgram::try_finish(int completed_step) {
  if (matched_) return true;
  // An unmatched node may stop once every incident colour has been decided.
  const Colour largest = degree_ == 0 ? 0 : incident_[degree_ - 1];
  if (completed_step >= largest) {
    output_ = local::kUnmatched;
    return true;
  }
  return false;
}

int GreedyProgram::port_for(int round) {
  // Rounds only move forward, so the cursor passes each port once per run.
  const int colour = round + 1;
  while (cursor_ < degree_ && incident_[cursor_] < colour) ++cursor_;
  return cursor_ < degree_ && incident_[cursor_] == colour ? cursor_ : -1;
}

void GreedyProgram::send(int round, local::Outbox& out) {
  // One status byte, matched or free, on the only port round t decides:
  // colour t+1.  The other endpoint of that edge reads exactly this port.
  const int port = port_for(round);
  if (port >= 0) out.set(port, matched_ ? std::string_view("M") : std::string_view("F"));
}

bool GreedyProgram::receive(int round, const local::Inbox& in) {
  // After the exchange in round t we know the neighbours' status at the end
  // of step t, which decides step t+1 — so only the colour-(t+1) port can
  // change our fate.
  const int next = round + 1;
  const int port = port_for(round);
  if (!matched_ && port >= 0) {
    // A halted neighbour announces its output; a matched announcement or
    // an explicit "M" both mean "taken".  An announced ⊥ means permanently
    // free, but a ⊥ neighbour can never be our colour-(t+1) partner anyway
    // (it halted only after its last chance passed), so treat it as free.
    const std::string_view m = in.at(port);
    const bool neighbour_matched =
        m == "M" || (!m.empty() && m.front() == local::kHaltedPrefix && m != "!0");
    if (!neighbour_matched) {
      matched_ = true;
      output_ = static_cast<Colour>(next);
    }
  }
  return try_finish(/*completed_step=*/next);
}

int GreedyProgram::wake_round(int round) const {
  // Colour c is decided in round c-1; until then send writes nothing and
  // receive only confirms that the node is still running.
  int i = cursor_;
  while (i < degree_ && incident_[i] <= round + 1) ++i;
  return i < degree_ ? incident_[i] - 1 : round + 1;
}

void GreedyProgram::save_state(std::string& out) const {
  out.push_back(matched_ ? '\1' : '\0');
  out.push_back(static_cast<char>(output_));
}

void GreedyProgram::load_state(std::string_view in) {
  if (in.size() != 2 || static_cast<unsigned char>(in[0]) > 1) {
    throw std::invalid_argument("GreedyProgram::load_state: malformed state blob");
  }
  matched_ = in[0] != '\0';
  output_ = static_cast<Colour>(static_cast<unsigned char>(in[1]));
  cursor_ = 0;  // port_for re-derives it from the next round it sees
}

local::ProgramSource greedy_program_factory() {
  return local::pooled<GreedyProgram>();
}

Colour GreedyLocal::evaluate(const colsys::ColourSystem& view) const {
  // Simulate greedy on the view; by the radius argument of §1.2 the fate of
  // the root after all k steps depends only on the radius-k ball, which is
  // exactly the view we received.
  const std::vector<Colour> outs = greedy_outputs(view);
  return outs[static_cast<std::size_t>(colsys::ColourSystem::root())];
}

}  // namespace dmm::algo
