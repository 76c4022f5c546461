#include "dyn/dynamic_matcher.hpp"

#include <stdexcept>

#include "algo/greedy.hpp"
#include "local/flat_engine.hpp"

namespace dmm::dyn {

DynamicMatcher::DynamicMatcher(graph::EdgeColouredGraph g, const MatcherOptions& options)
    : g_(std::move(g)),
      opts_(options),
      runtime_(options.threads),
      source_(algo::greedy_program_factory()),
      touch_stamp_(static_cast<std::size_t>(g_.node_count()), 0) {
  outputs_ = recompute(opts_.engine);
}

std::vector<Colour> DynamicMatcher::recompute(local::EngineKind engine) {
  local::RunOptions options;
  options.max_rounds = g_.k() + 1;
  auto session = local::make_session(engine, g_, source_, options, &runtime_);
  while (!session->done()) session->step();
  return session->result().outputs;
}

void DynamicMatcher::touch(graph::NodeIndex v) {
  auto& stamp = touch_stamp_[static_cast<std::size_t>(v)];
  if (stamp != batch_stamp_) {
    stamp = batch_stamp_;
    ++touched_this_batch_;
  }
}

void DynamicMatcher::rematch(graph::NodeIndex v) {
  // Greedy repair: lowest incident colour whose neighbour is also free.
  // incident_colours is sorted ascending, so the first hit is the match —
  // the same preference order the one-shot greedy algorithm uses.
  for (const Colour c : g_.incident_colours(v)) {
    const auto w = g_.neighbour(v, c);
    touch(*w);
    if (outputs_[static_cast<std::size_t>(*w)] == local::kUnmatched) {
      outputs_[static_cast<std::size_t>(v)] = c;
      outputs_[static_cast<std::size_t>(*w)] = c;
      ++stats_.repairs;
      return;
    }
  }
}

void DynamicMatcher::apply_one(const ChurnOp& op) {
  touch(op.u);
  touch(op.v);
  if (op.kind == ChurnOp::Kind::kInsert) {
    g_.add_edge(op.u, op.v, op.colour);  // throws on an improper insert
    ++stats_.inserts;
    if (outputs_[static_cast<std::size_t>(op.u)] == local::kUnmatched &&
        outputs_[static_cast<std::size_t>(op.v)] == local::kUnmatched) {
      outputs_[static_cast<std::size_t>(op.u)] = op.colour;
      outputs_[static_cast<std::size_t>(op.v)] = op.colour;
      ++stats_.repairs;
    }
    return;
  }
  const auto live = g_.edge_colour(op.u, op.v);
  if (!live) throw std::invalid_argument("DynamicMatcher: delete of a non-edge");
  if (op.colour != gk::kNoColour && op.colour != *live) {
    throw std::invalid_argument("DynamicMatcher: delete names the wrong colour");
  }
  g_.remove_edge(op.u, op.v);
  ++stats_.deletes;
  const bool was_matched = outputs_[static_cast<std::size_t>(op.u)] == *live &&
                           outputs_[static_cast<std::size_t>(op.v)] == *live;
  if (!was_matched) return;  // unmatched edge: the matching never referenced it
  outputs_[static_cast<std::size_t>(op.u)] = local::kUnmatched;
  outputs_[static_cast<std::size_t>(op.v)] = local::kUnmatched;
  rematch(op.u);
  rematch(op.v);
}

void DynamicMatcher::apply(const ChurnBatch& batch) {
  ++batch_stamp_;
  touched_this_batch_ = 0;
  for (const ChurnOp& op : batch.ops) apply_one(op);
  ++stats_.batches;
  stats_.touched_nodes += touched_this_batch_;
  const auto n = static_cast<std::uint64_t>(g_.node_count());
  stats_.recompute_avoided += n - touched_this_batch_;
}

void DynamicMatcher::apply(const ChurnPlan& plan) {
  plan.require_applies(g_);
  for (const ChurnBatch& batch : plan.batches()) apply(batch);
}

}  // namespace dmm::dyn
