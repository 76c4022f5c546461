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
      touch_stamp_(static_cast<std::size_t>(g_.node_count()), 0),
      dirty_(static_cast<std::size_t>(g_.node_count()), 0) {
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

void DynamicMatcher::mark(graph::NodeIndex v, std::uint8_t why) {
  auto& bits = dirty_[static_cast<std::size_t>(v)];
  if (bits == 0) dirty_list_.push_back(v);
  bits |= why;
}

void DynamicMatcher::set_output(graph::NodeIndex v, Colour c) {
  outputs_[static_cast<std::size_t>(v)] = c;
  mark(v, kOutputDirty);
}

void DynamicMatcher::rematch(graph::NodeIndex v) {
  // Greedy repair: lowest incident colour whose neighbour is also free.
  // incident_colours is sorted ascending, so the first hit is the match —
  // the same preference order the one-shot greedy algorithm uses.
  for (const Colour c : g_.incident_colours(v)) {
    const auto w = g_.neighbour(v, c);
    touch(*w);
    if (outputs_[static_cast<std::size_t>(*w)] == local::kUnmatched) {
      set_output(v, c);
      set_output(*w, c);
      ++stats_.repairs;
      return;
    }
  }
}

void DynamicMatcher::apply_one(const ChurnOp& op) {
  const auto in_range = [&](graph::NodeIndex v) { return v >= 0 && v < g_.node_count(); };
  if (!in_range(op.u) || !in_range(op.v)) {
    throw std::invalid_argument("DynamicMatcher: op endpoint is not a node of the graph");
  }
  touch(op.u);
  touch(op.v);
  if (op.kind == ChurnOp::Kind::kInsert) {
    g_.add_edge(op.u, op.v, op.colour);  // throws on an improper insert
    mark(op.u, kEdgeDirty);
    mark(op.v, kEdgeDirty);
    ++stats_.inserts;
    if (outputs_[static_cast<std::size_t>(op.u)] == local::kUnmatched &&
        outputs_[static_cast<std::size_t>(op.v)] == local::kUnmatched) {
      set_output(op.u, op.colour);
      set_output(op.v, op.colour);
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
  mark(op.u, kEdgeDirty);
  mark(op.v, kEdgeDirty);
  ++stats_.deletes;
  const bool was_matched = outputs_[static_cast<std::size_t>(op.u)] == *live &&
                           outputs_[static_cast<std::size_t>(op.v)] == *live;
  if (!was_matched) return;  // unmatched edge: the matching never referenced it
  set_output(op.u, local::kUnmatched);
  set_output(op.v, local::kUnmatched);
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

bool DynamicMatcher::node_clean(graph::NodeIndex v) {
  ++check_visits_;
  return verify::check_node(g_, outputs_, v).ok();
}

verify::MatchingReport DynamicMatcher::check() {
  // Local pass, valid only on top of a clean state: every dirty node,
  // plus the current neighbours of each node whose output changed (their
  // M2 reads it).  Stops at the first hit.
  bool clean = verified_;
  for (std::size_t i = 0; clean && i < dirty_list_.size(); ++i) {
    const graph::NodeIndex v = dirty_list_[i];
    clean = node_clean(v);
    if (clean && (dirty_[static_cast<std::size_t>(v)] & kOutputDirty) != 0) {
      g_.for_each_incident(v, [&](Colour, graph::NodeIndex w) { clean = clean && node_clean(w); });
    }
  }
  for (const graph::NodeIndex v : dirty_list_) dirty_[static_cast<std::size_t>(v)] = 0;
  dirty_list_.clear();
  if (clean) return {};
  check_visits_ += static_cast<std::uint64_t>(g_.node_count());
  verify::MatchingReport report = verify::check_outputs(g_, outputs_);
  verified_ = report.ok();
  return report;
}

}  // namespace dmm::dyn
