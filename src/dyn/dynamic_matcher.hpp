// Incremental maximal matching under edge churn (ROADMAP scenario (a)).
//
// DynamicMatcher owns an instance and a maximal matching over it in the
// library's output encoding (outputs[v] = the colour v is matched along,
// local::kUnmatched = ⊥), seeded by a full LOCAL greedy run.  apply()
// mutates the graph by one ChurnBatch and repairs the matching locally
// instead of recomputing:
//
//   * insert {u, v}: the matching stays a matching; maximality can only
//     break at the new edge itself, and only when both endpoints are
//     free — in which case the edge is matched on the spot;
//   * delete of an unmatched edge: nothing changes anywhere;
//   * delete of a matched edge: both endpoints become free, and each
//     greedily re-matches along its lowest incident colour with a free
//     partner.  The two repairs cannot interfere: the deleted edge is
//     gone so u ∉ N(v), and a repair only turns free nodes matched, never
//     the reverse — so maximality, intact everywhere else before the op,
//     is restored by inspecting just N(u) ∪ N(v).
//
// Each repair therefore touches O(Δ) nodes.  The stats() counters measure
// exactly that locality and are pure functions of (instance, plan) —
// engine-, thread- and schedule-independent — which is what the e12 bench
// baseline gates exactly.  recompute() is the from-scratch oracle: a full
// LOCAL greedy run on the current graph through the session API, every
// oracle run sharing one local::Runtime across graph versions (one worker
// pool however many recomputes).  Incremental and oracle outputs need not
// be byte-equal — repair may keep an edge a fresh greedy run would not
// pick — but both must pass verify::check_outputs after every batch;
// docs/dynamic.md carries the invariant argument and
// tests/test_dynamic.cpp enforces it across the churn grid.  check()
// gives check_outputs' report while testing only the nodes apply() wrote
// since the last clean check and their neighbours (docs/dynamic.md).
#pragma once

#include <cstdint>
#include <vector>

#include "dyn/churn.hpp"
#include "graph/edge_coloured_graph.hpp"
#include "local/engine.hpp"
#include "local/runtime.hpp"
#include "verify/matching.hpp"

namespace dmm::dyn {

struct MatcherOptions {
  /// Engine for the seeding run and for recompute(); either must agree
  /// with the other on maximality (they are bit-identical by the engine
  /// equivalence suite, so this only changes who does the work).
  local::EngineKind engine = local::EngineKind::kSync;
  /// Worker budget of the shared runtime backing flat oracle runs.
  int threads = 1;
};

/// Cumulative apply() accounting.  All pure functions of (instance, plan).
struct RepairStats {
  std::uint64_t batches = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  /// Matching edges created by repair: immediate matches of inserted
  /// edges plus greedy re-matches after a matched-edge delete.  (Deleting
  /// a matched edge is damage, not repair — it is not counted here.)
  std::uint64_t repairs = 0;
  /// Σ over batches of the distinct nodes whose matching state the batch
  /// read or wrote: op endpoints plus every neighbour a re-match scan
  /// inspected.  The locality claim, as a number.
  std::uint64_t touched_nodes = 0;
  /// Σ over batches of (node_count − touched): the per-node work a
  /// recompute-from-scratch would have redone for no reason.
  std::uint64_t recompute_avoided = 0;

  bool operator==(const RepairStats&) const = default;
};

class DynamicMatcher {
 public:
  /// Takes the instance by value and seeds the matching with a full LOCAL
  /// greedy run on it.
  explicit DynamicMatcher(graph::EdgeColouredGraph g, const MatcherOptions& options = {});

  const graph::EdgeColouredGraph& graph() const noexcept { return g_; }
  const std::vector<Colour>& outputs() const noexcept { return outputs_; }
  const RepairStats& stats() const noexcept { return stats_; }

  /// Applies the batch — ops in order, each repaired before the next —
  /// and updates the counters.  Invalid ops throw std::invalid_argument
  /// mid-batch; callers with a whole plan should prefer the ChurnPlan
  /// overload, which validates everything up front.
  void apply(const ChurnBatch& batch);

  /// Validates the whole plan against the current graph
  /// (ChurnPlan::require_applies — throws with the instance untouched),
  /// then applies every batch.
  void apply(const ChurnPlan& plan);

  /// Recompute-from-scratch oracle: full LOCAL greedy on the current
  /// graph via the session API over the shared runtime.
  std::vector<Colour> recompute() { return recompute(opts_.engine); }
  std::vector<Colour> recompute(local::EngineKind engine);

  /// The report verify::check_outputs(graph(), outputs()) would give, at
  /// O(Σ (1 + deg)) over the nodes written since the last check instead
  /// of O(n + m).  (M1)–(M3) at a node read only its row and its
  /// neighbours' outputs, so once a check has come back clean a later
  /// violation can only sit on an endpoint of an edited edge, on a node
  /// whose output changed, or on a current neighbour of one; check() runs
  /// verify::check_node over exactly that region.  It trusts one thing:
  /// that graph and outputs change only inside apply(), which records
  /// every edit in a dirty set.  The first check after construction, and
  /// every check after a non-clean one, is the full check_outputs; a
  /// local hit falls back to it too, and its report is returned as is.
  verify::MatchingReport check();

  /// Nodes check() has tested over this matcher's lifetime (n per full
  /// pass): the deterministic cost count behind check()'s bound.  Kept
  /// out of RepairStats, which must not depend on whether anyone checks.
  std::uint64_t check_visits() const noexcept { return check_visits_; }

 private:
  void apply_one(const ChurnOp& op);
  void rematch(graph::NodeIndex v);
  void touch(graph::NodeIndex v);
  // The one write to outputs_ after seeding; marks v output-dirty.
  void set_output(graph::NodeIndex v, Colour c);
  void mark(graph::NodeIndex v, std::uint8_t why);
  bool node_clean(graph::NodeIndex v);

  graph::EdgeColouredGraph g_;
  MatcherOptions opts_;
  local::Runtime runtime_;
  local::ProgramSource source_;  // pooled greedy, shared by every recompute
  std::vector<Colour> outputs_;
  RepairStats stats_;
  // Per-batch distinct-node accounting: a node is "touched" once per
  // batch, however many ops of the batch visit it.
  std::vector<std::uint32_t> touch_stamp_;
  std::uint32_t batch_stamp_ = 0;
  std::uint64_t touched_this_batch_ = 0;
  // Writes since the last check(): dirty_[v] holds kEdgeDirty /
  // kOutputDirty bits, and each node enters dirty_list_ once, so the list
  // never outgrows n however many batches run between checks.
  static constexpr std::uint8_t kEdgeDirty = 1;
  static constexpr std::uint8_t kOutputDirty = 2;
  std::vector<std::uint8_t> dirty_;
  std::vector<graph::NodeIndex> dirty_list_;
  bool verified_ = false;  // the last check() was clean
  std::uint64_t check_visits_ = 0;
};

}  // namespace dmm::dyn
