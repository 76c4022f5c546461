#include "nbhd/csp.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <queue>
#include <stdexcept>
#include <thread>

namespace dmm::nbhd {

namespace {

bool consistent(const CompatiblePair& pair, Colour out_a, Colour out_b) {
  // (M2): matched along the shared edge iff both say so.
  if ((out_a == pair.colour) != (out_b == pair.colour)) return false;
  // (M3): not both unmatched.
  if (out_a == gk::kNoColour && out_b == gk::kNoColour) return false;
  return true;
}

/// Domains as bitsets: bit 0 is ⊥, bit c is colour c.  d+1 values at most,
/// so every domain operation is a handful of mask instructions.
using Mask = std::uint32_t;

inline int domain_size(Mask m) { return std::popcount(m); }

/// One arc of the constraint graph in CSR form: the far endpoint and the
/// shared edge colour of a compatible pair.
struct Arc {
  std::int32_t other;
  Colour colour;
};

/// The shared, read-only half of the problem: domains after the initial
/// arc-consistency pass, plus the CSR arc lists.
struct Problem {
  int n = 0;
  std::vector<Mask> base_domains;
  std::vector<std::size_t> row;  // n+1 offsets into arcs
  std::vector<Arc> arcs;
  bool wiped_out = false;  // arc consistency emptied a domain: UNSAT, no search
};

/// Values of dom(x) supported by some value of dom(y) across a c-arc:
///   * c is supported iff c ∈ dom(y);
///   * a colour v ∉ {c, ⊥} is supported iff dom(y) has any value ≠ c;
///   * ⊥ is supported iff dom(y) has any value ∉ {c, ⊥}  (M3).
inline Mask support(Mask dom_y, Colour c, Mask all_colours) {
  const Mask cbit = Mask{1} << c;
  Mask s = 0;
  if (dom_y & cbit) s |= cbit;
  if (dom_y & ~cbit) s |= all_colours & ~cbit;
  if (dom_y & ~(cbit | Mask{1})) s |= Mask{1};
  return s;
}

/// AC-3 over the pair constraints.  Returns false on a domain wipe-out
/// (the instance is UNSAT with zero search nodes).
bool arc_consistency(Problem& problem, Mask all_colours) {
  std::vector<char> queued(static_cast<std::size_t>(problem.n), 1);
  std::deque<std::int32_t> queue;
  for (std::int32_t v = 0; v < problem.n; ++v) queue.push_back(v);
  while (!queue.empty()) {
    const std::int32_t x = queue.front();
    queue.pop_front();
    queued[static_cast<std::size_t>(x)] = 0;
    Mask dom = problem.base_domains[static_cast<std::size_t>(x)];
    const Mask before = dom;
    for (std::size_t i = problem.row[static_cast<std::size_t>(x)];
         i < problem.row[static_cast<std::size_t>(x) + 1] && dom != 0; ++i) {
      const Arc& arc = problem.arcs[i];
      dom &= support(problem.base_domains[static_cast<std::size_t>(arc.other)], arc.colour,
                     all_colours);
    }
    if (dom == before) continue;
    problem.base_domains[static_cast<std::size_t>(x)] = dom;
    if (dom == 0) return false;
    for (std::size_t i = problem.row[static_cast<std::size_t>(x)];
         i < problem.row[static_cast<std::size_t>(x) + 1]; ++i) {
      const std::int32_t y = problem.arcs[i].other;
      if (!queued[static_cast<std::size_t>(y)]) {
        queued[static_cast<std::size_t>(y)] = 1;
        queue.push_back(y);
      }
    }
  }
  return true;
}

/// Backtracking search state.  MRV is served by a lazy min-heap of
/// (domain size, variable) entries: every domain change pushes a fresh
/// entry, and stale ones are discarded on pop — O(log n) per pick instead
/// of the seed's O(n) scan per node (the dominant cost at 78k variables).
struct SearchState {
  std::vector<Mask> domains;
  std::vector<Colour> assignment;
  std::vector<char> assigned;
  std::priority_queue<std::pair<int, std::int32_t>, std::vector<std::pair<int, std::int32_t>>,
                      std::greater<>>
      mrv;
  std::uint64_t explored = 0;

  explicit SearchState(const Problem& problem)
      : domains(problem.base_domains),
        assignment(static_cast<std::size_t>(problem.n), gk::kNoColour),
        assigned(static_cast<std::size_t>(problem.n), 0) {
    for (std::int32_t v = 0; v < problem.n; ++v) {
      mrv.emplace(domain_size(domains[static_cast<std::size_t>(v)]), v);
    }
  }

  void touch(std::int32_t v) { mrv.emplace(domain_size(domains[static_cast<std::size_t>(v)]), v); }

  /// Smallest-domain unassigned variable (ties by index), or -1.
  std::int32_t pick() {
    while (!mrv.empty()) {
      const auto [size, v] = mrv.top();
      if (!assigned[static_cast<std::size_t>(v)] &&
          domain_size(domains[static_cast<std::size_t>(v)]) == size) {
        mrv.pop();
        return v;
      }
      mrv.pop();
    }
    // The heap invariant (every unassigned variable has a live entry)
    // should make this scan dead code; it is a cheap safety net that runs
    // at most once per solution.
    for (std::int32_t v = 0; v < static_cast<std::int32_t>(domains.size()); ++v) {
      if (!assigned[static_cast<std::size_t>(v)]) {
        touch(v);
        return v;
      }
    }
    return -1;
  }
};

struct Frame {
  std::int32_t variable;
  Mask values;  // values of the variable's domain not yet tried
  std::vector<std::pair<std::int32_t, Mask>> saved;
};

/// Serial backtracking from a prepared state.  `first_value_mask`, when
/// non-zero, restricts the root frame to a subset of its domain (the unit
/// of parallel branch decomposition).  `cancel` aborts the search with an
/// indeterminate result (only ever observed by branches that lost the
/// deterministic merge).
bool search(const Problem& problem, SearchState& state, Mask first_value_mask,
            const std::atomic<bool>* cancel) {
  std::vector<Frame> stack;
  const std::int32_t first = state.pick();
  if (first < 0) return true;  // no variables at all
  stack.push_back({first,
                   first_value_mask ? first_value_mask & state.domains[static_cast<std::size_t>(first)]
                                    : state.domains[static_cast<std::size_t>(first)],
                   {}});

  auto undo = [&](Frame& frame) {
    for (auto& [other, mask] : frame.saved) {
      state.domains[static_cast<std::size_t>(other)] = mask;
      state.touch(other);
    }
    frame.saved.clear();
    state.assigned[static_cast<std::size_t>(frame.variable)] = 0;
  };

  while (!stack.empty()) {
    if (cancel && (state.explored & 1023u) == 0 &&
        cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    Frame& frame = stack.back();
    const std::int32_t var = frame.variable;
    if (frame.values == 0) {
      state.touch(var);  // its pick-time heap entry was consumed
      stack.pop_back();
      if (!stack.empty()) undo(stack.back());
      continue;
    }
    // Try ⊥ first, then colours ascending (bit order == the seed's domain
    // vector order).
    const Mask value_bit = frame.values & (~frame.values + 1);
    frame.values &= ~value_bit;
    const Colour value = static_cast<Colour>(std::countr_zero(value_bit));
    ++state.explored;
    state.assignment[static_cast<std::size_t>(var)] = value;
    state.assigned[static_cast<std::size_t>(var)] = 1;

    bool dead = false;
    for (std::size_t i = problem.row[static_cast<std::size_t>(var)];
         i < problem.row[static_cast<std::size_t>(var) + 1]; ++i) {
      const Arc& arc = problem.arcs[i];
      const std::int32_t other = arc.other;
      if (state.assigned[static_cast<std::size_t>(other)]) {
        const Colour other_value = state.assignment[static_cast<std::size_t>(other)];
        if ((value == arc.colour) != (other_value == arc.colour) ||
            (value == gk::kNoColour && other_value == gk::kNoColour)) {
          dead = true;
          break;
        }
        continue;
      }
      // Forward check: value == c forces the partner to c; otherwise the
      // partner cannot be c, and if value is ⊥ it cannot be ⊥ either (M3).
      const Mask cbit = Mask{1} << arc.colour;
      Mask allowed;
      if (value == arc.colour) {
        allowed = cbit;
      } else {
        allowed = ~cbit;
        if (value == gk::kNoColour) allowed &= ~Mask{1};
      }
      Mask& dom = state.domains[static_cast<std::size_t>(other)];
      const Mask pruned = dom & allowed;
      if (pruned != dom) {
        frame.saved.emplace_back(other, dom);
        dom = pruned;
        state.touch(other);
        if (pruned == 0) {
          dead = true;
          break;
        }
      }
    }
    if (dead) {
      // Roll back this value's prunes; the frame then tries its next value.
      undo(frame);
      continue;
    }
    const std::int32_t next = state.pick();
    if (next < 0) return true;  // complete assignment
    stack.push_back({next, state.domains[static_cast<std::size_t>(next)], {}});
  }
  return false;
}

/// (M1) domains: ⊥ plus the root's incident colours, per view.
std::vector<Mask> base_domains(const ViewCatalogue& catalogue) {
  std::vector<Mask> domains(static_cast<std::size_t>(catalogue.size()));
  for (int v = 0; v < catalogue.size(); ++v) {
    Mask dom = Mask{1};
    for (Colour c : catalogue.views[static_cast<std::size_t>(v)].colours_at(
             colsys::ColourSystem::root())) {
      dom |= Mask{1} << c;
    }
    domains[static_cast<std::size_t>(v)] = dom;
  }
  return domains;
}

/// Same for the members of an orbit catalogue, read off the representatives
/// through the coset witnesses: member (o, σ) is σ·rep, so its root colours
/// are the σ-images of the representative's — no member tree needed.
std::vector<Mask> base_domains(const OrbitCatalogue& catalogue) {
  std::vector<Mask> domains;
  domains.reserve(static_cast<std::size_t>(catalogue.view_count()));
  for (int o = 0; o < catalogue.orbit_count(); ++o) {
    const std::vector<Colour> roots = catalogue.reps[static_cast<std::size_t>(o)].colours_at(
        colsys::ColourSystem::root());
    for (const ColourPerm& sigma : catalogue.cosets[static_cast<std::size_t>(o)]) {
      Mask dom = Mask{1};
      for (Colour c : roots) dom |= Mask{1} << sigma[c];
      domains.push_back(dom);
    }
  }
  return domains;
}

Problem build_problem(std::vector<Mask> domains, int k,
                      const std::vector<CompatiblePair>& pairs) {
  Problem problem;
  problem.n = static_cast<int>(domains.size());
  problem.base_domains = std::move(domains);
  // CSR arc lists.  Self pairs (a view compatible with itself along c) are
  // a unary constraint — (M3) bans ⊥ — applied to the domain directly.
  std::vector<std::size_t> degree(static_cast<std::size_t>(problem.n), 0);
  for (const CompatiblePair& pair : pairs) {
    if (pair.a == pair.b) {
      problem.base_domains[static_cast<std::size_t>(pair.a)] &= ~Mask{1};
      continue;
    }
    ++degree[static_cast<std::size_t>(pair.a)];
    ++degree[static_cast<std::size_t>(pair.b)];
  }
  problem.row.assign(static_cast<std::size_t>(problem.n) + 1, 0);
  for (int v = 0; v < problem.n; ++v) {
    problem.row[static_cast<std::size_t>(v) + 1] =
        problem.row[static_cast<std::size_t>(v)] + degree[static_cast<std::size_t>(v)];
  }
  problem.arcs.resize(problem.row.back());
  std::vector<std::size_t> fill(problem.row.begin(), problem.row.end() - 1);
  for (const CompatiblePair& pair : pairs) {
    if (pair.a == pair.b) continue;
    problem.arcs[fill[static_cast<std::size_t>(pair.a)]++] = {pair.b, pair.colour};
    problem.arcs[fill[static_cast<std::size_t>(pair.b)]++] = {pair.a, pair.colour};
  }

  Mask all_colours = 0;
  for (int c = 1; c <= k; ++c) all_colours |= Mask{1} << c;
  problem.wiped_out = !arc_consistency(problem, all_colours);
  return problem;
}

/// The search driver shared by the raw and the orbit-mode entry points.
CspResult solve_problem(const Problem& problem, const CspOptions& options) {
  CspResult result;
  if (problem.wiped_out) return result;  // UNSAT by propagation alone

  const int threads = std::max(1, options.threads);
  if (threads == 1 || problem.n == 0) {
    SearchState state(problem);
    result.satisfiable = search(problem, state, 0, nullptr);
    result.nodes_explored = state.explored;
    if (result.satisfiable) result.labelling = std::move(state.assignment);
    return result;
  }

  // Parallel exploration of the root variable's branchings.  Branch i may
  // only be cancelled once a branch j < i has proven SAT, so the smallest
  // SAT branch always completes — its labelling is exactly what the serial
  // search (which tries branch values in the same ⊥-then-ascending order)
  // would have returned.
  SearchState root_probe(problem);
  const std::int32_t root_var = root_probe.pick();
  if (root_var < 0) {
    result.satisfiable = true;
    result.labelling.assign(static_cast<std::size_t>(problem.n), gk::kNoColour);
    return result;
  }
  std::vector<Mask> branch_bits;
  Mask dom = problem.base_domains[static_cast<std::size_t>(root_var)];
  while (dom != 0) {
    const Mask bit = dom & (~dom + 1);
    branch_bits.push_back(bit);
    dom &= ~bit;
  }
  const int branch_count = static_cast<int>(branch_bits.size());
  std::vector<char> found(static_cast<std::size_t>(branch_count), 0);
  std::vector<std::vector<Colour>> labellings(static_cast<std::size_t>(branch_count));
  std::vector<std::uint64_t> explored(static_cast<std::size_t>(branch_count), 0);
  std::atomic<int> best{branch_count};
  std::vector<std::atomic<bool>> cancel(static_cast<std::size_t>(branch_count));
  for (auto& flag : cancel) flag.store(false, std::memory_order_relaxed);
  std::atomic<int> next_branch{0};

  auto worker = [&]() {
    while (true) {
      const int i = next_branch.fetch_add(1, std::memory_order_relaxed);
      if (i >= branch_count) return;
      if (best.load(std::memory_order_acquire) < i) continue;
      SearchState state(problem);
      const bool sat = search(problem, state, branch_bits[static_cast<std::size_t>(i)],
                              &cancel[static_cast<std::size_t>(i)]);
      explored[static_cast<std::size_t>(i)] = state.explored;
      if (sat) {
        found[static_cast<std::size_t>(i)] = 1;
        labellings[static_cast<std::size_t>(i)] = std::move(state.assignment);
        int expected = best.load(std::memory_order_acquire);
        while (i < expected &&
               !best.compare_exchange_weak(expected, i, std::memory_order_acq_rel)) {
        }
        // Cancel every higher-indexed branch.
        for (int j = i + 1; j < branch_count; ++j) {
          cancel[static_cast<std::size_t>(j)].store(true, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  const int workers = std::min(threads, branch_count);
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  for (std::uint64_t count : explored) result.nodes_explored += count;
  const int winner = best.load(std::memory_order_acquire);
  if (winner < branch_count) {
    result.satisfiable = true;
    result.labelling = std::move(labellings[static_cast<std::size_t>(winner)]);
  }
  return result;
}

}  // namespace

CspResult solve(const ViewCatalogue& catalogue, const std::vector<CompatiblePair>& pairs,
                const CspOptions& options) {
  if (catalogue.k + 1 >= 32) throw std::invalid_argument("solve: k too large for mask domains");
  const Problem problem = build_problem(base_domains(catalogue), catalogue.k, pairs);
  return solve_problem(problem, options);
}

CspResult solve(const ViewCatalogue& catalogue, const CspOptions& options) {
  return solve(catalogue, compatible_pairs(catalogue), options);
}

CspResult solve(const OrbitCatalogue& catalogue, const std::vector<CompatiblePair>& pairs,
                const CspOptions& options) {
  if (catalogue.k + 1 >= 32) throw std::invalid_argument("solve: k too large for mask domains");
  const Problem problem = build_problem(base_domains(catalogue), catalogue.k, pairs);
  return solve_problem(problem, options);
}

CspResult solve(const OrbitCatalogue& catalogue, const CspOptions& options) {
  return solve(catalogue, compatible_pairs(catalogue), options);
}

std::vector<Colour> induced_labelling(const ViewCatalogue& catalogue,
                                      const local::LocalAlgorithm& algorithm) {
  if (algorithm.running_time() + 1 != catalogue.rho) {
    throw std::invalid_argument("induced_labelling: algorithm radius does not match catalogue");
  }
  std::vector<Colour> out;
  out.reserve(static_cast<std::size_t>(catalogue.size()));
  for (const colsys::ColourSystem& view : catalogue.views) {
    out.push_back(algorithm.evaluate(view));
  }
  return out;
}

std::optional<CompatiblePair> check_labelling(const ViewCatalogue& catalogue,
                                              const std::vector<Colour>& labelling) {
  if (labelling.size() != static_cast<std::size_t>(catalogue.size())) {
    throw std::invalid_argument("check_labelling: size mismatch");
  }
  // (M1).
  for (int v = 0; v < catalogue.size(); ++v) {
    const Colour out = labelling[static_cast<std::size_t>(v)];
    if (out == gk::kNoColour) continue;
    const auto incident =
        catalogue.views[static_cast<std::size_t>(v)].colours_at(colsys::ColourSystem::root());
    if (std::find(incident.begin(), incident.end(), out) == incident.end()) {
      return CompatiblePair{v, v, out};
    }
  }
  for (const CompatiblePair& pair : compatible_pairs(catalogue)) {
    if (!consistent(pair, labelling[static_cast<std::size_t>(pair.a)],
                    labelling[static_cast<std::size_t>(pair.b)])) {
      return pair;
    }
  }
  return std::nullopt;
}

}  // namespace dmm::nbhd
