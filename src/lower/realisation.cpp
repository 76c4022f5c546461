#include "lower/realisation.hpp"

#include <algorithm>
#include <deque>
#include <thread>
#include <utility>

#include "io/serialize.hpp"

namespace dmm::lower {

namespace {
constexpr std::uint32_t kEvaluatorStateVersion = 1;
}  // namespace

void Evaluator::save(std::ostream& out) const {
  io::ByteWriter w;
  w.bytes(algorithm_.name());
  w.u8(memoise_ ? 1 : 0);
  w.u8(orbit_ ? 1 : 0);
  w.varint(evaluations_);
  w.varint(memo_hits_);
  w.varint(answers_);
  // The interned canonical views, in id order: re-interning them in the
  // same order on load reproduces the identical ViewId assignment.
  w.varint(static_cast<std::uint64_t>(store_.size()));
  for (colsys::ViewId id = 0; id < store_.size(); ++id) {
    const std::vector<std::uint8_t>& key = store_.bytes(id);
    w.bytes(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  }
  w.bytes(std::string_view(reinterpret_cast<const char*>(memo_.data()), memo_.size()));
  w.varint(static_cast<std::uint64_t>(store_.orbit_count()));
  for (colsys::OrbitId id = 0; id < store_.orbit_count(); ++id) {
    const std::vector<std::uint8_t>& key = store_.orbit_bytes(id);
    w.bytes(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  }
  w.varint(orbit_memo_.size());
  for (const OrbitEntry& entry : orbit_memo_) {
    w.varint(entry.stabiliser.size());
    for (const colsys::ColourPerm& p : entry.stabiliser) {
      w.bytes(std::string_view(reinterpret_cast<const char*>(p.data()), p.size()));
    }
    // unordered_map iteration order is not deterministic; sort by rank so
    // the byte stream is a pure function of the memo contents.
    std::vector<std::pair<std::uint32_t, Colour>> answers(entry.answers.begin(),
                                                          entry.answers.end());
    std::sort(answers.begin(), answers.end());
    w.varint(answers.size());
    for (const auto& [rank, colour] : answers) {
      w.varint(rank);
      w.u8(colour);
    }
    w.u8(entry.rep_answer);
  }
  io::write_frame(out, "EVAL", kEvaluatorStateVersion, w.buffer());
}

void Evaluator::load(std::istream& in) {
  if (evaluations_ != 0 || memo_hits_ != 0 || store_.size() != 0 ||
      store_.orbit_count() != 0) {
    throw std::runtime_error("Evaluator::load: requires a freshly constructed evaluator");
  }
  const io::Frame frame = io::read_frame(in, "EVAL");
  if (frame.version != kEvaluatorStateVersion) {
    throw std::runtime_error("Evaluator::load: unsupported state version " +
                             std::to_string(frame.version));
  }
  io::ByteReader r(frame.payload);
  const std::string_view name = r.bytes();
  if (name != algorithm_.name()) {
    throw std::runtime_error("Evaluator::load: state was captured for algorithm '" +
                             std::string(name) + "', this evaluator runs '" +
                             algorithm_.name() + "'");
  }
  if ((r.u8() != 0) != memoise_ || (r.u8() != 0) != orbit_) {
    throw std::runtime_error("Evaluator::load: memo-mode mismatch");
  }
  evaluations_ = r.varint();
  memo_hits_ = r.varint();
  answers_ = r.varint();
  const std::uint64_t views = r.varint();
  std::vector<std::uint8_t> key;
  for (std::uint64_t i = 0; i < views; ++i) {
    const std::string_view bytes = r.bytes();
    key.assign(bytes.begin(), bytes.end());
    store_.intern(key);
  }
  const std::string_view memo = r.bytes();
  if (memo.size() > static_cast<std::size_t>(store_.size())) {
    throw std::runtime_error("Evaluator::load: memo longer than the view store");
  }
  memo_.assign(memo.begin(), memo.end());
  const std::uint64_t orbits = r.varint();
  for (std::uint64_t i = 0; i < orbits; ++i) {
    const std::string_view bytes = r.bytes();
    key.assign(bytes.begin(), bytes.end());
    store_.intern_orbit_canonical(key);
  }
  const std::uint64_t entries = r.varint();
  if (entries > orbits) {
    throw std::runtime_error("Evaluator::load: more orbit entries than orbits");
  }
  orbit_memo_.assign(entries, OrbitEntry{});
  for (OrbitEntry& entry : orbit_memo_) {
    const std::uint64_t stab = r.varint();
    entry.stabiliser.resize(stab);
    for (colsys::ColourPerm& p : entry.stabiliser) {
      const std::string_view bytes = r.bytes();
      p.assign(bytes.begin(), bytes.end());
    }
    const std::uint64_t count = r.varint();
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto rank = static_cast<std::uint32_t>(r.varint());
      const Colour colour = r.u8();
      entry.answers.emplace(rank, colour);
    }
    entry.rep_answer = r.u8();
  }
  r.expect_done("evaluator state");
}

ColourSystem realisation_ball(const Template& tmpl, NodeId t, int radius) {
  const ColourSystem& T = tmpl.tree();
  if (!T.is_exact() && T.depth(t) + radius > T.valid_radius()) {
    throw std::logic_error("realisation_ball: template truncation too shallow");
  }
  // The view is a truncation of the infinite d-regular realisation:
  // faithful exactly to `radius`.
  ColourSystem out(T.k(), radius);
  struct Item {
    NodeId label;    // p-label in T
    NodeId lift;     // node in the output ball
    Colour arrived;  // colour towards the ball parent
    int d;
  };
  std::deque<Item> queue{{t, ColourSystem::root(), gk::kNoColour, 0}};
  while (!queue.empty()) {
    const Item it = queue.front();
    queue.pop_front();
    if (it.d == radius) continue;
    const Colour forbidden = tmpl.tau(it.label);
    for (int c = 1; c <= T.k(); ++c) {
      if (c == forbidden || c == it.arrived) continue;
      const NodeId tree_next = T.neighbour(it.label, c);
      const NodeId label_next = tree_next != colsys::kNullNode ? tree_next : it.label;
      queue.push_back({label_next, out.add_child(it.lift, c), static_cast<Colour>(c), it.d + 1});
    }
  }
  return out;
}

void serialize_realisation_into(const Template& tmpl, NodeId t, int radius,
                                std::vector<std::uint8_t>& out) {
  const ColourSystem& T = tmpl.tree();
  if (!T.is_exact() && T.depth(t) + radius > T.valid_radius()) {
    throw std::logic_error("serialize_realisation_into: template truncation too shallow");
  }
  const int k = T.k();
  out.push_back(static_cast<std::uint8_t>(k));
  // Mirrors ColourSystem::serialize on the virtual ball: pre-order DFS,
  // children in colour order, 0xff at the truncation radius.  A virtual
  // node is (p-label, arrival colour); its child colours are
  // [k] − {τ(label), arrived}, each leading to the label's tree neighbour
  // or (free colour) to the label itself.
  struct Frame {
    NodeId label;
    Colour arrived;
    int depth;
  };
  std::vector<Frame> stack{{t, gk::kNoColour, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.depth == radius) {
      out.push_back(0xff);
      continue;
    }
    const Colour forbidden = tmpl.tau(f.label);
    const std::uint8_t count =
        static_cast<std::uint8_t>(k - 1 - (f.arrived != gk::kNoColour ? 1 : 0));
    out.push_back(count);
    // Push in reverse colour order so DFS visits ascending colours.
    for (Colour c = static_cast<Colour>(k); c >= 1; --c) {
      if (c == forbidden || c == f.arrived) continue;
      const NodeId tree_next = T.neighbour(f.label, c);
      stack.push_back({tree_next != colsys::kNullNode ? tree_next : f.label, c, f.depth + 1});
    }
    for (int c = 1; c <= k; ++c) {
      if (c != forbidden && c != f.arrived) out.push_back(c);
    }
  }
}

Colour Evaluator::evaluate_orbit(const Template& tmpl, NodeId t,
                                 std::vector<std::uint8_t>& buf) {
  buf.clear();
  serialize_realisation_into(tmpl, t, radius(), buf);
  // Canonise outside any lock (pure function of the bytes).  rep = w·V.
  std::vector<std::uint8_t> canonical;
  colsys::ColourPerm witness;
  colsys::SerialisedView(buf).canonicalise(canonical, &witness);
  const colsys::ColourPerm inverse_witness = colsys::inverse_perm(witness);
  const int k = tmpl.k();
  const bool equivariant = algorithm_.colour_equivariant();
  const bool locking = threads_ > 1;
  colsys::OrbitId id;
  std::uint32_t member = 0;
  bool need_stabiliser = false;
  {
    std::unique_lock<std::mutex> lock(*mutex_, std::defer_lock);
    if (locking) lock.lock();
    id = store_.intern_orbit_canonical(canonical);
    if (static_cast<std::size_t>(id) >= orbit_memo_.size()) {
      orbit_memo_.resize(static_cast<std::size_t>(store_.orbit_count()));
    }
    OrbitEntry& entry = orbit_memo_[static_cast<std::size_t>(id)];
    if (equivariant) {
      if (entry.rep_answer != kUnknownOutput) {
        ++memo_hits_;
        // Stored is A(rep) = w(A(V)), so A(V) = w⁻¹(stored); ⊥ is fixed.
        const Colour stored = entry.rep_answer;
        return stored <= static_cast<Colour>(k) ? inverse_witness[stored] : stored;
      }
    } else {
      need_stabiliser = entry.stabiliser.empty();
    }
  }
  if (need_stabiliser) {
    // A branch-and-bound tie walk over the canonical bytes (most branches
    // die within a node or two; far below the old k! serialise-and-compare
    // sweep) — a pure function of those bytes, so run it outside the
    // critical section and let the first finisher install (double-checked:
    // a racing thread's identical result is dropped).
    std::vector<colsys::ColourPerm> stabiliser = colsys::serialisation_stabiliser(canonical);
    std::unique_lock<std::mutex> lock(*mutex_, std::defer_lock);
    if (locking) lock.lock();
    OrbitEntry& entry = orbit_memo_[static_cast<std::size_t>(id)];
    if (entry.stabiliser.empty()) entry.stabiliser = std::move(stabiliser);
  }
  if (!equivariant) {
    std::unique_lock<std::mutex> lock(*mutex_, std::defer_lock);
    if (locking) lock.lock();
    OrbitEntry& entry = orbit_memo_[static_cast<std::size_t>(id)];
    // The member's identity inside its orbit: the left coset w⁻¹·Stab.
    member = colsys::perm_rank(colsys::min_coset_rep(inverse_witness, entry.stabiliser));
    const auto it = entry.answers.find(member);
    if (it != entry.answers.end()) {
      ++memo_hits_;
      return it->second;
    }
  }
  // Miss: materialise the ball and consult the algorithm outside the lock
  // (two threads may race on the same view; both compute the same answer).
  const Colour out = algorithm_.evaluate(realisation_ball(tmpl, t, radius()));
  {
    std::unique_lock<std::mutex> lock(*mutex_, std::defer_lock);
    if (locking) lock.lock();
    OrbitEntry& entry = orbit_memo_[static_cast<std::size_t>(id)];
    if (equivariant) {
      if (entry.rep_answer == kUnknownOutput) {
        ++evaluations_;
        ++answers_;
        entry.rep_answer = out <= static_cast<Colour>(k) ? witness[out] : out;
      }
    } else if (entry.answers.try_emplace(member, out).second) {
      ++evaluations_;
      ++answers_;
    }
  }
  return out;
}

Colour Evaluator::evaluate_interned(const Template& tmpl, NodeId t,
                                    std::vector<std::uint8_t>& buf) {
  if (orbit_) return evaluate_orbit(tmpl, t, buf);
  buf.clear();
  serialize_realisation_into(tmpl, t, radius(), buf);
  const bool locking = threads_ > 1;
  colsys::ViewId id;
  {
    std::unique_lock<std::mutex> lock(*mutex_, std::defer_lock);
    if (locking) lock.lock();
    id = store_.intern(buf);
    if (static_cast<std::size_t>(id) >= memo_.size()) {
      memo_.resize(static_cast<std::size_t>(store_.size()), kUnknownOutput);
    }
    if (memo_[static_cast<std::size_t>(id)] != kUnknownOutput) {
      ++memo_hits_;
      return memo_[static_cast<std::size_t>(id)];
    }
  }
  // Miss: materialise the ball and consult the algorithm outside the lock
  // (two threads may race on the same view; both compute the same answer).
  const Colour out = algorithm_.evaluate(realisation_ball(tmpl, t, radius()));
  {
    std::unique_lock<std::mutex> lock(*mutex_, std::defer_lock);
    if (locking) lock.lock();
    // Count each distinct view once even when racing workers both computed
    // it — evaluations_ means "distinct views handed to A".
    if (memo_[static_cast<std::size_t>(id)] == kUnknownOutput) {
      ++evaluations_;
      memo_[static_cast<std::size_t>(id)] = out;
    }
  }
  return out;
}

Colour Evaluator::operator()(const Template& tmpl, NodeId t) {
  if (!memoise_) {
    ++evaluations_;
    return algorithm_.evaluate(realisation_ball(tmpl, t, radius()));
  }
  return evaluate_interned(tmpl, t, buf_);
}

void Evaluator::prefetch(const Template& tmpl, const std::vector<NodeId>& nodes) {
  if (!memoise_ || threads_ <= 1 || nodes.size() < 2) return;
  const int workers = std::min<int>(threads_, static_cast<int>(nodes.size()));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  // An algorithm under test may throw on some view; capture the first
  // exception and rethrow after the join so errors surface exactly as the
  // serial sweep would surface them (not via std::terminate).
  std::exception_ptr failure;
  std::mutex failure_mutex;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([this, &tmpl, &nodes, &failure, &failure_mutex, w, workers] {
      std::vector<std::uint8_t> buf;
      try {
        for (std::size_t i = static_cast<std::size_t>(w); i < nodes.size();
             i += static_cast<std::size_t>(workers)) {
          evaluate_interned(tmpl, nodes[i], buf);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> guard(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
}

std::string Certificate::describe() const {
  const char* names[] = {"M1", "M2", "M3", "Lemma 9 (M3 against a free-copy)"};
  std::string out = std::string(names[static_cast<int>(kind)]) + " violation";
  out += " at node " + instance.tree().word_of(node).str();
  if (other != colsys::kNullNode) {
    out += " vs " + instance.tree().word_of(other).str();
  }
  if (colour != gk::kNoColour) out += ", colour " + std::to_string(static_cast<int>(colour));
  out += "; output=" + std::to_string(static_cast<int>(output));
  if (other != colsys::kNullNode || kind == Kind::M2) {
    out += ", partner output=" + std::to_string(static_cast<int>(other_output));
  }
  if (!detail.empty()) out += " — " + detail;
  return out;
}

CheckedOutput evaluate_checked(Evaluator& eval, const Template& tmpl, NodeId t) {
  CheckedOutput result;
  result.output = eval(tmpl, t);
  if (result.output == local::kUnmatched) return result;
  // (M1): in the realisation, t's copy is incident to exactly the colours
  // [k] − τ(t).
  if (result.output < 1 || result.output > static_cast<Colour>(tmpl.k()) ||
      result.output == tmpl.tau(t)) {
    Certificate cert{Certificate::Kind::M1, tmpl,          t,
                     colsys::kNullNode,     result.output, result.output,
                     gk::kNoColour,         ""};
    cert.detail = "output is not an incident colour of the realisation copy";
    result.violation = std::move(cert);
  }
  return result;
}

bool certificate_holds(const Certificate& cert, Evaluator& eval) {
  const Template& tmpl = cert.instance;
  const Colour out = eval(tmpl, cert.node);
  if (out != cert.output) return false;  // stored evidence stale
  switch (cert.kind) {
    case Certificate::Kind::M1:
      return out != local::kUnmatched &&
             (out < 1 || out > static_cast<Colour>(tmpl.k()) || out == tmpl.tau(cert.node));
    case Certificate::Kind::M2: {
      if (out != cert.colour) return false;
      const NodeId partner = tmpl.tree().neighbour(cert.node, cert.colour);
      if (partner == colsys::kNullNode || partner != cert.other) return false;
      return eval(tmpl, partner) != out;
    }
    case Certificate::Kind::M3: {
      const NodeId partner = tmpl.tree().neighbour(cert.node, cert.colour);
      if (partner == colsys::kNullNode || partner != cert.other) return false;
      return out == local::kUnmatched && eval(tmpl, partner) == local::kUnmatched;
    }
    case Certificate::Kind::L9: {
      // ⊥ at a node with a free colour c: the free-copy neighbour has, by
      // construction of realisation balls, the *same* view and hence the
      // same output ⊥ — two adjacent unmatched nodes.
      if (out != local::kUnmatched) return false;
      const std::vector<Colour> free = tmpl.free_colours(cert.node);
      return std::find(free.begin(), free.end(), cert.colour) != free.end();
    }
  }
  return false;
}

}  // namespace dmm::lower
