// The arena-pooled program path (util::Arena + local::ProgramPool +
// ProgramSource): the arena's alignment, reuse and reset contract, the
// pool's lifetime contract, and the source's fill checks (exercised under
// the ASan+UBSan CI leg, where a double-destroy or a dangling slab pointer
// would abort).  That every realisation gives the same RunResult on both
// engines is pinned by tests/test_flat_engine.cpp.
#include "local/program_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "algo/greedy.hpp"
#include "util/arena.hpp"

namespace dmm::local {
namespace {

// --- util::Arena ---------------------------------------------------------

TEST(Arena, AlignsAndBumps) {
  util::Arena arena(256);
  auto* a = static_cast<char*>(arena.allocate(3, 1));
  auto* b = static_cast<double*>(arena.allocate(sizeof(double), alignof(double)));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(b));
  *b = 1.5;  // must be writable
  EXPECT_EQ(*b, 1.5);
  EXPECT_GE(arena.bytes_allocated(), 3 + sizeof(double));
  EXPECT_THROW(arena.allocate(8, 3), std::invalid_argument);  // non-power-of-two
}

TEST(Arena, OversizedRequestsGetDedicatedSlabs) {
  util::Arena arena(64);
  void* big = arena.allocate(10000, alignof(std::max_align_t));
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 10000u);
}

TEST(Arena, ResetReusesSlabsWithoutGrowing) {
  util::Arena arena(1024);
  auto fill = [&arena] {
    for (int i = 0; i < 100; ++i) arena.allocate(64, 8);
  };
  fill();
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t slabs = arena.slab_count();
  EXPECT_GT(reserved, 0u);
  // Steady state: reset + identical refill must not acquire new memory.
  for (int round = 0; round < 5; ++round) {
    arena.reset();
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    fill();
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    EXPECT_EQ(arena.slab_count(), slabs);
  }
}

// --- ProgramPool lifetime ------------------------------------------------

/// Counts constructions and destructions so the pool's clear() contract is
/// observable.
class CountedProgram final : public NodeProgram {
 public:
  explicit CountedProgram(int* live) : live_(live) { ++*live_; }
  ~CountedProgram() override { --*live_; }
  CountedProgram(const CountedProgram&) = delete;
  CountedProgram& operator=(const CountedProgram&) = delete;

  bool init(const Colour*, int) override { return true; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }

 private:
  int* live_;
};

TEST(ProgramPool, ClearDestroysEveryProgram) {
  int live = 0;
  ProgramPool pool;
  for (int i = 0; i < 10; ++i) pool.emplace<CountedProgram>(&live);
  pool.emplace_batch<CountedProgram>(3, &live);
  EXPECT_EQ(pool.size(), 13u);
  EXPECT_EQ(live, 13);
  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(live, 0);
  // The pool is reusable after clear, on the same slabs.
  const std::size_t reserved = pool.arena().bytes_reserved();
  for (int i = 0; i < 10; ++i) pool.emplace<CountedProgram>(&live);
  EXPECT_EQ(live, 10);
  EXPECT_EQ(pool.arena().bytes_reserved(), reserved);
  pool.clear();
  EXPECT_EQ(live, 0);
}

TEST(ProgramPool, EmplaceBatchIsContiguous) {
  ProgramPool pool;
  pool.emplace_batch<algo::GreedyProgram>(64);
  ASSERT_EQ(pool.size(), 64u);
  // One block: adjacent programs are exactly sizeof apart.
  for (std::size_t i = 1; i < 64; ++i) {
    const auto prev = reinterpret_cast<std::uintptr_t>(pool[i - 1]);
    const auto cur = reinterpret_cast<std::uintptr_t>(pool[i]);
    EXPECT_EQ(cur - prev, sizeof(algo::GreedyProgram));
  }
}

TEST(ProgramSource, EmptySourceThrows) {
  ProgramPool pool;
  EXPECT_THROW(ProgramSource().build(1, pool), std::logic_error);
}

TEST(ProgramSource, ShortFillThrows) {
  int live = 0;
  ProgramPool pool;
  const ProgramSource one_short([&live](std::size_t count, ProgramPool& into) {
    for (std::size_t v = 0; v + 1 < count; ++v) into.emplace<CountedProgram>(&live);
  });
  EXPECT_THROW(one_short.build(4, pool), std::logic_error);
  pool.clear();
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace dmm::local
