// Tests for core::TupleArena, the one owner of a rank's tuple arrays: spare
// reuse, the miss policy, "tuples" memory attribution, and the checked-mode
// lease checks, including a poisoned lease slot that a window's closing
// fence finds unwritten.
#include "core/tuple_arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/check.hpp"
#include "kmer/kmer128.hpp"
#include "mpsim/comm.hpp"
#include "obs/mem.hpp"

namespace metaprep::core {
namespace {

/// Routes this thread's memory charges to a private, enabled registry.
class ScopedMem {
 public:
  ScopedMem() : prev_(obs::MemRegistry::exchange_current(&reg_)) { reg_.set_enabled(true); }
  ScopedMem(const ScopedMem&) = delete;
  ScopedMem& operator=(const ScopedMem&) = delete;
  ~ScopedMem() { obs::MemRegistry::exchange_current(prev_); }

  [[nodiscard]] obs::MemUsage tuples() const {
    for (const auto& [name, usage] : reg_.snapshot()) {
      if (name == "tuples") return usage;
    }
    return {};
  }

 private:
  obs::MemRegistry reg_;
  obs::MemRegistry* prev_;
};

template <typename Key>
class TupleArenaTest : public ::testing::Test {};
using KeyTypes = ::testing::Types<std::uint64_t, kmer::Kmer128>;
TYPED_TEST_SUITE(TupleArenaTest, KeyTypes);

TYPED_TEST(TupleArenaTest, ReleasedStorageIsReusedWithoutNewCharge) {
  using Arena = TupleArena<TypeParam>;
  constexpr std::uint64_t kB = Arena::Buffer::Traits::kTupleBytes;
  ScopedMem mem;
  std::uint64_t max_live = 0;
  {
    Arena arena(max_live);
    auto& a = arena.acquire(100, 150);
    EXPECT_EQ(a.size(), 100u);
    const auto* keys0 = a.keys[0].data();
    const auto* vals = a.vals.data();
    EXPECT_EQ(mem.tuples().current, static_cast<std::int64_t>(150 * kB));
    arena.release(a);

    // A smaller request fits the spare: same storage, no new bytes.
    auto& b = arena.acquire(120);
    EXPECT_EQ(b.size(), 120u);
    EXPECT_EQ(b.keys[0].data(), keys0);
    EXPECT_EQ(b.vals.data(), vals);
    EXPECT_EQ(mem.tuples().current, static_cast<std::int64_t>(150 * kB));
    EXPECT_EQ(mem.tuples().high_water, static_cast<std::int64_t>(150 * kB));
    arena.release(b);
    // max_tuple_buffer_bytes counts leased tuples, not capacity.
    EXPECT_EQ(max_live, 120 * kB);
  }
  // The arena frees (and credits) everything it held when it dies.
  EXPECT_EQ(mem.tuples().current, 0);
}

TYPED_TEST(TupleArenaTest, MissDropsTheLargestSpareBeforeAllocating) {
  using Arena = TupleArena<TypeParam>;
  constexpr std::uint64_t kB = Arena::Buffer::Traits::kTupleBytes;
  ScopedMem mem;
  std::uint64_t max_live = 0;
  Arena arena(max_live);
  auto& small = arena.acquire(100);
  auto& large = arena.acquire(200);
  const auto* small_vals = small.vals.data();
  arena.release(small);
  arena.release(large);
  EXPECT_EQ(mem.tuples().current, static_cast<std::int64_t>(300 * kB));

  // Neither spare holds 300: the 200 one is freed first, then 300 is
  // allocated, so the footprint never holds all three.
  auto& big = arena.acquire(300);
  EXPECT_EQ(big.size(), 300u);
  EXPECT_EQ(mem.tuples().current, static_cast<std::int64_t>(400 * kB));
  EXPECT_EQ(mem.tuples().high_water, static_cast<std::int64_t>(400 * kB));

  // The small spare survived the miss and serves the next request that
  // fits it.
  auto& again = arena.acquire(50);
  EXPECT_EQ(again.vals.data(), small_vals);
  EXPECT_EQ(mem.tuples().current, static_cast<std::int64_t>(400 * kB));
  arena.release(again);
  arena.release(big);
  EXPECT_EQ(max_live, 350 * kB);
}

#if METAPREP_CHECKED

/// Run fn and return the CheckReport it must raise.
template <typename Fn>
check::CheckReport expect_check_error(Fn&& fn) {
  try {
    fn();
  } catch (const check::CheckError& e) {
    return e.report();
  }
  ADD_FAILURE() << "expected CheckError, got clean completion";
  return {};
}

TEST(TupleArenaCheck, UseAfterReturnIsCaughtOnReuse) {
  check::ScopedCheckEnable on;
  std::uint64_t max_live = 0;
  TupleArena<std::uint64_t> arena(max_live);
  auto& buf = arena.acquire(8);
  std::uint32_t* dangling = buf.vals.data();
  arena.release(buf);
  dangling[3] = 42;  // write through a handle kept across the release
  const check::CheckReport report = expect_check_error([&] { (void)arena.acquire(8); });
  EXPECT_EQ(report.count(check::ViolationKind::kUseAfterReturn), 1u);
}

TEST(TupleArenaCheck, ForeignAndDoubleReleasesAreFlagged) {
  check::ScopedCheckEnable on;
  std::uint64_t max_live = 0;
  TupleArena<kmer::Kmer128> arena(max_live);
  TupleBuffer<kmer::Kmer128> never_leased;
  never_leased.resize(8);
  const check::CheckReport foreign =
      expect_check_error([&] { arena.release(never_leased); });
  EXPECT_EQ(foreign.count(check::ViolationKind::kForeignRelease), 1u);

  auto& buf = arena.acquire(16);
  arena.release(buf);
  const check::CheckReport twice = expect_check_error([&] { arena.release(buf); });
  EXPECT_EQ(twice.count(check::ViolationKind::kForeignRelease), 1u);
  EXPECT_NE(twice.to_string().find("foreign-release"), std::string::npos);
}

TEST(TupleArenaCheck, CleanLeaseCycleIsSilent) {
  check::ScopedCheckEnable on;
  std::uint64_t max_live = 0;
  TupleArena<std::uint64_t> arena(max_live);
  for (int round = 0; round < 3; ++round) {
    auto& a = arena.acquire(64);
    auto& b = arena.acquire(32, 64);
    for (std::size_t i = 0; i < a.size(); ++i) a.put(i, i, static_cast<std::uint32_t>(i));
    for (std::size_t i = 0; i < b.size(); ++i) b.put(i, i, static_cast<std::uint32_t>(i));
    EXPECT_NO_THROW(arena.release(a));
    EXPECT_NO_THROW(arena.release(b));
  }
}

TEST(TupleArenaCheck, FreshLeaseStartsPoisoned) {
  check::ScopedCheckEnable on;
  std::uint64_t max_live = 0;
  TupleArena<kmer::Kmer128> arena(max_live);
  auto& buf = arena.acquire(16, 32);
  ASSERT_EQ(buf.size(), 16u);
  for (const auto& words : buf.keys) {
    for (std::uint64_t x : words) EXPECT_EQ(x, check::kPoison64);
  }
  for (std::uint32_t x : buf.vals) EXPECT_EQ(x, check::kPoison32);
  arena.release(buf);
}

TEST(TupleArenaCheck, ClosingFenceReportsAnUnwrittenLeaseSlot) {
  // Each of two ranks leases a 4-tuple buffer and exposes it in a window;
  // rank q owns slots [2q, 2q + 2) of every buffer.  Rank 1 stores only the
  // first of its two slots on rank 0: the slot left holds the lease's
  // poison, and rank 0's closing fence names it and its block's source.
  check::ScopedCheckEnable on;
  mpsim::World world(2);
  const check::CheckReport report = expect_check_error([&] {
    world.run([](mpsim::Comm& comm) {
      const int p = comm.rank();
      std::uint64_t max_live = 0;
      TupleArena<std::uint64_t> arena(max_live);
      auto& buf = arena.acquire(4);
      mpsim::Window win(comm, {{{{buf.keys[0].data(), sizeof(std::uint64_t)},
                                 {buf.vals.data(), sizeof(std::uint32_t)}},
                                buf.size()}});
      win.fence();
      for (int d = 0; d < 2; ++d) {
        const std::uint64_t begin = 2 * static_cast<std::uint64_t>(p);
        win.declare(d, 0, begin, 2);
        auto* keys = static_cast<std::uint64_t*>(win.target(d, 0, 0));
        auto* vals = static_cast<std::uint32_t*>(win.target(d, 0, 1));
        const std::uint64_t n = p == 1 && d == 0 ? 1 : 2;
        for (std::uint64_t i = begin; i < begin + n; ++i) {
          keys[i] = i;
          vals[i] = static_cast<std::uint32_t>(p);
        }
      }
      win.fence();
      arena.release(buf);
    });
  });
  ASSERT_EQ(report.count(check::ViolationKind::kUnwrittenSlot), 1u);
  const check::Violation* v = report.first(check::ViolationKind::kUnwrittenSlot);
  EXPECT_EQ(v->src, 1);
  EXPECT_EQ(v->dst, 0);
  EXPECT_EQ(v->detail_a, 3u);
  EXPECT_EQ(v->count, 1u);
}

#endif  // METAPREP_CHECKED

}  // namespace
}  // namespace metaprep::core
