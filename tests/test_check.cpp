// Seeded-violation tests for the correctness-tooling layer (src/check).
//
// Every scenario plants a real protocol/invariant bug and asserts the
// checker's *structured* report — kind, ranks, sites, counts — not merely
// that something threw.  A clean-run negative control proves the checker
// stays silent on correct programs.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "check/protocol.hpp"
#include "dsu/dsu.hpp"
#include "mpsim/comm.hpp"

namespace metaprep {
namespace {

using check::CheckError;
using check::CheckReport;
using check::ScopedCheckEnable;
using check::ViolationKind;
using mpsim::Comm;
using mpsim::World;

#if !METAPREP_CHECKED

TEST(Check, CompiledOut) {
  GTEST_SKIP() << "METAPREP_CHECKED=0: verification hooks compiled out";
}

#else

/// Run fn and return the CheckReport it must raise.
template <typename Fn>
CheckReport expect_check_error(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
  } catch (const CheckError& e) {
    return e.report();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected CheckError, got: " << e.what();
    return {};
  }
  ADD_FAILURE() << "expected CheckError, got clean completion";
  return {};
}

TEST(Check, RuntimeGateDefaultsOff) {
  if (check::enabled()) GTEST_SKIP() << "METAPREP_CHECK set in this environment";
  World world(2);  // constructed without a checker
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::uint64_t x = 1;
      comm.send(1, 5, &x, sizeof(x));
      // No matching recv on rank 1: without the runtime gate this must stay
      // permissive (seed behavior), not raise an unmatched-send report.
    }
  });
}

TEST(Check, ScopedEnableTogglesTheGate) {
  const bool ambient = check::enabled();
  {
    ScopedCheckEnable on;
    EXPECT_TRUE(check::enabled());
  }
  EXPECT_EQ(check::enabled(), ambient);
}

// --- seeded scenario 1: send with no matching recv ----------------------
TEST(Check, UnmatchedSendIsReportedWithRanksAndTag) {
  ScopedCheckEnable on;
  World world(2);
  const CheckReport report = expect_check_error([&] {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        const std::uint64_t payload[2] = {7, 9};
        comm.send(1, 33, payload, sizeof(payload));
        comm.send(1, 33, payload, sizeof(payload));  // two strays, same stream
      }
    });
  });
  ASSERT_EQ(report.count(ViolationKind::kUnmatchedSend), 1u);
  const check::Violation* v = report.first(ViolationKind::kUnmatchedSend);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->src, 0);
  EXPECT_EQ(v->dst, 1);
  EXPECT_EQ(v->tag, 33);
  EXPECT_EQ(v->count, 2u);
  EXPECT_EQ(v->bytes, 32u);
}

// --- seeded scenario 2: two-rank circular wait --------------------------
TEST(Check, TwoRankCircularWaitReportsDeadlockCycleWithBlockedTrace) {
  ScopedCheckEnable on;
  World world(2);
  const CheckReport report = expect_check_error([&] {
    world.run([](Comm& comm) {
      // Each rank blocks receiving from the other; nobody ever sends.
      std::uint64_t x = 0;
      comm.recv(1 - comm.rank(), 4, &x, sizeof(x));
    });
  });
  ASSERT_EQ(report.count(ViolationKind::kDeadlock), 1u);
  const check::Violation* v = report.first(ViolationKind::kDeadlock);
  ASSERT_NE(v, nullptr);
  // The cycle names both ranks...
  std::vector<int> cycle = v->ranks;
  std::sort(cycle.begin(), cycle.end());
  EXPECT_EQ(cycle, (std::vector<int>{0, 1}));
  // ...and the blocked-op trace says what each was stuck on.
  ASSERT_EQ(v->blocked.size(), 2u);
  for (const check::BlockedOp& op : v->blocked) {
    EXPECT_EQ(op.op, "recv");
    EXPECT_EQ(op.peer, 1 - op.rank);
    EXPECT_EQ(op.tag, 4);
  }
}

TEST(Check, BarrierVersusRecvDeadlockIsDetected) {
  ScopedCheckEnable on;
  World world(2);
  const CheckReport report = expect_check_error([&] {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.barrier();  // waits for rank 1, which waits for rank 0's send
      } else {
        std::uint64_t x = 0;
        comm.recv(0, 9, &x, sizeof(x));
      }
    });
  });
  const check::Violation* v = report.first(ViolationKind::kDeadlock);
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->blocked.size(), 2u);
  bool saw_barrier = false, saw_recv = false;
  for (const check::BlockedOp& op : v->blocked) {
    if (op.op == "barrier") saw_barrier = true;
    if (op.op == "recv") saw_recv = true;
  }
  EXPECT_TRUE(saw_barrier);
  EXPECT_TRUE(saw_recv);
}

TEST(Check, RankReleasedByCompletedBarrierIsNoDeadlockBeforeItWakes) {
  // Rank 1 parks in a barrier; rank 0 arrives last, which completes the
  // phase, leaves, and blocks on a recv from rank 1 before rank 1's thread
  // has woken.  The completed barrier released rank 1, so this is no cycle.
  check::ProtocolChecker checker(2);
  checker.on_barrier_arrive(1);
  checker.block_barrier(1);
  checker.on_barrier_arrive(0);
  checker.block_recv(0, 1, 7, "recv");
  EXPECT_NO_THROW(checker.detect_deadlock([](int, int, int) { return false; }));
}

// --- offset geometry -----------------------------------------------------
TEST(Check, NonMonotoneAlltoallOffsetsAreFlagged) {
  ScopedCheckEnable on;
  World world(2);
  const CheckReport report = expect_check_error([&] {
    world.run([](Comm& comm) {
      std::vector<std::uint64_t> buf(4, 0);
      const std::vector<std::uint64_t> bad_send{8, 0, 8};  // 8 > 0: overlap
      const std::vector<std::uint64_t> good_recv{0, 4, 8};
      comm.alltoallv_staged(buf.data(), bad_send, buf.data(), good_recv, 100);
    });
  });
  const check::Violation* v = report.first(ViolationKind::kOffsetOverlap);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->detail_a, 0u);  // first non-monotone index
  EXPECT_EQ(v->detail_b, 8u);  // the offending offset value
}

// --- seeded scenario 3: DSU parent cycle --------------------------------
TEST(Check, SerialDsuInjectedParentCycleIsDetected) {
  dsu::SerialDSU d(6);
  d.unite(0, 1);
  d.verify_forest();  // healthy forest passes
  d.debug_set_parent(2, 3);
  d.debug_set_parent(3, 2);  // 2 <-> 3 cycle
  const CheckReport report = expect_check_error([&] { d.verify_forest("test forest"); });
  const check::Violation* v = report.first(ViolationKind::kDsuCycle);
  ASSERT_NE(v, nullptr);
  // The report names a node actually on the injected cycle.
  EXPECT_TRUE(v->detail_a == 2 || v->detail_a == 3);
}

TEST(Check, AtomicDsuInjectedParentCycleIsDetected) {
  dsu::AtomicDSU d(5);
  d.unite(0, 4);
  d.verify_forest();
  d.debug_set_parent(1, 2);
  d.debug_set_parent(2, 1);
  const CheckReport report = expect_check_error([&] { d.verify_forest(); });
  EXPECT_EQ(report.count(ViolationKind::kDsuCycle), 1u);
}

TEST(Check, DsuOutOfBoundsParentIsDetected) {
  dsu::SerialDSU d(4);
  d.debug_set_parent(1, 99);
  const CheckReport report = expect_check_error([&] { d.verify_forest(); });
  const check::Violation* v = report.first(ViolationKind::kDsuBounds);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->detail_a, 1u);
  EXPECT_EQ(v->detail_b, 99u);
}

TEST(Check, SizeConservationMismatchIsDetected) {
  check::verify_size_conservation(10, 10, "balanced");  // silent when equal
  const CheckReport report =
      expect_check_error([&] { check::verify_size_conservation(9, 10, "unbalanced"); });
  const check::Violation* v = report.first(ViolationKind::kSizeConservation);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->detail_a, 9u);
  EXPECT_EQ(v->detail_b, 10u);
}

// --- negative control ----------------------------------------------------
TEST(Check, CleanMessagingRunRaisesNothing) {
  ScopedCheckEnable on;
  World world(4);
  world.run([](Comm& comm) {
    const int P = comm.size();
    const int p = comm.rank();
    // Balanced point-to-point ring (sends are buffered, so send-then-recv
    // around the ring cannot block).
    const std::uint64_t token = static_cast<std::uint64_t>(p);
    std::uint64_t got = 0;
    comm.send((p + 1) % P, 1, &token, sizeof(token));
    comm.recv((p + P - 1) % P, 1, &got, sizeof(got));
    EXPECT_EQ(got, static_cast<std::uint64_t>((p + P - 1) % P));
    comm.barrier();
    // Staged all-to-all with monotone offsets.
    std::vector<std::uint64_t> sendbuf(static_cast<std::size_t>(P), 7);
    std::vector<std::uint64_t> recvbuf(static_cast<std::size_t>(P), 0);
    std::vector<std::uint64_t> offs(static_cast<std::size_t>(P) + 1);
    for (int q = 0; q <= P; ++q) offs[static_cast<std::size_t>(q)] = 8ull * q;
    comm.alltoallv_staged(sendbuf.data(), offs, recvbuf.data(), offs, 200);
    comm.barrier();
    // Reduce to rank 0 over point-to-point, then broadcast the total.
    std::uint64_t total = 1;
    if (p == 0) {
      for (int q = 1; q < P; ++q) {
        std::uint64_t one = 0;
        comm.recv(q, 2, &one, sizeof(one));
        total += one;
      }
    } else {
      comm.send(0, 2, &total, sizeof(total));
    }
    comm.broadcast(&total, sizeof(total), 0);
    EXPECT_EQ(total, static_cast<std::uint64_t>(P));
  });
}

TEST(Check, ReportToStringNamesKindsAndRanks) {
  ScopedCheckEnable on;
  World world(2);
  const CheckReport report = expect_check_error([&] {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        const std::uint64_t x = 1;
        comm.send(1, 12, &x, sizeof(x));
      }
    });
  });
  const std::string text = report.to_string();
  EXPECT_NE(text.find("unmatched-send"), std::string::npos);
  EXPECT_NE(text.find("rank 1"), std::string::npos);
  EXPECT_NE(text.find("tag 12"), std::string::npos);
}

#endif  // METAPREP_CHECKED

}  // namespace
}  // namespace metaprep
