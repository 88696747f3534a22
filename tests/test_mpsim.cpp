// Tests for the message-passing substrate (MPI stand-in).
#include "mpsim/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <numeric>
#include <vector>

#include "check/check.hpp"
#include "util/rng.hpp"

namespace metaprep::mpsim {
namespace {

TEST(World, RejectsNonPositiveRanks) {
  EXPECT_THROW(World(0), std::invalid_argument);
}

TEST(World, RunInvokesEveryRankOnce) {
  for (int p : {1, 2, 5, 8}) {
    World world(p);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(p));
    world.run([&](Comm& comm) {
      EXPECT_EQ(comm.size(), p);
      hits[static_cast<std::size_t>(comm.rank())].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Comm, PointToPointDeliversPayload) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::uint32_t> data{1, 2, 3, 4};
      comm.send(1, 7, data.data(), data.size() * 4);
    } else {
      std::vector<std::uint32_t> data(4);
      comm.recv(0, 7, data.data(), 16);
      EXPECT_EQ(data, (std::vector<std::uint32_t>{1, 2, 3, 4}));
    }
  });
}

TEST(Comm, TagsKeepStreamsSeparate) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 111, b = 222;
      comm.send(1, 2, &b, sizeof(b));  // send tag 2 first
      comm.send(1, 1, &a, sizeof(a));
    } else {
      int a = 0, b = 0;
      comm.recv(0, 1, &a, sizeof(a));  // receive tag 1 first
      comm.recv(0, 2, &b, sizeof(b));
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);
    }
  });
}

TEST(Comm, MessagesWithSameTagPreserveFifoOrder) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(1, 3, &i, sizeof(i));
    } else {
      for (int i = 0; i < 10; ++i) {
        int got = -1;
        comm.recv(0, 3, &got, sizeof(got));
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(Comm, SizeMismatchThrows) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      int x = 1;
      comm.send(1, 1, &x, sizeof(x));
    } else {
      std::uint64_t y;
      comm.recv(0, 1, &y, sizeof(y));  // expects 8, sent 4
    }
  }),
               std::runtime_error);
}

TEST(Comm, SelfSendWorks) {
  World world(1);
  world.run([&](Comm& comm) {
    int x = 5;
    comm.send(0, 1, &x, sizeof(x));
    int y = 0;
    comm.recv(0, 1, &y, sizeof(y));
    EXPECT_EQ(y, 5);
  });
}

TEST(Comm, BarrierOrdersSideEffects) {
  World world(4);
  std::atomic<int> before{0};
  std::vector<int> seen(4, -1);
  world.run([&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    seen[static_cast<std::size_t>(comm.rank())] = before.load();
  });
  for (int v : seen) EXPECT_EQ(v, 4);
}

TEST(Comm, BroadcastFromEachRoot) {
  for (int root = 0; root < 3; ++root) {
    World world(3);
    world.run([&](Comm& comm) {
      std::uint64_t value = comm.rank() == root ? 0xDEADBEEF : 0;
      comm.broadcast(&value, sizeof(value), root);
      EXPECT_EQ(value, 0xDEADBEEFu);
    });
  }
}

TEST(Comm, ScattervDeliversSlicesIncludingOverlaps) {
  // Label scatter in the pipeline ships overlapping slices (paired-end read
  // ranges straddle rank boundaries); scatterv must not assume disjointness.
  World world(3);
  const std::vector<std::uint32_t> source{10, 11, 12, 13, 14, 15, 16, 17};
  const std::vector<std::uint64_t> offsets{0, 8, 20};    // bytes: words [0,4), [2,6), [5,8)
  const std::vector<std::uint64_t> lengths{16, 16, 12};  // ranks 0/1 and 1/2 overlap
  world.run([&](Comm& comm) {
    const int p = comm.rank();
    std::vector<std::uint32_t> slice(lengths[static_cast<std::size_t>(p)] / 4);
    comm.scatterv(p == 0 ? source.data() : nullptr, offsets, lengths, slice.data(), 0);
    if (p == 0) { EXPECT_EQ(slice, (std::vector<std::uint32_t>{10, 11, 12, 13})); }
    if (p == 1) { EXPECT_EQ(slice, (std::vector<std::uint32_t>{12, 13, 14, 15})); }
    if (p == 2) { EXPECT_EQ(slice, (std::vector<std::uint32_t>{15, 16, 17})); }
  });
}

TEST(Comm, ScattervZeroLengthSliceShipsNothing) {
  World world(3);
  const std::vector<std::uint32_t> source{1, 2, 3};
  const std::vector<std::uint64_t> offsets{0, 0, 4};
  const std::vector<std::uint64_t> lengths{4, 0, 8};
  world.run([&](Comm& comm) {
    const int p = comm.rank();
    std::vector<std::uint32_t> slice(2, 0xAAAAAAAAu);
    comm.scatterv(p == 0 ? source.data() : nullptr, offsets, lengths,
                  p == 1 ? nullptr : slice.data(), 0);
    if (p == 0) { EXPECT_EQ(slice[0], 1u); }
    if (p == 2) { EXPECT_EQ(slice, (std::vector<std::uint32_t>{2, 3})); }
  });
  // Only rank 2's 8 bytes crossed ranks (rank 0 keeps its slice local,
  // rank 1 shipped nothing).
  EXPECT_EQ(world.total_traffic_bytes(), 8u);
}

TEST(Comm, ScattervRejectsBadGeometryArrays) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    const std::vector<std::uint64_t> offsets{0};  // one entry, P == 2
    const std::vector<std::uint64_t> lengths{0};
    std::uint32_t dummy = 0;
    comm.scatterv(&dummy, offsets, lengths, &dummy, 0);
  }),
               std::runtime_error);
}

TEST(Comm, CollectivesComposeWithP2P) {
  // Interleave a broadcast with tagged point-to-point traffic on the same
  // (0 -> 1) link to check tag isolation of the internal collective tags:
  // the broadcast must not consume the user message queued ahead of it.
  World world(3);
  world.run([&](Comm& comm) {
    const int me = comm.rank();
    if (me == 0) {
      int x = 99;
      comm.send(1, 5, &x, sizeof(x));
    }
    std::uint64_t v = me == 0 ? 21 : 0;
    comm.broadcast(&v, sizeof(v), 0);
    EXPECT_EQ(v, 21u);
    if (me == 1) {
      int x = 0;
      comm.recv(0, 5, &x, sizeof(x));
      EXPECT_EQ(x, 99);
    }
  });
}

TEST(Comm, ExceptionInOneRankPoisonsBlockedRanks) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      throw std::runtime_error("rank 0 died");
    } else {
      int x;
      comm.recv(0, 9, &x, sizeof(x));  // would block forever without poison
    }
  }),
               std::runtime_error);
  // The world is reusable after a failure.
  world.run([&](Comm&) {});
}

class AlltoallTest : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallTest, StagedAlltoallMatchesReference) {
  const int P = GetParam();
  // Deterministic random block sizes per (src, dest).
  util::Xoshiro256 rng(99 + static_cast<std::uint64_t>(P));
  std::vector<std::vector<std::uint64_t>> block(static_cast<std::size_t>(P),
                                                std::vector<std::uint64_t>(static_cast<std::size_t>(P)));
  for (auto& row : block) {
    for (auto& v : row) v = rng.next_below(50);
  }

  World world(P);
  world.run([&](Comm& comm) {
    const int me = comm.rank();
    // Send buffer: block for dest d is filled with value me*1000+d.
    std::vector<std::uint64_t> send_offsets(static_cast<std::size_t>(P) + 1, 0);
    for (int d = 0; d < P; ++d) {
      send_offsets[static_cast<std::size_t>(d) + 1] =
          send_offsets[static_cast<std::size_t>(d)] +
          block[static_cast<std::size_t>(me)][static_cast<std::size_t>(d)] * 4;
    }
    std::vector<std::uint32_t> sendbuf(send_offsets.back() / 4);
    for (int d = 0; d < P; ++d) {
      for (std::uint64_t i = send_offsets[static_cast<std::size_t>(d)] / 4;
           i < send_offsets[static_cast<std::size_t>(d) + 1] / 4; ++i) {
        sendbuf[i] = static_cast<std::uint32_t>(me * 1000 + d);
      }
    }
    std::vector<std::uint64_t> recv_offsets(static_cast<std::size_t>(P) + 1, 0);
    for (int s = 0; s < P; ++s) {
      recv_offsets[static_cast<std::size_t>(s) + 1] =
          recv_offsets[static_cast<std::size_t>(s)] +
          block[static_cast<std::size_t>(s)][static_cast<std::size_t>(me)] * 4;
    }
    std::vector<std::uint32_t> recvbuf(recv_offsets.back() / 4);
    comm.alltoallv_staged(sendbuf.data(), send_offsets, recvbuf.data(), recv_offsets, 500);
    for (int s = 0; s < P; ++s) {
      for (std::uint64_t i = recv_offsets[static_cast<std::size_t>(s)] / 4;
           i < recv_offsets[static_cast<std::size_t>(s) + 1] / 4; ++i) {
        EXPECT_EQ(recvbuf[i], static_cast<std::uint32_t>(s * 1000 + me));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AlltoallTest, ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Comm, AlltoallRejectsBadOffsetArrays) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    std::vector<std::uint64_t> bad{0, 0};  // needs P+1 = 3 entries
    comm.alltoallv_staged(nullptr, bad, nullptr, bad, 1);
  }),
               std::invalid_argument);
}

TEST(CostModel, ChargesLatencyPlusBandwidth) {
  CostModelParams params;
  params.latency_s = 1e-3;
  params.link_bandwidth_Bps = 1e6;  // 1 MB/s for easy math
  World world(2, params);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> megabyte(1'000'000);
      comm.send(1, 1, megabyte.data(), megabyte.size());
    } else {
      std::vector<char> buf(1'000'000);
      comm.recv(0, 1, buf.data(), buf.size());
    }
  });
  // 1 MB at 1 MB/s + 1 ms latency ~= 1.001 s charged to rank 1.
  EXPECT_NEAR(world.simulated_comm_seconds(1), 1.001, 1e-9);
  EXPECT_DOUBLE_EQ(world.simulated_comm_seconds(0), 0.0);
  EXPECT_NEAR(world.max_simulated_comm_seconds(), 1.001, 1e-9);
}

class RandomTrafficTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomTrafficTest, FuzzedScheduleDeliversEveryPayloadIntact) {
  // Deterministic random message schedule: every rank knows the full plan,
  // sends its outgoing messages in its own order, and receives the ones
  // addressed to it in (src, seq) order.  Payload contents are derived from
  // (src, dst, seq) so corruption or mixups are detectable.
  const int P = GetParam();
  struct Msg {
    int src, dst, tag;
    std::size_t size;
  };
  util::Xoshiro256 rng(7000 + static_cast<std::uint64_t>(P));
  std::vector<Msg> plan;
  for (int i = 0; i < 200; ++i) {
    Msg m;
    m.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
    m.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
    m.tag = 10'000 + i;  // unique tag per message keeps matching exact
    m.size = 1 + rng.next_below(2000);
    plan.push_back(m);
  }
  auto fill = [](std::vector<std::uint8_t>& buf, const Msg& m) {
    for (std::size_t j = 0; j < buf.size(); ++j) {
      buf[j] = static_cast<std::uint8_t>((m.src * 131 + m.dst * 17 + m.tag + j) & 0xFF);
    }
  };

  World world(P);
  world.run([&](Comm& comm) {
    const int me = comm.rank();
    // Send phase: everything this rank originates (buffered, non-blocking).
    for (const auto& m : plan) {
      if (m.src != me) continue;
      std::vector<std::uint8_t> buf(m.size);
      fill(buf, m);
      comm.send(m.dst, m.tag, buf.data(), buf.size());
    }
    // Receive phase: everything addressed to this rank.
    for (const auto& m : plan) {
      if (m.dst != me) continue;
      std::vector<std::uint8_t> got(m.size);
      comm.recv(m.src, m.tag, got.data(), got.size());
      std::vector<std::uint8_t> expected(m.size);
      fill(expected, m);
      ASSERT_EQ(got, expected) << "src=" << m.src << " tag=" << m.tag;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RandomTrafficTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(Traffic, MatrixAccountsForEveryCrossRankByte) {
  World world(3);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> buf(100);
      comm.send(1, 1, buf.data(), 100);
      comm.send(2, 1, buf.data(), 50);
      comm.send(0, 1, buf.data(), 25);  // self-send: not counted
      comm.recv(0, 1, buf.data(), 25);
    } else {
      std::vector<char> buf(100);
      comm.recv(0, 1, buf.data(), comm.rank() == 1 ? 100 : 50);
    }
  });
  const auto m = world.traffic_matrix();
  EXPECT_EQ(m[0 * 3 + 1], 100u);
  EXPECT_EQ(m[0 * 3 + 2], 50u);
  EXPECT_EQ(m[0 * 3 + 0], 0u);
  EXPECT_EQ(world.total_traffic_bytes(), 150u);
  EXPECT_EQ(world.message_count(), 2u);
}

TEST(CostModel, SelfSendsAreFree) {
  World world(1);
  world.run([&](Comm& comm) {
    std::vector<char> buf(1000);
    comm.send(0, 1, buf.data(), buf.size());
    comm.recv(0, 1, buf.data(), buf.size());
  });
  EXPECT_DOUBLE_EQ(world.max_simulated_comm_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// One-sided windows

/// One rank's exposed region: @p n slots of a u64 and a u32 segment.
struct TwoArrays {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  explicit TwoArrays(std::uint64_t n) : keys(n), vals(n) {}
  std::vector<Window::Region> regions() {
    return {{{{keys.data(), sizeof(std::uint64_t)}, {vals.data(), sizeof(std::uint32_t)}},
             keys.size()}};
  }
};

/// Store @p n slots from @p begin of region 0 on @p dest through @p win.
void store_block(Window& win, int dest, std::uint64_t begin, std::uint64_t n, std::uint64_t key,
                 std::uint32_t val) {
  win.declare(dest, 0, begin, n);
  auto* keys = static_cast<std::uint64_t*>(win.target(dest, 0, 0));
  auto* vals = static_cast<std::uint32_t*>(win.target(dest, 0, 1));
  for (std::uint64_t i = begin; i < begin + n; ++i) {
    keys[i] = key;
    vals[i] = val;
  }
}

TEST(Window, StoresLandInEachDestinationsRegion) {
  for (int P : {1, 2, 3}) {
    World world(P);
    world.run([&](Comm& comm) {
      const int p = comm.rank();
      // Rank d's region takes two slots from each source q, at [2q, 2q + 2).
      TwoArrays mine(2 * static_cast<std::uint64_t>(P));
      Window win(comm, mine.regions());
      for (int round = 0; round < 2; ++round) {  // a window holds several epochs
        win.fence();
        for (int d = 0; d < P; ++d) {
          store_block(win, d, 2 * static_cast<std::uint64_t>(p), 2,
                      100 * static_cast<std::uint64_t>(p) + d + round, static_cast<std::uint32_t>(p));
        }
        win.fence();
        const auto* keys = static_cast<const std::uint64_t*>(win.local(0, 0));
        const auto* vals = static_cast<const std::uint32_t*>(win.local(0, 1));
        for (int q = 0; q < P; ++q) {
          for (int j = 0; j < 2; ++j) {
            EXPECT_EQ(keys[2 * q + j], 100 * static_cast<std::uint64_t>(q) + p + round);
            EXPECT_EQ(vals[2 * q + j], static_cast<std::uint32_t>(q));
          }
        }
      }
    });
  }
}

TEST(Window, FencedEpochChargesAsTheStagedSends) {
  // Source q stores cnt(q, d) slots of a u64 and a u32 array into rank d.
  // The fence must charge exactly what the staged all-to-all sends: per
  // array and stage, one message per (q, d != q) pair, empty ones included.
  auto cnt = [](int q, int d) { return static_cast<std::uint64_t>((q + 1) * (d + 2) % 5); };
  constexpr std::size_t kElemBytes[2] = {sizeof(std::uint64_t), sizeof(std::uint32_t)};
  for (int P : {2, 3}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    CostModelParams params;
    params.latency_s = 1e-6;
    params.link_bandwidth_Bps = 1e9;
    World fenced(P, params);
    fenced.run([&](Comm& comm) {
      const int p = comm.rank();
      std::uint64_t total = 0;
      std::vector<std::uint64_t> at(static_cast<std::size_t>(P));  // source q's block start
      for (int q = 0; q < P; ++q) {
        at[static_cast<std::size_t>(q)] = total;
        total += cnt(q, p);
      }
      TwoArrays mine(total);
      Window win(comm, mine.regions());
      win.fence();
      for (int d = 0; d < P; ++d) {
        std::uint64_t begin = 0;
        for (int q = 0; q < p; ++q) begin += cnt(q, d);
        store_block(win, d, begin, cnt(p, d), 1, 1);
      }
      win.fence();
    });
    World staged(P, params);
    staged.run([&](Comm& comm) {
      const int p = comm.rank();
      for (int arr = 0; arr < 2; ++arr) {
        for (int stage = 1; stage < P; ++stage) {
          const int d = (p + stage) % P;
          const int q = (p - stage + P) % P;
          std::vector<std::byte> out(cnt(p, d) * kElemBytes[arr]);
          std::vector<std::byte> in(cnt(q, p) * kElemBytes[arr]);
          comm.send(d, arr, out.data(), out.size());
          comm.recv(q, arr, in.data(), in.size());
        }
      }
    });
    EXPECT_EQ(fenced.traffic_matrix(), staged.traffic_matrix());
    EXPECT_EQ(fenced.message_matrix(), staged.message_matrix());
    EXPECT_EQ(fenced.message_count(), staged.message_count());
    EXPECT_EQ(fenced.message_count(), 2u * static_cast<std::uint64_t>(P) * (P - 1));
    for (int r = 0; r < P; ++r) {
      EXPECT_GT(fenced.simulated_comm_seconds(r), 0.0);
      EXPECT_NEAR(fenced.simulated_comm_seconds(r), staged.simulated_comm_seconds(r),
                  1e-12 * staged.simulated_comm_seconds(r));
    }
  }
}

#if METAPREP_CHECKED

/// Run fn and return the CheckReport it must raise.
template <typename Fn>
check::CheckReport expect_check_error(Fn&& fn) {
  try {
    fn();
  } catch (const check::CheckError& e) {
    return e.report();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected CheckError, got: " << e.what();
    return {};
  }
  ADD_FAILURE() << "expected CheckError, got clean completion";
  return {};
}

TEST(WindowCheck, StoreOutsideAnOpenEpochIsAViolation) {
  check::ScopedCheckEnable on;
  for (bool after_close : {false, true}) {
    World world(2);
    const check::CheckReport report = expect_check_error([&] {
      world.run([&](Comm& comm) {
        TwoArrays mine(2);
        Window win(comm, mine.regions());
        if (after_close) {
          win.fence();
          win.fence();
        }
        if (comm.rank() == 0) {
          (void)win.target(1, 0, 0);  // no open epoch: before the first fence or after a close
        }
        win.fence();
        win.fence();
      });
    });
    ASSERT_EQ(report.count(check::ViolationKind::kEpochViolation), 1u) << after_close;
    EXPECT_EQ(report.first(check::ViolationKind::kEpochViolation)->src, 0);
  }
}

TEST(WindowCheck, RegionReadInsideAnOpenEpochIsAViolation) {
  check::ScopedCheckEnable on;
  World world(2);
  const check::CheckReport report = expect_check_error([&] {
    world.run([&](Comm& comm) {
      TwoArrays mine(2);
      Window win(comm, mine.regions());
      win.fence();
      if (comm.rank() == 1) (void)win.local(0, 0);  // peers may still be storing
      win.fence();
    });
  });
  ASSERT_EQ(report.count(check::ViolationKind::kEpochViolation), 1u);
  EXPECT_EQ(report.first(check::ViolationKind::kEpochViolation)->src, 1);
}

TEST(WindowCheck, FenceNotReachedByEveryRankIsAViolation) {
  check::ScopedCheckEnable on;
  // Rank 1 skips the closing fence: it returns, or waits in a barrier
  // instead.  Either way rank 0's fence can never complete.
  for (bool rank1_barrier : {false, true}) {
    World world(2);
    const check::CheckReport report = expect_check_error([&] {
      world.run([&](Comm& comm) {
        TwoArrays mine(2);
        Window win(comm, mine.regions());
        win.fence();
        if (comm.rank() == 0) {
          win.fence();
        } else if (rank1_barrier) {
          comm.barrier();
        }
      });
    });
    EXPECT_EQ(report.count(check::ViolationKind::kFenceMismatch), 1u) << rank1_barrier;
  }
}

TEST(WindowCheck, OverlappingBlocksFromTwoSourcesAreAViolation) {
  check::ScopedCheckEnable on;
  World world(3);
  const check::CheckReport report = expect_check_error([&] {
    world.run([&](Comm& comm) {
      TwoArrays mine(4);
      Window win(comm, mine.regions());
      win.fence();
      // Ranks 0 and 1 both claim slots [1, 3) and [0, 2) of rank 2's region.
      if (comm.rank() < 2) store_block(win, 2, comm.rank() == 0 ? 1 : 0, 2, 5, 5);
      win.fence();
    });
  });
  ASSERT_EQ(report.count(check::ViolationKind::kOffsetOverlap), 1u);
  const check::Violation* v = report.first(check::ViolationKind::kOffsetOverlap);
  EXPECT_EQ(v->dst, 2);
  std::vector<int> ranks = v->ranks;
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));
}

#endif  // METAPREP_CHECKED

}  // namespace
}  // namespace metaprep::mpsim
