// Tests for the message-passing substrate (MPI stand-in).
#include "mpsim/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

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

}  // namespace
}  // namespace metaprep::mpsim
