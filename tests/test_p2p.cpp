// SimMPI point-to-point semantics: protocols, wildcards, ordering, progress.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"

using namespace smpi;
using sim::Time;

namespace {

ClusterConfig cfg(int n, ThreadLevel lvl = ThreadLevel::kFunneled) {
  ClusterConfig c;
  c.nranks = n;
  c.thread_level = lvl;
  c.deadline = Time::from_sec(10);
  return c;
}

std::vector<std::uint8_t> pattern(std::size_t n, int seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 131 + static_cast<std::size_t>(seed) * 7) & 0xff);
  }
  return v;
}

}  // namespace

// ---- protocol sweep across the eager/rendezvous boundary (property test) ----

class P2PSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(P2PSizeSweep, PingPongDeliversExactBytes) {
  const std::size_t sz = GetParam();
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    auto want_peer = pattern(sz, 1 - rc.rank());
    auto mine = pattern(sz, rc.rank());
    std::vector<std::uint8_t> got(sz, 0xEE);
    if (rc.rank() == 0) {
      send(mine.data(), sz, Datatype::kByte, 1, 3);
      Status st;
      recv(got.data(), sz, Datatype::kByte, 1, 4, kCommWorld, &st);
      EXPECT_EQ(st.bytes, sz);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.tag, 4);
    } else {
      recv(got.data(), sz, Datatype::kByte, 0, 3);
      send(mine.data(), sz, Datatype::kByte, 0, 4);
    }
    EXPECT_EQ(got, want_peer);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, P2PSizeSweep,
                         ::testing::Values(0, 1, 7, 64, 1024, 65536,
                                           131072,           // == eager threshold
                                           131073,           // first rndv byte
                                           262144, 1 << 20, 4 << 20));

TEST(P2P, EagerSendCompletesLocallyBeforeReceiverPosts) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      int v = 42;
      Request r = isend(&v, 1, Datatype::kInt, 1, 0);
      // Eager: complete without any receiver action.
      EXPECT_TRUE(test(r));
    } else {
      compute(Time::from_us(50));  // post late
      int got = 0;
      recv(&got, 1, Datatype::kInt, 0, 0);
      EXPECT_EQ(got, 42);
    }
  });
}

TEST(P2P, RendezvousSendBlocksUntilReceiverPosts) {
  Cluster c(cfg(2));
  const std::size_t big = 1 << 20;
  std::int64_t send_done_ns = 0;
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      std::vector<char> buf(big, 'a');
      send(buf.data(), big, Datatype::kByte, 1, 0);
      send_done_ns = sim::now().ns();
    } else {
      compute(Time::from_us(500));  // receiver is late
      std::vector<char> buf(big);
      recv(buf.data(), big, Datatype::kByte, 0, 0);
      EXPECT_EQ(buf[0], 'a');
    }
  });
  // The sender cannot finish before the receiver posted at t=500us.
  EXPECT_GT(send_done_ns, 500000);
}

TEST(P2P, UnexpectedEagerIsBufferedAndMatchedInOrder) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        send(&i, 1, Datatype::kInt, 1, 7);  // same tag: order must hold
      }
    } else {
      compute(Time::from_us(100));
      for (int i = 0; i < 5; ++i) {
        int got = -1;
        recv(&got, 1, Datatype::kInt, 0, 7);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(P2P, AnySourceAnyTagReceives) {
  Cluster c(cfg(3));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      int got = 0;
      Status st;
      for (int i = 0; i < 2; ++i) {
        recv(&got, 1, Datatype::kInt, kAnySource, kAnyTag, kCommWorld, &st);
        EXPECT_EQ(got, st.source * 100 + st.tag);
      }
    } else {
      const int v = rc.rank() * 100 + rc.rank() + 10;
      send(&v, 1, Datatype::kInt, 0, rc.rank() + 10);
    }
  });
}

TEST(P2P, TagSelectivityAcrossInterleavedMessages) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      int a = 1, b = 2;
      send(&a, 1, Datatype::kInt, 1, 100);
      send(&b, 1, Datatype::kInt, 1, 200);
    } else {
      int got200 = 0, got100 = 0;
      // Receive in reverse tag order; matching must pick by tag, not arrival.
      recv(&got200, 1, Datatype::kInt, 0, 200);
      recv(&got100, 1, Datatype::kInt, 0, 100);
      EXPECT_EQ(got200, 2);
      EXPECT_EQ(got100, 1);
    }
  });
}

TEST(P2P, SelfSendAnySize) {
  for (std::size_t sz : {16ul, 1ul << 20}) {
    Cluster c(cfg(1));
    c.run([&](RankCtx&) {
      auto data = pattern(sz, 9);
      std::vector<std::uint8_t> got(sz);
      Request r = irecv(got.data(), sz, Datatype::kByte, 0, 5);
      send(data.data(), sz, Datatype::kByte, 0, 5);
      wait(r);
      EXPECT_EQ(got, data);
    });
  }
}

TEST(P2P, ProcNullOps) {
  Cluster c(cfg(1));
  c.run([&](RankCtx&) {
    int v = 0;
    Request s = isend(&v, 1, Datatype::kInt, kProcNull, 0);
    Request r = irecv(&v, 1, Datatype::kInt, kProcNull, 0);
    EXPECT_TRUE(test(s));
    Status st;
    wait(r, &st);
    EXPECT_EQ(st.source, kProcNull);
    EXPECT_EQ(st.bytes, 0u);
  });
}

TEST(P2P, WaitallAndWaitany) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      std::vector<int> vals(4);
      std::vector<Request> rs;
      for (int i = 0; i < 4; ++i) {
        rs.push_back(irecv(&vals[static_cast<std::size_t>(i)], 1, Datatype::kInt, 1, i));
      }
      int idx = waitany(rs);
      EXPECT_GE(idx, 0);
      waitall(rs);
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(vals[static_cast<std::size_t>(i)], i * 11);
        EXPECT_TRUE(rs[static_cast<std::size_t>(i)].is_null());
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        const int v = i * 11;
        send(&v, 1, Datatype::kInt, 0, i);
      }
    }
  });
}

TEST(P2P, TestanyFindsCompletions) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      int v = 0;
      std::vector<Request> rs{irecv(&v, 1, Datatype::kInt, 1, 0)};
      int idx = -1;
      // Poll until completion (testany also drives progress).
      while (!testany(rs, &idx)) compute(Time::from_us(1));
      EXPECT_EQ(idx, 0);
      EXPECT_EQ(v, 77);
      // All-null vector: returns true with idx = -1.
      EXPECT_TRUE(testany(rs, &idx));
      EXPECT_EQ(idx, -1);
    } else {
      compute(Time::from_us(20));
      const int v = 77;
      send(&v, 1, Datatype::kInt, 0, 0);
    }
  });
}

TEST(Testany, EmptySpanIsAFreeNoOp) {
  Cluster c(cfg(1));
  c.run([&](RankCtx& rc) {
    std::vector<Request> none;
    int index = 123;
    const std::int64_t before = sim::now().ns();
    EXPECT_TRUE(rc.testany(none, &index));
    EXPECT_EQ(index, -1);                // MPI_UNDEFINED-style result
    EXPECT_EQ(sim::now().ns(), before);  // no MPI entry overhead charged
  });
}

TEST(Testall, AllOrNothing) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      int a = -1, b = -1;
      std::vector<Request> rs{irecv(&a, 1, Datatype::kInt, 1, 1),
                              irecv(&b, 1, Datatype::kInt, 1, 2)};
      EXPECT_FALSE(rc.testall(rs));   // nothing arrived yet
      EXPECT_FALSE(rs[0].is_null());  // not released on failure
      while (!rc.testall(rs)) compute(Time::from_us(5));
      EXPECT_TRUE(rs[0].is_null());
      EXPECT_TRUE(rs[1].is_null());
      EXPECT_EQ(a + b, 3);
    } else {
      compute(Time::from_us(20));
      int v = 1;
      send(&v, 1, Datatype::kInt, 0, 1);
      v = 2;
      send(&v, 1, Datatype::kInt, 0, 2);
    }
  });
}

TEST(P2P, IprobeSeesUnexpectedWithoutConsuming) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      const double v = 2.5;
      send(&v, 1, Datatype::kDouble, 1, 33);
    } else {
      Status st;
      while (!iprobe(0, 33, kCommWorld, &st)) compute(Time::from_us(1));
      EXPECT_EQ(st.bytes, sizeof(double));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 33);
      double got = 0;
      recv(&got, 1, Datatype::kDouble, 0, 33);
      EXPECT_EQ(got, 2.5);
      EXPECT_FALSE(iprobe(0, 33));
    }
  });
}

TEST(P2P, TruncationIsAnError) {
  Cluster c(cfg(2));
  EXPECT_THROW(
      c.run([&](RankCtx& rc) {
        if (rc.rank() == 0) {
          std::vector<char> v(100, 'x');
          send(v.data(), 100, Datatype::kByte, 1, 0);
        } else {
          char small[10];
          recv(small, 10, Datatype::kByte, 0, 0);
        }
      }),
      std::runtime_error);
}

TEST(P2P, StatsTrackProtocols) {
  Cluster c(cfg(2));
  std::uint64_t eager = 0, rndv = 0;
  c.run([&](RankCtx& rc) {
    std::vector<char> buf(1 << 20, 'q');
    if (rc.rank() == 0) {
      send(buf.data(), 100, Datatype::kByte, 1, 0);
      send(buf.data(), buf.size(), Datatype::kByte, 1, 0);
      eager = rc.stats().eager_sends;
      rndv = rc.stats().rndv_sends;
    } else {
      std::vector<char> in(1 << 20);
      recv(in.data(), 100, Datatype::kByte, 0, 0);
      recv(in.data(), in.size(), Datatype::kByte, 0, 0);
    }
  });
  EXPECT_EQ(eager, 1u);
  EXPECT_EQ(rndv, 1u);
}

// The defining asynchrony defect (paper Sec. 2): a rendezvous transfer makes
// no progress during compute because nobody is inside MPI; the data moves
// only at MPI_Wait. Verified by timing: wait time covers the whole transfer.
TEST(P2P, NoProgressOutsideMpiForRendezvous) {
  const std::size_t big = 6 << 20;  // 1ms of wire time at 6 B/ns
  Cluster c(cfg(2));
  std::int64_t wait_ns = 0;
  c.run([&](RankCtx& rc) {
    std::vector<char> sbuf(big, 's'), rbuf(big);
    const int peer = 1 - rc.rank();
    Request rr = irecv(rbuf.data(), big, Datatype::kByte, peer, 0);
    Request sr = isend(sbuf.data(), big, Datatype::kByte, peer, 0);
    compute(Time::from_ms(5));  // plenty of time to overlap — but nobody polls
    const Time t0 = sim::now();
    wait(rr);
    wait(sr);
    if (rc.rank() == 0) wait_ns = (sim::now() - t0).ns();
  });
  // Transfer ~1ms happened inside wait, not during compute.
  EXPECT_GT(wait_ns, 800000);
}
