// Collective correctness against serial references, across rank counts
// (powers of two and not) and payload sizes (eager and rendezvous).
#include <gtest/gtest.h>

#include <complex>
#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"

using namespace smpi;

namespace {

ClusterConfig cfg(int n) {
  ClusterConfig c;
  c.nranks = n;
  c.deadline = sim::Time::from_sec(30);
  return c;
}

}  // namespace

class CollRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollRanks, BarrierSynchronizes) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx& rc) {
    // Stagger, then barrier: everyone must leave at >= the latest arrival.
    compute(sim::Time::from_us(static_cast<double>(rc.rank()) * 10.0));
    barrier();
    EXPECT_GE(sim::now().ns(), (size() - 1) * 10000);
  });
}

TEST_P(CollRanks, AllreduceSumMatchesSerial) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    const int p = size();
    std::vector<double> in(64), out(64);
    for (int i = 0; i < 64; ++i) in[static_cast<std::size_t>(i)] = rank() * 64 + i;
    allreduce(in.data(), out.data(), 64, Datatype::kDouble, Op::kSum);
    for (int i = 0; i < 64; ++i) {
      double want = 0;
      for (int r = 0; r < p; ++r) want += r * 64 + i;
      EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], want);
    }
  });
}

TEST_P(CollRanks, AllreduceMaxMin) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    const int p = size();
    int v = (rank() * 37) % 11;
    int mx = 0, mn = 0;
    allreduce(&v, &mx, 1, Datatype::kInt, Op::kMax);
    allreduce(&v, &mn, 1, Datatype::kInt, Op::kMin);
    int wmx = 0, wmn = 1 << 30;
    for (int r = 0; r < p; ++r) {
      wmx = std::max(wmx, (r * 37) % 11);
      wmn = std::min(wmn, (r * 37) % 11);
    }
    EXPECT_EQ(mx, wmx);
    EXPECT_EQ(mn, wmn);
  });
}

TEST_P(CollRanks, BcastFromEveryRoot) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    for (int root = 0; root < size(); ++root) {
      std::vector<int> v(16, rank() == root ? root * 1000 : -1);
      bcast(v.data(), 16, Datatype::kInt, root);
      for (int x : v) EXPECT_EQ(x, root * 1000);
    }
  });
}

TEST_P(CollRanks, ReduceToEveryRoot) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    const int p = size();
    for (int root = 0; root < p; ++root) {
      long v = rank() + 1;
      long out = -1;
      reduce(&v, &out, 1, Datatype::kLong, Op::kSum, root);
      if (rank() == root) {
        EXPECT_EQ(out, static_cast<long>(p) * (p + 1) / 2);
      }
    }
  });
}

TEST_P(CollRanks, AlltoallPermutesBlocks) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    const int p = size();
    const int blk = 8;
    std::vector<int> sb(static_cast<std::size_t>(p * blk)), rb(static_cast<std::size_t>(p * blk));
    for (int d = 0; d < p; ++d) {
      for (int i = 0; i < blk; ++i) {
        sb[static_cast<std::size_t>(d * blk + i)] = rank() * 10000 + d * 100 + i;
      }
    }
    alltoall(sb.data(), rb.data(), blk, Datatype::kInt);
    for (int s = 0; s < p; ++s) {
      for (int i = 0; i < blk; ++i) {
        EXPECT_EQ(rb[static_cast<std::size_t>(s * blk + i)], s * 10000 + rank() * 100 + i);
      }
    }
  });
}

TEST_P(CollRanks, AllgatherCollectsInRankOrder) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    const int p = size();
    std::array<int, 2> mine{rank(), rank() * rank()};
    std::vector<int> all(static_cast<std::size_t>(2 * p));
    allgather(mine.data(), all.data(), 2, Datatype::kInt);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r);
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * r);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16));

// ---- large payloads (rendezvous path inside collectives) ----

TEST(CollectivesLarge, AllreduceMegabyteVector) {
  Cluster c(cfg(4));
  c.run([&](RankCtx&) {
    const std::size_t n = (1 << 20) / sizeof(double) * 2;  // 2 MB
    std::vector<double> in(n, static_cast<double>(rank() + 1)), out(n);
    allreduce(in.data(), out.data(), n, Datatype::kDouble, Op::kSum);
    EXPECT_DOUBLE_EQ(out[0], 10.0);
    EXPECT_DOUBLE_EQ(out[n - 1], 10.0);
  });
}

TEST(CollectivesLarge, AlltoallRendezvousBlocks) {
  Cluster c(cfg(4));
  c.run([&](RankCtx&) {
    const std::size_t blk = 512 * 1024;  // > eager threshold -> pairwise path
    std::vector<char> sb(blk * 4), rb(blk * 4);
    for (int d = 0; d < 4; ++d) {
      std::fill_n(sb.begin() + static_cast<std::ptrdiff_t>(blk * static_cast<std::size_t>(d)),
                  blk, static_cast<char>('A' + rank() * 4 + d));
    }
    alltoall(sb.data(), rb.data(), blk, Datatype::kByte);
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(rb[blk * static_cast<std::size_t>(s)], static_cast<char>('A' + s * 4 + rank()));
    }
  });
}

// ---- nonblocking collectives ----

TEST(Icollectives, IallreduceOverlapsAndCompletes) {
  Cluster c(cfg(4));
  c.run([&](RankCtx&) {
    double v = rank() + 1.0, out = 0;
    Request r = iallreduce(&v, &out, 1, Datatype::kDouble, Op::kSum);
    compute(sim::Time::from_us(5));
    wait(r);
    EXPECT_DOUBLE_EQ(out, 10.0);
  });
}

TEST(Icollectives, ConcurrentDistinctCollectives) {
  Cluster c(cfg(4));
  c.run([&](RankCtx&) {
    double a = rank() + 1.0, as = 0;
    int b = rank(), bs = -1;
    std::vector<int> gat(4);
    Request r1 = iallreduce(&a, &as, 1, Datatype::kDouble, Op::kSum);
    Request r2 = iallreduce(&b, &bs, 1, Datatype::kInt, Op::kMax);
    Request r3 = iallgather(&b, gat.data(), 1, Datatype::kInt);
    std::vector<Request> rs{r1, r2, r3};
    waitall(rs);
    EXPECT_DOUBLE_EQ(as, 10.0);
    EXPECT_EQ(bs, 3);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(gat[static_cast<std::size_t>(i)], i);
  });
}

TEST(Icollectives, IbarrierCompletesOnlyAfterAllJoin) {
  Cluster c(cfg(3));
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      Request r = ibarrier(kCommWorld);
      // Rank 2 joins at 100us; the barrier must not complete before that.
      EXPECT_FALSE(test(r));
      wait(r);
      EXPECT_GE(sim::now().ns(), 100000);
    } else if (rc.rank() == 1) {
      barrier();
    } else {
      compute(sim::Time::from_us(100));
      barrier();
    }
  });
}

TEST(Icollectives, CollectivesOnDuplicatedCommunicator) {
  Cluster c(cfg(4));
  c.run([&](RankCtx& rc) {
    Comm dup = comm_dup(kCommWorld);
    // Traffic on dup must not interfere with world traffic posted first.
    int w = rank(), wsum = 0, d = rank() * 2, dsum = 0;
    Request r1 = rc.iallreduce(&w, &wsum, 1, Datatype::kInt, Op::kSum, kCommWorld);
    Request r2 = rc.iallreduce(&d, &dsum, 1, Datatype::kInt, Op::kSum, dup);
    wait(r2);
    wait(r1);
    EXPECT_EQ(wsum, 6);
    EXPECT_EQ(dsum, 12);
  });
}

TEST(Comm, SplitHalvesAndCollectivesWithin) {
  Cluster c(cfg(8));
  c.run([&](RankCtx& rc) {
    const int color = rank() / 4;
    Comm half = comm_split(kCommWorld, color, rank());
    EXPECT_EQ(rc.comms().get(half).size(), 4);
    int v = rank(), s = 0;
    rc.allreduce(&v, &s, 1, Datatype::kInt, Op::kSum, half);
    EXPECT_EQ(s, color == 0 ? 0 + 1 + 2 + 3 : 4 + 5 + 6 + 7);
  });
}
