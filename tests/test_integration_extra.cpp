// Cross-cutting integration tests: algorithm-path equivalences, concurrent
// offload submission, fabric taper, nested communicators.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/proxy.hpp"
#include "machine/network.hpp"
#include "mpi/cluster.hpp"

using namespace smpi;
using core::Approach;

namespace {
ClusterConfig cfg(int n) {
  ClusterConfig c;
  c.nranks = n;
  c.deadline = sim::Time::from_sec(120);
  return c;
}
}  // namespace

TEST(AllreduceAlgorithms, RingAndRecursiveDoublingAgree) {
  // 128 KiB of doubles on 4 ranks selects the segmented ring; the same
  // vector forced onto recursive doubling must give the same answer, also
  // for a count the ring splits unevenly.
  auto run = [](std::size_t count, std::optional<CollAlgo> algo) {
    std::vector<double> result;
    ClusterConfig cc = cfg(4);
    cc.allreduce_algo = algo;
    Cluster c(cc);
    c.run([&](RankCtx& rc) {
      std::vector<double> in(count), out(count);
      for (std::size_t i = 0; i < count; ++i) {
        in[i] = rc.rank() * 1000.0 + static_cast<double>(i % 97);
      }
      allreduce(in.data(), out.data(), count, Datatype::kDouble, Op::kSum);
      if (rc.rank() == 2) result = out;
    });
    EXPECT_EQ(c.rank(2).coll_stats().count(
                  CollectiveId::kAllreduce,
                  algo.value_or(CollAlgo::kRing)),
              1u);
    return result;
  };
  for (const std::size_t count : {std::size_t{16384}, std::size_t{16385}}) {
    const std::vector<double> ring = run(count, std::nullopt);
    const std::vector<double> rdbl = run(count, CollAlgo::kRecursiveDoubling);
    ASSERT_EQ(ring.size(), count);
    ASSERT_EQ(rdbl.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_DOUBLE_EQ(ring[i], rdbl[i])
          << "algorithms disagree at " << i << " of " << count;
    }
  }
}

TEST(OffloadConcurrency, ManyFibersSubmitThroughOneRing) {
  // The paper's THREAD_MULTIPLE story: application threads submit MPI calls
  // concurrently through the lock-free ring while the library stays
  // FUNNELED. Every payload must arrive intact.
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    core::OffloadProxy p(rc);
    p.start_engine();
    const int me = rc.rank(), peer = 1 - me;
    constexpr int kThreads = 6, kMsgs = 20;
    auto done = std::make_shared<int>(0);
    auto worker = [&, done](int tid) {
      std::vector<int> rvals(kMsgs), svals(kMsgs);
      std::vector<core::PReq> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        svals[static_cast<std::size_t>(i)] = me * 100000 + tid * 1000 + i;
        reqs.push_back(p.irecv(&rvals[static_cast<std::size_t>(i)], 1,
                               Datatype::kInt, peer, tid * 100 + i));
        reqs.push_back(p.isend(&svals[static_cast<std::size_t>(i)], 1,
                               Datatype::kInt, peer, tid * 100 + i));
      }
      p.waitall(reqs);
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(rvals[static_cast<std::size_t>(i)], peer * 100000 + tid * 1000 + i);
      }
      ++*done;
    };
    for (int t = 1; t < kThreads; ++t) {
      rc.cluster().spawn_on(me, "app" + std::to_string(t),
                            [worker, t]() { worker(t); });
    }
    worker(0);
    while (*done < kThreads) compute(sim::Time::from_us(5));
    p.barrier();
    p.stop();
  });
}

TEST(FabricTaper, SharedBisectionStretchesConcurrentFlows) {
  // With full bisection, 4 disjoint pair-flows finish in one wire time; with
  // a taper equal to one NIC, they serialize ~4x.
  auto run_with = [](double bisection) {
    machine::Profile prof = machine::xeon_fdr();
    prof.bisection_bytes_per_ns = bisection;
    ClusterConfig c;
    c.nranks = 8;
    c.profile = prof;
    c.deadline = sim::Time::from_sec(60);
    Cluster cluster(c);
    std::int64_t ns = 0;
    cluster.run([&](RankCtx& rc) {
      const std::size_t bytes = 3 << 20;
      const int me = rc.rank();
      const int peer = me ^ 1;
      barrier();
      const sim::Time t0 = sim::now();
      Request rr = irecv(nullptr, bytes, Datatype::kByte, peer, 0);
      Request rs = isend(nullptr, bytes, Datatype::kByte, peer, 0);
      wait(rr);
      wait(rs);
      barrier();
      if (me == 0) ns = (sim::now() - t0).ns();
    });
    return ns;
  };
  const std::int64_t full = run_with(0);
  const std::int64_t tapered = run_with(machine::xeon_fdr().net_bytes_per_ns);
  EXPECT_GT(tapered, full * 3);
}

TEST(Communicators, NestedSplitsFormAGrid) {
  // 2-D process grid: row comms and column comms from two splits; a row
  // allreduce followed by a column allreduce equals a global allreduce.
  Cluster c(cfg(8));  // 2 x 4 grid
  c.run([&](RankCtx& rc) {
    const int me = rank();
    const int row = me / 4, col = me % 4;
    Comm row_comm = comm_split(kCommWorld, row, col);
    Comm col_comm = comm_split(kCommWorld, col, row);
    double v = me + 1.0, row_sum = 0, total = 0;
    rc.allreduce(&v, &row_sum, 1, Datatype::kDouble, Op::kSum, row_comm);
    rc.allreduce(&row_sum, &total, 1, Datatype::kDouble, Op::kSum, col_comm);
    EXPECT_DOUBLE_EQ(total, 36.0);  // 1+..+8
  });
}

TEST(Determinism, FullAppPipelineIsBitStable) {
  // The CNN perf harness (collectives, rendezvous, offload engine, barriers)
  // must produce the identical virtual duration on repeated runs.
  auto run = [] {
    Cluster c(cfg(4));
    std::int64_t t = 0;
    c.run([&](RankCtx& rc) {
      auto p = core::make_proxy(Approach::kOffload, rc);
      p->start_engine();
      std::vector<float> g(100000, 1.0f), out(100000);
      for (int i = 0; i < 3; ++i) {
        core::PReq r = p->iallreduce(g.data(), out.data(), g.size(),
                                     Datatype::kFloat, Op::kSum);
        compute(sim::Time::from_us(50));
        p->wait(r);
        p->barrier();
      }
      p->stop();
      if (rc.rank() == 0) t = sim::now().ns();
    });
    return t;
  };
  EXPECT_EQ(run(), run());
}
