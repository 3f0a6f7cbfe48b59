// Offload engine semantics: command round-trips, done-flag protocol,
// blocking->nonblocking conversion, asynchronous progress, stats.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"

using namespace smpi;
using namespace core;

namespace {

ClusterConfig cfg(int n) {
  ClusterConfig c;
  c.nranks = n;
  c.thread_level = ThreadLevel::kFunneled;
  c.deadline = sim::Time::from_sec(30);
  return c;
}

}  // namespace

TEST(OffloadEngine, RoundTripAllOffloadableOps) {
  Cluster c(cfg(4));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc);
    p.start_engine();
    const int me = rc.rank();
    // p2p
    int v = me, got = -1;
    PReq r1 = p.irecv(&got, 1, Datatype::kInt, me ^ 1, 0);
    PReq r2 = p.isend(&v, 1, Datatype::kInt, me ^ 1, 0);
    p.wait(r1);
    p.wait(r2);
    EXPECT_EQ(got, me ^ 1);
    // every collective kind
    int bc = me == 0 ? 55 : -1;
    p.bcast(&bc, 1, Datatype::kInt, 0);
    EXPECT_EQ(bc, 55);
    int sum = 0;
    p.reduce(&v, &sum, 1, Datatype::kInt, Op::kSum, 0);
    if (me == 0) {
      EXPECT_EQ(sum, 6);
    }
    int asum = 0;
    p.allreduce(&v, &asum, 1, Datatype::kInt, Op::kSum);
    EXPECT_EQ(asum, 6);
    std::vector<int> a2a_s(4), a2a_r(4);
    for (int i = 0; i < 4; ++i) a2a_s[static_cast<std::size_t>(i)] = me * 10 + i;
    p.alltoall(a2a_s.data(), a2a_r.data(), 1, Datatype::kInt);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a2a_r[static_cast<std::size_t>(i)], i * 10 + me);
    std::vector<int> ag(4);
    p.allgather(&v, ag.data(), 1, Datatype::kInt);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(ag[static_cast<std::size_t>(i)], i);
    p.barrier();
    p.stop();
    EXPECT_GT(p.channel().stats().commands, 0u);
    EXPECT_EQ(p.channel().stats().completions, p.channel().stats().commands);
  });
}

TEST(OffloadEngine, PostReturnsBeforeCompletion) {
  // The defining property (paper Fig. 4): posting is O(100ns) regardless of
  // message size, because the application thread only touches the ring.
  Cluster c(cfg(2));
  std::int64_t post_small = 0, post_big = 0;
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc);
    p.start_engine();
    const std::size_t big = 4 << 20;
    std::vector<char> sb(big, 'x'), rb(big);
    const int peer = 1 - rc.rank();
    PReq rr = p.irecv(rb.data(), big, Datatype::kByte, peer, 1);
    sim::Time t0 = sim::now();
    PReq rs = p.isend(sb.data(), 64, Datatype::kByte, peer, 2);
    if (rc.rank() == 0) post_small = (sim::now() - t0).ns();
    char tiny[64];
    PReq rt = p.irecv(tiny, 64, Datatype::kByte, peer, 2);
    t0 = sim::now();
    PReq rbg = p.isend(sb.data(), big, Datatype::kByte, peer, 1);
    if (rc.rank() == 0) post_big = (sim::now() - t0).ns();
    PReq all[] = {rr, rs, rt, rbg};
    p.waitall(all);
    EXPECT_EQ(rb[big - 1], 'x');
    p.stop();
  });
  // Post cost is flat: the 4MB post costs the same as the 64B post (within
  // noise), and both are well under a microsecond.
  EXPECT_LT(post_small, 1000);
  EXPECT_LT(post_big, 1000);
  EXPECT_NEAR(static_cast<double>(post_big), static_cast<double>(post_small), 200.0);
}

TEST(OffloadEngine, AsynchronousProgressOverlapsRendezvous) {
  // Same scenario as P2P.NoProgressOutsideMpiForRendezvous, but with the
  // offload engine the transfer completes DURING compute: wait is ~free.
  const std::size_t big = 6 << 20;  // ~1ms wire time
  Cluster c(cfg(2));
  std::int64_t wait_ns = -1;
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc);
    p.start_engine();
    std::vector<char> sbuf(big, 's'), rbuf(big);
    const int peer = 1 - rc.rank();
    PReq rr = p.irecv(rbuf.data(), big, Datatype::kByte, peer, 0);
    PReq rs = p.isend(sbuf.data(), big, Datatype::kByte, peer, 0);
    compute(sim::Time::from_ms(5));
    const sim::Time t0 = sim::now();
    p.wait(rr);
    p.wait(rs);
    if (rc.rank() == 0) wait_ns = (sim::now() - t0).ns();
    EXPECT_EQ(rbuf[0], 's');
    p.stop();
  });
  EXPECT_GE(wait_ns, 0);
  EXPECT_LT(wait_ns, 50000);  // <5% of the 1ms transfer: fully overlapped
}

TEST(OffloadEngine, ManyOutstandingRequests) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, core::ProxyOptions{.ring_capacity = 64});
    p.start_engine();
    const int peer = 1 - rc.rank();
    constexpr int kN = 500;  // forces ring wrap and pool recycling
    std::vector<int> rvals(kN), svals(kN);
    for (int i = 0; i < kN; ++i) svals[static_cast<std::size_t>(i)] = rc.rank() * 10000 + i;
    std::vector<PReq> rs;
    for (int i = 0; i < kN; ++i) {
      rs.push_back(p.irecv(&rvals[static_cast<std::size_t>(i)], 1, Datatype::kInt, peer, i));
      rs.push_back(p.isend(&svals[static_cast<std::size_t>(i)], 1, Datatype::kInt, peer, i));
    }
    p.waitall(rs);
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(rvals[static_cast<std::size_t>(i)], peer * 10000 + i);
    }
    EXPECT_GE(p.channel().stats().max_inflight, 1u);
    p.stop();
  });
}

TEST(OffloadEngine, StatusPropagatesThroughProxy) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc);
    p.start_engine();
    if (rc.rank() == 0) {
      double data[8];
      Status st;
      PReq r = p.irecv(data, 8, Datatype::kDouble, kAnySource, kAnyTag);
      p.wait(r, &st);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.tag, 17);
      EXPECT_EQ(st.bytes, 8 * sizeof(double));
    } else {
      double data[8] = {0};
      p.send(data, 8, Datatype::kDouble, 0, 17);
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadEngine, OnlyOffloadThreadEntersMpi) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    const std::uint64_t calls_before = rc.stats().calls;
    OffloadProxy p(rc);
    p.start_engine();
    int v = 1, s = 0;
    p.allreduce(&v, &s, 1, Datatype::kInt, Op::kSum);
    p.stop();
    // All MPI library entries were made by the engine fiber; the application
    // fiber performed none itself — but stats are per-rank, so just verify
    // the engine made a sane number and the app-side wait made zero beyond
    // what the engine accounts for (engine calls == library entries).
    EXPECT_GT(rc.stats().calls, calls_before);
  });
}

TEST(OffloadEngine, ShutdownDrainsInflight) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc);
    p.start_engine();
    const int peer = 1 - rc.rank();
    int got = -1, v = rc.rank();
    PReq rr = p.irecv(&got, 1, Datatype::kInt, peer, 0);
    PReq rs = p.isend(&v, 1, Datatype::kInt, peer, 0);
    p.wait(rr);
    p.wait(rs);
    p.stop();  // engine must exit despite having processed everything
    EXPECT_EQ(got, peer);
  });
}

TEST(OffloadEngine, PoolExhaustionCountsPoolFullStalls) {
  // A full request pool and a full command ring are different bottlenecks
  // and must be reported under different counters: here the ring is roomy
  // (64) but the pool holds only 8 slots, so the 9th post stalls on the pool
  // until another thread of the rank recycles a slot.
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, core::ProxyOptions{.ring_capacity = 64, .pool_capacity = 8});
    p.start_engine();
    if (rc.rank() == 0) {
      int vals[9];
      PReq reqs[9];
      for (int i = 0; i < 8; ++i) {
        vals[i] = i;
        // Eager sends complete at the MPI level almost immediately, but the
        // pool slot stays allocated until wait/test — exactly the situation
        // where the 9th submit must stall on the POOL, not the ring.
        reqs[i] = p.isend(&vals[i], 1, Datatype::kInt, 1, i);
      }
      // A second application thread recycles slot 0 a little later.
      rc.cluster().spawn_on(0, "rank0.recycler", [&]() {
        compute(sim::Time::from_us(30));
        p.wait(reqs[0]);
      });
      vals[8] = 8;
      reqs[8] = p.isend(&vals[8], 1, Datatype::kInt, 1, 8);  // stalls, then goes
      for (int i = 1; i < 9; ++i) p.wait(reqs[i]);
    } else {
      // Receive one at a time: rank 1 shares the 8-slot pool size and must
      // not trip its own exhaustion path.
      for (int i = 0; i < 9; ++i) {
        int got = -1;
        p.recv(&got, 1, Datatype::kInt, 0, i);
        EXPECT_EQ(got, i);
      }
    }
    p.barrier();
    p.stop();
    if (rc.rank() == 0) {
      EXPECT_GE(p.channel().stats().pool_full_stalls, 1u);
      EXPECT_EQ(p.channel().stats().ring_full_stalls, 0u);
    }
  });
}

TEST(OffloadEngine, RejectedBatchReturnsItsPoolSlots) {
  // A batch that runs out of pool slots part-way must give back the ones it
  // took. Seven held receives leave one of 8 slots free; the two-send batch
  // takes it, throws on the second send, and the blocking send after it
  // needs that slot again.
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, core::ProxyOptions{.pool_capacity = 8});
    p.start_engine();
    constexpr int kHeld = 7;
    if (rc.rank() == 0) {
      std::vector<int> got(kHeld, -1);
      std::vector<PReq> held;
      for (int i = 0; i < kHeld; ++i) {
        held.push_back(p.irecv(&got[static_cast<std::size_t>(i)], 1,
                               Datatype::kInt, 1, i));
      }
      const int vals[2] = {1, 2};
      const Command ops[2] = {
          Command::isend(&vals[0], 1, Datatype::kInt, 1, 100),
          Command::isend(&vals[1], 1, Datatype::kInt, 1, 101)};
      PReq out[2];
      EXPECT_THROW(p.post_batch(ops, out), std::runtime_error);
      EXPECT_TRUE(out[0].is_null());
      EXPECT_TRUE(out[1].is_null());
      // Releases the peer's seven sends.
      const int go = 1;
      p.send(&go, 1, Datatype::kInt, 1, kHeld);
      p.waitall(held);
      for (int i = 0; i < kHeld; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], 10 + i);
      }
    } else {
      int go = 0;
      p.recv(&go, 1, Datatype::kInt, 0, kHeld);
      std::vector<int> vals(kHeld);
      std::vector<PReq> sends;
      for (int i = 0; i < kHeld; ++i) {
        vals[static_cast<std::size_t>(i)] = 10 + i;
        sends.push_back(p.isend(&vals[static_cast<std::size_t>(i)], 1,
                                Datatype::kInt, 0, i));
      }
      p.waitall(sends);
    }
    EXPECT_EQ(p.inflight(), 0u);
    p.barrier();
    p.stop();
  });
}

TEST(OffloadEngine, RingBackpressureCountsRingFullStalls) {
  // The mirror image: a tiny ring (4) with an ample pool. A 64-deep post
  // burst outruns the engine's drain rate, so submits spin on the ring and
  // the stalls land in ring_full_stalls only.
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    // lane_count = 0 pins every submit to the shared MPSC ring: this test
    // is specifically about the shared ring's backpressure counter.
    OffloadProxy p(rc, core::ProxyOptions{.ring_capacity = 4, .lane_count = 0});
    p.start_engine();
    const int peer = 1 - rc.rank();
    constexpr int kN = 64;
    std::vector<int> rvals(kN), svals(kN);
    std::vector<PReq> rs;
    for (int i = 0; i < kN; ++i) {
      svals[static_cast<std::size_t>(i)] = rc.rank() * 1000 + i;
      rs.push_back(p.irecv(&rvals[static_cast<std::size_t>(i)], 1, Datatype::kInt, peer, i));
      rs.push_back(p.isend(&svals[static_cast<std::size_t>(i)], 1, Datatype::kInt, peer, i));
    }
    p.waitall(rs);
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(rvals[static_cast<std::size_t>(i)], peer * 1000 + i);
    }
    p.stop();
    EXPECT_GT(p.channel().stats().ring_full_stalls, 0u);
    EXPECT_EQ(p.channel().stats().pool_full_stalls, 0u);
  });
}

TEST(OffloadEngine, LongLivedRequestSurvivesCompactionAndStaysFair) {
  // Regression for the in-flight bookkeeping rework: one slow request posted
  // FIRST, then 63 fast ones behind it. After the fast ones complete, 63
  // dead slots sit behind the lone live entry and the sweep array compacts
  // (size > 32, live*2 <= size). The slow request must keep its identity
  // through compaction and complete promptly once its message arrives —
  // under the old rebuild-per-completion scheme this scenario was O(n^2).
  Cluster c(cfg(2));
  sim::Time slow_sent, slow_done;
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, core::ProxyOptions{.ring_capacity = 128,
                                          .pool_capacity = 256});
    p.start_engine();
    if (rc.rank() == 0) {
      int slow_got = -1;
      PReq slow = p.irecv(&slow_got, 1, Datatype::kInt, 1, 999);
      std::vector<int> got(63, -1);
      std::vector<PReq> fast;
      for (int i = 0; i < 63; ++i) {
        fast.push_back(p.irecv(&got[static_cast<std::size_t>(i)], 1, Datatype::kInt, 1, i));
      }
      p.waitall(fast);  // all 63 complete; the slow request is now 1 live of 64
      for (int i = 0; i < 63; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
      p.wait(slow);
      slow_done = sim::now();
      EXPECT_EQ(slow_got, 777);
    } else {
      // Hold the sends until rank 0 has posted the whole burst, so all 64
      // receives are simultaneously in flight — the compaction trigger
      // (size > 32, live*2 <= size) this test exists to exercise.
      compute(sim::Time::from_us(50));
      for (int i = 0; i < 63; ++i) {
        const int v = i;
        p.send(&v, 1, Datatype::kInt, 0, i);
      }
      compute(sim::Time::from_us(200));
      const int v = 777;
      slow_sent = sim::now();
      p.send(&v, 1, Datatype::kInt, 0, 999);
    }
    p.barrier();
    p.stop();
    if (rc.rank() == 0) {
      EXPECT_EQ(p.channel().stats().completions, p.channel().stats().commands);
      EXPECT_GE(p.channel().stats().max_inflight, 64u);
    }
  });
  // Completion must follow the send within network latency + poll
  // granularity — not after another sweep proportional to the dead slots.
  EXPECT_GT(slow_done.ns(), 0);
  EXPECT_GT(slow_sent.ns(), 0);
  EXPECT_LT((slow_done - slow_sent).ns(), 50'000);
}
