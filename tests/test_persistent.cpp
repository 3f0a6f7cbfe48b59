// Persistent point-to-point (DESIGN.md §16): the request lifecycle state
// machine (init -> start -> complete -> restart), pool-slot reuse across
// generations, teardown under sharded engines, and continuation interop
// over generations. The differential workload (test_differential.cpp) soaks
// persistent restarts across all four approaches, clean and faulted.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/continuation.hpp"

using core::Approach;
using core::PersistentReq;
using smpi::Datatype;

namespace {

// A 20 ms virtual deadline: every test here finishes within a few ms, so an
// engine that never reaches its doorbell sleep fails fast instead of
// polling for minutes of host time.
smpi::ClusterConfig ccfg(int n, Approach a = Approach::kOffload) {
  smpi::ClusterConfig c;
  c.nranks = n;
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_ms(20);
  return c;
}

/// Rank 1 sinks `count` plain persistent-send generations from rank 0.
void sink_recvs(core::Proxy& p, void* buf, std::size_t n, int tag, int count) {
  for (int i = 0; i < count; ++i) {
    core::PReq r = p.irecv(buf, n, Datatype::kByte, 0, tag);
    p.wait(r);
  }
}

}  // namespace

// ---------------------------------------------------------------- lifecycle --

class PersistentLifecycle : public ::testing::TestWithParam<Approach> {};

TEST_P(PersistentLifecycle, MisuseThrows) {
  const Approach a = GetParam();
  smpi::Cluster cluster(ccfg(2, a));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    std::vector<char> buf(256);
    if (rc.rank() == 0) {
      PersistentReq s = p->send_init(buf.data(), buf.size(), Datatype::kByte,
                                     1, 5);
      // Wait on an inactive handle is trivially complete, not an error.
      smpi::Status st;
      p->wait(s, &st);
      EXPECT_EQ(st.bytes, 0u);
      p->start(s);
      // start-before-complete is the canonical misuse.
      EXPECT_THROW(p->start(s), std::logic_error);
      // ... and so is freeing a started generation.
      EXPECT_THROW(p->request_free(s), std::logic_error);
      p->wait(s);
      p->request_free(s);
      EXPECT_TRUE(s.is_null());
      p->request_free(s);  // freeing a null handle is idempotent
      // Empty startall is a no-op.
      std::vector<PersistentReq> none;
      p->startall(none);
    } else {
      core::PReq r0 = p->irecv(buf.data(), buf.size(), Datatype::kByte, 0, 5);
      p->wait(r0);
    }
    p->barrier();
    p->stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, PersistentLifecycle,
                         ::testing::Values(Approach::kBaseline,
                                           Approach::kIprobe,
                                           Approach::kCommSelf,
                                           Approach::kOffload));

TEST(PersistentLifecycle, RestartReusesPoolSlot) {
  constexpr int kGens = 6;
  smpi::Cluster cluster(ccfg(2));
  cluster.run([&](smpi::RankCtx& rc) {
    core::OffloadProxy p(rc, core::ProxyOptions{});
    p.start_engine();
    std::vector<char> buf(512);
    if (rc.rank() == 0) {
      PersistentReq s =
          p.send_init(buf.data(), buf.size(), Datatype::kByte, 1, 9);
      const std::uint32_t slot = p.pool_slot(s);
      EXPECT_LT(slot, p.channel().pool().capacity());
      const std::size_t inflight0 = p.inflight();
      for (int g = 0; g < kGens; ++g) {
        p.start(s);
        p.wait(s);
        // The envelope is init-once: every generation re-arms the SAME pool
        // slot instead of allocating a new one.
        EXPECT_EQ(p.pool_slot(s), slot) << "generation " << g;
        EXPECT_EQ(p.inflight(), inflight0) << "generation " << g;
      }
      p.request_free(s);
    } else {
      sink_recvs(p, buf.data(), buf.size(), 9, kGens);
    }
    p.barrier();
    p.stop();
  });
}

TEST(PersistentLifecycle, HaloFreesAndStopsUnderShardedEngines) {
  // 3x3x3 periodic halo, 12 persistent requests per rank, two engines per
  // rank (the xeon profile default). An engine that processed its own
  // shutdown while a sibling was mid-steal on its queues must still notice
  // that it may exit: the thief drains the last command and rings no
  // doorbell, so the pre-sleep re-check is the only place left to see it.
  static constexpr int kDim = 3;
  constexpr int kRanks = kDim * kDim * kDim;
  constexpr int kGens = 3;
  constexpr std::size_t kFace = 4096;
  smpi::ClusterConfig cc = ccfg(kRanks);
  cc.deadline = sim::Time::from_ms(1);
  const core::ProxyOptions opts =
      core::ProxyOptions::defaults_for(machine::xeon_fdr());
  ASSERT_EQ(opts.proxy_count, 2u);
  smpi::Cluster cluster(cc);
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(Approach::kOffload, rc, opts);
    p->start_engine();
    const int me = rc.rank();
    const int x = me % kDim, y = (me / kDim) % kDim, z = me / (kDim * kDim);
    auto at = [](int i, int j, int k) {
      auto w = [](int v) { return (v + kDim) % kDim; };
      return w(i) + kDim * (w(j) + kDim * w(k));
    };
    // Direction d sends to nbr[d]; the face travelling in d arrives from
    // nbr[d ^ 1] with tag d.
    const int nbr[6] = {at(x + 1, y, z), at(x - 1, y, z), at(x, y + 1, z),
                        at(x, y - 1, z), at(x, y, z + 1), at(x, y, z - 1)};
    std::vector<std::vector<char>> sbuf(6, std::vector<char>(kFace)),
        rbuf(6, std::vector<char>(kFace));
    std::vector<PersistentReq> reqs(12);
    for (int d = 0; d < 6; ++d) {
      reqs[d] = p->recv_init(rbuf[d].data(), kFace, Datatype::kByte,
                             nbr[d ^ 1], d);
      reqs[6 + d] =
          p->send_init(sbuf[d].data(), kFace, Datatype::kByte, nbr[d], d);
    }
    for (int g = 0; g < kGens; ++g) {
      for (int d = 0; d < 6; ++d) {
        sbuf[d].front() = static_cast<char>(me + d + g);
      }
      p->startall(reqs);
      for (PersistentReq& r : reqs) p->wait(r);
      for (int d = 0; d < 6; ++d) {
        EXPECT_EQ(rbuf[d].front(), static_cast<char>(nbr[d ^ 1] + d + g))
            << "rank " << me << " direction " << d << " generation " << g;
      }
    }
    for (PersistentReq& r : reqs) p->request_free(r);
    p->stop();
  });
}

// -------------------------------------------------------------- continuation --

TEST(PersistentContinuation, GenerationChainsAndRestarts) {
  constexpr int kGens = 4;
  smpi::Cluster cluster(ccfg(2));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(Approach::kOffload, rc);
    p->start_engine();
    std::vector<char> buf(128);
    if (rc.rank() == 0) {
      PersistentReq s =
          p->send_init(buf.data(), buf.size(), Datatype::kByte, 1, 21);
      // Self-restarting generation loop: the callback observes the handle
      // back in the inactive state and starts the next generation itself.
      int fired = 0;
      cont::Event done;
      core::ContFn next = [&](const smpi::Status&) {
        if (++fired == kGens) {
          done.set();
          return;
        }
        p->start(s);
        cont::generation(*p, s).then(next);
      };
      p->start(s);
      cont::generation(*p, s).then(next);
      done.wait(*p);
      EXPECT_EQ(fired, kGens);
      p->request_free(s);
    } else {
      sink_recvs(*p, buf.data(), buf.size(), 21, kGens);
    }
    p->barrier();
    p->stop();
  });
}

TEST(PersistentContinuation, WhenAllGenerations) {
  smpi::Cluster cluster(ccfg(2));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(Approach::kOffload, rc);
    p->start_engine();
    std::vector<char> a(64), b(64);
    if (rc.rank() == 0) {
      std::vector<PersistentReq> rs = {
          p->send_init(a.data(), a.size(), Datatype::kByte, 1, 31),
          p->send_init(b.data(), b.size(), Datatype::kByte, 1, 32)};
      p->startall(rs);
      cont::Event done;
      cont::when_all_generations(*p, rs,
                                 [&done](const smpi::Status&) { done.set(); });
      done.wait(*p);
      for (PersistentReq& r : rs) p->request_free(r);
    } else {
      core::PReq r31 = p->irecv(a.data(), a.size(), Datatype::kByte, 0, 31);
      core::PReq r32 = p->irecv(b.data(), b.size(), Datatype::kByte, 0, 32);
      p->wait(r31);
      p->wait(r32);
    }
    p->barrier();
    p->stop();
  });
}
