// Persistent point-to-point (DESIGN.md §16): the request lifecycle state
// machine (init -> start -> complete -> restart), pool-slot reuse across
// generations, teardown under sharded engines, and starting and freeing a
// persistent request from one-shot continuations. The differential workload
// (test_differential.cpp) soaks persistent restarts across all four
// approaches, clean and faulted.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
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

class PersistentContinuation : public ::testing::TestWithParam<Approach> {};

TEST_P(PersistentContinuation, OneShotCallbacksStartAndFree) {
  // A one-shot continuation starts a persistent send, the application
  // thread waits on that generation, and a later continuation frees the
  // request. Under offload both callbacks run on the engine, so the start
  // and the free take the engine-context path (issued inline, no publish).
  const Approach a = GetParam();
  smpi::Cluster cluster(ccfg(2, a));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    std::vector<char> buf(256);
    char go = 0, bye = 0;
    if (rc.rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<char>(i * 7);
      }
      PersistentReq s =
          p->send_init(buf.data(), buf.size(), Datatype::kByte, 1, 41);
      cont::Event started, freed;
      cont::irecv(*p, &go, 1, Datatype::kByte, 1, 40)
          .then([&](const smpi::Status&) {
            p->start(s);
            started.set();
          });
      started.wait(*p);
      p->wait(s);
      EXPECT_FALSE(s.is_null()) << "wait keeps the handle";
      cont::irecv(*p, &bye, 1, Datatype::kByte, 1, 42)
          .then([&](const smpi::Status&) {
            p->request_free(s);
            freed.set();
          });
      freed.wait(*p);
      EXPECT_TRUE(s.is_null());
      EXPECT_EQ(p->inflight(), 0u);
    } else {
      // Each token leaves well after rank 0 has armed its callback, so under
      // offload the engine (not the attaching thread) runs both.
      smpi::compute(sim::Time::from_us(50));
      p->send(&go, 1, Datatype::kByte, 0, 40);
      std::vector<char> got(buf.size());
      p->recv(got.data(), got.size(), Datatype::kByte, 0, 41);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<char>(i * 7)) << "byte " << i;
      }
      smpi::compute(sim::Time::from_us(50));
      p->send(&bye, 1, Datatype::kByte, 0, 42);
    }
    p->barrier();
    p->stop();
    EXPECT_EQ(p->inflight(), 0u) << "rank " << rc.rank();
    EXPECT_EQ(rc.requests().active_count(), 0u) << "rank " << rc.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, PersistentContinuation,
                         ::testing::Values(Approach::kBaseline,
                                           Approach::kIprobe,
                                           Approach::kCommSelf,
                                           Approach::kOffload),
                         [](const ::testing::TestParamInfo<Approach>& info) {
                           std::string n = core::approach_name(info.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });
