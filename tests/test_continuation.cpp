// Continuation subsystem: then()/when_all chaining across all four proxies,
// the engine-run completion path (inline, deferred, engine-posted
// follow-ups), and wait-API edge cases.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/continuation.hpp"

using namespace smpi;
using core::Approach;
using core::PReq;

namespace {

ClusterConfig cfg_for(Approach a, int n) {
  ClusterConfig c;
  c.nranks = n;
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(60);
  return c;
}

}  // namespace

class ContMatrix : public ::testing::TestWithParam<Approach> {};

TEST_P(ContMatrix, ThenRunsExactlyOnceWithPayloadVisible) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<double> rbuf(256), sbuf(256, me + 1.0);
    int runs = 0;
    cont::Event done;
    cont::irecv(*p, rbuf.data(), rbuf.size(), Datatype::kDouble, peer, 0)
        .then([&](const Status& st) {
          ++runs;
          // Payload must be visible before the callback runs.
          EXPECT_DOUBLE_EQ(rbuf[0], peer + 1.0);
          EXPECT_DOUBLE_EQ(rbuf[255], peer + 1.0);
          EXPECT_EQ(st.bytes, rbuf.size() * sizeof(double));
          done.set();
        });
    PReq s = p->isend(sbuf.data(), sbuf.size(), Datatype::kDouble, peer, 0);
    compute(sim::Time::from_us(50));
    done.wait(*p);
    p->wait(s);
    EXPECT_EQ(runs, 1);
    p->barrier();
    p->stop();
  });
}

TEST_P(ContMatrix, ChainedCallbacksPostFollowUpsWithoutAppThreadMpi) {
  // A 3-hop dependency graph per rank: recv -> (callback posts send) ->
  // recv ... The application thread posts only the first hop, then sleeps
  // on the tail event; every follow-up posting happens in the proxy's
  // completion context. Run on a clean wire, then on one that drops and
  // duplicates frames: a callback fires once, on reliable completion only.
  const Approach a = GetParam();
  for (const bool faulted : {false, true}) {
    ClusterConfig cc = cfg_for(a, 2);
    if (faulted) {
      cc.deadline = sim::Time::from_sec(600);
      cc.profile.faults = machine::FaultSpec::parse("drop=0.1,dup=0.1,seed=7");
    }
    Cluster c(cc);
    c.run([&](RankCtx& rc) {
      auto p = core::make_proxy(a, rc);
      p->start_engine();
      const int me = rc.rank(), peer = 1 - me;
      constexpr int kHops = 3;
      // Per-hop buffers: hop h's isend may still be in flight when hop h+1
      // is posted from its recv callback.
      std::vector<std::vector<int>> rbuf(kHops, std::vector<int>(16));
      std::vector<std::vector<int>> sbuf(kHops, std::vector<int>(16));
      int hops_done = 0;
      cont::Event done;
      // Each hop's recv callback posts the next round — in the proxy's
      // completion context, never on this thread.
      std::function<void(int)> post_hop = [&](int hop) {
        const auto h = static_cast<std::size_t>(hop);
        for (std::size_t i = 0; i < sbuf[h].size(); ++i) {
          sbuf[h][i] = me * 1000 + hop * 100 + static_cast<int>(i);
        }
        cont::irecv(*p, rbuf[h].data(), rbuf[h].size(), Datatype::kInt, peer,
                    hop)
            .then([&, hop, h](const Status&) {
              EXPECT_EQ(rbuf[h][3], peer * 1000 + hop * 100 + 3);
              ++hops_done;
              if (hop + 1 < kHops) {
                post_hop(hop + 1);
              } else {
                done.set();
              }
            });
        cont::isend(*p, sbuf[h].data(), sbuf[h].size(), Datatype::kInt, peer,
                    hop)
            .then([](const Status&) {});
      };
      post_hop(0);
      compute(sim::Time::from_us(20));
      done.wait(*p);
      EXPECT_EQ(hops_done, kHops);
      p->barrier();
      p->stop();
    });
    if (faulted) {
      const auto& fs = c.network().faults()->stats();
      EXPECT_GT(fs.dropped + fs.duplicated, 0u) << "no frame was faulted";
    }
  }
}

TEST_P(ContMatrix, WhenAllRunsFinalExactlyOnce) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<float> r0(64), r1(64), s0(64, 1.0F), s1(64, 2.0F);
    std::vector<PReq> reqs(4);
    reqs[0] = p->irecv(r0.data(), r0.size(), Datatype::kFloat, peer, 0);
    reqs[1] = p->irecv(r1.data(), r1.size(), Datatype::kFloat, peer, 1);
    reqs[2] = p->isend(s0.data(), s0.size(), Datatype::kFloat, peer, 0);
    reqs[3] = p->isend(s1.data(), s1.size(), Datatype::kFloat, peer, 1);
    int finals = 0;
    cont::Event done;
    cont::when_all(*p, reqs).then([&](const Status&) {
      ++finals;
      done.set();
    });
    // when_all consumed every handle.
    for (const PReq& r : reqs) EXPECT_TRUE(r.is_null());
    done.wait(*p);
    EXPECT_EQ(finals, 1);
    EXPECT_FLOAT_EQ(r0[0], 1.0F);
    EXPECT_FLOAT_EQ(r1[0], 2.0F);
    p->barrier();
    p->stop();
  });
}

TEST_P(ContMatrix, AttachToCompletedRequestRunsInline) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<char> rbuf(32), sbuf(32, static_cast<char>('a' + me));
    PReq rr = p->irecv(rbuf.data(), rbuf.size(), Datatype::kByte, peer, 0);
    p->send(sbuf.data(), sbuf.size(), Datatype::kByte, peer, 0);
    // Drive the rank past the delivery: a barrier completes only after all
    // traffic flushed, so rr is done by now (but never waited).
    p->barrier();
    compute(sim::Time::from_us(5));
    p->progress_hint();
    bool ran = false;
    p->attach_continuation(rr, [&](const Status& st) {
      ran = true;
      EXPECT_EQ(st.bytes, rbuf.size());
      EXPECT_EQ(rbuf[0], static_cast<char>('a' + peer));
    });
    // Already-complete request: the callback ran inline, before we touched
    // the proxy again.
    EXPECT_TRUE(ran);
    EXPECT_TRUE(rr.is_null());
    p->barrier();
    p->stop();
  });
}

TEST_P(ContMatrix, NullAndReleasedHandlesRunInline) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 1));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    // Attach on a never-posted (null) handle: inline, empty Status.
    PReq null_req;
    bool ran = false;
    p->attach_continuation(null_req, [&](const Status& st) {
      ran = true;
      EXPECT_EQ(st.bytes, 0u);
    });
    EXPECT_TRUE(ran);
    // when_all over a span of released handles: final runs inline.
    std::vector<PReq> nulls(3);
    int finals = 0;
    cont::when_all(*p, nulls).then([&](const Status&) { ++finals; });
    EXPECT_EQ(finals, 1);
    // when_all over an empty span too.
    std::vector<PReq> empty;
    cont::when_all(*p, empty).then([&](const Status&) { ++finals; });
    EXPECT_EQ(finals, 2);
    p->stop();
  });
}

TEST_P(ContMatrix, EmptySpanWaitApisAreNoOps) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 1));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    std::vector<PReq> empty;
    p->waitall(empty);                    // MPI_Waitall(0, ...): no-op
    EXPECT_EQ(p->waitany(empty), -1);     // MPI_UNDEFINED
    EXPECT_TRUE(p->testall(empty));       // MPI_Testall(0, ...): flag = true
    // All-null spans behave the same (every member already released).
    std::vector<PReq> nulls(2);
    p->waitall(nulls);
    EXPECT_EQ(p->waitany(nulls), -1);
    EXPECT_TRUE(p->testall(nulls));
    p->stop();
  });
}

TEST_P(ContMatrix, PendingDestructorWaits) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<int> rbuf(8), sbuf(8, me);
    {
      // Unconsumed Pending: destructor waits (RAII) — no leak, no hang.
      cont::Pending pend =
          cont::irecv(*p, rbuf.data(), rbuf.size(), Datatype::kInt, peer, 0);
      PReq s = p->isend(sbuf.data(), sbuf.size(), Datatype::kInt, peer, 0);
      p->wait(s);
    }
    EXPECT_EQ(rbuf[0], peer);
    p->barrier();
    p->stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, ContMatrix,
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

// ---------------------------------------------------------------------------
// Offload-engine specifics: continuation stats, engine-context posting
// rules, and the bounded run queue.

TEST(ContOffload, EngineRunsCallbacksAndCountsThem) {
  Cluster c(cfg_for(Approach::kOffload, 2));
  c.run([&](RankCtx& rc) {
    core::OffloadProxy p(rc, {});
    p.start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<int> rbuf(16), sbuf(16, me);
    cont::Event done;
    cont::irecv(p, rbuf.data(), rbuf.size(), Datatype::kInt, peer, 0)
        .then([&](const Status&) { done.set(); });
    PReq s = p.isend(sbuf.data(), sbuf.size(), Datatype::kInt, peer, 0);
    compute(sim::Time::from_us(50));
    done.wait(p);
    p.wait(s);
    const core::OffloadStats& st = p.channel().stats();
    EXPECT_EQ(st.cont_armed, 1u);
    EXPECT_EQ(st.cont_executed, 1u);
    EXPECT_EQ(st.cont_inline, 0u);
    p.barrier();
    p.stop();
  });
}

TEST(ContOffload, CallbackPostsThroughEngineBypassingTheRing) {
  // The continuation posts its follow-up from the engine fiber: the submit
  // must bypass lanes/ring (cont_posts counts it) and never deadlock, even
  // with a 2-deep ring that the app thread keeps full.
  ClusterConfig cc = cfg_for(Approach::kOffload, 2);
  Cluster c(cc);
  c.run([&](RankCtx& rc) {
    core::ProxyOptions opts;
    opts.ring_capacity = 2;
    opts.lane_count = 0;  // everything through the tiny shared ring
    core::OffloadProxy p(rc, opts);
    p.start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<int> r1(8), r2(8), sbuf(8, me + 40);
    cont::Event done;
    cont::irecv(p, r1.data(), r1.size(), Datatype::kInt, peer, 1)
        .then([&](const Status&) {
          // Engine context: post the second round right here.
          cont::irecv(p, r2.data(), r2.size(), Datatype::kInt, peer, 2)
              .then([&](const Status&) { done.set(); });
          cont::isend(p, sbuf.data(), sbuf.size(), Datatype::kInt, peer, 2)
              .then([](const Status&) {});
        });
    PReq s = p.isend(sbuf.data(), sbuf.size(), Datatype::kInt, peer, 1);
    p.wait(s);
    done.wait(p);
    EXPECT_EQ(r2[0], peer + 40);
    EXPECT_GE(p.channel().stats().cont_posts, 2u);
    p.barrier();
    p.stop();
  });
}

TEST(ContOffload, BlockingWaitFromCallbackThrows) {
  Cluster c(cfg_for(Approach::kOffload, 2));
  c.run([&](RankCtx& rc) {
    core::OffloadProxy p(rc, {});
    p.start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<int> rbuf(8), rbuf2(8), sbuf(8, me);
    bool threw = false;
    cont::Event done;
    cont::irecv(p, rbuf.data(), rbuf.size(), Datatype::kInt, peer, 0)
        .then([&](const Status&) {
          PReq follow = p.isend(sbuf.data(), sbuf.size(), Datatype::kInt,
                                peer, 1);
          try {
            p.wait(follow);  // illegal: blocks the engine on itself
          } catch (const std::logic_error&) {
            threw = true;
            follow = PReq{};  // leak the slot knowingly; engine still runs
          }
          done.set();
        });
    PReq s = p.isend(sbuf.data(), sbuf.size(), Datatype::kInt, peer, 0);
    PReq r2 = p.irecv(rbuf2.data(), rbuf2.size(), Datatype::kInt, peer, 1);
    p.wait(s);
    done.wait(p);
    EXPECT_TRUE(threw);
    p.wait(r2);
    p.barrier();
    p.stop();
  });
}

TEST(ContOffload, RunBoundDefersBurstsToTheNextPass) {
  // One completion sweep finds more armed receives than the engine may run
  // callbacks for in one pass: it runs kContRunBound of them, re-queues the
  // rest and counts them as deferred. Rank 1 arms kN receive callbacks, then
  // tells rank 0 to send. Rank 0 sends a trigger message first; its callback
  // keeps rank 1's engine busy while the kN messages land, so the engine's
  // next sweep completes the whole burst at once.
  constexpr int kN = 2 * static_cast<int>(core::OffloadChannel::kContRunBound);
  constexpr int kTrigger = kN, kGo = kN + 1;
  Cluster c(cfg_for(Approach::kOffload, 2));
  c.run([&](RankCtx& rc) {
    core::OffloadProxy p(rc, {});
    p.start_engine();
    std::vector<std::vector<int>> bufs(kN, std::vector<int>(512, rc.rank()));
    if (rc.rank() == 1) {
      int trigger = 0, runs = 0;
      cont::Event done;
      cont::irecv(p, &trigger, 1, Datatype::kInt, 0, kTrigger)
          .then([](const Status&) { compute(sim::Time::from_us(100)); });
      for (int i = 0; i < kN; ++i) {
        cont::irecv(p, bufs[static_cast<std::size_t>(i)].data(), 512,
                    Datatype::kInt, 0, i)
            .then([&](const Status&) {
              if (++runs == kN) done.set();
            });
      }
      const int go = 1;
      p.send(&go, 1, Datatype::kInt, 0, kGo);
      done.wait(p);
      EXPECT_EQ(runs, kN);
      const core::OffloadStats& s = p.channel().stats();
      EXPECT_EQ(s.cont_executed, static_cast<std::uint64_t>(kN + 1));
      EXPECT_GT(s.cont_deferred, 0u) << "no pass hit the run bound";
    } else {
      int go = 0;
      p.recv(&go, 1, Datatype::kInt, 1, kGo);
      const int trigger = 1;
      std::vector<PReq> sends;
      sends.push_back(p.isend(&trigger, 1, Datatype::kInt, 1, kTrigger));
      for (int i = 0; i < kN; ++i) {
        sends.push_back(p.isend(bufs[static_cast<std::size_t>(i)].data(), 512,
                                Datatype::kInt, 1, i));
      }
      p.waitall(sends);
    }
    p.barrier();
    p.stop();
  });
}
