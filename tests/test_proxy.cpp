// Semantic equivalence across the four approaches: identical application
// code must produce identical data under every proxy (only timing differs).
#include <gtest/gtest.h>

#include <complex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"

using namespace smpi;
using namespace core;

namespace {

ClusterConfig cfg_for(Approach a, int n) {
  ClusterConfig c;
  c.nranks = n;
  c.thread_level = required_thread_level(a);
  c.deadline = sim::Time::from_sec(30);
  return c;
}

}  // namespace

class ProxyMatrix : public ::testing::TestWithParam<Approach> {};

TEST_P(ProxyMatrix, HaloExchangePattern) {
  // The Listing-1 pattern: pack, post nonblocking halo exchange, compute,
  // wait, unpack — the core loop of the QCD/stencil application.
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 4));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), np = 4;
    const int left = (me + np - 1) % np, right = (me + 1) % np;
    const std::size_t n = 4096;
    std::vector<double> send_l(n, me * 10 + 1), send_r(n, me * 10 + 2);
    std::vector<double> recv_l(n), recv_r(n);
    for (int iter = 0; iter < 3; ++iter) {
      PReq reqs[4];
      reqs[0] = p->irecv(recv_l.data(), n, Datatype::kDouble, left, 0);
      reqs[1] = p->irecv(recv_r.data(), n, Datatype::kDouble, right, 1);
      reqs[2] = p->isend(send_r.data(), n, Datatype::kDouble, right, 0);
      reqs[3] = p->isend(send_l.data(), n, Datatype::kDouble, left, 1);
      compute(sim::Time::from_us(30));
      p->progress_hint();
      compute(sim::Time::from_us(30));
      p->waitall(reqs);
      EXPECT_DOUBLE_EQ(recv_l[0], left * 10 + 2);
      EXPECT_DOUBLE_EQ(recv_r[n - 1], right * 10 + 1);
      p->barrier();
    }
    p->stop();
  });
}

TEST_P(ProxyMatrix, CollectiveSuiteProducesIdenticalData) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 4));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank();
    double v = me + 1.0, s = 0;
    p->allreduce(&v, &s, 1, Datatype::kDouble, Op::kSum);
    EXPECT_DOUBLE_EQ(s, 10.0);
    std::vector<float> blocks(4, static_cast<float>(me)), out(4);
    p->alltoall(blocks.data(), out.data(), 1, Datatype::kFloat);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], static_cast<float>(i));
    int root_val = me == 2 ? 1234 : 0;
    p->bcast(&root_val, 1, Datatype::kInt, 2);
    EXPECT_EQ(root_val, 1234);
    p->stop();
  });
}

TEST_P(ProxyMatrix, RendezvousMessagesThroughProxy) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    p->start_engine();
    const std::size_t big = 1 << 20;
    std::vector<char> sb(big, static_cast<char>('A' + rc.rank())), rb(big);
    const int peer = 1 - rc.rank();
    PReq rr = p->irecv(rb.data(), big, Datatype::kByte, peer, 0);
    PReq rs = p->isend(sb.data(), big, Datatype::kByte, peer, 0);
    compute(sim::Time::from_us(200));
    p->wait(rr);
    p->wait(rs);
    EXPECT_EQ(rb[0], static_cast<char>('A' + peer));
    EXPECT_EQ(rb[big - 1], static_cast<char>('A' + peer));
    p->stop();
  });
}

TEST_P(ProxyMatrix, ComputeThreadAccounting) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    const int cores = 14;
    const int expect = (a == Approach::kOffload || a == Approach::kCommSelf)
                           ? cores - 1
                           : cores;
    EXPECT_EQ(p->compute_threads(cores), expect);
    (void)rc;
  });
}

TEST_P(ProxyMatrix, PostBatchRejectsTheWholeBatchBeforePosting) {
  // Ten sends and one op post_batch does not take: the call throws before
  // it posts anything, under every approach — offload included, whose
  // batches go out in kBatchFlush-command chunks.
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    p->start_engine();
    if (rc.rank() == 0) {
      std::vector<char> buf(64);
      std::vector<Command> ops;
      for (int i = 0; i < 10; ++i) {
        ops.push_back(Command::isend(buf.data(), buf.size(), Datatype::kByte,
                                     1, i));
      }
      ops.push_back({.op = CmdOp::kIbarrier});
      std::vector<PReq> out(ops.size());
      EXPECT_THROW(p->post_batch(ops, out), std::invalid_argument);
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(out[i].is_null()) << "entry " << i << " was posted";
      }
      std::vector<PReq> short_out(2);
      ops.pop_back();
      EXPECT_THROW(p->post_batch(ops, short_out), std::invalid_argument);
      EXPECT_EQ(p->inflight(), 0u);
    }
    p->barrier();
    p->stop();
    // Nothing was left in flight: no send a caller cannot wait on. (The
    // comm-self helper's standing loopback receive retires at stop().)
    EXPECT_EQ(rc.requests().active_count(), 0u) << "rank " << rc.rank();
  });
}

TEST_P(ProxyMatrix, ReductionOpUndefinedForTheDatatypeFailsAtTheCall) {
  // kMax and kMin are not defined on complex numbers. Every rank rejects the
  // pair at the call, with real and with phantom (null) buffers, before the
  // library is entered or anything is posted: no rank is left in a schedule
  // whose combine would throw later, or that would run silently on phantoms.
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    std::vector<std::complex<double>> s(4, {1.0, -2.0}), r(4);
    const auto rejects = [](const char* call, const auto& post) {
      try {
        post();
        ADD_FAILURE() << call << " accepted the pair";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind(call, 0), 0u) << e.what();
      }
    };
    // The library's own entry points check too.
    rejects("Iallreduce", [&] {
      (void)rc.iallreduce(s.data(), r.data(), 4, Datatype::kComplexDouble,
                          Op::kMax, kCommWorld);
    });
    rejects("Ireduce", [&] {
      (void)rc.ireduce(nullptr, nullptr, 4, Datatype::kComplexDouble, Op::kMin,
                       0, kCommWorld);
    });
    auto p = make_proxy(a, rc);
    p->start_engine();
    for (const Op op : {Op::kMax, Op::kMin}) {
      for (const bool real : {true, false}) {
        SCOPED_TRACE(real ? "real buffers" : "null buffers");
        const void* sb = real ? s.data() : nullptr;
        void* rb = real ? r.data() : nullptr;
        rejects("ireduce", [&] {
          (void)p->ireduce(sb, rb, 4, Datatype::kComplexDouble, op, 0);
        });
        rejects("iallreduce", [&] {
          (void)p->iallreduce(sb, rb, 4, Datatype::kComplexDouble, op);
        });
      }
    }
    EXPECT_EQ(p->inflight(), 0u);
    // The pairs complex numbers do support still reduce.
    p->allreduce(s.data(), r.data(), 4, Datatype::kComplexDouble, Op::kSum);
    EXPECT_EQ(r[0], std::complex<double>(2.0, -4.0));
    p->barrier();
    p->stop();
    EXPECT_EQ(rc.requests().active_count(), 0u) << "rank " << rc.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, ProxyMatrix,
                         ::testing::Values(Approach::kBaseline, Approach::kIprobe,
                                           Approach::kCommSelf, Approach::kOffload),
                         [](const ::testing::TestParamInfo<Approach>& info) {
                           std::string n = approach_name(info.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(ProxyFactory, RequiredThreadLevels) {
  EXPECT_EQ(required_thread_level(Approach::kBaseline), ThreadLevel::kFunneled);
  EXPECT_EQ(required_thread_level(Approach::kIprobe), ThreadLevel::kFunneled);
  EXPECT_EQ(required_thread_level(Approach::kCommSelf), ThreadLevel::kMultiple);
  EXPECT_EQ(required_thread_level(Approach::kOffload), ThreadLevel::kFunneled);
}
