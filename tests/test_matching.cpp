// Unit tests for the tag-matching engine (wildcards, FIFO order), plus the
// cluster-level per-peer ordering contract under the sharded offload engine.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/matching.hpp"
#include "mpi/request.hpp"

using namespace smpi;

namespace {

UnexpectedMsg um(std::uint32_t ctx, int src, int tag, std::size_t bytes = 4) {
  UnexpectedMsg m;
  m.env = {ctx, src, tag};
  m.bytes = bytes;
  m.payload.resize(bytes);
  return m;
}

RequestImpl recv_req(std::uint32_t ctx, int src, int tag) {
  RequestImpl r;
  r.kind = ReqKind::kRecv;
  r.ctx = ctx;
  r.src_global = src;
  r.tag = tag;
  return r;
}

}  // namespace

TEST(Matching, ExactTriple) {
  EXPECT_TRUE(MatchingEngine::matches(5, 2, 9, {5, 2, 9}));
  EXPECT_FALSE(MatchingEngine::matches(5, 2, 9, {6, 2, 9}));
  EXPECT_FALSE(MatchingEngine::matches(5, 2, 9, {5, 3, 9}));
  EXPECT_FALSE(MatchingEngine::matches(5, 2, 9, {5, 2, 8}));
}

TEST(Matching, Wildcards) {
  EXPECT_TRUE(MatchingEngine::matches(5, kAnySource, 9, {5, 7, 9}));
  EXPECT_TRUE(MatchingEngine::matches(5, 7, kAnyTag, {5, 7, 1234}));
  EXPECT_TRUE(MatchingEngine::matches(5, kAnySource, kAnyTag, {5, 0, 0}));
  // kAnyTag matches every tag, however large (no tag bit is reserved).
  EXPECT_TRUE(MatchingEngine::matches(5, 7, kAnyTag, {5, 7, 1 << 30}));
  // Context never wildcards.
  EXPECT_FALSE(MatchingEngine::matches(5, kAnySource, kAnyTag, {6, 0, 0}));
}

TEST(Matching, PostedQueueFifoPerMatch) {
  MatchingEngine m;
  RequestImpl r1 = recv_req(1, kAnySource, kAnyTag);
  RequestImpl r2 = recv_req(1, kAnySource, kAnyTag);
  m.post_recv(&r1);
  m.post_recv(&r2);
  EXPECT_EQ(m.match_posted({1, 0, 0}), &r1);
  EXPECT_EQ(m.match_posted({1, 0, 0}), &r2);
  EXPECT_EQ(m.match_posted({1, 0, 0}), nullptr);
}

TEST(Matching, PostedSkipsNonMatching) {
  MatchingEngine m;
  RequestImpl specific = recv_req(1, 3, 7);
  RequestImpl any = recv_req(1, kAnySource, kAnyTag);
  m.post_recv(&specific);
  m.post_recv(&any);
  // Envelope from src 9 skips the specific receive, takes the wildcard.
  EXPECT_EQ(m.match_posted({1, 9, 7}), &any);
  EXPECT_EQ(m.match_posted({1, 3, 7}), &specific);
}

TEST(Matching, UnexpectedQueueIsFifo) {
  MatchingEngine m;
  m.add_unexpected(um(1, 0, 5, 16));
  m.add_unexpected(um(1, 0, 5, 32));
  EXPECT_EQ(m.unexpected_count(), 2u);
  auto first = m.match_unexpected(1, 0, 5);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->bytes, 16u);
  EXPECT_EQ(first->payload.size(), 16u);
  EXPECT_EQ(m.unexpected_count(), 1u);
  auto second = m.match_unexpected(1, kAnySource, kAnyTag);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->bytes, 32u);
  EXPECT_EQ(second->payload.size(), 32u);
  EXPECT_FALSE(m.match_unexpected(1, 0, 5).has_value());
  EXPECT_EQ(m.unexpected_count(), 0u);
}

TEST(Matching, PeekDoesNotRemove) {
  MatchingEngine m;
  m.add_unexpected(um(2, 4, 8));
  const UnexpectedMsg* p = m.peek_unexpected(2, kAnySource, 8);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->env.src_global, 4);
  EXPECT_EQ(m.unexpected_count(), 1u);
  EXPECT_EQ(m.peek_unexpected(2, 5, 8), nullptr);
}

TEST(Matching, PerPeerFifoSurvivesMultiProxy) {
  // Four engine fibers on the sender: the peer-hash partition spreads
  // different peers across engines and work stealing may move a backlog
  // between them, but the same-envelope stream to EACH peer must still
  // match that peer's posted receives in submission order. Sends are
  // round-robined across peers so adjacent submissions target different
  // engines — the interleaving most likely to expose a cross-engine
  // reordering of one peer's stream.
  constexpr int kPeers = 3, kPer = 48;
  ClusterConfig cc;
  cc.nranks = kPeers + 1;
  cc.thread_level = ThreadLevel::kFunneled;
  cc.deadline = sim::Time::from_sec(60);
  Cluster c(cc);
  c.run([&](RankCtx& rc) {
    core::OffloadProxy p(rc, core::ProxyOptions{.lane_count = 2,
                                                .proxy_count = 4});
    p.start_engine();
    if (rc.rank() == 0) {
      std::vector<int> vals(kPeers * kPer);
      std::vector<core::PReq> reqs;
      for (int i = 0; i < kPer; ++i) {
        for (int peer = 1; peer <= kPeers; ++peer) {
          const std::size_t k =
              static_cast<std::size_t>(i * kPeers + (peer - 1));
          vals[k] = i;
          reqs.push_back(p.isend(&vals[k], 1, Datatype::kInt, peer, 7));
        }
      }
      p.waitall(reqs);
    } else {
      for (int i = 0; i < kPer; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, 7);
        ASSERT_EQ(v, i) << "per-peer FIFO broken: rank " << rc.rank()
                        << " message " << i;
      }
    }
    p.barrier();
    p.stop();
  });
}

TEST(RequestTable, AllocRecyclesSlots) {
  RequestTable t;
  RequestImpl& a = t.alloc();
  RequestImpl& b = t.alloc();
  EXPECT_NE(a.idx, b.idx);
  EXPECT_NE(a.idx, 0);
  const int old_idx = a.idx;
  t.release(a);
  RequestImpl& c = t.alloc();
  EXPECT_EQ(c.idx, old_idx);  // LIFO recycling
  EXPECT_TRUE(c.active);
  EXPECT_FALSE(c.complete);
  EXPECT_EQ(t.active_count(), 2u);
}

TEST(RequestTable, ResetClearsAllFields) {
  RequestTable t;
  RequestImpl& a = t.alloc();
  a.kind = ReqKind::kSendRndv;
  a.complete = true;
  a.sbytes = 99;
  a.cts_received = true;
  t.release(a);
  RequestImpl& b = t.alloc();
  EXPECT_EQ(b.kind, ReqKind::kNull);
  EXPECT_FALSE(b.complete);
  EXPECT_EQ(b.sbytes, 0u);
  EXPECT_FALSE(b.cts_received);
}
