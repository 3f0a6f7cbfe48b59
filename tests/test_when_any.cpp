// cont::when_any — the hedging combinator over one-shot requests.
// Exactly-once winner election across all four proxies, loser drain through
// the settled hook (no leaked request slots; losers are not cancelled, the
// one relaxation vs MPI_Cancel that DESIGN.md §17 documents), and inline
// arming over null/completed handles.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
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

class AnyMatrix : public ::testing::TestWithParam<Approach> {};

TEST_P(AnyMatrix, WinnerFiresExactlyOnceAndLosersDrain) {
  // Rank 0 races two recvs: rank 1 answers immediately, rank 2 answers
  // 300us later. The early member must win exactly once, the loser must
  // still complete (it is not cancelled), and `settled` must fire exactly
  // once after BOTH — at which point no request slot is leaked.
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 3));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank();
    if (me == 0) {
      std::vector<int> fast(64), slow(64);
      std::array<PReq, 2> rs = {
          p->irecv(fast.data(), fast.size(), Datatype::kInt, 1, 1),
          p->irecv(slow.data(), slow.size(), Datatype::kInt, 2, 2),
      };
      int wins = 0, settles = 0;
      std::size_t winner = 99;
      bool win_before_settled = false;
      cont::Event drained;
      cont::when_any(*p, rs).then(
          [&](std::size_t i, const Status& st) {
            ++wins;
            winner = i;
            EXPECT_EQ(st.bytes, fast.size() * sizeof(int));
            EXPECT_EQ(fast[7], 1007);  // payload visible to the winner hook
          },
          [&](const Status&) {
            win_before_settled = wins == 1;
            ++settles;
            drained.set();
          });
      // One-shot members are consumed at arm time.
      EXPECT_TRUE(rs[0].is_null());
      EXPECT_TRUE(rs[1].is_null());
      drained.wait(*p);
      EXPECT_EQ(wins, 1);
      EXPECT_EQ(winner, 0u) << "early member must win";
      EXPECT_EQ(settles, 1);
      EXPECT_TRUE(win_before_settled);
      EXPECT_EQ(slow[7], 2007) << "loser completed normally";
    } else {
      if (me == 2) compute(sim::Time::from_us(300));
      std::vector<int> sbuf(64);
      for (std::size_t i = 0; i < sbuf.size(); ++i) {
        sbuf[i] = me * 1000 + static_cast<int>(i);
      }
      PReq sr = p->isend(sbuf.data(), sbuf.size(), Datatype::kInt, 0, me);
      p->wait(sr);
    }
    p->barrier();
    p->stop();
    // The settled hook is also the slot-reclamation point: after it, every
    // member (winner and losers) has released its request-pool slot (the
    // comm-self helper's own standing loopback retires at stop()).
    EXPECT_EQ(rc.requests().active_count(), 0u) << "rank " << me;
  });
}

TEST_P(AnyMatrix, NullHandleWinsInlineAtArmTime) {
  // A null handle counts as already complete and races at arm time — the
  // winner hook runs inline, before then() returns. The live loser still
  // completes and is drained by settled.
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<int> rbuf(8), sbuf(8, me);
    std::array<PReq, 2> rs = {
        PReq{},  // null: completes inline at arm
        p->irecv(rbuf.data(), rbuf.size(), Datatype::kInt, peer, 0),
    };
    int wins = 0;
    std::size_t winner = 99;
    cont::Event drained;
    cont::when_any(*p, rs).then(
        [&](std::size_t i, const Status& st) {
          ++wins;
          winner = i;
          EXPECT_EQ(st.bytes, 0u);
        },
        [&](const Status&) { drained.set(); });
    EXPECT_EQ(wins, 1) << "null member must fire inline, within then()";
    EXPECT_EQ(winner, 0u);
    PReq sr = p->isend(sbuf.data(), sbuf.size(), Datatype::kInt, peer, 0);
    p->wait(sr);
    drained.wait(*p);
    EXPECT_EQ(wins, 1);
    EXPECT_EQ(rbuf[5], peer);
    p->barrier();
    p->stop();
    EXPECT_EQ(rc.requests().active_count(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, AnyMatrix,
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

TEST(WhenAny, EmptyGroupThrows) {
  Cluster c(cfg_for(Approach::kBaseline, 1));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(Approach::kBaseline, rc);
    p->start_engine();
    EXPECT_THROW(
        cont::when_any(*p, {}).then([](std::size_t, const Status&) {}, {}),
        std::invalid_argument);
    p->stop();
  });
}
