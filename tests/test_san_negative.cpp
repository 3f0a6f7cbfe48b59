// Negative fixtures for the MPIOFF_SAN usage lint: each test runs a small
// cluster containing exactly one deliberate MPI-usage bug and asserts the
// sanitizer raises exactly the expected diagnostic (report-only mode, so
// the buggy run still completes). The final test runs a clean workload
// under fail:1 and asserts the sanitizer stays silent — the fixtures prove
// detection, the clean run proves the absence of false positives.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/continuation.hpp"
#include "san/san.hpp"

using namespace smpi;
using core::Approach;
using core::PReq;

namespace {

// 2x the 128 KiB eager threshold: forces the rendezvous path, whose send
// buffers must stay byte-stable while inflight (eager sends are copied out
// at post time and are deliberately not checked).
constexpr std::size_t kRndvBytes = 256 * 1024;

ClusterConfig san_cfg(int n, const char* spec) {
  ClusterConfig c;
  c.nranks = n;
  c.deadline = sim::Time::from_sec(60);
  c.san_spec = spec;  // wins over the MPIOFF_SAN env, so these fixtures
                      // behave identically under the CI sanitizer job
  return c;
}

}  // namespace

TEST(SanNegative, WriteWhileInflightSendIsReported) {
  {
    Cluster c(san_cfg(2, "1,race:0"));
    c.run([&](RankCtx& rc) {
      if (rc.rank() == 0) {
        std::vector<char> buf(kRndvBytes, 'a');
        Request r = isend(buf.data(), buf.size(), Datatype::kByte, 1, 0);
        buf[0] = 'Z';  // BUG: the rendezvous buffer must stay stable
        wait(r);
      } else {
        std::vector<char> buf(kRndvBytes);
        recv(buf.data(), buf.size(), Datatype::kByte, 0, 0);
      }
    });
  }
  EXPECT_EQ(san::count("send-buffer-modified"), 1u);
  ASSERT_FALSE(san::reports().empty());
  EXPECT_NE(san::reports()[0].message.find("checksum"), std::string::npos);
}

TEST(SanNegative, ReadOfInflightRecvBufferIsReported) {
  {
    Cluster c(san_cfg(2, "1,race:0"));
    c.run([&](RankCtx& rc) {
      if (rc.rank() == 0) {
        std::vector<int> buf(16, -1);
        Request r = irecv(buf.data(), buf.size(), Datatype::kInt, 1, 0);
        // BUG: the sender posts at t=100us, so this reads an inflight
        // target. The annotation is how app code declares the access.
        san::check_read(buf.data(), sizeof(int), "fixture.early-read");
        wait(r);
      } else {
        compute(sim::Time::from_us(100));
        std::vector<int> buf(16, 7);
        send(buf.data(), buf.size(), Datatype::kInt, 0, 0);
      }
    });
  }
  EXPECT_EQ(san::count("read-inflight-recv"), 1u);
  ASSERT_FALSE(san::reports().empty());
  EXPECT_NE(san::reports()[0].message.find("fixture.early-read"),
            std::string::npos);
}

TEST(SanNegative, RequestLeakAtTeardownIsReported) {
  {
    Cluster c(san_cfg(2, "1,race:0"));
    c.run([&](RankCtx& rc) {
      if (rc.rank() == 0) {
        static std::vector<char> buf(kRndvBytes, 'b');  // outlives rank_main
        (void)isend(buf.data(), buf.size(), Datatype::kByte, 1, 0);
        // The barrier drives progress, so the rendezvous transfer itself
        // completes — but the BUG remains: rank_main returns without ever
        // waiting on the request, so its slot is still active at teardown.
        barrier();
      } else {
        std::vector<char> buf(kRndvBytes);
        recv(buf.data(), buf.size(), Datatype::kByte, 0, 0);
        barrier();
      }
    });
  }
  EXPECT_EQ(san::count("request-leak"), 1u);
  ASSERT_FALSE(san::reports().empty());
  EXPECT_NE(san::reports()[0].message.find("rank 0"), std::string::npos);
  EXPECT_NE(san::reports()[0].message.find("1 active request"),
            std::string::npos);
}

TEST(SanNegative, DoubleWaitOnReleasedHandleIsReported) {
  {
    Cluster c(san_cfg(2, "1,race:0"));
    c.run([&](RankCtx& rc) {
      if (rc.rank() == 0) {
        int v = 7;
        Request r = isend(&v, 1, Datatype::kInt, 1, 0);
        Request again = r;  // BUG: aliased handle survives the release
        wait(r);
        wait(again);  // stale: the slot went back to the pool at first wait
      } else {
        int got = 0;
        recv(&got, 1, Datatype::kInt, 0, 0);
        EXPECT_EQ(got, 7);
      }
    });
  }
  EXPECT_EQ(san::count("stale-request"), 1u);
  ASSERT_FALSE(san::reports().empty());
  EXPECT_NE(san::reports()[0].message.find("double wait/test"),
            std::string::npos);
}

TEST(SanNegative, BlockingWaitInEngineContextIsReported) {
  bool threw = false;
  {
    ClusterConfig cfg = san_cfg(2, "1,race:0");
    cfg.thread_level = core::required_thread_level(Approach::kOffload);
    Cluster c(cfg);
    c.run([&](RankCtx& rc) {
      core::OffloadProxy p(rc, {});
      p.start_engine();
      const int me = rc.rank(), peer = 1 - me;
      std::vector<int> rbuf(8), rbuf2(8), sbuf(8, me);
      cont::Event done;
      cont::irecv(p, rbuf.data(), rbuf.size(), Datatype::kInt, peer, 0)
          .then([&](const Status&) {
            PReq follow =
                p.isend(sbuf.data(), sbuf.size(), Datatype::kInt, peer, 1);
            try {
              p.wait(follow);  // BUG: blocks the offload engine on itself
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
      p.wait(r2);
      p.barrier();
      p.stop();
    });
  }
  EXPECT_TRUE(threw);  // the call site still honors its logic_error contract
  EXPECT_GE(san::count("engine-block"), 1u);
}

TEST(SanNegative, CleanWorkloadProducesNoReports) {
  {
    // fail:1 — any diagnostic would throw out of run() and fail the test.
    Cluster c(san_cfg(4, "1,fail:1"));
    c.run([&](RankCtx& rc) {
      const int me = rc.rank(), np = rc.nranks();
      double v = me + 1.0, sum = 0;
      allreduce(&v, &sum, 1, Datatype::kDouble, Op::kSum);
      EXPECT_DOUBLE_EQ(sum, np * (np + 1) / 2.0);
      // Rendezvous ring shift with correct waits: registers and releases.
      std::vector<char> out(kRndvBytes, static_cast<char>('a' + me));
      std::vector<char> in(kRndvBytes);
      Request s = isend(out.data(), out.size(), Datatype::kByte, (me + 1) % np, 3);
      Request r = irecv(in.data(), in.size(), Datatype::kByte, (me + np - 1) % np, 3);
      wait(r);
      wait(s);
      EXPECT_EQ(in[0], static_cast<char>('a' + (me + np - 1) % np));
      barrier();
    });
  }
  EXPECT_TRUE(san::reports().empty());
  EXPECT_GT(san::stats().buffer_regs, 0u);  // the lint did watch the run
}
