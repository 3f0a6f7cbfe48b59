// Sharded submission front-end: per-thread SPSC lanes, command batching,
// shutdown draining, ProxyOptions parsing and capacity checks, and the
// waitany/testall additions to the Proxy API.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/proxy.hpp"
#include "core/proxy_options.hpp"
#include "mpi/cluster.hpp"

using namespace smpi;
using namespace core;

namespace {

// A 20 ms virtual deadline: every test here finishes within a few ms, so an
// engine that never reaches its doorbell sleep (and so polls every
// cmd_detect) fails fast instead of polling for minutes of host time.
ClusterConfig cfg(int n) {
  ClusterConfig c;
  c.nranks = n;
  c.thread_level = ThreadLevel::kFunneled;
  c.deadline = sim::Time::from_ms(20);
  return c;
}

}  // namespace

TEST(OffloadLanes, MultiLaneSubmitIsFairAcrossThreads) {
  // Four submitter fibers on rank 0, one lane each, each lane deep enough to
  // hold more than the engine's per-pass drain bound. Every message must
  // land (no starved lane), every lane must be bound and fully drained, and
  // the submissions must go through the lane path, not the shared-ring
  // fallback.
  constexpr int kThreads = 4, kPer = 32;
  constexpr std::size_t kLaneCap = 64;
  static_assert(kPer > OffloadChannel::kLaneDrainBound &&
                kLaneCap >= kPer);
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = kThreads,
                                    .lane_capacity = kLaneCap});
    p.start_engine();
    if (rc.rank() == 0) {
      auto done = std::make_shared<int>(0);
      auto submit = [&p, done](int tid) {
        std::vector<int> vals(kPer);
        std::vector<PReq> reqs(kPer);
        for (int i = 0; i < kPer; ++i) {
          vals[static_cast<std::size_t>(i)] = tid * kPer + i;
          reqs[static_cast<std::size_t>(i)] =
              p.isend(&vals[static_cast<std::size_t>(i)], 1, Datatype::kInt, 1,
                      tid * 100 + i);
        }
        p.waitall(reqs);
        ++*done;
      };
      for (int t = 1; t < kThreads; ++t) {
        rc.cluster().spawn_on(0, "sub" + std::to_string(t),
                              [submit, t]() { submit(t); });
      }
      submit(0);
      while (*done < kThreads) sim::advance(sim::Time::from_us(1));
    } else {
      std::vector<PReq> reqs;
      std::vector<int> got(kThreads * kPer, -1);
      for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPer; ++i) {
          reqs.push_back(p.irecv(&got[static_cast<std::size_t>(t * kPer + i)],
                                 1, Datatype::kInt, 0, t * 100 + i));
        }
      }
      p.waitall(reqs);
      for (int k = 0; k < kThreads * kPer; ++k) {
        EXPECT_EQ(got[static_cast<std::size_t>(k)], k);
      }
    }
    p.barrier();
    if (rc.rank() == 0) {
      const OffloadStats& s = p.channel().stats();
      EXPECT_GE(s.lane_submits, static_cast<std::uint64_t>(kThreads * kPer));
      EXPECT_EQ(s.shared_submits, 0u);
      int bound = 0;
      for (std::size_t i = 0; i < p.channel().lane_count(); ++i) {
        const LaneStats& ls = p.channel().lane_stats(i);
        if (ls.submits == 0) continue;
        ++bound;
        EXPECT_GE(ls.submits, static_cast<std::uint64_t>(kPer));
        EXPECT_EQ(ls.drained, ls.submits) << "lane " << i << " starved";
      }
      EXPECT_EQ(bound, kThreads);
    }
    p.stop();
  });
}

TEST(OffloadLanes, SubmitBatchKeepsFifoOrderWithinLane) {
  // 16 same-tag sends posted through one post_batch call must match the
  // peer's receives in posting order — FIFO within a lane is the ordering
  // contract batching must not break.
  constexpr int kN = 16;
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 2});
    p.start_engine();
    if (rc.rank() == 0) {
      std::vector<int> vals(kN);
      std::vector<Command> ops;
      for (int i = 0; i < kN; ++i) {
        vals[static_cast<std::size_t>(i)] = i;
        ops.push_back(Command::isend(&vals[static_cast<std::size_t>(i)], 1,
                                     Datatype::kInt, 1, 7));
      }
      std::vector<PReq> reqs(kN);
      p.post_batch(ops, reqs);
      p.waitall(reqs);
      const OffloadStats& s = p.channel().stats();
      EXPECT_GE(s.batches, 1u);
      EXPECT_EQ(s.batched_commands, static_cast<std::uint64_t>(kN));
      bool found = false;
      for (std::size_t i = 0; i < p.channel().lane_count(); ++i) {
        const LaneStats& ls = p.channel().lane_stats(i);
        if (ls.batches == 0) continue;
        found = true;
        EXPECT_EQ(ls.batched_commands, static_cast<std::uint64_t>(kN));
      }
      EXPECT_TRUE(found) << "no lane saw the batch";
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, 7);
        EXPECT_EQ(v, i) << "batch broke FIFO order at message " << i;
      }
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadLanes, ChannelStorageIsBuiltAsRequestsUseIt) {
  // Capacities are bounds, not allocations: a fresh channel with default
  // options builds one 64-entry chunk per structure, and N outstanding
  // requests build ceil(N/64) pool and continuation-claim chunks. No
  // continuation is attached, so the callback records stay at chunk 0.
  constexpr int kN = 130;
  constexpr std::size_t kChunks = (kN + 63) / 64;
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions::defaults_for(rc.profile()));
    const OffloadChannel::Footprint fresh = p.channel().footprint();
    EXPECT_EQ(fresh.ring_chunks, p.channel().engine_count());
    EXPECT_EQ(fresh.pool_chunks, 1u);
    EXPECT_EQ(fresh.cont_chunks, 1u);
    EXPECT_EQ(fresh.cont_fn_chunks, 1u);
    p.start_engine();
    std::vector<int> buf(kN, -1);
    std::vector<PReq> reqs;
    if (rc.rank() == 1) {
      for (int i = 0; i < kN; ++i) {
        reqs.push_back(p.irecv(&buf[static_cast<std::size_t>(i)], 1,
                               Datatype::kInt, 0, i));
      }
      // All kN are outstanding: rank 0 sends only after the barrier.
      const OffloadChannel::Footprint f = p.channel().footprint();
      EXPECT_EQ(f.pool_chunks, kChunks);
      EXPECT_EQ(f.cont_chunks, kChunks);
      EXPECT_EQ(f.cont_fn_chunks, 1u);
      EXPECT_EQ(f.ring_chunks, p.channel().engine_count());
      p.barrier();
      p.waitall(reqs);
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(buf[static_cast<std::size_t>(i)], i);
      }
    } else {
      p.barrier();
      for (int i = 0; i < kN; ++i) {
        buf[static_cast<std::size_t>(i)] = i;
        reqs.push_back(p.isend(&buf[static_cast<std::size_t>(i)], 1,
                               Datatype::kInt, 1, i));
      }
      p.waitall(reqs);
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadLanes, ShutdownDrainsNonEmptyLanes) {
  // stop() immediately after a batch post: the engine must drain the lanes
  // and finish every in-flight send before exiting — nothing may be dropped
  // on the floor.
  constexpr int kN = 16;
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 2});
    p.start_engine();
    if (rc.rank() == 0) {
      std::vector<int> vals(kN);
      std::vector<Command> ops;
      for (int i = 0; i < kN; ++i) {
        vals[static_cast<std::size_t>(i)] = 1000 + i;
        ops.push_back(Command::isend(&vals[static_cast<std::size_t>(i)], 1,
                                     Datatype::kInt, 1, i));
      }
      std::vector<PReq> reqs(kN);
      p.post_batch(ops, reqs);
      p.stop();  // no waitall: shutdown races the lane drain
      const OffloadStats& s = p.channel().stats();
      EXPECT_EQ(s.commands, static_cast<std::uint64_t>(kN));
      EXPECT_EQ(s.completions, s.commands);
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, i);
        EXPECT_EQ(v, 1000 + i);
      }
      p.stop();
    }
  });
}

TEST(OffloadLanes, OverflowThreadsFallBackToSharedRing) {
  // More submitters than lanes: the extras must still make progress through
  // the shared MPSC ring fallback.
  constexpr int kThreads = 3, kPer = 8;
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 1});
    p.start_engine();
    if (rc.rank() == 0) {
      auto done = std::make_shared<int>(0);
      auto submit = [&p, done](int tid) {
        std::vector<int> vals(kPer);
        std::vector<PReq> reqs(kPer);
        for (int i = 0; i < kPer; ++i) {
          vals[static_cast<std::size_t>(i)] = tid * kPer + i;
          reqs[static_cast<std::size_t>(i)] =
              p.isend(&vals[static_cast<std::size_t>(i)], 1, Datatype::kInt, 1,
                      tid * 100 + i);
        }
        p.waitall(reqs);
        ++*done;
      };
      for (int t = 1; t < kThreads; ++t) {
        rc.cluster().spawn_on(0, "sub" + std::to_string(t),
                              [submit, t]() { submit(t); });
      }
      submit(0);
      while (*done < kThreads) sim::advance(sim::Time::from_us(1));
      const OffloadStats& s = p.channel().stats();
      EXPECT_GT(s.lane_submits, 0u);
      // Lane-table overflow is its own counter now: shared_submits stays
      // reserved for the lanes-disabled configuration, so a capacity-planning
      // dashboard can tell "ran out of lanes" from "chose no lanes".
      EXPECT_GT(s.overflow_submits, 0u);
      EXPECT_EQ(s.shared_submits, 0u);
    } else {
      std::vector<PReq> reqs;
      std::vector<int> got(kThreads * kPer, -1);
      for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPer; ++i) {
          reqs.push_back(p.irecv(&got[static_cast<std::size_t>(t * kPer + i)],
                                 1, Datatype::kInt, 0, t * 100 + i));
        }
      }
      p.waitall(reqs);
      for (int k = 0; k < kThreads * kPer; ++k) {
        EXPECT_EQ(got[static_cast<std::size_t>(k)], k);
      }
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadLanes, PostBatchThroughSharedRingKeepsPerPeerFifo) {
  // A batch from a fiber without a lane goes through its engine's shared
  // ring: lanes disabled, or more submitting fibers than lane rows. Per-peer
  // FIFO must hold at the receiver, the batch must count as shared (or
  // overflow) submissions and as batches, and a ring too small for a chunk
  // must stall the producer without losing a command.
  constexpr int kN = 12;  // two post_batch chunks: 8 + 4
  static_assert(OffloadProxy::kBatchFlush == 8);
  struct Case {
    const char* name;
    ProxyOptions opts;
    bool overflow;
  };
  const Case cases[] = {
      {"lanes disabled", ProxyOptions{.lane_count = 0}, false},
      {"overflow fiber", ProxyOptions{.lane_count = 1}, true},
      {"tiny ring", ProxyOptions{.ring_capacity = 4, .lane_count = 0}, false},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    Cluster c(cfg(2));
    c.run([&](RankCtx& rc) {
      OffloadProxy p(rc, k.opts);
      p.start_engine();
      if (rc.rank() == 0) {
        if (k.overflow) {
          // This fiber binds the only lane row, so the batch fiber cannot.
          const int v = -1;
          p.send(&v, 1, Datatype::kInt, 1, 8);
        }
        const OffloadStats before = p.channel().stats();
        auto done = std::make_shared<bool>(false);
        const auto batch = [&p, done] {
          std::vector<int> vals(kN);
          std::vector<Command> ops;
          for (int i = 0; i < kN; ++i) {
            vals[static_cast<std::size_t>(i)] = i;
            ops.push_back(Command::isend(&vals[static_cast<std::size_t>(i)], 1,
                                         Datatype::kInt, 1, 7));
          }
          std::vector<PReq> reqs(kN);
          p.post_batch(ops, reqs);
          p.waitall(reqs);
          *done = true;
        };
        if (k.overflow) {
          rc.cluster().spawn_on(0, "batch", batch);
        } else {
          batch();
        }
        while (!*done) sim::advance(sim::Time::from_us(1));
        const OffloadStats& s = p.channel().stats();
        const std::uint64_t ring_submits =
            k.overflow ? s.overflow_submits - before.overflow_submits
                       : s.shared_submits - before.shared_submits;
        EXPECT_EQ(ring_submits, static_cast<std::uint64_t>(kN));
        EXPECT_EQ(s.lane_submits, before.lane_submits);
        EXPECT_EQ(s.batches - before.batches, 2u);
        EXPECT_EQ(s.batched_commands - before.batched_commands,
                  static_cast<std::uint64_t>(kN));
        if (k.opts.ring_capacity < OffloadProxy::kBatchFlush) {
          EXPECT_GT(s.ring_full_stalls, 0u);
        }
      } else {
        if (k.overflow) {
          int v = 0;
          p.recv(&v, 1, Datatype::kInt, 0, 8);
        }
        for (int i = 0; i < kN; ++i) {
          int v = -1;
          p.recv(&v, 1, Datatype::kInt, 0, 7);
          EXPECT_EQ(v, i) << "ring batch broke FIFO order at message " << i;
        }
      }
      p.barrier();
      p.stop();
    });
  }
}

TEST(OffloadLanes, WaitanyRetiresInCompletionOrder) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc);
    p.start_engine();
    if (rc.rank() == 0) {
      int slow = -1, fast = -1;
      PReq reqs[2] = {p.irecv(&slow, 1, Datatype::kInt, 1, 0),
                      p.irecv(&fast, 1, Datatype::kInt, 1, 1)};
      // Peer sends tag 1 immediately and tag 0 only after a long compute, so
      // index 1 must retire first.
      const int first = p.waitany(reqs);
      EXPECT_EQ(first, 1);
      EXPECT_EQ(fast, 11);
      EXPECT_TRUE(reqs[1].is_null());
      const int second = p.waitany(reqs);
      EXPECT_EQ(second, 0);
      EXPECT_EQ(slow, 10);
      // All handles consumed: waitany on an all-null span returns -1.
      EXPECT_EQ(p.waitany(reqs), -1);
    } else {
      const int vf = 11;
      p.send(&vf, 1, Datatype::kInt, 0, 1);
      compute(sim::Time::from_ms(1));
      const int vs = 10;
      p.send(&vs, 1, Datatype::kInt, 0, 0);
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadLanes, TestallReleasesAllOrNothing) {
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc);
    p.start_engine();
    if (rc.rank() == 0) {
      int a = -1, b = -1;
      PReq reqs[2] = {p.irecv(&a, 1, Datatype::kInt, 1, 0),
                      p.irecv(&b, 1, Datatype::kInt, 1, 1)};
      // Nothing sent yet: testall must fail and release neither handle.
      EXPECT_FALSE(p.testall(reqs));
      EXPECT_FALSE(reqs[0].is_null());
      EXPECT_FALSE(reqs[1].is_null());
      p.barrier();  // peer sends both after the barrier
      while (!p.testall(reqs)) sim::advance(sim::Time::from_us(1));
      EXPECT_TRUE(reqs[0].is_null());
      EXPECT_TRUE(reqs[1].is_null());
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
      // All-null span is vacuously complete.
      EXPECT_TRUE(p.testall(reqs));
    } else {
      p.barrier();
      const int va = 1, vb = 2;
      p.send(&va, 1, Datatype::kInt, 0, 0);
      p.send(&vb, 1, Datatype::kInt, 0, 1);
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadLanes, DirectProxyWaitanyAndTestall) {
  // The same API surface must work on the non-offload proxies (DirectProxy
  // wraps real requests; null handling and -1 semantics must match).
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(Approach::kBaseline, rc);
    p->start_engine();
    if (rc.rank() == 0) {
      int a = -1, b = -1;
      PReq reqs[2] = {p->irecv(&a, 1, Datatype::kInt, 1, 0),
                      p->irecv(&b, 1, Datatype::kInt, 1, 1)};
      int got = 0;
      while (p->waitany(reqs) >= 0) ++got;
      EXPECT_EQ(got, 2);
      EXPECT_EQ(a, 5);
      EXPECT_EQ(b, 6);
      EXPECT_EQ(p->waitany(reqs), -1);
      EXPECT_TRUE(p->testall(reqs));  // all-null span
    } else {
      const int va = 5, vb = 6;
      p->send(&va, 1, Datatype::kInt, 0, 0);
      p->send(&vb, 1, Datatype::kInt, 0, 1);
    }
    p->barrier();
    p->stop();
  });
}

TEST(ProxyOptions, ParseOverridesEveryKey) {
  // The spec sets the engine count only; every other field keeps its base.
  const ProxyOptions o = ProxyOptions::parse("proxies=2");
  EXPECT_EQ(o.proxy_count, 2u);
  EXPECT_EQ(o.ring_capacity, ProxyOptions{}.ring_capacity);
  EXPECT_EQ(o.pool_capacity, ProxyOptions{}.pool_capacity);
  EXPECT_EQ(o.lane_count, ProxyOptions{}.lane_count);
  EXPECT_EQ(o.lane_capacity, ProxyOptions{}.lane_capacity);
  EXPECT_EQ(o.watchdog_budget.ns(), ProxyOptions{}.watchdog_budget.ns());
}

TEST(ProxyOptions, ParseAcceptsColonSeparator) {
  // proxies:4 reads naturally next to the MPIOFF_SAN-style specs; both
  // separators must work.
  EXPECT_EQ(ProxyOptions::parse("proxies:4").proxy_count, 4u);
  EXPECT_EQ(ProxyOptions::parse("proxies=3").proxy_count, 3u);
  // Empty items between commas are skipped.
  EXPECT_EQ(ProxyOptions::parse(",proxies:5,").proxy_count, 5u);
}

TEST(ProxyOptions, ParseRejectsRetiredKeys) {
  // The per-pass bounds, the batch flush, the capacities and the watchdog
  // budget are not env keys: a spec that still sets one fails at parse time,
  // names the key and teaches the one valid key.
  for (const char* spec :
       {"drain=16", "batch=8", "cont_run=16", "steal:8", "ring=2048",
        "pool=128", "lanes=4", "lane_cap:32", "watchdog=250us"}) {
    const std::string s = spec;
    const std::string key = s.substr(0, s.find_first_of("=:"));
    try {
      ProxyOptions::parse(spec);
      ADD_FAILURE() << spec << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos)
          << spec << ": " << msg;
      EXPECT_NE(msg.find("proxies"), std::string::npos) << spec << ": " << msg;
    }
  }
}

TEST(ProxyOptions, ParseRejectsZeroProxies) {
  EXPECT_THROW(ProxyOptions::parse("proxies=0"), std::invalid_argument);
  EXPECT_THROW(ProxyOptions::parse("proxies:0"), std::invalid_argument);
}

TEST(ProxyOptions, ParseRejectsUnknownKeyNamingValidOnes) {
  try {
    ProxyOptions::parse("proxy=4");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'proxy'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("proxies"), std::string::npos) << msg;
  }
}

TEST(ProxyOptions, ParseRejectsBadValues) {
  // Counts are scanned whole: digits only (no letters, sign, blank or
  // trailing garbage), no overflow, no missing or empty value.
  for (const char* bad :
       {"proxies=two", "proxies=abc", "proxies=4x", "proxies=-1",
        "proxies=+3", "proxies= 2", "proxies=18446744073709551616", "proxies",
        "proxies=", "proxies:"}) {
    EXPECT_THROW(ProxyOptions::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(ProxyOptions, ParseRejectsDuplicateKeysNamingTheOffender) {
  try {
    ProxyOptions::parse("proxies=2,proxies:3");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'proxies'"), std::string::npos) << msg;
  }
}

TEST(ProxyOptions, DefaultsDeriveFromProfile) {
  machine::Profile p = machine::xeon_fdr();
  p.cores_per_rank = 28;
  ProxyOptions o = ProxyOptions::defaults_for(p);
  EXPECT_EQ(o.lane_count, 16u);  // 27 usable submitters, capped at 16
  EXPECT_EQ(o.watchdog_budget.ns(), 500'000'000);  // the struct default
  EXPECT_EQ(o.proxy_count, 2u);  // one engine fiber per NUMA domain
  p.cores_per_rank = 4;
  EXPECT_EQ(ProxyOptions::defaults_for(p).lane_count, 3u);
  // Single-domain profiles stay single-engine: the sharded paths must never
  // switch on for a machine that cannot benefit from them.
  EXPECT_EQ(ProxyOptions::defaults_for(machine::xeon_phi()).proxy_count, 1u);
  EXPECT_EQ(ProxyOptions::defaults_for(machine::aries()).proxy_count, 1u);
  // The plain struct default is also 1: explicit aggregate options in tests
  // and benches keep the classic single-engine channel unless asked.
  EXPECT_EQ(ProxyOptions{}.proxy_count, 1u);
}

TEST(ProxyOptions, FromEnvAppliesSpecOnTopOfDefaults) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test
  setenv("MPIOFF_PROXY", "proxies:3", 1);
  const ProxyOptions o = ProxyOptions::from_env(machine::xeon_fdr());
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  unsetenv("MPIOFF_PROXY");
  EXPECT_EQ(o.proxy_count, 3u);
  // Every other field keeps its profile-derived default.
  const ProxyOptions d = ProxyOptions::defaults_for(machine::xeon_fdr());
  EXPECT_NE(d.proxy_count, 3u);
  EXPECT_EQ(o.lane_count, d.lane_count);
  EXPECT_EQ(o.ring_capacity, d.ring_capacity);
  EXPECT_EQ(o.pool_capacity, d.pool_capacity);
  EXPECT_EQ(o.lane_capacity, d.lane_capacity);
  EXPECT_EQ(o.watchdog_budget.ns(), d.watchdog_budget.ns());
  // Without the env var, from_env is defaults_for.
  EXPECT_EQ(ProxyOptions::from_env(machine::xeon_fdr()).proxy_count,
            d.proxy_count);
}

TEST(ProxyOptions, ConstructionRejectsCapacitiesTheStructuresCannotHold) {
  // Capacities are set in code, not in the env spec; one the ring, pool or
  // lanes cannot hold throws when the OffloadProxy is built (for a lane, not
  // at its first bind), and the smallest legal ones build.
  const std::vector<std::pair<const char*, ProxyOptions>> bad = {
      {"ring 0", ProxyOptions{.ring_capacity = 0}},
      {"ring 1", ProxyOptions{.ring_capacity = 1}},
      {"ring 1000", ProxyOptions{.ring_capacity = 1000}},
      {"pool 0", ProxyOptions{.pool_capacity = 0}},
      {"pool 2^32-1", ProxyOptions{.pool_capacity = 0xffffffffu}},
      {"lane_cap 0", ProxyOptions{.lane_capacity = 0}},
      {"lane_cap 1", ProxyOptions{.lane_capacity = 1}},
      {"lane_cap 100", ProxyOptions{.lane_capacity = 100}},
  };
  Cluster c(cfg(1));
  c.run([&](RankCtx& rc) {
    for (const auto& [name, opts] : bad) {
      EXPECT_THROW(OffloadProxy(rc, opts), std::invalid_argument) << name;
    }
    // With lanes off, the lane capacity is never used.
    EXPECT_NO_THROW(OffloadProxy(
        rc, ProxyOptions{.lane_count = 0, .lane_capacity = 100}));
    OffloadProxy p(rc, ProxyOptions{.ring_capacity = 2,
                                    .pool_capacity = 1,
                                    .lane_count = 1,
                                    .lane_capacity = 2});
    p.start_engine();
    p.barrier();  // one command through a two-cell lane and a one-slot pool
    p.stop();
  });
}

TEST(OffloadLanes, MultiProxyShardsTrafficAcrossEngines) {
  // Four engine fibers on the submitting rank: traffic to four distinct
  // peers is partitioned by peer hash, every message still lands, and the
  // lane table becomes a grid with one column per engine.
  constexpr int kPeers = 4, kPer = 16;
  Cluster c(cfg(kPeers + 1));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 2, .proxy_count = 4});
    p.start_engine();
    EXPECT_EQ(p.channel().engine_count(), 4u);
    EXPECT_EQ(p.channel().lane_count(), 8u);  // 2 rows x 4 engine columns
    if (rc.rank() == 0) {
      std::vector<int> vals(kPeers * kPer);
      std::vector<PReq> reqs;
      for (int peer = 1; peer <= kPeers; ++peer) {
        for (int i = 0; i < kPer; ++i) {
          const std::size_t k =
              static_cast<std::size_t>((peer - 1) * kPer + i);
          vals[k] = peer * 1000 + i;
          reqs.push_back(p.isend(&vals[k], 1, Datatype::kInt, peer, i));
        }
      }
      p.waitall(reqs);
      const OffloadStats& s = p.channel().stats();
      EXPECT_EQ(s.commands, static_cast<std::uint64_t>(kPeers * kPer));
    } else {
      for (int i = 0; i < kPer; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, i);
        EXPECT_EQ(v, rc.rank() * 1000 + i)
            << "peer " << rc.rank() << " message " << i;
      }
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadLanes, IdleEnginesStealSkewedTraffic) {
  // All traffic targets one peer, so the peer-hash partition lands every
  // command on a single engine; its three idle siblings must pick up part of
  // the backlog through the bounded claim-protected steal path — and the
  // per-peer wire order must survive them doing so.
  constexpr int kN = 96;
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 2, .proxy_count = 4});
    p.start_engine();
    if (rc.rank() == 0) {
      std::vector<int> vals(kN);
      std::vector<Command> ops;
      for (int i = 0; i < kN; ++i) {
        vals[static_cast<std::size_t>(i)] = i;
        ops.push_back(Command::isend(&vals[static_cast<std::size_t>(i)], 1,
                                     Datatype::kInt, 1, 7));
      }
      std::vector<PReq> reqs(kN);
      p.post_batch(ops, reqs);
      p.waitall(reqs);
      const OffloadStats& s = p.channel().stats();
      EXPECT_GT(s.steal_rounds, 0u);
      EXPECT_GT(s.steal_commands, 0u);
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, 7);
        EXPECT_EQ(v, i) << "stealing broke same-peer FIFO at message " << i;
      }
    }
    p.barrier();
    p.stop();
  });
}

TEST(OffloadLanes, EngineIdentityGuardsReentryAndClearsOnExit) {
  // While the proxy runs, every engine slot is owned by a live fiber:
  // re-entering any of them must fail loudly instead of silently corrupting
  // the owner's identity. After stop(), the identity has been cleared on the
  // exit path, so a fresh run of the drained engine is legal and returns
  // immediately (shutdown is already latched).
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.proxy_count = 2});
    p.start_engine();
    // start() only spawns the engine fibers; let them run far enough to take
    // ownership of their slots before poking at the re-entry guard.
    sim::advance(sim::Time::from_us(10));
    EXPECT_THROW(p.channel().engine_main(0), std::logic_error);
    EXPECT_THROW(p.channel().engine_main(1), std::logic_error);
    p.barrier();
    p.stop();
    p.channel().engine_main(0);
    p.channel().engine_main(1);
  });
}

// A lane row is built when a submitter binds it. The second submitter here
// binds its row only after the first one's traffic has drained and every
// engine has gone to sleep on the doorbell, so its row appears while the
// engines poll. Its messages must still arrive, in per-fiber FIFO order, under
// one engine and under four (where idle siblings steal from the new row too).
// A drain or steal scan that misses a row bound after the engines started, or
// that touches an unbound row, fails here.
class LaneRowsBuiltOnBind : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LaneRowsBuiltOnBind, LateSubmitterBindsWhileEnginesPoll) {
  const std::size_t engines = GetParam();
  constexpr std::size_t kRows = 4;
  constexpr int kPer = 24;
  constexpr std::size_t kLaneCap = 32;
  // A fiber's whole burst fits its lane and takes more than one drain pass.
  static_assert(kPer > OffloadChannel::kLaneDrainBound && kLaneCap >= kPer);
  Cluster c(cfg(2));
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = kRows,
                                    .lane_capacity = kLaneCap,
                                    .proxy_count = engines});
    // Before any submit the whole grid is addressable and reads zero.
    ASSERT_EQ(p.channel().lane_count(), kRows * engines);
    for (std::size_t i = 0; i < p.channel().lane_count(); ++i) {
      const LaneStats& ls = p.channel().lane_stats(i);
      EXPECT_EQ(ls.submits + ls.drained + ls.batches + ls.max_occupancy, 0u)
          << "lane " << i;
    }
    p.start_engine();
    // Each fiber sends kPer same-tag messages to rank 1, so matching order
    // there is the order the engines issued that fiber's commands.
    const auto burst = [&p](int tag) {
      std::vector<int> vals(kPer);
      std::vector<PReq> reqs(kPer);
      for (int i = 0; i < kPer; ++i) {
        vals[static_cast<std::size_t>(i)] = tag * 1000 + i;
        reqs[static_cast<std::size_t>(i)] = p.isend(
            &vals[static_cast<std::size_t>(i)], 1, Datatype::kInt, 1, tag);
      }
      p.waitall(reqs);
    };
    if (rc.rank() == 0) {
      auto late_done = std::make_shared<bool>(false);
      std::uint64_t sleeps_before_bind = 0;
      rc.cluster().spawn_on(0, "late", [&, late_done] {
        sim::advance(sim::Time::from_us(200));
        sleeps_before_bind = p.channel().stats().engine_sleeps;
        burst(2);
        *late_done = true;
      });
      burst(1);
      while (!*late_done) sim::advance(sim::Time::from_us(1));
      EXPECT_GE(sleeps_before_bind, engines)
          << "the late submitter was meant to bind while the engines slept";
      int bound_lanes = 0;
      for (std::size_t i = 0; i < p.channel().lane_count(); ++i) {
        const LaneStats& ls = p.channel().lane_stats(i);
        EXPECT_EQ(ls.drained, ls.submits) << "lane " << i;
        if (i >= 2 * engines) {
          EXPECT_EQ(ls.submits, 0u) << "lane " << i << " of an unbound row";
        }
        if (ls.submits != 0) ++bound_lanes;
      }
      EXPECT_EQ(bound_lanes, 2);  // one peer: one engine column per row
    } else {
      for (const int tag : {1, 2}) {
        std::vector<int> got(kPer, -1);
        std::vector<PReq> reqs(kPer);
        for (int i = 0; i < kPer; ++i) {
          reqs[static_cast<std::size_t>(i)] = p.irecv(
              &got[static_cast<std::size_t>(i)], 1, Datatype::kInt, 0, tag);
        }
        p.waitall(reqs);
        for (int i = 0; i < kPer; ++i) {
          EXPECT_EQ(got[static_cast<std::size_t>(i)], tag * 1000 + i)
              << "tag " << tag << " message " << i;
        }
      }
    }
    p.barrier();
    p.stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Engines, LaneRowsBuiltOnBind,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(OffloadLanes, RowBoundMidPassIsDrainedInThatPass) {
  // One engine; a pass pops at most kLaneDrainBound = 16 commands per bound
  // row, visiting rows in rotation from a start that advances by one row
  // per pass (modulo lane_count = 4). Fiber A's 40 sends sit in row 0, more
  // than two passes may pop. The first pass that issues any starts at row 1
  // and pops A0..A15 from row 0. The second starts at row 2, finds rows 2
  // and 3 unbound and wraps to row 0; A17 is a 16 KiB eager send, and while
  // the engine issues it (issuing yields) fiber B binds row 1 and publishes
  // four sends. After A31 the pass has reached the bound on row 0, which
  // still holds A32..A39, and goes on to row 1: B0..B3 go out in that same
  // pass. Every message carries one tag to one peer, so rank 1's matching
  // order is the engine's issue order. A scan that fixed the bound-row count
  // at the start of the pass would issue B only in the third pass (start
  // row 3), after A32..A39.
  constexpr int kA = 40, kB = 4, kBig = 4096, kBigAt = 17;
  static_assert(OffloadChannel::kLaneDrainBound == 16);
  Cluster c(cfg(2));
  std::vector<int> order;
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 4});
    p.start_engine();
    const auto post = [&p](std::vector<Command>& ops) {
      std::vector<PReq> reqs(ops.size());
      p.post_batch(ops, reqs);
      p.waitall(reqs);
    };
    if (rc.rank() == 0) {
      auto b_done = std::make_shared<bool>(false);
      rc.cluster().spawn_on(0, "B", [&p, &post, b_done] {
        // Wait until the engine has dequeued A17 (commands counts dequeues).
        while (p.channel().stats().commands < kBigAt + 1) {
          sim::advance(sim::Time::from_ns(10));
        }
        std::vector<int> vals(kB);
        std::vector<Command> ops;
        for (int i = 0; i < kB; ++i) {
          vals[static_cast<std::size_t>(i)] = 100 + i;
          ops.push_back(Command::isend(&vals[static_cast<std::size_t>(i)], 1,
                                       Datatype::kInt, 1, 5));
        }
        post(ops);
        *b_done = true;
      });
      std::vector<int> big(kBig, kBigAt);
      std::vector<int> vals(kA);
      std::vector<Command> ops;
      for (int i = 0; i < kA; ++i) {
        int* v = &vals[static_cast<std::size_t>(i)];
        *v = i;
        ops.push_back(i == kBigAt
                          ? Command::isend(big.data(), kBig, Datatype::kInt, 1, 5)
                          : Command::isend(v, 1, Datatype::kInt, 1, 5));
      }
      post(ops);
      while (!*b_done) sim::advance(sim::Time::from_us(1));
    } else {
      std::vector<std::vector<int>> bufs(kA + kB, std::vector<int>(kBig, -1));
      std::vector<PReq> reqs;
      for (auto& b : bufs) {
        reqs.push_back(p.irecv(b.data(), kBig, Datatype::kInt, 0, 5));
      }
      p.waitall(reqs);
      for (const auto& b : bufs) order.push_back(b[0]);
    }
    p.barrier();
    p.stop();
  });
  std::vector<int> want;
  for (int i = 0; i < 32; ++i) want.push_back(i);
  for (int i = 0; i < kB; ++i) want.push_back(100 + i);
  for (int i = 32; i < kA; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
}

TEST(OffloadLanes, WaitallReturnTimesWithNullsAndOutOfOrderCompletions) {
  // Three app fibers on rank 0 and two engines each wait on one window of
  // receives with null entries at its front, middle and end. Ranks 1 and 2
  // send the windows' messages pairwise swapped (index 1 before 0, 3 before
  // 2, ...) with a compute gap between sends, so completions land out of
  // order, every completion wakes all three waiters, and each pass re-reads
  // a prefix of flags it has already seen set. The return times and the
  // final clock were captured from a build whose waitall re-read every flag
  // with one advance each; charging those re-reads as step chains must not
  // move any of them.
  constexpr int kFibers = 3, kPer = 6;
  Cluster c(cfg(3));
  std::vector<std::vector<std::int64_t>> returned(kFibers);
  const sim::Time end = c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 4, .proxy_count = 2});
    p.start_engine();
    const auto tag = [](int f, int i) { return f * 100 + i; };
    const auto peer = [](int i) { return 1 + i % 2; };
    if (rc.rank() == 0) {
      auto done = std::make_shared<int>(0);
      const auto waiter = [&, done](int f) {
        std::vector<int> got(kPer, -1);
        std::vector<PReq> window;
        window.emplace_back();
        for (int i = 0; i < kPer; ++i) {
          if (i == kPer / 2) window.emplace_back();
          window.push_back(p.irecv(&got[static_cast<std::size_t>(i)], 1,
                                   Datatype::kInt, peer(i), tag(f, i)));
        }
        window.emplace_back();
        p.waitall(window);
        returned[static_cast<std::size_t>(f)].push_back(sim::now().ns());
        for (int i = 0; i < kPer; ++i) {
          EXPECT_EQ(got[static_cast<std::size_t>(i)], tag(f, i) + 1000);
        }
        for (const PReq& r : window) EXPECT_TRUE(r.is_null());
        ++*done;
      };
      for (int f = 1; f < kFibers; ++f) {
        rc.cluster().spawn_on(0, "waiter" + std::to_string(f),
                              [waiter, f] { waiter(f); });
      }
      waiter(0);
      while (*done < kFibers) sim::advance(sim::Time::from_us(1));
    } else {
      for (int pair = 0; pair < kPer; pair += 2) {
        for (const int i : {pair + 1, pair}) {
          if (peer(i) != rc.rank()) continue;
          for (int f = 0; f < kFibers; ++f) {
            const int v = tag(f, i) + 1000;
            p.send(&v, 1, Datatype::kInt, 0, tag(f, i));
            compute(sim::Time::from_ns(700));
          }
        }
      }
    }
    p.barrier();
    p.stop();
  });
  EXPECT_EQ(returned, (std::vector<std::vector<std::int64_t>>{
                          {11800}, {13310}, {14820}}));
  EXPECT_EQ(end.ns(), 21055);
}

TEST(OffloadLanes, EnginesSleepOnceAStealHeavyBurstDrains) {
  // All traffic targets one peer, so every command lands on one of the two
  // engines and the other steals part of it (a thief's pops lower the
  // victim's backlog count). Once the burst has drained both engines must
  // reach the doorbell sleep: an idle poll reads the backlog counts, and a
  // count left high by a thief's pops would keep both polling for good —
  // thousands of cmd_detect spins over the idle window, and an engine that
  // never exits at stop() (the short deadline turns that into a failure).
  constexpr int kN = 96;
  ClusterConfig conf = cfg(2);
  conf.deadline = sim::Time::from_ms(20);
  Cluster c(conf);
  OffloadStats after_burst, after_idle;
  c.run([&](RankCtx& rc) {
    OffloadProxy p(rc, ProxyOptions{.lane_count = 2, .proxy_count = 2});
    p.start_engine();
    if (rc.rank() == 0) {
      std::vector<int> vals(kN);
      std::vector<Command> ops;
      for (int i = 0; i < kN; ++i) {
        vals[static_cast<std::size_t>(i)] = i;
        ops.push_back(Command::isend(&vals[static_cast<std::size_t>(i)], 1,
                                     Datatype::kInt, 1, 7));
      }
      std::vector<PReq> reqs(kN);
      p.post_batch(ops, reqs);
      p.waitall(reqs);
      after_burst = p.channel().stats();
      compute(sim::Time::from_ms(2));
      after_idle = p.channel().stats();
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, 7);
        EXPECT_EQ(v, i);
      }
    }
    p.barrier();
    p.stop();
  });
  EXPECT_GT(after_burst.steal_commands, 0u);
  EXPECT_GT(after_idle.engine_sleeps, after_burst.engine_sleeps);
  // Each trip to the doorbell sleep takes kSpinPolls spins per engine; allow
  // a few wakes (rank 1's barrier message arrives in the window).
  EXPECT_LE(after_idle.engine_spins - after_burst.engine_spins,
            8u * OffloadChannel::kSpinPolls);
}
