// Fault-injection + wire-reliability coverage:
//   * FaultSpec parsing (the MPIOFF_FAULTS grammar);
//   * determinism of the fault plan (same seed → same schedule and results);
//   * the parameterized soak: seed × fault mix, each run through all four
//     proxies, asserting bit-wise payload equality and identical MPI-level
//     outcomes against a fault-free reference run;
//   * matching-layer: duplicated/reordered frames never double-match;
//   * recycled eager payload storage under parked, retransmitted and
//     duplicated frames;
//   * the offload engine watchdog flagging stuck requests;
//   * the MPIOFF_FAULTS environment hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/proxy.hpp"
#include "machine/fault.hpp"
#include "mpi/cluster.hpp"

using namespace smpi;
using core::Approach;
using core::PReq;
using machine::FaultSpec;
using machine::PayloadPool;

namespace {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Per-rank record of everything MPI-visible the workload produced: payload
/// digest (bit-wise), statuses (source/tag/bytes), and the allreduce result.
struct RankOutcome {
  std::uint64_t digest = 14695981039346656037ull;
  std::vector<int> sources, tags;
  std::vector<std::size_t> byte_counts;
  long long reduced = 0;

  bool operator==(const RankOutcome&) const = default;
};

struct SoakResult {
  std::vector<RankOutcome> outcomes;  // one per rank
  std::uint64_t retransmits = 0;
  std::uint64_t dup_drops = 0;
  std::uint64_t injected_drops = 0;
};

/// Mixed-protocol workload: eager + multi-chunk rendezvous ring exchange, a
/// same-tag burst (non-overtaking check), and a closing allreduce so every
/// rank is still inside MPI while peers recover lost frames.
SoakResult run_soak(Approach a, const FaultSpec& faults) {
  constexpr int kRanks = 4, kIters = 3, kBurst = 6;
  constexpr std::size_t kEager = 2 << 10, kRndv = 24 << 10;
  ClusterConfig cfg;
  cfg.nranks = kRanks;
  cfg.profile.eager_threshold = 8 << 10;
  cfg.profile.rndv_chunk_bytes = 8 << 10;
  cfg.profile.rndv_pipeline_depth = 2;
  cfg.profile.faults = faults;
  cfg.thread_level = core::required_thread_level(a);
  cfg.deadline = sim::Time::from_sec(600);
  Cluster c(cfg);
  SoakResult res;
  res.outcomes.resize(kRanks);
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank();
    const int right = (me + 1) % kRanks, left = (me + kRanks - 1) % kRanks;
    RankOutcome& out = res.outcomes[static_cast<std::size_t>(me)];
    std::vector<char> se(kEager), sr(kRndv), re(kEager), rr(kRndv);
    for (int it = 0; it < kIters; ++it) {
      for (std::size_t i = 0; i < kEager; ++i) {
        se[i] = static_cast<char>((me * 131 + it * 17 + static_cast<int>(i)) & 0x7f);
      }
      for (std::size_t i = 0; i < kRndv; ++i) {
        sr[i] = static_cast<char>((me * 29 + it * 7 + static_cast<int>(i * 3)) & 0x7f);
      }
      Status ste, str;
      PReq reqs[4] = {p->irecv(re.data(), kEager, Datatype::kByte, left, it),
                      p->irecv(rr.data(), kRndv, Datatype::kByte, left, 100 + it),
                      p->isend(se.data(), kEager, Datatype::kByte, right, it),
                      p->isend(sr.data(), kRndv, Datatype::kByte, right, 100 + it)};
      p->wait(reqs[0], &ste);
      p->wait(reqs[1], &str);
      p->wait(reqs[2]);
      p->wait(reqs[3]);
      out.digest = fnv1a(re.data(), kEager, out.digest);
      out.digest = fnv1a(rr.data(), kRndv, out.digest);
      for (const Status& st : {ste, str}) {
        out.sources.push_back(st.source);
        out.tags.push_back(st.tag);
        out.byte_counts.push_back(st.bytes);
      }
    }
    // Same-tag burst: MPI non-overtaking must hold under reordering faults.
    {
      std::vector<PReq> reqs;
      std::vector<std::vector<char>> rbufs(kBurst, std::vector<char>(kEager));
      std::vector<std::vector<char>> sbufs(kBurst, std::vector<char>(kEager));
      for (int i = 0; i < kBurst; ++i) {
        reqs.push_back(p->irecv(rbufs[static_cast<std::size_t>(i)].data(),
                                kEager, Datatype::kByte, left, 777));
      }
      for (int i = 0; i < kBurst; ++i) {
        auto& sb = sbufs[static_cast<std::size_t>(i)];
        std::memset(sb.data(), 'a' + i, kEager);
        reqs.push_back(p->isend(sb.data(), kEager, Datatype::kByte, right, 777));
      }
      p->waitall(reqs);
      for (int i = 0; i < kBurst; ++i) {
        out.digest = fnv1a(rbufs[static_cast<std::size_t>(i)].data(), kEager,
                           out.digest);
      }
    }
    long long v = me + 1, sum = 0;
    p->allreduce(&v, &sum, 1, Datatype::kLong, Op::kSum);
    out.reduced = sum;
    p->barrier();
    p->stop();
  });
  for (int r = 0; r < kRanks; ++r) {
    res.retransmits += c.rank(r).rel_stats().retransmits;
    res.dup_drops += c.rank(r).rel_stats().dup_drops;
  }
  if (const machine::FaultPlan* fp = c.network().faults()) {
    res.injected_drops = fp->stats().dropped;
  }
  return res;
}

}  // namespace

// --------------------------------------------------------- spec parsing ----

TEST(FaultSpec, ParsesFullSpec) {
  const FaultSpec s = FaultSpec::parse(
      "drop=0.02,dup=0.01,corrupt=0.005,delay=0.1:20us,reorder=0.05,"
      "stall=0.001:50us,rto=150us,seed=42");
  EXPECT_TRUE(s.on);
  EXPECT_DOUBLE_EQ(s.drop, 0.02);
  EXPECT_DOUBLE_EQ(s.dup, 0.01);
  EXPECT_DOUBLE_EQ(s.corrupt, 0.005);
  EXPECT_DOUBLE_EQ(s.delay, 0.1);
  EXPECT_EQ(s.delay_max.ns(), 20'000);
  EXPECT_DOUBLE_EQ(s.reorder, 0.05);
  EXPECT_DOUBLE_EQ(s.stall, 0.001);
  EXPECT_EQ(s.stall_window.ns(), 50'000);
  EXPECT_EQ(s.rto_base.ns(), 150'000);
  EXPECT_EQ(s.seed, 42u);
}

TEST(FaultSpec, DurationSuffixes) {
  EXPECT_EQ(FaultSpec::parse("rto=250").rto_base.ns(), 250);
  EXPECT_EQ(FaultSpec::parse("rto=250ns").rto_base.ns(), 250);
  EXPECT_EQ(FaultSpec::parse("rto=5us").rto_base.ns(), 5'000);
  EXPECT_EQ(FaultSpec::parse("rto=2ms").rto_base.ns(), 2'000'000);
  EXPECT_EQ(FaultSpec::parse("rto=1s").rto_base.ns(), 1'000'000'000);
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("drop="), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("drop=0.1:10us"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("rto=10xs"), std::invalid_argument);
}

TEST(FaultSpec, DisabledByDefaultAndInert) {
  const FaultSpec s;
  EXPECT_FALSE(s.enabled());
  ClusterConfig cfg;
  cfg.nranks = 2;
  Cluster c(cfg);
  EXPECT_EQ(c.network().faults(), nullptr);
}

TEST(FaultSpec, EnvVarEnablesFaults) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  ::setenv("MPIOFF_FAULTS", "drop=0.01,seed=5", 1);
  ClusterConfig cfg;
  cfg.nranks = 2;
  Cluster c(cfg);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  ::unsetenv("MPIOFF_FAULTS");
  ASSERT_NE(c.network().faults(), nullptr);
  EXPECT_DOUBLE_EQ(c.network().faults()->spec().drop, 0.01);
  EXPECT_EQ(c.network().faults()->spec().seed, 5u);
}

// ---------------------------------------------------------- determinism ----

TEST(FaultPlan, SameSeedSameScheduleAndResults) {
  FaultSpec s = FaultSpec::parse("drop=0.05,dup=0.03,corrupt=0.01,seed=11");
  const SoakResult a = run_soak(Approach::kBaseline, s);
  const SoakResult b = run_soak(Approach::kBaseline, s);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.dup_drops, b.dup_drops);
  EXPECT_EQ(a.injected_drops, b.injected_drops);
}

// ------------------------------------------------------------- the soak ----

// The mix is a std::string, not a const char*: gtest names each instance
// after its printed parameter, and a pointer prints as its address.
class FaultSoak
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {};

TEST_P(FaultSoak, AllProxiesBitIdenticalToFaultFreeRun) {
  const auto [seed, mix] = GetParam();
  FaultSpec faults = FaultSpec::parse(mix);
  faults.seed = seed;

  // Fault-free reference: what MPI semantics say the workload must produce.
  const SoakResult ref = run_soak(Approach::kBaseline, FaultSpec{});
  EXPECT_EQ(ref.retransmits, 0u);

  for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                     Approach::kCommSelf, Approach::kOffload}) {
    SCOPED_TRACE(core::approach_name(a));
    const SoakResult got = run_soak(a, faults);
    // Bit-wise payload equality + identical statuses + identical collective
    // results, per rank, no matter what the wire did.
    EXPECT_EQ(got.outcomes, ref.outcomes);
    if (faults.drop > 0) {
      EXPECT_GT(got.injected_drops, 0u);
      EXPECT_GT(got.retransmits, 0u);  // recovery actually happened
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMixes, FaultSoak,
    ::testing::Combine(
        ::testing::Values<std::uint64_t>(1, 2),
        ::testing::Values("drop=0.03", "drop=0.02,dup=0.03",
                          "corrupt=0.02,reorder=0.1,delay=0.3:15us",
                          "drop=0.02,dup=0.02,corrupt=0.01,reorder=0.05,"
                          "stall=0.01:40us")));

// ------------------------------------------------------- matching layer ----

TEST(FaultMatching, DupAndReorderNeverDoubleMatch) {
  // A duplicate eager frame that reached the matching engine twice would
  // steal a second posted recv (two recvs with the same payload, and a later
  // sender message left unexpected). The NIC-level dedup must prevent it.
  FaultSpec faults = FaultSpec::parse("dup=0.3,reorder=0.25,delay=0.5:10us,seed=3");
  constexpr int kN = 24;
  constexpr std::size_t kBytes = 1 << 10;
  ClusterConfig cfg;
  cfg.nranks = 2;
  cfg.profile.faults = faults;
  cfg.deadline = sim::Time::from_sec(600);
  Cluster c(cfg);
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 0) {
      std::vector<std::vector<char>> bufs(kN, std::vector<char>(kBytes));
      std::vector<Request> reqs;
      reqs.reserve(kN);
      for (int i = 0; i < kN; ++i) {
        reqs.push_back(rc.irecv(bufs[static_cast<std::size_t>(i)].data(),
                                kBytes, Datatype::kByte, 1, 5, kCommWorld));
      }
      rc.waitall(reqs);
      // Same tag ⇒ non-overtaking: recv i must hold message i, exactly once.
      for (int i = 0; i < kN; ++i) {
        for (std::size_t b = 0; b < kBytes; ++b) {
          ASSERT_EQ(bufs[static_cast<std::size_t>(i)][b],
                    static_cast<char>('A' + i % 26))
              << "recv " << i << " byte " << b;
        }
      }
      EXPECT_EQ(rc.matching().unexpected_count(), 0u);
      EXPECT_EQ(rc.matching().posted_count(), 0u);
    } else {
      std::vector<char> buf(kBytes);
      for (int i = 0; i < kN; ++i) {
        std::memset(buf.data(), 'A' + i % 26, kBytes);
        rc.send(buf.data(), kBytes, Datatype::kByte, 0, 5, kCommWorld);
      }
    }
    rc.barrier(kCommWorld);
  });
  // The wire really was hostile (otherwise this test proves nothing).
  ASSERT_NE(c.network().faults(), nullptr);
  EXPECT_GT(c.network().faults()->stats().duplicated, 0u);
  EXPECT_GT(c.rank(0).rel_stats().dup_drops + c.rank(0).rel_stats().ooo_drops,
            0u);
}

// ------------------------------------------------------ payload storage ----

// Eager payload storage comes from, and returns to, the network's free list.
// Payloads parked in the unexpected queue must keep their bytes while later
// sends take recycled buffers, and under faults the retransmit copies and
// duplicate frames must neither free nor reuse a buffer still in use.
class PayloadRecycling : public ::testing::TestWithParam<std::string> {};

TEST_P(PayloadRecycling, ParkedEagerPayloadsArriveBitExact) {
  constexpr int kRounds = 3, kPerRound = 72;
  constexpr std::size_t kBytes = 128 << 10;
  const auto stamp = [](int msg, std::size_t i) {
    return static_cast<unsigned char>((static_cast<std::size_t>(msg) * 2654435761u +
                                       i * 40503u) >> 7);
  };
  ClusterConfig cfg;
  cfg.nranks = 2;
  cfg.profile.eager_threshold = kBytes;
  if (!GetParam().empty()) cfg.profile.faults = FaultSpec::parse(GetParam());
  cfg.deadline = sim::Time::from_sec(600);
  Cluster c(cfg);
  const PayloadPool& pool = c.network().payloads();
  std::size_t bad_bytes = 0, max_free = 0, max_parked = 0;
  c.run([&](RankCtx& rc) {
    if (rc.rank() == 1) {
      std::vector<unsigned char> buf(kBytes);
      for (int m = 0; m < kRounds * kPerRound; ++m) {
        for (std::size_t i = 0; i < kBytes; ++i) buf[i] = stamp(m, i);
        rc.send(buf.data(), kBytes, Datatype::kByte, 0, m, kCommWorld);
        max_free = std::max(max_free, pool.free_bytes());
        if (m % kPerRound == kPerRound - 1) compute(sim::Time::from_us(200));
      }
    } else {
      // Post late: each round's receives go up only once two rounds (or
      // what is left) sit in the unexpected queue, while the sender goes on
      // sending. Each round is received in reverse tag order.
      std::vector<std::vector<unsigned char>> bufs(
          kPerRound, std::vector<unsigned char>(kBytes));
      for (int r = 0; r < kRounds; ++r) {
        const auto parked =
            static_cast<std::size_t>(std::min(2, kRounds - r) * kPerRound);
        while (rc.matching().unexpected_count() < parked) {
          compute(sim::Time::from_us(20));
          rc.progress();
        }
        max_parked = std::max(max_parked, rc.matching().unexpected_count());
        std::vector<Request> reqs;
        for (int k = kPerRound - 1; k >= 0; --k) {
          reqs.push_back(rc.irecv(bufs[static_cast<std::size_t>(k)].data(),
                                  kBytes, Datatype::kByte, 1,
                                  r * kPerRound + k, kCommWorld));
        }
        rc.waitall(reqs);
        for (int k = 0; k < kPerRound; ++k) {
          const auto& b = bufs[static_cast<std::size_t>(k)];
          for (std::size_t i = 0; i < kBytes; ++i) {
            bad_bytes += b[i] != stamp(r * kPerRound + k, i);
          }
        }
        max_free = std::max(max_free, pool.free_bytes());
      }
    }
    rc.barrier(kCommWorld);
  });
  EXPECT_EQ(bad_bytes, 0u);
  EXPECT_GE(max_parked, static_cast<std::size_t>(2 * kPerRound));
  EXPECT_LE(max_free, PayloadPool::kMaxFreeBytes);
  // Far more than the bound's worth of buffers came back at once: the list
  // filled to its bound and freed the rest.
  EXPECT_EQ(pool.free_bytes(), PayloadPool::kMaxFreeBytes);
  if (const machine::FaultPlan* fp = c.network().faults()) {
    EXPECT_GT(fp->stats().duplicated, 0u);
    EXPECT_GT(c.rank(1).rel_stats().retransmits, 0u);
  }
}

// A std::string parameter: gtest names each instance after its printed
// value. The empty spec is the clean wire.
INSTANTIATE_TEST_SUITE_P(Wires, PayloadRecycling,
                         ::testing::Values(std::string(),
                                           std::string("drop=0.03,dup=0.05,"
                                                       "reorder=0.1,seed=7")));

// ------------------------------------------------------------- watchdog ----

TEST(OffloadWatchdog, FlagsRequestsStuckBeyondBudget) {
  ClusterConfig cfg;
  cfg.nranks = 2;
  cfg.deadline = sim::Time::from_sec(30);
  Cluster c(cfg);
  std::uint64_t flags = 0;
  c.run([&](RankCtx& rc) {
    core::ProxyOptions opts = core::ProxyOptions::from_env(rc.profile());
    opts.watchdog_budget = sim::Time::from_ms(1);
    core::OffloadProxy p(rc, opts);
    p.start_engine();
    if (rc.rank() == 0) {
      int got = -1;
      PReq r = p.irecv(&got, 1, Datatype::kInt, 1, 0);
      p.wait(r);
      EXPECT_EQ(got, 7);
      flags = p.channel().stats().watchdog_flags;
    } else {
      compute(sim::Time::from_ms(5));  // 5x the budget before sending
      const int v = 7;
      p.send(&v, 1, Datatype::kInt, 0, 0);
    }
    p.barrier();
    p.stop();
  });
  EXPECT_GE(flags, 1u);
}

TEST(OffloadWatchdog, ZeroBudgetDisables) {
  ClusterConfig cfg;
  cfg.nranks = 2;
  cfg.deadline = sim::Time::from_sec(30);
  Cluster c(cfg);
  c.run([&](RankCtx& rc) {
    core::ProxyOptions opts = core::ProxyOptions::from_env(rc.profile());
    opts.watchdog_budget = sim::Time::zero();
    core::OffloadProxy p(rc, opts);
    p.start_engine();
    if (rc.rank() == 0) {
      int got = -1;
      PReq r = p.irecv(&got, 1, Datatype::kInt, 1, 0);
      p.wait(r);
      EXPECT_EQ(p.channel().stats().watchdog_flags, 0u);
    } else {
      compute(sim::Time::from_ms(5));
      const int v = 1;
      p.send(&v, 1, Datatype::kInt, 0, 0);
    }
    p.barrier();
    p.stop();
  });
}
