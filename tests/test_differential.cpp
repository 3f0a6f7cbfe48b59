// Differential conformance: one seeded random workload mixing point-to-point
// traffic, collectives, every completion surface (wait/waitall/waitany/
// testall) and restarted persistent requests, executed under all four proxy
// approaches. The payloads each rank receives must be identical — bit for
// bit — no matter which approach carried them, and every approach must drain
// its request bookkeeping at teardown.
// A faulted variant (drops, duplicates, corruption, reordering) must still
// deliver the same bytes through the reliability sublayer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <span>
#include <vector>

#include "core/proxy.hpp"
#include "machine/fault.hpp"
#include "mpi/cluster.hpp"

using core::Approach;
using core::PReq;

namespace {

constexpr int kRanks = 6;  // even (pairwise step) and not a power of two
constexpr int kSteps = 28;
constexpr int kPersistGens = 3;  // generations of the persistent phase
constexpr int kPersistTag = 100;  // clear of the scripted steps' tags

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Deterministic sender payload: a function of (seed, sender, step, offset)
/// only, so every approach produces — and every receiver digests — the same
/// bytes.
std::uint8_t payload(std::uint64_t seed, int sender, int step, std::size_t i) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(sender) << 32) ^
                    (static_cast<std::uint64_t>(step) << 16) ^ i;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return static_cast<std::uint8_t>(x);
}

struct RunOut {
  std::vector<std::uint64_t> digests;  ///< per-rank payload digest
};

/// Run the scripted workload under `a` and return per-rank digests. The op
/// schedule is drawn from a PRNG seeded identically on every rank (so all
/// ranks agree on what to do each step); payload contents are functions of
/// the sending rank. Drained-pool invariants are asserted inline.
RunOut run_workload(Approach a, std::uint64_t seed, const char* fault_spec) {
  smpi::ClusterConfig cc;
  cc.nranks = kRanks;
  cc.thread_level = core::required_thread_level(a);
  cc.deadline = sim::Time::from_sec(600);
  if (fault_spec != nullptr) {
    cc.profile.faults = machine::FaultSpec::parse(fault_spec);
  }
  smpi::Cluster c(cc);
  RunOut out;
  out.digests.assign(kRanks, 0);
  c.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank();
    const int np = kRanks;
    std::uint64_t digest = 14695981039346656037ull;
    std::mt19937_64 script(seed);  // same stream on every rank
    for (int step = 0; step < kSteps; ++step) {
      // Draw the whole step up front so every rank consumes the same count.
      const auto sel = script() % 6;
      const auto szdraw = script();
      const auto rootdraw = script();
      p->progress_hint();
      switch (sel) {
        case 0:
        case 1: {  // ring shift; completion via waitall (0) or waitany (1)
          const std::size_t bytes = 1 + szdraw % 6000;
          const int tag = static_cast<int>(rootdraw % 100);
          const int right = (me + 1) % np;
          const int left = (me + np - 1) % np;
          std::vector<std::uint8_t> sb(bytes), rb(bytes, 0);
          for (std::size_t i = 0; i < bytes; ++i) {
            sb[i] = payload(seed, me, step, i);
          }
          PReq reqs[2];
          reqs[0] = p->irecv(rb.data(), bytes, smpi::Datatype::kByte, left, tag);
          reqs[1] = p->isend(sb.data(), bytes, smpi::Datatype::kByte, right, tag);
          if (sel == 0) {
            p->waitall(std::span<PReq>(reqs, 2));
          } else {
            while (p->waitany(std::span<PReq>(reqs, 2)) != -1) {
            }
          }
          for (std::size_t i = 0; i < bytes; ++i) {
            ASSERT_EQ(rb[i], payload(seed, left, step, i))
                << "step " << step << " byte " << i;
          }
          digest = fnv1a(rb.data(), bytes, digest);
          break;
        }
        case 2: {  // allreduce sum over ints
          const std::size_t count = 1 + szdraw % 4096;
          std::vector<int> in(count), res(count, -1);
          for (std::size_t i = 0; i < count; ++i) {
            in[i] = (me + 1) * static_cast<int>(i % 977 + 1);
          }
          p->allreduce(in.data(), res.data(), count, smpi::Datatype::kInt,
                       smpi::Op::kSum);
          digest = fnv1a(res.data(), count * sizeof(int), digest);
          break;
        }
        case 3: {  // bcast from a scripted root
          const std::size_t bytes = 1 + szdraw % 8192;
          const int root = static_cast<int>(rootdraw % np);
          std::vector<std::uint8_t> buf(bytes, 0);
          if (me == root) {
            for (std::size_t i = 0; i < bytes; ++i) {
              buf[i] = payload(seed, root, step, i);
            }
          }
          p->bcast(buf.data(), bytes, smpi::Datatype::kByte, root);
          digest = fnv1a(buf.data(), bytes, digest);
          break;
        }
        case 4: {  // allgather
          const std::size_t per = 1 + szdraw % 2048;
          std::vector<std::uint8_t> in(per);
          std::vector<std::uint8_t> all(per * static_cast<std::size_t>(np), 0);
          for (std::size_t i = 0; i < per; ++i) {
            in[i] = payload(seed, me, step, i);
          }
          p->allgather(in.data(), all.data(), per, smpi::Datatype::kByte);
          digest = fnv1a(all.data(), all.size(), digest);
          break;
        }
        case 5: {  // neighbor exchange polled to completion with testall
          const std::size_t bytes = 1 + szdraw % 3000;
          const int peer = me ^ 1;
          std::vector<std::uint8_t> sb(bytes), rb(bytes, 0);
          for (std::size_t i = 0; i < bytes; ++i) {
            sb[i] = payload(seed, me, step, i);
          }
          PReq reqs[2];
          reqs[0] = p->irecv(rb.data(), bytes, smpi::Datatype::kByte, peer, 7);
          reqs[1] = p->isend(sb.data(), bytes, smpi::Datatype::kByte, peer, 7);
          while (!p->testall(std::span<PReq>(reqs, 2))) {
            smpi::compute(sim::Time::from_ns(200));  // overlap, then re-poll
          }
          for (std::size_t i = 0; i < bytes; ++i) {
            ASSERT_EQ(rb[i], payload(seed, peer, step, i))
                << "step " << step << " byte " << i;
          }
          digest = fnv1a(rb.data(), bytes, digest);
          break;
        }
        default:
          break;
      }
    }
    {
      // Persistent phase, after the scripted steps so their schedule stays
      // as it is: one recv_init/send_init ring pair restarted for
      // kPersistGens generations, each with fresh payload bytes.
      const std::size_t bytes = 1 + script() % 6000;
      const int right = (me + 1) % np;
      const int left = (me + np - 1) % np;
      std::vector<std::uint8_t> sb(bytes), rb(bytes, 0);
      core::PersistentReq rr = p->recv_init(
          rb.data(), bytes, smpi::Datatype::kByte, left, kPersistTag);
      core::PersistentReq sr = p->send_init(
          sb.data(), bytes, smpi::Datatype::kByte, right, kPersistTag);
      for (int g = 0; g < kPersistGens; ++g) {
        for (std::size_t i = 0; i < bytes; ++i) {
          sb[i] = payload(seed, me, kSteps + g, i);
        }
        p->start(rr);
        p->start(sr);
        p->wait(rr);
        p->wait(sr);
        for (std::size_t i = 0; i < bytes; ++i) {
          ASSERT_EQ(rb[i], payload(seed, left, kSteps + g, i))
              << "generation " << g << " byte " << i;
        }
        digest = fnv1a(rb.data(), bytes, digest);
      }
      p->request_free(rr);
      p->request_free(sr);
    }
    p->barrier();
    // Nothing may still be parked in the proxy's own bookkeeping...
    EXPECT_EQ(p->inflight(), 0u) << "rank " << me;
    p->stop();
    // ...nor in the rank's request table once helper threads are joined.
    EXPECT_EQ(rc.requests().active_count(), 0u) << "rank " << me;
    out.digests[static_cast<std::size_t>(me)] = digest;
  });
  return out;
}

}  // namespace

TEST(Differential, FourApproachesProduceIdenticalPayloads) {
  const RunOut ref = run_workload(Approach::kBaseline, 42, nullptr);
  // A workload that digested nothing would make the comparison vacuous.
  for (const std::uint64_t d : ref.digests) {
    EXPECT_NE(d, 14695981039346656037ull);
  }
  for (const Approach a :
       {Approach::kIprobe, Approach::kCommSelf, Approach::kOffload}) {
    const RunOut got = run_workload(a, 42, nullptr);
    EXPECT_EQ(got.digests, ref.digests) << core::approach_name(a);
  }
}

TEST(Differential, SecondSeedAlsoAgrees) {
  const RunOut ref = run_workload(Approach::kBaseline, 7, nullptr);
  const RunOut got = run_workload(Approach::kOffload, 7, nullptr);
  EXPECT_EQ(got.digests, ref.digests);
}

TEST(Differential, ProxyCountSweepIsBitIdentical) {
  // The engine-shard count is a pure performance knob: 1, 2, and 4 engines
  // (stealing is on wherever there are two or more) must deliver
  // bit-identical payloads — clean AND through a faulted fabric — and drain
  // all bookkeeping, or the partition/steal protocol has observably
  // reordered per-peer traffic.
  static const char* kFaults =
      "drop=0.03,dup=0.02,corrupt=0.005,delay=0.08:20us,reorder=0.03,seed=11";
  const RunOut ref = run_workload(Approach::kBaseline, 42, nullptr);
  for (const char* spec : {"proxies:1", "proxies:2", "proxies:4"}) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test
    setenv("MPIOFF_PROXY", spec, 1);
    const RunOut clean = run_workload(Approach::kOffload, 42, nullptr);
    EXPECT_EQ(clean.digests, ref.digests) << spec << " (clean)";
    const RunOut faulted = run_workload(Approach::kOffload, 42, kFaults);
    EXPECT_EQ(faulted.digests, ref.digests) << spec << " (faulted)";
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    unsetenv("MPIOFF_PROXY");
  }
}

TEST(Differential, FaultedFabricDeliversTheSameBytes) {
  // Reliability sublayer must make loss, duplication, corruption, and
  // reordering invisible: digests match a clean run bit for bit.
  static const char* kFaults =
      "drop=0.03,dup=0.02,corrupt=0.005,delay=0.08:20us,reorder=0.03,seed=11";
  const RunOut ref = run_workload(Approach::kBaseline, 42, nullptr);
  for (const Approach a : {Approach::kBaseline, Approach::kOffload}) {
    const RunOut got = run_workload(a, 42, kFaults);
    EXPECT_EQ(got.digests, ref.digests) << core::approach_name(a);
  }
}
