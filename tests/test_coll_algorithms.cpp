// Conformance suite for the segmented collective algorithm layer:
//   * CollTuner selection, the forced-allreduce fallback and segmentation;
//   * a property sweep asserting every algorithm x op x rank count x payload
//     size (eager through rendezvous, segment-aligned and not) produces
//     results bitwise-equal to a serial reference fold;
//   * stats invariants — the recorded algorithm is the one that ran, illegal
//     forced choices never appear in the counters, segmentation really chunks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/coll_tuner.hpp"

using namespace smpi;

namespace {

ClusterConfig cfg(int n, std::optional<CollAlgo> allreduce = std::nullopt) {
  ClusterConfig c;
  c.nranks = n;
  c.deadline = sim::Time::from_sec(120);
  c.allreduce_algo = allreduce;
  return c;
}

/// Deterministic per-rank payload byte.
std::uint8_t pat(int rank, std::size_t i) {
  return static_cast<std::uint8_t>(rank * 131 + i * 7 + 13);
}

}  // namespace

// ========================================================================
// CollTuner unit tests: defaults, legality fallback, segmentation.
// ========================================================================

TEST(CollTuner, DefaultsPickBySizeAndRanks) {
  const CollTuner t(machine::xeon_fdr());
  EXPECT_EQ(t.choose(CollectiveId::kBarrier, 0, 8), CollAlgo::kDissemination);
  EXPECT_EQ(t.choose(CollectiveId::kBcast, 1 << 20, 8), CollAlgo::kBinomial);
  EXPECT_EQ(t.choose(CollectiveId::kReduce, 1 << 20, 8), CollAlgo::kBinomial);
  EXPECT_EQ(t.choose(CollectiveId::kAllgather, 1 << 20, 8), CollAlgo::kPostAll);
  // Allreduce: the ring from 128 KiB, recursive doubling below it on a
  // power-of-two communicator, reduce-bcast otherwise and on one rank.
  EXPECT_EQ(t.choose(CollectiveId::kAllreduce, 128 * 1024, 8), CollAlgo::kRing);
  EXPECT_EQ(t.choose(CollectiveId::kAllreduce, 128 * 1024, 6), CollAlgo::kRing);
  EXPECT_EQ(t.choose(CollectiveId::kAllreduce, 96 * 1024, 8),
            CollAlgo::kRecursiveDoubling);
  EXPECT_EQ(t.choose(CollectiveId::kAllreduce, 96 * 1024, 6),
            CollAlgo::kReduceBcast);
  EXPECT_EQ(t.choose(CollectiveId::kAllreduce, 1 << 20, 1),
            CollAlgo::kReduceBcast);
  // Alltoall splits at the profile's eager threshold (one block's bytes).
  const std::size_t eager = machine::xeon_fdr().eager_threshold;
  EXPECT_EQ(t.choose(CollectiveId::kAlltoall, eager, 8), CollAlgo::kPostAll);
  EXPECT_EQ(t.choose(CollectiveId::kAlltoall, eager + 1, 8),
            CollAlgo::kPairwise);
}

TEST(CollTuner, IllegalForcedChoiceFallsBackLegally) {
  const CollTuner defaults(machine::xeon_fdr());
  // Recursive doubling needs a power-of-two communicator.
  const CollTuner rd(machine::xeon_fdr(), CollAlgo::kRecursiveDoubling);
  EXPECT_EQ(rd.choose(CollectiveId::kAllreduce, 4096, 8),
            CollAlgo::kRecursiveDoubling);
  EXPECT_EQ(rd.choose(CollectiveId::kAllreduce, 1 << 20, 8),
            CollAlgo::kRecursiveDoubling);
  EXPECT_EQ(rd.choose(CollectiveId::kAllreduce, 4096, 6),
            defaults.choose(CollectiveId::kAllreduce, 4096, 6));
  // A schedule that is not an allreduce is never legal; defaults apply
  // untouched.
  const CollTuner postall(machine::xeon_fdr(), CollAlgo::kPostAll);
  EXPECT_EQ(postall.choose(CollectiveId::kAllreduce, 4096, 8),
            defaults.choose(CollectiveId::kAllreduce, 4096, 8));
  // The override touches allreduce only.
  const CollTuner ring(machine::xeon_fdr(), CollAlgo::kRing);
  EXPECT_EQ(ring.choose(CollectiveId::kAllreduce, 8, 3), CollAlgo::kRing);
  EXPECT_EQ(ring.choose(CollectiveId::kAlltoall, 8, 3), CollAlgo::kPostAll);
  EXPECT_EQ(ring.choose(CollectiveId::kAllgather, 1 << 20, 3),
            CollAlgo::kPostAll);
}

TEST(CollTuner, ChainsForClampsToMax) {
  constexpr std::size_t kSeg = CollTuner::kSegBytes;
  static_assert(kSeg == 64 * 1024 && CollTuner::kMaxChains == 8);
  EXPECT_EQ(CollTuner::chains_for(512), 1);
  EXPECT_EQ(CollTuner::chains_for(kSeg), 1);
  EXPECT_EQ(CollTuner::chains_for(kSeg + 1), 2);
  EXPECT_EQ(CollTuner::chains_for(3 * kSeg), 3);
  // Clamped: the segment grows instead of the chain count.
  EXPECT_EQ(CollTuner::chains_for(std::size_t{1} << 20), CollTuner::kMaxChains);
}

// ========================================================================
// Property sweep: every algorithm, bitwise against a serial reference.
// ========================================================================

class CollAlgoRanks : public ::testing::TestWithParam<int> {};

namespace {

/// Byte payload sizes: eager through rendezvous, segment-aligned and not.
/// Over 64 KiB segments the ring splits 65537 B into 2 chains, 256 KiB into
/// 4 even ones, 300001 B into 5 uneven ones, and clamps 1 MiB to 8.
constexpr std::size_t kSizes[] = {1,      3,      64,     1000,
                                  4096,   4097,   65536,  65537,
                                  262144, 300001, 1048576};

/// Serial reference: byte i folded over the contributions of ranks [0, upto).
std::vector<std::uint8_t> fold_bytes(Op op, std::size_t bytes, int upto) {
  std::vector<std::uint8_t> want(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    std::uint8_t acc = pat(0, i);
    for (int r = 1; r < upto; ++r) {
      const std::uint8_t v = pat(r, i);
      acc = op == Op::kSum ? static_cast<std::uint8_t>(acc + v)
                           : std::max(acc, v);
    }
    want[i] = acc;
  }
  return want;
}

/// This rank's contribution; `in_place` also makes it the result buffer
/// (sbuf == rbuf), otherwise the result buffer starts as garbage.
std::vector<std::uint8_t> contribution(std::size_t bytes, bool in_place,
                                       std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> in(bytes);
  for (std::size_t i = 0; i < bytes; ++i) in[i] = pat(rank(), i);
  out = in_place ? in : std::vector<std::uint8_t>(bytes, 0xEE);
  return in;
}

/// Run `bytes`-sized byte-wise allreduce on an existing cluster fiber and
/// compare against the serial fold.
void check_allreduce_bytes(Op op, std::size_t bytes, bool in_place) {
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> in = contribution(bytes, in_place, out);
  allreduce(in_place ? out.data() : in.data(), out.data(), bytes,
            Datatype::kByte, op);
  const std::vector<std::uint8_t> want = fold_bytes(op, bytes, size());
  ASSERT_EQ(std::memcmp(out.data(), want.data(), bytes), 0)
      << "allreduce mismatch: op=" << (op == Op::kSum ? "sum" : "max")
      << " bytes=" << bytes << " ranks=" << size()
      << " in_place=" << in_place;
}

/// The same for reduce to `root`, where the result is checked; in place
/// means sbuf == rbuf at the root.
void check_reduce_bytes(Op op, std::size_t bytes, int root, bool in_place) {
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> in = contribution(bytes, in_place, out);
  const bool root_in_place = in_place && rank() == root;
  reduce(root_in_place ? out.data() : in.data(), out.data(), bytes,
         Datatype::kByte, op, root);
  if (rank() != root) return;
  const std::vector<std::uint8_t> want = fold_bytes(op, bytes, size());
  ASSERT_EQ(std::memcmp(out.data(), want.data(), bytes), 0)
      << "reduce mismatch: root=" << root << " bytes=" << bytes
      << " ranks=" << size() << " in_place=" << in_place;
}

}  // namespace

TEST_P(CollAlgoRanks, AllreduceEveryAlgorithmBitwise) {
  // The default picks by size; each override forces one schedule at every
  // size, so even mid-sized payloads run the ring's multi-chain split.
  // Recursive doubling off a power-of-two communicator must fall back and
  // still be exact.
  const std::optional<CollAlgo> kOverrides[] = {
      std::nullopt,  // size-dependent selection
      CollAlgo::kRing,
      CollAlgo::kRecursiveDoubling,
      CollAlgo::kReduceBcast,
  };
  for (const std::optional<CollAlgo> algo : kOverrides) {
    Cluster c(cfg(GetParam(), algo));
    c.run([&](RankCtx&) {
      for (const std::size_t bytes : kSizes) {
        for (const bool in_place : {false, true}) {
          check_allreduce_bytes(Op::kSum, bytes, in_place);
          check_allreduce_bytes(Op::kMax, bytes, in_place);
        }
      }
    });
  }
}

TEST_P(CollAlgoRanks, ReduceAndScanInPlaceAndOutOfPlaceBitwise) {
  // Reduce only, at roots 0 and p-1, in place and out of place: the
  // schedule accumulates in the root's result buffer, so sbuf == rbuf must
  // still give the reference.
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    for (const std::size_t bytes : {std::size_t{1}, std::size_t{1000},
                                    std::size_t{4097}, std::size_t{65537},
                                    std::size_t{262144}}) {
      for (const int root : {0, size() - 1}) {
        for (const bool in_place : {false, true}) {
          check_reduce_bytes(Op::kSum, bytes, root, in_place);
          check_reduce_bytes(Op::kMax, bytes, root, in_place);
        }
      }
    }
  });
}

TEST_P(CollAlgoRanks, BcastBinomialBitwise) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    const int p = size();
    for (const std::size_t bytes : kSizes) {
      for (int root = 0; root < p; root += (p > 2 ? p - 1 : 1)) {
        std::vector<std::uint8_t> buf(bytes);
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = rank() == root ? pat(root, i) : 0xCD;
        }
        bcast(buf.data(), bytes, Datatype::kByte, root);
        for (std::size_t i = 0; i < bytes; ++i) {
          ASSERT_EQ(buf[i], pat(root, i))
              << "bcast mismatch: bytes=" << bytes << " root=" << root
              << " i=" << i;
        }
      }
    }
  });
}

TEST_P(CollAlgoRanks, AllgatherPostAllBitwise) {
  Cluster c(cfg(GetParam()));
  c.run([&](RankCtx&) {
    const int p = size();
    for (const std::size_t per : {std::size_t{1}, std::size_t{1000},
                                  std::size_t{4097}, std::size_t{65536}}) {
      std::vector<std::uint8_t> in(per), out(per * static_cast<std::size_t>(p));
      for (std::size_t i = 0; i < per; ++i) in[i] = pat(rank(), i);
      allgather(in.data(), out.data(), per, Datatype::kByte);
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < per; ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(r) * per + i], pat(r, i))
              << "allgather mismatch: per=" << per << " src=" << r;
        }
      }
    }
  });
}

TEST_P(CollAlgoRanks, AlltoallPostAllAndPairwiseBitwise) {
  // The default profile runs every block size post-all; lowering the eager
  // threshold below the two larger blocks makes them pairwise (and
  // rendezvous) while the 1-byte block stays post-all.
  constexpr std::size_t kBlocks[] = {1, 4097, 65536};
  for (const std::size_t eager : {machine::xeon_fdr().eager_threshold,
                                  std::size_t{1024}}) {
    ClusterConfig cc = cfg(GetParam());
    cc.profile.eager_threshold = eager;
    Cluster c(cc);
    c.run([&](RankCtx&) {
      const int p = size();
      for (const std::size_t blk : kBlocks) {
        const auto cell = [&](int src, int dst, std::size_t i) {
          return static_cast<std::uint8_t>(src * 89 + dst * 57 + i * 3 + 5);
        };
        std::vector<std::uint8_t> sb(blk * static_cast<std::size_t>(p));
        std::vector<std::uint8_t> rb(blk * static_cast<std::size_t>(p), 0xAB);
        for (int d = 0; d < p; ++d) {
          for (std::size_t i = 0; i < blk; ++i) {
            sb[static_cast<std::size_t>(d) * blk + i] = cell(rank(), d, i);
          }
        }
        alltoall(sb.data(), rb.data(), blk, Datatype::kByte);
        for (int s = 0; s < p; ++s) {
          for (std::size_t i = 0; i < blk; ++i) {
            ASSERT_EQ(rb[static_cast<std::size_t>(s) * blk + i],
                      cell(s, rank(), i))
                << "alltoall mismatch: blk=" << blk << " src=" << s
                << " eager=" << eager;
          }
        }
      }
    });
    std::uint64_t pairwise = 0;
    for (const std::size_t blk : kBlocks) pairwise += blk > eager ? 1 : 0;
    const CollStats& cs = c.rank(0).coll_stats();
    EXPECT_EQ(cs.count(CollectiveId::kAlltoall, CollAlgo::kPairwise), pairwise)
        << "eager=" << eager;
    EXPECT_EQ(cs.count(CollectiveId::kAlltoall, CollAlgo::kPostAll),
              std::size(kBlocks) - pairwise)
        << "eager=" << eager;
  }
}

TEST_P(CollAlgoRanks, ForcedAlgorithmIsRecordedInStats) {
  constexpr int kReps = 3;
  {
    Cluster c(cfg(GetParam(), CollAlgo::kRing));
    constexpr std::size_t kBytes = 256 * 1024;
    c.run([&](RankCtx&) {
      std::vector<std::uint8_t> in(kBytes, 1), out(kBytes);
      for (int i = 0; i < kReps; ++i) {
        allreduce(in.data(), out.data(), kBytes, Datatype::kByte, Op::kSum);
      }
    });
    // Segmented schedules must actually chunk: 256 KiB over 64 KiB segments
    // is 4 chains of 2(p-1) ring stages each.
    const auto stages =
        static_cast<std::uint64_t>(kReps * 4 * 2 * (c.nranks() - 1));
    for (int r = 0; r < c.nranks(); ++r) {
      const CollStats& cs = c.rank(r).coll_stats();
      EXPECT_EQ(cs.count(CollectiveId::kAllreduce, CollAlgo::kRing),
                static_cast<std::uint64_t>(kReps))
          << "rank " << r;
      EXPECT_EQ(cs.count(CollectiveId::kAllreduce, CollAlgo::kUnknown), 0u);
      EXPECT_EQ(cs.chunks, stages) << "rank " << r;
    }
  }
  // A forced recursive doubling off a power-of-two communicator records the
  // fallback that ran, never the forced choice.
  Cluster c(cfg(GetParam(), CollAlgo::kRecursiveDoubling));
  c.run([&](RankCtx&) {
    std::vector<std::uint8_t> in(4096, 1), out(4096);
    for (int i = 0; i < kReps; ++i) {
      allreduce(in.data(), out.data(), in.size(), Datatype::kByte, Op::kSum);
    }
  });
  const int p = c.nranks();
  const bool pow2 = (p & (p - 1)) == 0;
  const CollStats& cs = c.rank(0).coll_stats();
  EXPECT_EQ(cs.count(CollectiveId::kAllreduce, CollAlgo::kRecursiveDoubling),
            pow2 ? static_cast<std::uint64_t>(kReps) : 0u);
  EXPECT_EQ(cs.count(CollectiveId::kAllreduce, CollAlgo::kReduceBcast),
            pow2 ? 0u : static_cast<std::uint64_t>(kReps));
}

// ========================================================================
// Aliasing rule: a reduction's sbuf and rbuf are the same buffer or disjoint.
// ========================================================================

namespace {

/// Run `fn` expecting std::invalid_argument whose message names `call`.
template <typename Fn>
void expect_overlap_rejected(const char* call, Fn fn) {
  try {
    fn();
    ADD_FAILURE() << call << ": partial overlap was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(call), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(ReduceAliasing, PartialOverlapThrowsBeforeAnythingIsPosted) {
  for (const core::Approach a :
       {core::Approach::kBaseline, core::Approach::kIprobe,
        core::Approach::kCommSelf, core::Approach::kOffload}) {
    SCOPED_TRACE(core::approach_name(a));
    ClusterConfig c3 = cfg(3);
    c3.thread_level = core::required_thread_level(a);
    Cluster c(c3);
    c.run([&](RankCtx& rc) {
      auto p = core::make_proxy(a, rc);
      p->start_engine();
      std::vector<long> buf(16, rank() + 1);
      long* lo = buf.data();
      expect_overlap_rejected("iallreduce", [&] {
        (void)p->iallreduce(lo, lo + 1, 8, Datatype::kLong, Op::kSum);
      });
      expect_overlap_rejected("iallreduce", [&] {
        p->allreduce(lo + 4, lo, 8, Datatype::kLong, Op::kSum);
      });
      if (rank() == 1) {
        expect_overlap_rejected("ireduce", [&] {
          (void)p->ireduce(lo, lo + 7, 8, Datatype::kLong, Op::kSum, 1);
        });
      }
      // The library itself rejects it too, before entering MPI.
      expect_overlap_rejected("Iallreduce", [&] {
        (void)rc.iallreduce(lo, lo + 2, 8, Datatype::kLong, Op::kSum,
                            kCommWorld);
      });
      // Nothing was posted: the next collectives pair up and are exact.
      // rbuf counts at the root only, so the non-roots' overlapping rbuf is
      // legal; in place and disjoint are legal everywhere.
      std::vector<long> sum(8, 0), root_sum(8, 0);
      p->reduce(lo, rank() == 1 ? root_sum.data() : lo + 7, 8,
                Datatype::kLong, Op::kSum, 1);
      p->allreduce(lo + 8, sum.data(), 8, Datatype::kLong, Op::kSum);
      p->allreduce(lo + 8, lo + 8, 8, Datatype::kLong, Op::kSum);
      for (int i = 0; i < 8; ++i) {
        if (rank() == 1) {
          EXPECT_EQ(root_sum[static_cast<std::size_t>(i)], 6);
        }
        EXPECT_EQ(sum[static_cast<std::size_t>(i)], 6);
        EXPECT_EQ(buf[static_cast<std::size_t>(8 + i)], 6);
      }
      EXPECT_EQ(p->inflight(), 0u);
      p->stop();
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollAlgoRanks,
                         ::testing::Values(2, 3, 4, 5, 7, 8));
