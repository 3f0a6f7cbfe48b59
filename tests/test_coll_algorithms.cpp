// Conformance suite for the segmented collective algorithm layer:
//   * CollTuner parsing (MPIOFF_COLL grammar) and selection/fallback rules;
//   * a property sweep asserting every algorithm x op x rank count x payload
//     size (eager through rendezvous, chunk-aligned and not) produces results
//     bitwise-equal to a serial reference fold;
//   * stats invariants — the recorded algorithm is the one that ran, illegal
//     forced choices never appear in the counters, segmentation really chunks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/coll_tuner.hpp"

using namespace smpi;

namespace {

ClusterConfig cfg(int n, std::string coll_spec = {}) {
  ClusterConfig c;
  c.nranks = n;
  c.deadline = sim::Time::from_sec(120);
  c.coll_spec = std::move(coll_spec);
  return c;
}

CollTuner base_tuner() { return CollTuner::defaults_for(machine::xeon_fdr()); }

/// Deterministic per-rank payload byte.
std::uint8_t pat(int rank, std::size_t i) {
  return static_cast<std::uint8_t>(rank * 131 + i * 7 + 13);
}

}  // namespace

// ========================================================================
// CollTuner unit tests: grammar, thresholds, legality fallback.
// ========================================================================

TEST(CollTuner, ParseRejectsMalformedSpecs) {
  const CollTuner base = base_tuner();
  EXPECT_THROW(CollTuner::parse("nonsense", base), std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("allreduce:warp-shuffle", base),
               std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("gossip:ring", base), std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("allreduce:ring@12q", base),
               std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("seg:", base), std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("chains:0", base), std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("chains:65", base), std::invalid_argument);
  // Errors must name the valid vocabulary so a typo'd env var is fixable.
  try {
    CollTuner::parse("allreduce:warp-shuffle", base);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ring"), std::string::npos);
  }
  // No collective is named "fence": MPIOFF_COLL tunes only what the
  // library schedules.
  try {
    CollTuner::parse("fence:dissemination", base);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fence"), std::string::npos) << msg;
    EXPECT_NE(msg.find("barrier|bcast|reduce|allreduce"), std::string::npos)
        << msg;
  }
  // Nor gather, scatter or scan, and reduce has no linear schedule.
  for (const char* spec :
       {"scan:hillis-steele", "gather:linear", "scatter:linear"}) {
    try {
      CollTuner::parse(spec, base);
      ADD_FAILURE() << spec << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      const std::string key(spec, std::string(spec).find(':'));
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
      EXPECT_NE(
          msg.find("barrier|bcast|reduce|allreduce|alltoall|allgather "),
          std::string::npos)
          << msg;
    }
  }
  try {
    CollTuner::parse("reduce:linear", base);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown algorithm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("binomial, dissemination, rdbl"), std::string::npos)
        << msg;
  }
}

TEST(CollTuner, ParseScalarKnobsAndSuffixes) {
  CollTuner t = CollTuner::parse("seg:4k,chains:8", base_tuner());
  EXPECT_EQ(t.seg_bytes(), 4096u);
  EXPECT_EQ(t.max_chains(), 8);
  t = CollTuner::parse("seg:1m", base_tuner());
  EXPECT_EQ(t.seg_bytes(), 1024u * 1024u);
  // Empty items are tolerated (trailing comma), zero seg clamps to one byte.
  t = CollTuner::parse("seg:0,", base_tuner());
  EXPECT_EQ(t.seg_bytes(), 1u);
}

TEST(CollTuner, ParseRejectsDuplicateScalarKnobs) {
  // Algo rules stack by threshold (ThresholdStackingLargestWins), but the
  // scalar knobs are single-valued — a repeat is a typo, and the message
  // must say which key and teach the grammar.
  const CollTuner base = base_tuner();
  try {
    CollTuner::parse("seg:4k,chains:8,seg:8k", base);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'seg'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("chains"), std::string::npos) << msg;
  }
  EXPECT_THROW(CollTuner::parse("chains:4,chains:4", base),
               std::invalid_argument);
  // Stacked algo rules for the same collective stay legal alongside the
  // duplicate-knob check.
  EXPECT_NO_THROW(
      CollTuner::parse("seg:4k,allreduce:rdbl@0,allreduce:ring@64k", base));
}

TEST(CollTuner, ParseRejectsTruncatedItems) {
  const CollTuner base = base_tuner();
  // A key with no value, a rule with no algorithm, a threshold cut mid-way:
  // each names the offending item so the env var is fixable.
  EXPECT_THROW(CollTuner::parse("chains:", base), std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("allreduce:", base), std::invalid_argument);
  EXPECT_THROW(CollTuner::parse("allreduce:ring@", base),
               std::invalid_argument);
  try {
    CollTuner::parse("allreduce:ring@", base);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("allreduce:ring@"),
              std::string::npos);
  }
}

TEST(CollTuner, ThresholdStackingLargestWins) {
  const CollTuner t = CollTuner::parse("allreduce:rdbl@0,allreduce:ring@64k",
                                       base_tuner());
  EXPECT_EQ(t.choose(CollectiveId::kAllreduce, 1024, 256, 8),
            CollAlgo::kRecursiveDoubling);
  EXPECT_EQ(t.choose(CollectiveId::kAllreduce, 128 * 1024, 32 * 1024, 8),
            CollAlgo::kRing);
}

TEST(CollTuner, IllegalForcedChoiceFallsBackLegally) {
  // Recursive doubling needs a power-of-two communicator.
  const CollTuner rd = CollTuner::parse("allreduce:rdbl@0", base_tuner());
  EXPECT_EQ(rd.choose(CollectiveId::kAllreduce, 4096, 1024, 8),
            CollAlgo::kRecursiveDoubling);
  EXPECT_NE(rd.choose(CollectiveId::kAllreduce, 4096, 1024, 6),
            CollAlgo::kRecursiveDoubling);
  // Rabenseifner additionally needs count % ranks == 0.
  const CollTuner rab = CollTuner::parse("allreduce:rabenseifner@0", base_tuner());
  EXPECT_EQ(rab.choose(CollectiveId::kAllreduce, 4096, 1024, 8),
            CollAlgo::kRabenseifner);
  EXPECT_NE(rab.choose(CollectiveId::kAllreduce, 4092, 1023, 8),
            CollAlgo::kRabenseifner);
  // A pipeline rule on allreduce is never legal; defaults apply untouched.
  const CollTuner pipe = CollTuner::parse("allreduce:pipeline@0", base_tuner());
  EXPECT_NE(pipe.choose(CollectiveId::kAllreduce, 4096, 1024, 8),
            CollAlgo::kPipeline);
}

TEST(CollTuner, ChainsForClampsToMax) {
  const CollTuner t = CollTuner::parse("seg:1k,chains:4", base_tuner());
  EXPECT_EQ(t.chains_for(512), 1);
  EXPECT_EQ(t.chains_for(1024), 1);
  EXPECT_EQ(t.chains_for(1025), 2);
  EXPECT_EQ(t.chains_for(3 * 1024), 3);
  EXPECT_EQ(t.chains_for(1 << 20), 4);  // clamped; segment grows instead
}

// ========================================================================
// Property sweep: every algorithm, bitwise against a serial reference.
// ========================================================================

class CollAlgoRanks : public ::testing::TestWithParam<int> {};

namespace {

/// Byte payload sizes: eager through rendezvous, chunk-aligned and not
/// (seg is forced to 4 KiB in the sweep specs below).
constexpr std::size_t kSizes[] = {1,     3,      64,        1000,
                                  4096,  4097,   65536,     65537,
                                  262144, 1048576};

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
  // Each spec pins one algorithm from byte 0 with a small segment so even
  // mid-sized payloads split into multiple chains; illegal combinations
  // (rdbl/rabenseifner off power-of-two) must fall back and still be exact.
  static const char* kSpecs[] = {
      "",  // profile defaults, size-dependent selection
      "allreduce:ring@0,seg:4k,chains:8",
      "allreduce:ring@0,seg:4097,chains:3",  // non-chunk-aligned segment
      "allreduce:rdbl@0",
      "allreduce:rabenseifner@0,seg:4k",
      "allreduce:reduce-bcast@0,seg:4k",
  };
  for (const char* spec : kSpecs) {
    Cluster c(cfg(GetParam(), spec));
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
  static const char* kSpecs[] = {"", "reduce:binomial@0"};
  for (const char* spec : kSpecs) {
    Cluster c(cfg(GetParam(), spec));
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
}

TEST_P(CollAlgoRanks, BcastPipelinedAndBinomialBitwise) {
  static const char* kSpecs[] = {
      "bcast:binomial@0",
      "bcast:pipeline@0,seg:4k,chains:8",
      "bcast:pipeline@0,seg:4097,chains:3",
  };
  for (const char* spec : kSpecs) {
    Cluster c(cfg(GetParam(), spec));
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
}

TEST_P(CollAlgoRanks, AllgatherRingAndPostAllBitwise) {
  static const char* kSpecs[] = {
      "allgather:postall@0",
      "allgather:ring@0,seg:4k,chains:8",
  };
  for (const char* spec : kSpecs) {
    Cluster c(cfg(GetParam(), spec));
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
}

TEST_P(CollAlgoRanks, AlltoallPostAllAndPairwiseBitwise) {
  static const char* kSpecs[] = {"alltoall:postall@0", "alltoall:pairwise@0"};
  for (const char* spec : kSpecs) {
    Cluster c(cfg(GetParam(), spec));
    c.run([&](RankCtx&) {
      const int p = size();
      for (const std::size_t blk : {std::size_t{1}, std::size_t{4097},
                                    std::size_t{65536}}) {
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
                << "alltoall mismatch: blk=" << blk << " src=" << s;
          }
        }
      }
    });
  }
}

TEST_P(CollAlgoRanks, ForcedAlgorithmIsRecordedInStats) {
  Cluster c(cfg(GetParam(), "allreduce:ring@0,seg:4k,chains:4"));
  constexpr int kReps = 3;
  constexpr std::size_t kBytes = 256 * 1024;
  c.run([&](RankCtx&) {
    std::vector<std::uint8_t> in(kBytes, 1), out(kBytes);
    for (int i = 0; i < kReps; ++i) {
      allreduce(in.data(), out.data(), kBytes, Datatype::kByte, Op::kSum);
    }
  });
  for (int r = 0; r < c.nranks(); ++r) {
    const CollStats& cs = c.rank(r).coll_stats();
    EXPECT_EQ(cs.count(CollectiveId::kAllreduce, CollAlgo::kRing),
              static_cast<std::uint64_t>(kReps))
        << "rank " << r;
    EXPECT_EQ(cs.count(CollectiveId::kAllreduce, CollAlgo::kUnknown), 0u);
    // Segmented schedules must actually chunk: 256 KiB over a 4 KiB segment
    // clamps to 4 chains and many stages per chain.
    EXPECT_GT(cs.chunks, 0u) << "rank " << r;
  }
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
