// Benchmark-library sanity: the kernels that generate the paper's figures
// must themselves behave (monotonicity, bounds, approach orderings).
#include <gtest/gtest.h>

#include <sstream>

#include "benchlib/osu.hpp"
#include "benchlib/overlap.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;
using smpi::CollectiveId;

TEST(Table, AlignsColumnsToTheWidestCell) {
  Table t({"a", "long-header", "c"});
  t.row({"1", "2", "3"}).row({"wide-cell", "x", "y"});
  std::ostringstream txt;
  t.print(txt);
  EXPECT_NE(txt.str().find("| long-header |"), std::string::npos);
  EXPECT_NE(txt.str().find("| wide-cell |"), std::string::npos);
  EXPECT_NE(txt.str().find("|         1 |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_us(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.876), "88%");
  EXPECT_EQ(fmt_bytes(128 * 1024), "128K");
  EXPECT_EQ(fmt_bytes(2 * 1024 * 1024), "2M");
  EXPECT_EQ(fmt_bytes(100), "100");
  EXPECT_EQ(fmt_int(-5), "-5");
}

TEST(OsuKernels, LatencyIncreasesWithSize) {
  const auto prof = machine::xeon_fdr();
  const double small = osu_latency(Approach::kBaseline, prof, 8, 10).latency_us;
  const double large = osu_latency(Approach::kBaseline, prof, 1 << 20, 10).latency_us;
  EXPECT_GT(small, 0);
  EXPECT_GT(large, 20 * small);
}

TEST(OsuKernels, OffloadPostIsFlatAcrossSizes) {
  const auto prof = machine::xeon_fdr();
  const double p1 = osu_latency(Approach::kOffload, prof, 64, 10).post_us;
  const double p2 = osu_latency(Approach::kOffload, prof, 1 << 20, 10).post_us;
  EXPECT_NEAR(p1, p2, 0.01);
  EXPECT_LT(p1, 0.3);  // paper: ~140 ns
}

TEST(OsuKernels, BaselinePostPeaksAtEagerThreshold) {
  const auto prof = machine::xeon_fdr();
  const double at = osu_latency(Approach::kBaseline, prof, 128 << 10, 10).post_us;
  const double above = osu_latency(Approach::kBaseline, prof, 256 << 10, 10).post_us;
  EXPECT_GT(at, 10 * above);
}

TEST(OsuKernels, BandwidthApproachesWireRate) {
  const auto prof = machine::xeon_fdr();
  const double mbps = osu_bandwidth(Approach::kBaseline, prof, 4 << 20, 16, 3)
                          .bandwidth_mbps;
  EXPECT_GT(mbps, prof.net_bytes_per_ns * 1000.0 * 0.9);
  EXPECT_LE(mbps, prof.net_bytes_per_ns * 1000.0 * 1.05);
}

TEST(OsuKernels, MultithreadedContentionHurtsLockedPaths) {
  const auto prof = machine::xeon_fdr();
  const double base8 = osu_latency_mt(Approach::kBaseline, prof, 8, 64, 10).latency_us;
  const double off8 = osu_latency_mt(Approach::kOffload, prof, 8, 64, 10).latency_us;
  // Paper Fig. 6: several-fold advantage for offload at 8 threads.
  EXPECT_GT(base8, 3 * off8);
}

TEST(OverlapKernel, FractionsAreSane) {
  const auto prof = machine::xeon_fdr();
  for (Approach a : {Approach::kBaseline, Approach::kOffload}) {
    const OverlapResult r = overlap_p2p(a, prof, 65536, 8, 2);
    EXPECT_GT(r.comm_us, 0);
    EXPECT_GE(r.overlap_frac, 0.0);
    EXPECT_LE(r.overlap_frac, 1.05);
    EXPECT_GE(r.wait_frac, 0.0);
  }
}

TEST(OverlapKernel, PaperOrderingAtLargeMessages) {
  const auto prof = machine::xeon_fdr();
  const double base = overlap_p2p(Approach::kBaseline, prof, 2 << 20, 8, 2).overlap_frac;
  const double self = overlap_p2p(Approach::kCommSelf, prof, 2 << 20, 8, 2).overlap_frac;
  const double off = overlap_p2p(Approach::kOffload, prof, 2 << 20, 8, 2).overlap_frac;
  // Fig. 2 at 2MB: baseline ~1%, comm-self ~80%+, offload ~99%.
  EXPECT_LT(base, 0.15);
  EXPECT_GT(self, 0.6);
  EXPECT_GT(off, 0.9);
  EXPECT_GE(off, self);
}

TEST(OverlapKernel, CollectiveOverlapOrderedByApproach) {
  const auto prof = machine::xeon_fdr();
  const double base = overlap_collective(Approach::kBaseline, prof,
                                         CollectiveId::kAllreduce, 8, 16384, 5, 1)
                          .overlap_frac;
  const double off = overlap_collective(Approach::kOffload, prof,
                                        CollectiveId::kAllreduce, 8, 16384, 5, 1)
                         .overlap_frac;
  EXPECT_GT(off, base);
  EXPECT_GT(off, 0.7);
}

TEST(OverlapKernel, IcollectivePostCheapestUnderOffload) {
  const auto prof = machine::xeon_fdr();
  for (CollectiveId k :
       {CollectiveId::kAllreduce, CollectiveId::kAlltoall, CollectiveId::kBarrier}) {
    const double base = icollective_post_us(Approach::kBaseline, prof, k, 8, 8192, 5, 1);
    const double off = icollective_post_us(Approach::kOffload, prof, k, 8, 8192, 5, 1);
    EXPECT_LT(off, base) << coll_name(k);
    EXPECT_LT(off, 0.3) << coll_name(k);
  }
}

TEST(OverlapKernel, CollNamesResolve) {
  // fig03 and fig05 label each row "I" + coll_name: Ibcast ... Ibarrier.
  EXPECT_STREQ(coll_name(CollectiveId::kBcast), "bcast");
  EXPECT_STREQ(coll_name(CollectiveId::kBarrier), "barrier");
  EXPECT_STREQ(coll_name(CollectiveId::kAlltoall), "alltoall");
}
