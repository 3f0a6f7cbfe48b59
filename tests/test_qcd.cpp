// QCD application correctness: lattice decomposition, distributed Dslash vs
// single-rank reference, operator properties.
#include <gtest/gtest.h>

#include <complex>
#include <memory>

#include "apps/qcd/dslash.hpp"
#include "apps/qcd/dslash_perf.hpp"
#include "mpi/cluster.hpp"

using namespace qcd;
using core::Approach;

namespace {

smpi::ClusterConfig cfg(int n, core::Approach a = Approach::kBaseline) {
  smpi::ClusterConfig c;
  c.nranks = n;
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(60);
  return c;
}

/// Scatter globally-seeded fields into a rank's local blocks so every rank
/// sees the same global configuration the reference sees.
void load_local(const Decomposition& dec, const SpinorField& gpsi,
                const GaugeField& gu, SpinorField& lpsi, GaugeField& lu) {
  const Dims& ld = dec.local();
  Dims c;
  for (c[kT] = 0; c[kT] < ld[kT]; ++c[kT])
    for (c[kZ] = 0; c[kZ] < ld[kZ]; ++c[kZ])
      for (c[kY] = 0; c[kY] < ld[kY]; ++c[kY])
        for (c[kX] = 0; c[kX] < ld[kX]; ++c[kX]) {
          const int li = site_index(c, ld);
          const int gi = site_index(dec.to_global(c), gpsi.dims);
          for (int i = 0; i < kSpinorFloats; ++i) {
            lpsi.site(li)[i] = gpsi.site(gi)[i];
          }
          for (int mu = 0; mu < 4; ++mu) {
            for (int i = 0; i < kLinkEntries; ++i) {
              lu.link(li, mu)[i] = gu.link(gi, mu)[i];
            }
          }
        }
}

/// <a, b> with double-precision accumulation.
std::complex<double> inner(const SpinorField& a, const SpinorField& b) {
  std::complex<double> acc = 0;
  for (std::size_t i = 0; i < a.v.size(); ++i) {
    acc += std::conj(std::complex<double>(a.v[i])) * std::complex<double>(b.v[i]);
  }
  return acc;
}

}  // namespace

TEST(Lattice, ChooseGridCoversRanksAndDivides) {
  const Dims global{32, 32, 32, 256};
  for (int n : {1, 2, 4, 8, 16, 64, 512}) {
    const Dims g = choose_grid(n, global);
    EXPECT_EQ(static_cast<std::int64_t>(g[0]) * g[1] * g[2] * g[3], n);
    for (int mu = 0; mu < 4; ++mu) {
      EXPECT_EQ(global[static_cast<std::size_t>(mu)] % g[static_cast<std::size_t>(mu)], 0);
    }
  }
  // Paper order: T is split first.
  const Dims g2 = choose_grid(2, global);
  EXPECT_EQ(g2[kT], 2);
  // Non-power-of-two counts decompose too (Edison runs use 1152 nodes).
  const Dims g3 = choose_grid(1152, Dims{48, 48, 48, 512});
  EXPECT_EQ(static_cast<std::int64_t>(g3[0]) * g3[1] * g3[2] * g3[3], 1152);
}

TEST(Lattice, NeighborRanksAreMutual) {
  const Dims global{8, 8, 8, 16};
  const Dims grid = choose_grid(8, global);
  for (int r = 0; r < 8; ++r) {
    Decomposition dec(global, grid, r);
    for (int mu = 0; mu < 4; ++mu) {
      const int up = dec.neighbor_rank(mu, +1);
      Decomposition up_dec(global, grid, up);
      EXPECT_EQ(up_dec.neighbor_rank(mu, -1), r);
    }
  }
}

TEST(Lattice, FaceAndBoundaryCounts) {
  Decomposition dec({8, 8, 8, 8}, {1, 1, 2, 2}, 0);
  EXPECT_EQ(dec.local_volume(), 8 * 8 * 4 * 4);
  EXPECT_EQ(dec.face_sites(kZ), 8 * 8 * 4);
  EXPECT_EQ(dec.face_sites(kT), 8 * 8 * 4);
  // boundary: local (8,8,4,4), interior (8,8,2,2) -> 1024 - 256.
  EXPECT_EQ(dec.boundary_sites(), 1024 - 256);
}

class DslashGrids : public ::testing::TestWithParam<int> {};

TEST_P(DslashGrids, DistributedMatchesReference) {
  const int nranks = GetParam();
  const Dims global{4, 4, 4, 8};
  const Dims grid = choose_grid(nranks, global);

  SpinorField gpsi(global);
  GaugeField gu(global);
  fill_random_spinor(gpsi, 11);
  fill_random_gauge(gu, 22);
  SpinorField want(global);
  dslash_reference(gu, gpsi, want);

  SpinorField got(global);  // shared across rank fibers (same address space)
  smpi::Cluster cluster(cfg(nranks));
  cluster.run([&](smpi::RankCtx& rc) {
    auto proxy = core::make_proxy(Approach::kBaseline, rc);
    proxy->start_engine();
    Decomposition dec(global, grid, rc.rank());
    DistributedDslash d(dec, *proxy);
    load_local(dec, gpsi, gu, d.psi(), d.gauge());
    SpinorField out(dec.local());
    d.apply(out);
    // Write my block into the shared global result.
    const Dims& ld = dec.local();
    Dims c;
    for (c[kT] = 0; c[kT] < ld[kT]; ++c[kT])
      for (c[kZ] = 0; c[kZ] < ld[kZ]; ++c[kZ])
        for (c[kY] = 0; c[kY] < ld[kY]; ++c[kY])
          for (c[kX] = 0; c[kX] < ld[kX]; ++c[kX]) {
            const int li = site_index(c, ld);
            const int gi = site_index(dec.to_global(c), global);
            for (int i = 0; i < kSpinorFloats; ++i) {
              got.site(gi)[i] = out.site(li)[i];
            }
          }
    proxy->barrier();
    proxy->stop();
  });

  double max_err = 0;
  for (std::size_t i = 0; i < want.v.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(want.v[i] - got.v[i])));
  }
  EXPECT_LT(max_err, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Ranks, DslashGrids, ::testing::Values(1, 2, 4, 8));

TEST(Dslash, DistributedMatchesReferenceUnderOffload) {
  const Dims global{4, 4, 4, 8};
  const Dims grid = choose_grid(4, global);
  SpinorField gpsi(global);
  GaugeField gu(global);
  fill_random_spinor(gpsi, 5);
  fill_random_gauge(gu, 6);
  SpinorField want(global);
  dslash_reference(gu, gpsi, want);
  double max_err = 0;
  smpi::Cluster cluster(cfg(4, Approach::kOffload));
  cluster.run([&](smpi::RankCtx& rc) {
    auto proxy = core::make_proxy(Approach::kOffload, rc);
    proxy->start_engine();
    Decomposition dec(global, grid, rc.rank());
    DistributedDslash d(dec, *proxy);
    load_local(dec, gpsi, gu, d.psi(), d.gauge());
    SpinorField out(dec.local());
    d.apply(out);
    const Dims& ld = dec.local();
    Dims c;
    for (c[kT] = 0; c[kT] < ld[kT]; ++c[kT])
      for (c[kZ] = 0; c[kZ] < ld[kZ]; ++c[kZ])
        for (c[kY] = 0; c[kY] < ld[kY]; ++c[kY])
          for (c[kX] = 0; c[kX] < ld[kX]; ++c[kX]) {
            const int li = site_index(c, ld);
            const int gi = site_index(dec.to_global(c), global);
            for (int i = 0; i < kSpinorFloats; ++i) {
              max_err = std::max(max_err,
                                 static_cast<double>(std::abs(
                                     want.site(gi)[i] - out.site(li)[i])));
            }
          }
    proxy->barrier();
    proxy->stop();
  });
  EXPECT_LT(max_err, 1e-4);
}

TEST(Dslash, OperatorIsHermitian) {
  // <a, D b> == <D a, b> for the simplified hopping operator.
  const Dims d{4, 4, 4, 4};
  SpinorField a(d), b(d), da(d), db(d);
  GaugeField u(d);
  fill_random_spinor(a, 1);
  fill_random_spinor(b, 2);
  fill_random_gauge(u, 3);
  dslash_reference(u, a, da);
  dslash_reference(u, b, db);
  const auto lhs = inner(a, db);
  const auto rhs = inner(da, b);
  EXPECT_NEAR(lhs.real(), rhs.real(), 1e-2);
  EXPECT_NEAR(lhs.imag(), rhs.imag(), 1e-2);
}

TEST(QcdPerf, HarnessRunsAndOffloadHidesWait) {
  QcdPerfConfig c;
  c.global = {16, 16, 16, 32};
  c.nodes = 4;
  c.iters = 5;
  c.warmup = 1;
  c.approach = Approach::kBaseline;
  const QcdPerfResult base = run_qcd_perf(c);
  c.approach = Approach::kOffload;
  const QcdPerfResult off = run_qcd_perf(c);
  EXPECT_GT(base.total_us, 0);
  EXPECT_GT(base.tflops, 0);
  // The offload approach must slash post time (paper: >99% reduction) and
  // not lose overall performance.
  EXPECT_LT(off.post_us, base.post_us * 0.2);
  EXPECT_LE(off.total_us, base.total_us * 1.1);
}
