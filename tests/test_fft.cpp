// FFT correctness: local kernel vs naive DFT, distributed 6-step transform
// vs reference, perf-harness sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/fft/distributed_fft.hpp"
#include "apps/fft/fft.hpp"
#include "mpi/cluster.hpp"
#include "sim/rng.hpp"

using namespace fft;
using core::Approach;

namespace {

std::vector<cd> random_signal(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<cd> v(n);
  for (auto& z : v) z = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

double max_rel_err(const std::vector<cd>& a, const std::vector<cd>& b) {
  double scale = 0, err = 0;
  for (std::size_t i = 0; i < a.size(); ++i) scale = std::max(scale, std::abs(a[i]));
  for (std::size_t i = 0; i < a.size(); ++i) err = std::max(err, std::abs(a[i] - b[i]));
  return err / (scale > 0 ? scale : 1.0);
}

smpi::ClusterConfig ccfg(int n, Approach a = Approach::kBaseline) {
  smpi::ClusterConfig c;
  c.nranks = n;
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(120);
  return c;
}

}  // namespace

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, n);
  auto want = naive_dft(x);
  auto got = x;
  fft_inplace(got.data(), n);
  EXPECT_LT(max_rel_err(want, got), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 512));

TEST(Fft, InverseRoundTrip) {
  const std::size_t n = 256;
  auto x = random_signal(n, 3);
  auto y = x;
  fft_inplace(y.data(), n);
  fft_inplace(y.data(), n, /*inverse=*/true);
  for (auto& z : y) z /= static_cast<double>(n);
  EXPECT_LT(max_rel_err(x, y), 1e-10);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cd> v(12);
  EXPECT_THROW(fft_inplace(v.data(), 12), std::invalid_argument);
}

struct DistCase {
  int ranks;
  std::size_t rows, cols;
  Approach approach;
};

// gtest names each instance after its printed parameter; without this it
// would dump the struct's bytes, uninitialised padding included, and the
// test names would change from build to build.
void PrintTo(const DistCase& c, std::ostream* os) {
  *os << "ranks=" << c.ranks << " rows=" << c.rows << " cols=" << c.cols << " "
      << core::approach_name(c.approach);
}

class DistFft : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistFft, MatchesNaiveDft) {
  const DistCase tc = GetParam();
  const std::size_t n = tc.rows * tc.cols;
  auto x = random_signal(n, 42);
  auto want = naive_dft(x);
  std::vector<cd> got(n);

  smpi::Cluster cluster(ccfg(tc.ranks, tc.approach));
  cluster.run([&](smpi::RankCtx& rc) {
    auto proxy = core::make_proxy(tc.approach, rc);
    proxy->start_engine();
    DistributedFft dfft(rc, *proxy, tc.rows, tc.cols);
    const std::size_t loc = dfft.local();
    std::vector<cd> block(x.begin() + static_cast<std::ptrdiff_t>(loc * static_cast<std::size_t>(rc.rank())),
                          x.begin() + static_cast<std::ptrdiff_t>(loc * static_cast<std::size_t>(rc.rank() + 1)));
    dfft.forward(block);
    std::copy(block.begin(), block.end(),
              got.begin() + static_cast<std::ptrdiff_t>(loc * static_cast<std::size_t>(rc.rank())));
    proxy->barrier();
    proxy->stop();
  });
  EXPECT_LT(max_rel_err(want, got), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistFft,
    ::testing::Values(DistCase{1, 8, 8, Approach::kBaseline},
                      DistCase{2, 8, 16, Approach::kBaseline},
                      DistCase{4, 16, 16, Approach::kBaseline},
                      DistCase{4, 32, 16, Approach::kOffload},
                      DistCase{8, 32, 32, Approach::kBaseline},
                      DistCase{4, 16, 16, Approach::kCommSelf}));

TEST(FftFlops, OperationCount) {
  EXPECT_DOUBLE_EQ(fft_flops(1024), 5.0 * 1024 * 10);
}

TEST(FftPerf, OffloadCutsPostTimeAndWins) {
  FftPerfConfig c;
  c.nodes = 4;
  c.points_per_node = 1u << 22;
  c.iters = 2;
  c.approach = Approach::kBaseline;
  const FftPerfResult base = run_fft_perf(c);
  c.approach = Approach::kOffload;
  const FftPerfResult off = run_fft_perf(c);
  EXPECT_GT(base.total_ms, 0);
  EXPECT_GT(base.gflops, 0);
  // Paper Table 2: ~90%+ post-time reduction, better total time.
  EXPECT_LT(off.post_ms, base.post_ms * 0.2);
  EXPECT_LT(off.total_ms, base.total_ms);
}
