#include "apps/fft/distributed_fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mpi/cluster.hpp"

namespace fft {

using core::PReq;
using smpi::Datatype;

// --------------------------------------------------------- DistributedFft ----

DistributedFft::DistributedFft(smpi::RankCtx& rc, core::Proxy& proxy,
                               std::size_t rows, std::size_t cols)
    : rc_(rc),
      proxy_(proxy),
      rows_(rows),
      cols_(cols),
      nranks_(rc.nranks()),
      rank_(rc.rank()) {
  const auto p = static_cast<std::size_t>(nranks_);
  if (rows % p != 0 || cols % p != 0) {
    throw std::invalid_argument("rows and cols must be divisible by nranks");
  }
}

void DistributedFft::transpose(std::vector<cd>& block, std::size_t a,
                               std::size_t b) {
  // I own a/P rows of an a x b matrix (row-major); produce my b/P rows of
  // the b x a transpose. Pack column-blocks per destination, alltoall,
  // then locally transpose each received (a/P x b/P) tile.
  const auto p = static_cast<std::size_t>(nranks_);
  const std::size_t ra = a / p;  // my row count before
  const std::size_t rb = b / p;  // my row count after
  std::vector<cd> sendbuf(block.size()), recvbuf(block.size());
  for (std::size_t dest = 0; dest < p; ++dest) {
    cd* out = sendbuf.data() + dest * ra * rb;
    for (std::size_t r = 0; r < ra; ++r) {
      for (std::size_t c = 0; c < rb; ++c) {
        out[r * rb + c] = block[r * b + dest * rb + c];
      }
    }
  }
  proxy_.alltoall(sendbuf.data(), recvbuf.data(), ra * rb,
                  Datatype::kComplexDouble);
  // The tile from rank i holds rows [i*ra, (i+1)*ra) x my column block;
  // transpose it into block[c][global_row].
  for (std::size_t i = 0; i < p; ++i) {
    const cd* tile = recvbuf.data() + i * ra * rb;
    for (std::size_t r = 0; r < ra; ++r) {
      for (std::size_t c = 0; c < rb; ++c) {
        block[c * a + i * ra + r] = tile[r * rb + c];
      }
    }
  }
}

void DistributedFft::forward(std::vector<cd>& block) {
  const std::size_t n = total();
  const auto p = static_cast<std::size_t>(nranks_);
  if (block.size() != local()) throw std::invalid_argument("bad block size");

  // Input element x[q*C + b] lives at row q, col b of an R x C matrix.
  // Step 1: transpose (all-to-all #1) -> I own C/P rows of the C x R matrix,
  // i.e. T[b][q2] = x[q2*C + b].
  transpose(block, rows_, cols_);
  // Step 2: length-R FFT along each of my C/P rows.
  const std::size_t my_cols = cols_ / p;
  for (std::size_t r = 0; r < my_cols; ++r) {
    fft_inplace(block.data() + r * rows_, rows_);
  }
  // Step 3: twiddle T[b][q] *= W_N^{b q}.
  const std::size_t b0 = static_cast<std::size_t>(rank_) * my_cols;
  for (std::size_t r = 0; r < my_cols; ++r) {
    const std::size_t b = b0 + r;
    for (std::size_t q = 0; q < rows_; ++q) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>((b * q) % n) / static_cast<double>(n);
      block[r * rows_ + q] *= cd(std::cos(ang), std::sin(ang));
    }
  }
  // Step 4: transpose back (all-to-all #2) -> R/P rows of R x C: Z[q][b].
  transpose(block, cols_, rows_);
  // Step 5: length-C FFT along each of my R/P rows.
  const std::size_t my_rows = rows_ / p;
  for (std::size_t r = 0; r < my_rows; ++r) {
    fft_inplace(block.data() + r * cols_, cols_);
  }
  // Step 6: transpose for natural output order (all-to-all #3): element
  // (q, s) is X[q + R*s]; after transposing to C x R ownership, rank p holds
  // X[k] for k in [p*N/P, (p+1)*N/P) contiguously.
  transpose(block, rows_, cols_);
}

// ------------------------------------------------------------------ perf ----

namespace {
constexpr int kWarmup = 1;    ///< iterations before the measured ones
constexpr int kSegments = 8;  ///< SOI pipeline depth (all-to-all segments)
/// SOI computes ~25% more than Cooley-Tukey to save two all-to-alls.
constexpr double kSoiComputeFactor = 1.25;
/// Fabric taper: aggregate bandwidth = NIC bw * nranks^exponent; the
/// sub-linear exponent reproduces the paper's "all-to-all bandwidth does not
/// scale with node count".
constexpr double kBisectionExponent = 0.6;
}  // namespace

FftPerfResult run_fft_perf(const FftPerfConfig& cfg) {
  const int nranks = cfg.nodes;  // one rank per node
  smpi::ClusterConfig cc;
  cc.nranks = nranks;
  cc.profile = cfg.profile;
  cc.profile.bisection_bytes_per_ns =
      cc.profile.net_bytes_per_ns * std::pow(nranks, kBisectionExponent);
  cc.thread_level = core::required_thread_level(cfg.approach);
  cc.deadline = sim::Time::from_sec(36000);
  smpi::Cluster cluster(cc);

  FftPerfResult result;
  result.ranks = nranks;

  cluster.run([&](smpi::RankCtx& rc) {
    auto proxy = core::make_proxy(cfg.approach, rc);
    proxy->start_engine();
    const int threads = proxy->compute_threads(cfg.profile.cores_per_rank);
    const double n_local = static_cast<double>(cfg.points_per_node);
    const double n_total = n_local * nranks;
    // SOI: total local compute = 5 n log2(N) * factor, split half before the
    // exchange (front end) and half after (back end), over S segments.
    const double total_flops = fft_flops(n_total) / nranks * kSoiComputeFactor;
    const double rate = cfg.flops_per_ns_thread * threads;  // flops/ns
    const auto seg_front = sim::Time(static_cast<std::int64_t>(
        total_flops / rate / 2.0 / kSegments));
    const auto seg_back = seg_front;
    // One all-to-all total: each rank exchanges its whole block once.
    const std::size_t seg_bytes_per_rank =
        static_cast<std::size_t>(n_local) * sizeof(cd) / static_cast<std::size_t>(kSegments) /
        static_cast<std::size_t>(nranks);
    // Local data rearrangement (segment pack/unpack): one copy pass each way.
    const auto seg_shuffle = sim::Time(static_cast<std::int64_t>(
        n_local * sizeof(cd) / kSegments / (cfg.profile.copy_bytes_per_ns * threads)));

    sim::Time t_internal, t_post, t_wait, t_misc, run_start;

    auto one_iteration = [&](bool measured) {
      std::vector<PReq> pending(static_cast<std::size_t>(kSegments));
      for (int s = 0; s < kSegments; ++s) {
        // Front-end compute of segment s.
        sim::Time t0 = sim::now();
        smpi::compute(seg_front);
        sim::Time t1 = sim::now();
        smpi::compute(seg_shuffle);  // pack (misc)
        sim::Time t2 = sim::now();
        pending[static_cast<std::size_t>(s)] =
            proxy->ialltoall(nullptr, nullptr, seg_bytes_per_rank,
                             Datatype::kByte);
        sim::Time t3 = sim::now();
        sim::Time t4 = t3, t5 = t3, t6 = t3;
        if (s > 0) {
          proxy->wait(pending[static_cast<std::size_t>(s - 1)]);
          t4 = sim::now();
          smpi::compute(seg_shuffle);  // unpack (misc)
          t5 = sim::now();
          smpi::compute(seg_back);  // back-end compute of segment s-1
          t6 = sim::now();
        }
        if (measured && rc.rank() == 0) {
          t_internal += (t1 - t0) + (t6 - t5);
          t_misc += (t2 - t1) + (t5 - t4);
          t_post += t3 - t2;
          t_wait += t4 - t3;
        }
      }
      // Drain the last segment.
      sim::Time t0 = sim::now();
      proxy->wait(pending[static_cast<std::size_t>(kSegments - 1)]);
      sim::Time t1 = sim::now();
      smpi::compute(seg_shuffle);
      smpi::compute(seg_back);
      sim::Time t2 = sim::now();
      proxy->barrier();
      if (measured && rc.rank() == 0) {
        t_wait += t1 - t0;
        t_internal += t2 - t1;
      }
    };

    for (int i = 0; i < kWarmup; ++i) one_iteration(false);
    proxy->barrier();
    run_start = sim::now();
    for (int i = 0; i < cfg.iters; ++i) one_iteration(true);
    const sim::Time run_end = sim::now();
    proxy->stop();

    if (rc.rank() == 0) {
      const double n = cfg.iters;
      result.internal_ms = t_internal.ms() / n;
      result.post_ms = t_post.ms() / n;
      result.wait_ms = t_wait.ms() / n;
      result.misc_ms = t_misc.ms() / n;
      result.total_ms = (run_end - run_start).ms() / n;
      result.gflops = fft_flops(n_total) * cfg.iters / (run_end - run_start).ns();
    }
  });
  return result;
}

}  // namespace fft
