#include "apps/qcd/dslash_perf.hpp"

#include <algorithm>

#include "apps/qcd/dslash.hpp"
#include <memory>
#include <vector>

#include "mpi/cluster.hpp"
#include "mpi/continuation.hpp"
#include "sim/sync.hpp"

namespace qcd {

using core::Approach;
using core::PReq;
using core::Proxy;
using smpi::Datatype;

namespace {

/// Paper: one MPI rank per socket, two sockets per node.
constexpr int kRanksPerNode = 2;
/// LLC working-set effect (paper: superlinear scaling at high node counts):
/// the rate gains kCacheBoost once a rank's sites fit in kCacheThresholdBytes.
constexpr double kCacheBoost = 1.35;
constexpr double kCacheThresholdBytes = 12.0 * 1024 * 1024;
/// Resident bytes per site (spinors + gauge).
constexpr double kBytesPerSite = 408.0;
/// Chunks the interior loop is split into; the iprobe approach calls
/// progress_hint() between chunks (Listing 1's PROGRESS macro).
constexpr int kProgressChunks = 8;

struct PhaseAccum {
  sim::Time internal, post, wait, misc;
};

/// All comm directions of one rank, with face byte counts.
struct CommPlan {
  struct Dir {
    int mu;
    int up_rank, dn_rank;
    std::size_t bytes;
  };
  std::vector<Dir> dirs;
  std::size_t total_bytes = 0;
};

CommPlan make_plan(const Decomposition& dec) {
  CommPlan plan;
  for (int mu = 0; mu < 4; ++mu) {
    if (!dec.partitioned(mu)) continue;
    CommPlan::Dir d;
    d.mu = mu;
    d.up_rank = dec.neighbor_rank(mu, +1);
    d.dn_rank = dec.neighbor_rank(mu, -1);
    d.bytes = static_cast<std::size_t>(dec.face_sites(mu)) * kFaceBytesPerSite;
    plan.total_bytes += 2 * d.bytes;
    plan.dirs.push_back(d);
  }
  return plan;
}

}  // namespace

QcdPerfResult run_qcd_perf(const QcdPerfConfig& cfg) {
  const int nranks = cfg.nodes * kRanksPerNode;
  const Dims grid = choose_grid(nranks, cfg.global);

  smpi::ClusterConfig cc;
  cc.nranks = nranks;
  cc.profile = cfg.profile;
  cc.thread_level = (cfg.thread_groups > 1 &&
                     cfg.approach != Approach::kOffload)
                        ? smpi::ThreadLevel::kMultiple
                        : core::required_thread_level(cfg.approach);
  cc.deadline = sim::Time::from_sec(3600);
  smpi::Cluster cluster(cc);

  QcdPerfResult result;
  result.ranks = nranks;
  result.grid = grid;

  cluster.run([&](smpi::RankCtx& rc) {
    auto proxy = core::make_proxy(cfg.approach, rc);
    proxy->start_engine();
    const Decomposition dec(cfg.global, grid, rc.rank());
    const CommPlan plan = make_plan(dec);

    const int threads = proxy->compute_threads(cfg.profile.cores_per_rank);
    const double local_bytes =
        static_cast<double>(dec.local_volume()) * kBytesPerSite;
    const double boost = local_bytes < kCacheThresholdBytes ? kCacheBoost : 1.0;
    const double rate = cfg.flops_per_ns_thread * threads * boost;  // flops/ns

    const double interior_flops =
        static_cast<double>(dec.local_volume() - dec.boundary_sites()) * kFlopsPerSite;
    const double boundary_flops =
        static_cast<double>(dec.boundary_sites()) * kFlopsPerSite;
    const auto interior_time = sim::Time(static_cast<std::int64_t>(interior_flops / rate));
    const auto boundary_time = sim::Time(static_cast<std::int64_t>(boundary_flops / rate));
    // Pack/unpack move each face byte once, split across the team.
    const auto pack_time = sim::Time(static_cast<std::int64_t>(
        static_cast<double>(plan.total_bytes) / cfg.profile.copy_bytes_per_ns / threads));
    // BLAS1 (solver only): ~6 AXPY-class sweeps over the local spinor field,
    // bandwidth-bound at ~copy speed per thread.
    const auto blas_time = sim::Time(static_cast<std::int64_t>(
        cfg.solver ? 6.0 * static_cast<double>(dec.local_volume()) * 96.0 /
                         (cfg.profile.copy_bytes_per_ns * threads)
                   : 0.0));

    PhaseAccum acc;
    sim::Time run_start;
    const int groups = std::max(1, cfg.thread_groups);

    auto one_iteration = [&](bool measured) {
      const sim::Time it0 = sim::now();
      // ---- pack (misc) ----
      smpi::compute(pack_time);
      const sim::Time t_pack = sim::now();

      if (groups == 1) {
        // ---- post (Listing 1 line 6: master thread posts everything) ----
        std::vector<PReq> reqs;
        for (const auto& d : plan.dirs) {
          reqs.push_back(proxy->irecv(nullptr, d.bytes, Datatype::kByte, d.up_rank,
                                      d.mu * 2));
          reqs.push_back(proxy->irecv(nullptr, d.bytes, Datatype::kByte, d.dn_rank,
                                      d.mu * 2 + 1));
          reqs.push_back(proxy->isend(nullptr, d.bytes, Datatype::kByte, d.dn_rank,
                                      d.mu * 2));
          reqs.push_back(proxy->isend(nullptr, d.bytes, Datatype::kByte, d.up_rank,
                                      d.mu * 2 + 1));
        }
        // A9 continuation mode: arm the graph at post time. Completion then
        // belongs to the proxy's progress context; the wait phase below
        // collapses to one sleep on the tail event instead of a per-request
        // done-flag polling pass.
        cont::Event halo_done;
        if (cfg.continuations) {
          cont::when_all(*proxy, reqs).then([&halo_done](const smpi::Status&) {
            halo_done.set();
          });
        }
        const sim::Time t_post = sim::now();
        // ---- interior volume (with PROGRESS insertions) ----
        const auto chunk = sim::Time(interior_time.ns() / kProgressChunks);
        for (int c = 0; c < kProgressChunks; ++c) {
          smpi::compute(chunk);
          proxy->progress_hint();
        }
        const sim::Time t_comp = sim::now();
        // ---- wait ----
        if (cfg.continuations) {
          halo_done.wait(*proxy);
        } else {
          proxy->waitall(reqs);
        }
        const sim::Time t_wait = sim::now();
        // ---- boundary + unpack + solver BLAS (misc/internal) ----
        smpi::compute(boundary_time + pack_time);
        if (cfg.solver) {
          smpi::compute(blas_time);
          double v = 1.0, s = 0.0;
          proxy->allreduce(&v, &s, 1, Datatype::kDouble, smpi::Op::kSum);
        }
        proxy->barrier();
        const sim::Time t_end = sim::now();
        if (measured && rc.rank() == 0) {
          acc.misc += (t_pack - it0) + (t_end - t_wait);
          acc.post += t_post - t_pack;
          acc.internal += t_comp - t_post;
          acc.wait += t_wait - t_comp;
        }
      } else {
        // ---- Fig. 12: thread groups issue their directions concurrently ----
        sim::Barrier group_barrier(groups, sim::Time::from_ns(150));
        auto done = std::make_shared<int>(0);
        auto done_n = std::make_shared<sim::Notifier>(sim::Time::from_us(1));
        auto group_body = [&, done, done_n](int g) {
          std::vector<PReq> reqs;
          for (std::size_t i = static_cast<std::size_t>(g); i < plan.dirs.size();
               i += static_cast<std::size_t>(groups)) {
            const auto& d = plan.dirs[i];
            reqs.push_back(proxy->irecv(nullptr, d.bytes, Datatype::kByte,
                                        d.up_rank, d.mu * 2));
            reqs.push_back(proxy->irecv(nullptr, d.bytes, Datatype::kByte,
                                        d.dn_rank, d.mu * 2 + 1));
            reqs.push_back(proxy->isend(nullptr, d.bytes, Datatype::kByte,
                                        d.dn_rank, d.mu * 2));
            reqs.push_back(proxy->isend(nullptr, d.bytes, Datatype::kByte,
                                        d.up_rank, d.mu * 2 + 1));
          }
          // Each group owns 1/G of the team's threads and 1/G of the
          // volume: its wall time equals the full-team time.
          smpi::compute(interior_time);
          proxy->waitall(reqs);
          smpi::compute(boundary_time);
          group_barrier.arrive_and_wait();
          ++*done;
          done_n->signal();
        };
        for (int g = 1; g < groups; ++g) {
          rc.cluster().spawn_on(rc.rank(), "tg" + std::to_string(g),
                                [&group_body, g]() { group_body(g); });
        }
        group_body(0);
        // Sleep on the group-exit notifier instead of spinning the clock.
        for (std::uint64_t seen = 0; *done < groups;) {
          seen = done_n->wait_beyond(seen);
        }
        smpi::compute(pack_time);  // unpack
        proxy->barrier();
        if (measured && rc.rank() == 0) {
          acc.internal += sim::now() - it0;  // aggregate (split not meaningful)
        }
      }
    };

    for (int i = 0; i < cfg.warmup; ++i) one_iteration(false);
    proxy->barrier();
    run_start = sim::now();
    for (int i = 0; i < cfg.iters; ++i) one_iteration(true);
    const sim::Time run_end = sim::now();
    if (rc.rank() == 0) {
      if (auto* op = dynamic_cast<core::OffloadProxy*>(proxy.get())) {
        const core::OffloadStats& s = op->channel().stats();
        result.cont_armed = s.cont_armed;
        result.cont_executed = s.cont_executed;
        result.cont_deferred = s.cont_deferred;
        result.cont_inline = s.cont_inline;
        result.cont_posts = s.cont_posts;
      }
    }
    proxy->stop();

    if (rc.rank() == 0) {
      const double n = cfg.iters;
      result.internal_us = acc.internal.us() / n;
      result.post_us = acc.post.us() / n;
      result.wait_us = acc.wait.us() / n;
      result.misc_us = acc.misc.us() / n;
      result.total_us = (run_end - run_start).us() / n;
      const double total_flops =
          static_cast<double>(volume(cfg.global)) * kFlopsPerSite * cfg.iters;
      result.tflops = total_flops / (run_end - run_start).ns() / 1000.0;
      std::size_t mx = 0, mn = SIZE_MAX;
      for (const auto& d : plan.dirs) {
        mx = std::max(mx, d.bytes);
        mn = std::min(mn, d.bytes);
      }
      result.max_face_bytes = mx;
      result.min_face_bytes = mn == SIZE_MAX ? 0 : mn;
    }
  });
  return result;
}

}  // namespace qcd
