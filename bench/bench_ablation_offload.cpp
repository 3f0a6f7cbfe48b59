// Ablations over the design choices DESIGN.md calls out:
//   A1 eager/rendezvous threshold — moves the Fig. 2/4 overlap cliff;
//   A2 rendezvous pipeline depth — how much large-transfer overlap the
//      baseline gets "for free" from NIC autonomy;
//   A3 offload-thread detection latency (doorbell poll granularity);
//   A4 the dedicated core's cost — Dslash internal-compute slowdown vs the
//      thread count donated to communication;
//   A5 command-queue capacity under a burst of posts (ring-full stalls);
//   A6 wire faults — overlap retention and reliability-layer work vs drop
//      rate, with an end-to-end payload digest proving the data is intact;
//   A7 submission front-end — the single shared MPSC ring vs per-thread SPSC
//      lanes vs lanes+batching, measured as the multi-thread post window;
//   A8 collective algorithm selection — recursive doubling vs the segmented
//      ring allreduce vs ring + doorbell batching, as effective bandwidth
//      over the message-size sweep (the CollTuner's whole reason to exist);
//   A9 completion discovery — the polling waitall vs the continuation graph
//      (when_all -> engine-run callbacks), as application-thread MPI time
//      (post + wait phases) per Dslash iteration across all four approaches;
//   A10 sharded progress engine — message rate vs proxy count (1/2/4 engine
//      fibers) under a skewed (every submitter hits one peer) and a uniform
//      (submitters spread over four peers) distribution; the skewed column
//      is what bounded work stealing exists for;
//   A11 persistent requests — init-once/start-many send windows vs one-shot
//      isend at 8 submitter threads: every generation replays the cached
//      envelope for a slot-index re-arm (cmd_enqueue_persist) instead of
//      paying full serialization (cmd_enqueue) per message.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/proxy.hpp"
#include "core/proxy_options.hpp"

#include "apps/qcd/dslash_perf.hpp"
#include "benchlib/osu.hpp"
#include "benchlib/overlap.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"
#include "mpi/cluster.hpp"
#include "sim/sync.hpp"

using namespace benchlib;
using core::Approach;

namespace {

void a1_eager_threshold() {
  std::printf("A1: eager/rendezvous threshold vs baseline overlap at 192K\n");
  Table t({"threshold", "comm(us)", "overlap%"});
  for (std::size_t thr : {32u << 10, 128u << 10, 512u << 10}) {
    auto prof = machine::xeon_fdr();
    prof.eager_threshold = thr;
    const OverlapResult r = overlap_p2p(Approach::kBaseline, prof, 192 << 10);
    t.row({fmt_bytes(thr), fmt_us(r.comm_us), fmt_pct(r.overlap_frac)});
  }
  t.print();
}

void a2_pipeline_depth() {
  std::printf("\nA2: rndv pipeline depth vs baseline overlap at 2M\n");
  Table t({"depth", "overlap%", "wait%"});
  for (int depth : {1, 4, 16, 64}) {
    auto prof = machine::xeon_fdr();
    prof.rndv_pipeline_depth = depth;
    const OverlapResult r = overlap_p2p(Approach::kBaseline, prof, 2 << 20);
    t.row({fmt_int(depth), fmt_pct(r.overlap_frac), fmt_pct(r.wait_frac)});
  }
  t.print();
}

void a3_detect_latency() {
  std::printf("\nA3: offload doorbell detection latency vs 8B latency\n");
  Table t({"detect(ns)", "one-way latency(us)"});
  for (int ns : {10, 40, 200, 1000}) {
    auto prof = machine::xeon_fdr();
    prof.cmd_detect = sim::Time(ns);
    prof.done_flag_detect = sim::Time(ns);
    const OsuResult r = osu_latency(Approach::kOffload, prof, 8);
    t.row({fmt_int(ns), fmt_us(r.latency_us)});
  }
  t.print();
}

void a4_dedicated_core() {
  std::printf("\nA4: cost of the dedicated core — Dslash internal compute vs "
              "cores per rank (16 nodes, 32^3x256)\n");
  Table t({"cores/rank", "baseline internal(us)", "offload internal(us)",
           "slowdown"});
  for (int cores : {4, 8, 14, 28}) {
    qcd::QcdPerfConfig cfg;
    cfg.global = {32, 32, 32, 256};
    cfg.nodes = 16;
    cfg.iters = 5;
    cfg.profile.cores_per_rank = cores;
    cfg.approach = Approach::kBaseline;
    const double base = run_qcd_perf(cfg).internal_us;
    cfg.approach = Approach::kOffload;
    const double off = run_qcd_perf(cfg).internal_us;
    t.row({fmt_int(cores), fmt_us(base, 0), fmt_us(off, 0),
           fmt_pct((off - base) / base)});
  }
  t.print();
}

void a5_ring_capacity() {
  std::printf("\nA5: command-ring capacity under a 512-post burst\n");
  Table t({"capacity", "ring-full stalls", "burst time(us)"});
  for (std::size_t cap : {16u, 64u, 256u, 1024u}) {
    smpi::ClusterConfig cc;
    cc.nranks = 2;
    cc.deadline = sim::Time::from_sec(60);
    smpi::Cluster cluster(cc);
    std::uint64_t stalls = 0;
    double us = 0;
    cluster.run([&](smpi::RankCtx& rc) {
      // lane_count = 0 pins the shared MPSC ring so the stalls land in
      // ring_full_stalls — the knob this ablation sweeps.
      core::OffloadProxy p(rc, core::ProxyOptions{.ring_capacity = cap,
                                                  .lane_count = 0});
      p.start_engine();
      const int peer = 1 - rc.rank();
      std::vector<core::PReq> reqs;
      const sim::Time t0 = sim::now();
      for (int i = 0; i < 512; ++i) {
        reqs.push_back(p.irecv(nullptr, 64, smpi::Datatype::kByte, peer, i));
        reqs.push_back(p.isend(nullptr, 64, smpi::Datatype::kByte, peer, i));
      }
      if (rc.rank() == 0) us = (sim::now() - t0).us();
      p.waitall(reqs);
      if (rc.rank() == 0) stalls = p.channel().stats().ring_full_stalls;
      p.barrier();
      p.stop();
    });
    t.row({fmt_int(static_cast<long long>(cap)),
           fmt_int(static_cast<long long>(stalls)), fmt_us(us, 1)});
  }
  t.print();
}

std::uint64_t fnv1a(const char* data, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

struct A6Cell {
  double comm_us = 0;
  double overlap = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_drops = 0;
  std::uint64_t digest = 0;  ///< FNV over every received payload, in order
};

/// One (approach, drop-rate) cell: 2 ranks exchange a rendezvous message and
/// an eager message per iteration, verify/digest every received byte, and
/// measure overlap the same way overlap_p2p does (wait shrinkage when comm
/// is covered by compute). The digest must not depend on the drop rate —
/// that is the reliability layer's whole contract.
A6Cell a6_run(Approach a, double drop) {
  auto prof = machine::xeon_fdr();
  prof.eager_threshold = 16 << 10;  // rendezvous at 48K, eager at 1K
  prof.rndv_chunk_bytes = 16 << 10;
  prof.faults.on = drop > 0;
  prof.faults.drop = drop;
  prof.faults.dup = drop / 2;
  prof.faults.seed = 42;
  smpi::ClusterConfig cc;
  cc.nranks = 2;
  cc.profile = prof;
  cc.thread_level = core::required_thread_level(a);
  cc.deadline = sim::Time::from_sec(600);
  smpi::Cluster cluster(cc);
  A6Cell cell;
  constexpr std::size_t kBig = 48 << 10;
  constexpr std::size_t kSmall = 1 << 10;
  constexpr int kWarmup = 2, kIters = 8;
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int peer = 1 - rc.rank();
    std::vector<char> sbig(kBig), rbig(kBig), ssmall(kSmall), rsmall(kSmall);
    std::uint64_t digest = 14695981039346656037ull;
    sim::Time wait1 = sim::Time::zero(), wait2 = sim::Time::zero(),
              comm = sim::Time::zero();
    for (int step = 1; step <= 2; ++step) {
      for (int i = 0; i < kWarmup + kIters; ++i) {
        const char fill = static_cast<char>('A' + (rc.rank() * 31 + i) % 23);
        std::memset(sbig.data(), fill, kBig);
        std::memset(ssmall.data(), fill ^ 0x55, kSmall);
        p->barrier();
        const sim::Time t0 = sim::now();
        core::PReq reqs[4] = {
            p->irecv(rbig.data(), kBig, smpi::Datatype::kByte, peer, 1),
            p->irecv(rsmall.data(), kSmall, smpi::Datatype::kByte, peer, 2),
            p->isend(sbig.data(), kBig, smpi::Datatype::kByte, peer, 1),
            p->isend(ssmall.data(), kSmall, smpi::Datatype::kByte, peer, 2)};
        if (step == 2) smpi::compute(sim::Time(comm.ns() / kIters));
        const sim::Time w0 = sim::now();
        p->waitall(reqs);
        const sim::Time w = sim::now() - w0;
        if (i >= kWarmup) {
          (step == 1 ? wait1 : wait2) += w;
          if (step == 1) comm += sim::now() - t0;
        }
        const char expect = static_cast<char>('A' + (peer * 31 + i) % 23);
        for (std::size_t b = 0; b < kBig; ++b) {
          if (rbig[b] != expect) throw std::runtime_error("payload corrupted");
        }
        for (std::size_t b = 0; b < kSmall; ++b) {
          if (rsmall[b] != static_cast<char>(expect ^ 0x55)) {
            throw std::runtime_error("payload corrupted (eager)");
          }
        }
        if (step == 1 && i >= kWarmup) {
          digest = fnv1a(rbig.data(), kBig, digest);
          digest = fnv1a(rsmall.data(), kSmall, digest);
        }
      }
    }
    p->barrier();
    if (rc.rank() == 0) {
      cell.comm_us = comm.us() / kIters;
      cell.overlap = std::max(
          0.0, (wait1.us() - wait2.us()) / kIters / std::max(cell.comm_us, 1e-9));
      cell.digest = digest;
    }
    p->stop();
  });
  for (int r = 0; r < cluster.nranks(); ++r) {
    cell.retransmits += cluster.rank(r).rel_stats().retransmits;
    cell.dup_drops += cluster.rank(r).rel_stats().dup_drops;
  }
  return cell;
}

void a6_fault_sweep() {
  std::printf("\nA6: wire faults (seed 42) — overlap + reliability work vs "
              "drop rate, 48K rndv + 1K eager per iter\n");
  Table t({"drop", "approach", "comm(us)", "overlap%", "retrans", "dup-drops",
           "rx digest"});
  for (double drop : {0.0, 0.02, 0.05}) {
    for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                       Approach::kCommSelf, Approach::kOffload}) {
      const A6Cell c = a6_run(a, drop);
      char dropbuf[16], digbuf[24];
      std::snprintf(dropbuf, sizeof dropbuf, "%.2f", drop);
      std::snprintf(digbuf, sizeof digbuf, "%016llx",
                    static_cast<unsigned long long>(c.digest));
      t.row({dropbuf, core::approach_name(a), fmt_us(c.comm_us),
             fmt_pct(c.overlap), fmt_int(static_cast<long long>(c.retransmits)),
             fmt_int(static_cast<long long>(c.dup_drops)), digbuf});
    }
  }
  t.print();
}

struct A7Cell {
  double window_us = 0;  ///< max(last post end) - min(first post start)
  double rate = 0;       ///< posted messages per microsecond of window
};

/// One (front-end, thread-count) cell: rank 0 runs `threads` submitter
/// fibers, each posting 64 small isends (singly or through post_batch);
/// rank 1 pre-posts the matching irecvs. The figure of merit is the post
/// window across all submitters — with the single shared ring the producers
/// serialize on the tail cache line, with lanes they post in parallel, and
/// batching amortizes the per-command enqueue + doorbell on top.
A7Cell a7_run(std::size_t lanes, bool batch, int threads) {
  constexpr int kPerThread = 64;
  smpi::ClusterConfig cc;
  cc.nranks = 2;
  cc.deadline = sim::Time::from_sec(120);
  smpi::Cluster cluster(cc);
  A7Cell cell;
  cluster.run([&](smpi::RankCtx& rc) {
    core::ProxyOptions opts;
    opts.ring_capacity = 4096;
    opts.pool_capacity = 1u << 15;
    opts.lane_count = lanes;
    opts.lane_capacity = 256;
    core::OffloadProxy p(rc, opts);
    p.start_engine();
    if (rc.rank() == 0) {
      auto done = std::make_shared<int>(0);
      auto done_n = std::make_shared<sim::Notifier>(sim::Time(200));
      auto t_min = std::make_shared<sim::Time>(sim::Time::max());
      auto t_max = std::make_shared<sim::Time>(sim::Time::zero());
      auto submit = [&p, done, done_n, t_min, t_max, batch](int tid) {
        std::vector<core::PReq> reqs(kPerThread);
        const sim::Time t0 = sim::now();
        if (batch) {
          std::vector<core::Command> ops;
          ops.reserve(kPerThread);
          for (int i = 0; i < kPerThread; ++i) {
            ops.push_back(core::Command::isend(nullptr, 8, smpi::Datatype::kByte,
                                               1, tid * 1000 + i));
          }
          p.post_batch(ops, reqs);
        } else {
          for (int i = 0; i < kPerThread; ++i) {
            reqs[i] =
                p.isend(nullptr, 8, smpi::Datatype::kByte, 1, tid * 1000 + i);
          }
        }
        const sim::Time t1 = sim::now();
        *t_min = std::min(*t_min, t0);
        *t_max = std::max(*t_max, t1);
        p.waitall(reqs);
        ++*done;
        done_n->signal();
      };
      for (int t = 1; t < threads; ++t) {
        rc.cluster().spawn_on(0, "sub" + std::to_string(t),
                              [submit, t]() { submit(t); });
      }
      submit(0);
      // Sleep on the submitter-exit notifier instead of spinning the clock.
      for (std::uint64_t seen = 0; *done < threads;) {
        seen = done_n->wait_beyond(seen);
      }
      cell.window_us = (*t_max - *t_min).us();
      cell.rate =
          threads * kPerThread / std::max(cell.window_us, 1e-9);
    } else {
      std::vector<core::PReq> reqs;
      reqs.reserve(static_cast<std::size_t>(threads) * kPerThread);
      for (int t = 0; t < threads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
          reqs.push_back(
              p.irecv(nullptr, 8, smpi::Datatype::kByte, 0, t * 1000 + i));
        }
      }
      p.waitall(reqs);
    }
    p.barrier();
    report_proxy_stats(p);
    p.stop();
  });
  return cell;
}

void a7_submission_lanes() {
  std::printf("\nA7: submission front-end — single shared ring vs per-thread "
              "lanes vs lanes+batching, 64 isends/thread\n");
  const std::vector<int> threads = Runner::smoke_enabled()
                                       ? std::vector<int>{1, 8}
                                       : std::vector<int>{1, 2, 4, 8, 16};
  Table t({"threads", "single-ring(us)", "lanes(us)", "lanes+batch(us)",
           "rate speedup"});
  for (int T : threads) {
    const A7Cell s = a7_run(0, false, T);
    const A7Cell l = a7_run(16, false, T);
    const A7Cell b = a7_run(16, true, T);
    char spd[16];
    std::snprintf(spd, sizeof spd, "%.2fx", b.rate / std::max(s.rate, 1e-12));
    t.row({fmt_int(T), fmt_us(s.window_us, 2), fmt_us(l.window_us, 2),
           fmt_us(b.window_us, 2), spd});
  }
  t.print();
}

struct A8Cell {
  double us = 0;                       ///< pure allreduce time
  std::uint64_t amortized = 0;         ///< doorbells saved by stage batching
};

/// One (forced algorithm, doorbell batching) cell: 8 offload ranks time a
/// pure (phantom-buffer) float-sum allreduce of `bytes`.
A8Cell a8_run(smpi::CollAlgo algo, bool batch, std::size_t bytes) {
  smpi::ClusterConfig cc;
  cc.nranks = 8;
  cc.profile = machine::xeon_fdr();
  cc.profile.coll_batch_doorbells = batch;
  cc.allreduce_algo = algo;
  cc.thread_level = core::required_thread_level(Approach::kOffload);
  cc.deadline = sim::Time::from_sec(600);
  smpi::Cluster cluster(cc);
  A8Cell cell;
  constexpr int kWarmup = 1, kIters = 4;
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(Approach::kOffload, rc);
    p->start_engine();
    const std::size_t count = bytes / sizeof(float);
    sim::Time acc = sim::Time::zero();
    for (int i = 0; i < kWarmup + kIters; ++i) {
      p->barrier();
      const sim::Time t0 = sim::now();
      core::PReq rq = p->iallreduce(nullptr, nullptr, count,
                                    smpi::Datatype::kFloat, smpi::Op::kSum);
      p->wait(rq);
      if (i >= kWarmup) acc += sim::now() - t0;
    }
    p->barrier();
    if (rc.rank() == 0) cell.us = acc.us() / kIters;
    p->stop();
  });
  cell.amortized = cluster.rank(0).coll_stats().doorbells_amortized;
  return cell;
}

void a8_coll_algorithms() {
  std::printf("\nA8: allreduce algorithm — recursive doubling vs segmented "
              "ring vs ring+doorbell-batch, 8 ranks, offload, float sum\n");
  // Cheap even at 4M (phantom payloads), so smoke mode runs the full sweep
  // and the smoke pin holds the whole speedup curve.
  const std::vector<std::size_t> sizes = {64u << 10, 256u << 10, 1u << 20,
                                          4u << 20};
  Table t({"size", "rdbl(us)", "ring(us)", "ring+batch(us)", "eff.bw speedup",
           "amortized"});
  for (std::size_t bytes : sizes) {
    const A8Cell rd = a8_run(smpi::CollAlgo::kRecursiveDoubling, false, bytes);
    const A8Cell rg = a8_run(smpi::CollAlgo::kRing, false, bytes);
    const A8Cell rb = a8_run(smpi::CollAlgo::kRing, true, bytes);
    // Effective bandwidth ~ bytes / time, so the bandwidth ratio is the
    // inverse time ratio; report ring+batch vs recursive doubling.
    const double speedup = rd.us / std::max(rb.us, 1e-9);
    char spd[16];
    std::snprintf(spd, sizeof spd, "%.2fx", speedup);
    t.row({fmt_bytes(bytes), fmt_us(rd.us), fmt_us(rg.us), fmt_us(rb.us), spd,
           fmt_int(static_cast<long long>(rb.amortized))});
    if (Runner::stats_enabled()) {
      std::printf(
          "[stats] a8 allreduce: bytes=%zu rdbl_us=%.3f ring_us=%.3f "
          "ring_batch_us=%.3f speedup=%.2f amortized=%llu\n",
          bytes, rd.us, rg.us, rb.us, speedup,
          static_cast<unsigned long long>(rb.amortized));
    }
  }
  t.print();
}

struct A9Cell {
  double post_us = 0;
  double wait_us = 0;
};

/// One (approach, completion-mode) cell: the Dslash harness at a small
/// problem (cheap enough for smoke mode), either polling waitall or arming
/// the when_all continuation graph at post time. The figure of merit is the
/// application thread's MPI time per iteration — post + wait — which is
/// exactly what the continuation subsystem exists to shrink.
A9Cell a9_run(Approach a, bool continuations) {
  qcd::QcdPerfConfig cfg;
  cfg.global = {16, 16, 16, 64};
  cfg.nodes = 4;
  cfg.iters = 5;
  cfg.warmup = 1;
  cfg.approach = a;
  cfg.continuations = continuations;
  const qcd::QcdPerfResult r = qcd::run_qcd_perf(cfg);
  if (continuations && Runner::stats_enabled() &&
      r.cont_armed + r.cont_inline + r.cont_posts != 0) {
    std::printf(
        "[stats] a9 %s cont: armed=%llu executed=%llu deferred=%llu "
        "inline=%llu posts=%llu\n",
        core::approach_name(a),
        static_cast<unsigned long long>(r.cont_armed),
        static_cast<unsigned long long>(r.cont_executed),
        static_cast<unsigned long long>(r.cont_deferred),
        static_cast<unsigned long long>(r.cont_inline),
        static_cast<unsigned long long>(r.cont_posts));
  }
  return {r.post_us, r.wait_us};
}

void a9_continuations() {
  std::printf("\nA9: completion discovery — polling waitall vs when_all "
              "continuation graph, Dslash app-thread MPI time (8 ranks, "
              "16^3x64)\n");
  Table t({"approach", "poll post+wait(us)", "cont post+wait(us)",
           "app MPI drop"});
  for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                     Approach::kCommSelf, Approach::kOffload}) {
    const A9Cell poll = a9_run(a, false);
    const A9Cell cont = a9_run(a, true);
    const double poll_mpi = poll.post_us + poll.wait_us;
    const double cont_mpi = cont.post_us + cont.wait_us;
    const double drop = (poll_mpi - cont_mpi) / std::max(poll_mpi, 1e-9);
    t.row({core::approach_name(a), fmt_us(poll_mpi), fmt_us(cont_mpi),
           fmt_pct(drop)});
    if (Runner::stats_enabled()) {
      std::printf(
          "[stats] a9 qcd: approach=%s poll_post_us=%.3f poll_wait_us=%.3f "
          "cont_post_us=%.3f cont_wait_us=%.3f app_mpi_drop=%.3f\n",
          core::approach_name(a), poll.post_us, poll.wait_us, cont.post_us,
          cont.wait_us, drop);
    }
  }
  t.print();
}

struct A10Cell {
  double rate = 0;          ///< completed messages per us of the send window
  std::uint64_t stolen = 0; ///< commands siblings drained from the hot engine
};

/// One (proxy-count, distribution) cell: rank 0 runs 8 submitter fibers, each
/// posting 64 small isends and waiting them out; ranks 1..4 pre-post the
/// matching receives. Skewed sends everything to peer 1 (the peer-hash
/// partition lands the full stream on ONE engine — only stealing can spread
/// it); uniform spreads submitters over all four peers (the partition itself
/// shards the load). The figure of merit is end-to-end: first post to last
/// completed waitall, so engine drain/issue/completion throughput — not the
/// submission front-end A7 already measures — dominates.
A10Cell a10_run(std::size_t proxies, bool skewed) {
  constexpr int kThreads = 8, kPerThread = 64, kPeers = 4;
  smpi::ClusterConfig cc;
  cc.nranks = 1 + kPeers;
  cc.deadline = sim::Time::from_sec(120);
  smpi::Cluster cluster(cc);
  A10Cell cell;
  cluster.run([&](smpi::RankCtx& rc) {
    core::ProxyOptions opts;
    opts.ring_capacity = 4096;
    opts.pool_capacity = 1u << 15;
    opts.lane_count = 16;
    opts.lane_capacity = 256;
    opts.proxy_count = proxies;
    core::OffloadProxy p(rc, opts);
    p.start_engine();
    if (rc.rank() == 0) {
      auto done = std::make_shared<int>(0);
      auto done_n = std::make_shared<sim::Notifier>(sim::Time(200));
      auto t_min = std::make_shared<sim::Time>(sim::Time::max());
      auto t_max = std::make_shared<sim::Time>(sim::Time::zero());
      auto submit = [&p, done, done_n, t_min, t_max, skewed](int tid) {
        const int peer = skewed ? 1 : 1 + (tid % kPeers);
        std::vector<core::PReq> reqs(kPerThread);
        const sim::Time t0 = sim::now();
        for (int i = 0; i < kPerThread; ++i) {
          reqs[static_cast<std::size_t>(i)] = p.isend(
              nullptr, 8, smpi::Datatype::kByte, peer, tid * 1000 + i);
        }
        p.waitall(reqs);
        const sim::Time t1 = sim::now();
        *t_min = std::min(*t_min, t0);
        *t_max = std::max(*t_max, t1);
        ++*done;
        done_n->signal();
      };
      for (int t = 1; t < kThreads; ++t) {
        rc.cluster().spawn_on(0, "sub" + std::to_string(t),
                              [submit, t]() { submit(t); });
      }
      submit(0);
      for (std::uint64_t seen = 0; *done < kThreads;) {
        seen = done_n->wait_beyond(seen);
      }
      cell.rate = kThreads * kPerThread /
                  std::max((*t_max - *t_min).us(), 1e-9);
      cell.stolen = p.channel().stats().steal_commands;
    } else {
      std::vector<core::PReq> reqs;
      for (int t = 0; t < kThreads; ++t) {
        const int peer = skewed ? 1 : 1 + (t % kPeers);
        if (peer != rc.rank()) continue;
        for (int i = 0; i < kPerThread; ++i) {
          reqs.push_back(
              p.irecv(nullptr, 8, smpi::Datatype::kByte, 0, t * 1000 + i));
        }
      }
      p.waitall(reqs);
    }
    p.barrier();
    p.stop();
  });
  return cell;
}

void a10_proxy_scaling() {
  std::printf("\nA10: sharded progress engine — message rate vs proxy count, "
              "8 submitter threads x 64 isends, skewed (all->peer 1) vs "
              "uniform (4 peers)\n");
  Table t({"proxies", "skew rate(msg/us)", "uniform rate(msg/us)",
           "skew speedup", "stolen"});
  double skew1 = 0;
  for (std::size_t n : {1u, 2u, 4u}) {
    const A10Cell s = a10_run(n, /*skewed=*/true);
    const A10Cell u = a10_run(n, /*skewed=*/false);
    if (n == 1) skew1 = s.rate;
    const double speedup = s.rate / std::max(skew1, 1e-12);
    char sr[16], ur[16], spd[16];
    std::snprintf(sr, sizeof sr, "%.3f", s.rate);
    std::snprintf(ur, sizeof ur, "%.3f", u.rate);
    std::snprintf(spd, sizeof spd, "%.2fx", speedup);
    t.row({fmt_int(static_cast<long long>(n)), sr, ur, spd,
           fmt_int(static_cast<long long>(s.stolen))});
    if (Runner::stats_enabled()) {
      std::printf(
          "[stats] a10 proxies: n=%zu skew_rate=%.3f uniform_rate=%.3f "
          "skew_speedup=%.2f stolen=%llu\n",
          n, s.rate, u.rate, speedup,
          static_cast<unsigned long long>(s.stolen));
    }
  }
  t.print();
}

/// One A11 cell: rank 0 runs 8 submitter fibers against peer 1 over a
/// 4-engine offload proxy, each fiber pushing kGens generations of a
/// kWin-message window and waiting each window out.
/// Persistent mode pays send_init for the window ONCE, then every generation
/// is start+wait on the same handles; one-shot mode re-posts isend every
/// time. The receiver mirrors the mode (recv_init windows vs irecv). Rate is
/// total messages over the union of the per-thread post-to-drain windows —
/// the same figure of merit as A10, so the two tables compose.
double a11_run(bool persistent) {
  constexpr int kThreads = 8, kWin = 32, kGens = 16;
  smpi::ClusterConfig cc;
  cc.nranks = 2;
  cc.deadline = sim::Time::from_sec(120);
  smpi::Cluster cluster(cc);
  double rate = 0;
  cluster.run([&](smpi::RankCtx& rc) {
    core::ProxyOptions opts;
    opts.ring_capacity = 4096;
    opts.pool_capacity = 1u << 15;
    opts.lane_count = 16;
    opts.lane_capacity = 256;
    opts.proxy_count = 4;
    core::OffloadProxy p(rc, opts);
    p.start_engine();
    const bool sender = rc.rank() == 0;
    auto done = std::make_shared<int>(0);
    auto done_n = std::make_shared<sim::Notifier>(sim::Time(200));
    auto t_min = std::make_shared<sim::Time>(sim::Time::max());
    auto t_max = std::make_shared<sim::Time>(sim::Time::zero());
    auto worker = [&p, done, done_n, t_min, t_max, sender,
                   persistent](int tid) {
      const int peer = sender ? 1 : 0;
      const sim::Time t0 = sim::now();
      if (persistent) {
        std::vector<core::PersistentReq> win(kWin);
        for (int w = 0; w < kWin; ++w) {
          const int tag = tid * 100 + w;
          win[static_cast<std::size_t>(w)] =
              sender ? p.send_init(nullptr, 8, smpi::Datatype::kByte, peer,
                                   tag)
                     : p.recv_init(nullptr, 8, smpi::Datatype::kByte, peer,
                                   tag);
        }
        for (int g = 0; g < kGens; ++g) {
          p.startall(win);
          for (auto& r : win) p.wait(r);
        }
        for (auto& r : win) p.request_free(r);
      } else {
        std::vector<core::PReq> win(kWin);
        for (int g = 0; g < kGens; ++g) {
          for (int w = 0; w < kWin; ++w) {
            const int tag = tid * 100 + w;
            win[static_cast<std::size_t>(w)] =
                sender ? p.isend(nullptr, 8, smpi::Datatype::kByte, peer, tag)
                       : p.irecv(nullptr, 8, smpi::Datatype::kByte, peer, tag);
          }
          p.waitall(win);
        }
      }
      const sim::Time t1 = sim::now();
      *t_min = std::min(*t_min, t0);
      *t_max = std::max(*t_max, t1);
      ++*done;
      done_n->signal();
    };
    constexpr int kThreadsHere = kThreads;
    for (int t = 1; t < kThreadsHere; ++t) {
      rc.cluster().spawn_on(rc.rank(), "sub" + std::to_string(t),
                            [worker, t]() { worker(t); });
    }
    worker(0);
    for (std::uint64_t seen = 0; *done < kThreadsHere;) {
      seen = done_n->wait_beyond(seen);
    }
    if (sender) {
      rate = kThreads * kWin * kGens /
             std::max((*t_max - *t_min).us(), 1e-9);
    }
    p.barrier();
    p.stop();
  });
  return rate;
}

void a11_persistent() {
  std::printf("\nA11: persistent requests — init-once/start-many vs one-shot "
              "isend, 8 submitter threads x 16 generations x 16-message "
              "windows, offload proxy with 4 engine fibers\n");
  const double oneshot = a11_run(/*persistent=*/false);
  const double persist = a11_run(/*persistent=*/true);
  const double speedup = persist / std::max(oneshot, 1e-12);
  Table t({"mode", "rate(msg/us)", "speedup"});
  char r0[16], r1[16], spd[16];
  std::snprintf(r0, sizeof r0, "%.3f", oneshot);
  std::snprintf(r1, sizeof r1, "%.3f", persist);
  std::snprintf(spd, sizeof spd, "%.2fx", speedup);
  t.row({"one-shot isend", r0, "1.00x"});
  t.row({"persistent start", r1, spd});
  t.print();
  if (Runner::stats_enabled()) {
    std::printf("[stats] a11 persistent: oneshot_rate=%.3f persist_rate=%.3f "
                "speedup=%.2f\n",
                oneshot, persist, speedup);
  }
}

}  // namespace

int main() {
  benchlib::Runner runner;
  // Smoke mode (MPIOFF_BENCH_SMOKE=1, CI) runs only the A7 front-end
  // ablation (reduced thread sweep), the A8 collective-algorithm ablation,
  // the A9 continuation ablation, the A10 proxy-count scaling sweep and the
  // A11 persistent-request ablation; the full run does everything.
  if (!Runner::smoke_enabled()) {
    a1_eager_threshold();
    a2_pipeline_depth();
    a3_detect_latency();
    a4_dedicated_core();
    a5_ring_capacity();
    // A6 only perturbs the wire when MPIOFF_FAULTS-style faults are active in
    // its own profiles; with the default run it still executes (drop=0 row is
    // the control showing zero reliability-layer work).
    a6_fault_sweep();
  }
  a7_submission_lanes();
  a8_coll_algorithms();
  a9_continuations();
  a10_proxy_scaling();
  a11_persistent();
  return 0;
}
