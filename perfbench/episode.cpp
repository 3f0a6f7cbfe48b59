// Benchmark episode runner: runs one workload once, in its own process, and
// prints one JSON line of raw results (virtual-time samples, host clocks,
// program counters, output checks). run.py aggregates episodes into the
// benchmark's metrics; NOTES.md says why each workload exists.
//
//   perfbench_episode --workload {mt_window|halo|bulk_allreduce|serve_slo}
//                     --seed N [--trace-out FILE] [--canary-host-ns N]
//                     [--enqueue-delta-ns N] [--corrupt] [--sweep]
//
// --trace-out records one span per benchmark call into a layer and writes
// them to FILE at exit; --canary-host-ns burns host CPU at every proxy-call
// boundary; --enqueue-delta-ns raises Profile::cmd_enqueue; --corrupt flips
// one received buffer on the benchmark side; --sweep (serve_slo) searches
// the highest offered rate that meets the SLO.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/serve/serve.hpp"
#include "core/proxy.hpp"
#include "core/proxy_options.hpp"
#include "machine/profile.hpp"
#include "mpi/cluster.hpp"
#include "probe.hpp"
#include "sim/sync.hpp"

extern char** environ;

namespace {

using perfbench::Counts;
using perfbench::Kind;
using perfbench::Recorder;
using perfbench::Usage;
using smpi::Datatype;

// Workload sizes: enough timed work that the seed-to-seed spread of the vt
// metrics stays small, while one episode stays a few host seconds so a run
// can take the median of several.
constexpr int kMtThreads = 8, kMtWindow = 32, kMtWarm = 2, kMtRounds = 144;
constexpr int kHaloDim = 8, kHaloFaceBytes = 4096, kHaloChunks = 8,
              kHaloWarm = 1, kHaloIters = 5;
constexpr int kBulkRanks = 8, kBulkWarm = 1, kBulkIters = 32;
constexpr std::size_t kBulkDoubles = std::size_t{1} << 20;  // 8 MiB
// serve_slo, per edge. ServeResult interpolates quantiles inside
// power-of-two buckets, and its p99 sits on the 16.384 us bucket edge: from
// seed to seed it jumps between 16.3 and 23 us. 32000 requests leave 32
// beyond p99.9, so the tail is p99.9, which lies inside the next bucket.
// The slo_max_rps sweep runs eight configurations and reads only p99
// against the 150 us SLO, so it uses fewer requests.
constexpr std::size_t kServeRequests = 16000;
constexpr std::size_t kSweepRequests = 4000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string trace_out;
  std::int64_t canary_host_ns = 0;
  std::int64_t enqueue_delta_ns = 0;
  bool corrupt = false;
  bool sweep = false;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0, std::uint64_t d = 0) {
  return mix(seed ^ mix(a ^ mix(b ^ mix(c ^ mix(d)))));
}

/// Seeded host-independent compute jitter in [0, span_ns).
sim::Time jitter(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                 std::uint64_t c, std::int64_t span_ns) {
  return sim::Time(static_cast<std::int64_t>(mix(seed, 0x71, a, b, c) %
                                             static_cast<std::uint64_t>(span_ns)));
}

machine::Profile profile_for(const Options& o) {
  machine::Profile p = machine::xeon_fdr();
  p.cmd_enqueue += sim::Time(o.enqueue_delta_ns);
  return p;
}

/// What one episode measured.
struct Episode {
  std::uint64_t ops = 0;  ///< ops completed in the timed region
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> lat_us;  ///< per-sample virtual latency, timed region
  std::vector<double> posted_depth;
  sim::Time t0, t1;  ///< virtual bounds of the timed region
  Usage u0, u1;      ///< host usage at the same bounds
  Counts c0, c1;
  std::uint64_t digest = 0;  ///< order-independent digest of verified data
  int nranks = 0;
  int app_threads = 0;  ///< application fibers (all ranks)
  double link_bytes_per_ns = 0;
  double setup_cpu_s = 0;   ///< process CPU from start to first timed op
  double timed_cpu_s = 0;
  std::uint64_t calls0 = 0, calls1 = 0;  ///< benchmark calls at the bounds
  /// (process CPU s, timed ops done) at the timed-region bounds and at each
  /// crossing of a window boundary in between.
  std::vector<std::pair<double, std::uint64_t>> checkpoints;
  std::uint64_t done = 0;
  // serve_slo only
  bool serve = false;
  serve::ServeResult sr;
  double tail_pct = 0;
  double tail_us = 0;
};

void add_digest(Episode& ep, std::uint64_t v) { ep.digest += mix(v); }

/// A Cluster plus the per-rank proxies the benchmark reads stats from.
struct Job {
  Recorder& rec;
  Episode& ep;
  std::unique_ptr<smpi::Cluster> cluster;
  /// Owned here, not by the rank fibers: rank 0 reads every rank's stats at
  /// the end of the timed region, after other ranks may have returned.
  std::vector<std::unique_ptr<core::Proxy>> owned;
  std::vector<core::Proxy*> proxies;

  Job(Recorder& r, Episode& e, smpi::ClusterConfig cc) : rec(r), ep(e) {
    ep.nranks = cc.nranks;
    ep.link_bytes_per_ns = cc.profile.net_bytes_per_ns;
    rec.call("mpi", "Cluster::Cluster", Kind::kSetup, 0, [&] {
      cluster = std::make_unique<smpi::Cluster>(std::move(cc));
    });
    proxies.assign(static_cast<std::size_t>(ep.nranks), nullptr);
    owned.resize(proxies.size());
  }

  /// Create, start and register rank `rc`'s proxy.
  core::Proxy* make_proxy(smpi::RankCtx& rc, core::Approach a,
                          const core::ProxyOptions& opts) {
    auto& slot = owned[static_cast<std::size_t>(rc.rank())];
    slot = core::make_proxy(a, rc, opts);
    slot->start_engine();
    proxies[static_cast<std::size_t>(rc.rank())] = slot.get();
    return slot.get();
  }

  void run(const std::function<void(smpi::RankCtx&)>& body) {
    std::uint32_t id = 0;
    const sim::Time end = rec.call("mpi", "Cluster::run", Kind::kRun, 0, [&] {
      id = rec.last_id();
      rec.set_parent(id);
      const sim::Time t = cluster->run(body);
      rec.set_parent(0);
      return t;
    });
    // No engine is current once run returns; stamp the span's virtual end.
    if (rec.tracing()) rec.set_end_vt(id, end.ns());
  }

  void mark_start() {
    ep.t0 = sim::now();
    ep.c0 = perfbench::read_counts(*cluster, proxies);
    ep.calls0 = rec.calls();
    ep.u0 = perfbench::usage_now();
    ep.setup_cpu_s = ep.u0.cpu_s();
    ep.checkpoints.emplace_back(ep.u0.cpu_s(), 0);
  }
  /// Count `n` timed ops done; record a checkpoint each time another
  /// `step` ops are done. The windows between checkpoints hold the same work
  /// in every episode of a seed, so a run can take each window's median
  /// host time across episodes.
  void ops_done(std::uint64_t n, std::uint64_t step, std::uint64_t total) {
    const std::uint64_t before = ep.done;
    ep.done += n;
    if (ep.done / step != before / step && ep.done < total) {
      ep.checkpoints.emplace_back(perfbench::usage_now().cpu_s(), ep.done);
    }
  }
  void mark_end() {
    ep.u1 = perfbench::usage_now();
    ep.checkpoints.emplace_back(ep.u1.cpu_s(), ep.done);
    ep.calls1 = rec.calls();
    ep.c1 = perfbench::read_counts(*cluster, proxies);
    ep.t1 = sim::now();
    ep.timed_cpu_s = ep.u1.cpu_s() - ep.u0.cpu_s();
  }
};

// ---- mt_window -----------------------------------------------------------
// GHEX mpi_mt shape: 2 ranks x 8 threads, each thread a closed loop of
// 32-message windows (irecv+isend per slot, then waitall), offload with 4
// engines.

std::uint64_t mt_stamp(std::uint64_t seed, int sender, int thread, int slot,
                       int round) {
  return mix(seed, 0x6d74, static_cast<std::uint64_t>(sender),
             static_cast<std::uint64_t>(thread * kMtWindow + slot),
             static_cast<std::uint64_t>(round));
}

void run_mt_window(const Options& o, Recorder& rec, Episode& ep) {
  smpi::ClusterConfig cc;
  cc.nranks = 2;
  cc.profile = profile_for(o);
  cc.thread_level = core::required_thread_level(core::Approach::kOffload);
  cc.deadline = sim::Time::from_sec(60);
  core::ProxyOptions popts = core::ProxyOptions::defaults_for(cc.profile);
  popts.proxy_count = 4;
  Job job(rec, ep, cc);
  ep.app_threads = cc.nranks * kMtThreads;
  constexpr std::uint64_t mt_ops = 2 * kMtThreads * kMtWindow * kMtRounds;
  bool corrupt_pending = o.corrupt;

  job.run([&](smpi::RankCtx& rc) {
    core::Proxy* p = job.make_proxy(rc, core::Approach::kOffload, popts);
    const int me = rc.rank(), peer = 1 - me;
    auto team = std::make_shared<sim::Barrier>(kMtThreads);

    // Every thread of both ranks passes the boundary before rank 0 marks it.
    auto boundary = [&job, p, me, team](int t, bool start) {
      team->arrive_and_wait();
      if (t == 0) {
        job.rec.call("core", "barrier", Kind::kColl, 0, [&] { p->barrier(); });
        if (me == 0) start ? job.mark_start() : job.mark_end();
      }
      team->arrive_and_wait();
    };

    auto thread_main = [&, p, me, peer, boundary](int t) {
      std::vector<std::uint64_t> sbuf(kMtWindow), rbuf(kMtWindow);
      std::vector<core::PReq> reqs(2 * kMtWindow);
      for (int round = 0; round < kMtWarm + kMtRounds; ++round) {
        if (round == kMtWarm) boundary(t, true);
        const bool timed = round >= kMtWarm;
        const std::uint64_t op_base =
            (static_cast<std::uint64_t>(me * kMtThreads + t) << 40) |
            (static_cast<std::uint64_t>(round) << 16);
        const sim::Time v0 = sim::now();
        for (int s = 0; s < kMtWindow; ++s) {
          rbuf[s] = 0;
          reqs[s] = rec.call("core", "irecv", Kind::kPost, op_base | s, [&] {
            return p->irecv(&rbuf[s], sizeof(std::uint64_t), Datatype::kByte,
                            peer, t * kMtWindow + s);
          });
          if (timed) ep.posted_depth.push_back(
              static_cast<double>(rc.matching().posted_count()));
        }
        for (int s = 0; s < kMtWindow; ++s) {
          sbuf[s] = mt_stamp(o.seed, me, t, s, round);
          reqs[kMtWindow + s] =
              rec.call("core", "isend", Kind::kPost, op_base | (0x100 + s), [&] {
                return p->isend(&sbuf[s], sizeof(std::uint64_t),
                                Datatype::kByte, peer, t * kMtWindow + s);
              });
        }
        rec.call("core", "waitall", Kind::kWait, op_base,
                 [&] { p->waitall(reqs); });
        if (timed) {
          ep.lat_us.push_back((sim::now() - v0).us());
          if (corrupt_pending) {
            rbuf[0] ^= 1;
            corrupt_pending = false;
          }
          for (int s = 0; s < kMtWindow; ++s) {
            ++ep.attempted;
            if (rbuf[s] != mt_stamp(o.seed, peer, t, s, round)) ++ep.failed;
            add_digest(ep, rbuf[s]);
          }
          job.ops_done(kMtWindow, mt_ops / 8, mt_ops);
        }
        smpi::compute(jitter(o.seed, static_cast<std::uint64_t>(me),
                             static_cast<std::uint64_t>(t),
                             static_cast<std::uint64_t>(round), 1000));
      }
      boundary(t, false);
    };

    for (int t = 1; t < kMtThreads; ++t) {
      rc.cluster().spawn_on(me, "app" + std::to_string(t),
                            [thread_main, t] { thread_main(t); });
    }
    thread_main(0);
    p->stop();
  });
  ep.ops = mt_ops;
}

// ---- halo ----------------------------------------------------------------
// 8x8x8 periodic grid (512 ranks): persistent 4 KB face exchange with 6
// neighbours, compute in 8 chunks, wait, one 8-byte allreduce. Offload with
// the profile-default engine count.

std::uint64_t halo_stamp(std::uint64_t seed, int sender, int dir, int gen) {
  return mix(seed, 0x68616c6f, static_cast<std::uint64_t>(sender),
             static_cast<std::uint64_t>(dir), static_cast<std::uint64_t>(gen));
}
/// Integer-valued per-rank contribution, so the allreduce sum is exact.
double halo_value(std::uint64_t seed, int rank, int gen) {
  return static_cast<double>(mix(seed, 0x72, static_cast<std::uint64_t>(rank),
                                 static_cast<std::uint64_t>(gen)) %
                             4096);
}

void run_halo(const Options& o, Recorder& rec, Episode& ep) {
  constexpr int n = kHaloDim * kHaloDim * kHaloDim;
  constexpr std::size_t words = kHaloFaceBytes / sizeof(std::uint64_t);
  smpi::ClusterConfig cc;
  cc.nranks = n;
  cc.profile = profile_for(o);
  cc.thread_level = core::required_thread_level(core::Approach::kOffload);
  cc.deadline = sim::Time::from_sec(60);
  const core::ProxyOptions popts = core::ProxyOptions::defaults_for(cc.profile);
  Job job(rec, ep, cc);
  ep.app_threads = n;
  constexpr std::uint64_t halo_ops = std::uint64_t{n} * kHaloIters;
  bool corrupt_pending = o.corrupt;

  std::vector<double> expected_sum(kHaloWarm + kHaloIters, 0.0);
  for (int g = 0; g < kHaloWarm + kHaloIters; ++g) {
    for (int r = 0; r < n; ++r) expected_sum[g] += halo_value(o.seed, r, g);
  }

  job.run([&](smpi::RankCtx& rc) {
    core::Proxy* p = job.make_proxy(rc, core::Approach::kOffload, popts);
    const int me = rc.rank();
    const int x = me % kHaloDim, y = (me / kHaloDim) % kHaloDim,
              z = me / (kHaloDim * kHaloDim);
    auto at = [](int i, int j, int k) {
      auto w = [](int v) { return (v + kHaloDim) % kHaloDim; };
      return w(i) + kHaloDim * (w(j) + kHaloDim * w(k));
    };
    // Direction d sends to nbr[d]; the face travelling in d arrives from
    // nbr[d ^ 1] with tag d.
    const int nbr[6] = {at(x + 1, y, z), at(x - 1, y, z), at(x, y + 1, z),
                        at(x, y - 1, z), at(x, y, z + 1), at(x, y, z - 1)};
    std::vector<std::vector<std::uint64_t>> sbuf(6, std::vector<std::uint64_t>(words)),
        rbuf(6, std::vector<std::uint64_t>(words));
    std::vector<core::PersistentReq> reqs(12);
    for (int d = 0; d < 6; ++d) {
      reqs[d] = rec.call("core", "recv_init", Kind::kSetup, 0, [&] {
        return p->recv_init(rbuf[d].data(), kHaloFaceBytes, Datatype::kByte,
                            nbr[d ^ 1], d);
      });
      reqs[6 + d] = rec.call("core", "send_init", Kind::kSetup, 0, [&] {
        return p->send_init(sbuf[d].data(), kHaloFaceBytes, Datatype::kByte,
                            nbr[d], d);
      });
    }

    for (int g = 0; g < kHaloWarm + kHaloIters; ++g) {
      if (g == kHaloWarm) {
        rec.call("core", "barrier", Kind::kColl, 0, [&] { p->barrier(); });
        if (me == 0) job.mark_start();
      }
      const bool timed = g >= kHaloWarm;
      const std::uint64_t op = (static_cast<std::uint64_t>(me) << 16) |
                               static_cast<std::uint64_t>(g);
      for (int d = 0; d < 6; ++d) {
        const std::uint64_t s = halo_stamp(o.seed, me, d, g);
        sbuf[d].front() = s;
        sbuf[d].back() = ~s;
        rbuf[d].front() = rbuf[d].back() = 0;
      }
      const sim::Time v0 = sim::now();
      rec.call("core", "startall", Kind::kPost, op, [&] { p->startall(reqs); });
      if (timed) ep.posted_depth.push_back(
          static_cast<double>(rc.matching().posted_count()));
      for (int c = 0; c < kHaloChunks; ++c) {
        smpi::compute(sim::Time::from_us(2) +
                      jitter(o.seed, static_cast<std::uint64_t>(me),
                             static_cast<std::uint64_t>(g),
                             static_cast<std::uint64_t>(c), 200));
      }
      for (auto& r : reqs) {
        rec.call("core", "wait", Kind::kWait, op, [&] { p->wait(r); });
      }
      const double mine = halo_value(o.seed, me, g);
      double sum = 0;
      // Blocking: counted with the waits, as the time this rank is held.
      rec.call("core", "allreduce", Kind::kWait, op, [&] {
        p->allreduce(&mine, &sum, 1, Datatype::kDouble, smpi::Op::kSum);
      });
      if (!timed) continue;
      ep.lat_us.push_back((sim::now() - v0).us());
      if (corrupt_pending && me == 0) {
        rbuf[0].front() ^= 1;
        corrupt_pending = false;
      }
      bool ok = sum == expected_sum[static_cast<std::size_t>(g)];
      for (int d = 0; d < 6; ++d) {
        const std::uint64_t s = halo_stamp(o.seed, nbr[d ^ 1], d, g);
        ok = ok && rbuf[d].front() == s && rbuf[d].back() == ~s;
        add_digest(ep, rbuf[d].front());
      }
      ++ep.attempted;
      if (!ok) ++ep.failed;
      job.ops_done(1, n, halo_ops);  // a window per iteration
    }
    rec.call("core", "barrier", Kind::kColl, 0, [&] { p->barrier(); });
    if (me == 0) job.mark_end();
    // The requests are left to the proxy's teardown: request_free here makes
    // a rank's offload engine never exit stop() at this scale (NOTES.md).
    p->stop();
  });
  ep.ops = halo_ops;
}

// ---- bulk_allreduce --------------------------------------------------------
// 8 ranks, 8 MiB iallreduce of doubles overlapped with compute, baseline
// approach (progress only inside wait). Checked against the closed form.

/// Rank r contributes (r + 1) * bulk_base(i): integers, so the sum is exact.
double bulk_base(std::uint64_t offset, std::size_t i) {
  return static_cast<double>(((i * 2654435761u) + offset) & 2047u) - 1024.0;
}

void run_bulk(const Options& o, Recorder& rec, Episode& ep) {
  smpi::ClusterConfig cc;
  cc.nranks = kBulkRanks;
  cc.profile = profile_for(o);
  cc.thread_level = core::required_thread_level(core::Approach::kBaseline);
  cc.deadline = sim::Time::from_sec(60);
  Job job(rec, ep, cc);
  ep.app_threads = kBulkRanks;
  constexpr double kRankSum = kBulkRanks * (kBulkRanks + 1) / 2;
  std::vector<int> bad(kBulkWarm + kBulkIters, 0);
  bool corrupt_pending = o.corrupt;

  job.run([&](smpi::RankCtx& rc) {
    core::Proxy* p = job.make_proxy(rc, core::Approach::kBaseline,
                                    core::ProxyOptions::defaults_for(cc.profile));
    const int me = rc.rank();
    std::vector<double> sbuf(kBulkDoubles), rbuf(kBulkDoubles);
    for (int it = 0; it < kBulkWarm + kBulkIters; ++it) {
      if (it == kBulkWarm) {
        rec.call("core", "barrier", Kind::kColl, 0, [&] { p->barrier(); });
        if (me == 0) job.mark_start();
      }
      const bool timed = it >= kBulkWarm;
      const std::uint64_t offset = mix(o.seed, 0x62, static_cast<std::uint64_t>(it));
      const double scale = me + 1;
      for (std::size_t i = 0; i < kBulkDoubles; ++i) {
        sbuf[i] = scale * bulk_base(offset, i);
      }
      const std::uint64_t op = (static_cast<std::uint64_t>(me) << 16) |
                               static_cast<std::uint64_t>(it);
      const sim::Time v0 = sim::now();
      core::PReq r = rec.call("core", "iallreduce", Kind::kPost, op, [&] {
        return p->iallreduce(sbuf.data(), rbuf.data(), kBulkDoubles,
                             Datatype::kDouble, smpi::Op::kSum);
      });
      for (int c = 0; c < 8; ++c) {
        smpi::compute(sim::Time::from_us(40) +
                      jitter(o.seed, static_cast<std::uint64_t>(me),
                             static_cast<std::uint64_t>(it),
                             static_cast<std::uint64_t>(c), 20000));
      }
      rec.call("core", "wait", Kind::kWait, op, [&] { p->wait(r); });
      if (!timed) continue;
      ep.lat_us.push_back((sim::now() - v0).us());
      if (corrupt_pending && me == 0) {
        rbuf[kBulkDoubles / 2] += 1.0;
        corrupt_pending = false;
      }
      for (std::size_t i = 0; i < kBulkDoubles; ++i) {
        if (rbuf[i] != kRankSum * bulk_base(offset, i)) {
          bad[static_cast<std::size_t>(it)] = 1;
          break;
        }
      }
      std::uint64_t h = 0;
      for (std::size_t i = 0; i < kBulkDoubles; i += 4099) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &rbuf[i], sizeof bits);
        h = mix(h ^ bits);
      }
      add_digest(ep, h);
      if (me == 0) job.ops_done(1, kBulkIters / 8, kBulkIters);
    }
    rec.call("core", "barrier", Kind::kColl, 0, [&] { p->barrier(); });
    if (me == 0) job.mark_end();
    p->stop();
  });
  ep.ops = kBulkIters;
  ep.attempted = kBulkIters;
  for (int it = kBulkWarm; it < kBulkWarm + kBulkIters; ++it) ep.failed += bad[it];
}

// ---- serve_slo -----------------------------------------------------------
// serve::run_serve, 2 edges x 2 shards x 8 workers, open loop at the
// TrafficConfig default rate; the benchmark only sees ServeResult.

serve::ServeConfig serve_config(const Options& o) {
  serve::ServeConfig sc;
  sc.approach = core::Approach::kOffload;
  sc.edges = 2;
  sc.shards = 2;
  sc.workers = 8;
  sc.requests = kServeRequests;
  sc.traffic.seed = o.seed;
  sc.proxy_count = core::ProxyOptions::defaults_for(machine::xeon_fdr()).proxy_count;
  return sc;
}

serve::ServeResult serve_call(Recorder& rec, const serve::ServeConfig& sc,
                              Kind kind) {
  return rec.call("apps.serve", "run_serve", kind, sc.requests,
                  [&] { return serve::run_serve(sc); });
}

bool serve_ok(const serve::ServeResult& r) {
  return r.checksum_fail == 0 && r.responses == r.requests;
}

void run_serve_slo(const Options& o, Recorder& rec, Episode& ep) {
  ep.serve = true;
  serve::ServeConfig sc = serve_config(o);
  // run_serve builds its own cluster: set-up is the same configuration with
  // the fewest requests it accepts (one per edge).
  serve::ServeConfig empty = sc;
  empty.requests = 1;
  const Usage before_setup = perfbench::usage_now();
  (void)serve_call(rec, empty, Kind::kSetup);
  ep.u0 = perfbench::usage_now();
  ep.setup_cpu_s = ep.u0.cpu_s();
  const double setup_call_s = ep.u0.cpu_s() - before_setup.cpu_s();
  ep.sr = serve_call(rec, sc, Kind::kRun);
  ep.u1 = perfbench::usage_now();
  ep.timed_cpu_s = std::max(1e-9, ep.u1.cpu_s() - ep.u0.cpu_s() - setup_call_s);
  const serve::ServeResult& r = ep.sr;
  ep.ops = r.requests - static_cast<std::uint64_t>(empty.requests * sc.edges);
  ep.attempted = r.requests;
  ep.failed = r.checksum_fail + (r.requests - std::min(r.requests, r.responses));
  ep.t0 = sim::Time::zero();
  ep.t1 = r.makespan;
  ep.digest = r.payload_digest ^ mix(r.update_digest) ^ mix(r.histogram_digest, 1);
  // ServeResult exposes p99 and p99.9 only; take the higher one that still
  // has at least ten samples beyond it.
  const bool p999 = static_cast<double>(r.requests) * 0.001 >= 10.0;
  ep.tail_pct = p999 ? 99.9 : 99.0;
  ep.tail_us = p999 ? r.p999_us : r.p99_us;
}

/// Highest offered rate with p99 within the SLO and responses keeping pace
/// with arrivals: bisection on log(mean inter-arrival time).
void run_serve_sweep(const Options& o, Recorder& rec) {
  serve::ServeConfig sc = serve_config(o);
  sc.requests = kSweepRequests;
  auto meets = [&](double ia_ns, serve::ServeResult* out) {
    serve::ServeConfig c = sc;
    c.traffic.mean_interarrival = sim::Time(static_cast<std::int64_t>(ia_ns));
    serve::ServeResult r = serve_call(rec, c, Kind::kRun);
    if (!serve_ok(r)) {
      std::fprintf(stderr, "serve sweep: ia=%.0fns failed its output check\n", ia_ns);
      std::exit(3);
    }
    const double delivered = static_cast<double>(r.responses) * 1e9 /
                             static_cast<double>(std::max<std::int64_t>(1, r.makespan.ns()));
    const bool ok = r.p99_us <= sc.slo.us() && delivered >= 0.95 * r.offered_rps;
    std::fprintf(stderr, "serve sweep: ia=%.1fns offered=%.0f p99=%.2fus delivered=%.0f %s\n",
                 ia_ns, r.offered_rps, r.p99_us, delivered, ok ? "meets" : "misses");
    if (out != nullptr) *out = r;
    return ok;
  };
  double hi = sc.traffic.mean_interarrival.ns();  // slow end: must meet
  double lo = hi / 4;                             // fast end: must miss
  serve::ServeResult best;
  if (!meets(hi, &best) || meets(lo, nullptr)) {
    std::fprintf(stderr, "serve sweep: SLO boundary outside [%.0f, %.0f] ns\n", lo, hi);
    std::exit(3);
  }
  for (int step = 0; step < 6; ++step) {  // 2 octaves / 2^6: ~2% resolution
    const double mid = std::sqrt(lo * hi);
    serve::ServeResult r;
    if (meets(mid, &r)) {
      hi = mid;
      best = r;
    } else {
      lo = mid;
    }
  }
  std::printf("{\"slo_max_rps\":%.17g,\"mean_interarrival_ns\":%.17g}\n",
              best.offered_rps, hi);
}

// ---- output ----------------------------------------------------------------

/// Per-layer numbers derived from the episode's counters and spans.
std::vector<std::pair<std::string, double>> layer_metrics(const Episode& ep,
                                                          const Recorder& rec) {
  std::vector<std::pair<std::string, double>> m;
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, ep.ops));
  const Usage& u0 = ep.u0;
  const Usage& u1 = ep.u1;
  const double cpu = std::max(1e-9, u1.cpu_s() - u0.cpu_s());
  m.emplace_back("proc.sys_frac", (u1.sys_s - u0.sys_s) / cpu);
  m.emplace_back("proc.minflt_per_op", static_cast<double>(u1.minflt - u0.minflt) / ops);
  if (ep.serve) {
    const serve::ServeResult& r = ep.sr;
    m.emplace_back("core.cont_per_op", static_cast<double>(r.cont_executed) / ops);
    m.emplace_back("core.cont_posts_per_op", static_cast<double>(r.cont_posts) / ops);
    m.emplace_back("apps.serve.hedge_win_frac",
                   r.hedged > 0 ? static_cast<double>(r.hedge_wins) / static_cast<double>(r.hedged) : 0);
    return m;
  }
  const Counts d = ep.c1 - ep.c0;
  const double vt_ns = static_cast<double>(std::max<std::int64_t>(1, (ep.t1 - ep.t0).ns()));
  auto ratio = [](auto a, auto b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  auto per_op = [&](std::int64_t v) { return ratio(v, ops); };
  m.emplace_back("sim.events_per_op", per_op(d.events));
  m.emplace_back("sim.switches_per_op", per_op(d.switches));
  m.emplace_back("sim.host_ns_per_event", ratio(1e9 * ep.timed_cpu_s, d.events));
  m.emplace_back("sim.fibers", static_cast<double>(ep.c1.fibers));
  m.emplace_back("machine.net_msgs_per_op", per_op(d.net_msgs));
  m.emplace_back("machine.net_bytes_per_op", per_op(d.net_bytes));
  m.emplace_back("machine.link_util", ratio(d.net_bytes, ep.link_bytes_per_ns * ep.nranks * vt_ns));
  m.emplace_back("mpi.calls_per_op", per_op(d.calls));
  m.emplace_back("mpi.progress_passes_per_op", per_op(d.progress_passes));
  m.emplace_back("mpi.posted_depth_p50", perfbench::median(ep.posted_depth));
  m.emplace_back("mpi.posted_depth_max",
                 ep.posted_depth.empty() ? 0 : *std::max_element(ep.posted_depth.begin(), ep.posted_depth.end()));
  m.emplace_back("mpi.unexpected_frac", ratio(d.unexpected, d.eager + d.rndv));
  m.emplace_back("mpi.vt_in_mpi_frac", ratio(d.mpi_vt_ns, ep.nranks * vt_ns));
  m.emplace_back("mpi.rndv_frac", ratio(d.rndv, d.eager + d.rndv));
  m.emplace_back("mpi.coll_chunks_per_op", per_op(d.coll_chunks));
  m.emplace_back("mpi.coll_chunk_vt_us", ratio(1e-3 * static_cast<double>(d.coll_chunk_vt_ns), d.coll_chunks));
  m.emplace_back("core.commands_per_op", per_op(d.commands));
  m.emplace_back("core.completions_per_testany", ratio(d.completions, d.testany_calls));
  m.emplace_back("core.idle_polls_per_op", per_op(d.spins + d.yields));
  m.emplace_back("core.sleeps_per_op", per_op(d.sleeps));
  m.emplace_back("core.steal_frac", ratio(d.steals, d.commands));
  m.emplace_back("core.stalls_per_op", per_op(d.stalls));
  m.emplace_back("core.cont_per_op", per_op(d.cont));
  m.emplace_back("core.cont_posts_per_op", per_op(d.cont_posts));

  // Span-derived: virtual time inside the benchmark's proxy calls made in
  // the timed region. Posts are per call (Fig. 4's metric); waits are
  // summed per op sample (one window round, rank-iteration or iteration).
  std::vector<double> post_ns;
  std::map<std::uint64_t, double> wait_by_op;
  double in_core_ns = 0;
  for (const perfbench::Span& s : rec.spans()) {
    if (s.vt0 < ep.t0.ns() || s.vt1 > ep.t1.ns() || std::strcmp(s.layer, "core") != 0) continue;
    const auto dur = static_cast<double>(s.vt1 - s.vt0);
    if (s.kind == Kind::kPost) post_ns.push_back(dur);
    if (s.kind == Kind::kWait) wait_by_op[s.op] += dur * 1e-3;
    in_core_ns += dur;
  }
  std::vector<double> wait_us;
  for (const auto& [op, us] : wait_by_op) wait_us.push_back(us);
  m.emplace_back("core.post_vt_ns", perfbench::median(post_ns));
  m.emplace_back("core.post_vt_ns_tail", perfbench::tail10(post_ns).first);
  m.emplace_back("core.wait_vt_us", perfbench::median(wait_us));
  m.emplace_back("core.wait_vt_us_tail", perfbench::tail10(wait_us).first);
  m.emplace_back("core.app_mpi_frac", in_core_ns / (ep.app_threads * vt_ns));
  return m;
}

void print_episode(const Options& o, const Episode& ep, const Recorder& rec) {
  const double vt_s = std::max(1e-12, (ep.t1 - ep.t0).sec());
  double p50 = 0, tail = 0, tail_pct = 0, vt_ops = 0;
  std::size_t samples = 0;
  if (ep.serve) {
    p50 = ep.sr.p50_us;
    tail = ep.tail_us;
    tail_pct = ep.tail_pct;
    samples = ep.sr.requests;
    vt_ops = ep.sr.goodput_rps;
  } else {
    p50 = perfbench::median(ep.lat_us);
    std::tie(tail, tail_pct) = perfbench::tail10(ep.lat_us);
    samples = ep.lat_us.size();
    vt_ops = static_cast<double>(ep.ops) / vt_s;
  }
  const Usage end = perfbench::usage_now();
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"ops\":%" PRIu64
              ",\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",",
              o.workload.c_str(), o.seed, ep.ops, ep.attempted, ep.failed);
  std::printf("\"vt\":{\"p50_us\":%.17g,\"tail_us\":%.17g,\"tail_pct\":%.17g,"
              "\"samples\":%zu,\"ops_per_s\":%.17g},",
              p50, tail, tail_pct, samples, vt_ops);
  std::printf("\"host\":{\"setup_s\":%.17g,\"timed_cpu_s\":%.17g,\"ops_per_s\":%.17g,"
              "\"peak_rss_mb\":%.17g,\"timed_calls\":%" PRIu64 "},",
              ep.setup_cpu_s, ep.timed_cpu_s,
              static_cast<double>(ep.ops) / std::max(1e-9, ep.timed_cpu_s),
              static_cast<double>(end.maxrss_kb) / 1024.0, ep.calls1 - ep.calls0);
  std::printf("\"counts\":{");
  if (ep.serve) {
    const serve::ServeResult& r = ep.sr;
    std::printf("\"requests\":%" PRIu64 ",\"responses\":%" PRIu64 ",\"hedged\":%" PRIu64
                ",\"hedge_wins\":%" PRIu64 ",\"primary_wins\":%" PRIu64
                ",\"checksum_fail\":%" PRIu64 ",\"slo_ok\":%" PRIu64 ",\"slo_miss\":%" PRIu64
                ",\"cont_executed\":%" PRIu64 ",\"cont_posts\":%" PRIu64
                ",\"steal_commands\":%" PRIu64 ",\"makespan_ns\":%" PRId64,
                r.requests, r.responses, r.hedged, r.hedge_wins, r.primary_wins,
                r.checksum_fail, r.slo_ok, r.slo_miss, r.cont_executed, r.cont_posts,
                r.steal_commands, static_cast<std::int64_t>(r.makespan.ns()));
  } else {
    const Counts d = ep.c1 - ep.c0;
    const char* sep = "";
    for (const auto& [name, field] : perfbench::kCountFields) {
      std::printf("%s\"%s\":%" PRId64, sep, name, d.*field);
      sep = ",";
    }
    std::printf(",\"timed_vt_ns\":%" PRId64, static_cast<std::int64_t>((ep.t1 - ep.t0).ns()));
  }
  // Timed region as equal-work windows: [ops, host CPU s] each.
  std::printf("},\"digest\":\"%016" PRIx64 "\",\"windows\":[", ep.digest);
  if (ep.serve) std::printf("[%" PRIu64 ",%.17g]", ep.ops, ep.timed_cpu_s);
  for (std::size_t i = 1; i < ep.checkpoints.size(); ++i) {
    const auto& [c0, n0] = ep.checkpoints[i - 1];
    const auto& [c1, n1] = ep.checkpoints[i];
    std::printf("%s[%" PRIu64 ",%.17g]", i > 1 ? "," : "", n1 - n0, c1 - c0);
  }
  std::printf("]");
  if (rec.tracing()) {
    std::printf(",\"spans\":%zu,\"layers\":{", rec.spans().size());
    const char* sep = "";
    for (const auto& [k, v] : layer_metrics(ep, rec)) {
      std::printf("%s\"%s\":%.17g", sep, k.c_str(), v);
      sep = ",";
    }
    std::printf("}");
  }
  std::printf("}\n");
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench_episode: %s\nusage: perfbench_episode --workload "
               "{mt_window|halo|bulk_allreduce|serve_slo} --seed N [--trace-out FILE] "
               "[--canary-host-ns N] [--enqueue-delta-ns N] [--corrupt] [--sweep]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(("missing value for " + a).c_str());
      return argv[++i];
    };
    auto number = [&]() -> long long {
      const std::string v = value();
      char* end = nullptr;
      const long long n = std::strtoll(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || n < 0) usage_error(("bad value for " + a).c_str());
      return n;
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(number());
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--canary-host-ns") {
      o.canary_host_ns = number();
    } else if (a == "--enqueue-delta-ns") {
      o.enqueue_delta_ns = number();
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else if (a == "--sweep") {
      o.sweep = true;
    } else {
      usage_error(("unknown argument " + a).c_str());
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Pinned inputs: the program reads MPIOFF_* knobs (proxy tuning, collective
  // overrides, faults, sanitizer, tracing, serve spec); refuse to run with
  // any of them set rather than measure a different configuration.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MPIOFF_", 7) == 0) {
      std::fprintf(stderr, "perfbench_episode: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  const Options o = parse(argc, argv);
  Recorder rec(!o.trace_out.empty(), o.canary_host_ns);
  Episode ep;
  try {
    if (o.sweep) {
      if (o.workload != "serve_slo") usage_error("--sweep applies to serve_slo only");
      run_serve_sweep(o, rec);
      return 0;
    }
    if (o.workload == "mt_window") {
      run_mt_window(o, rec, ep);
    } else if (o.workload == "halo") {
      run_halo(o, rec, ep);
    } else if (o.workload == "bulk_allreduce") {
      run_bulk(o, rec, ep);
    } else if (o.workload == "serve_slo") {
      run_serve_slo(o, rec, ep);
    } else {
      usage_error("unknown workload");
    }
  } catch (const std::exception& e) {
    // An exception or a simulated deadlock fails the whole run.
    std::fprintf(stderr, "perfbench_episode: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  print_episode(o, ep, rec);
  if (rec.tracing() && !rec.write(o.trace_out)) {
    std::fprintf(stderr, "perfbench_episode: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  return 0;
}
