#include "benchlib/osu.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "benchlib/runner.hpp"
#include "mpi/cluster.hpp"
#include "sim/sync.hpp"

namespace benchlib {

using namespace smpi;
using core::Approach;
using core::PReq;

namespace {

ClusterConfig cluster_cfg(Approach a, const machine::Profile& prof, int nranks,
                          bool force_multiple = false) {
  ClusterConfig c;
  c.nranks = nranks;
  c.profile = prof;
  c.thread_level = force_multiple ? ThreadLevel::kMultiple
                                  : core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(600);
  return c;
}

}  // namespace

OsuResult osu_latency(Approach a, const machine::Profile& prof,
                      std::size_t bytes, int iters, int warmup) {
  OsuResult res;
  Cluster c(cluster_cfg(a, prof, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    std::vector<char> sbuf(std::max<std::size_t>(bytes, 1), 'a');
    std::vector<char> rbuf(std::max<std::size_t>(bytes, 1));
    const int me = rc.rank(), peer = 1 - me;
    sim::Time t_start, post_acc = sim::Time::zero();
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) {
        p->barrier();
        t_start = sim::now();
      }
      if (me == 0) {
        const sim::Time p0 = sim::now();
        PReq s = p->isend(sbuf.data(), bytes, Datatype::kByte, peer, 1);
        if (i >= warmup) post_acc += sim::now() - p0;
        p->wait(s);
        p->recv(rbuf.data(), bytes, Datatype::kByte, peer, 1);
      } else {
        p->recv(rbuf.data(), bytes, Datatype::kByte, peer, 1);
        const sim::Time p0 = sim::now();
        PReq s = p->isend(sbuf.data(), bytes, Datatype::kByte, peer, 1);
        if (i >= warmup) post_acc += sim::now() - p0;
        p->wait(s);
      }
    }
    if (me == 0) {
      const double total_us = (sim::now() - t_start).us();
      res.latency_us = total_us / (2.0 * iters);
      res.post_us = post_acc.us() / iters;
    }
    report_proxy_stats(*p);
    p->stop();
  });
  report_cluster_stats(c);
  return res;
}

OsuResult osu_bandwidth(Approach a, const machine::Profile& prof,
                        std::size_t bytes, int window, int iters) {
  OsuResult res;
  Cluster c(cluster_cfg(a, prof, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), peer = 1 - me;
    std::vector<char> buf(bytes * static_cast<std::size_t>(window), 'b');
    char ack = 0;
    p->barrier();
    const sim::Time t0 = sim::now();
    for (int it = 0; it < iters; ++it) {
      std::vector<PReq> reqs;
      reqs.reserve(static_cast<std::size_t>(window));
      if (me == 0) {
        for (int w = 0; w < window; ++w) {
          reqs.push_back(p->isend(buf.data() + static_cast<std::size_t>(w) * bytes,
                                  bytes, Datatype::kByte, peer, w));
        }
        p->waitall(reqs);
        p->recv(&ack, 1, Datatype::kByte, peer, 999);
      } else {
        for (int w = 0; w < window; ++w) {
          reqs.push_back(p->irecv(buf.data() + static_cast<std::size_t>(w) * bytes,
                                  bytes, Datatype::kByte, peer, w));
        }
        p->waitall(reqs);
        p->send(&ack, 1, Datatype::kByte, peer, 999);
      }
    }
    if (me == 0) {
      const double secs = (sim::now() - t0).sec();
      res.bandwidth_mbps = static_cast<double>(bytes) * window * iters / secs / 1e6;
    }
    report_proxy_stats(*p);
    p->stop();
  });
  report_cluster_stats(c);
  return res;
}

OsuResult osu_latency_mt(Approach a, const machine::Profile& prof, int threads,
                         std::size_t bytes, int iters, int warmup) {
  OsuResult res;
  // baseline/iprobe/comm-self expose the application's concurrent calls to
  // the MPI library (THREAD_MULTIPLE); offload keeps the library FUNNELED.
  const bool multiple = a != Approach::kOffload;
  Cluster c(cluster_cfg(a, prof, 2, multiple));
  double lat_us_sum = 0;  // rank 0's per-thread mean latencies
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), peer = 1 - me;
    // Per-thread completion accounting on rank 0.
    auto done_count = std::make_shared<int>(0);
    auto done_n = std::make_shared<sim::Notifier>(sim::Time::from_us(1));
    auto run_pair = [&, done_count, done_n](int tid) {
      std::vector<char> sbuf(std::max<std::size_t>(bytes, 1), 's');
      std::vector<char> rbuf(std::max<std::size_t>(bytes, 1));
      sim::Time t_start;
      for (int i = 0; i < warmup + iters; ++i) {
        if (i == warmup) t_start = sim::now();
        if (me == 0) {
          p->send(sbuf.data(), bytes, Datatype::kByte, peer, tid);
          p->recv(rbuf.data(), bytes, Datatype::kByte, peer, tid);
        } else {
          p->recv(rbuf.data(), bytes, Datatype::kByte, peer, tid);
          p->send(sbuf.data(), bytes, Datatype::kByte, peer, tid);
        }
      }
      if (me == 0) {
        lat_us_sum += (sim::now() - t_start).us() / (2.0 * iters);
      }
      ++*done_count;
      done_n->signal();
    };
    for (int t = 1; t < threads; ++t) {
      rc.cluster().spawn_on(rc.rank(), "mt" + std::to_string(t),
                            [run_pair, t]() { run_pair(t); });
    }
    run_pair(0);
    // Sleep on the thread-exit notifier instead of spinning the clock.
    for (std::uint64_t seen = 0; *done_count < threads;) {
      seen = done_n->wait_beyond(seen);
    }
    p->barrier();
    report_proxy_stats(*p);
    p->stop();
  });
  report_cluster_stats(c);
  res.latency_us = lat_us_sum / threads;
  return res;
}

}  // namespace benchlib
