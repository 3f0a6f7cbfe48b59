#include "benchlib/overlap.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "benchlib/runner.hpp"
#include "mpi/cluster.hpp"

namespace benchlib {

using namespace smpi;
using core::Approach;
using core::PReq;
using core::Proxy;

namespace {

ClusterConfig cluster_cfg(Approach a, const machine::Profile& prof, int n) {
  ClusterConfig c;
  c.nranks = n;
  c.profile = prof;
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(600);
  return c;
}

struct PhaseTimes {
  sim::Time post, wait, total;
};

/// One exchange: Irecv+Isend to the peer, optional compute, then drain both
/// completions through waitany — whichever finishes first is retired first,
/// instead of the old hand-rolled fixed-order wait pair.
PhaseTimes exchange_once(Proxy& p, int peer, char* sbuf, char* rbuf,
                         std::size_t bytes, sim::Time compute_time) {
  PhaseTimes t;
  const sim::Time t0 = sim::now();
  PReq reqs[2] = {p.irecv(rbuf, bytes, Datatype::kByte, peer, 0),
                  p.isend(sbuf, bytes, Datatype::kByte, peer, 0)};
  t.post = sim::now() - t0;
  if (compute_time > sim::Time::zero()) smpi::compute(compute_time);
  const sim::Time w0 = sim::now();
  while (p.waitany(reqs) >= 0) {
  }
  t.wait = sim::now() - w0;
  t.total = sim::now() - t0;
  return t;
}

}  // namespace

OverlapResult overlap_p2p(Approach a, const machine::Profile& prof,
                          std::size_t bytes, int iters, int warmup) {
  OverlapResult res;
  Cluster c(cluster_cfg(a, prof, 2));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int peer = 1 - rc.rank();
    std::vector<char> sbuf(bytes, 'o'), rbuf(bytes);

    // Step 1: no compute — measure baseline post/wait/comm.
    sim::Time post1 = sim::Time::zero(), wait1 = sim::Time::zero(),
              comm = sim::Time::zero();
    for (int i = 0; i < warmup + iters; ++i) {
      p->barrier();
      PhaseTimes t = exchange_once(*p, peer, sbuf.data(), rbuf.data(), bytes,
                                   sim::Time::zero());
      if (i >= warmup) {
        post1 += t.post;
        wait1 += t.wait;
        comm += t.total;
      }
    }
    // Step 2: insert compute equal to the measured comm time.
    const sim::Time comp = sim::Time(comm.ns() / iters);
    sim::Time post2 = sim::Time::zero(), wait2 = sim::Time::zero();
    for (int i = 0; i < warmup + iters; ++i) {
      p->barrier();
      PhaseTimes t = exchange_once(*p, peer, sbuf.data(), rbuf.data(), bytes, comp);
      if (i >= warmup) {
        post2 += t.post;
        wait2 += t.wait;
      }
    }
    if (rc.rank() == 0) {
      const double comm_us = comm.us() / iters;
      res.comm_us = comm_us;
      res.post_frac = post2.us() / iters / comm_us;
      res.wait_frac = wait2.us() / iters / comm_us;
      res.overlap_frac =
          std::max(0.0, (wait1.us() - wait2.us()) / iters / comm_us);
    }
    report_proxy_stats(*p);
    p->stop();
  });
  report_cluster_stats(c);
  return res;
}

namespace {

/// Name of the algorithm rank 0 actually ran for `kind` (the schedule with
/// the highest count, in case an inner barrier shares the CollectiveId).
std::string ran_algo(Cluster& c, smpi::CollectiveId kind) {
  const smpi::CollStats& cs = c.rank(0).coll_stats();
  const int ci = static_cast<int>(kind);
  int best = -1;
  std::uint64_t best_n = 0;
  for (int ai = 0; ai < smpi::kNumCollAlgos; ++ai) {
    if (cs.algo_count[ci][ai] > best_n) {
      best_n = cs.algo_count[ci][ai];
      best = ai;
    }
  }
  return best < 0 ? "-" : smpi::coll_algo_name(static_cast<smpi::CollAlgo>(best));
}

/// Post the chosen nonblocking collective through the proxy.
PReq post_coll(Proxy& p, smpi::CollectiveId k, std::size_t bytes, int nranks,
               std::vector<char>& s, std::vector<char>& r) {
  switch (k) {
    case smpi::CollectiveId::kBcast:
      return p.ibcast(r.data(), bytes, Datatype::kByte, 0);
    case smpi::CollectiveId::kReduce:
      return p.ireduce(s.data(), r.data(), bytes, Datatype::kByte, Op::kMax, 0);
    case smpi::CollectiveId::kAllreduce:
      return p.iallreduce(s.data(), r.data(), bytes, Datatype::kByte, Op::kMax);
    case smpi::CollectiveId::kAlltoall:
      return p.ialltoall(s.data(), r.data(), bytes / static_cast<std::size_t>(nranks),
                         Datatype::kByte);
    case smpi::CollectiveId::kAllgather:
      return p.iallgather(s.data(), r.data(), bytes / static_cast<std::size_t>(nranks),
                          Datatype::kByte);
    case smpi::CollectiveId::kBarrier:
      return p.ibarrier();
  }
  return {};
}

}  // namespace

OverlapResult overlap_collective(Approach a, const machine::Profile& prof,
                                 smpi::CollectiveId kind, int nranks,
                                 std::size_t bytes, int iters, int warmup) {
  OverlapResult res;
  Cluster c(cluster_cfg(a, prof, nranks));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const std::size_t per = std::max<std::size_t>(bytes, static_cast<std::size_t>(nranks));
    std::vector<char> s(per * static_cast<std::size_t>(nranks), 'c');
    std::vector<char> r(per * static_cast<std::size_t>(nranks));

    // t_pure: post + immediately wait.
    sim::Time pure = sim::Time::zero();
    for (int i = 0; i < warmup + iters; ++i) {
      p->barrier();
      const sim::Time t0 = sim::now();
      PReq rq = post_coll(*p, kind, per, nranks, s, r);
      p->wait(rq);
      if (i >= warmup) pure += sim::now() - t0;
    }
    const sim::Time comp = sim::Time(pure.ns() / iters);
    // Overlapped: post, compute(t_pure), wait.
    sim::Time wait_ovl = sim::Time::zero(), post_ovl = sim::Time::zero();
    for (int i = 0; i < warmup + iters; ++i) {
      p->barrier();
      const sim::Time t0 = sim::now();
      PReq rq = post_coll(*p, kind, per, nranks, s, r);
      const sim::Time t1 = sim::now();
      smpi::compute(comp);
      const sim::Time w0 = sim::now();
      p->wait(rq);
      if (i >= warmup) {
        post_ovl += t1 - t0;
        wait_ovl += sim::now() - w0;
      }
    }
    if (rc.rank() == 0) {
      const double pure_us = pure.us() / iters;
      res.comm_us = pure_us;
      res.post_frac = post_ovl.us() / iters / pure_us;
      res.wait_frac = wait_ovl.us() / iters / pure_us;
      res.overlap_frac = std::max(0.0, 1.0 - res.wait_frac - res.post_frac);
    }
    report_proxy_stats(*p);
    p->stop();
  });
  res.algo = ran_algo(c, kind);
  report_cluster_stats(c);
  return res;
}

double icollective_post_us(Approach a, const machine::Profile& prof,
                           smpi::CollectiveId kind, int nranks, std::size_t bytes,
                           int iters, int warmup, std::string* algo_out) {
  double post_us = 0;
  Cluster c(cluster_cfg(a, prof, nranks));
  c.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const std::size_t per = std::max<std::size_t>(bytes, static_cast<std::size_t>(nranks));
    std::vector<char> s(per * static_cast<std::size_t>(nranks), 'p');
    std::vector<char> r(per * static_cast<std::size_t>(nranks));
    sim::Time post = sim::Time::zero();
    for (int i = 0; i < warmup + iters; ++i) {
      p->barrier();
      const sim::Time t0 = sim::now();
      PReq rq = post_coll(*p, kind, per, nranks, s, r);
      const sim::Time t1 = sim::now();
      p->wait(rq);
      if (i >= warmup) post += t1 - t0;
    }
    if (rc.rank() == 0) post_us = post.us() / iters;
    report_proxy_stats(*p);
    p->stop();
  });
  if (algo_out != nullptr) *algo_out = ran_algo(c, kind);
  report_cluster_stats(c);
  return post_us;
}

}  // namespace benchlib
