#include "apps/serve/serve.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/serve/latency.hpp"
#include "core/proxy_options.hpp"
#include "mpi/cluster.hpp"
#include "mpi/continuation.hpp"
#include "sim/sync.hpp"

namespace serve {

using core::Approach;
using core::PReq;
using smpi::Datatype;
using smpi::Status;

namespace {

// ---- wire format ---------------------------------------------------------

/// Outstanding request receives each shard keeps pre-posted per edge. The
/// teardown contract depends on this constant: an edge finishes by sending
/// exactly this many poison frames to every shard, each of which completes
/// one pre-posted receive whose continuation then declines to re-arm.
constexpr std::size_t kReqSlotsPerEdge = 4;

constexpr int kReqTag = 1;        ///< edge -> shard requests (and poisons)
constexpr int kRespTagBase = 16;  ///< + slot*2 + copy, per edge window slot

/// Service time of one request: a fixed part plus a per-KiB part over the
/// request and response payloads.
constexpr sim::Time kServiceBase = sim::Time::from_us(2);
constexpr sim::Time kServicePerKb = sim::Time::from_ns(200);

/// Virtual-clock deadlock guard of the serving cluster.
constexpr sim::Time kDeadline = sim::Time::from_sec(600);

constexpr std::uint32_t kFlagPoison = 1u;
constexpr std::uint32_t kFlagHedgeCopy = 2u;

struct ReqHeader {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
  std::uint64_t checksum = 0;  ///< fnv1a of the request payload
  std::uint32_t req_bytes = 0;
  std::uint32_t resp_bytes = 0;
  std::int32_t resp_tag = 0;
  std::uint32_t flags = 0;
};

struct RespHeader {
  std::uint64_t seq = 0;
  std::uint64_t digest = 0;  ///< fnv1a of the response payload
};

/// Response payload byte stream: a pure function of the request envelope,
/// so both replicas of a hedged request produce identical bytes and the
/// edge-side digest is independent of who wins the race.
std::uint64_t response_stream_seed(const ReqHeader& h) {
  return mix64(h.client ^ mix64(h.seq) ^ h.key ^ h.checksum);
}

void fill_stream(void* dst, std::size_t n, std::uint64_t seed) {
  auto* p = static_cast<unsigned char*>(dst);
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t w = mix64(seed + i / 8);
    const std::size_t take = std::min<std::size_t>(8, n - i);
    std::memcpy(p + i, &w, take);
    i += take;
  }
}

// ---- per-rank run state --------------------------------------------------

struct EdgeOut {
  LatencyHistogram hist;
  SloAccount slo;
  std::uint64_t responses = 0;
  std::uint64_t hedged = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t primary_wins = 0;
  std::uint64_t checksum_fail = 0;
  std::uint64_t payload_digest = 0;
  sim::Time last_arrival;
  sim::Time last_response;
  std::uint64_t cont_executed = 0, cont_posts = 0, steal_commands = 0;
};

struct ShardOut {
  std::uint64_t update_digest = 0;
  std::uint64_t checksum_fail = 0;
  std::uint64_t cont_executed = 0, cont_posts = 0, steal_commands = 0;
};

struct WorkItem {
  ReqHeader hdr;
  int edge = 0;
};

void grab_offload_counters(core::Proxy& p, std::uint64_t& executed,
                           std::uint64_t& posts, std::uint64_t& steals) {
  if (auto* op = dynamic_cast<core::OffloadProxy*>(&p)) {
    const core::OffloadStats& s = op->channel().stats();
    executed = s.cont_executed;
    posts = s.cont_posts;
    steals = s.steal_commands;
  }
}

// ---- edge rank -----------------------------------------------------------

void run_edge(smpi::RankCtx& rc, core::Proxy& proxy, const ServeConfig& cfg,
              EdgeOut& out) {
  const int edge_index = rc.rank();
  const int shards = cfg.shards;
  const std::size_t hdr = sizeof(ReqHeader);
  const std::size_t rhdr = sizeof(RespHeader);
  out.slo = SloAccount(cfg.slo);

  struct Slot {
    std::vector<unsigned char> req[2];   ///< primary / hedge-copy frames
    std::vector<unsigned char> resp[2];  ///< raced response buffers
    Arrival arr;
    int copies = 0;   ///< 1, or 2 when hedged
    int pending = 0;  ///< send completions + the recv group's settled hook
    bool busy = false;
  };
  std::vector<Slot> slots(cfg.window);
  for (auto& s : slots) {
    s.req[0].resize(hdr + kSmax);
    s.req[1].resize(hdr + kSmax);
    s.resp[0].resize(rhdr + kSmax);
    s.resp[1].resize(rhdr + kSmax);
  }
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) free_slots.push_back(i);
  std::deque<Arrival> queue;  ///< admitted arrivals waiting for a slot
  std::size_t active = 0;     ///< slots with any operation outstanding

  // One self-contained dispatch step: move the queue's front request into
  // slot `si` and post its operations. Runs on the app fiber (pacer) or
  // inside a completion callback (slot turnover from engine context).
  std::function<void(std::size_t)> dispatch = [&](std::size_t si) {
    Slot& s = slots[si];
    s.arr = queue.front();
    queue.pop_front();
    s.busy = true;
    s.copies = s.arr.hedged ? 2 : 1;
    // The recv group settles as one unit; each send completion is its own.
    s.pending = 1 + s.copies;
    ++active;
    if (s.arr.hedged) ++out.hedged;

    const int primary =
        cfg.edges + static_cast<int>(s.arr.key % static_cast<std::uint64_t>(
                                                     shards));
    const int replica =
        cfg.edges + static_cast<int>((s.arr.key + 1) %
                                     static_cast<std::uint64_t>(shards));
    const std::uint64_t payload_seed =
        mix64(cfg.traffic.seed ^ mix64(s.arr.seq) ^
              static_cast<std::uint64_t>(edge_index));

    int dst[2] = {primary, replica};
    for (int c = 0; c < s.copies; ++c) {
      ReqHeader h;
      h.client = s.arr.client;
      h.seq = s.arr.seq;
      h.key = s.arr.key;
      h.req_bytes = s.arr.req_bytes;
      h.resp_bytes = s.arr.resp_bytes;
      h.resp_tag = kRespTagBase + static_cast<int>(si) * 2 + c;
      h.flags = c == 1 ? kFlagHedgeCopy : 0u;
      fill_stream(s.req[c].data() + hdr, s.arr.req_bytes, payload_seed);
      h.checksum = fnv1a(s.req[c].data() + hdr, s.arr.req_bytes);
      std::memcpy(s.req[c].data(), &h, hdr);
    }

    auto dec = [&, si](const Status&) {
      Slot& sl = slots[si];
      if (--sl.pending == 0) {
        sl.busy = false;
        --active;
        if (!queue.empty()) {
          dispatch(si);  // slot turnover without rejoining the app thread
        } else {
          free_slots.push_back(si);
        }
      }
    };

    // Race the response receives; the winner carries the latency sample,
    // the loser (hedged only) is drained by the settled hook.
    PReq recvs[2];
    for (int c = 0; c < s.copies; ++c) {
      recvs[c] = proxy.irecv(s.resp[c].data(), rhdr + s.arr.resp_bytes,
                             Datatype::kByte, dst[c],
                             kRespTagBase + static_cast<int>(si) * 2 + c);
    }
    cont::when_any(proxy, std::span<PReq>(recvs,
                                          static_cast<std::size_t>(s.copies)))
        .then(
            [&, si](std::size_t winner, const Status&) {
              Slot& sl = slots[si];
              const sim::Time lat = sim::now() - sl.arr.at;
              out.hist.add(lat);
              out.slo.add(lat);
              if (sl.arr.hedged) {
                if (winner == 0) {
                  ++out.primary_wins;
                } else {
                  ++out.hedge_wins;
                }
              }
              RespHeader rh;
              std::memcpy(&rh, sl.resp[winner].data(), rhdr);
              const std::uint64_t d =
                  fnv1a(sl.resp[winner].data() + rhdr, sl.arr.resp_bytes);
              if (rh.seq != sl.arr.seq || rh.digest != d) ++out.checksum_fail;
              out.payload_digest +=
                  mix64(d ^ mix64(sl.arr.seq * 0x9e3779b97f4a7c15ull));
              ++out.responses;
              out.last_response = sim::now();
            },
            dec);

    for (int c = 0; c < s.copies; ++c) {
      cont::isend(proxy, s.req[c].data(), hdr + s.arr.req_bytes,
                  Datatype::kByte, dst[c], kReqTag)
          .then(dec);
    }
  };

  // ---- open-loop pacer: inject at intended arrival times ----
  TrafficGen gen(cfg.traffic, edge_index);
  for (std::size_t n = 0; n < cfg.requests; ++n) {
    Arrival a = gen.next();
    if (a.at > sim::now()) smpi::compute(a.at - sim::now());
    out.last_arrival = a.at;
    // Open-loop contract: the request joins the system NOW even if every
    // slot is busy — its latency clock started at a.at either way.
    queue.push_back(a);
    if (!free_slots.empty()) {
      const std::size_t si = free_slots.back();
      free_slots.pop_back();
      dispatch(si);
    }
    proxy.progress_hint();
  }
  proxy.cont_wait([&]() { return out.responses == cfg.requests && active == 0; });

  // ---- teardown: fill every pre-posted shard receive with a poison ----
  std::vector<std::vector<unsigned char>> poisons;
  std::vector<PReq> preqs;
  for (int s = 0; s < shards; ++s) {
    for (std::size_t k = 0; k < kReqSlotsPerEdge; ++k) {
      ReqHeader h;
      h.flags = kFlagPoison;
      poisons.emplace_back(hdr);
      std::memcpy(poisons.back().data(), &h, hdr);
      preqs.push_back(proxy.isend(poisons.back().data(), hdr, Datatype::kByte,
                                  cfg.edges + s, kReqTag));
    }
  }
  proxy.waitall(preqs);

  grab_offload_counters(proxy, out.cont_executed, out.cont_posts,
                        out.steal_commands);
  proxy.barrier();
}

// ---- shard rank ----------------------------------------------------------

void run_shard(smpi::RankCtx& rc, core::Proxy& proxy, const ServeConfig& cfg,
               smpi::Comm shard_comm, ShardOut& out) {
  const int shard_index = rc.rank() - cfg.edges;
  const std::size_t hdr = sizeof(ReqHeader);
  const std::size_t rhdr = sizeof(RespHeader);

  // Shared shard state (plain: all fibers of a rank are cooperative).
  std::deque<WorkItem> queue;
  sim::Notifier work_n(sim::Time::from_ns(100));
  std::size_t poisons = 0;
  std::size_t resp_inflight = 0;
  bool workers_stop = false;
  int workers_exited = 0;
  sim::Notifier exit_n(sim::Time::from_ns(100));

  // Response buffer pool: workers block (they are app threads) when all
  // buffers are in flight; send-completion continuations recycle them.
  const std::size_t nbufs = 2 * static_cast<std::size_t>(cfg.workers) + 2;
  std::vector<std::vector<unsigned char>> bufs(nbufs);
  for (auto& b : bufs) b.resize(rhdr + kSmax);
  std::vector<std::size_t> free_bufs;
  for (std::size_t i = 0; i < nbufs; ++i) free_bufs.push_back(i);
  sim::Notifier buf_n(sim::Time::from_ns(100));

  // ---- reactive request receives: re-arm from the completion context ----
  struct RecvSlot {
    std::vector<unsigned char> buf;
    int edge = 0;
    core::ContFn again;
  };
  std::vector<std::unique_ptr<RecvSlot>> rslots;
  for (int e = 0; e < cfg.edges; ++e) {
    for (std::size_t k = 0; k < kReqSlotsPerEdge; ++k) {
      auto rs = std::make_unique<RecvSlot>();
      rs->buf.resize(hdr + kSmax);
      rs->edge = e;
      RecvSlot* raw = rs.get();
      rs->again = [&, raw](const Status&) {
        ReqHeader h;
        std::memcpy(&h, raw->buf.data(), sizeof h);
        if ((h.flags & kFlagPoison) != 0) {
          ++poisons;  // teardown frame: do NOT re-arm
          work_n.signal();
          return;
        }
        if (fnv1a(raw->buf.data() + hdr, h.req_bytes) != h.checksum) {
          ++out.checksum_fail;
        }
        queue.push_back(WorkItem{h, raw->edge});
        // Re-arm the same buffer before signalling: the loop lives entirely
        // in the proxy's completion context and never rejoins the shard's
        // main fiber.
        cont::irecv(proxy, raw->buf.data(), raw->buf.size(), Datatype::kByte,
                    raw->edge, kReqTag)
            .then(raw->again);
        work_n.signal();
      };
      cont::irecv(proxy, rs->buf.data(), rs->buf.size(), Datatype::kByte, e,
                  kReqTag)
          .then(rs->again);
      rslots.push_back(std::move(rs));
    }
  }

  // ---- continuation-chained model-update rounds (shard comm only) ----
  std::vector<double> contrib(cfg.update), result(cfg.update);
  int round = 0;
  bool rounds_done = cfg.rounds <= 0 || cfg.update == 0;
  std::function<void()> post_round = [&]() {
    for (std::size_t i = 0; i < cfg.update; ++i) {
      contrib[i] = (shard_index + 1) * 0.001 * (round + 1) +
                   static_cast<double>(i) * 1e-6;
    }
    PReq r = proxy.iallreduce(contrib.data(), result.data(), cfg.update,
                              Datatype::kDouble, smpi::Op::kSum, shard_comm);
    cont::wrap(proxy, r).then([&](const Status&) {
      out.update_digest = fnv1a(result.data(), cfg.update * sizeof(double),
                                out.update_digest + 0x100001b3ull);
      if (++round < cfg.rounds) {
        post_round();  // chain the next round from this completion
      } else {
        rounds_done = true;
      }
    });
  };
  if (!rounds_done) post_round();

  // ---- worker fibers: the ablation's "app threads" ----
  auto worker_body = [&]() {
    std::uint64_t seen = 0, buf_seen = 0;
    for (;;) {
      if (!queue.empty()) {
        const WorkItem it = queue.front();
        queue.pop_front();
        const auto kb = static_cast<std::int64_t>(
            (it.hdr.req_bytes + it.hdr.resp_bytes) / 1024);
        smpi::compute(kServiceBase + kServicePerKb * kb);
        while (free_bufs.empty()) buf_seen = buf_n.wait_beyond(buf_seen);
        const std::size_t bi = free_bufs.back();
        free_bufs.pop_back();
        RespHeader rh;
        rh.seq = it.hdr.seq;
        fill_stream(bufs[bi].data() + rhdr, it.hdr.resp_bytes,
                    response_stream_seed(it.hdr));
        rh.digest = fnv1a(bufs[bi].data() + rhdr, it.hdr.resp_bytes);
        std::memcpy(bufs[bi].data(), &rh, rhdr);
        ++resp_inflight;
        cont::isend(proxy, bufs[bi].data(), rhdr + it.hdr.resp_bytes,
                    Datatype::kByte, it.edge, it.hdr.resp_tag)
            .then([&, bi](const Status&) {
              free_bufs.push_back(bi);
              --resp_inflight;
              buf_n.signal();
              work_n.signal();  // the main fiber's quiesce wait re-checks
            });
        continue;
      }
      if (workers_stop) break;
      seen = work_n.wait_beyond(seen);
    }
    ++workers_exited;
    exit_n.signal();
  };
  for (int w = 0; w < cfg.workers; ++w) {
    rc.cluster().spawn_on(rc.rank(), "srv" + std::to_string(w), worker_body);
  }

  // Quiesce: every pre-posted receive poisoned, all admitted work served,
  // every response send completed, the update chain finished.
  const std::size_t all_poisons =
      static_cast<std::size_t>(cfg.edges) * kReqSlotsPerEdge;
  proxy.cont_wait([&]() {
    return poisons == all_poisons && queue.empty() && resp_inflight == 0 &&
           rounds_done;
  });
  workers_stop = true;
  work_n.signal();
  for (std::uint64_t seen = 0; workers_exited < cfg.workers;) {
    seen = exit_n.wait_beyond(seen);
  }

  grab_offload_counters(proxy, out.cont_executed, out.cont_posts,
                        out.steal_commands);
  proxy.barrier();
}

}  // namespace

// ---- driver --------------------------------------------------------------

ServeResult run_serve(const ServeConfig& cfg) {
  if (cfg.edges < 1 || cfg.shards < 1 || cfg.workers < 1 ||
      cfg.window < 1 || cfg.requests < 1) {
    throw std::invalid_argument("run_serve: edges/shards/workers/window/"
                                "requests must all be >= 1");
  }
  smpi::ClusterConfig cc;
  cc.nranks = cfg.edges + cfg.shards;
  cc.thread_level = (cfg.workers > 1 && cfg.approach != Approach::kOffload)
                        ? smpi::ThreadLevel::kMultiple
                        : core::required_thread_level(cfg.approach);
  cc.deadline = kDeadline;
  cc.profile.faults = cfg.faults;
  smpi::Cluster cluster(cc);

  std::vector<EdgeOut> edge_out(static_cast<std::size_t>(cfg.edges));
  std::vector<ShardOut> shard_out(static_cast<std::size_t>(cfg.shards));

  cluster.run([&](smpi::RankCtx& rc) {
    std::unique_ptr<core::Proxy> proxy;
    if (cfg.proxy_count > 0 && cfg.approach == Approach::kOffload) {
      core::ProxyOptions opts = core::ProxyOptions::defaults_for(cc.profile);
      opts.proxy_count = cfg.proxy_count;
      proxy = core::make_proxy(cfg.approach, rc, opts);
    } else {
      proxy = core::make_proxy(cfg.approach, rc);
    }
    proxy->start_engine();
    const bool is_shard = rc.rank() >= cfg.edges;
    smpi::Comm shard_comm = smpi::comm_split(smpi::kCommWorld,
                                             is_shard ? 1 : 0, rc.rank());
    if (is_shard) {
      run_shard(rc, *proxy, cfg, shard_comm,
                shard_out[static_cast<std::size_t>(rc.rank() - cfg.edges)]);
    } else {
      run_edge(rc, *proxy, cfg, edge_out[static_cast<std::size_t>(rc.rank())]);
    }
    proxy->stop();
  });

  ServeResult r;
  r.requests = static_cast<std::uint64_t>(cfg.edges) * cfg.requests;
  LatencyHistogram hist;
  SloAccount slo(cfg.slo);
  sim::Time last_arrival, last_response;
  for (const EdgeOut& e : edge_out) {
    hist.merge(e.hist);
    slo.merge(e.slo);
    r.responses += e.responses;
    r.hedged += e.hedged;
    r.hedge_wins += e.hedge_wins;
    r.primary_wins += e.primary_wins;
    r.checksum_fail += e.checksum_fail;
    r.payload_digest += e.payload_digest;
    last_arrival = std::max(last_arrival, e.last_arrival);
    last_response = std::max(last_response, e.last_response);
    r.cont_executed += e.cont_executed;
    r.cont_posts += e.cont_posts;
    r.steal_commands += e.steal_commands;
  }
  for (const ShardOut& s : shard_out) {
    r.checksum_fail += s.checksum_fail;
    r.cont_executed += s.cont_executed;
    r.cont_posts += s.cont_posts;
    r.steal_commands += s.steal_commands;
  }
  r.update_digest = shard_out.empty() ? 0 : shard_out[0].update_digest;
  r.histogram_digest = hist.digest();
  r.p50_us = hist.quantile_us(0.50);
  r.p99_us = hist.quantile_us(0.99);
  r.p999_us = hist.quantile_us(0.999);
  r.slo_ok = slo.ok();
  r.slo_miss = slo.miss();
  r.makespan = last_response;
  r.goodput_rps = slo.goodput_rps(r.makespan);
  r.offered_rps = last_arrival.ns() > 0
                      ? static_cast<double>(r.requests) * 1e9 /
                            static_cast<double>(last_arrival.ns())
                      : 0.0;
  return r;
}

}  // namespace serve
