#include "benchlib/runner.hpp"

#include <cstdio>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "san/san.hpp"
#include "trace/tracer.hpp"
#include "util/env.hpp"

namespace benchlib {

namespace {

bool g_stats_enabled = false;

}  // namespace

Runner::Runner() : trace_path_(env_util::get_or("MPIOFF_TRACE")) {
  const std::string e = env_util::get_or("MPIOFF_STATS");
  g_stats_enabled = !e.empty() && e != "0";
  if (!trace_path_.empty()) trace::Tracer::set_enabled(true);
}

Runner::~Runner() {
  if (trace_path_.empty()) return;
  trace::Tracer& tr = trace::Tracer::instance();
  trace::Tracer::set_enabled(false);
  if (tr.write_file(trace_path_)) {
    std::fprintf(stderr, "[trace] wrote %zu events (%zu dropped) to %s\n",
                 tr.events().size(), tr.dropped(), trace_path_.c_str());
  } else {
    std::fprintf(stderr, "[trace] FAILED to write %s\n", trace_path_.c_str());
  }
}

bool Runner::stats_enabled() { return g_stats_enabled; }

bool Runner::smoke_enabled() {
  static const bool on = [] {
    const std::string e = env_util::get_or("MPIOFF_BENCH_SMOKE");
    return !e.empty() && e != "0";
  }();
  return on;
}

void report_proxy_stats(core::Proxy& p) {
  if (!g_stats_enabled) return;
  auto* op = dynamic_cast<core::OffloadProxy*>(&p);
  if (op == nullptr || p.rank_ctx().rank() != 0) return;
  const core::OffloadStats& s = op->channel().stats();
  std::printf(
      "[stats] offload rank0: commands=%llu testany=%llu completions=%llu "
      "max_inflight=%llu ring_full_stalls=%llu pool_full_stalls=%llu "
      "watchdog_flags=%llu\n",
      static_cast<unsigned long long>(s.commands),
      static_cast<unsigned long long>(s.testany_calls),
      static_cast<unsigned long long>(s.completions),
      static_cast<unsigned long long>(s.max_inflight),
      static_cast<unsigned long long>(s.ring_full_stalls),
      static_cast<unsigned long long>(s.pool_full_stalls),
      static_cast<unsigned long long>(s.watchdog_flags));
  // overflow_submits is deliberately NOT folded into the per-lane numbers:
  // lane-table overflow falling back to the shared ring used to inflate
  // per-lane throughput in this trailer.
  std::printf(
      "[stats] offload rank0 frontend: engines=%zu lanes=%zu "
      "lane_submits=%llu shared_submits=%llu overflow_submits=%llu "
      "batches=%llu batched=%llu lane_full_stalls=%llu "
      "spins=%llu yields=%llu sleeps=%llu\n",
      op->channel().engine_count(), op->channel().lane_count(),
      static_cast<unsigned long long>(s.lane_submits),
      static_cast<unsigned long long>(s.shared_submits),
      static_cast<unsigned long long>(s.overflow_submits),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.batched_commands),
      static_cast<unsigned long long>(s.lane_full_stalls),
      static_cast<unsigned long long>(s.engine_spins),
      static_cast<unsigned long long>(s.engine_yields),
      static_cast<unsigned long long>(s.engine_sleeps));
  if (s.steal_rounds + s.steal_commands != 0) {
    std::printf(
        "[stats] offload rank0 steal: steal_rounds=%llu "
        "steal_commands=%llu\n",
        static_cast<unsigned long long>(s.steal_rounds),
        static_cast<unsigned long long>(s.steal_commands));
  }
  for (std::size_t i = 0; i < op->channel().lane_count(); ++i) {
    const core::LaneStats& ls = op->channel().lane_stats(i);
    if (ls.submits == 0) continue;  // unbound lane: nothing to report
    std::printf(
        "[stats] offload rank0 lane%zu: submits=%llu drained=%llu "
        "batches=%llu batched=%llu max_occ=%llu full_stalls=%llu\n",
        i, static_cast<unsigned long long>(ls.submits),
        static_cast<unsigned long long>(ls.drained),
        static_cast<unsigned long long>(ls.batches),
        static_cast<unsigned long long>(ls.batched_commands),
        static_cast<unsigned long long>(ls.max_occupancy),
        static_cast<unsigned long long>(ls.full_stalls));
  }
}

void report_cluster_stats(smpi::Cluster& c) {
  if (!g_stats_enabled) return;
  const sim::EngineStats& s = c.engine().stats();
  std::printf(
      "[stats] engine: events=%llu fibers=%llu ctx_switches=%llu "
      "end=%.3fus\n",
      static_cast<unsigned long long>(s.events_fired),
      static_cast<unsigned long long>(s.fibers_spawned),
      static_cast<unsigned long long>(s.context_switches),
      c.engine().now().us());
  // Collective-algorithm summary (only when collectives actually ran, so
  // benchmarks that never enter a collective keep their legacy output).
  {
    const smpi::CollStats& cs = c.rank(0).coll_stats();
    bool any = false;
    for (const auto& per_coll : cs.algo_count) {
      for (const std::uint64_t n : per_coll) {
        if (n != 0) any = true;
      }
    }
    if (any) {
      std::printf("[stats] coll rank0:");
      for (int ci = 0; ci < smpi::kNumCollectiveIds; ++ci) {
        for (int ai = 0; ai < smpi::kNumCollAlgos; ++ai) {
          const std::uint64_t n = cs.algo_count[ci][ai];
          if (n == 0) continue;
          std::printf(" %s=%s:%llu",
                      smpi::coll_name(static_cast<smpi::CollectiveId>(ci)),
                      smpi::coll_algo_name(static_cast<smpi::CollAlgo>(ai)),
                      static_cast<unsigned long long>(n));
        }
      }
      std::printf("\n");
      const double avg_us =
          cs.chunks == 0 ? 0.0 : cs.chunk_time.us() / static_cast<double>(cs.chunks);
      std::printf(
          "[stats] coll rank0 chunks: chunks=%llu avg_chunk_us=%.3f "
          "doorbells_amortized=%llu\n",
          static_cast<unsigned long long>(cs.chunks), avg_us,
          static_cast<unsigned long long>(cs.doorbells_amortized));
    }
  }
  // Fault-injection + wire-reliability summary (only when a plan is active,
  // so fault-free output stays byte-identical to a fault-free build).
  if (const machine::FaultPlan* fp = c.network().faults()) {
    const machine::FaultPlan::Stats& f = fp->stats();
    smpi::RelStats rel;
    for (int r = 0; r < c.nranks(); ++r) {
      const smpi::RelStats& rs = c.rank(r).rel_stats();
      rel.frames_sent += rs.frames_sent;
      rel.retransmits += rs.retransmits;
      rel.acks_sent += rs.acks_sent;
      rel.dup_drops += rs.dup_drops;
      rel.ooo_drops += rs.ooo_drops;
      rel.corrupt_drops += rs.corrupt_drops;
    }
    std::printf(
        "[stats] faults: injected drop=%llu dup=%llu corrupt=%llu "
        "delay=%llu reorder=%llu stalls=%llu stall_ns=%lld\n",
        static_cast<unsigned long long>(f.dropped),
        static_cast<unsigned long long>(f.duplicated),
        static_cast<unsigned long long>(f.corrupted),
        static_cast<unsigned long long>(f.delayed),
        static_cast<unsigned long long>(f.reordered),
        static_cast<unsigned long long>(f.egress_stalls + f.ingress_stalls),
        static_cast<long long>(f.stall_time.ns()));
    std::printf(
        "[stats] wire: frames=%llu retransmits=%llu acks=%llu "
        "dup_drops=%llu ooo_drops=%llu corrupt_drops=%llu\n",
        static_cast<unsigned long long>(rel.frames_sent),
        static_cast<unsigned long long>(rel.retransmits),
        static_cast<unsigned long long>(rel.acks_sent),
        static_cast<unsigned long long>(rel.dup_drops),
        static_cast<unsigned long long>(rel.ooo_drops),
        static_cast<unsigned long long>(rel.corrupt_drops));
  }
  // Sanitizer summary (only when a session is active, so sanitizer-off runs
  // stay byte-identical to a pre-sanitizer build).
  if (san::on()) {
    const san::Stats& ss = san::stats();
    std::printf(
        "[stats] san: reports=%llu race_checks=%llu sync_edges=%llu "
        "buffer_regs=%llu checksums=%llu\n",
        static_cast<unsigned long long>(ss.reports),
        static_cast<unsigned long long>(ss.race_checks),
        static_cast<unsigned long long>(ss.sync_edges),
        static_cast<unsigned long long>(ss.buffer_regs),
        static_cast<unsigned long long>(ss.checksums));
  }
}

}  // namespace benchlib
