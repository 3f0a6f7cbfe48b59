// A12: the production serving scenario (apps/serve) across the four
// proxies — the paper's offloading argument under the traffic shape the
// ROADMAP north star names: open-loop heavy-tailed client load against a
// latency SLO, with when_any-hedged replicas.
//
// Unlike the BSP ablations (A7-A11), the metric here is distributional:
// p50/p99/p999 virtual-time latency and goodput-under-SLO. The direct
// proxies collapse at the tail because the edge's reactive continuation
// graphs only run when some app thread happens to re-enter MPI, while the
// offload engine runs them at completion time — the same Fig. 2 story, told
// by tail latency instead of message rate.
#include <algorithm>
#include <cstdio>

#include "apps/serve/serve.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using benchlib::Runner;
using benchlib::Table;
using core::Approach;

namespace {

serve::ServeConfig bench_config(Approach a, int workers) {
  serve::ServeConfig cfg;
  cfg.approach = a;
  cfg.edges = 2;
  cfg.shards = 2;
  cfg.workers = workers;
  cfg.window = 32;
  cfg.requests = Runner::smoke_enabled() ? 600 : 6000;  // per edge
  cfg.traffic.mean_interarrival = sim::Time::from_us(1);
  cfg.slo = sim::Time::from_us(150);
  return cfg;
}

struct Cell {
  serve::ServeResult r;
  Approach a;
};

void a12_serve(int workers) {
  std::printf("\nA12: serving tier at %d app threads/shard — p50/p99/p999 "
              "virtual-time latency, goodput under a 150us SLO, when_any "
              "hedging\n",
              workers);
  Table t({"approach", "p50(us)", "p99(us)", "p999(us)", "slo-ok%",
           "goodput(req/s)", "hedge-wins", "resp"});
  std::vector<Cell> cells;
  for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                     Approach::kCommSelf, Approach::kOffload}) {
    const serve::ServeResult r = run_serve(bench_config(a, workers));
    cells.push_back({r, a});
    char p50[24], p99[24], p999[24], okp[24], gp[24], hw[24], resp[24];
    std::snprintf(p50, sizeof p50, "%.1f", r.p50_us);
    std::snprintf(p99, sizeof p99, "%.1f", r.p99_us);
    std::snprintf(p999, sizeof p999, "%.1f", r.p999_us);
    std::snprintf(okp, sizeof okp, "%.1f",
                  100.0 * static_cast<double>(r.slo_ok) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, r.slo_ok + r.slo_miss)));
    std::snprintf(gp, sizeof gp, "%.0f", r.goodput_rps);
    std::snprintf(hw, sizeof hw, "%llu/%llu",
                  static_cast<unsigned long long>(r.hedge_wins),
                  static_cast<unsigned long long>(r.hedged));
    std::snprintf(resp, sizeof resp, "%llu",
                  static_cast<unsigned long long>(r.responses));
    t.row({core::approach_name(a), p50, p99, p999, okp, gp, hw, resp});
  }
  t.print();

  // The acceptance bar: offload beats the BEST direct proxy by >= 1.3x on
  // p99 latency or goodput-under-SLO.
  const Cell& off = cells.back();
  double best_direct_p99 = 1e300, best_direct_gp = 0.0;
  for (const Cell& c : cells) {
    if (c.a == Approach::kOffload) continue;
    best_direct_p99 = std::min(best_direct_p99, c.r.p99_us);
    best_direct_gp = std::max(best_direct_gp, c.r.goodput_rps);
  }
  const double p99_ratio = best_direct_p99 / std::max(off.r.p99_us, 1e-9);
  const double gp_ratio = off.r.goodput_rps / std::max(best_direct_gp, 1e-9);
  std::printf("offload vs best direct: p99 %.2fx better, goodput %.2fx\n",
              p99_ratio, gp_ratio);
  if (Runner::stats_enabled()) {
    std::printf(
        "[stats] a12 serve: threads=%d offload_p99_us=%.1f "
        "best_direct_p99_us=%.1f p99_ratio=%.2f offload_goodput=%.0f "
        "best_direct_goodput=%.0f goodput_ratio=%.2f offload_p999_us=%.1f "
        "hedged=%llu hedge_wins=%llu responses=%llu cont_executed=%llu "
        "cont_posts=%llu\n",
        workers, off.r.p99_us, best_direct_p99, p99_ratio,
        off.r.goodput_rps, best_direct_gp, gp_ratio, off.r.p999_us,
        static_cast<unsigned long long>(off.r.hedged),
        static_cast<unsigned long long>(off.r.hedge_wins),
        static_cast<unsigned long long>(off.r.responses),
        static_cast<unsigned long long>(off.r.cont_executed),
        static_cast<unsigned long long>(off.r.cont_posts));
  }
}

}  // namespace

int main() {
  benchlib::Runner runner;
  std::printf("Fig 15 (new): latency-SLO serving tier, offload vs direct "
              "proxies\n");
  if (!Runner::smoke_enabled()) a12_serve(2);
  a12_serve(8);
  return 0;
}
