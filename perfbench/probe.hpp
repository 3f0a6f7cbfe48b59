// Measurement plumbing for the benchmark episode runner: host clocks, the
// span recorder wrapped around every benchmark call into a layer, and the
// snapshot of the program's own stats accessors.
//
// Everything here reads clocks and counters; nothing advances virtual time,
// so a traced episode simulates exactly the run an untraced one does.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "sim/engine.hpp"

namespace perfbench {

// ---- host clocks ---------------------------------------------------------

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t minflt = 0;
  std::int64_t maxrss_kb = 0;
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};

inline Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return Usage{sec(ru.ru_utime), sec(ru.ru_stime), ru.ru_minflt, ru.ru_maxrss};
}

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Burn `ns` of host CPU on the calling thread (the host canary).
inline void busy_wait(std::int64_t ns) {
  const std::int64_t until = host_ns() + ns;
  while (host_ns() < until) {
  }
}

/// Virtual now, or 0 outside a running engine (e.g. Cluster construction).
inline std::int64_t vt_ns() {
  sim::Engine* e = sim::Engine::current();
  return e != nullptr ? e->now().ns() : 0;
}

// ---- spans ---------------------------------------------------------------

/// What a benchmark call does, for deriving per-layer numbers.
enum class Kind : std::uint8_t { kSetup, kRun, kPost, kWait, kColl };

struct Span {
  const char* layer;
  const char* call;
  Kind kind;
  std::uint64_t op;      ///< workload op id (message, rank-iteration, ...)
  std::uint32_t id;      ///< 1-based span id
  std::uint32_t parent;  ///< enclosing span id, 0 = none
  std::int64_t vt0, vt1, h0, h1;
};

/// Wraps each benchmark call into a layer. When tracing, records one span
/// per call in memory; `canary_ns` adds a fixed host busy-wait at the same
/// boundary (traced or not).
class Recorder {
 public:
  Recorder(bool tracing, std::int64_t canary_ns)
      : tracing_(tracing), canary_ns_(canary_ns) {
    if (tracing_) spans_.reserve(1 << 16);
  }

  template <class F>
  decltype(auto) call(const char* layer, const char* name, Kind kind,
                      std::uint64_t op, F&& f) {
    ++calls_;
    if (canary_ns_ > 0) busy_wait(canary_ns_);
    if (!tracing_) return f();
    Guard g(*this, layer, name, kind, op);
    return f();
  }

  /// Make `id` the parent of spans opened from now on (0 clears).
  void set_parent(std::uint32_t id) { parent_ = id; }
  /// Overwrite the virtual end of span `id` (for calls that outlive the
  /// engine, such as Cluster::run).
  void set_end_vt(std::uint32_t id, std::int64_t vt) { spans_.at(id - 1).vt1 = vt; }
  [[nodiscard]] std::uint32_t last_id() const {
    return static_cast<std::uint32_t>(spans_.size());
  }
  [[nodiscard]] bool tracing() const { return tracing_; }
  /// Benchmark calls made so far, traced or not.
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one tab-separated line.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tlayer\tcall\top\tvt0_ns\tvt1_ns\thost0_ns\thost1_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u\t%u\t%s\t%s\t%llu\t%lld\t%lld\t%lld\t%lld\n", s.id,
                   s.parent, s.layer, s.call,
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.vt0), static_cast<long long>(s.vt1),
                   static_cast<long long>(s.h0), static_cast<long long>(s.h1));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Guard {
    Recorder& r;
    std::size_t idx;
    Guard(Recorder& rec, const char* layer, const char* name, Kind kind,
          std::uint64_t op)
        : r(rec), idx(rec.spans_.size()) {
      const auto id = static_cast<std::uint32_t>(idx + 1);
      r.spans_.push_back(
          Span{layer, name, kind, op, id, r.parent_, vt_ns(), 0, host_ns(), 0});
    }
    ~Guard() {
      Span& s = r.spans_[idx];
      s.vt1 = vt_ns();
      s.h1 = host_ns();
    }
  };

  bool tracing_;
  std::int64_t canary_ns_;
  std::uint32_t parent_ = 0;
  std::uint64_t calls_ = 0;
  std::vector<Span> spans_;
};

// ---- program stats accessors ------------------------------------------------

/// Sum of the program's counters over every rank at one moment.
struct Counts {
  std::int64_t events = 0, switches = 0, fibers = 0;
  std::int64_t net_msgs = 0, net_bytes = 0;
  std::int64_t calls = 0, progress_passes = 0, eager = 0, rndv = 0,
               unexpected = 0, mpi_vt_ns = 0;
  std::int64_t coll_chunks = 0, coll_chunk_vt_ns = 0;
  std::int64_t commands = 0, testany_calls = 0, completions = 0, stalls = 0,
               steals = 0, spins = 0, yields = 0, sleeps = 0, cont = 0,
               cont_posts = 0;
};

/// Every field with its name in the episode's JSON, in output order.
inline constexpr std::pair<const char*, std::int64_t Counts::*> kCountFields[] = {
    {"events", &Counts::events},
    {"switches", &Counts::switches},
    {"fibers", &Counts::fibers},
    {"net_msgs", &Counts::net_msgs},
    {"net_bytes", &Counts::net_bytes},
    {"mpi_calls", &Counts::calls},
    {"progress_passes", &Counts::progress_passes},
    {"eager_sends", &Counts::eager},
    {"rndv_sends", &Counts::rndv},
    {"unexpected_hits", &Counts::unexpected},
    {"mpi_vt_ns", &Counts::mpi_vt_ns},
    {"coll_chunks", &Counts::coll_chunks},
    {"coll_chunk_vt_ns", &Counts::coll_chunk_vt_ns},
    {"commands", &Counts::commands},
    {"testany_calls", &Counts::testany_calls},
    {"completions", &Counts::completions},
    {"stalls", &Counts::stalls},
    {"steal_commands", &Counts::steals},
    {"engine_spins", &Counts::spins},
    {"engine_yields", &Counts::yields},
    {"engine_sleeps", &Counts::sleeps},
    {"cont_executed", &Counts::cont},
    {"cont_posts", &Counts::cont_posts},
};

/// Counter deltas between two snapshots; `fibers` stays a level.
inline Counts operator-(Counts a, const Counts& b) {
  for (const auto& [name, field] : kCountFields) {
    if (field != &Counts::fibers) a.*field -= b.*field;
  }
  return a;
}

/// Read every stats accessor the benchmark uses. `proxies[r]` is null until
/// rank r has made its proxy.
inline Counts read_counts(smpi::Cluster& c,
                          const std::vector<core::Proxy*>& proxies) {
  auto i = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  Counts k;
  const sim::EngineStats& es = c.engine().stats();
  k.events = i(es.events_fired);
  k.switches = i(es.context_switches);
  k.fibers = i(es.fibers_spawned);
  const machine::NetworkStats& ns = c.network().stats();
  k.net_msgs = i(ns.messages);
  k.net_bytes = i(ns.bytes);
  for (int r = 0; r < c.nranks(); ++r) {
    const smpi::RankCtx& rc = c.rank(r);
    const smpi::RankStats& s = rc.stats();
    k.calls += i(s.calls);
    k.progress_passes += i(s.progress_passes);
    k.eager += i(s.eager_sends);
    k.rndv += i(s.rndv_sends);
    k.unexpected += i(s.unexpected_hits);
    k.mpi_vt_ns += s.time_in_mpi.ns();
    k.coll_chunks += i(rc.coll_stats().chunks);
    k.coll_chunk_vt_ns += rc.coll_stats().chunk_time.ns();
    auto* off = dynamic_cast<core::OffloadProxy*>(proxies[static_cast<std::size_t>(r)]);
    if (off == nullptr) continue;
    const core::OffloadStats& o = off->channel().stats();
    k.commands += i(o.commands);
    k.testany_calls += i(o.testany_calls);
    k.completions += i(o.completions);
    k.stalls += i(o.ring_full_stalls + o.pool_full_stalls + o.lane_full_stalls);
    k.steals += i(o.steal_commands);
    k.spins += i(o.engine_spins);
    k.yields += i(o.engine_yields);
    k.sleeps += i(o.engine_sleeps);
    k.cont += i(o.cont_executed);
    k.cont_posts += i(o.cont_posts);
  }
  return k;
}

// ---- small statistics ----------------------------------------------------

/// Nearest-rank median (the lower middle value for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// The highest percentile with at least ten samples beyond it: the order
/// statistic with exactly ten larger ranks. Returns {value, percentile}.
inline std::pair<double, double> tail10(std::vector<double> v) {
  if (v.size() <= 10) return {0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

}  // namespace perfbench
