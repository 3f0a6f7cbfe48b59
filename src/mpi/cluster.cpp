#include "mpi/cluster.hpp"

#include <stdexcept>

#include "san/san.hpp"
#include "trace/tracer.hpp"
#include "util/env.hpp"

namespace smpi {

namespace {
/// If the config does not already enable faults, honor the MPIOFF_FAULTS
/// environment spec (e.g. "drop=0.02,seed=7") so any benchmark or example
/// can be run under faults without a rebuild.
ClusterConfig with_env_faults(ClusterConfig cfg) {
  if (!cfg.profile.faults.enabled()) {
    const std::string spec = env_util::get_or("MPIOFF_FAULTS");
    if (!spec.empty()) cfg.profile.faults = machine::FaultSpec::parse(spec);
  }
  return cfg;
}
}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(with_env_faults(std::move(cfg))),
      tuner_(cfg_.profile, cfg_.allreduce_algo),
      engine_(),
      net_(engine_, cfg_.profile, cfg_.nranks) {
  if (cfg_.nranks < 1) throw std::invalid_argument("nranks must be >= 1");
  ranks_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    ranks_.push_back(std::make_unique<RankCtx>(*this, r, cfg_.thread_level));
    RankCtx* rc = ranks_.back().get();
    net_.set_delivery_handler(r, [rc](machine::NetMessage&& m) {
      rc->deliver(std::move(m));
    });
    trace::Tracer::instance().name_process(r, "rank " + std::to_string(r));
  }
  // An explicit san_spec wins; otherwise the MPIOFF_SAN environment spec.
  // Only the Cluster that actually opened the session closes it, so nested
  // Clusters (rare, but tests do it) share one session cleanly.
  san_session_ = san::begin_session(
      cfg_.san_spec.empty() ? env_util::get_or("MPIOFF_SAN") : cfg_.san_spec);
}

Cluster::~Cluster() {
  if (san_session_) san::end_session();
}

bool Cluster::all_rel_drained() const {
  for (const auto& r : ranks_) {
    if (!r->rel_drained()) return false;
  }
  return true;
}

sim::Fiber& Cluster::spawn_on(int rank, std::string name,
                              std::function<void()> body) {
  RankCtx* rc = ranks_.at(static_cast<std::size_t>(rank)).get();
  sim::Fiber& f = engine_.spawn(std::move(name), std::move(body));
  f.set_user_data(rc);
  f.set_trace_pid(rank);
  trace::Tracer::instance().name_thread(rank, f.id() + 1, f.name());
  return f;
}

sim::Time Cluster::run(std::function<void(RankCtx&)> rank_main) {
  for (int r = 0; r < cfg_.nranks; ++r) {
    RankCtx* rc = ranks_[static_cast<std::size_t>(r)].get();
    spawn_on(r, "rank" + std::to_string(r) + ".main", [this, rc, rank_main]() {
      rank_main(*rc);
      // Reliability teardown: retransmission is software, so a rank that
      // stops entering MPI stops repairing its own lost frames. Stay in the
      // library until EVERY rank's unacked queues are empty — the global sum
      // of unacked frames is non-increasing once rank_mains have returned,
      // so observing global drain once is a safe exit condition.
      if (cfg_.profile.faults.enabled()) {
        while (!all_rel_drained()) {
          rc->progress();
          const std::uint64_t seen = rc->arrivals().count();
          rc->arrivals().wait_beyond_timeout(seen,
                                             cfg_.profile.faults.rto_base);
        }
      }
    });
  }
  const sim::Time end = engine_.run_until(cfg_.deadline);
  if (!engine_.all_fibers_done()) {
    std::string who;
    for (const auto& n : engine_.unfinished_fibers()) {
      who += ' ';
      who += n;
    }
    throw std::runtime_error(
        (end >= cfg_.deadline ? "simulation deadline exceeded; stuck fibers:"
                              : "simulated deadlock; stuck fibers:") +
        who);
  }
  // Every rank_main returned: anything still active in a request table was
  // posted and never waited/tested to release — a leak under the usage lint.
  if (san::usage_on()) {
    for (const auto& rc : ranks_) {
      san::mpi_teardown(rc->rank(), rc->requests().active_count());
    }
  }
  return end;
}

RankCtx& Cluster::here() {
  sim::Engine* e = sim::Engine::current();
  if (e == nullptr || e->current_fiber() == nullptr) {
    throw std::logic_error("smpi call outside a cluster fiber");
  }
  void* p = e->current_fiber()->user_data();
  if (p == nullptr) {
    throw std::logic_error("calling fiber is not bound to an MPI rank");
  }
  return *static_cast<RankCtx*>(p);
}

}  // namespace smpi
