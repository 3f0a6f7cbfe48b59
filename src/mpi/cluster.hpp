// Cluster — spawns and runs a simulated MPI job.
//
// A Cluster owns the event engine, the network, and one RankCtx per rank. It
// spawns a "main thread" fiber per rank running the user-provided rank_main,
// exactly like mpirun launching N processes. Additional fibers (OpenMP-style
// workers, comm-self progress threads, the offload thread) are spawned onto
// a rank with spawn_on(); they inherit the rank's context so the smpi:: free
// functions resolve correctly.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "machine/network.hpp"
#include "machine/profile.hpp"
#include "mpi/rank_ctx.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"

namespace smpi {

struct ClusterConfig {
  int nranks = 2;
  machine::Profile profile = machine::xeon_fdr();
  ThreadLevel thread_level = ThreadLevel::kFunneled;
  /// Abort the run if the virtual clock passes this (deadlock guard).
  sim::Time deadline = sim::Time::from_sec(3600);
  /// Force this schedule on every allreduce it is legal for (see
  /// mpi/coll_tuner.hpp); unset -> the tuner's size-based default.
  std::optional<CollAlgo> allreduce_algo;
  /// Sanitizer spec in MPIOFF_SAN grammar (see san/san.hpp). Empty -> the
  /// MPIOFF_SAN environment variable; both empty -> sanitizer off.
  std::string san_spec;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] int nranks() const { return cfg_.nranks; }
  [[nodiscard]] const machine::Profile& profile() const { return cfg_.profile; }
  [[nodiscard]] const CollTuner& coll_tuner() const { return tuner_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] machine::Network& network() { return net_; }
  [[nodiscard]] RankCtx& rank(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }

  /// Spawn an extra fiber bound to `rank`'s context (a "thread" of that rank).
  sim::Fiber& spawn_on(int rank, std::string name, std::function<void()> body);

  /// Run rank_main on every rank to completion. Throws on deadlock (fibers
  /// left unfinished when the event queue drains) or deadline overrun.
  /// Returns the final virtual time.
  sim::Time run(std::function<void(RankCtx&)> rank_main);

  /// The RankCtx bound to the calling fiber.
  static RankCtx& here();

 private:
  /// All ranks' reliability queues empty (end-of-run teardown condition).
  [[nodiscard]] bool all_rel_drained() const;

  ClusterConfig cfg_;
  CollTuner tuner_;
  sim::Engine engine_;
  machine::Network net_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  bool san_session_ = false;  ///< this Cluster opened the sanitizer session
};

// ------------------------------------------------------------------------
// Free-function API: MPI-flavoured wrappers that resolve the calling
// fiber's RankCtx. Application and benchmark code is written against these.
// ------------------------------------------------------------------------

inline RankCtx& ctx() { return Cluster::here(); }

inline int rank(Comm c = kCommWorld) { return ctx().comms().get(c).my_rank; }
inline int size(Comm c = kCommWorld) { return ctx().comms().get(c).size(); }
inline sim::Time wtime() { return sim::now(); }

inline Request isend(const void* b, std::size_t n, Datatype dt, int dst, int tag,
                     Comm c = kCommWorld) {
  return ctx().isend(b, n, dt, dst, tag, c);
}
inline Request irecv(void* b, std::size_t n, Datatype dt, int src, int tag,
                     Comm c = kCommWorld) {
  return ctx().irecv(b, n, dt, src, tag, c);
}
inline void send(const void* b, std::size_t n, Datatype dt, int dst, int tag,
                 Comm c = kCommWorld) {
  ctx().send(b, n, dt, dst, tag, c);
}
inline void recv(void* b, std::size_t n, Datatype dt, int src, int tag,
                 Comm c = kCommWorld, Status* st = nullptr) {
  ctx().recv(b, n, dt, src, tag, c, st);
}
inline bool test(Request& r, Status* st = nullptr) { return ctx().test(r, st); }
inline void wait(Request& r, Status* st = nullptr) { ctx().wait(r, st); }
inline void waitall(std::span<Request> rs) { ctx().waitall(rs); }
inline int waitany(std::span<Request> rs, Status* st = nullptr) {
  return ctx().waitany(rs, st);
}
inline bool testany(std::span<Request> rs, int* idx, Status* st = nullptr) {
  return ctx().testany(rs, idx, st);
}
inline bool iprobe(int src, int tag, Comm c = kCommWorld, Status* st = nullptr) {
  return ctx().iprobe(src, tag, c, st);
}

inline void barrier(Comm c = kCommWorld) { ctx().barrier(c); }
inline Request ibarrier(Comm c = kCommWorld) { return ctx().ibarrier(c); }
inline void bcast(void* b, std::size_t n, Datatype dt, int root, Comm c = kCommWorld) {
  ctx().bcast(b, n, dt, root, c);
}
inline Request ibcast(void* b, std::size_t n, Datatype dt, int root,
                      Comm c = kCommWorld) {
  return ctx().ibcast(b, n, dt, root, c);
}
inline void reduce(const void* s, void* r, std::size_t n, Datatype dt, Op op,
                   int root, Comm c = kCommWorld) {
  ctx().reduce(s, r, n, dt, op, root, c);
}
inline void allreduce(const void* s, void* r, std::size_t n, Datatype dt, Op op,
                      Comm c = kCommWorld) {
  ctx().allreduce(s, r, n, dt, op, c);
}
inline Request iallreduce(const void* s, void* r, std::size_t n, Datatype dt,
                          Op op, Comm c = kCommWorld) {
  return ctx().iallreduce(s, r, n, dt, op, c);
}
inline void alltoall(const void* s, void* r, std::size_t n_per, Datatype dt,
                     Comm c = kCommWorld) {
  ctx().alltoall(s, r, n_per, dt, c);
}
inline Request ialltoall(const void* s, void* r, std::size_t n_per, Datatype dt,
                         Comm c = kCommWorld) {
  return ctx().ialltoall(s, r, n_per, dt, c);
}
inline void allgather(const void* s, void* r, std::size_t n_per, Datatype dt,
                      Comm c = kCommWorld) {
  ctx().allgather(s, r, n_per, dt, c);
}
inline Request iallgather(const void* s, void* r, std::size_t n_per, Datatype dt,
                          Comm c = kCommWorld) {
  return ctx().iallgather(s, r, n_per, dt, c);
}
inline Comm comm_dup(Comm parent) { return ctx().comm_dup(parent); }
inline Comm comm_split(Comm parent, int color, int key) {
  return ctx().comm_split(parent, color, key);
}
inline void progress() { ctx().progress(); }

/// Model a computation phase: occupy this simulated thread for `t`.
inline void compute(sim::Time t) { sim::advance(t); }

}  // namespace smpi
