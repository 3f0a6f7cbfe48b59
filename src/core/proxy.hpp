// Proxy — one interface, four communication approaches (paper Sections 2-3).
//
// Applications and benchmarks are written once against Proxy; selecting the
// approach at run time reproduces the paper's property that no application
// change is needed (the paper uses LD_PRELOAD interposition; we own the MPI
// library, so a non-virtual front end that spells every call as one Command
// plus a small vtable stand in for the PLT).
//
//   baseline  — direct MPI calls from the application thread(s).
//   iprobe    — baseline + progress_hint() mapped to MPI_Iprobe (the
//               PROGRESS macro of Listing 1).
//   comm-self — spawns a progress thread blocked in MPI_Recv on a duplicated
//               COMM_SELF; requires MPI_THREAD_MULTIPLE.
//   offload   — the paper's contribution: all calls serialized to the
//               dedicated offload thread via the lock-free command ring.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/offload_engine.hpp"
#include "mpi/datatype.hpp"
#include "mpi/rank_ctx.hpp"
#include "mpi/types.hpp"

namespace core {

/// Approach selector.
enum class Approach : std::uint8_t {
  kBaseline,
  kIprobe,
  kCommSelf,
  kOffload,
};

const char* approach_name(Approach a);
/// Thread level the underlying MPI must be initialized with.
smpi::ThreadLevel required_thread_level(Approach a);

/// The application-facing front end. Every nonblocking op is spelled once,
/// as a Command handed to post(); the blocking forms are post + wait.
/// Persistent requests live in one record type (core::Persistent) whose
/// validation, inactive -> started -> inactive state machine and misuse
/// reporting are all here.
/// What an approach overrides is only what the paper varies: who issues a
/// posted op and who discovers its completion.
class Proxy {
 public:
  explicit Proxy(smpi::RankCtx& rc) : rc_(rc) {}
  virtual ~Proxy() = default;

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  [[nodiscard]] smpi::RankCtx& rank_ctx() { return rc_; }
  [[nodiscard]] virtual Approach approach() const = 0;

  /// Spawn helper threads (comm-self progress thread / offload engine).
  /// (The old `start()` alias is gone: start(PersistentReq&) begins a
  /// persistent generation, start_engine() starts helper threads.)
  virtual void start_engine() {}
  /// Drain and join helper threads. Must be called before the rank exits.
  virtual void stop() {}

  // ---- point-to-point ----
  PReq isend(const void* b, std::size_t n, smpi::Datatype dt, int dst, int tag,
             smpi::Comm c = smpi::kCommWorld) {
    return post(Command::isend(b, n, dt, dst, tag, c));
  }
  PReq irecv(void* b, std::size_t n, smpi::Datatype dt, int src, int tag,
             smpi::Comm c = smpi::kCommWorld) {
    return post(Command::irecv(b, n, dt, src, tag, c));
  }
  void send(const void* b, std::size_t n, smpi::Datatype dt, int dst, int tag,
            smpi::Comm c = smpi::kCommWorld) {
    PReq r = isend(b, n, dt, dst, tag, c);
    wait(r);
  }
  void recv(void* b, std::size_t n, smpi::Datatype dt, int src, int tag,
            smpi::Comm c = smpi::kCommWorld, smpi::Status* st = nullptr) {
    PReq r = irecv(b, n, dt, src, tag, c);
    wait(r, st);
  }

  /// Post a group of nonblocking point-to-point operations (Command::isend
  /// or ::irecv); `out[i]` receives the request for `ops[i]`. Mismatched
  /// span lengths or any other op throw std::invalid_argument before
  /// anything is posted. The default posts one at a time; the offload proxy
  /// serializes whole chunks into its submission lane with one publish and
  /// one doorbell each (OffloadProxy::kBatchFlush commands per chunk).
  virtual void post_batch(std::span<const Command> ops, std::span<PReq> out);

  // ---- persistent point-to-point (MPI_Send_init/MPI_Recv_init) ----
  // init-once/start-many: the envelope is registered once, then each
  // generation cycles start -> wait -> (restart | free). wait returns the
  // handle to the inactive state instead of consuming it. A continuation may
  // start or free a persistent request.

  PersistentReq send_init(const void* b, std::size_t n, smpi::Datatype dt,
                          int dst, int tag, smpi::Comm c = smpi::kCommWorld) {
    return persistent_init(Command::isend(b, n, dt, dst, tag, c));
  }
  PersistentReq recv_init(void* b, std::size_t n, smpi::Datatype dt, int src,
                          int tag, smpi::Comm c = smpi::kCommWorld) {
    return persistent_init(Command::irecv(b, n, dt, src, tag, c));
  }
  /// Begin one generation. Throws std::logic_error when the previous
  /// generation's completion has not been consumed or the request was freed.
  void start(PersistentReq& r);
  /// start() every handle in `rs`; an empty span is a no-op.
  void startall(std::span<PersistentReq> rs) {
    for (PersistentReq& r : rs) start(r);
  }
  /// Block until the current generation completes; the handle returns to
  /// the inactive state (NOT nulled — start it again or free it). Trivially
  /// complete with an empty Status when no generation is active.
  void wait(PersistentReq& r, smpi::Status* st = nullptr);
  /// Retire the request (requires no generation in flight); nulls `r`.
  void request_free(PersistentReq& r);

  // ---- completion ----
  virtual void wait(PReq& r, smpi::Status* st = nullptr) = 0;
  virtual void waitall(std::span<PReq> rs) = 0;
  /// MPI_Waitany: block until some active request completes, release it,
  /// null its entry, and return its index; -1 when every entry is null.
  virtual int waitany(std::span<PReq> rs, smpi::Status* st = nullptr) = 0;
  /// MPI_Testall: true iff every active request has completed — then all are
  /// released and nulled; otherwise none are (and true for an all-null span).
  virtual bool testall(std::span<PReq> rs) = 0;

  // ---- continuations (mpi/continuation.hpp wraps these in `.then()`) ----

  /// Bind `fn` to run exactly once when `r` completes, consuming the handle
  /// (it is nulled; do not wait on it afterwards). Who runs the callback is
  /// approach-specific: the offload engine fiber for kOffload, the progress
  /// path (progress_hint/cont_wait pumps) for the direct approaches. A
  /// null handle is the released-request case and runs `fn` inline with an
  /// empty Status — attaching twice is as safe as waiting twice. Callbacks
  /// may post follow-ups and attach further continuations but must never
  /// block.
  virtual void attach_continuation(PReq& r, ContFn fn) = 0;

  /// Block until `done()` returns true, driving whatever machinery runs this
  /// proxy's continuations in the meantime. The standard pattern is an
  /// Event/flag that the tail continuation of a graph sets.
  virtual void cont_wait(const std::function<bool()>& done) = 0;

  // ---- collectives ----
  PReq ibarrier(smpi::Comm c = smpi::kCommWorld) {
    return post({.op = CmdOp::kIbarrier, .comm = c});
  }
  PReq ibcast(void* b, std::size_t n, smpi::Datatype dt, int root,
              smpi::Comm c = smpi::kCommWorld) {
    return post({.op = CmdOp::kIbcast, .rbuf = b, .count = n, .dtype = dt,
                 .peer = root, .comm = c});
  }
  /// The reductions reject, before anything is posted, an (op, datatype)
  /// pair that cannot be combined (on every rank) and a partial overlap of
  /// `s` and `r` (rbuf counts at the root only): the schedule accumulates in
  /// `r`, so only s == r (in place) or disjoint buffers are defined.
  PReq ireduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
               smpi::Op op, int root, smpi::Comm c = smpi::kCommWorld) {
    smpi::check_reduce_op("ireduce", op, dt);
    if (rc_.comms().get(c).my_rank == root) {
      smpi::check_reduce_buffers("ireduce", s, r, n * smpi::datatype_size(dt));
    }
    return post({.op = CmdOp::kIreduce, .sbuf = s, .rbuf = r, .count = n,
                 .dtype = dt, .rop = op, .peer = root, .comm = c});
  }
  PReq iallreduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
                  smpi::Op op, smpi::Comm c = smpi::kCommWorld) {
    smpi::check_reduce_op("iallreduce", op, dt);
    smpi::check_reduce_buffers("iallreduce", s, r, n * smpi::datatype_size(dt));
    return post({.op = CmdOp::kIallreduce, .sbuf = s, .rbuf = r, .count = n,
                 .dtype = dt, .rop = op, .comm = c});
  }
  PReq ialltoall(const void* s, void* r, std::size_t n_per, smpi::Datatype dt,
                 smpi::Comm c = smpi::kCommWorld) {
    return post({.op = CmdOp::kIalltoall, .sbuf = s, .rbuf = r,
                 .count = n_per, .dtype = dt, .comm = c});
  }
  PReq iallgather(const void* s, void* r, std::size_t n_per, smpi::Datatype dt,
                  smpi::Comm c = smpi::kCommWorld) {
    return post({.op = CmdOp::kIallgather, .sbuf = s, .rbuf = r,
                 .count = n_per, .dtype = dt, .comm = c});
  }
  void barrier(smpi::Comm c = smpi::kCommWorld) {
    PReq r = ibarrier(c);
    wait(r);
  }
  void bcast(void* b, std::size_t n, smpi::Datatype dt, int root,
             smpi::Comm c = smpi::kCommWorld) {
    PReq r = ibcast(b, n, dt, root, c);
    wait(r);
  }
  void reduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
              smpi::Op op, int root, smpi::Comm c = smpi::kCommWorld) {
    PReq q = ireduce(s, r, n, dt, op, root, c);
    wait(q);
  }
  void allreduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
                 smpi::Op op, smpi::Comm c = smpi::kCommWorld) {
    PReq q = iallreduce(s, r, n, dt, op, c);
    wait(q);
  }
  void alltoall(const void* s, void* r, std::size_t n_per, smpi::Datatype dt,
                smpi::Comm c = smpi::kCommWorld) {
    PReq q = ialltoall(s, r, n_per, dt, c);
    wait(q);
  }
  void allgather(const void* s, void* r, std::size_t n_per, smpi::Datatype dt,
                 smpi::Comm c = smpi::kCommWorld) {
    PReq q = iallgather(s, r, n_per, dt, c);
    wait(q);
  }

  /// Hook the application sprinkles into compute loops (Listing 1's
  /// PROGRESS). No-op except for the iprobe approach.
  virtual void progress_hint() {}

  /// Number of threads left for application compute out of `cores`
  /// (approaches with a dedicated communication thread consume one).
  [[nodiscard]] virtual int compute_threads(int cores) const { return cores; }

  /// Requests still live inside the proxy's own bookkeeping (0 for the
  /// direct approaches, which hand out raw smpi requests). The differential
  /// conformance suite asserts this drains to zero at teardown.
  [[nodiscard]] virtual std::size_t inflight() const { return 0; }

 protected:
  /// Issue one op: a direct proxy executes it on the caller's thread, the
  /// offload proxy serializes it to an engine.
  virtual PReq post(const Command& cmd) = 0;

  // ---- persistent actions: what an approach does at each step of the
  // front end's state machine (the checks have already passed) ----
  /// Init: create the rc_-level request (direct) or pin a pool slot.
  virtual void persist_bind(Persistent& p) = 0;
  /// Start: must set p.state to kStarted once the generation may be
  /// observed.
  virtual void persist_start(Persistent& p) = 0;
  /// Block until the generation completes and consume its completion.
  virtual void persist_complete(Persistent& p, smpi::Status* st) = 0;
  /// Release whatever persist_bind acquired.
  virtual void persist_free(Persistent& p) = 0;

  /// Look up a handle, throwing on null/out-of-range.
  Persistent& persistent_of(const PersistentReq& r, const char* call);

  smpi::RankCtx& rc_;

 private:
  [[noreturn]] void misuse(const char* call, const char* what);
  PersistentReq persistent_init(const Command& cmd);

  /// deque: stable addresses (the offload channel holds records), never
  /// reused.
  std::deque<Persistent> persist_;
};

/// Direct-call proxy (baseline); also the base for iprobe and comm-self.
/// The caller's thread enters MPI itself: post() executes the op, completion
/// calls are the MPI ones.
class DirectProxy : public Proxy {
 public:
  using Proxy::Proxy;
  // The PReq override below would hide the front end's PersistentReq
  // overload — keep both visible.
  using Proxy::wait;
  [[nodiscard]] Approach approach() const override { return Approach::kBaseline; }

  void wait(PReq& r, smpi::Status* st = nullptr) override;
  void waitall(std::span<PReq> rs) override;
  int waitany(std::span<PReq> rs, smpi::Status* st = nullptr) override;
  bool testall(std::span<PReq> rs) override;

  /// Direct approaches have no engine fiber: armed continuations live in a
  /// list the progress path pumps (each pump MPI_Tests the armed requests
  /// and runs the callbacks of completed ones).
  void attach_continuation(PReq& r, ContFn fn) override;
  void cont_wait(const std::function<bool()>& done) override;
  [[nodiscard]] std::size_t inflight() const override {
    return armed_.size();
  }

 protected:
  PReq post(const Command& cmd) override;
  void persist_bind(Persistent& p) override;
  void persist_start(Persistent& p) override;
  void persist_complete(Persistent& p, smpi::Status* st) override;
  void persist_free(Persistent& p) override;

  /// Test each armed request once; run + retire completed ones. Safe against
  /// re-entry (callbacks posting follow-ups or attaching more continuations
  /// land in armed_ and are picked up by the restarted scan).
  void pump_continuations();

 private:
  struct Armed {
    smpi::Request req;
    ContFn fn;
  };
  std::vector<Armed> armed_;
  bool pumping_ = false;
};

class IprobeProxy : public DirectProxy {
 public:
  using DirectProxy::DirectProxy;
  [[nodiscard]] Approach approach() const override { return Approach::kIprobe; }
  void progress_hint() override;
};

class CommSelfProxy : public DirectProxy {
 public:
  using DirectProxy::DirectProxy;
  [[nodiscard]] Approach approach() const override { return Approach::kCommSelf; }
  void start_engine() override;
  void stop() override;
  [[nodiscard]] int compute_threads(int cores) const override {
    return cores > 1 ? cores - 1 : cores;
  }

 private:
  smpi::Comm progress_comm_{};
  bool running_ = false;
  char stop_token_ = 0;
  char recv_token_ = 0;
};

class OffloadProxy : public Proxy {
 public:
  /// Tuning from the machine profile + the MPIOFF_PROXY env spec.
  explicit OffloadProxy(smpi::RankCtx& rc);
  /// Explicit tuning (tests/ablations); the environment is NOT consulted.
  OffloadProxy(smpi::RankCtx& rc, const ProxyOptions& opts);
  using Proxy::wait;
  [[nodiscard]] Approach approach() const override { return Approach::kOffload; }
  void start_engine() override;
  void stop() override;
  [[nodiscard]] int compute_threads(int cores) const override {
    return cores > 1 ? cores - 1 : cores;
  }
  [[nodiscard]] OffloadChannel& channel() { return channel_; }
  /// The pool slot persistent request `r` pins for its whole lifetime.
  [[nodiscard]] std::uint32_t pool_slot(const PersistentReq& r) {
    return persistent_of(r, "pool_slot").cmd.proxy;
  }
  [[nodiscard]] std::size_t inflight() const override {
    return channel_.pool().capacity() - channel_.pool().free_count();
  }

  /// Commands per post_batch chunk: each chunk is one lane publish and one
  /// doorbell.
  static constexpr std::size_t kBatchFlush = 8;
  void post_batch(std::span<const Command> ops, std::span<PReq> out) override;
  void wait(PReq& r, smpi::Status* st = nullptr) override;
  /// Tuned completion surface: one pass over the pool's done flags per wake,
  /// no per-request channel calls.
  void waitall(std::span<PReq> rs) override;
  int waitany(std::span<PReq> rs, smpi::Status* st = nullptr) override;
  bool testall(std::span<PReq> rs) override;

  /// Delegates to OffloadChannel::attach_continuation — the engine fiber
  /// runs the callback from its completion pass (inline here only when the
  /// request already completed).
  void attach_continuation(PReq& r, ContFn fn) override;
  void cont_wait(const std::function<bool()>& done) override;

 protected:
  PReq post(const Command& cmd) override;
  // Persistent: a pinned pool slot per request; start publishes one cheap
  // kStartPersistent command.
  void persist_bind(Persistent& p) override;
  void persist_start(Persistent& p) override;
  void persist_complete(Persistent& p, smpi::Status* st) override;
  void persist_free(Persistent& p) override;

 private:
  /// Release the done slots behind the non-null entries of `rs` and null
  /// them; true when any was freed (the caller signals completions()).
  bool release(std::span<PReq> rs);

  OffloadChannel channel_;
  /// One fiber per engine (ProxyOptions::proxy_count), in engine order.
  std::vector<sim::Fiber*> engine_fibers_;
};

/// Factory; caller picks the approach per rank (all ranks should agree).
/// Offload tuning comes from ProxyOptions::from_env (profile defaults +
/// MPIOFF_PROXY); the second overload pins it explicitly instead.
std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc);
std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc,
                                  const ProxyOptions& opts);

}  // namespace core
