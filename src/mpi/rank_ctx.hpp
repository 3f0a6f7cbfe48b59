// RankCtx — one MPI rank's library state and entry points.
//
// Everything an MPI implementation keeps per process lives here: the
// communicator and request tables, the matching engine, the NIC inbox, the
// progress engine, and the THREAD_MULTIPLE global lock. All fibers belonging
// to a rank (its "OpenMP threads", a comm-self progress thread, an offload
// thread) share one RankCtx.
//
// Progress model (the crux of the reproduction): the network autonomously
// deposits arrivals into `inbox_` and flips DMA flags, but *software* actions
// — matching, eager copy-out, rendezvous handshakes, collective schedules,
// request completion — happen only inside progress_poll(), which runs only
// while some fiber is executing an MPI call. An MPI implementation with no
// thread inside it makes no progress; that is the asynchrony gap the paper's
// offload thread closes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "machine/network.hpp"
#include "machine/profile.hpp"
#include "mpi/coll_op.hpp"
#include "mpi/comm.hpp"
#include "mpi/matching.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace smpi {

class Cluster;

/// Counters exposed for tests and benchmark sanity checks.
struct RankStats {
  std::uint64_t calls = 0;            ///< library entries
  std::uint64_t progress_passes = 0;
  std::uint64_t eager_sends = 0;
  std::uint64_t rndv_sends = 0;
  std::uint64_t unexpected_hits = 0;  ///< receives satisfied from unexpected q
  sim::Time time_in_mpi;              ///< virtual time spent inside the library
};

/// Reliability-sublayer counters (all zero while faults are disabled).
struct RelStats {
  std::uint64_t frames_sent = 0;    ///< sequenced first transmissions
  std::uint64_t retransmits = 0;    ///< go-back-N re-injections (software)
  std::uint64_t acks_sent = 0;      ///< pure kWireAck frames (software)
  std::uint64_t dup_drops = 0;      ///< duplicates suppressed at the NIC
  std::uint64_t ooo_drops = 0;      ///< out-of-order frames dropped (go-back-N)
  std::uint64_t corrupt_drops = 0;  ///< frames failing the checksum
};

class RankCtx {
 public:
  RankCtx(Cluster& cluster, int rank, ThreadLevel level);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const;
  [[nodiscard]] ThreadLevel thread_level() const { return level_; }
  [[nodiscard]] const machine::Profile& profile() const;
  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] const RankStats& stats() const { return stats_; }
  [[nodiscard]] RankStats& stats() { return stats_; }
  [[nodiscard]] const CollStats& coll_stats() const { return coll_stats_; }
  /// Algorithm-selection table shared by every rank (owned by the Cluster).
  [[nodiscard]] const CollTuner& coll_tuner() const;

  CommTable& comms() { return comms_; }
  RequestTable& requests() { return reqs_; }
  MatchingEngine& matching() { return match_; }
  sim::Notifier& arrivals() { return arrivals_; }

  // ---------------- progress sharing ----------------
  /// Declare `f` a progress sharer: a fiber (an offload engine) that may
  /// enter the library concurrently with its siblings even below
  /// THREAD_MULTIPLE. For sharers, progress_poll runs single-flight — a
  /// sharer arriving while a pass is live skips it (the running pass does
  /// the same software work it would have) instead of tripping the
  /// reentrancy invariant. Unregistered fibers keep the strict guarantee:
  /// concurrent entry under non-MULTIPLE still throws.
  void register_progress_sharer(const sim::Fiber* f) {
    progress_sharers_.push_back(f);
  }
  void unregister_progress_sharer(const sim::Fiber* f) {
    auto it = std::find(progress_sharers_.begin(), progress_sharers_.end(), f);
    if (it != progress_sharers_.end()) progress_sharers_.erase(it);
  }

  // ---------------- point-to-point ----------------
  Request isend(const void* buf, std::size_t count, Datatype dt, int dst,
                int tag, Comm comm);
  Request irecv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                Comm comm);
  void send(const void* buf, std::size_t count, Datatype dt, int dst, int tag,
            Comm comm);
  void recv(void* buf, std::size_t count, Datatype dt, int src, int tag,
            Comm comm, Status* st = nullptr);

  // ---------------- persistent point-to-point ----------------
  // MPI_Send_init / MPI_Recv_init: capture the envelope once, replay it with
  // Start. A persistent request cycles inactive -> started -> complete ->
  // inactive; the table slot (and handle) survives until request_free. The
  // completion calls treat an inactive persistent request as trivially
  // complete, and they reset — never release — a completed one (public
  // wait/test preserve the caller's handle; the array calls null their span
  // entries, so keep your own copy, as the proxies do).
  Request send_init(const void* buf, std::size_t count, Datatype dt, int dst,
                    int tag, Comm comm);
  Request recv_init(void* buf, std::size_t count, Datatype dt, int src, int tag,
                    Comm comm);
  /// MPI_Start: re-post the captured envelope. Throws std::logic_error on a
  /// non-persistent handle or when the previous generation is still in
  /// flight (start-before-complete). Charges Profile::persist_start instead
  /// of the full call overhead — the envelope is prebuilt. Persistent sends
  /// are treated as registered buffers (the caller promises byte stability
  /// for the generation), so eager starts skip the CPU bounce-copy charge.
  void start(Request r);
  /// MPI_Request_free restricted to persistent requests: requires the
  /// request inactive (or complete), releases the table slot, nulls `r`.
  void request_free(Request& r);

  // ---------------- completion ----------------
  bool test(Request& r, Status* st = nullptr);
  void wait(Request& r, Status* st = nullptr);
  void waitall(std::span<Request> rs);
  int waitany(std::span<Request> rs, Status* st = nullptr);
  /// MPI_Testany: true if some active request completed (index via *index),
  /// also true with *index = -1 ("undefined") when no active requests exist.
  bool testany(std::span<Request> rs, int* index, Status* st = nullptr);
  /// MPI_Testall: true iff every active request has completed (all released).
  bool testall(std::span<Request> rs);
  bool iprobe(int src, int tag, Comm comm, Status* st = nullptr);

  // ---------------- collectives ----------------
  void barrier(Comm comm);
  Request ibarrier(Comm comm);
  void bcast(void* buf, std::size_t count, Datatype dt, int root, Comm comm);
  Request ibcast(void* buf, std::size_t count, Datatype dt, int root, Comm comm);
  void reduce(const void* sbuf, void* rbuf, std::size_t count, Datatype dt,
              Op op, int root, Comm comm);
  Request ireduce(const void* sbuf, void* rbuf, std::size_t count, Datatype dt,
                  Op op, int root, Comm comm);
  void allreduce(const void* sbuf, void* rbuf, std::size_t count, Datatype dt,
                 Op op, Comm comm);
  Request iallreduce(const void* sbuf, void* rbuf, std::size_t count,
                     Datatype dt, Op op, Comm comm);
  void alltoall(const void* sbuf, void* rbuf, std::size_t count_per_rank,
                Datatype dt, Comm comm);
  Request ialltoall(const void* sbuf, void* rbuf, std::size_t count_per_rank,
                    Datatype dt, Comm comm);
  void allgather(const void* sbuf, void* rbuf, std::size_t count_per_rank,
                 Datatype dt, Comm comm);
  Request iallgather(const void* sbuf, void* rbuf, std::size_t count_per_rank,
                     Datatype dt, Comm comm);

  // ---------------- communicator management ----------------
  Comm comm_dup(Comm parent);
  /// Collective over `parent` (exchanges colors/keys internally).
  Comm comm_split(Comm parent, int color, int key);

  /// One locked pass of the progress engine (what MPI_Iprobe is typically
  /// used for by the "iprobe" approach).
  void progress();

  // ---------------- internal: called by the Cluster / network ----------------
  /// NIC delivery handler; runs in scheduler context.
  void deliver(machine::NetMessage&& m);

  /// All library-internal wire injection funnels through here. With faults
  /// enabled it stamps the reliability header (seq, piggybacked ack,
  /// checksum) and queues a retransmit copy; otherwise it is a plain
  /// Network::send. Safe from both fiber and scheduler context (never
  /// advances the clock).
  void net_send(machine::NetMessage&& m);

  [[nodiscard]] const RelStats& rel_stats() const { return rel_stats_; }

  /// True when no frame this rank sent is still awaiting an ack. Used by the
  /// cluster's end-of-run teardown: a rank may only stop entering MPI once
  /// every rank is drained, otherwise its software retransmit timers die
  /// with frames still lost on the wire.
  [[nodiscard]] bool rel_drained() const {
    for (const RelPeer& p : rel_) {
      if (!p.unacked.empty()) return false;
    }
    return true;
  }

 private:
  friend class MpiEntry;

  // Library-internal variants: no entry overhead/locking (already inside).
  Request isend_internal(const void* buf, std::size_t bytes, int dst_global,
                         std::uint32_t ctx, int tag);
  Request irecv_internal(void* buf, std::size_t bytes, int src_global,
                         std::uint32_t ctx, int tag, Comm comm);
  /// Post-into core shared by the one-shot and persistent paths: `r` is an
  /// allocated slot; fills transfer state and injects/posts. `registered`
  /// marks a byte-stable buffer (persistent send, collective stage) whose
  /// eager path skips the CPU bounce-copy charge.
  void post_send_into(RequestImpl& r, const void* buf, std::size_t bytes,
                      int dst_global, std::uint32_t ctx, int tag,
                      bool registered);
  void post_recv_into(RequestImpl& r, void* buf, std::size_t bytes,
                      int src_global, std::uint32_t ctx, int tag, Comm comm);
  /// Start one persistent request (no entry overhead; caller is inside).
  void start_internal(RequestImpl& r);
  /// Usage-lint check of non-null handle `r` on entry to `call`: false for a
  /// stale handle, which the caller treats as null. An out-of-range handle
  /// throws std::out_of_range.
  bool handle_ok(Request r, const char* call);
  void release_if_complete(Request& r, Status* st);

  /// Software progress pass: drain the inbox, advance rendezvous transfers
  /// and collective schedules. Charges CPU time on the calling fiber.
  void progress_poll();
  void process_inbox_message(machine::NetMessage&& m);
  void handle_eager(machine::NetMessage&& m);
  void handle_rts(machine::NetMessage&& m);
  void handle_cts(machine::NetMessage&& m);
  void send_cts(std::uint64_t sender_req, int sender_global, RequestImpl& rreq);
  void start_rndv_chunk(RequestImpl& sreq);
  void advance_collectives();
  void post_coll_stage(RequestImpl& creq, std::size_t chain_idx);
  Request start_collective(std::unique_ptr<CollOp> op);

  /// Blocking-wait kernel shared by recv/wait/waitall/...: loops
  /// progress→check→sleep with the thread-level-appropriate lock cycling.
  /// `done` is evaluated after each progress pass.
  void wait_until(class MpiEntry& entry, const std::function<bool()>& done);

  /// True when the calling fiber is a registered progress sharer.
  [[nodiscard]] bool progress_sharer_current() const {
    const sim::Fiber* f = sim::Engine::current()->current_fiber();
    return f != nullptr &&
           std::find(progress_sharers_.begin(), progress_sharers_.end(), f) !=
               progress_sharers_.end();
  }
  /// True when the calling fiber is the one running the live progress pass.
  /// The collective-posting flags below (coll_posting_, coll_doorbell_*) are
  /// pass-local state: with several engine fibers interleaving inside the
  /// library, a send issued by a sibling while a pass posts a collective
  /// stage must NOT inherit the pass's batching/registered-buffer treatment.
  [[nodiscard]] bool progress_pass_current() const {
    return in_progress_ &&
           in_progress_fiber_ == sim::Engine::current()->current_fiber();
  }

  Cluster& cluster_;
  int rank_;
  ThreadLevel level_;

  CommTable comms_;
  RequestTable reqs_;
  MatchingEngine match_;

  sim::Mutex big_lock_;
  sim::Notifier arrivals_;
  std::deque<machine::NetMessage> inbox_;
  std::vector<RequestImpl*> pending_rndv_send_;
  std::vector<RequestImpl*> pending_rndv_recv_;
  std::vector<RequestImpl*> active_colls_;

  bool in_progress_ = false;  ///< reentrancy guard (debug invariant)
  /// The fiber running the live progress pass (meaningful while
  /// in_progress_); identifies the pass owner for progress_pass_current().
  const sim::Fiber* in_progress_fiber_ = nullptr;
  /// Fibers allowed to skip (rather than fail) a concurrent progress pass.
  std::vector<const sim::Fiber*> progress_sharers_;
  int blocked_in_mpi_ = 0;    ///< threads currently inside a blocking wait

  // ------- reliability sublayer (active only when profile faults are on) ----
  /// Receive side (rx_*) runs in hardware context at the NIC — checksum,
  /// in-order filter, dedup — like a NIC's CRC/RC logic. Send-side recovery
  /// (retransmit timers, pure-ack flush) is software: rel_poll() runs only
  /// from progress_poll().
  struct RelPeer {
    std::uint64_t tx_next_seq = 1;
    std::size_t tx_unacked_bytes = 0;  ///< wire bytes awaiting ack
    struct Unacked {
      machine::NetMessage frame;  ///< byte-identical retransmit copy
      sim::Time deadline;
      int attempts = 0;
    };
    std::deque<Unacked> unacked;
    std::uint64_t rx_expected = 1;  ///< next in-order seq accepted from peer
    bool ack_owed = false;          ///< peer needs our cursor (data or re-ack)
  };
  /// Hardware rx filter; false = frame consumed/dropped by reliability.
  bool rel_admit(machine::NetMessage& m);
  /// Software: fire expired retransmit timers, flush owed pure acks.
  void rel_poll();
  [[nodiscard]] sim::Time rel_rto(std::size_t backlog_bytes, int attempts) const;

  bool rel_on_ = false;
  std::vector<RelPeer> rel_;
  RelStats rel_stats_;

  // ------- collective-stage doorbell batching (profile.coll_batch_doorbells) -
  /// While a stage's sends are being posted, isend_internal charges the NIC
  /// doorbell only for the first descriptor; the rest ride the same doorbell
  /// (the post_batch amortization applied to schedule-internal p2p).
  bool coll_doorbell_batch_ = false;
  bool coll_doorbell_rung_ = false;
  /// Set while post_coll_stage posts: stage traffic uses schedule-owned
  /// registered buffers, so eager sends/recvs skip the CPU bounce copy.
  bool coll_posting_ = false;

  RankStats stats_;
  CollStats coll_stats_;
};

}  // namespace smpi
