// The MPI offload engine (paper Section 3).
//
// One or more dedicated fibers per rank — "the offload proxies" — are the
// only execution contexts that ever enter the MPI library. Application
// threads interact with them exclusively through:
//   * sharded per-(thread, engine) SPSC submission lanes (the fast path:
//     each submitting fiber owns a private lane per engine, so concurrent
//     submitters never touch each other's cache lines),
//   * per-engine lock-free MPSC command rings (fallback when lanes are
//     disabled or more fibers submit than lanes exist; producers contend on
//     a ring's tail cache line, modeled by a mutex charging
//     Profile::mpsc_line_transfer per acquisition),
//   * the shared lock-free request pool (completion flags).
//
// Every producer publishes through publish (its lane, else push_ring) and
// every consumer, owner or thief, pops through drain_lane / drain_ring.
//
// Multi-proxy sharding (ProxyOptions::proxy_count, default one per NUMA
// domain): commands are partitioned across engines by a peer/communicator
// hash (engine_of) so everything whose relative order MPI matching can
// observe — sends to one peer on one communicator, receives for one
// envelope, collectives on one communicator — lands in ONE engine's queues
// and is issued in submission order. Each engine owns a DrainClaim covering
// its lane column + ring; with two or more engines an idle engine may steal
// up to kStealBound commands from a sibling per pass by taking that
// sibling's claim, which both serializes the single-consumer pop protocols
// and carries the happens-before edge for the lanes' consumer-side state
// (see core/drain_claim.hpp). The claim is held across the whole pop+issue
// sequence: issuing yields, and releasing in between would let two engines
// interleave same-envelope traffic out of posted order.
//
// Engine loop (each engine fiber):
//   1. claim own queues; drain own lane column round-robin, at most
//      kLaneDrainBound commands per lane per pass (the fairness bound: a
//      saturating lane cannot starve its neighbours or postpone the progress
//      pass), then drain own ring; release;
//   2. drive progress on own in-flight operations with MPI_Testany,
//      publishing done flags as they complete and queueing any armed
//      continuations (cont_table.hpp), then run up to kContRunBound of
//      those callbacks — callbacks may post follow-ups, which issue directly
//      instead of re-entering the ring;
//   3. if that found nothing, try one bounded steal pass from a busy
//      sibling;
//   4. when nothing is pending, wait adaptively: spin-poll a few times
//      (cheapest wake), then yield the core a few times, then block on the
//      rank's doorbell — after snapshotting the doorbell and re-checking
//      every queue, so a command published between the last empty poll and
//      the sleep transition can never be stranded.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/chunked_slots.hpp"
#include "core/command.hpp"
#include "core/cont_table.hpp"
#include "core/drain_claim.hpp"
#include "core/mpsc_ring.hpp"
#include "core/part_ready.hpp"
#include "core/proxy_options.hpp"
#include "core/request_pool.hpp"
#include "core/spsc_lane.hpp"
#include "mpi/rank_ctx.hpp"
#include "sim/sync.hpp"
#include "trace/counters.hpp"

namespace core {

/// A completion continuation. Runs exactly once with the request's Status;
/// may post follow-up nonblocking operations and attach further
/// continuations, but must never block (the offload engine enforces this:
/// a blocking wait from engine context throws).
using ContFn = std::function<void(const smpi::Status&)>;

/// Lifecycle of a persistent (init-once/start-many) request. kInactive ->
/// kStarted at Start; kStarted -> kInactive when the completion is consumed
/// (wait/test or a fired continuation); kFreed is terminal.
enum class PState : std::uint8_t { kInactive, kStarted, kFreed };

/// One persistent (or partitioned) request: the single record behind a
/// PersistentReq under every approach. The Proxy front end owns it (and its
/// state machine); the direct proxies keep rc_-level requests in it, the
/// offload channel additionally its pinned pool slot and engine-side
/// generation state. Envelope fields are written once at init; `ready` is
/// the one lock-free handoff (core/part_ready.hpp).
struct Persistent {
  // ---- envelope (init-time) ----
  Command cmd;                   ///< the equivalent one-shot kIsend/kIrecv;
                                 ///  offload: cmd.proxy is the pinned slot
  std::uint32_t partitions = 0;  ///< 0 = plain persistent
  // ---- front end ----
  PState state = PState::kInactive;
  std::uint32_t marked = 0;  ///< partitions pready'd this generation
  /// Partition-ready words, bit p%64 of word p/64 (partitioned sends).
  std::vector<PartReadyWord> ready;
  /// rc_-level persistent requests: one, or one per partition. Created at
  /// init on the caller's thread (direct), lazily on the engine (offload).
  std::vector<smpi::Request> reqs;
  // ---- offload engine side ----
  std::size_t home_engine = 0;         ///< engine_of of the envelope
  std::vector<std::uint64_t> shipped;  ///< mirror mask: partitions issued
  std::uint32_t remaining = 0;  ///< parts of this generation still in flight
  bool armed = false;  ///< partitioned send: generation open for shipping

  [[nodiscard]] bool is_send() const { return cmd.op == CmdOp::kIsend; }
  /// A partitioned send that cannot complete yet: some partition unmarked.
  [[nodiscard]] bool unmarked() const {
    return is_send() && partitions != 0 && marked != partitions;
  }
  /// The whole-message Status of a partitioned request: the base tag (the
  /// per-partition wire tags are an implementation detail), total bytes.
  [[nodiscard]] smpi::Status whole_status() const {
    return {cmd.peer, cmd.tag, cmd.count * smpi::datatype_size(cmd.dtype)};
  }
  /// Open a generation: forget the last one's marks, state -> kStarted.
  void open() {
    for (PartReadyWord& w : ready) w.reset();
    marked = 0;
    state = PState::kStarted;
  }
  /// Create `reqs` on `rc`: the envelope as is, or one byte slice of the
  /// buffer per partition under its partition wire tag (wildcard receives
  /// can never match these frames — matching.cpp rejects tag-bit-30).
  void create_requests(smpi::RankCtx& rc);
};

struct OffloadStats {
  std::uint64_t commands = 0;
  std::uint64_t testany_calls = 0;
  std::uint64_t completions = 0;
  std::uint64_t max_inflight = 0;
  std::uint64_t ring_full_stalls = 0;  ///< submit spun on a full shared ring
  std::uint64_t pool_full_stalls = 0;  ///< submit waited on an exhausted pool
  /// In-flight requests seen exceeding ProxyOptions::watchdog_budget
  /// (counted once per request; diagnostic only, never alters timing).
  std::uint64_t watchdog_flags = 0;
  // ---- submission front-end ----
  std::uint64_t lane_submits = 0;    ///< commands entering via a SPSC lane
  std::uint64_t shared_submits = 0;  ///< commands entering via a shared ring
                                     ///  because lanes are disabled
  /// Commands from fibers that could not bind a lane (more submitters than
  /// lanes) and fell back to a shared ring. Kept out of shared_submits so
  /// the lane trailer's per-lane throughput is not inflated by overflow
  /// traffic that never touched a lane.
  std::uint64_t overflow_submits = 0;
  std::uint64_t batches = 0;         ///< submit_batch publishes
  std::uint64_t batched_commands = 0;  ///< commands carried by those batches
  std::uint64_t lane_full_stalls = 0;  ///< producer spun on its full lane
  // ---- multi-proxy work stealing ----
  std::uint64_t steal_rounds = 0;    ///< passes that stole from some sibling
  std::uint64_t steal_commands = 0;  ///< commands drained from a sibling
  // ---- adaptive engine wait policy ----
  std::uint64_t engine_spins = 0;   ///< idle spin polls
  std::uint64_t engine_yields = 0;  ///< idle yield polls
  std::uint64_t engine_sleeps = 0;  ///< doorbell blocks
  // ---- continuation subsystem ----
  std::uint64_t cont_armed = 0;     ///< continuations attached before completion
  std::uint64_t cont_inline = 0;    ///< attach found the request already done
  std::uint64_t cont_executed = 0;  ///< callbacks run by the engine
  std::uint64_t cont_deferred = 0;  ///< ready callbacks pushed past a pass
                                    ///  by kContRunBound (cumulative)
  std::uint64_t cont_posts = 0;     ///< commands posted from engine context
};

/// Per-lane occupancy/batching counters (see OffloadChannel::lane_stats).
struct LaneStats {
  std::uint64_t submits = 0;          ///< commands pushed (incl. batched)
  std::uint64_t batches = 0;          ///< batched publishes into this lane
  std::uint64_t batched_commands = 0; ///< commands carried by those batches
  std::uint64_t full_stalls = 0;      ///< producer spun on the full lane
  std::uint64_t max_occupancy = 0;    ///< high-water mark of queued commands
  std::uint64_t drained = 0;          ///< commands popped by an engine
};

/// Shared state between application threads and the offload engines of one
/// rank. Application-facing calls live in OffloadProxy (core/proxy.hpp);
/// this class is the engine side plus the submission primitives.
class OffloadChannel {
 public:
  /// Engine fairness bound: commands popped per lane per drain pass.
  static constexpr std::size_t kLaneDrainBound = 16;
  /// Commands an idle engine drains from one sibling's queues per steal pass.
  static constexpr std::size_t kStealBound = 8;
  /// Continuation callbacks an engine runs per pass; leftovers count into
  /// cont_deferred and run next pass.
  static constexpr std::size_t kContRunBound = 16;

  explicit OffloadChannel(smpi::RankCtx& rc, const ProxyOptions& opts = {});

  smpi::RankCtx& rank_ctx() { return rc_; }
  RequestPool& pool() { return pool_; }
  [[nodiscard]] const RequestPool& pool() const { return pool_; }
  [[nodiscard]] const OffloadStats& stats() const { return stats_; }
  /// Storage chunks built so far by the capacity-bounded structures (the
  /// engines' rings summed; the pool, its continuation claims and records).
  struct Footprint {
    std::size_t ring_chunks = 0;
    std::size_t pool_chunks = 0;
    std::size_t cont_chunks = 0;
    std::size_t cont_fn_chunks = 0;
  };
  [[nodiscard]] Footprint footprint() const;
  /// Offload engine fibers serving this channel.
  [[nodiscard]] std::size_t engine_count() const { return engines_.size(); }
  /// Total lanes in the grid (lane rows x engines; one row per submitter).
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  /// Counters of lane `i`; all zero while its row is unbound.
  [[nodiscard]] const LaneStats& lane_stats(std::size_t i) const {
    static const LaneStats kUnbound;
    return lanes_[i] != nullptr ? lanes_[i]->stats : kUnbound;
  }
  /// Signalled whenever an engine publishes a done flag (or a waiter frees
  /// a slot); exposed so the proxy's waitany/testall can sleep on it.
  sim::Notifier& completions() { return completions_; }

  // ---------------- application side ----------------

  /// Serialize + enqueue; returns the proxy request slot. Charges the
  /// enqueue cost; spins (virtually) if the lane/ring is momentarily full.
  std::uint32_t submit(Command cmd);

  /// Enqueue a whole batch through the caller's lanes with one publish and
  /// ONE doorbell per engine touched, writing each command's allocated
  /// proxy slot back into `cmds[i].proxy`. The first command pays the full
  /// cmd_enqueue cost, subsequent ones only Profile::cmd_enqueue_batch.
  /// FIFO order within the batch is preserved per engine (and engine_of
  /// keeps everything order-sensitive on one engine). Falls back to the
  /// shared rings (still one tail-line transfer per engine run) when the
  /// caller has no lane.
  void submit_batch(std::span<Command> cmds);

  /// Spin on the done flag of `proxy` (the paper's optimized MPI_Wait: no
  /// MPI call, just a flag check). Frees the slot unless `keep` (the pinned
  /// slot of a persistent request).
  void wait_done(std::uint32_t proxy, smpi::Status* st = nullptr,
                 bool keep = false);
  /// Nonblocking wait_done.
  bool test_done(std::uint32_t proxy, smpi::Status* st = nullptr,
                 bool keep = false);
  /// Return a completed, already-acquired slot to the pool. The caller
  /// signals completions() (once per batch of frees).
  void free_slot(std::uint32_t proxy);

  /// Bind `fn` to run exactly once when `proxy` completes. Consumes the
  /// slot: the side that runs the callback frees it, so the caller must not
  /// wait on or test the slot afterwards. When the request already
  /// completed, the callback runs inline on the calling thread (returns
  /// true); otherwise the discovering engine runs it from its completion
  /// pass (returns false). Continuations may submit follow-up work — from
  /// engine context such posts bypass the lanes/rings and issue directly,
  /// so a full ring can never deadlock a posting callback.
  bool attach_continuation(std::uint32_t proxy, ContFn fn);

  /// True when the calling fiber is ONE OF the offload engines
  /// (continuation callbacks run there). Blocking completion calls are
  /// illegal in that context and throw. Identity is per-fiber, not a global
  /// "engine is running" bit: application fibers interleaving with a
  /// blocked engine must keep taking the lane/ring path.
  [[nodiscard]] bool in_engine() const {
    return engine_for_current_fiber() != nullptr;
  }

  // ---------------- persistent / partitioned requests ----------------
  // A persistent offload request pins one RequestPool slot for its whole
  // lifetime; every re-arm publishes only that slot (CmdOp::kStartPersistent,
  // charged at Profile::cmd_enqueue_persist instead of a full enqueue).
  // Partitioned sends additionally carry a per-partition ready word the
  // engines poll: pready(p) from any compute fiber publishes one bit, and the
  // engine that owns partition p (partition-hash sharding) ships it while
  // sibling partitions are still computing. Validation and the state machine
  // are the Proxy front end's; these are the offload actions behind it.

  /// Pin a pool slot for `p` and pick its home engine. `p` must outlive the
  /// channel's use of it (the Proxy keeps records at stable addresses).
  void persist_init(Persistent& p);
  /// Re-arm the pinned slot, open the generation and publish it.
  void persist_start(Persistent& p);
  /// Hand `p` to its engine for teardown (MPI-level requests + pool slot).
  void persist_free(Persistent& p);

  /// Enqueue one shutdown command per engine (each engine exits after
  /// draining its lanes, its ring, its in-flight requests, and its
  /// continuation queue).
  void shutdown();

  // ---------------- engine side ----------------

  /// Body of offload fiber `idx` (one per ProxyOptions::proxy_count).
  /// Re-entering an engine whose previous run never cleared its identity
  /// throws — a recycled fiber pointer must never inherit engine identity.
  void engine_main(std::size_t idx = 0);

 private:
  struct Lane {
    Lane(std::size_t capacity, int rank, std::size_t index)
        : ring(capacity),
          gauge(rank, "lane" + std::to_string(index) + "_occupancy") {}
    SpscLane<Command> ring;
    LaneStats stats;
    trace::Gauge gauge;
  };

  struct Inflight {
    smpi::Request real;
    std::uint32_t proxy;
    sim::Time issued_at;   ///< for the stuck-request watchdog
    bool flagged = false;  ///< already reported by the watchdog
  };

  /// One engine fiber's private state. Everything here is touched only by
  /// the fiber currently acting as this engine's consumer: the owner, or a
  /// thief holding `claim` (queues), or the owning fiber itself (inflight
  /// tracking, cont_ready — a thief issues stolen commands into ITS OWN
  /// Engine, never the victim's).
  struct Engine {
    Engine(std::size_t ring_capacity, smpi::RankCtx& rc, std::size_t idx)
        : index(idx),
          ring(ring_capacity),
          tail_line(rc.profile().mpsc_line_transfer),
          g_ring(rc.rank(), idx == 0 ? std::string("ring_occupancy")
                                     : "ring" + std::to_string(idx) +
                                           "_occupancy"),
          g_inflight(rc.rank(), idx == 0 ? std::string("inflight")
                                         : "inflight" + std::to_string(idx)) {}

    std::size_t index;
    MpscRing<Command> ring;
    /// Models this ring's tail cache line: producers pushing to it
    /// serialize here, each paying Profile::mpsc_line_transfer. Lane
    /// submitters never touch it — that is the point of the lanes.
    sim::Mutex tail_line;
    /// Consumer-ownership token over this engine's lane column + ring.
    DrainClaim claim;
    /// Fired slots whose callbacks this engine still owes. Bounded per pass
    /// by kContRunBound so a burst of completions cannot starve the
    /// drain/testany loop.
    std::deque<std::uint32_t> cont_ready;
    /// In-flight tracking, kept incrementally: inflight and scratch_reqs
    /// are parallel arrays appended by issue(). A completion nulls its
    /// scratch_reqs entry in place (testany does this as a side effect), so
    /// the Testany span never has to be rebuilt and FIFO scan order — hence
    /// completion fairness — is preserved. Dead slots are reclaimed lazily
    /// by compact_inflight() once they outnumber live ones.
    std::vector<Inflight> inflight;
    std::vector<smpi::Request> scratch_reqs;
    std::size_t live_inflight = 0;
    std::size_t drain_cursor = 0;  ///< round-robin fairness cursor
    sim::Time next_watchdog_scan{0};
    /// This engine's fiber, set for the whole lifetime of engine_main:
    /// submits from it (continuation callbacks) take the direct-issue path
    /// and blocking waits from it are errors. Compared against the CURRENT
    /// fiber — other fibers interleave whenever the engine blocks. Cleared
    /// on EVERY exit path (RAII in engine_main), clean or unwinding.
    sim::Fiber* fiber = nullptr;
    trace::Gauge g_ring;
    trace::Gauge g_inflight;
  };

  /// Which engine's queues carry `cmd`. Peer/communicator hash, chosen so
  /// per-envelope order survives sharding (see DESIGN.md §15): sends and
  /// specific receives go by (peer, comm); wildcard receives pin their
  /// communicator to hash(comm) — and stick: later receives on that
  /// communicator follow, so a wildcard can never overtake (or be overtaken
  /// by) a same-communicator receive posted around it; collectives and
  /// window management go by comm; RMA by window.
  std::size_t engine_of(const Command& cmd);

  /// The caller's lane for `engine_idx`, binding a lane row on first use.
  /// nullptr = shared ring; `overflow` reports WHY (true = more submitting
  /// fibers than lane rows, false = lanes disabled).
  Lane* lane_for_caller(std::size_t engine_idx, bool& overflow);
  /// Allocate a pool slot. On exhaustion an application fiber (`e` null)
  /// waits for another fiber to free one; engine `e` drives its own
  /// progress instead (it can never block on its own completions notifier).
  std::uint32_t alloc_slot(Engine* e);
  /// Engine-context submit: no lane/ring, no doorbell — the command issues
  /// directly on the posting engine. Used by continuations posting
  /// follow-ups.
  std::uint32_t submit_from_engine(Engine& e, Command cmd);
  /// Publish a run of commands bound for engine `eidx`: into the caller's
  /// lane with one release per fitting prefix, else through push_ring. No
  /// doorbell. `batched` counts the run as one batch in the lane's stats.
  void publish(std::size_t eidx, std::span<Command> group, bool batched);
  /// Push `group` into `e`'s ring in order, taking its tail line once.
  void push_ring(Engine& e, std::span<const Command> group);
  /// Publish `cmd` to engine `eidx` and ring the doorbell. The
  /// slot-allocation-free tail of submit(): persistent starts/frees arrive
  /// here with their pool slot already pinned.
  void push_to_engine(std::size_t eidx, Command cmd);
  /// Post persistent action `op` (start or free) for `ps`: issued directly
  /// from engine context, else published to its home engine.
  void persist_post(Persistent& ps, CmdOp op);
  /// The done-flag tail of wait_done/test_done once `proxy` is done.
  void consume_done(std::uint32_t proxy, smpi::Status* st, bool keep);

  /// The Engine owned by the calling fiber, or nullptr.
  [[nodiscard]] Engine* engine_for_current_fiber() const;

  void issue(Engine& e, const Command& cmd);
  void track_inflight(Engine& e, smpi::Request real, std::uint32_t proxy);
  // ---- persistent engine side ----
  /// The persistent record pinning pool slot `proxy`, or nullptr (one-shot).
  [[nodiscard]] Persistent* persistent_at(std::uint32_t proxy) const {
    return proxy < slot_persist_.size() ? slot_persist_[proxy] : nullptr;
  }
  /// Process kStartPersistent: lazily create the MPI-level persistent
  /// request(s), then start (plain / partitioned recv) or arm for shipping
  /// (partitioned send).
  void engine_start_persistent(Engine& e, Persistent& ps);
  /// Process kFreePersistent: free the MPI-level requests and the pool slot.
  void engine_free_persistent(Persistent& ps);
  /// Ship every ready-but-unshipped partition owned by engine `e`
  /// (partition-hash sharding: disjoint per-engine sets, so sibling engines
  /// never race on a partition). Returns true when anything shipped.
  bool pump_persistent(Engine& e);
  /// Engine `e` owns partition `p` of slot `ps`.
  [[nodiscard]] std::size_t partition_engine(const Persistent& ps,
                                             std::uint32_t p) const;
  /// The lowest bit of ready word `w` of `ps` whose partition is ready,
  /// unshipped and owned by `e`, else -1. pump_persistent (what to ship)
  /// and persistent_ready_pending (whether to sleep) share it.
  [[nodiscard]] int next_owned_ready(const Persistent& ps, std::size_t w,
                                     const Engine& e) const;
  /// A ready-but-unshipped partition owned by `e` exists: the engine must
  /// not sleep past it (pready rings the rank doorbell, and this is the
  /// matching pre-sleep re-check).
  [[nodiscard]] bool persistent_ready_pending(const Engine& e) const;
  /// Publish a completion: done flag, stats, doorbell — and hand the slot
  /// to the discovering engine's continuation queue when one is armed.
  void complete_slot(Engine& e, std::uint32_t proxy, const smpi::Status& st);
  /// Queue drains. Contract: the caller holds the claim of the queues'
  /// owner (as owner or thief) across the whole call — pops and the issues
  /// they feed must not interleave with another consumer of the same
  /// queues. `e` is the engine doing the work (tracks the resulting
  /// in-flights). drain_lane / drain_ring pop and issue at most `budget`
  /// commands and return how many they issued.
  std::size_t drain_lane(Engine& e, Lane& lane, std::size_t budget);
  std::size_t drain_ring(Engine& e, Engine& owner, std::size_t budget);
  /// One round-robin pass over `e`'s lane column, kLaneDrainBound per lane.
  bool drain_lanes_round(Engine& e);
  /// One bounded steal pass: take one busy sibling's claim, drain at most
  /// kStealBound of its commands (issued as OUR in-flights), release, and
  /// re-ring the doorbell if leftovers remain.
  bool steal_round(Engine& e);
  void process_command(Engine& e, const Command& cmd);
  /// This engine's own backlog (its lane column + its ring).
  [[nodiscard]] bool submissions_pending(const Engine& e) const;
  /// Work an idle engine sees without a doorbell: its own backlog, a
  /// sibling's to steal, or a ready partition it owns. No side effects.
  [[nodiscard]] bool idle_work_pending(const Engine& e) const;
  void drive_progress(Engine& e);
  /// Take the callback and Status of a fired slot and reset its claim; a
  /// one-shot slot is freed, a persistent one stays pinned (the callback may
  /// restart its request).
  ContFn consume_fired(std::uint32_t proxy, smpi::Status& st);
  /// Run up to kContRunBound queued continuations; returns true when any
  /// ran (the engine re-drains before sleeping: callbacks post). Leftovers
  /// count into cont_deferred and run next pass.
  bool run_continuations(Engine& e);
  void compact_inflight(Engine& e);
  void watchdog_scan(Engine& e);

  smpi::RankCtx& rc_;
  ProxyOptions opts_;
  RequestPool pool_;
  /// The engines (unique_ptr: an Engine holds a mutex and atomics, so it
  /// must not relocate).
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Sharded per-(thread, engine) submission lanes, a row-major grid:
  /// lanes_[row * engines_.size() + engine]. A submitting fiber binds a row
  /// on first use, which builds the row's lanes; rows at or past next_lane_
  /// hold null. Engine e drains column e.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::uint32_t> lane_of_slot_;  ///< thread slot -> lane row
  std::size_t next_lane_ = 0;                ///< next unbound lane row
  /// Communicators pinned to hash(comm) routing because a wildcard receive
  /// was posted on them (sticky; see engine_of).
  std::vector<int> wildcard_comms_;
  /// Persistent records in init order (owned by the Proxy; never reused
  /// within a run — persistent requests are long-lived by design).
  std::vector<Persistent*> persist_;
  /// Pool slot -> the persistent record pinning it (nullptr = one-shot).
  /// Completion and continuation paths consult this to count parts and to
  /// keep instead of free a persistent slot.
  std::vector<Persistent*> slot_persist_;
  /// Armed partitioned sends (fast-path gate for pump_persistent).
  std::size_t armed_psends_ = 0;
  /// Signalled by an engine whenever it publishes a done flag; application
  /// waiters use it to model their done-flag spin loop without event spam.
  sim::Notifier completions_;
  bool shutdown_requested_ = false;

  // ---- continuation subsystem ----
  /// Exactly-once arm/fire handoff, one slot per pool slot.
  ContTable cont_;
  /// Callback records, indexed by pool slot; built in chunks as slots first
  /// take one. Published to the engine by the arm() claim's release; read
  /// under the fire()-failure acquire.
  ChunkedSlots<ContFn> cont_fns_;

  OffloadStats stats_;
};

}  // namespace core
