// MPIOFF_SAN — fiber-aware race detector + MPI-usage sanitizer.
//
// TSan cannot see this codebase's concurrency: the simulator's fibers are
// cooperatively scheduled on one OS thread, so every fiber-interleaving race
// looks single-threaded to a hardware-level detector, and the model checker
// (src/check/) only covers the four extracted lock-free structures. This
// layer watches the whole system instead, from inside the simulation:
//
//  (1) Race detector — FastTrack vector clocks (san/vclock.hpp) driven by
//      annotations on the simulator's REAL synchronization edges: fiber
//      spawn (fork), Engine::unblock (wake), event post/fire causality,
//      Mutex/Barrier/Notifier acquire-release, SPSC-lane and MPSC-ring
//      publish/consume, RequestPool alloc/free, ContTable claim-CAS. Shadow
//      state on explicitly annotated fields (san::check_read/check_write)
//      reports both sides of any pair of accesses with no happens-before
//      edge between them.
//
//  (2) MPI-usage lint — registers each request's buffer byte-range at post
//      time and diagnoses: writes to inflight send buffers (checksum at post
//      vs at completion), annotated reads/writes overlapping inflight
//      registrations, wait/test on a released (stale) handle, requests still
//      active at Cluster teardown, blocking waits from offload-engine
//      context, and collective posting-order/root mismatches across ranks.
//
// Gating: zero-cost when off. Every hook is an inline one-branch test of a
// plain bool that is false outside a session; a session only starts when an
// MPIOFF_SAN spec (or ClusterConfig::san_spec) enables it.
//
// Determinism: the sanitizer never advances virtual time and never perturbs
// scheduling, so a run's MPI-visible behavior (payloads, timings, traces) is
// bit-identical with the sanitizer on or off. Reports are deterministic too:
// same build + same seed + same spec => same report strings in the same
// order.
//
// Spec grammar (MPIOFF_SAN or ClusterConfig::san_spec):
//   "1"                          everything on, report-only
//   "0" / ""                     off
//   "1,race:0,usage:1,fail:1,max_reports:16"
// Unknown or duplicate keys throw, naming the valid vocabulary. fail:1
// throws san::Error at the first report (CI mode).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace san {

struct Options {
  bool enabled = false;
  bool race = true;            ///< vector-clock race detector
  bool usage = true;           ///< MPI buffer/request/collective lint
  bool fail = false;           ///< throw san::Error at the first report
  std::size_t max_reports = 64;

  /// Parse an MPIOFF_SAN spec. "" and "0" disable; unknown/duplicate keys
  /// throw std::invalid_argument naming the vocabulary.
  static Options parse(const std::string& spec);
};

/// Thrown at report time under fail:1. Derives std::logic_error so call
/// sites that already promise logic_error on misuse (blocking waits from
/// engine context) keep their documented contract under the sanitizer.
class Error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct Report {
  std::string kind;     ///< stable machine-checkable tag, e.g. "race"
  std::string message;  ///< full human-readable diagnostic
};

struct Stats {
  std::uint64_t reports = 0;      ///< diagnostics raised (incl. deduped)
  std::uint64_t race_checks = 0;  ///< shadow-state accesses checked
  std::uint64_t sync_edges = 0;   ///< HB edges observed (all kinds)
  std::uint64_t buffer_regs = 0;  ///< inflight buffer registrations
  std::uint64_t checksums = 0;    ///< post/complete checksum computations
};

// ------------------------------------------------------------- session ----

/// Start a session from parsed options / a spec string. Returns true when a
/// session actually started (spec enabled and not nested inside another
/// session — nesting just increments a depth count). Starting a session
/// resets reports and stats.
bool begin_session(const Options& o);
bool begin_session(const std::string& spec);
void end_session();

/// Reports and stats survive end_session() (readable after Cluster
/// teardown); the next begin_session() resets them.
[[nodiscard]] const std::vector<Report>& reports();
[[nodiscard]] std::size_t count(const char* kind);
[[nodiscard]] const Stats& stats();

/// Uniform diagnostic for a blocking wait reaching the offload engine's own
/// fiber. Records an "engine-block" report when the lint is armed, and
/// always returns the message the caller must throw as std::logic_error.
[[nodiscard]] std::string engine_block_message(const char* what);

namespace detail {
extern bool g_on;     // session active
extern bool g_race;   // race detector armed
extern bool g_usage;  // usage lint armed

void on_switch_slow(std::uint64_t actor, const char* name, std::int64_t ns);
void on_fork_slow(std::uint64_t child, const char* name);
void on_wake_slow(std::uint64_t target);
void event_post_slow(std::uint64_t seq);
void event_fire_slow(std::uint64_t seq, std::int64_t ns);
void acquire_slow(const void* obj, std::uint64_t sub);
void release_slow(const void* obj, std::uint64_t sub);
void channel_push_slow(const void* chan, std::uint64_t n);
void channel_pop_slow(const void* chan);
void access_slow(const void* p, std::size_t n, bool write, const char* site);
void post_send_slow(int rank, int req, const void* buf, std::size_t n);
void post_recv_slow(int rank, int req, const void* buf, std::size_t n);
void complete_slow(int rank, int req);
bool handle_ok_slow(int rank, int req, const char* call);
void coll_posted_slow(int rank, std::uint32_t ctx, int kind, int root,
                      const char* name);
void persist_misuse_slow(int rank, const char* call, const char* what);
void teardown_slow(int rank, std::size_t leaked);
}  // namespace detail

[[nodiscard]] inline bool on() { return detail::g_on; }
[[nodiscard]] inline bool race_on() { return detail::g_race; }
[[nodiscard]] inline bool usage_on() { return detail::g_usage; }

// ---------------------------------------------- race-detector hooks ----
// Called by sim::Engine and the sync primitives; actor 0 is the scheduler
// context, actor f.id()+1 is fiber f. None of these advance virtual time.

/// A fiber is about to run (Engine::dispatch). Joins any pending wake edges.
inline void on_switch(std::uint64_t actor, const char* name, std::int64_t ns) {
  if (detail::g_on) detail::on_switch_slow(actor, name, ns);
}
/// Fiber creation: child clock := creator clock ⊔ {child: 1}.
inline void on_fork(std::uint64_t child, const char* name) {
  if (detail::g_on) detail::on_fork_slow(child, name);
}
/// Engine::unblock(target): the waker's clock reaches the woken fiber.
inline void on_wake(std::uint64_t target) {
  if (detail::g_on) detail::on_wake_slow(target);
}
/// A fn-event was posted (Engine::call_at): snapshot the poster's clock.
inline void event_post(std::uint64_t seq) {
  if (detail::g_on) detail::event_post_slow(seq);
}
/// That fn-event fires: the scheduler context ADOPTS the snapshot (it does
/// not accumulate — the scheduler must not become a universal HB sink).
inline void event_fire(std::uint64_t seq, std::int64_t ns) {
  if (detail::g_on) detail::event_fire_slow(seq, ns);
}
/// Acquire/release on a sync object (mutex, notifier, barrier, pool slot,
/// cont slot); `sub` distinguishes slots within one owning object.
inline void acquire(const void* obj, std::uint64_t sub = 0) {
  if (detail::g_race) detail::acquire_slow(obj, sub);
}
inline void release(const void* obj, std::uint64_t sub = 0) {
  if (detail::g_race) detail::release_slow(obj, sub);
}
/// FIFO channel publish/consume (SPSC lane, MPSC ring): each push enqueues
/// the producer's clock, each pop joins the matching message's clock —
/// per-message, not per-object, so two lanes never synchronize each other.
inline void channel_push(const void* chan, std::uint64_t n = 1) {
  if (detail::g_race) detail::channel_push_slow(chan, n);
}
inline void channel_pop(const void* chan) {
  if (detail::g_race) detail::channel_pop_slow(chan);
}

// ------------------------------------------------- public annotations ----
// For app/library code: declare an intentional access to a shared field or
// a user buffer. Feeds BOTH halves — the race detector's shadow state and
// the usage lint's inflight-buffer overlap check.

inline void check_read(const void* p, std::size_t n, const char* site) {
  if (detail::g_on) detail::access_slow(p, n, false, site);
}
inline void check_write(const void* p, std::size_t n, const char* site) {
  if (detail::g_on) detail::access_slow(p, n, true, site);
}

// --------------------------------------------------- usage-lint hooks ----
// Called by the MPI layer (smpi::RankCtx) on the request lifecycle.

/// Rendezvous send posted: register [buf, buf+n) and checksum it. The range
/// stays registered (and must stay byte-stable) until mpi_complete.
inline void mpi_post_send(int rank, int req, const void* buf, std::size_t n) {
  if (detail::g_usage) detail::post_send_slow(rank, req, buf, n);
}
/// Receive posted and not yet complete: register the inflight target range.
inline void mpi_post_recv(int rank, int req, const void* buf, std::size_t n) {
  if (detail::g_usage) detail::post_recv_slow(rank, req, buf, n);
}
/// Request released back to the table: verify the send checksum, drop any
/// registration. No-op for never-registered requests (eager, internal).
inline void mpi_complete(int rank, int req) {
  if (detail::g_usage) detail::complete_slow(rank, req);
}
/// Wait/test on handle `req` whose table slot is no longer active: reports
/// "stale-request" and returns false (caller must treat the handle as null
/// instead of corrupting the free list). Returns true when the lint is off.
inline bool mpi_handle_ok(int rank, int req, bool active, const char* call) {
  if (!detail::g_usage || active) return true;
  return detail::handle_ok_slow(rank, req, call);
}
/// Collective posted on communicator context `ctx`: checks every rank posts
/// the same (kind, root) sequence per context.
inline void mpi_coll_posted(int rank, std::uint32_t ctx, int kind, int root,
                            const char* name) {
  if (detail::g_usage) detail::coll_posted_slow(rank, ctx, kind, root, name);
}
/// Persistent lifecycle misuse (start-before-complete, use of a freed
/// request, free of an active request). Records a "persist-misuse" report;
/// the call site ALWAYS throws std::logic_error afterwards, so this hook
/// only feeds the report stream (and fail:1 turns it into san::Error, which
/// still IS a logic_error).
inline void mpi_persist_misuse(int rank, const char* call, const char* what) {
  if (detail::g_usage) detail::persist_misuse_slow(rank, call, what);
}
/// Cluster teardown: `leaked` = RequestTable::active_count() for the rank.
inline void mpi_teardown(int rank, std::size_t leaked) {
  if (detail::g_usage) detail::teardown_slow(rank, leaked);
}

}  // namespace san
