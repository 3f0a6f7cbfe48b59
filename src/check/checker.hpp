// Loom/relacy-style model checker for the lock-free offload protocols.
//
// A Checker runs a *spec body* many times, exploring a different thread
// interleaving on each execution. Spec bodies construct the real production
// structures (MpscRing / RequestPoolT) instantiated with chk::ModelAtomics,
// spawn 2-4 cooperative model threads, and assert protocol invariants. The
// checker provides:
//
//  * a cooperative scheduler that preempts at every atomic access, explored
//    either exhaustively (preemption-bounded stateless DFS over the choice
//    tree) or randomly (seeded, fully replayable);
//  * a weak-memory model: every atomic location keeps its full modification
//    order, and relaxed/acquire loads may return any *coherence-legal* stale
//    value, so a missing release/acquire edge actually manifests instead of
//    being masked by the host's x86 TSO;
//  * a vector-clock happens-before race detector for plain (non-atomic)
//    payloads wrapped in chk::var — e.g. the ring's Cell::val and the
//    request pool's Status — which flags any access pair not ordered by the
//    surrounding acquire/release protocol;
//  * deterministic failure reports: the full interleaving trace plus the
//    seed (random mode) or choice trail (exhaustive mode) to replay it.
//
// Model limits (see DESIGN.md §9): bounded preemptions and stale reads,
// acquire/release/acq_rel plus an approximate seq_cst (global SC clock);
// no std::atomic_thread_fence modeling, no spurious CAS failures, and
// consume is treated as acquire.
#pragma once

#include <array>
#include <atomic>  // std::memory_order
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "check/clock.hpp"
#include "sim/context.hpp"

namespace chk {

// ---------------------------------------------------------------- options ---

enum class OpKind : std::uint8_t { kLoad, kStore, kRmw };
enum class Side : std::uint8_t { kNone, kAcquire, kRelease };

const char* op_kind_name(OpKind k);
const char* side_name(Side s);

/// A synchronization site: ops of one kind carrying one acquire/release side
/// on one (base-named) location. Sites are what the mutation suite weakens.
struct Site {
  std::string loc;
  OpKind op = OpKind::kLoad;
  Side side = Side::kNone;

  friend bool operator<(const Site& a, const Site& b) {
    if (a.loc != b.loc) return a.loc < b.loc;
    if (a.op != b.op) return a.op < b.op;
    return a.side < b.side;
  }
  friend bool operator==(const Site& a, const Site& b) {
    return a.loc == b.loc && a.op == b.op && a.side == b.side;
  }
  [[nodiscard]] std::string str() const;
};

/// An intentional weakening applied while exploring: drop the given side
/// (release -> relaxed, acq_rel -> one-sided) from every matching op.
struct Mutation {
  std::string loc;
  OpKind op = OpKind::kLoad;
  Side drop = Side::kNone;

  [[nodiscard]] bool active() const { return drop != Side::kNone; }
  [[nodiscard]] std::string str() const;
  static Mutation of(const Site& s) { return Mutation{s.loc, s.op, s.side}; }
};

enum class Mode : std::uint8_t { kExhaustive, kRandom };

struct Options {
  Mode mode = Mode::kExhaustive;
  /// Exhaustive: max context switches away from a still-runnable thread.
  int preemption_bound = 2;
  /// Max stale (non-newest) values a thread may observe per location; after
  /// that, loads return the newest visible store (models eventual
  /// cache-coherence visibility and keeps spin loops finite).
  int stale_read_bound = 2;
  std::uint64_t max_executions = 200000;  ///< exhaustive-mode cap
  std::uint64_t max_steps = 100000;       ///< per-execution step cap
  std::uint64_t iterations = 2000;        ///< random-mode executions
  std::uint64_t seed = 1;                 ///< random-mode base seed
  /// Replay a single execution from a failure report, e.g. "3.0.1".
  std::string replay_trail;
  Mutation mutation{};
};

struct Result {
  bool failed = false;
  std::string message;       ///< first violation
  std::string trace;         ///< formatted interleaving of the failure
  std::uint64_t executions = 0;
  bool complete = false;     ///< exhaustive: the bounded space was exhausted
  std::uint64_t failing_seed = 0;  ///< random mode: seed to replay
  std::string failing_trail;       ///< exhaustive mode: trail to replay
  std::vector<Site> sites;   ///< sync sites observed (mutation candidates)

  [[nodiscard]] std::string str() const;
};

// ---------------------------------------------------------------- checker ---

class Checker;

/// Handle passed to the spec body for spawning model threads.
class Sim {
 public:
  explicit Sim(Checker* ck) : ck_(ck) {}
  /// Run the given thread bodies to completion under the explorer. May be
  /// called once per execution; returns after all threads finished (the
  /// caller then holds a happens-after edge from every thread).
  void threads(std::vector<std::function<void()>> bodies);
  /// Spin-wait hint from inside a model thread: deprioritize this thread
  /// until another has run. Required in spec-level retry loops.
  static void yield();

 private:
  Checker* ck_;
};

/// Assertion usable from model threads and from the spec body.
void check(bool cond, const char* msg);

/// Explore all interleavings of `body` per `opt`. The body is re-run once
/// per execution and must be self-contained (construct state, run threads,
/// assert postconditions).
Result explore(const Options& opt, const std::function<void(Sim&)>& body);

namespace detail {

/// Thrown inside a model thread to unwind it after a recorded failure.
struct AbortThread {};
/// Thrown on the main context to skip the rest of a failed execution.
struct ExecutionAbort {};

struct StoreElem {
  std::uint64_t value = 0;
  int tid = 0;
  std::uint32_t when = 0;   ///< writer clock[tid] at the store
  VectorClock msg;          ///< release message (carried through RMWs)
  VectorClock when_clock;   ///< writer's full clock (visibility floor)
  std::uint64_t step = 0;
};

struct Loc {
  bool is_var = false;
  std::string base = "loc";
  std::size_t idx = 0;
  bool indexed = false;
  // Atomic state.
  std::vector<StoreElem> hist;
  std::array<int, kMaxThreads> last_seen{};   ///< coherence floor per thread
  std::array<int, kMaxThreads> stale_used{};
  std::uint8_t site_bits = 0;  // kSiteLoadAcq | kSiteStoreRel | ...
  // Plain-var state (FastTrack-style last write + read clock).
  int w_tid = -1;
  std::uint32_t w_when = 0;
  std::uint64_t w_step = 0;
  std::array<std::uint32_t, kMaxThreads> r_when{};
  std::array<std::uint64_t, kMaxThreads> r_step{};

  [[nodiscard]] std::string name() const {
    return indexed ? base + "[" + std::to_string(idx) + "]" : base;
  }
};

enum class Ev : std::uint8_t {
  kLoad, kLoadStale, kStore, kCasOk, kCasFail, kRmw, kVarRead, kVarWrite,
  kYield, kSwitch, kSpawn, kDone, kFail,
};

struct TraceEvent {
  std::uint32_t step = 0;
  std::int8_t tid = 0;
  Ev ev = Ev::kLoad;
  std::int32_t loc = -1;
  std::uint64_t value = 0;
  std::uint64_t aux = 0;
  std::uint8_t order = 0;  // std::memory_order as int
};

struct ModelThread {
  int tid = 0;
  std::function<void()> body;
  sim::Context ctx;
  std::unique_ptr<char[]> stack;
  bool started = false;  ///< resumed at least once
  bool done = false;
  bool yielded = false;
  VectorClock clock;
  Checker* ck = nullptr;
};

}  // namespace detail

class Checker {
 public:
  explicit Checker(Options opt);
  ~Checker();

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// The checker driving the current execution (set inside run()).
  static Checker* current();

  Result run(const std::function<void(Sim&)>& body);

  // ---- hooks called by chk::atomic / chk::var ----
  int register_loc(bool is_var, std::uint64_t initial);
  void set_loc_name(int loc, const char* base, std::size_t idx, bool indexed);
  std::uint64_t atomic_load(int loc, std::memory_order mo);
  void atomic_store(int loc, std::uint64_t v, std::memory_order mo);
  bool atomic_cas(int loc, std::uint64_t& expected, std::uint64_t desired,
                  std::memory_order success, std::memory_order failure);
  std::uint64_t atomic_fetch_add(int loc, std::uint64_t delta,
                                 std::memory_order mo);
  std::uint64_t atomic_fetch_or(int loc, std::uint64_t bits,
                                std::memory_order mo);
  void var_write(int loc);
  void var_read(int loc);

  // ---- spec-side entry points ----
  void run_threads(std::vector<std::function<void()>> bodies);
  void yield();
  /// Record a failure and abort the current execution (throws).
  [[noreturn]] void fail_here(std::string msg);

 private:
  friend struct detail::ModelThread;

  struct Choice {
    int n = 0;
    int chosen = 0;
  };

  void begin_execution(std::uint64_t exec_index);
  void finish_execution();
  bool advance_trail();
  int choose(int n);
  void record_failure(std::string msg);
  void schedule_suspend();  ///< fiber side: give control back to the driver
  void resume(int tid);     ///< driver side: run thread until next suspend
  void pre_op();
  std::memory_order effective_order(const detail::Loc& l, OpKind op,
                                    std::memory_order req) const;
  void note_sites(detail::Loc& l, OpKind op, std::memory_order success,
                  std::memory_order failure);
  int pick_load_index(detail::Loc& l, int tid, const VectorClock& c,
                      bool* stale);
  void trace(detail::Ev ev, int loc, std::uint64_t value, std::uint64_t aux,
             std::memory_order mo);
  std::string format_trace() const;

  /// Entry of a model thread's stack: runs the body, then leaves for good.
  static void thread_main(void* thread);

  Options opt_;
  // Per-run state.
  std::vector<std::unique_ptr<char[]>> stack_pool_;  ///< recycled fiber stacks
  std::uint64_t exec_index_ = 0;
  std::vector<Choice> trail_;
  std::size_t trail_pos_ = 0;
  bool replay_ = false;
  std::set<Site> sites_;
  std::mt19937_64 rng_;
  // Per-execution state.
  std::vector<detail::Loc> locs_;
  std::vector<std::unique_ptr<detail::ModelThread>> threads_;  // [0] = main
  std::vector<detail::TraceEvent> events_;
  VectorClock sc_clock_;
  sim::Context main_ctx_;
  int current_tid_ = 0;
  int last_tid_ = -1;
  bool last_voluntary_ = false;
  int preemptions_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t progress_marker_ = 0;
  std::uint64_t allyield_marker_ = ~0ull;
  bool failed_ = false;
  std::string message_;
  bool in_threads_ = false;
  /// Set while a failed execution's suspended threads are resumed to unwind.
  bool unwinding_ = false;
};

}  // namespace chk
