#include "check/checker.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace chk {

namespace {

thread_local Checker* g_current = nullptr;

constexpr std::size_t kFiberStack = 256 * 1024;

constexpr std::uint8_t kSiteLoadAcq = 1u << 0;
constexpr std::uint8_t kSiteStoreRel = 1u << 1;
constexpr std::uint8_t kSiteRmwAcq = 1u << 2;
constexpr std::uint8_t kSiteRmwRel = 1u << 3;

bool has_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
         mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}
bool has_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}
std::memory_order drop_acquire(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_acquire:
    case std::memory_order_consume:
      return std::memory_order_relaxed;
    case std::memory_order_acq_rel:
      return std::memory_order_release;
    case std::memory_order_seq_cst:
      return std::memory_order_release;
    default:
      return mo;
  }
}
std::memory_order drop_release(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_release:
      return std::memory_order_relaxed;
    case std::memory_order_acq_rel:
      return std::memory_order_acquire;
    case std::memory_order_seq_cst:
      return std::memory_order_acquire;
    default:
      return mo;
  }
}

const char* order_name(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

}  // namespace

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kRmw: return "rmw";
  }
  return "?";
}

const char* side_name(Side s) {
  switch (s) {
    case Side::kNone: return "none";
    case Side::kAcquire: return "acquire";
    case Side::kRelease: return "release";
  }
  return "?";
}

std::string Site::str() const {
  return loc + " " + op_kind_name(op) + " (" + side_name(side) + ")";
}

std::string Mutation::str() const {
  if (!active()) return "none";
  return loc + " " + op_kind_name(op) + " " + side_name(drop) + "->relaxed";
}

std::string Result::str() const {
  std::ostringstream os;
  os << (failed ? "FAILED" : "passed") << " after " << executions
     << " execution(s)";
  if (complete) os << " (state space exhausted)";
  if (failed) {
    os << ": " << message;
    if (!failing_trail.empty()) os << " [replay trail " << failing_trail << "]";
    if (failing_seed != 0) os << " [replay seed " << failing_seed << "]";
  }
  return os.str();
}

// ----------------------------------------------------------------- public ---

Checker::Checker(Options opt) : opt_(std::move(opt)) {}
Checker::~Checker() = default;

Checker* Checker::current() { return g_current; }

void Sim::threads(std::vector<std::function<void()>> bodies) {
  ck_->run_threads(std::move(bodies));
}

void Sim::yield() {
  Checker* ck = Checker::current();
  if (ck == nullptr) throw std::logic_error("chk::Sim::yield outside explore");
  ck->yield();
}

void check(bool cond, const char* msg) {
  if (cond) return;
  Checker* ck = Checker::current();
  if (ck == nullptr) throw std::logic_error(std::string("chk::check failed outside explore: ") + msg);
  ck->fail_here(std::string("assertion failed: ") + msg);
}

Result explore(const Options& opt, const std::function<void(Sim&)>& body) {
  Checker ck(opt);
  return ck.run(body);
}

Result Checker::run(const std::function<void(Sim&)>& body) {
  if (g_current != nullptr) {
    throw std::logic_error("nested chk::explore is not supported");
  }
  g_current = this;
  Result result;
  replay_ = !opt_.replay_trail.empty();
  if (replay_) {
    trail_.clear();
    std::size_t pos = 0;
    const std::string& s = opt_.replay_trail;
    while (pos < s.size()) {
      std::size_t next = s.find('.', pos);
      if (next == std::string::npos) next = s.size();
      trail_.push_back(Choice{-1, std::stoi(s.substr(pos, next - pos))});
      pos = next + 1;
    }
  }
  const std::uint64_t cap =
      replay_ ? 1
              : (opt_.mode == Mode::kExhaustive ? opt_.max_executions
                                                : opt_.iterations);
  try {
    for (exec_index_ = 0; exec_index_ < cap; ++exec_index_) {
      begin_execution(exec_index_);
      try {
        Sim sim(this);
        body(sim);
      } catch (detail::ExecutionAbort&) {
        // Failure already recorded; skip the rest of the body.
      }
      finish_execution();
      ++result.executions;
      if (failed_) {
        result.failed = true;
        result.message = message_;
        result.trace = format_trace();
        if (opt_.mode == Mode::kRandom) {
          result.failing_seed = opt_.seed + exec_index_;
        } else {
          std::string t;
          for (std::size_t i = 0; i < trail_.size(); ++i) {
            if (i > 0) t += '.';
            t += std::to_string(trail_[i].chosen);
          }
          result.failing_trail = t;
        }
        break;
      }
      if (replay_) {
        result.complete = true;
        break;
      }
      if (opt_.mode == Mode::kExhaustive && !advance_trail()) {
        result.complete = true;
        break;
      }
    }
  } catch (...) {
    g_current = nullptr;
    throw;
  }
  g_current = nullptr;
  result.sites.assign(sites_.begin(), sites_.end());
  return result;
}

// ------------------------------------------------------------- exploration ---

void Checker::begin_execution(std::uint64_t exec_index) {
  locs_.clear();
  threads_.clear();
  events_.clear();
  sc_clock_.clear();
  current_tid_ = 0;
  last_tid_ = -1;
  last_voluntary_ = false;
  preemptions_ = 0;
  steps_ = 0;
  progress_marker_ = 0;
  allyield_marker_ = ~0ull;
  failed_ = false;
  message_.clear();
  trail_pos_ = 0;
  in_threads_ = false;
  rng_.seed(opt_.seed + exec_index);
  // Thread 0 is the spec body itself (setup / postconditions).
  auto main_thread = std::make_unique<detail::ModelThread>();
  main_thread->tid = 0;
  main_thread->ck = this;
  threads_.push_back(std::move(main_thread));
}

void Checker::finish_execution() {
  for (const detail::Loc& l : locs_) {
    if (l.site_bits & kSiteLoadAcq) {
      sites_.insert(Site{l.base, OpKind::kLoad, Side::kAcquire});
    }
    if (l.site_bits & kSiteStoreRel) {
      sites_.insert(Site{l.base, OpKind::kStore, Side::kRelease});
    }
    if (l.site_bits & kSiteRmwAcq) {
      sites_.insert(Site{l.base, OpKind::kRmw, Side::kAcquire});
    }
    if (l.site_bits & kSiteRmwRel) {
      sites_.insert(Site{l.base, OpKind::kRmw, Side::kRelease});
    }
  }
}

bool Checker::advance_trail() {
  while (!trail_.empty() && trail_.back().chosen + 1 >= trail_.back().n) {
    trail_.pop_back();
  }
  if (trail_.empty()) return false;
  ++trail_.back().chosen;
  return true;
}

int Checker::choose(int n) {
  if (n <= 1) return 0;
  if (opt_.mode == Mode::kRandom && !replay_) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  if (trail_pos_ < trail_.size()) {
    Choice& c = trail_[trail_pos_++];
    if (c.n == -1) {
      c.n = n;  // replay trail: option counts are filled in as we go
    } else if (c.n != n) {
      throw std::logic_error(
          "chk internal error: nondeterministic spec body (choice-point "
          "option count changed on replay)");
    }
    if (c.chosen >= n) c.chosen = n - 1;
    return c.chosen;
  }
  trail_.push_back(Choice{n, 0});
  ++trail_pos_;
  return 0;
}

// ---------------------------------------------------------------- threads ---

void Checker::thread_main(void* thread) {
  auto* t = static_cast<detail::ModelThread*>(thread);
  Checker* ck = t->ck;
  try {
    t->body();
  } catch (detail::AbortThread&) {
    // Failure already recorded.
  } catch (const std::exception& e) {
    ck->record_failure(std::string("uncaught exception in model thread: ") +
                       e.what());
  } catch (...) {
    ck->record_failure("uncaught non-std exception in model thread");
  }
  t->done = true;
  ck->trace(detail::Ev::kDone, -1, 0, 0, std::memory_order_relaxed);
  sim::switch_context(t->ctx, ck->main_ctx_);  // never resumed
}

void Checker::resume(int tid) {
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(tid)];
  current_tid_ = tid;
  t.started = true;
  t.yielded = false;
  last_voluntary_ = false;
  sim::switch_context(main_ctx_, t.ctx);
  current_tid_ = 0;
}

void Checker::schedule_suspend() {
  if (unwinding_) return;  // a thread resumed to unwind runs to its end
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  sim::switch_context(t.ctx, main_ctx_);
  if (unwinding_) throw detail::AbortThread{};
}

void Checker::run_threads(std::vector<std::function<void()>> bodies) {
  if (in_threads_ || current_tid_ != 0) {
    throw std::logic_error("Sim::threads must be called once, from the body");
  }
  if (bodies.size() + 1 > static_cast<std::size_t>(kMaxThreads)) {
    throw std::logic_error("too many model threads");
  }
  in_threads_ = true;
  const VectorClock& main_clock = threads_[0]->clock;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    auto t = std::make_unique<detail::ModelThread>();
    t->tid = static_cast<int>(i + 1);
    t->ck = this;
    t->body = std::move(bodies[i]);
    t->clock = main_clock;  // spawn edge: child sees all setup writes
    if (!stack_pool_.empty()) {
      t->stack = std::move(stack_pool_.back());
      stack_pool_.pop_back();
    } else {
      // Uninitialized on purpose: make_unique would zero 256KB per thread
      // per execution, dominating exploration time.
      t->stack.reset(new char[kFiberStack]);
    }
    sim::make_context(t->ctx, t->stack.get(), kFiberStack,
                      &Checker::thread_main, t.get());
    trace(detail::Ev::kSpawn, -1, static_cast<std::uint64_t>(t->tid), 0,
          std::memory_order_relaxed);
    threads_.push_back(std::move(t));
  }

  while (!failed_) {
    std::vector<int> live;
    std::vector<int> ready;
    for (std::size_t i = 1; i < threads_.size(); ++i) {
      if (threads_[i]->done) continue;
      live.push_back(static_cast<int>(i));
      if (!threads_[i]->yielded) ready.push_back(static_cast<int>(i));
    }
    if (live.empty()) break;  // all threads finished
    if (ready.empty()) {
      // Every live thread is spin-waiting. If nothing changed since the last
      // time this happened (no store landed, no stale budget consumed), no
      // future schedule can make progress: livelock/deadlock.
      if (progress_marker_ == allyield_marker_) {
        record_failure(
            "livelock: every thread is spin-waiting and no store or legal "
            "stale-read choice can unblock any of them");
        break;
      }
      allyield_marker_ = progress_marker_;
      for (int tid : live) threads_[static_cast<std::size_t>(tid)]->yielded = false;
      ready = live;
    }
    // Preemption-bounded choice: continuing the last-run thread is free;
    // switching away from it while it is still runnable costs one preemption.
    bool cur_runnable = false;
    for (int tid : ready) cur_runnable |= (tid == last_tid_);
    std::vector<int> options;
    if (cur_runnable && !last_voluntary_) {
      options.push_back(last_tid_);
      if (opt_.mode != Mode::kExhaustive || preemptions_ < opt_.preemption_bound) {
        for (int tid : ready) {
          if (tid != last_tid_) options.push_back(tid);
        }
      }
    } else {
      options = ready;
    }
    const int chosen = options[static_cast<std::size_t>(choose(static_cast<int>(options.size())))];
    if (cur_runnable && !last_voluntary_ && chosen != last_tid_) ++preemptions_;
    if (chosen != last_tid_) {
      trace(detail::Ev::kSwitch, -1, static_cast<std::uint64_t>(chosen), 0,
            std::memory_order_relaxed);
    }
    resume(chosen);
    last_tid_ = chosen;
  }

  // A failure leaves other threads suspended mid-body. Resume each started
  // one to unwind from its suspension point, so its stack objects (a chunk
  // built but not yet installed, say) are destroyed rather than leaked.
  if (failed_) {
    unwinding_ = true;
    for (std::size_t i = 1; i < threads_.size(); ++i) {
      if (threads_[i]->started && !threads_[i]->done) {
        resume(static_cast<int>(i));
      }
    }
    unwinding_ = false;
  }

  // Join edge: the body happens-after everything each thread did. Recycle
  // the fiber stacks (never resumed again).
  for (std::size_t i = 1; i < threads_.size(); ++i) {
    threads_[0]->clock.join(threads_[i]->clock);
    if (threads_[i]->stack) stack_pool_.push_back(std::move(threads_[i]->stack));
  }
  if (failed_) throw detail::ExecutionAbort{};
}

void Checker::yield() {
  if (current_tid_ == 0) return;  // no-op outside model threads
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  t.yielded = true;
  last_voluntary_ = true;
  trace(detail::Ev::kYield, -1, 0, 0, std::memory_order_relaxed);
  schedule_suspend();
}

void Checker::record_failure(std::string msg) {
  if (!failed_) {
    failed_ = true;
    message_ = std::move(msg);
    trace(detail::Ev::kFail, -1, 0, 0, std::memory_order_relaxed);
  }
}

void Checker::fail_here(std::string msg) {
  record_failure(std::move(msg));
  if (current_tid_ != 0) throw detail::AbortThread{};
  throw detail::ExecutionAbort{};
}

void Checker::pre_op() {
  if (current_tid_ != 0) schedule_suspend();
  ++steps_;
  if (steps_ > opt_.max_steps) {
    fail_here("per-execution step budget exceeded (possible livelock)");
  }
}

// ----------------------------------------------------------- memory model ---

int Checker::register_loc(bool is_var, std::uint64_t initial) {
  detail::Loc l;
  l.is_var = is_var;
  if (!is_var) {
    detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
    detail::StoreElem e;
    e.value = initial;
    e.tid = current_tid_;
    e.when = t.clock.c[current_tid_];
    e.when_clock = t.clock;
    // The initial value is visible to every thread without synchronization,
    // like a constructor publish; msg carries the creator's clock so that
    // structures built during setup are race-free to use.
    e.msg = t.clock;
    l.hist.push_back(std::move(e));
  }
  locs_.push_back(std::move(l));
  return static_cast<int>(locs_.size() - 1);
}

void Checker::set_loc_name(int loc, const char* base, std::size_t idx,
                           bool indexed) {
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  l.base = base;
  l.idx = idx;
  l.indexed = indexed;
}

std::memory_order Checker::effective_order(const detail::Loc& l, OpKind op,
                                           std::memory_order req) const {
  const Mutation& m = opt_.mutation;
  if (!m.active() || m.op != op || m.loc != l.base) return req;
  return m.drop == Side::kAcquire ? drop_acquire(req) : drop_release(req);
}

void Checker::note_sites(detail::Loc& l, OpKind op, std::memory_order success,
                         std::memory_order failure) {
  switch (op) {
    case OpKind::kLoad:
      if (has_acquire(success)) l.site_bits |= kSiteLoadAcq;
      break;
    case OpKind::kStore:
      if (has_release(success)) l.site_bits |= kSiteStoreRel;
      break;
    case OpKind::kRmw:
      if (has_acquire(success) || has_acquire(failure)) l.site_bits |= kSiteRmwAcq;
      if (has_release(success)) l.site_bits |= kSiteRmwRel;
      break;
  }
}

int Checker::pick_load_index(detail::Loc& l, int tid, const VectorClock& c,
                             bool* stale) {
  *stale = false;
  const int top = static_cast<int>(l.hist.size()) - 1;
  // Visibility floor: a load may not return a store that is older (in
  // modification order) than some store that already happened-before it, nor
  // older than anything this thread previously read or wrote here.
  int floor = l.last_seen[tid];
  for (int i = top; i > floor; --i) {
    const detail::StoreElem& e = l.hist[static_cast<std::size_t>(i)];
    if (c.c[e.tid] >= e.when) {
      floor = i;
      break;
    }
  }
  int ncand = top - floor + 1;
  const int budget = opt_.stale_read_bound - l.stale_used[tid];
  ncand = std::min(ncand, 1 + std::max(0, budget));
  if (ncand <= 1) return top;
  const int k = choose(ncand);  // option 0 = newest, k>0 = k stores back
  if (k > 0) {
    ++l.stale_used[tid];
    ++progress_marker_;  // budgets deplete: spin loops still converge
    *stale = true;
  }
  return top - k;
}

std::uint64_t Checker::atomic_load(int loc, std::memory_order req) {
  pre_op();
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  ++t.clock.c[current_tid_];
  note_sites(l, OpKind::kLoad, req, std::memory_order_relaxed);
  const std::memory_order mo = effective_order(l, OpKind::kLoad, req);
  if (mo == std::memory_order_seq_cst) t.clock.join(sc_clock_);
  bool stale = false;
  const int i = pick_load_index(l, current_tid_, t.clock, &stale);
  const detail::StoreElem& e = l.hist[static_cast<std::size_t>(i)];
  l.last_seen[current_tid_] = std::max(l.last_seen[current_tid_], i);
  if (has_acquire(mo)) t.clock.join(e.msg);
  if (mo == std::memory_order_seq_cst) sc_clock_.join(t.clock);
  trace(stale ? detail::Ev::kLoadStale : detail::Ev::kLoad, loc, e.value,
        static_cast<std::uint64_t>(static_cast<int>(l.hist.size()) - 1 - i), mo);
  return e.value;
}

void Checker::atomic_store(int loc, std::uint64_t v, std::memory_order req) {
  pre_op();
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  ++t.clock.c[current_tid_];
  note_sites(l, OpKind::kStore, req, std::memory_order_relaxed);
  const std::memory_order mo = effective_order(l, OpKind::kStore, req);
  if (mo == std::memory_order_seq_cst) t.clock.join(sc_clock_);
  detail::StoreElem e;
  e.value = v;
  e.tid = current_tid_;
  e.when = t.clock.c[current_tid_];
  e.when_clock = t.clock;
  if (has_release(mo)) e.msg = t.clock;
  l.hist.push_back(std::move(e));
  l.last_seen[current_tid_] = static_cast<int>(l.hist.size()) - 1;
  if (mo == std::memory_order_seq_cst) sc_clock_.join(t.clock);
  ++progress_marker_;
  trace(detail::Ev::kStore, loc, v, 0, mo);
}

bool Checker::atomic_cas(int loc, std::uint64_t& expected,
                         std::uint64_t desired, std::memory_order success,
                         std::memory_order failure) {
  pre_op();
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  ++t.clock.c[current_tid_];
  note_sites(l, OpKind::kRmw, success, failure);
  const std::memory_order mo_s = effective_order(l, OpKind::kRmw, success);
  std::memory_order mo_f = failure;
  if (opt_.mutation.active() && opt_.mutation.op == OpKind::kRmw &&
      opt_.mutation.loc == l.base && opt_.mutation.drop == Side::kAcquire) {
    mo_f = drop_acquire(mo_f);
  }
  if (mo_s == std::memory_order_seq_cst) t.clock.join(sc_clock_);
  // An RMW always reads the newest store in modification order; a failed
  // CAS is modeled the same way (no stale failures — see DESIGN.md §9).
  const detail::StoreElem& top = l.hist.back();
  l.last_seen[current_tid_] = static_cast<int>(l.hist.size()) - 1;
  if (top.value != expected) {
    expected = top.value;
    if (has_acquire(mo_f)) t.clock.join(top.msg);
    trace(detail::Ev::kCasFail, loc, top.value, desired, mo_f);
    return false;
  }
  if (has_acquire(mo_s)) t.clock.join(top.msg);
  detail::StoreElem e;
  e.value = desired;
  e.tid = current_tid_;
  e.when = t.clock.c[current_tid_];
  e.when_clock = t.clock;
  e.msg = top.msg;  // RMWs continue the release sequence (C++20 [intro.races])
  if (has_release(mo_s)) e.msg.join(t.clock);
  l.hist.push_back(std::move(e));
  l.last_seen[current_tid_] = static_cast<int>(l.hist.size()) - 1;
  if (mo_s == std::memory_order_seq_cst) sc_clock_.join(t.clock);
  ++progress_marker_;
  trace(detail::Ev::kCasOk, loc, desired, 0, mo_s);
  return true;
}

std::uint64_t Checker::atomic_fetch_add(int loc, std::uint64_t delta,
                                        std::memory_order req) {
  pre_op();
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  ++t.clock.c[current_tid_];
  note_sites(l, OpKind::kRmw, req, std::memory_order_relaxed);
  const std::memory_order mo = effective_order(l, OpKind::kRmw, req);
  if (mo == std::memory_order_seq_cst) t.clock.join(sc_clock_);
  const detail::StoreElem& top = l.hist.back();
  const std::uint64_t old = top.value;
  if (has_acquire(mo)) t.clock.join(top.msg);
  detail::StoreElem e;
  e.value = old + delta;
  e.tid = current_tid_;
  e.when = t.clock.c[current_tid_];
  e.when_clock = t.clock;
  e.msg = top.msg;
  if (has_release(mo)) e.msg.join(t.clock);
  l.hist.push_back(std::move(e));
  l.last_seen[current_tid_] = static_cast<int>(l.hist.size()) - 1;
  if (mo == std::memory_order_seq_cst) sc_clock_.join(t.clock);
  ++progress_marker_;
  trace(detail::Ev::kRmw, loc, old + delta, old, mo);
  return old;
}

std::uint64_t Checker::atomic_fetch_or(int loc, std::uint64_t bits,
                                       std::memory_order req) {
  pre_op();
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  ++t.clock.c[current_tid_];
  note_sites(l, OpKind::kRmw, req, std::memory_order_relaxed);
  const std::memory_order mo = effective_order(l, OpKind::kRmw, req);
  if (mo == std::memory_order_seq_cst) t.clock.join(sc_clock_);
  const detail::StoreElem& top = l.hist.back();
  const std::uint64_t old = top.value;
  if (has_acquire(mo)) t.clock.join(top.msg);
  detail::StoreElem e;
  e.value = old | bits;
  e.tid = current_tid_;
  e.when = t.clock.c[current_tid_];
  e.when_clock = t.clock;
  e.msg = top.msg;
  if (has_release(mo)) e.msg.join(t.clock);
  l.hist.push_back(std::move(e));
  l.last_seen[current_tid_] = static_cast<int>(l.hist.size()) - 1;
  if (mo == std::memory_order_seq_cst) sc_clock_.join(t.clock);
  ++progress_marker_;
  trace(detail::Ev::kRmw, loc, old | bits, old, mo);
  return old;
}

void Checker::var_write(int loc) {
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  ++t.clock.c[current_tid_];
  ++steps_;
  const std::uint64_t step = steps_;
  trace(detail::Ev::kVarWrite, loc, 0, 0, std::memory_order_relaxed);
  if (l.w_tid >= 0 && l.w_tid != current_tid_ &&
      t.clock.c[l.w_tid] < l.w_when) {
    fail_here("data race on " + l.name() + ": write by T" +
              std::to_string(current_tid_) + " (step " + std::to_string(step) +
              ") is concurrent with write by T" + std::to_string(l.w_tid) +
              " (step " + std::to_string(l.w_step) + ")");
  }
  for (int r = 0; r < kMaxThreads; ++r) {
    if (r == current_tid_ || l.r_when[static_cast<std::size_t>(r)] == 0) continue;
    if (t.clock.c[r] < l.r_when[static_cast<std::size_t>(r)]) {
      fail_here("data race on " + l.name() + ": write by T" +
                std::to_string(current_tid_) + " (step " + std::to_string(step) +
                ") is concurrent with read by T" + std::to_string(r) +
                " (step " + std::to_string(l.r_step[static_cast<std::size_t>(r)]) +
                ")");
    }
  }
  l.w_tid = current_tid_;
  l.w_when = t.clock.c[current_tid_];
  l.w_step = step;
  l.r_when.fill(0);  // earlier reads are now ordered before this write
}

void Checker::var_read(int loc) {
  detail::Loc& l = locs_[static_cast<std::size_t>(loc)];
  detail::ModelThread& t = *threads_[static_cast<std::size_t>(current_tid_)];
  ++t.clock.c[current_tid_];
  ++steps_;
  const std::uint64_t step = steps_;
  trace(detail::Ev::kVarRead, loc, 0, 0, std::memory_order_relaxed);
  if (l.w_tid >= 0 && l.w_tid != current_tid_ &&
      t.clock.c[l.w_tid] < l.w_when) {
    fail_here("data race on " + l.name() + ": read by T" +
              std::to_string(current_tid_) + " (step " + std::to_string(step) +
              ") is concurrent with write by T" + std::to_string(l.w_tid) +
              " (step " + std::to_string(l.w_step) + ")");
  }
  l.r_when[static_cast<std::size_t>(current_tid_)] = t.clock.c[current_tid_];
  l.r_step[static_cast<std::size_t>(current_tid_)] = steps_;
}

// ------------------------------------------------------------------ trace ---

void Checker::trace(detail::Ev ev, int loc, std::uint64_t value,
                    std::uint64_t aux, std::memory_order mo) {
  if (unwinding_ || events_.size() >= opt_.max_steps + 64) return;
  detail::TraceEvent e;
  e.step = static_cast<std::uint32_t>(steps_);
  e.tid = static_cast<std::int8_t>(current_tid_);
  e.ev = ev;
  e.loc = loc;
  e.value = value;
  e.aux = aux;
  e.order = static_cast<std::uint8_t>(mo);
  events_.push_back(e);
}

std::string Checker::format_trace() const {
  std::ostringstream os;
  for (const detail::TraceEvent& e : events_) {
    const auto mo = static_cast<std::memory_order>(e.order);
    const std::string loc_name =
        e.loc >= 0 ? locs_[static_cast<std::size_t>(e.loc)].name() : "";
    os << "  ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%5u T%d  ", e.step, static_cast<int>(e.tid));
    os << buf;
    switch (e.ev) {
      case detail::Ev::kLoad:
        os << "load  " << loc_name << " -> " << e.value << " (" << order_name(mo) << ")";
        break;
      case detail::Ev::kLoadStale:
        os << "load  " << loc_name << " -> " << e.value << " (" << order_name(mo)
           << ", STALE: " << e.aux << " store(s) behind)";
        break;
      case detail::Ev::kStore:
        os << "store " << loc_name << " = " << e.value << " (" << order_name(mo) << ")";
        break;
      case detail::Ev::kCasOk:
        os << "cas   " << loc_name << " = " << e.value << " OK (" << order_name(mo) << ")";
        break;
      case detail::Ev::kCasFail:
        os << "cas   " << loc_name << " failed, saw " << e.value << " (" << order_name(mo) << ")";
        break;
      case detail::Ev::kRmw:
        os << "rmw   " << loc_name << " " << e.aux << " -> " << e.value
           << " (" << order_name(mo) << ")";
        break;
      case detail::Ev::kVarRead:
        os << "read  " << loc_name << " (plain)";
        break;
      case detail::Ev::kVarWrite:
        os << "write " << loc_name << " (plain)";
        break;
      case detail::Ev::kYield:
        os << "yield (spin-wait)";
        break;
      case detail::Ev::kSwitch:
        os << "---- scheduler: switch to T" << e.value << " ----";
        break;
      case detail::Ev::kSpawn:
        os << "spawn T" << e.value;
        break;
      case detail::Ev::kDone:
        os << "thread done";
        break;
      case detail::Ev::kFail:
        os << "FAILURE DETECTED HERE";
        break;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace chk
