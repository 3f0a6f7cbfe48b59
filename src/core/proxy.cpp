#include "core/proxy.hpp"

#include <algorithm>
#include <stdexcept>

#include "mpi/cluster.hpp"
#include "san/san.hpp"
#include "trace/scope.hpp"

namespace core {

const char* approach_name(Approach a) {
  switch (a) {
    case Approach::kBaseline:
      return "baseline";
    case Approach::kIprobe:
      return "iprobe";
    case Approach::kCommSelf:
      return "comm-self";
    case Approach::kOffload:
      return "offload";
  }
  return "?";
}

smpi::ThreadLevel required_thread_level(Approach a) {
  // comm-self needs concurrent MPI calls (progress thread + master); the
  // others drive MPI from a single thread.
  return a == Approach::kCommSelf ? smpi::ThreadLevel::kMultiple
                                  : smpi::ThreadLevel::kFunneled;
}

// -------------------------------------------------------------- front end ----

namespace {
// post_batch's whole-batch check, shared by every override: equal span
// lengths and only isend/irecv ops, so a rejected batch posts nothing.
void check_batch(std::span<const Command> ops, std::span<const PReq> out) {
  if (ops.size() != out.size()) {
    throw std::invalid_argument("post_batch: ops/out span size mismatch");
  }
  for (const Command& o : ops) {
    if (o.op != CmdOp::kIsend && o.op != CmdOp::kIrecv) {
      throw std::invalid_argument("post_batch: only isend/irecv ops batch");
    }
  }
}
}  // namespace

void Proxy::post_batch(std::span<const Command> ops, std::span<PReq> out) {
  check_batch(ops, out);
  for (std::size_t i = 0; i < ops.size(); ++i) out[i] = post(ops[i]);
}

// Persistent requests: one record (core::Persistent) and one state machine
// for every approach; the persist_* actions are all an approach supplies.

void Proxy::misuse(const char* call, const char* what) {
  san::mpi_persist_misuse(rc_.rank(), call, what);
  throw std::logic_error(std::string(call) + ": " + what);
}

Persistent& Proxy::persistent_of(const PersistentReq& r, const char* call) {
  if (r.is_null() || r.v > persist_.size()) {
    throw std::logic_error(std::string(call) +
                           ": null or invalid persistent request handle");
  }
  return persist_[static_cast<std::size_t>(r.v - 1)];
}

PersistentReq Proxy::persistent_init(const Command& cmd) {
  // The handle is fixed before binding: binding yields, and sibling fibers
  // may init their own requests meanwhile.
  PersistentReq r{persist_.size() + 1};
  Persistent& p = persist_.emplace_back();
  p.cmd = cmd;
  persist_bind(p);
  return r;
}

void Proxy::start(PersistentReq& r) {
  Persistent& p = persistent_of(r, "start");
  if (p.state == PState::kFreed) misuse("start", "request was freed");
  if (p.state == PState::kStarted) {
    misuse("start", "previous generation still in flight");
  }
  persist_start(p);
}

void Proxy::wait(PersistentReq& r, smpi::Status* st) {
  Persistent& p = persistent_of(r, "wait");
  if (p.state == PState::kFreed) misuse("wait", "request was freed");
  if (p.state == PState::kInactive) {
    if (st != nullptr) *st = smpi::Status{};
    return;  // trivially complete, like MPI_Wait on an inactive request
  }
  persist_complete(p, st);
  p.state = PState::kInactive;
}

void Proxy::request_free(PersistentReq& r) {
  if (r.is_null()) return;
  Persistent& p = persistent_of(r, "request_free");
  if (p.state == PState::kStarted) {
    misuse("request_free", "generation still in flight");
  }
  if (p.state != PState::kFreed) {
    p.state = PState::kFreed;
    persist_free(p);
  }
  r = PersistentReq{};
}

// ------------------------------------------------------------ DirectProxy ----

namespace {
PReq wrap(smpi::Request r) { return PReq{static_cast<std::uint64_t>(r.idx)}; }
smpi::Request unwrap(PReq r) { return smpi::Request{static_cast<int>(r.v)}; }
}  // namespace

PReq DirectProxy::post(const Command& cmd) { return wrap(execute(rc_, cmd)); }

void DirectProxy::persist_bind(Persistent& p) { p.create_request(rc_); }

void DirectProxy::persist_start(Persistent& p) {
  p.state = PState::kStarted;
  rc_.start(p.req);
}

void DirectProxy::persist_complete(Persistent& p, smpi::Status* st) {
  rc_.wait(p.req, st);  // persistent at the MPI layer: the handle survives
}

void DirectProxy::persist_free(Persistent& p) {
  if (!p.req.is_null()) rc_.request_free(p.req);
}

void DirectProxy::wait(PReq& r, smpi::Status* st) {
  smpi::Request rq = unwrap(r);
  rc_.wait(rq, st);
  r = wrap(rq);
}
void DirectProxy::waitall(std::span<PReq> rs) {
  if (rs.empty()) return;  // MPI_Waitall(0, ...) is a no-op
  std::vector<smpi::Request> reqs;
  reqs.reserve(rs.size());
  for (PReq r : rs) reqs.push_back(unwrap(r));
  rc_.waitall(reqs);
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = wrap(reqs[i]);
}
int DirectProxy::waitany(std::span<PReq> rs, smpi::Status* st) {
  if (rs.empty()) return -1;  // MPI_UNDEFINED for an empty list
  std::vector<smpi::Request> reqs;
  reqs.reserve(rs.size());
  for (PReq r : rs) reqs.push_back(unwrap(r));
  const int idx = rc_.waitany(reqs, st);
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = wrap(reqs[i]);
  return idx;
}
bool DirectProxy::testall(std::span<PReq> rs) {
  if (rs.empty()) return true;  // MPI_Testall(0, ...) sets flag = true
  std::vector<smpi::Request> reqs;
  reqs.reserve(rs.size());
  for (PReq r : rs) reqs.push_back(unwrap(r));
  const bool done = rc_.testall(reqs);
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = wrap(reqs[i]);
  return done;
}

void DirectProxy::attach_continuation(PReq& r, ContFn fn) {
  if (r.is_null()) {
    // Already-released handle: the continuation analogue of "waiting twice
    // is safe" — treat it as complete and run inline with an empty Status.
    fn(smpi::Status{});
    return;
  }
  armed_.push_back({unwrap(r), std::move(fn)});
  r = PReq{};
  // A request that already completed fires right here, not at the next
  // progress call — but arming must stay cheap (one test of THIS request,
  // not a pump over everything armed, or when_all's post phase turns into
  // a quadratic app-thread scan).
  if (pumping_) return;  // the in-progress pump's scan reaches appendees
  smpi::Status st;
  if (rc_.test(armed_.back().req, &st)) {
    ContFn f = std::move(armed_.back().fn);
    armed_.pop_back();
    trace::Scope tsc("cont:run", approach_name(approach()));
    f(st);
  }
}

void DirectProxy::pump_continuations() {
  if (pumping_ || armed_.empty()) return;
  pumping_ = true;  // callbacks re-enter via attach/test; they only append
  std::size_t i = 0;
  while (i < armed_.size()) {
    smpi::Status st;
    smpi::Request rq = armed_[i].req;
    if (!rc_.test(rq, &st)) {
      ++i;
      continue;
    }
    // Retire the entry BEFORE running the callback: fn may grow armed_
    // (posting follow-ups) and must not observe its own dead entry.
    ContFn fn = std::move(armed_[i].fn);
    armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
    trace::Scope tsc("cont:run", approach_name(approach()));
    fn(st);
    // No ++i: erase shifted the next candidate into position i.
  }
  pumping_ = false;
}

void DirectProxy::cont_wait(const std::function<bool()>& done) {
  trace::Scope tsc("cont:wait", approach_name(approach()));
  pump_continuations();
  // Exponential backoff between pumps: direct proxies have no engine fiber
  // to wake us precisely, so poll the progress path, sleeping on the rank's
  // arrival doorbell between polls.
  sim::Time backoff = sim::Time::from_us(1);
  while (!done()) {
    const std::uint64_t seen = rc_.arrivals().count();
    rc_.progress();
    pump_continuations();
    if (done()) break;
    rc_.arrivals().wait_beyond_timeout(seen, backoff);
    if (backoff.ns() < 100'000) backoff = sim::Time(backoff.ns() * 2);
  }
}

// ------------------------------------------------------------ IprobeProxy ----

void IprobeProxy::progress_hint() {
  rc_.iprobe(smpi::kAnySource, smpi::kAnyTag, smpi::kCommWorld, nullptr);
  // The PROGRESS macro is exactly where armed continuations get cycles.
  pump_continuations();
}

// ---------------------------------------------------------- CommSelfProxy ----

void CommSelfProxy::start_engine() {
  if (rc_.thread_level() != smpi::ThreadLevel::kMultiple) {
    throw std::logic_error("comm-self requires MPI_THREAD_MULTIPLE");
  }
  // Duplicate COMM_SELF (purely local) and park a thread in a blocking
  // receive on it. The matching send is only posted by stop().
  progress_comm_ = rc_.comm_dup(smpi::kCommSelf);
  running_ = true;
  smpi::RankCtx* rc = &rc_;
  auto* self = this;
  rc_.cluster().spawn_on(rc_.rank(), "rank" + std::to_string(rc_.rank()) + ".commself",
                         [rc, self]() {
                           rc->recv(&self->recv_token_, 1, smpi::Datatype::kByte,
                                    0, 0, self->progress_comm_, nullptr);
                           self->running_ = false;
                         });
}

void CommSelfProxy::stop() {
  if (!running_) return;
  // Unblock the progress thread by satisfying its receive.
  stop_token_ = 1;
  rc_.send(&stop_token_, 1, smpi::Datatype::kByte, 0, 0, progress_comm_);
  // Let the progress fiber observe completion and exit.
  while (running_) sim::advance(sim::Time::from_ns(100));
}

// ----------------------------------------------------------- OffloadProxy ----

OffloadProxy::OffloadProxy(smpi::RankCtx& rc)
    : OffloadProxy(rc, ProxyOptions::from_env(rc.profile())) {}

OffloadProxy::OffloadProxy(smpi::RankCtx& rc, const ProxyOptions& opts)
    : Proxy(rc), channel_(rc, opts) {}

namespace {
// PReq <-> pool-slot mapping: slots are biased by one so PReq{0} stays the
// universal null handle (slot 0 is a valid pool index).
PReq preq_of(std::uint32_t slot) {
  return PReq{static_cast<std::uint64_t>(slot) + 1};
}
std::uint32_t slot_of(PReq r) { return static_cast<std::uint32_t>(r.v - 1); }
}  // namespace

void OffloadProxy::start_engine() {
  auto* ch = &channel_;
  const std::size_t n = channel_.engine_count();
  engine_fibers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Engine 0 keeps the classic fiber name; siblings get a suffix so traces
    // and the fiber registry distinguish them.
    std::string name = "rank" + std::to_string(rc_.rank()) + ".offload";
    if (i != 0) name += std::to_string(i);
    engine_fibers_.push_back(&rc_.cluster().spawn_on(
        rc_.rank(), name, [ch, i]() { ch->engine_main(i); }));
  }
}

void OffloadProxy::stop() {
  channel_.shutdown();
  for (sim::Fiber* f : engine_fibers_) {
    while (f != nullptr && !f->done()) {
      sim::advance(sim::Time::from_ns(100));
    }
  }
}

PReq OffloadProxy::post(const Command& cmd) {
  return preq_of(channel_.submit(cmd));
}

void OffloadProxy::post_batch(std::span<const Command> ops,
                              std::span<PReq> out) {
  check_batch(ops, out);
  // Per-call scratch: submit_batch advances virtual time (and a real enqueue
  // would block), so another fiber can enter post_batch concurrently — a
  // shared member buffer would be clobbered mid-flush.
  std::vector<Command> scratch;
  for (std::size_t base = 0; base < ops.size(); base += kBatchFlush) {
    const std::size_t n = std::min(kBatchFlush, ops.size() - base);
    scratch.assign(ops.begin() + static_cast<std::ptrdiff_t>(base),
                   ops.begin() + static_cast<std::ptrdiff_t>(base + n));
    channel_.submit_batch(scratch);
    for (std::size_t i = 0; i < n; ++i) {
      out[base + i] = preq_of(scratch[i].proxy);
    }
  }
}

void OffloadProxy::wait(PReq& r, smpi::Status* st) {
  if (r.is_null()) return;
  channel_.wait_done(slot_of(r), st);
  r = PReq{};
}
bool OffloadProxy::release(std::span<PReq> rs) {
  bool freed = false;
  for (PReq& r : rs) {
    if (r.is_null()) continue;
    san::acquire(&channel_.pool(), slot_of(r));  // completer's publish
    channel_.free_slot(slot_of(r));
    r = PReq{};
    freed = true;
  }
  return freed;
}
void OffloadProxy::waitall(std::span<PReq> rs) {
  if (rs.empty()) return;  // no-op: no flags to scan, no doorbell to ring
  if (channel_.in_engine()) {
    throw std::logic_error(san::engine_block_message("OffloadProxy::waitall"));
  }
  trace::Scope tsc("wait:all", "offload");
  const auto& p = rc_.profile();
  RequestPool& pool = channel_.pool();
  // rs[0, known) are null or seen set, `rereads` of them non-null. A set
  // one-shot done flag stays set until release() below, so re-reading one
  // observes nothing: each pass charges those re-reads and the read of the
  // first unknown flag as one step chain, then reads on flag by flag.
  std::size_t known = 0;
  std::uint64_t rereads = 0;
  for (;;) {
    // One pass over the done flags per wake; the completion notifier's count
    // is snapshotted first so a flag published mid-scan re-runs the pass
    // instead of being slept past.
    const std::uint64_t seen = channel_.completions().count();
    std::uint64_t steps = rereads + 1;
    bool all_done = true;
    for (; known < rs.size(); ++known) {
      if (rs[known].is_null()) continue;
      sim::advance_steps(p.done_flag_check, steps);
      steps = 1;
      if (!pool.done(slot_of(rs[known]))) {
        all_done = false;
        break;
      }
      ++rereads;
    }
    if (all_done) break;
    channel_.completions().wait_beyond(seen);
  }
  release(rs);
  channel_.completions().signal();  // freed slots may unblock a full pool
}
int OffloadProxy::waitany(std::span<PReq> rs, smpi::Status* st) {
  if (channel_.in_engine()) {
    throw std::logic_error(san::engine_block_message("OffloadProxy::waitany"));
  }
  trace::Scope tsc("wait:any", "offload");
  const auto& p = rc_.profile();
  RequestPool& pool = channel_.pool();
  for (;;) {
    const std::uint64_t seen = channel_.completions().count();
    bool any_active = false;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].is_null()) continue;
      any_active = true;
      sim::advance(p.done_flag_check);
      const std::uint32_t slot = slot_of(rs[i]);
      if (!pool.done(slot)) continue;
      san::acquire(&pool, slot);  // done-flag acquire: Status visible
      if (st != nullptr) *st = pool.status(slot);
      release(rs.subspan(i, 1));
      channel_.completions().signal();
      return static_cast<int>(i);
    }
    if (!any_active) return -1;
    channel_.completions().wait_beyond(seen);
  }
}
bool OffloadProxy::testall(std::span<PReq> rs) {
  const auto& p = rc_.profile();
  RequestPool& pool = channel_.pool();
  // Single pass over the done flags; release only if every one is set.
  for (const PReq& r : rs) {
    if (r.is_null()) continue;
    sim::advance(p.done_flag_check);
    if (!pool.done(slot_of(r))) return false;
  }
  if (release(rs)) channel_.completions().signal();
  return true;
}

// Persistent: the pinned pool slot (OffloadChannel::persist_*).

void OffloadProxy::persist_bind(Persistent& p) { channel_.persist_init(p); }

void OffloadProxy::persist_start(Persistent& p) { channel_.persist_start(p); }

void OffloadProxy::persist_complete(Persistent& p, smpi::Status* st) {
  // Consume the completion WITHOUT freeing the pinned slot: the request
  // returns to kInactive, ready for the next start.
  channel_.wait_done(p.cmd.proxy, st, true);
}

void OffloadProxy::persist_free(Persistent& p) { channel_.persist_free(p); }

void OffloadProxy::attach_continuation(PReq& r, ContFn fn) {
  if (r.is_null()) {
    fn(smpi::Status{});  // released handle: complete by contract, run inline
    return;
  }
  channel_.attach_continuation(slot_of(r), std::move(fn));
  r = PReq{};
}

void OffloadProxy::cont_wait(const std::function<bool()>& done) {
  if (channel_.in_engine()) {
    throw std::logic_error(
        san::engine_block_message("OffloadProxy::cont_wait"));
  }
  trace::Scope tsc("cont:wait", "offload");
  // The engine fiber runs the continuations; this thread only sleeps on the
  // completion doorbell (same snapshot-then-wait pattern as waitall). When
  // the waiter IS the engine (a callback calling Event::wait) this would
  // self-deadlock — the engine forbids it.
  while (!done()) {
    const std::uint64_t seen = channel_.completions().count();
    if (done()) break;
    channel_.completions().wait_beyond(seen);
  }
}

// ---------------------------------------------------------------- factory ----

std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc) {
  switch (a) {
    case Approach::kBaseline:
      return std::make_unique<DirectProxy>(rc);
    case Approach::kIprobe:
      return std::make_unique<IprobeProxy>(rc);
    case Approach::kCommSelf:
      return std::make_unique<CommSelfProxy>(rc);
    case Approach::kOffload:
      return std::make_unique<OffloadProxy>(rc);
  }
  throw std::logic_error("unknown approach");
}

std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc,
                                  const ProxyOptions& opts) {
  if (a == Approach::kOffload) return std::make_unique<OffloadProxy>(rc, opts);
  return make_proxy(a, rc);  // tuning only applies to the offload channel
}

}  // namespace core
