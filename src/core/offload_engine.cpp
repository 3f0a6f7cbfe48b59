#include "core/offload_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "san/san.hpp"
#include "trace/scope.hpp"

namespace core {

namespace {
// A producer spinning this long on a full lane/ring means the engine is
// stuck or dead, not merely behind — fail loudly instead of hanging.
constexpr int kFullSpinBound = 1 << 16;
// row_of_fiber_ sentinel: the fiber came after every lane row was bound, so
// it publishes to the shared rings.
constexpr std::uint32_t kSharedRing = 0xffffffffu;
// drain budget of an engine emptying its own ring: everything, including
// commands published while it issues.
constexpr std::size_t kNoBound = std::numeric_limits<std::size_t>::max();

// Fibonacci multiplicative mix: spreads consecutive peer/communicator keys
// across engines without clustering.
std::uint64_t mix64(std::uint64_t x) {
  return (x ^ (x >> 31)) * 0x9E3779B97F4A7C15ull;
}
}  // namespace

OffloadChannel::OffloadChannel(smpi::RankCtx& rc, const ProxyOptions& opts)
    : rc_(rc),
      opts_(opts),
      pool_(opts.pool_capacity),
      completions_(rc.profile().done_flag_detect),
      cont_(opts.pool_capacity),
      cont_fns_(opts.pool_capacity) {
  const std::size_t n = std::max<std::size_t>(1, opts_.proxy_count);
  engines_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    engines_.push_back(std::make_unique<Engine>(opts_.ring_capacity, rc_, i));
  }
  // Row-major lane grid: one row per potential submitter, one column per
  // engine, so every (producer, consumer) pair has a private SPSC ring. A
  // row's lanes are built when a submitter binds it (lane_for_caller), so
  // their capacity is checked here, not at first bind.
  if (opts_.lane_count > 0) SpscLane<Command>::checked(opts_.lane_capacity);
  lanes_.resize(opts_.lane_count * n);
}

OffloadChannel::Footprint OffloadChannel::footprint() const {
  Footprint f{.pool_chunks = pool_.committed_chunks(),
              .cont_chunks = cont_.committed_chunks(),
              .cont_fn_chunks = cont_fns_.committed_chunks()};
  for (const auto& e : engines_) f.ring_chunks += e->ring.committed_chunks();
  return f;
}

// --------------------------------------------------------------- routing ----

std::size_t OffloadChannel::engine_of(const Command& cmd) {
  const std::size_t n = engines_.size();
  if (n == 1) return 0;
  const auto by = [n](std::uint64_t key) {
    return static_cast<std::size_t>(mix64(key) >> 32) % n;
  };
  // Key construction: peer-addressed traffic mixes (peer, comm) so one hot
  // peer's envelopes serialize on one engine while different peers spread;
  // communicator-scoped traffic (collectives, wildcard receives) mixes only
  // the communicator.
  const auto peer_key = [&cmd] {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.comm.idx))
            << 32) ^
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.peer));
  };
  const auto comm_key = [&cmd] {
    return 0x636f6d6dull ^
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.comm.idx))
            << 16);
  };
  switch (cmd.op) {
    case CmdOp::kIsend:
      return by(peer_key());
    case CmdOp::kIrecv: {
      const int ci = cmd.comm.idx;
      if (cmd.peer == smpi::kAnySource) {
        // Wildcard: pin this communicator to hash(comm) routing, stickily.
        // Every later receive on it follows, so a wildcard can neither
        // overtake nor be overtaken by a same-communicator receive posted
        // after it. (A specific receive already in a sibling's queue when
        // the first wildcard arrives can still be issued after it, and the
        // wildcard can then take its message: an ordering defect that no
        // test covers yet — DESIGN.md §15, ROADMAP item 4(a).)
        if (std::find(wildcard_comms_.begin(), wildcard_comms_.end(), ci) ==
            wildcard_comms_.end()) {
          wildcard_comms_.push_back(ci);
        }
        return by(comm_key());
      }
      if (std::find(wildcard_comms_.begin(), wildcard_comms_.end(), ci) !=
          wildcard_comms_.end()) {
        return by(comm_key());
      }
      return by(peer_key());
    }
    case CmdOp::kShutdown:
      return 0;  // never routed: shutdown() broadcasts to every engine
    default:
      // Collectives: same communicator -> same engine preserves the rank's
      // collective posting order.
      return by(comm_key());
  }
}

// ------------------------------------------------------ application side ----

OffloadChannel::Lane* OffloadChannel::lane_for_caller(std::size_t engine_idx,
                                                      bool& overflow) {
  overflow = false;
  if (opts_.lane_count == 0) return nullptr;
  const sim::Fiber* f = sim::Engine::current()->current_fiber();
  const std::uint64_t fiber = f != nullptr ? f->id() : 0;
  auto bound = std::find_if(row_of_fiber_.begin(), row_of_fiber_.end(),
                            [fiber](const auto& b) { return b.first == fiber; });
  const std::size_t n = engines_.size();
  if (bound == row_of_fiber_.end()) {
    std::uint32_t row = kSharedRing;  // more submitting fibers than lane rows
    if (next_lane_ < opts_.lane_count) {
      row = static_cast<std::uint32_t>(next_lane_++);
      for (std::size_t i = row * n; i < (row + 1) * n; ++i) {
        lanes_[i] = std::make_unique<Lane>(opts_.lane_capacity, rc_.rank(), i);
      }
    }
    bound = row_of_fiber_.insert(row_of_fiber_.end(), {fiber, row});
  }
  overflow = bound->second == kSharedRing;
  return overflow ? nullptr : lanes_[bound->second * n + engine_idx].get();
}

std::uint32_t OffloadChannel::alloc_slot(Engine* e) {
  // Allocate the proxy request (lock-free pool op).
  sim::advance(rc_.profile().request_pool_op);
  std::uint32_t proxy = pool_.alloc();
  for (int retries = 0; proxy == RequestPool::kNil; ++retries) {
    // Pool exhausted. A single-threaded application that over-posts can
    // never recycle, so a bounded wait converts that programming error into
    // a clear failure instead of a silent deadlock.
    if (retries > 64) {
      throw std::runtime_error(
          "offload request pool exhausted: too many outstanding requests "
          "(increase pool_capacity, wait on requests sooner or post smaller "
          "follow-up graphs from continuations)");
    }
    ++stats_.pool_full_stalls;
    trace::instant("stall:pool-full", "offload");
    if (e == nullptr) {
      // Wait for another thread to recycle a slot.
      const std::uint64_t seen = completions_.count();
      completions_.wait_beyond_timeout(seen, sim::Time::from_us(200));
    } else {
      // Engine context: blocking on completions_ would deadlock (the
      // engines are its only signallers). Complete in-flight work instead,
      // and advance the clock so application fibers get a chance to free
      // finished slots.
      drive_progress(*e);
      sim::advance(sim::Time::from_us(1));
    }
    proxy = pool_.alloc();
  }
  san::acquire(&pool_, proxy);  // HB edge from the releasing free()
  cont_.reset(proxy);  // recycle the slot's continuation state with it
  return proxy;
}

std::uint32_t OffloadChannel::submit_from_engine(Engine& e, Command cmd) {
  // A continuation posting a follow-up: no lane, no ring, no doorbell — the
  // posting engine IS a consumer, so the command issues directly (and its
  // in-flight lands on this engine, whatever engine_of would have said).
  // This is also the no-deadlock rule: a full ring can never wedge a
  // posting callback.
  trace::Scope tsc("cont:post", "offload");
  cmd.proxy = alloc_slot(&e);
  ++stats_.cont_posts;
  process_command(e, cmd);
  return cmd.proxy;
}

void OffloadChannel::publish(std::size_t eidx, std::span<Command> group,
                             bool batched) {
  bool overflow = false;
  Lane* lane = lane_for_caller(eidx, overflow);
  if (lane == nullptr) {
    // No lane: the group still pays the tail cache-line transfer once.
    Engine& e = *engines_[eidx];
    push_ring(e, group);
    e.g_ring.set(static_cast<double>(e.ring.size_approx()));
    (overflow ? stats_.overflow_submits : stats_.shared_submits) +=
        group.size();
    return;
  }
  std::span<Command> rest = group;
  for (int spins = 0;;) {
    const std::size_t k = lane->ring.try_push_n(rest);
    // SPSC publish: one tail store-release covers the pushed prefix.
    if (k != 0) san::channel_push(lane, k);
    engines_[eidx]->backlog += k;
    rest = rest.subspan(k);
    if (rest.empty()) break;
    if (++spins > kFullSpinBound) {
      throw std::runtime_error(
          "offload submission lane stuck full: engine is not draining "
          "(increase lane_capacity or check the offload fibers are running)");
    }
    ++stats_.lane_full_stalls;
    ++lane->stats.full_stalls;
    trace::instant("stall:lane-full", "offload");
    rc_.arrivals().signal();
    sim::advance(rc_.profile().cmd_enqueue);  // retry cost
  }
  const std::size_t occ = lane->ring.size_approx();
  lane->stats.max_occupancy =
      std::max<std::uint64_t>(lane->stats.max_occupancy, occ);
  lane->gauge.set(static_cast<double>(occ));
  lane->stats.submits += group.size();
  stats_.lane_submits += group.size();
  if (batched) {
    ++lane->stats.batches;
    lane->stats.batched_commands += group.size();
  }
}

void OffloadChannel::push_ring(Engine& e, std::span<const Command> group) {
  // The target ring's tail cache line: concurrent producers serialize here,
  // each acquisition charging Profile::mpsc_line_transfer.
  sim::LockGuard g(e.tail_line);
  for (const Command& c : group) {
    for (int spins = 0; !e.ring.try_push(c); ++spins) {
      if (spins > kFullSpinBound) {
        throw std::runtime_error(
            "offload command ring stuck full: engine is not draining "
            "(increase ring_capacity or check the offload fibers are "
            "running)");
      }
      ++stats_.ring_full_stalls;
      trace::instant("stall:ring-full", "offload");
      rc_.arrivals().signal();
      sim::advance(rc_.profile().cmd_enqueue);  // retry cost
    }
    san::channel_push(&e.ring);  // MPSC publish: seq store-release
    ++e.backlog;
  }
}

std::uint32_t OffloadChannel::submit(Command cmd) {
  if (Engine* e = engine_for_current_fiber(); e != nullptr) {
    return submit_from_engine(*e, cmd);
  }
  trace::Scope tsc("cmd:enqueue", "offload");
  const auto& p = rc_.profile();
  cmd.proxy = alloc_slot(nullptr);
  // Serialize parameters + lock-free enqueue.
  sim::advance(p.cmd_enqueue);
  push_to_engine(engine_of(cmd), cmd);
  return cmd.proxy;
}

void OffloadChannel::submit_batch(std::span<Command> cmds) {
  if (cmds.empty()) return;
  if (Engine* eng = engine_for_current_fiber(); eng != nullptr) {
    // Engine context keeps the batch's FIFO order but issues directly; the
    // batching win (one doorbell, one publish) is moot when an engine is
    // already awake running the posting callback.
    for (Command& c : cmds) c.proxy = submit_from_engine(*eng, c);
    ++stats_.batches;
    stats_.batched_commands += cmds.size();
    return;
  }
  trace::Scope tsc("cmd:enqueue-batch", "offload");
  const auto& p = rc_.profile();
  std::size_t taken = 0;
  try {
    for (; taken < cmds.size(); ++taken) {
      cmds[taken].proxy = alloc_slot(nullptr);
    }
  } catch (...) {
    // Nothing is published yet: hand back the slots already taken, or a
    // rejected batch leaks them for the rest of the run.
    for (std::size_t k = 0; k < taken; ++k) free_slot(cmds[k].proxy);
    completions_.signal();
    throw;
  }
  // The first command pays the full serialize+publish cost; the rest only
  // the marginal marshalling into already-hot cells.
  sim::advance(p.cmd_enqueue);
  if (cmds.size() > 1) {
    sim::advance(sim::Time(p.cmd_enqueue_batch.ns() *
                           static_cast<std::int64_t>(cmds.size() - 1)));
  }
  // Route every command, in order, before the first publish (wildcard
  // stickiness in engine_of is order-sensitive), then publish each run of
  // same-engine commands as one group: relative order within an engine —
  // the only order matching can observe — is exactly the batch's.
  std::vector<std::size_t> target(cmds.size());
  for (std::size_t k = 0; k < cmds.size(); ++k) target[k] = engine_of(cmds[k]);
  std::size_t i = 0;
  while (i < cmds.size()) {
    std::size_t j = i + 1;
    while (j < cmds.size() && target[j] == target[i]) ++j;
    publish(target[i], cmds.subspan(i, j - i), true);
    i = j;
  }
  ++stats_.batches;
  stats_.batched_commands += cmds.size();
  // ONE doorbell for the whole batch.
  trace::instant("doorbell", "offload");
  rc_.arrivals().signal();
}

void OffloadChannel::push_to_engine(std::size_t eidx, Command cmd) {
  publish(eidx, {&cmd, 1}, false);
  // Ring the doorbell: the offload fibers' poll loops notice new work after
  // their detection latency.
  trace::instant("doorbell", "offload");
  rc_.arrivals().signal();
}

// ------------------------------------------- persistent application side ----

void Persistent::create_request(smpi::RankCtx& rc) {
  req = cmd.op == CmdOp::kIsend
            ? rc.send_init(cmd.sbuf, cmd.count, cmd.dtype, cmd.peer, cmd.tag,
                           cmd.comm)
            : rc.recv_init(cmd.rbuf, cmd.count, cmd.dtype, cmd.peer, cmd.tag,
                           cmd.comm);
}

void OffloadChannel::persist_init(Persistent& ps) {
  trace::Scope tsc("persist:init", "offload");
  // Init pays the full serialize cost once — that is the bargain: every
  // subsequent start pays only cmd_enqueue_persist.
  sim::advance(rc_.profile().cmd_enqueue);
  ps.cmd.proxy = alloc_slot(nullptr);  // pinned for the lifetime of the request
  ps.home_engine = engine_of(ps.cmd);
  if (slot_persist_.size() <= ps.cmd.proxy) {
    slot_persist_.resize(static_cast<std::size_t>(ps.cmd.proxy) + 1, nullptr);
  }
  slot_persist_[ps.cmd.proxy] = &ps;
}

void OffloadChannel::persist_start(Persistent& ps) {
  trace::Scope tsc("persist:start", "offload");
  // Re-arm the pinned pool slot and the continuation claim; both are
  // quiescent (previous generation consumed, next start not yet published).
  // The claim needs it although nothing arms a persistent slot:
  // complete_slot fires every slot, so a pinned slot ends each generation
  // kFired, and the next generation's fire would find it claimed.
  sim::advance(rc_.profile().request_pool_op);
  pool_.rearm(ps.cmd.proxy);
  cont_.reset(ps.cmd.proxy);
  ps.state = PState::kStarted;
  persist_post(ps, CmdOp::kStartPersistent);
}

void OffloadChannel::persist_free(Persistent& ps) {
  persist_post(ps, CmdOp::kFreePersistent);
}

void OffloadChannel::persist_post(Persistent& ps, CmdOp op) {
  const Command cmd{.op = op, .proxy = ps.cmd.proxy};
  if (Engine* e = engine_for_current_fiber(); e != nullptr) {
    // A one-shot continuation starting or freeing a persistent request:
    // issue directly, like every other engine-context post. Publishing
    // instead could deadlock the callback on a full lane or ring that only
    // this engine drains.
    sim::advance(rc_.profile().cmd_dequeue);
    issue(*e, cmd);
    return;
  }
  // The thin publish: a slot index, not an envelope. Every command of one
  // request goes to the home engine fixed at init (engine_of of the
  // envelope), so its generations issue in submission order.
  sim::advance(rc_.profile().cmd_enqueue_persist);
  push_to_engine(ps.home_engine, cmd);
}

void OffloadChannel::free_slot(std::uint32_t proxy) {
  sim::advance(rc_.profile().request_pool_op);
  san::release(&pool_, proxy);  // hand the slot to the next alloc()
  pool_.free(proxy);
}

void OffloadChannel::wait_done(std::uint32_t proxy, smpi::Status* st,
                               bool keep) {
  if (in_engine()) {
    throw std::logic_error(
        san::engine_block_message("OffloadChannel::wait_done"));
  }
  trace::Scope tsc("wait:flag", "offload");
  const auto& p = rc_.profile();
  for (;;) {
    sim::advance(p.done_flag_check);
    if (pool_.done(proxy)) break;
    const std::uint64_t seen = completions_.count();
    if (pool_.done(proxy)) break;
    completions_.wait_beyond(seen);
  }
  san::acquire(&pool_, proxy);  // done-flag acquire: Status/payload visible
  if (st != nullptr) *st = pool_.status(proxy);
  if (keep) return;
  free_slot(proxy);
  completions_.signal();  // a freed slot may unblock a pool-exhausted submit
}

void OffloadChannel::attach_continuation(std::uint32_t proxy, ContFn fn) {
  const auto& p = rc_.profile();
  // Publish the callback record first; the arm() claim's release makes it
  // visible to the engines. (From engine context — a callback chaining onto
  // a slot it just posted — the same protocol works: fire() for that slot
  // can only happen on the fiber that tracks it, later.)
  ContFn& rec = cont_fns_.touch(proxy);
  san::check_write(&rec, sizeof(ContFn), "cont.fns[slot]");
  rec = std::move(fn);
  sim::advance(p.request_pool_op);
  san::release(&cont_, proxy);  // published before the claim CAS
  if (!cont_.arm(proxy)) {
    // Claim won: the completer will find kArmed and queue the callback.
    ++stats_.cont_armed;
    return;
  }
  // Already fired: the completion's Status/payload are visible (failed-CAS
  // acquire), so run the callback inline on this thread.
  san::acquire(&cont_, proxy);  // completer's publish (failed-CAS acquire)
  smpi::Status st;
  ContFn f = consume_fired(proxy, st);
  ++stats_.cont_inline;
  {
    trace::Scope tsc("cont:inline", "offload");
    f(st);
  }
  completions_.signal();  // the callback may have set a cont_wait Event
}

void OffloadChannel::shutdown() {
  const Command c{.op = CmdOp::kShutdown};
  sim::advance(rc_.profile().cmd_enqueue);
  // One shutdown per engine, each through that engine's shared ring
  // regardless of lanes: an engine keeps draining its lanes until they are
  // empty even after seeing it, and a stolen shutdown still sets the
  // channel-wide flag — every engine exits once its own share is drained.
  for (auto& ep : engines_) push_ring(*ep, {&c, 1});
  rc_.arrivals().signal();
}

// ------------------------------------------------------------ engine side ----

OffloadChannel::Engine* OffloadChannel::engine_for_current_fiber() const {
  sim::Engine* eng = sim::Engine::current();
  if (eng == nullptr) return nullptr;
  const sim::Fiber* f = eng->current_fiber();
  if (f == nullptr) return nullptr;
  for (const auto& e : engines_) {
    if (e->fiber == f) return e.get();
  }
  return nullptr;
}

void OffloadChannel::complete_slot(Engine& e, std::uint32_t proxy,
                                   const smpi::Status& st) {
  // The payload/Status writes precede the fire() claim; an armed slot's
  // callback is therefore always entitled to read them.
  pool_.complete(proxy, st);
  san::release(&pool_, proxy);  // done-flag release: payload published
  ++stats_.completions;
  trace::instant("done:publish", "offload");
  completions_.signal();
  san::release(&cont_, proxy);  // published before the fire() claim
  if (cont_.fire(proxy)) {
    // A continuation is armed: its record is visible (failed-CAS acquire).
    // Queue it on the DISCOVERING engine for the bounded run pass rather
    // than running here so a burst of completions cannot starve the testany
    // sweep mid-loop.
    san::acquire(&cont_, proxy);
    e.cont_ready.push_back(proxy);
  }
}

smpi::Request execute(smpi::RankCtx& rc, const Command& cmd) {
  switch (cmd.op) {
    case CmdOp::kIsend:
      return rc.isend(cmd.sbuf, cmd.count, cmd.dtype, cmd.peer, cmd.tag,
                      cmd.comm);
    case CmdOp::kIrecv:
      return rc.irecv(cmd.rbuf, cmd.count, cmd.dtype, cmd.peer, cmd.tag,
                      cmd.comm);
    case CmdOp::kIbarrier:
      return rc.ibarrier(cmd.comm);
    case CmdOp::kIbcast:
      return rc.ibcast(cmd.rbuf, cmd.count, cmd.dtype, cmd.peer, cmd.comm);
    case CmdOp::kIreduce:
      return rc.ireduce(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.rop,
                        cmd.peer, cmd.comm);
    case CmdOp::kIallreduce:
      return rc.iallreduce(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.rop,
                           cmd.comm);
    case CmdOp::kIalltoall:
      return rc.ialltoall(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.comm);
    case CmdOp::kIallgather:
      return rc.iallgather(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.comm);
    default:
      throw std::logic_error(std::string(cmd_op_name(cmd.op)) +
                             " is not an issuable op");
  }
}

void OffloadChannel::issue(Engine& e, const Command& cmd) {
  if (cmd.op == CmdOp::kStartPersistent) {
    engine_start_persistent(e, *persistent_at(cmd.proxy));
  } else if (cmd.op == CmdOp::kFreePersistent) {
    engine_free_persistent(*persistent_at(cmd.proxy));
  } else {
    track_inflight(e, execute(rc_, cmd), cmd.proxy);
  }
}

void OffloadChannel::track_inflight(Engine& e, smpi::Request real,
                                    std::uint32_t proxy) {
  e.inflight.push_back({real, proxy, sim::now(), false});
  e.scratch_reqs.push_back(real);
  ++e.live_inflight;
  std::size_t live_total = 0;
  for (const auto& ep : engines_) live_total += ep->live_inflight;
  stats_.max_inflight =
      std::max<std::uint64_t>(stats_.max_inflight, live_total);
  e.g_inflight.set(static_cast<double>(e.live_inflight));
}

// ------------------------------------------------ persistent engine side ----

void OffloadChannel::engine_start_persistent(Engine& e, Persistent& ps) {
  // The rc_-level persistent request is created lazily on the first start
  // (init never enters MPI from the engine); every generation after that is
  // a bare MPI_Start.
  if (ps.req.is_null()) ps.create_request(rc_);
  rc_.start(ps.req);
  track_inflight(e, ps.req, ps.cmd.proxy);
}

void OffloadChannel::engine_free_persistent(Persistent& ps) {
  // Null when no generation ever started: the request is created lazily.
  if (!ps.req.is_null()) rc_.request_free(ps.req);
  slot_persist_[ps.cmd.proxy] = nullptr;
  free_slot(ps.cmd.proxy);
  completions_.signal();
}

void OffloadChannel::process_command(Engine& e, const Command& cmd) {
  // One span per command covering dequeue + issue, named after the op.
  trace::Scope tsc(cmd_op_name(cmd.op), "offload");
  sim::advance(rc_.profile().cmd_dequeue);
  if (cmd.op == CmdOp::kShutdown) {
    // Channel-wide: shutdown() broadcasts one per engine, and a stolen copy
    // must still stop the victim once its queues drain.
    shutdown_requested_ = true;
    return;
  }
  ++stats_.commands;
  issue(e, cmd);
}

std::size_t OffloadChannel::drain_lane(Engine& e, Engine& owner, Lane& lane,
                                       std::size_t budget) {
  std::size_t popped = 0;
  Command cmd;
  while (popped < budget && lane.ring.try_pop(cmd)) {
    san::channel_pop(&lane);  // SPSC consume: joins the producer's publish
    ++popped;
    --owner.backlog;
    ++lane.stats.drained;
    lane.gauge.set(static_cast<double>(lane.ring.size_approx()));
    process_command(e, cmd);
  }
  return popped;
}

std::size_t OffloadChannel::drain_ring(Engine& e, Engine& owner,
                                       std::size_t budget) {
  std::size_t popped = 0;
  Command cmd;
  while (popped < budget && owner.ring.try_pop(cmd)) {
    san::channel_pop(&owner.ring);  // MPSC consume
    ++popped;
    --owner.backlog;
    owner.g_ring.set(static_cast<double>(owner.ring.size_approx()));
    process_command(e, cmd);
  }
  return popped;
}

bool OffloadChannel::drain_lanes_round(Engine& e) {
  // One round-robin pass over this engine's lane column, at most
  // kLaneDrainBound commands per lane: the fairness bound keeps a
  // saturating lane from starving its neighbours or postponing the testany
  // pass indefinitely. Caller holds e.claim.
  //
  // The pass visits rows drain_cursor..lane_count-1, then 0..drain_cursor-1,
  // bound rows only. Rows bind in increasing order, so the first unbound row
  // ends a segment; next_lane_ is re-read at every row because
  // process_command yields and a sibling fiber may bind a row mid-pass.
  const std::size_t rows = opts_.lane_count;
  if (rows == 0) return false;
  if (e.backlog == 0) {
    // Nothing queued: the pass would pop nothing and never yield.
    e.drain_cursor = (e.drain_cursor + 1) % rows;
    return false;
  }
  const std::size_t n = engines_.size();
  bool any = false;
  const auto drain_row = [&](std::size_t row) {
    any = drain_lane(e, e, *lanes_[row * n + e.index], kLaneDrainBound) != 0 ||
          any;
  };
  for (std::size_t row = e.drain_cursor; row < next_lane_; ++row) {
    drain_row(row);
  }
  for (std::size_t row = 0; row < e.drain_cursor && row < next_lane_; ++row) {
    drain_row(row);
  }
  // Rotate the starting lane so equal backlogs drain at equal rates.
  e.drain_cursor = (e.drain_cursor + 1) % rows;
  return any;
}

bool OffloadChannel::steal_round(Engine& e) {
  const std::size_t n = engines_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Engine& v = *engines_[(e.index + k) % n];
    if (!submissions_pending(v)) continue;
    if (!v.claim.try_claim()) continue;  // owner (or another thief) is on it
    san::acquire(&v.claim, 0);  // previous holder's consumer-side state
    // Claim held across the WHOLE pop+issue sequence: issuing yields, and
    // releasing between pop and issue would let the owner interleave
    // same-envelope traffic out of posted order.
    std::size_t budget = kStealBound;
    for (std::size_t row = 0; row < next_lane_ && budget > 0; ++row) {
      budget -= drain_lane(e, v, *lanes_[row * n + v.index], budget);
    }
    budget -= drain_ring(e, v, budget);
    san::release(&v.claim, 0);  // hand consumer-side state to the next holder
    v.claim.release();
    const std::size_t stolen = kStealBound - budget;
    if (stolen == 0) continue;
    ++stats_.steal_rounds;
    stats_.steal_commands += stolen;
    if (submissions_pending(v)) {
      // Leftovers: the owner may have armed its doorbell against a count
      // taken before our pops — re-ring so it cannot sleep past them.
      rc_.arrivals().signal();
    }
    return true;  // one victim per pass: stay fair to our own queues
  }
  return false;
}

bool OffloadChannel::idle_work_pending() const {
  // A sibling's backlog counts too: it is ours to steal, and nothing rings
  // our doorbell for it.
  for (const auto& v : engines_) {
    if (submissions_pending(*v)) return true;
  }
  return false;
}

void OffloadChannel::drive_progress(Engine& e) {
  watchdog_scan(e);
  if (e.live_inflight == 0) return;
  trace::Scope tsc("testany:sweep", "offload");
  // MPI_Testany over this engine's in-flight set; publish done flags as they
  // complete. Loop until a pass makes no progress (a real offload thread
  // would call Testany repeatedly while its queue is empty). Testany nulls
  // the span entry of the request it completes — that null is the dead-slot
  // marker, so no per-completion rebuild or erase is needed and the
  // remaining entries keep their FIFO positions.
  for (;;) {
    int idx = -1;
    smpi::Status st;
    ++stats_.testany_calls;
    const bool flag = rc_.testany(e.scratch_reqs, &idx, &st);
    if (!flag || idx < 0) break;
    complete_slot(e, e.inflight[static_cast<std::size_t>(idx)].proxy, st);
    --e.live_inflight;
    e.g_inflight.set(static_cast<double>(e.live_inflight));
    if (e.live_inflight == 0) break;
  }
  compact_inflight(e);
}

ContFn OffloadChannel::consume_fired(std::uint32_t proxy, smpi::Status& st) {
  ContFn& rec = cont_fns_.touch(proxy);
  san::check_read(&rec, sizeof(ContFn), "cont.fns[slot]");
  ContFn fn = std::move(rec);
  rec = nullptr;
  st = pool_.status(proxy);
  cont_.reset(proxy);
  free_slot(proxy);
  completions_.signal();
  return fn;
}

bool OffloadChannel::run_continuations(Engine& e) {
  if (e.cont_ready.empty()) return false;
  // Bounded pass: callbacks may post follow-ups whose completions queue more
  // callbacks (drive_progress can run inside a post when the pool is tight),
  // so an unbounded drain could monopolize the engine. Leftovers run next
  // pass; the engine re-drains before sleeping because this returns true.
  std::size_t budget = kContRunBound;
  bool any = false;
  while (budget-- > 0 && !e.cont_ready.empty()) {
    const std::uint32_t proxy = e.cont_ready.front();
    e.cont_ready.pop_front();
    // Consumed before running: the callback may post enough follow-ups to
    // need this very slot, and the exactly-once claim already consumed it.
    smpi::Status st;
    ContFn fn = consume_fired(proxy, st);
    {
      trace::Scope tsc("cont:run", "offload");
      fn(st);
    }
    // Signal again AFTER the callback: it may have set an application
    // visible flag (cont_wait's Event), and a waiter that snapshotted the
    // notifier mid-callback must not sleep past it.
    completions_.signal();
    ++stats_.cont_executed;
    any = true;
  }
  stats_.cont_deferred += e.cont_ready.size();
  return any;
}

void OffloadChannel::compact_inflight(Engine& e) {
  // Skipping dead slots during the Testany scan is cheap; reclaim them only
  // once they dominate so a steady stream of completions stays O(1) each.
  if (e.scratch_reqs.size() <= 32 ||
      e.live_inflight * 2 > e.scratch_reqs.size()) {
    return;
  }
  std::size_t w = 0;
  for (std::size_t r = 0; r < e.scratch_reqs.size(); ++r) {
    if (e.scratch_reqs[r].is_null()) continue;
    e.scratch_reqs[w] = e.scratch_reqs[r];
    e.inflight[w] = e.inflight[r];
    ++w;
  }
  e.scratch_reqs.resize(w);
  e.inflight.resize(w);
}

void OffloadChannel::watchdog_scan(Engine& e) {
  const sim::Time budget = opts_.watchdog_budget;
  if (budget.ns() <= 0 || e.live_inflight == 0) return;
  const sim::Time now = sim::now();
  if (now < e.next_watchdog_scan) return;
  e.next_watchdog_scan = now + sim::Time(budget.ns() / 8 + 1);
  for (std::size_t i = 0; i < e.inflight.size(); ++i) {
    if (e.scratch_reqs[i].is_null() || e.inflight[i].flagged) continue;
    if (now - e.inflight[i].issued_at > budget) {
      e.inflight[i].flagged = true;
      ++stats_.watchdog_flags;
      trace::instant("watchdog:stuck", "offload");
    }
  }
}

void OffloadChannel::engine_main(std::size_t idx) {
  Engine& e = *engines_.at(idx);
  const auto& p = rc_.profile();
  const bool faults_on = p.faults.enabled();
  sim::Fiber* self = sim::Engine::current()->current_fiber();
  // Stale-identity guard: a previous run of this engine that exited without
  // clearing its fiber (impossible via the RAII below, but the assert keeps
  // it that way) would let a RECYCLED fiber pointer inherit engine identity
  // and silently route application submits down the engine-only path.
  if (e.fiber != nullptr) {
    throw std::logic_error(
        "offload engine re-entered while a previous run still owns it "
        "(engine identity was never cleared)");
  }
  e.fiber = self;
  // Engine fibers share the rank's progress engine: progress_poll runs
  // single-flight across them instead of throwing on re-entry.
  rc_.register_progress_sharer(self);
  // Identity and registration must clear on EVERY exit path — clean return,
  // exception unwind, Cluster teardown — not just the happy one.
  struct IdentityGuard {
    smpi::RankCtx& rc;
    Engine& eng;
    sim::Fiber* f;
    ~IdentityGuard() {
      rc.unregister_progress_sharer(f);
      eng.fiber = nullptr;
    }
  } guard{rc_, e, self};

  std::uint64_t seen = rc_.arrivals().count();
  for (;;) {
    bool worked = false;
    if (e.claim.try_claim()) {
      san::acquire(&e.claim, 0);  // previous holder's consumer-side state
      worked = drain_lanes_round(e);
      worked = drain_ring(e, e, kNoBound) != 0 || worked;
      san::release(&e.claim, 0);
      e.claim.release();
    }
    // else: a thief holds our queues; progress/continuations still run, and
    // the spin polls below keep virtual time moving until it releases.
    drive_progress(e);
    worked = run_continuations(e) || worked;
    if (!worked) worked = steal_round(e);
    if (shutdown_requested_ && e.live_inflight == 0 &&
        !submissions_pending(e) && e.cont_ready.empty()) {
      return;
    }
    if (worked) {
      seen = rc_.arrivals().count();
      continue;
    }
    const std::uint64_t cur = rc_.arrivals().count();
    if (cur > seen) {
      seen = cur;
      continue;  // something happened while we were working
    }
    // Nothing to do: adaptive wait. Spin first (a doorbell rung during the
    // spin window is noticed within one cmd_detect poll — the cheapest
    // wake), then yield the core a few times, then block on the doorbell.
    // The Notifier's detection latency models the spin-poll granularity of
    // the real busy-waiting offload thread.
    // (The doorbell count goes last in each check: reading it records a
    // sanitizer acquire, the queue predicates have no side effects.)
    bool woke = false;
    for (int i = 0; i < kSpinPolls && !woke; ++i) {
      ++stats_.engine_spins;
      sim::advance(p.cmd_detect);
      woke = idle_work_pending() || rc_.arrivals().count() > seen;
    }
    for (int i = 0; i < kYieldPolls && !woke; ++i) {
      ++stats_.engine_yields;
      sim::yield();
      sim::advance(p.cmd_detect);
      woke = idle_work_pending() || rc_.arrivals().count() > seen;
    }
    if (woke) continue;
    ++stats_.engine_sleeps;
    // Sleep transition, lost-doorbell hardened: snapshot the doorbell FIRST,
    // only then re-check every queue, and sleep beyond the snapshot. A
    // producer publishes (push) before it signals; if our re-check missed
    // the push, the signal necessarily lands after our snapshot, so the
    // wait below returns instead of stranding the command. (The buggy
    // ordering — re-check, THEN snapshot — leaves a window where the push
    // lands between the two and the signal is already counted in the
    // snapshot: armed equals the final count and the sleep never wakes. The
    // check-layer doorbell spec forces exactly that interleaving.)
    const std::uint64_t armed = rc_.arrivals().count();
    if (idle_work_pending() || !e.cont_ready.empty() ||
        (shutdown_requested_ && e.live_inflight == 0)) {
      // Own work re-checked under the armed snapshot — or a sibling still
      // has a backlog, which nothing would ring OUR doorbell for: keep
      // polling and retrying the steal instead of sleeping past it.
      // (Shutdown with nothing in flight: the exit check above failed only
      // because a thief still held our queues mid-steal. It drains the last
      // command and rings no doorbell, so loop back to the exit check
      // rather than sleep for good.)
      seen = armed;
      continue;
    }
    if (faults_on) {
      // Under faults the wake we are waiting for may have been lost with the
      // frame that carried it. Sleep with a bound and run a progress pass so
      // the reliability layer's retransmit timers keep firing — the offload
      // thread is exactly the "always inside MPI" context the paper's
      // software-progress model promises.
      if (!rc_.arrivals().wait_beyond_timeout(armed, p.faults.rto_base)) {
        rc_.progress();
      }
      seen = rc_.arrivals().count();
    } else {
      seen = rc_.arrivals().wait_beyond(armed);
    }
  }
}

}  // namespace core
