#include "core/offload_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "san/san.hpp"
#include "trace/scope.hpp"

namespace core {

namespace {
// A producer spinning this long on a full lane/ring means the engine is
// stuck or dead, not merely behind — fail loudly instead of hanging.
constexpr int kFullSpinBound = 1 << 16;
// lane_of_slot_ sentinels: slot not yet bound / bound to the shared rings.
constexpr std::uint32_t kNoLane = 0xffffffffu;
constexpr std::uint32_t kSharedRing = 0xfffffffeu;

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
  // engine, so every (producer, consumer) pair has a private SPSC ring.
  lanes_.reserve(opts_.lane_count * n);
  for (std::size_t row = 0; row < opts_.lane_count; ++row) {
    for (std::size_t e = 0; e < n; ++e) {
      lanes_.push_back(std::make_unique<Lane>(opts_.lane_capacity, rc_.rank(),
                                              row * n + e));
    }
  }
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
  // the communicator; RMA mixes the window (RMA ops block at the proxy
  // level, so any stable function is order-safe).
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
        // after it. (Specific receives already in a sibling's queue when
        // the first wildcard arrives are the one documented relaxation —
        // see DESIGN.md §15.)
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
    case CmdOp::kPut:
    case CmdOp::kGet:
    case CmdOp::kIfence:
      return by(0x776e0000ull ^
                static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(cmd.win.idx)));
    case CmdOp::kStartPersistent:
    case CmdOp::kFreePersistent:
      // The slot's home engine was fixed at init (engine_of of the
      // equivalent one-shot command), so every generation of one request
      // lands in one engine's queues in submission order.
      return persist_.at(static_cast<std::size_t>(cmd.count))->home_engine;
    case CmdOp::kShutdown:
      return 0;  // never routed: shutdown() broadcasts to every engine
    default:
      // Collectives and window management: same communicator -> same engine
      // preserves the rank's collective posting order.
      return by(comm_key());
  }
}

// ------------------------------------------------------ application side ----

OffloadChannel::Lane* OffloadChannel::lane_for_caller(std::size_t engine_idx,
                                                      bool& overflow) {
  overflow = false;
  if (opts_.lane_count == 0) return nullptr;
  const int slot = rc_.thread_slot();
  const auto s = static_cast<std::size_t>(slot);
  if (s >= lane_of_slot_.size()) lane_of_slot_.resize(s + 1, kNoLane);
  std::uint32_t row = lane_of_slot_[s];
  if (row == kNoLane) {
    if (next_lane_ < opts_.lane_count) {
      row = static_cast<std::uint32_t>(next_lane_++);
      lane_of_slot_[s] = row;
      for (std::size_t e = 0; e < engines_.size(); ++e) {
        lanes_[row * engines_.size() + e]->owner_slot = slot;
      }
    } else {
      // More submitting fibers than lane rows: overflow to the shared rings.
      lane_of_slot_[s] = kSharedRing;
      overflow = true;
      return nullptr;
    }
  }
  if (row == kSharedRing) {
    overflow = true;
    return nullptr;
  }
  return lanes_[row * engines_.size() + engine_idx].get();
}

std::uint32_t OffloadChannel::alloc_slot() {
  const auto& p = rc_.profile();
  // Allocate the proxy request (lock-free pool op).
  sim::advance(p.request_pool_op);
  std::uint32_t proxy = pool_.alloc();
  for (int retries = 0; proxy == RequestPool::kNil; ++retries) {
    // Pool exhausted: wait for another thread to recycle a slot. A
    // single-threaded application that over-posts can never recycle, so a
    // bounded wait converts that programming error into a clear failure
    // instead of a silent deadlock.
    if (retries > 64) {
      throw std::runtime_error(
          "offload request pool exhausted: too many outstanding requests "
          "(increase pool_capacity or wait on requests sooner)");
    }
    ++stats_.pool_full_stalls;
    trace::instant("stall:pool-full", "offload");
    const std::uint64_t seen = completions_.count();
    completions_.wait_beyond_timeout(seen, sim::Time::from_us(200));
    proxy = pool_.alloc();
  }
  san::acquire(&pool_, proxy);  // HB edge from the releasing free()
  cont_.reset(proxy);  // recycle the slot's continuation state with it
  return proxy;
}

std::uint32_t OffloadChannel::alloc_slot_engine(Engine& e) {
  const auto& p = rc_.profile();
  sim::advance(p.request_pool_op);
  std::uint32_t proxy = pool_.alloc();
  for (int retries = 0; proxy == RequestPool::kNil; ++retries) {
    // Engine context: blocking on completions_ would deadlock (the engines
    // are its only signallers). Complete in-flight work instead, and advance
    // the clock so application fibers get a chance to free finished slots.
    if (retries > 64) {
      throw std::runtime_error(
          "offload request pool exhausted while posting from a continuation "
          "(increase pool_capacity or post smaller follow-up graphs)");
    }
    ++stats_.pool_full_stalls;
    trace::instant("stall:pool-full", "offload");
    drive_progress(e);
    sim::advance(sim::Time::from_us(1));
    proxy = pool_.alloc();
  }
  san::acquire(&pool_, proxy);
  cont_.reset(proxy);
  return proxy;
}

std::uint32_t OffloadChannel::submit_from_engine(Engine& e, Command cmd) {
  // A continuation posting a follow-up: no lane, no ring, no doorbell — the
  // posting engine IS a consumer, so the command issues directly (and its
  // in-flight lands on this engine, whatever engine_of would have said).
  // This is also the no-deadlock rule: a full ring can never wedge a
  // posting callback.
  trace::Scope tsc("cont:post", "offload");
  cmd.proxy = alloc_slot_engine(e);
  ++stats_.cont_posts;
  process_command(e, cmd);
  return cmd.proxy;
}

void OffloadChannel::push_lane(Lane& lane, const Command& cmd) {
  const auto& p = rc_.profile();
  for (int spins = 0; !lane.ring.try_push(cmd); ++spins) {
    if (spins > kFullSpinBound) {
      throw std::runtime_error(
          "offload submission lane stuck full: engine is not draining "
          "(increase lane_capacity or check the offload fibers are running)");
    }
    ++stats_.lane_full_stalls;
    ++lane.stats.full_stalls;
    trace::instant("stall:lane-full", "offload");
    rc_.arrivals().signal();
    sim::advance(p.cmd_enqueue);  // retry cost
  }
  san::channel_push(&lane);  // SPSC publish: tail store-release
  const std::size_t occ = lane.ring.size_approx();
  lane.stats.max_occupancy =
      std::max<std::uint64_t>(lane.stats.max_occupancy, occ);
  lane.gauge.set(static_cast<double>(occ));
}

void OffloadChannel::push_shared_locked(Engine& e, const Command& cmd) {
  const auto& p = rc_.profile();
  // The target ring's tail cache line: concurrent producers serialize here,
  // each acquisition charging Profile::mpsc_line_transfer.
  sim::LockGuard g(e.tail_line);
  for (int spins = 0; !e.ring.try_push(cmd); ++spins) {
    if (spins > kFullSpinBound) {
      throw std::runtime_error(
          "offload command ring stuck full: engine is not draining "
          "(increase ring_capacity or check the offload fibers are running)");
    }
    ++stats_.ring_full_stalls;
    trace::instant("stall:ring-full", "offload");
    rc_.arrivals().signal();
    sim::advance(p.cmd_enqueue);  // retry cost
  }
  san::channel_push(&e.ring);  // MPSC publish: seq store-release
  e.g_ring.set(static_cast<double>(e.ring.size_approx()));
}

std::uint32_t OffloadChannel::submit(Command cmd) {
  if (Engine* e = engine_for_current_fiber(); e != nullptr) {
    return submit_from_engine(*e, cmd);
  }
  trace::Scope tsc("cmd:enqueue", "offload");
  const auto& p = rc_.profile();
  cmd.proxy = alloc_slot();
  // Serialize parameters + lock-free enqueue.
  sim::advance(p.cmd_enqueue);
  const std::size_t eidx = engine_of(cmd);
  bool overflow = false;
  if (Lane* lane = lane_for_caller(eidx, overflow); lane != nullptr) {
    push_lane(*lane, cmd);
    ++stats_.lane_submits;
    ++lane->stats.submits;
  } else {
    push_shared_locked(*engines_[eidx], cmd);
    ++(overflow ? stats_.overflow_submits : stats_.shared_submits);
  }
  // Ring the doorbell: the offload fibers' poll loops notice new work after
  // their detection latency.
  trace::instant("doorbell", "offload");
  rc_.arrivals().signal();
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
  for (Command& c : cmds) c.proxy = alloc_slot();
  // The first command pays the full serialize+publish cost; the rest only
  // the marginal marshalling into already-hot cells.
  sim::advance(p.cmd_enqueue);
  if (cmds.size() > 1) {
    sim::advance(sim::Time(p.cmd_enqueue_batch.ns() *
                           static_cast<std::int64_t>(cmds.size() - 1)));
  }
  // Route once per command, in order (wildcard stickiness in engine_of is
  // order-sensitive), then publish each run of same-engine commands as one
  // group: relative order within an engine — the only order matching can
  // observe — is exactly the batch's.
  std::vector<std::size_t> target(cmds.size());
  for (std::size_t k = 0; k < cmds.size(); ++k) target[k] = engine_of(cmds[k]);
  std::size_t i = 0;
  while (i < cmds.size()) {
    std::size_t j = i + 1;
    while (j < cmds.size() && target[j] == target[i]) ++j;
    std::span<Command> group = cmds.subspan(i, j - i);
    const std::size_t eidx = target[i];
    bool overflow = false;
    if (Lane* lane = lane_for_caller(eidx, overflow); lane != nullptr) {
      std::span<Command> rest = group;
      int spins = 0;
      while (!rest.empty()) {
        const std::size_t n = lane->ring.try_push_n(rest);
        if (n != 0) san::channel_push(lane, n);  // one release covers the group
        rest = rest.subspan(n);
        if (rest.empty()) break;
        if (++spins > kFullSpinBound) {
          throw std::runtime_error(
              "offload submission lane stuck full: engine is not draining "
              "(increase lane_capacity or check the offload fibers are "
              "running)");
        }
        ++stats_.lane_full_stalls;
        ++lane->stats.full_stalls;
        trace::instant("stall:lane-full", "offload");
        rc_.arrivals().signal();
        sim::advance(p.cmd_enqueue);  // retry cost
      }
      const std::size_t occ = lane->ring.size_approx();
      lane->stats.max_occupancy =
          std::max<std::uint64_t>(lane->stats.max_occupancy, occ);
      lane->gauge.set(static_cast<double>(occ));
      lane->stats.submits += group.size();
      ++lane->stats.batches;
      lane->stats.batched_commands += group.size();
      stats_.lane_submits += group.size();
    } else {
      // No lane: the group still amortizes the doorbell and pays the tail
      // cache-line transfer once per engine touched.
      Engine& e = *engines_[eidx];
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
          sim::advance(p.cmd_enqueue);  // retry cost
        }
        san::channel_push(&e.ring);
      }
      e.g_ring.set(static_cast<double>(e.ring.size_approx()));
      (overflow ? stats_.overflow_submits : stats_.shared_submits) +=
          group.size();
    }
    i = j;
  }
  ++stats_.batches;
  stats_.batched_commands += cmds.size();
  // ONE doorbell for the whole batch.
  trace::instant("doorbell", "offload");
  rc_.arrivals().signal();
}

void OffloadChannel::push_to_engine(std::size_t eidx, const Command& cmd) {
  bool overflow = false;
  if (Lane* lane = lane_for_caller(eidx, overflow); lane != nullptr) {
    push_lane(*lane, cmd);
    ++stats_.lane_submits;
    ++lane->stats.submits;
  } else {
    push_shared_locked(*engines_[eidx], cmd);
    ++(overflow ? stats_.overflow_submits : stats_.shared_submits);
  }
  trace::instant("doorbell", "offload");
  rc_.arrivals().signal();
}

// ------------------------------------------- persistent application side ----

namespace {
[[noreturn]] void persist_throw(int rank, const char* call, const char* what) {
  san::mpi_persist_misuse(rank, call, what);
  throw std::logic_error(std::string(call) + ": " + what);
}
}  // namespace

std::uint32_t OffloadChannel::persist_init(const Command& cmd,
                                           std::uint32_t partitions) {
  if (cmd.op != CmdOp::kIsend && cmd.op != CmdOp::kIrecv) {
    throw std::invalid_argument("persist_init: only isend/irecv envelopes");
  }
  if (partitions != 0) {
    if (partitions > static_cast<std::uint32_t>(smpi::kMaxPartitions)) {
      persist_throw(rc_.rank(), "persist_init", "too many partitions");
    }
    if (cmd.tag < 0 || cmd.tag >= smpi::kMaxPartBaseTag) {
      persist_throw(rc_.rank(), "persist_init",
                    "partitioned base tag out of range");
    }
    if (cmd.peer == smpi::kAnySource) {
      // Partition frames are invisible to wildcard matching by design.
      persist_throw(rc_.rank(), "persist_init",
                    "partitioned ops require a specific peer");
    }
  }
  trace::Scope tsc("persist:init", "offload");
  const auto& p = rc_.profile();
  // Init pays the full serialize cost once — that is the bargain: every
  // subsequent start pays only cmd_enqueue_persist.
  sim::advance(p.cmd_enqueue);
  auto ps = std::make_unique<PersistSlot>();
  ps->is_send = cmd.op == CmdOp::kIsend;
  ps->sbuf = cmd.sbuf;
  ps->rbuf = cmd.rbuf;
  ps->count = cmd.count;
  ps->dtype = cmd.dtype;
  ps->peer = cmd.peer;
  ps->tag = cmd.tag;
  ps->comm = cmd.comm;
  ps->partitions = partitions;
  ps->proxy = alloc_slot();  // pinned for the lifetime of the request
  ps->home_engine = engine_of(cmd);
  if (partitions != 0) {
    const std::size_t words = (partitions + 63) / 64;
    ps->ready = std::vector<PartReadyWord>(words);
    ps->shipped.assign(words, 0);
  }
  if (slot_persist_.size() <= ps->proxy) {
    slot_persist_.resize(static_cast<std::size_t>(ps->proxy) + 1, 0);
  }
  const auto idx = static_cast<std::uint32_t>(persist_.size());
  slot_persist_[ps->proxy] = idx + 1;
  persist_.push_back(std::move(ps));
  return idx;
}

void OffloadChannel::persist_start(std::uint32_t idx) {
  PersistSlot& ps = *persist_.at(idx);
  if (ps.state == PState::kFreed) {
    persist_throw(rc_.rank(), "persist_start", "request was freed");
  }
  if (ps.state == PState::kStarted) {
    persist_throw(rc_.rank(), "persist_start",
                  "previous generation still in flight");
  }
  trace::Scope tsc("persist:start", "offload");
  const auto& p = rc_.profile();
  // Re-arm the pinned pool slot and the continuation claim; both are
  // quiescent (previous generation consumed, next start not yet published).
  sim::advance(p.request_pool_op);
  pool_.rearm(ps.proxy);
  cont_.reset(ps.proxy);
  for (PartReadyWord& w : ps.ready) w.reset();
  ps.marked = 0;
  ps.state = PState::kStarted;
  Command cmd;
  cmd.op = CmdOp::kStartPersistent;
  cmd.proxy = ps.proxy;
  cmd.count = idx;
  cmd.peer = ps.peer;
  cmd.comm = ps.comm;
  if (Engine* e = engine_for_current_fiber(); e != nullptr) {
    // A continuation restarting its own request: issue directly, like every
    // other engine-context post.
    sim::advance(p.cmd_dequeue);
    engine_start_persistent(*e, idx);
    return;
  }
  // The thin re-arm publish: a slot index, not an envelope.
  sim::advance(p.cmd_enqueue_persist);
  push_to_engine(ps.home_engine, cmd);
}

void OffloadChannel::persist_pready(std::uint32_t idx, std::uint32_t lo,
                                    std::uint32_t hi) {
  PersistSlot& ps = *persist_.at(idx);
  if (!ps.is_send || ps.partitions == 0) {
    persist_throw(rc_.rank(), "persist_pready",
                  "request is not a partitioned send");
  }
  if (ps.state != PState::kStarted) {
    persist_throw(rc_.rank(), "persist_pready", "no generation started");
  }
  if (lo > hi || hi >= ps.partitions) {
    persist_throw(rc_.rank(), "persist_pready", "partition out of range");
  }
  const auto& p = rc_.profile();
  for (std::uint32_t part = lo; part <= hi; ++part) {
    sim::advance(p.pready_publish);
    // One release-RMW: publishes the partition's payload bytes to the
    // engine that observes the bit. The previous value is the double-mark
    // check for free.
    const std::uint64_t prev = ps.ready[part / 64].mark(part % 64);
    if ((prev >> (part % 64)) & 1u) {
      persist_throw(rc_.rank(), "persist_pready",
                    "partition marked ready twice in one generation");
    }
    ++ps.marked;
  }
  trace::instant("pready", "offload");
  // Doorbell: a sleeping engine re-checks persistent_ready_pending against
  // this signal's count before committing to sleep.
  rc_.arrivals().signal();
}

void OffloadChannel::persist_wait(std::uint32_t idx, smpi::Status* st) {
  if (in_engine()) {
    throw std::logic_error(
        san::engine_block_message("OffloadChannel::persist_wait"));
  }
  PersistSlot& ps = *persist_.at(idx);
  if (ps.state == PState::kFreed) {
    persist_throw(rc_.rank(), "persist_wait", "request was freed");
  }
  if (ps.state == PState::kInactive) {
    if (st != nullptr) *st = smpi::Status{};
    return;  // trivially complete, like MPI_Wait on an inactive request
  }
  if (ps.is_send && ps.partitions != 0 && ps.marked != ps.partitions) {
    persist_throw(rc_.rank(), "persist_wait",
                  "wait with unmarked partitions (the send can never "
                  "complete; pready every partition first)");
  }
  trace::Scope tsc("wait:flag", "offload");
  const auto& p = rc_.profile();
  for (;;) {
    sim::advance(p.done_flag_check);
    if (pool_.done(ps.proxy)) break;
    const std::uint64_t seen = completions_.count();
    if (pool_.done(ps.proxy)) break;
    completions_.wait_beyond(seen);
  }
  san::acquire(&pool_, ps.proxy);  // done-flag acquire: Status visible
  if (st != nullptr) *st = pool_.status(ps.proxy);
  // Consume the completion WITHOUT freeing the pinned slot: the request
  // returns to kInactive, ready for the next start.
  ps.state = PState::kInactive;
}

bool OffloadChannel::persist_test(std::uint32_t idx, smpi::Status* st) {
  PersistSlot& ps = *persist_.at(idx);
  if (ps.state == PState::kFreed) {
    persist_throw(rc_.rank(), "persist_test", "request was freed");
  }
  if (ps.state == PState::kInactive) {
    if (st != nullptr) *st = smpi::Status{};
    return true;
  }
  const auto& p = rc_.profile();
  sim::advance(p.done_flag_check);
  if (!pool_.done(ps.proxy)) return false;
  san::acquire(&pool_, ps.proxy);
  if (st != nullptr) *st = pool_.status(ps.proxy);
  ps.state = PState::kInactive;
  return true;
}

void OffloadChannel::persist_free(std::uint32_t idx) {
  PersistSlot& ps = *persist_.at(idx);
  if (ps.state == PState::kFreed) return;  // freeing twice is a no-op
  if (ps.state == PState::kStarted) {
    persist_throw(rc_.rank(), "persist_free", "generation still in flight");
  }
  ps.state = PState::kFreed;
  Command cmd;
  cmd.op = CmdOp::kFreePersistent;
  cmd.proxy = ps.proxy;
  cmd.count = idx;
  cmd.peer = ps.peer;
  cmd.comm = ps.comm;
  if (Engine* e = engine_for_current_fiber(); e != nullptr) {
    sim::advance(rc_.profile().cmd_dequeue);
    engine_free_persistent(*e, idx);
    return;
  }
  sim::advance(rc_.profile().cmd_enqueue_persist);
  push_to_engine(ps.home_engine, cmd);
}

bool OffloadChannel::persist_attach_continuation(std::uint32_t idx,
                                                 ContFn fn) {
  PersistSlot& ps = *persist_.at(idx);
  if (ps.state != PState::kStarted) {
    persist_throw(rc_.rank(), "attach_continuation",
                  "no generation started on this persistent request");
  }
  // Same arm/fire protocol as one-shot slots; the persistent-aware free
  // paths (slot_persist_) reset the slot to kInactive instead of freeing it.
  return attach_continuation(ps.proxy, std::move(fn));
}

void OffloadChannel::wait_done(std::uint32_t proxy, smpi::Status* st) {
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
  sim::advance(p.request_pool_op);
  san::release(&pool_, proxy);  // hand the slot to the next alloc()
  pool_.free(proxy);
  completions_.signal();  // a freed slot may unblock a pool-exhausted submit
}

bool OffloadChannel::test_done(std::uint32_t proxy, smpi::Status* st) {
  const auto& p = rc_.profile();
  sim::advance(p.done_flag_check);
  if (!pool_.done(proxy)) return false;
  san::acquire(&pool_, proxy);
  if (st != nullptr) *st = pool_.status(proxy);
  sim::advance(p.request_pool_op);
  san::release(&pool_, proxy);
  pool_.free(proxy);
  completions_.signal();
  return true;
}

bool OffloadChannel::attach_continuation(std::uint32_t proxy, ContFn fn) {
  const auto& p = rc_.profile();
  // Publish the callback record first; the arm() claim's release makes it
  // visible to the engines. (From engine context — a callback chaining onto
  // a slot it just posted — the same protocol works: fire() for that slot
  // can only happen on the fiber that tracks it, later.)
  san::check_write(&cont_fns_[proxy], sizeof(ContFn), "cont.fns[slot]");
  cont_fns_[proxy] = std::move(fn);
  sim::advance(p.request_pool_op);
  san::release(&cont_, proxy);  // published before the claim CAS
  if (!cont_.arm(proxy)) {
    // Claim won: the completer will find kArmed and queue the callback.
    ++stats_.cont_armed;
    return false;
  }
  // Already fired: the completion's Status/payload are visible (failed-CAS
  // acquire), so run the callback inline on this thread and free the slot.
  san::acquire(&cont_, proxy);  // completer's publish (failed-CAS acquire)
  san::check_read(&cont_fns_[proxy], sizeof(ContFn), "cont.fns[slot]");
  ContFn f = std::move(cont_fns_[proxy]);
  cont_fns_[proxy] = nullptr;
  const smpi::Status st = pool_.status(proxy);
  cont_.reset(proxy);
  const std::uint32_t pers =
      proxy < slot_persist_.size() ? slot_persist_[proxy] : 0;
  if (pers != 0) {
    // Persistent: consume the completion (kInactive) but keep the pinned
    // slot — the inline callback may restart the request.
    persist_[pers - 1]->state = PState::kInactive;
  } else {
    sim::advance(p.request_pool_op);
    san::release(&pool_, proxy);
    pool_.free(proxy);
    completions_.signal();
  }
  ++stats_.cont_inline;
  {
    trace::Scope tsc("cont:inline", "offload");
    f(st);
  }
  completions_.signal();  // the callback may have set a cont_wait Event
  return true;
}

void OffloadChannel::shutdown() {
  Command c;
  c.op = CmdOp::kShutdown;
  sim::advance(rc_.profile().cmd_enqueue);
  // One shutdown per engine, each through that engine's shared ring
  // regardless of lanes: an engine keeps draining its lanes until they are
  // empty even after seeing it, and a stolen shutdown still sets the
  // channel-wide flag — every engine exits once its own share is drained.
  for (auto& ep : engines_) {
    Engine& e = *ep;
    sim::LockGuard g(e.tail_line);
    while (!e.ring.try_push(c)) sim::advance(rc_.profile().cmd_enqueue);
    san::channel_push(&e.ring);
  }
  rc_.arrivals().signal();
}

// ------------------------------------------------------------ engine side ----

OffloadChannel::Engine* OffloadChannel::engine_for_current_fiber() {
  sim::Engine* eng = sim::Engine::current();
  if (eng == nullptr) return nullptr;
  const sim::Fiber* f = eng->current_fiber();
  if (f == nullptr) return nullptr;
  for (auto& e : engines_) {
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

void OffloadChannel::issue(Engine& e, const Command& cmd) {
  using smpi::Datatype;
  smpi::Request real{};
  // Ops with no (or immediate) MPI-level completion are finished inline.
  switch (cmd.op) {
    case CmdOp::kWinCreate:
      *cmd.win_out = rc_.win_create(cmd.rbuf, cmd.count, cmd.comm);
      complete_slot(e, cmd.proxy, smpi::Status{});
      return;
    case CmdOp::kWinFree:
      rc_.win_free(cmd.win);
      complete_slot(e, cmd.proxy, smpi::Status{});
      return;
    case CmdOp::kPut:
      rc_.put(cmd.sbuf, cmd.count, cmd.peer, cmd.offset, cmd.win);
      complete_slot(e, cmd.proxy, smpi::Status{});
      return;
    case CmdOp::kGet:
      rc_.get(cmd.rbuf, cmd.count, cmd.peer, cmd.offset, cmd.win);
      complete_slot(e, cmd.proxy, smpi::Status{});
      return;
    case CmdOp::kIfence:
      track_inflight(e, rc_.ifence(cmd.win), cmd.proxy);
      return;
    case CmdOp::kStartPersistent:
      engine_start_persistent(e, static_cast<std::uint32_t>(cmd.count));
      return;
    case CmdOp::kFreePersistent:
      engine_free_persistent(e, static_cast<std::uint32_t>(cmd.count));
      return;
    default:
      break;
  }
  switch (cmd.op) {
    case CmdOp::kIsend:
      real = rc_.isend(cmd.sbuf, cmd.count, cmd.dtype, cmd.peer, cmd.tag, cmd.comm);
      break;
    case CmdOp::kIrecv:
      real = rc_.irecv(cmd.rbuf, cmd.count, cmd.dtype, cmd.peer, cmd.tag, cmd.comm);
      break;
    case CmdOp::kIbarrier:
      real = rc_.ibarrier(cmd.comm);
      break;
    case CmdOp::kIbcast:
      real = rc_.ibcast(cmd.rbuf, cmd.count, cmd.dtype, cmd.peer, cmd.comm);
      break;
    case CmdOp::kIreduce:
      real = rc_.ireduce(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.rop,
                         cmd.peer, cmd.comm);
      break;
    case CmdOp::kIallreduce:
      real = rc_.iallreduce(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.rop,
                            cmd.comm);
      break;
    case CmdOp::kIalltoall:
      real = rc_.ialltoall(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.comm);
      break;
    case CmdOp::kIallgather:
      real = rc_.iallgather(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.comm);
      break;
    case CmdOp::kIgather:
      real = rc_.igather(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.peer,
                         cmd.comm);
      break;
    case CmdOp::kIscatter:
      real = rc_.iscatter(cmd.sbuf, cmd.rbuf, cmd.count, cmd.dtype, cmd.peer,
                          cmd.comm);
      break;
    case CmdOp::kShutdown:
      throw std::logic_error("shutdown reached issue()");
    default:  // RMA ops return from the inline-completion switch above
      throw std::logic_error("inline-completed op fell through to issue()");
  }
  track_inflight(e, real, cmd.proxy);
}

void OffloadChannel::track_inflight(Engine& e, smpi::Request real,
                                    std::uint32_t proxy,
                                    std::uint32_t persist) {
  e.inflight.push_back({real, proxy, sim::now(), false, persist});
  e.scratch_reqs.push_back(real);
  ++e.live_inflight;
  std::size_t live_total = 0;
  for (const auto& ep : engines_) live_total += ep->live_inflight;
  stats_.max_inflight =
      std::max<std::uint64_t>(stats_.max_inflight, live_total);
  e.g_inflight.set(static_cast<double>(e.live_inflight));
}

// ------------------------------------------------ persistent engine side ----

void OffloadChannel::engine_start_persistent(Engine& e, std::uint32_t idx) {
  PersistSlot& ps = *persist_.at(idx);
  const std::uint32_t pidx = idx + 1;  // Inflight.persist tag
  if (ps.partitions == 0) {
    // Plain persistent: the rc_-level persistent request is created lazily
    // on the first start (init never enters MPI from the engine), then every
    // generation is a bare MPI_Start on the same handle.
    if (ps.mpi.is_null()) {
      ps.mpi = ps.is_send ? rc_.send_init(ps.sbuf, ps.count, ps.dtype,
                                          ps.peer, ps.tag, ps.comm)
                          : rc_.recv_init(ps.rbuf, ps.count, ps.dtype,
                                          ps.peer, ps.tag, ps.comm);
    }
    rc_.start(ps.mpi);
    ps.remaining = 1;
    track_inflight(e, ps.mpi, ps.proxy, pidx);
    return;
  }
  // Partitioned: one rc_-level persistent request per partition, each a byte
  // slice of the buffer under its partition wire tag (wildcard receives can
  // never match these frames — matching.cpp rejects tag-bit-30).
  const std::uint64_t bytes = ps.count * smpi::datatype_size(ps.dtype);
  if (ps.parts.empty()) {
    ps.parts.resize(ps.partitions);
    for (std::uint32_t p = 0; p < ps.partitions; ++p) {
      const std::uint64_t lo = bytes * p / ps.partitions;
      const std::uint64_t hi = bytes * (p + 1) / ps.partitions;
      const int wtag = smpi::part_wire_tag(ps.tag, static_cast<int>(p));
      if (ps.is_send) {
        ps.parts[p] =
            rc_.send_init(static_cast<const char*>(ps.sbuf) + lo, hi - lo,
                          smpi::Datatype::kByte, ps.peer, wtag, ps.comm);
      } else {
        ps.parts[p] =
            rc_.recv_init(static_cast<char*>(ps.rbuf) + lo, hi - lo,
                          smpi::Datatype::kByte, ps.peer, wtag, ps.comm);
      }
    }
  }
  ps.remaining = ps.partitions;
  if (ps.is_send) {
    // Arm only: partitions ship from pump_persistent as pready bits land,
    // which is the whole point — early partitions go to the wire while
    // sibling compute threads are still producing theirs.
    std::fill(ps.shipped.begin(), ps.shipped.end(), 0);
    ps.armed = true;
    ++armed_psends_;
    // The arm races ahead-published pready bits: creating the per-partition
    // requests above yields, so an app thread may publish (and ring the
    // doorbell for) every partition before `armed` flips — a sibling engine
    // that polled in that window saw armed_psends_ == 0, judged the bits
    // un-actionable, and went to sleep past all of their signals. Re-ring
    // the doorbell after the arm so it re-evaluates ownership.
    for (const PartReadyWord& w : ps.ready) {
      if (w.load() != 0) {
        rc_.arrivals().signal();
        break;
      }
    }
    return;
  }
  // Partitioned receive: all partitions post immediately (the receiver has
  // no readiness to wait for).
  for (std::uint32_t p = 0; p < ps.partitions; ++p) {
    rc_.start(ps.parts[p]);
    track_inflight(e, ps.parts[p], ps.proxy, pidx);
  }
}

void OffloadChannel::engine_free_persistent(Engine& e, std::uint32_t idx) {
  (void)e;
  PersistSlot& ps = *persist_.at(idx);
  if (!ps.mpi.is_null()) rc_.request_free(ps.mpi);
  for (smpi::Request& r : ps.parts) {
    if (!r.is_null()) rc_.request_free(r);
  }
  ps.parts.clear();
  slot_persist_[ps.proxy] = 0;
  sim::advance(rc_.profile().request_pool_op);
  san::release(&pool_, ps.proxy);
  pool_.free(ps.proxy);
  completions_.signal();
}

std::size_t OffloadChannel::partition_engine(const PersistSlot& ps,
                                             std::uint32_t p) const {
  const std::size_t n = engines_.size();
  if (n == 1) return 0;
  // Deterministic disjoint ownership: every engine computes the same map, so
  // no two engines ever race to ship one partition. Mixing (comm, peer, p)
  // spreads one request's partitions across engines — per-partition wire
  // tags make them independent envelopes, so cross-engine issue is
  // order-safe.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ps.comm.idx))
       << 32) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(ps.peer)) ^
      (static_cast<std::uint64_t>(p + 1) << 20);
  return static_cast<std::size_t>(mix64(key) >> 32) % n;
}

bool OffloadChannel::persistent_ready_pending(const Engine& e) const {
  if (armed_psends_ == 0) return false;
  for (const auto& psp : persist_) {
    const PersistSlot& ps = *psp;
    if (!ps.armed) continue;
    for (std::size_t w = 0; w < ps.ready.size(); ++w) {
      std::uint64_t avail = ps.ready[w].load() & ~ps.shipped[w];
      while (avail != 0) {
        const auto p = static_cast<std::uint32_t>(
            w * 64 + static_cast<unsigned>(std::countr_zero(avail)));
        if (partition_engine(ps, p) == e.index) return true;
        avail &= avail - 1;
      }
    }
  }
  return false;
}

bool OffloadChannel::pump_persistent(Engine& e) {
  if (armed_psends_ == 0) return false;
  bool any = false;
  for (std::size_t i = 0; i < persist_.size(); ++i) {
    PersistSlot& ps = *persist_[i];
    if (!ps.armed) continue;  // also gates slots whose start is still queued
    for (std::size_t w = 0; w < ps.ready.size(); ++w) {
      for (;;) {
        // Re-read after every ship: rc_.start yields, and bits published
        // meanwhile should go out in this same pass.
        std::uint64_t avail = ps.ready[w].load() & ~ps.shipped[w];
        bool shipped_one = false;
        while (avail != 0) {
          const auto bit = static_cast<unsigned>(std::countr_zero(avail));
          avail &= avail - 1;
          const auto p = static_cast<std::uint32_t>(w * 64 + bit);
          if (partition_engine(ps, p) != e.index) continue;
          // Shipped bit set BEFORE issuing: the issue yields, and our own
          // next pass (or a sibling's re-check) must see the partition as
          // taken.
          ps.shipped[w] |= 1ull << bit;
          trace::Scope tsc("part:ship", "offload");
          sim::advance(rc_.profile().cmd_dequeue);
          rc_.start(ps.parts[p]);
          track_inflight(e, ps.parts[p], ps.proxy,
                         static_cast<std::uint32_t>(i) + 1);
          any = true;
          shipped_one = true;
          break;
        }
        if (!shipped_one) break;
      }
    }
  }
  return any;
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

bool OffloadChannel::drain_lanes_round(Engine& e) {
  // One round-robin pass over this engine's lane column, at most
  // lane_drain_bound commands per lane: the fairness bound keeps a
  // saturating lane from starving its neighbours or postponing the testany
  // pass indefinitely. Caller holds e.claim.
  bool any = false;
  const std::size_t rows = opts_.lane_count;
  if (rows == 0) return false;
  const std::size_t n = engines_.size();
  for (std::size_t k = 0; k < rows; ++k) {
    Lane& lane = *lanes_[((e.drain_cursor + k) % rows) * n + e.index];
    Command cmd;
    std::size_t popped = 0;
    while (popped < opts_.lane_drain_bound && lane.ring.try_pop(cmd)) {
      san::channel_pop(&lane);  // SPSC consume: joins the producer's publish
      ++popped;
      ++lane.stats.drained;
      lane.gauge.set(static_cast<double>(lane.ring.size_approx()));
      process_command(e, cmd);
    }
    any = any || popped != 0;
  }
  // Rotate the starting lane so equal backlogs drain at equal rates.
  e.drain_cursor = (e.drain_cursor + 1) % rows;
  return any;
}

bool OffloadChannel::drain_shared(Engine& e) {
  // Caller holds e.claim.
  bool any = false;
  Command cmd;
  while (e.ring.try_pop(cmd)) {
    san::channel_pop(&e.ring);
    any = true;
    e.g_ring.set(static_cast<double>(e.ring.size_approx()));
    process_command(e, cmd);
  }
  return any;
}

bool OffloadChannel::steal_round(Engine& e) {
  const std::size_t n = engines_.size();
  if (n < 2 || opts_.steal_bound == 0) return false;
  for (std::size_t k = 1; k < n; ++k) {
    Engine& v = *engines_[(e.index + k) % n];
    if (!submissions_pending(v)) continue;
    if (!v.claim.try_claim()) continue;  // owner (or another thief) is on it
    san::acquire(&v.claim, 0);  // previous holder's consumer-side state
    // Claim held across the WHOLE pop+issue sequence: issuing yields, and
    // releasing between pop and issue would let the owner interleave
    // same-envelope traffic out of posted order.
    std::size_t budget = opts_.steal_bound;
    std::size_t stolen = 0;
    Command cmd;
    for (std::size_t row = 0; row < next_lane_ && budget > 0; ++row) {
      Lane& lane = *lanes_[row * n + v.index];
      while (budget > 0 && lane.ring.try_pop(cmd)) {
        san::channel_pop(&lane);
        ++lane.stats.drained;
        lane.gauge.set(static_cast<double>(lane.ring.size_approx()));
        process_command(e, cmd);
        --budget;
        ++stolen;
      }
    }
    while (budget > 0 && v.ring.try_pop(cmd)) {
      san::channel_pop(&v.ring);
      v.g_ring.set(static_cast<double>(v.ring.size_approx()));
      process_command(e, cmd);
      --budget;
      ++stolen;
    }
    san::release(&v.claim, 0);  // hand consumer-side state to the next holder
    v.claim.release();
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

bool OffloadChannel::submissions_pending(const Engine& e) const {
  if (!e.ring.empty_approx()) return true;
  // Rows at or past next_lane_ were never bound to a submitter: always empty.
  const std::size_t n = engines_.size();
  for (std::size_t row = 0; row < next_lane_; ++row) {
    if (!lanes_[row * n + e.index]->ring.empty_approx()) return true;
  }
  return false;
}

bool OffloadChannel::steal_work_available(const Engine& e) const {
  if (engines_.size() < 2 || opts_.steal_bound == 0) return false;
  for (const auto& v : engines_) {
    if (v.get() != &e && submissions_pending(*v)) return true;
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
    const auto i = static_cast<std::size_t>(idx);
    if (const std::uint32_t pers = e.inflight[i].persist; pers != 0) {
      // One generation (or one partition) of a persistent request. The proxy
      // done flag publishes only when the whole generation is in: a
      // partitioned send/recv is complete when its LAST partition lands.
      PersistSlot& ps = *persist_[pers - 1];
      if (--ps.remaining == 0) {
        if (ps.armed) {
          ps.armed = false;
          --armed_psends_;
        }
        smpi::Status full = st;
        if (ps.partitions != 0) {
          // Synthesize the whole-message Status: base tag (the per-partition
          // wire tags are an implementation detail) and total bytes.
          full.tag = ps.tag;
          full.bytes = ps.count * smpi::datatype_size(ps.dtype);
        }
        complete_slot(e, ps.proxy, full);
      }
    } else {
      complete_slot(e, e.inflight[i].proxy, st);
    }
    --e.live_inflight;
    e.g_inflight.set(static_cast<double>(e.live_inflight));
    if (e.live_inflight == 0) break;
  }
  compact_inflight(e);
}

bool OffloadChannel::run_continuations(Engine& e) {
  if (e.cont_ready.empty()) return false;
  const auto& p = rc_.profile();
  // Bounded pass: callbacks may post follow-ups whose completions queue more
  // callbacks (drive_progress can run inside a post when the pool is tight),
  // so an unbounded drain could monopolize the engine. Leftovers run next
  // pass; the engine re-drains before sleeping because this returns true.
  std::size_t budget = opts_.cont_run_bound;
  bool any = false;
  while (budget-- > 0 && !e.cont_ready.empty()) {
    const std::uint32_t proxy = e.cont_ready.front();
    e.cont_ready.pop_front();
    san::check_read(&cont_fns_[proxy], sizeof(ContFn), "cont.fns[slot]");
    ContFn fn = std::move(cont_fns_[proxy]);
    cont_fns_[proxy] = nullptr;
    const smpi::Status st = pool_.status(proxy);
    // Free before running: the callback may post enough follow-ups to need
    // this very slot, and the exactly-once claim already consumed it.
    // Persistent slots are NOT freed — consuming the completion returns the
    // request to kInactive first, so the callback may Start the next
    // generation from inside itself.
    cont_.reset(proxy);
    const std::uint32_t pers =
        proxy < slot_persist_.size() ? slot_persist_[proxy] : 0;
    if (pers != 0) {
      persist_[pers - 1]->state = PState::kInactive;
    } else {
      sim::advance(p.request_pool_op);
      san::release(&pool_, proxy);
      pool_.free(proxy);
      completions_.signal();
    }
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
      worked = drain_shared(e) || worked;
      san::release(&e.claim, 0);
      e.claim.release();
    }
    // else: a thief holds our queues; progress/continuations still run, and
    // the spin polls below keep virtual time moving until it releases.
    drive_progress(e);
    // Ship any partition bits published since the last pass — this is where
    // early partitions overlap the senders still computing.
    worked = pump_persistent(e) || worked;
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
    bool woke = false;
    for (int i = 0; i < p.engine_spin_polls && !woke; ++i) {
      ++stats_.engine_spins;
      sim::advance(p.cmd_detect);
      woke = submissions_pending(e) || steal_work_available(e) ||
             persistent_ready_pending(e) || rc_.arrivals().count() > seen;
    }
    for (int i = 0; i < p.engine_yield_polls && !woke; ++i) {
      ++stats_.engine_yields;
      sim::yield();
      sim::advance(p.cmd_detect);
      woke = submissions_pending(e) || steal_work_available(e) ||
             persistent_ready_pending(e) || rc_.arrivals().count() > seen;
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
    if (submissions_pending(e) || !e.cont_ready.empty() ||
        steal_work_available(e) || persistent_ready_pending(e)) {
      // (persistent_ready_pending: a pready published between our pump pass
      // and this snapshot would otherwise be stranded — its doorbell signal
      // may already be counted in `armed`.)
      // Own work re-checked under the armed snapshot — or a sibling still
      // has a backlog, which nothing would ring OUR doorbell for: keep
      // polling and retrying the steal instead of sleeping past it.
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
