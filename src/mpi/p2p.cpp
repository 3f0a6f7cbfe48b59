// Point-to-point operations, request completion, and the blocking-wait
// kernel. Protocol selection:
//   * bytes <= profile.eager_threshold → eager: copy into an internal buffer
//     (CPU, proportional to size), inject; the send request completes
//     immediately (locally buffered).
//   * bytes >  threshold → rendezvous: post an RTS; data moves only after
//     the receiver's progress engine matched it and returned a CTS — the
//     mechanism behind the paper's Fig. 2/4 overlap cliff.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "mpi/cluster.hpp"
#include "mpi/entry.hpp"
#include "mpi/rank_ctx.hpp"
#include "mpi/wire.hpp"
#include "san/san.hpp"
#include "trace/scope.hpp"

namespace smpi {

RankCtx::RankCtx(Cluster& cluster, int rank, ThreadLevel level)
    : cluster_(cluster),
      rank_(rank),
      level_(level) {
  comms_.init(rank, cluster.nranks());
  rel_on_ = cluster.profile().faults.enabled();
  if (rel_on_) rel_.resize(static_cast<std::size_t>(cluster.nranks()));
}

int RankCtx::nranks() const { return cluster_.nranks(); }

const machine::Profile& RankCtx::profile() const { return cluster_.profile(); }

// ------------------------------------------------------------ internals ----

Request RankCtx::isend_internal(const void* buf, std::size_t bytes,
                                int dst_global, std::uint32_t ctx, int tag) {
  RequestImpl& r = reqs_.alloc();
  post_send_into(r, buf, bytes, dst_global, ctx, tag, /*registered=*/false);
  return Request{r.idx};
}

void RankCtx::post_send_into(RequestImpl& r, const void* buf,
                             std::size_t bytes, int dst_global,
                             std::uint32_t ctx, int tag, bool registered) {
  const auto& p = profile();

  if (dst_global == rank_) {
    // Loopback: one shared-memory copy, delivered straight to our own inbox
    // (always "eager" — no NIC involved). Registered (persistent) buffers
    // are byte-stable for the generation, so the receiver DMAs straight from
    // them — no sender-side bounce-copy charge (the payload copy below stays:
    // simulation bookkeeping, digests must see the payload).
    trace::Scope tsc("send:loopback", "mpi");
    if (!registered) sim::advance(p.copy_cost(bytes));
    machine::NetMessage m;
    m.src = m.dst = rank_;
    m.kind = kWireEager;
    m.h0 = ctx;
    m.h1 = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
    m.h2 = bytes;
    if (buf != nullptr) {
      cluster_.network().payloads().fill(m.payload, buf, bytes);
    } else {
      m.wire_bytes = bytes;  // phantom payload: timing only
    }
    inbox_.push_back(std::move(m));
    arrivals_.signal();
    r.kind = ReqKind::kSendEager;
    r.complete = true;
    ++stats_.eager_sends;
    return;
  }

  // Collective stages batch their sends on one doorbell (see
  // post_coll_stage): the first descriptor rings, the rest only pay the
  // already-charged enqueue work. The coll_* flags are state of the LIVE
  // progress pass; a send issued by a sibling engine fiber interleaving with
  // that pass must not inherit its batching or registered-buffer treatment.
  const bool stage_post = coll_posting_ && progress_pass_current();
  const auto charge_doorbell = [&] {
    const bool batching = coll_doorbell_batch_ && progress_pass_current();
    if (batching && coll_doorbell_rung_) {
      ++coll_stats_.doorbells_amortized;
      return;
    }
    sim::advance(p.nic_doorbell);
    if (batching) coll_doorbell_rung_ = true;
  };

  if (bytes <= p.eager_threshold) {
    // Eager: internal copy + doorbell; complete at once. Collective stage
    // sends come from schedule-owned registered buffers that stay stable
    // until the stage completes, so the NIC serializes straight from them —
    // no CPU bounce copy (the simulation payload copy below is bookkeeping
    // only). Registered persistent-send buffers get the same treatment.
    trace::Scope tsc("send:eager", "mpi");
    if (!stage_post && !registered) sim::advance(p.copy_cost(bytes));
    charge_doorbell();
    machine::NetMessage m;
    m.src = rank_;
    m.dst = dst_global;
    m.kind = kWireEager;
    m.h0 = ctx;
    m.h1 = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
    m.h2 = bytes;
    if (buf != nullptr) cluster_.network().payloads().fill(m.payload, buf, bytes);
    m.wire_bytes = bytes;
    net_send(std::move(m));
    r.kind = ReqKind::kSendEager;
    r.complete = true;
    ++stats_.eager_sends;
    return;
  }

  // Rendezvous: control message only; the payload stays in the user buffer.
  trace::Scope tsc("send:rts", "mpi");
  charge_doorbell();
  r.kind = ReqKind::kSendRndv;
  r.sbuf = buf;
  r.sbytes = bytes;
  r.dst_global = dst_global;
  machine::NetMessage m;
  m.src = rank_;
  m.dst = dst_global;
  m.kind = kWireRts;
  m.h0 = ctx;
  m.h1 = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
  m.h2 = static_cast<std::uint64_t>(r.idx);
  m.h3 = bytes;
  net_send(std::move(m));
  pending_rndv_send_.push_back(&r);
  ++stats_.rndv_sends;
  // Rendezvous keeps the payload in the user buffer until the CTS/DMA runs:
  // that inflight window is exactly what the sanitizer's buffer lint guards.
  // (Eager/loopback sends complete at post time — nothing stays inflight.)
  if (!stage_post) san::mpi_post_send(rank_, r.idx, buf, bytes);
}

Request RankCtx::irecv_internal(void* buf, std::size_t bytes, int src_global,
                                std::uint32_t ctx, int tag, Comm comm) {
  RequestImpl& r = reqs_.alloc();
  post_recv_into(r, buf, bytes, src_global, ctx, tag, comm);
  return Request{r.idx};
}

void RankCtx::post_recv_into(RequestImpl& r, void* buf, std::size_t bytes,
                             int src_global, std::uint32_t ctx, int tag,
                             Comm comm) {
  const auto& p = profile();
  r.kind = ReqKind::kRecv;
  r.rbuf = buf;
  r.rbytes = bytes;
  r.ctx = ctx;
  r.src_global = src_global;
  r.tag = tag;
  r.comm = comm;
  r.coll_internal = coll_posting_ && progress_pass_current();

  // First look in the unexpected queue (MPI ordering requires it).
  if (auto um = match_.match_unexpected(ctx, src_global, tag)) {
    trace::Scope tsc("recv:unexpected", "mpi");
    ++stats_.unexpected_hits;
    sim::advance(p.mpi_match_cost);
    if (um->is_rndv) {
      if (um->bytes > bytes) throw std::runtime_error("recv truncation (rndv)");
      send_cts(um->sender_req, um->env.src_global, r);
      r.matched_rndv = true;
      r.status.source = comms_.get(comm).from_global(um->env.src_global);
      r.status.tag = um->env.tag;
      r.status.bytes = um->bytes;
      pending_rndv_recv_.push_back(&r);
      if (!r.coll_internal) san::mpi_post_recv(rank_, r.idx, buf, bytes);
    } else {
      if (um->bytes > bytes) throw std::runtime_error("recv truncation");
      sim::advance(p.copy_cost(um->bytes));
      if (buf != nullptr && !um->payload.empty()) {
        std::memcpy(buf, um->payload.data(), um->payload.size());
      }
      cluster_.network().payloads().recycle(std::move(um->payload));
      r.status.source = comms_.get(comm).from_global(um->env.src_global);
      r.status.tag = um->env.tag;
      r.status.bytes = um->bytes;
      r.complete = true;
    }
    return;
  }

  match_.post_recv(&r);
  if (!r.coll_internal) san::mpi_post_recv(rank_, r.idx, buf, bytes);
}

// ---------------------------------------------------- persistent internals --

void RankCtx::start_internal(RequestImpl& r) {
  if (!r.persistent) {
    san::mpi_persist_misuse(rank_, "Start", "request is not persistent");
    throw std::logic_error("MPI_Start: request is not persistent");
  }
  if (r.p_started && !r.complete) {
    san::mpi_persist_misuse(rank_, "Start",
                            "previous generation still in flight");
    throw std::logic_error("MPI_Start: previous generation still in flight");
  }
  if (r.p_started && r.complete) {
    // Completed but never waited: settle the old generation before re-arming
    // (its status is dropped — wait/test between generations to observe it).
    san::mpi_complete(rank_, r.idx);
  }
  r.reset_transfer_state();
  r.p_started = true;
  if (r.p_peer == kProcNull) {
    r.kind = r.p_send ? ReqKind::kSendEager : ReqKind::kRecv;
    if (!r.p_send) r.status = Status{kProcNull, kAnyTag, 0};
    r.complete = true;
    return;
  }
  if (r.p_send) {
    post_send_into(r, r.p_buf, r.p_bytes, r.p_peer, r.p_ctx, r.p_tag,
                   /*registered=*/true);
  } else {
    post_recv_into(r, r.p_rbuf, r.p_bytes, r.p_peer, r.p_ctx, r.p_tag,
                   r.p_comm);
  }
}

// ------------------------------------------------------------ wait core ----

void RankCtx::wait_until(MpiEntry& entry, const std::function<bool()>& done) {
  const auto& p = profile();
  // Fast path: already complete (e.g. MPI_Wait on a finished eager send) —
  // real implementations check the request state before touching the
  // progress engine.
  if (done()) return;
  ++blocked_in_mpi_;
  struct Dec {
    int& v;
    ~Dec() { --v; }
  } dec{blocked_in_mpi_};
  // Adaptive spin: a MULTIPLE waiter hammers the lock at the base period
  // while traffic is active, but backs off exponentially when consecutive
  // re-polls find nothing (bounds simulator event counts on long waits
  // without changing contention behaviour at microsecond scales).
  std::int64_t backoff = p.multiple_repoll.ns();
  for (;;) {
    // Capture the arrival cursor BEFORE polling: anything that lands while
    // the poll's own work advances the clock makes the wait below return
    // immediately instead of being lost.
    const std::uint64_t seen = arrivals_.count();
    progress_poll();
    if (done()) return;
    if (level_ == ThreadLevel::kMultiple) {
      // A blocked MULTIPLE thread cycles lock→progress→unlock; it holds the
      // lock for a slice each cycle, which is what serializes other threads
      // when several of them block concurrently (paper Fig. 6). With no
      // other thread inside the library the cycling has no observable
      // effect, so the model waits for an arrival instead (every protocol
      // transition is arrival-signalled).
      sim::advance(p.big_lock_slice);
      entry.unlock_for_sleep();
      if (blocked_in_mpi_ > 1 || rel_on_) {
        if (arrivals_.wait_beyond_timeout(seen, sim::Time(backoff))) {
          backoff = p.multiple_repoll.ns();  // traffic: spin hard again
        } else {
          backoff = std::min<std::int64_t>(backoff * 2,
                                           p.multiple_repoll.ns() * 128);
        }
      } else {
        arrivals_.wait_beyond(seen);
      }
      entry.relock();
    } else if (rel_on_) {
      // Under faults the wake we are waiting for may itself be lost (dropped
      // ack, dropped data frame): sleep with a bound so the software
      // retransmit timers in progress_poll get a chance to fire. Same
      // exponential backoff as the MULTIPLE path to bound event counts.
      if (arrivals_.wait_beyond_timeout(seen, sim::Time(backoff))) {
        backoff = p.multiple_repoll.ns();
      } else {
        backoff =
            std::min<std::int64_t>(backoff * 2, p.multiple_repoll.ns() * 128);
      }
    } else {
      arrivals_.wait_beyond(seen);
    }
  }
}

bool RankCtx::handle_ok(Request r, const char* call) {
  return san::mpi_handle_ok(rank_, r.idx, reqs_.get(r).active, call);
}

void RankCtx::release_if_complete(Request& r, Status* st) {
  RequestImpl& impl = reqs_.get(r);
  if (impl.persistent) {
    // Persistent requests are reset, never released: the table slot (and the
    // handle value) survive until request_free. The caller's handle COPY is
    // nulled — that is load-bearing for the offload engine's testany sweep,
    // which uses a nulled scratch entry as its dead-slot marker; the public
    // wait/test restore the app-visible handle afterwards.
    if (!impl.p_started) {  // inactive: trivially complete, empty status
      if (st != nullptr) *st = Status{};
      r = kRequestNull;
      return;
    }
    if (!impl.complete) return;
    if (st != nullptr) *st = impl.status;
    san::mpi_complete(rank_, impl.idx);  // verify checksum, drop registration
    impl.complete = false;
    impl.p_started = false;  // back to inactive, ready for the next Start
    r = kRequestNull;
    return;
  }
  if (!impl.complete) return;
  if (st != nullptr) *st = impl.status;
  san::mpi_complete(rank_, impl.idx);  // verify checksum, drop registration
  reqs_.release(impl);
  r = kRequestNull;
}

// ------------------------------------------------------------ public API ----

Request RankCtx::isend(const void* buf, std::size_t count, Datatype dt, int dst,
                       int tag, Comm comm) {
  MpiEntry entry(*this, "Isend");
  const CommInfo& ci = comms_.get(comm);
  if (dst == kProcNull) {
    RequestImpl& r = reqs_.alloc();
    r.kind = ReqKind::kSendEager;
    r.complete = true;
    return Request{r.idx};
  }
  Request rq = isend_internal(buf, count * datatype_size(dt), ci.to_global(dst),
                              ci.context, tag);
  progress_poll();  // an MPI entry is a progress opportunity
  return rq;
}

Request RankCtx::irecv(void* buf, std::size_t count, Datatype dt, int src,
                       int tag, Comm comm) {
  MpiEntry entry(*this, "Irecv");
  const CommInfo& ci = comms_.get(comm);
  if (src == kProcNull) {
    RequestImpl& r = reqs_.alloc();
    r.kind = ReqKind::kRecv;
    r.complete = true;
    r.status = Status{kProcNull, kAnyTag, 0};
    return Request{r.idx};
  }
  const int src_global = (src == kAnySource) ? kAnySource : ci.to_global(src);
  Request rq = irecv_internal(buf, count * datatype_size(dt), src_global,
                              ci.context, tag, comm);
  progress_poll();
  return rq;
}

void RankCtx::send(const void* buf, std::size_t count, Datatype dt, int dst,
                   int tag, Comm comm) {
  Request r = isend(buf, count, dt, dst, tag, comm);
  wait(r);
}

void RankCtx::recv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                   Comm comm, Status* st) {
  Request r = irecv(buf, count, dt, src, tag, comm);
  wait(r, st);
}

bool RankCtx::test(Request& r, Status* st) {
  MpiEntry entry(*this, "Test");
  if (r.is_null()) {
    if (st != nullptr) *st = Status{};
    return true;
  }
  if (!handle_ok(r, "Test")) {
    r = kRequestNull;  // stale handle: treat as complete, as a real wait would
    if (st != nullptr) *st = Status{};
    return true;
  }
  progress_poll();
  RequestImpl& impl = reqs_.get(r);
  if (!impl.settled()) return false;
  const bool keep = impl.persistent;
  release_if_complete(r, st);
  if (keep) r = Request{impl.idx};  // handle survives across generations
  return true;
}

void RankCtx::wait(Request& r, Status* st) {
  MpiEntry entry(*this, "Wait");
  if (r.is_null()) return;
  if (!handle_ok(r, "Wait")) {
    r = kRequestNull;
    if (st != nullptr) *st = Status{};
    return;
  }
  RequestImpl& impl = reqs_.get(r);
  wait_until(entry, [&] { return impl.settled(); });
  const bool keep = impl.persistent;
  release_if_complete(r, st);
  if (keep) r = Request{impl.idx};  // handle survives across generations
}

void RankCtx::waitall(std::span<Request> rs) {
  MpiEntry entry(*this, "Waitall");
  for (Request& r : rs) {
    if (!r.is_null() && !handle_ok(r, "Waitall")) {
      r = kRequestNull;
    }
  }
  wait_until(entry, [&] {
    for (Request& r : rs) {
      if (!r.is_null() && !reqs_.get(r).settled()) return false;
    }
    return true;
  });
  for (Request& r : rs) {
    if (!r.is_null()) release_if_complete(r, nullptr);
  }
}

int RankCtx::waitany(std::span<Request> rs, Status* st) {
  MpiEntry entry(*this, "Waitany");
  for (Request& r : rs) {
    if (!r.is_null() && !handle_ok(r, "Waitany")) {
      r = kRequestNull;
    }
  }
  int found = -1;
  wait_until(entry, [&] {
    bool any_active = false;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].is_null()) continue;
      any_active = true;
      if (reqs_.get(rs[i]).settled()) {
        found = static_cast<int>(i);
        return true;
      }
    }
    return !any_active;  // all null → "undefined" completion
  });
  if (found >= 0) release_if_complete(rs[static_cast<std::size_t>(found)], st);
  return found;
}

bool RankCtx::testany(std::span<Request> rs, int* index, Status* st) {
  if (rs.empty()) {
    // MPI_Testany(0, ...): flag = true, index = MPI_UNDEFINED — and no call
    // overhead, matching implementations that short-circuit before entry.
    *index = -1;
    return true;
  }
  MpiEntry entry(*this, "Testany");
  for (Request& r : rs) {
    if (!r.is_null() && !handle_ok(r, "Testany")) {
      r = kRequestNull;
    }
  }
  progress_poll();
  bool any_active = false;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (rs[i].is_null()) continue;
    any_active = true;
    if (reqs_.get(rs[i]).settled()) {
      *index = static_cast<int>(i);
      release_if_complete(rs[i], st);
      return true;
    }
  }
  *index = -1;
  return !any_active;
}

bool RankCtx::testall(std::span<Request> rs) {
  MpiEntry entry(*this, "Testall");
  for (Request& r : rs) {
    if (!r.is_null() && !handle_ok(r, "Testall")) {
      r = kRequestNull;
    }
  }
  progress_poll();
  for (Request& r : rs) {
    if (!r.is_null() && !reqs_.get(r).settled()) return false;
  }
  for (Request& r : rs) {
    if (!r.is_null()) release_if_complete(r, nullptr);
  }
  return true;
}

Request RankCtx::send_init(const void* buf, std::size_t count, Datatype dt,
                           int dst, int tag, Comm comm) {
  MpiEntry entry(*this, "Send_init");
  const CommInfo& ci = comms_.get(comm);
  RequestImpl& r = reqs_.alloc();
  r.persistent = true;
  r.p_send = true;
  r.p_buf = buf;
  r.p_bytes = count * datatype_size(dt);
  r.p_peer = (dst == kProcNull) ? kProcNull : ci.to_global(dst);
  r.p_ctx = ci.context;
  r.p_tag = tag;
  r.p_comm = comm;
  return Request{r.idx};
}

Request RankCtx::recv_init(void* buf, std::size_t count, Datatype dt, int src,
                           int tag, Comm comm) {
  MpiEntry entry(*this, "Recv_init");
  const CommInfo& ci = comms_.get(comm);
  RequestImpl& r = reqs_.alloc();
  r.persistent = true;
  r.p_send = false;
  r.p_rbuf = buf;
  r.p_bytes = count * datatype_size(dt);
  r.p_peer = (src == kProcNull || src == kAnySource) ? src : ci.to_global(src);
  r.p_ctx = ci.context;
  r.p_tag = tag;
  r.p_comm = comm;
  return Request{r.idx};
}

void RankCtx::start(Request r) {
  const auto& p = profile();
  MpiEntry entry(*this, "Start", &p.persist_start);
  if (r.is_null()) {
    san::mpi_persist_misuse(rank_, "Start", "null request");
    throw std::logic_error("MPI_Start on the null request");
  }
  if (!handle_ok(r, "Start")) {
    throw std::logic_error("MPI_Start on a freed request handle");
  }
  start_internal(reqs_.get(r));
  // Deliberately no progress_poll: Start is the thin re-arm path — that the
  // entry stays cheap is the point of persistent requests.
}

void RankCtx::request_free(Request& r) {
  MpiEntry entry(*this, "Request_free");
  if (r.is_null()) return;
  if (!handle_ok(r, "Request_free")) {
    r = kRequestNull;
    return;
  }
  RequestImpl& impl = reqs_.get(r);
  if (!impl.persistent) {
    san::mpi_persist_misuse(rank_, "Request_free",
                            "request is not persistent");
    throw std::logic_error("MPI_Request_free: request is not persistent");
  }
  if (impl.p_started && !impl.complete) {
    san::mpi_persist_misuse(rank_, "Request_free", "generation in flight");
    throw std::logic_error("MPI_Request_free: generation still in flight");
  }
  if (impl.p_started && impl.complete) san::mpi_complete(rank_, impl.idx);
  reqs_.release(impl);
  r = kRequestNull;
}

bool RankCtx::iprobe(int src, int tag, Comm comm, Status* st) {
  MpiEntry entry(*this, "Iprobe");
  progress_poll();
  const CommInfo& ci = comms_.get(comm);
  const int src_global = (src == kAnySource) ? kAnySource : ci.to_global(src);
  const UnexpectedMsg* m = match_.peek_unexpected(ci.context, src_global, tag);
  if (m == nullptr) return false;
  if (st != nullptr) {
    st->source = ci.from_global(m->env.src_global);
    st->tag = m->env.tag;
    st->bytes = m->bytes;
  }
  return true;
}

void RankCtx::progress() {
  MpiEntry entry(*this, "Progress");
  progress_poll();
}

Comm RankCtx::comm_dup(Comm parent) {
  // Collective by MPI rules; synchronize like a barrier so no rank races
  // ahead and sends on the new context before everyone constructed it.
  barrier(parent);
  MpiEntry entry(*this, "Comm_dup");
  return comms_.dup(parent);
}

Comm RankCtx::comm_split(Comm parent, int color, int key) {
  // Exchange (color,key) of every member, then compute the split locally.
  const CommInfo& ci = comms_.get(parent);
  std::vector<std::pair<int, int>> color_key(
      static_cast<std::size_t>(ci.size()));
  std::pair<int, int> mine{color, key};
  static_assert(sizeof(std::pair<int, int>) == 2 * sizeof(int));
  allgather(&mine, color_key.data(), 2, Datatype::kInt, parent);
  MpiEntry entry(*this, "Comm_split");
  return comms_.split(parent, color_key);
}

}  // namespace smpi
