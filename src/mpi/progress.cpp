// The progress engine: NIC delivery (hardware side) and progress_poll
// (software side).
#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "mpi/cluster.hpp"
#include "mpi/rank_ctx.hpp"
#include "mpi/wire.hpp"
#include "san/san.hpp"
#include "trace/scope.hpp"

namespace smpi {

namespace {
const char* wire_kind_name(std::uint32_t kind) {
  switch (kind) {
    case kWireEager:
      return "rx:eager";
    case kWireRts:
      return "rx:rts";
    case kWireCts:
      return "rx:cts";
    case kWireData:
      return "rx:dma";
    case kWireAck:
      return "rx:ack";
  }
  return "rx:?";
}

std::size_t frame_wire_bytes(const machine::NetMessage& m) {
  return std::max(std::max(m.wire_bytes, m.payload.size()),
                  static_cast<std::size_t>(64));
}
}  // namespace

// -------------------------------------------------- reliability sublayer ----

void RankCtx::net_send(machine::NetMessage&& m) {
  if (rel_on_) {
    RelPeer& peer = rel_[static_cast<std::size_t>(m.dst)];
    m.seq = peer.tx_next_seq++;
    m.ack = peer.rx_expected;  // piggyback our cursor; no pure ack needed now
    peer.ack_owed = false;
    m.checksum = wire_checksum(m);
    ++rel_stats_.frames_sent;
    const std::size_t wire = frame_wire_bytes(m);
    peer.tx_unacked_bytes += wire;
    // RTO scales with the whole unacked backlog: a burst of pipeline chunks
    // serializes behind one egress link, and a timer sized for a single
    // frame would fire spuriously on every deep rendezvous pipeline.
    peer.unacked.push_back(
        {m, sim::now() + rel_rto(peer.tx_unacked_bytes, 0), 0});
  }
  cluster_.network().send(std::move(m));
}

sim::Time RankCtx::rel_rto(std::size_t backlog_bytes, int attempts) const {
  const auto& p = profile();
  const std::int64_t base = p.faults.rto_base.ns() + 2 * p.net_latency.ns() +
                            4 * p.wire_cost(backlog_bytes).ns();
  return sim::Time(base << std::min(attempts, 8));
}

/// Hardware receive filter (NIC CRC + reliable-connection logic): verify the
/// checksum before trusting any header word, harvest the piggybacked ack,
/// and accept only the next in-order sequence number per source. Runs in
/// scheduler context — no simulated CPU, exactly like the rest of deliver().
bool RankCtx::rel_admit(machine::NetMessage& m) {
  if (m.checksum != wire_checksum(m)) {
    // Garbage frame: even src/seq are untrustworthy, so nothing can be
    // acked or re-acked — the sender's retransmit timer covers it.
    ++rel_stats_.corrupt_drops;
    trace::instant(rank_, trace::kHwTid, "rx:corrupt-drop", "net");
    return false;
  }
  RelPeer& peer = rel_[static_cast<std::size_t>(m.src)];
  // Cumulative ack: the peer has everything below m.ack, retire our copies.
  while (!peer.unacked.empty() && peer.unacked.front().frame.seq < m.ack) {
    peer.tx_unacked_bytes -= frame_wire_bytes(peer.unacked.front().frame);
    peer.unacked.pop_front();
  }
  if (peer.unacked.empty()) peer.tx_unacked_bytes = 0;
  if (m.kind == kWireAck) return false;  // pure ack: no data to deliver
  if (m.seq != peer.rx_expected) {
    // Duplicate (below the cursor) or a gap (go-back-N receivers take only
    // in-order frames). Drop it, but owe the sender a fresh ack — its copy
    // of our cursor may have been lost — and wake software to send one.
    if (m.seq < peer.rx_expected) {
      ++rel_stats_.dup_drops;
      trace::counter(rank_, "rel.dup_drops",
                     static_cast<double>(rel_stats_.dup_drops));
      trace::instant(rank_, trace::kHwTid, "rx:dup-drop", "net");
    } else {
      ++rel_stats_.ooo_drops;
      trace::instant(rank_, trace::kHwTid, "rx:ooo-drop", "net");
    }
    peer.ack_owed = true;
    arrivals_.signal();
    return false;
  }
  ++peer.rx_expected;
  peer.ack_owed = true;
  return true;
}

/// Software half of the protocol, called from progress_poll(): go-back-N
/// retransmission with exponential backoff, and pure-ack flush for cursors
/// no outgoing frame piggybacked in time. Only runs while a fiber is inside
/// MPI — a rank that never enters the library recovers nothing.
void RankCtx::rel_poll() {
  const auto& p = profile();
  const sim::Time now = sim::now();
  // The self entry is scanned like any other but stays empty: a rank's own
  // sends take the loopback path into its inbox and never reach the wire.
  for (std::size_t peer_rank = 0; peer_rank < rel_.size(); ++peer_rank) {
    RelPeer& peer = rel_[peer_rank];
    if (!peer.unacked.empty() && now >= peer.unacked.front().deadline) {
      trace::Scope tsc("rel:retransmit", "mpi");
      const int attempts = peer.unacked.front().attempts + 1;
      const sim::Time deadline =
          now + rel_rto(peer.tx_unacked_bytes, attempts);
      for (RelPeer::Unacked& u : peer.unacked) {
        sim::advance(p.nic_doorbell);
        ++rel_stats_.retransmits;
        trace::counter(rank_, "rel.retransmits",
                       static_cast<double>(rel_stats_.retransmits));
        u.attempts = attempts;
        u.deadline = deadline;
        // Byte-identical re-injection (stale piggybacked ack and all): the
        // checksum still matches and cumulative acks are monotone-safe.
        machine::NetMessage copy = u.frame;
        cluster_.network().send(std::move(copy));
      }
    }
    if (peer.ack_owed) {
      sim::advance(p.nic_doorbell);
      machine::NetMessage ack;
      ack.src = rank_;
      ack.dst = static_cast<int>(peer_rank);
      ack.kind = kWireAck;
      ack.ack = peer.rx_expected;
      ack.checksum = wire_checksum(ack);
      ++rel_stats_.acks_sent;
      peer.ack_owed = false;
      // Unsequenced on purpose: acking acks would regress infinitely. Loss
      // is repaired by the next dup-triggered re-ack.
      cluster_.network().send(std::move(ack));
    }
  }
}

// ------------------------------------------------------------- hardware ----

void RankCtx::deliver(machine::NetMessage&& m) {
  // Hardware-side arrival (scheduler context, no simulated CPU): mark it on
  // the rank's "hw" track so software reaction latency is visible.
  trace::instant(rank_, trace::kHwTid, wire_kind_name(m.kind), "net");
  if (rel_on_ && !rel_admit(m)) return;
  if (m.kind == kWireData) {
    // RDMA write of one pipeline chunk: the NIC moves the bytes straight
    // into the matched receive buffer and raises completion counters. No
    // simulated CPU is consumed — but injecting the NEXT chunk beyond the
    // pipeline depth requires the sender's progress engine (software).
    RequestImpl& rreq = reqs_.get(Request{static_cast<int>(m.h0)});
    assert(rreq.active && rreq.kind == ReqKind::kRecv && rreq.matched_rndv);
    const auto chunk = static_cast<std::size_t>(m.h3);
    assert(rreq.rndv_received + chunk <= rreq.rbytes);
    if (rreq.rbuf != nullptr && m.h1 != 0) {
      // Chunks arrive in order per (src,dst) pair.
      std::memcpy(static_cast<std::byte*>(rreq.rbuf) + rreq.rndv_received,
                  reinterpret_cast<const void*>(m.h1), chunk);
    }
    rreq.rndv_received += chunk;
    if (rreq.rndv_received >= rreq.status.bytes) rreq.data_arrived = true;
    arrivals_.signal();
    // Sender-side NIC completion counter.
    RankCtx& sender = cluster_.rank(m.src);
    RequestImpl& sreq = sender.reqs_.get(Request{static_cast<int>(m.h2)});
    assert(sreq.active && sreq.kind == ReqKind::kSendRndv);
    sreq.dma_delivered += chunk;
    sender.arrivals_.signal();
    return;
  }
  inbox_.push_back(std::move(m));
  arrivals_.signal();
}

// ------------------------------------------------------------- software ----

void RankCtx::progress_poll() {
  if (in_progress_) {
    // Registered progress sharers (the offload engine fibers) legitimately
    // interleave inside the library at yield points. The pass already
    // running does every piece of software work this one would — inbox,
    // rendezvous, collectives, reliability — so the late arrival just skips
    // (single-flight). Covers recursive entry by the pass owner too.
    if (progress_sharer_current()) return;
    // Anyone else: two fibers inside the library concurrently without the
    // big lock — a violation of the declared thread level.
    throw std::logic_error("concurrent MPI entry under non-MULTIPLE level");
  }
  in_progress_ = true;
  in_progress_fiber_ = sim::Engine::current()->current_fiber();
  ++stats_.progress_passes;
  trace::Scope tsc("progress", "mpi");
  const auto& p = profile();
  sim::advance(p.mpi_progress_poll_cost);

  while (!inbox_.empty()) {
    machine::NetMessage m = std::move(inbox_.front());
    inbox_.pop_front();
    process_inbox_message(std::move(m));
  }

  // Drive rendezvous sends: keep the chunk pipeline full, notice completion.
  for (std::size_t i = 0; i < pending_rndv_send_.size();) {
    RequestImpl* r = pending_rndv_send_[i];
    if (r->cts_received) {
      while (r->dma_sent < r->sbytes &&
             r->dma_sent - r->dma_delivered <
                 p.rndv_chunk_bytes * static_cast<std::size_t>(p.rndv_pipeline_depth)) {
        start_rndv_chunk(*r);
      }
    }
    if (r->cts_received && r->dma_delivered >= r->sbytes) {
      sim::advance(p.mpi_match_cost);
      r->complete = true;
      arrivals_.signal();  // wake the fiber tracking this request (see below)
      pending_rndv_send_[i] = pending_rndv_send_.back();
      pending_rndv_send_.pop_back();
    } else {
      ++i;
    }
  }
  for (std::size_t i = 0; i < pending_rndv_recv_.size();) {
    RequestImpl* r = pending_rndv_recv_[i];
    if (r->data_arrived) {
      sim::advance(p.mpi_match_cost);
      r->complete = true;
      arrivals_.signal();
      pending_rndv_recv_[i] = pending_rndv_recv_.back();
      pending_rndv_recv_.pop_back();
    } else {
      ++i;
    }
  }

  advance_collectives();
  if (rel_on_) rel_poll();
  in_progress_ = false;
  in_progress_fiber_ = nullptr;
}

void RankCtx::process_inbox_message(machine::NetMessage&& m) {
  switch (m.kind) {
    case kWireEager:
      handle_eager(std::move(m));
      return;
    case kWireRts:
      handle_rts(std::move(m));
      return;
    case kWireCts:
      handle_cts(std::move(m));
      return;
    default:
      throw std::logic_error("unknown wire message kind");
  }
}

void RankCtx::handle_eager(machine::NetMessage&& m) {
  trace::Scope tsc("match:eager", "mpi");
  const auto& p = profile();
  sim::advance(p.mpi_match_cost);
  Envelope env{static_cast<std::uint32_t>(m.h0), m.src,
               static_cast<int>(static_cast<std::int64_t>(m.h1))};
  const auto declared = static_cast<std::size_t>(m.h2);
  if (RequestImpl* r = match_.match_posted(env)) {
    if (declared > r->rbytes) {
      throw std::runtime_error("recv truncation (eager)");
    }
    // Pre-posted registered collective buffers take the payload by NIC DMA;
    // everything else drains through a CPU copy out of the bounce buffer.
    if (!r->coll_internal) sim::advance(p.copy_cost(declared));
    if (r->rbuf != nullptr && !m.payload.empty()) {
      std::memcpy(r->rbuf, m.payload.data(), m.payload.size());
    }
    cluster_.network().payloads().recycle(std::move(m.payload));
    r->status.source = comms_.get(r->comm).from_global(env.src_global);
    r->status.tag = env.tag;
    r->status.bytes = declared;
    r->complete = true;
    // Completion is a wake event of its own, distinct from the deliver-time
    // doorbell: the copy above yields, and with several engine fibers sharing
    // this progress engine (single-flight progress_poll), the fiber that
    // tracks this request may poll during that yield, take the busy
    // fast-path, observe the request still incomplete, and arm its doorbell
    // against an arrivals count that already includes the deliver signal. If
    // the transition to complete did not re-ring, that fiber would sleep past
    // its own request forever. With one consumer the completer and the
    // scanner were the same fiber and this signal was redundant — one of the
    // single-consumer assumptions sharding exposes (DESIGN.md §15).
    arrivals_.signal();
    return;
  }
  UnexpectedMsg um;
  um.env = env;
  um.bytes = declared;
  um.payload = std::move(m.payload);
  match_.add_unexpected(std::move(um));
}

void RankCtx::handle_rts(machine::NetMessage&& m) {
  trace::Scope tsc("match:rts", "mpi");
  const auto& p = profile();
  sim::advance(p.mpi_match_cost);
  Envelope env{static_cast<std::uint32_t>(m.h0), m.src,
               static_cast<int>(static_cast<std::int64_t>(m.h1))};
  const auto bytes = static_cast<std::size_t>(m.h3);
  if (RequestImpl* r = match_.match_posted(env)) {
    if (bytes > r->rbytes) throw std::runtime_error("recv truncation (rndv)");
    send_cts(m.h2, m.src, *r);
    r->matched_rndv = true;
    r->status.source = comms_.get(r->comm).from_global(env.src_global);
    r->status.tag = env.tag;
    r->status.bytes = bytes;
    pending_rndv_recv_.push_back(r);
    return;
  }
  UnexpectedMsg um;
  um.env = env;
  um.bytes = bytes;
  um.is_rndv = true;
  um.sender_req = m.h2;
  match_.add_unexpected(std::move(um));
}

void RankCtx::send_cts(std::uint64_t sender_req, int sender_global,
                       RequestImpl& rreq) {
  trace::Scope tsc("rndv:cts-send", "mpi");
  const auto& p = profile();
  sim::advance(p.rndv_handshake_cpu);
  sim::advance(p.nic_doorbell);
  machine::NetMessage cts;
  cts.src = rank_;
  cts.dst = sender_global;
  cts.kind = kWireCts;
  cts.h0 = sender_req;
  cts.h1 = static_cast<std::uint64_t>(rreq.idx);
  net_send(std::move(cts));
}

void RankCtx::handle_cts(machine::NetMessage&& m) {
  trace::Scope tsc("rndv:cts", "mpi");
  const auto& p = profile();
  sim::advance(p.rndv_handshake_cpu);
  RequestImpl& sreq = reqs_.get(Request{static_cast<int>(m.h0)});
  assert(sreq.active && sreq.kind == ReqKind::kSendRndv);
  sreq.cts_received = true;
  sreq.peer_rreq = m.h1;
  // Fill the chunk pipeline; further chunks are injected by progress as
  // NIC completions come back.
  while (sreq.dma_sent < sreq.sbytes &&
         sreq.dma_sent - sreq.dma_delivered <
             p.rndv_chunk_bytes * static_cast<std::size_t>(p.rndv_pipeline_depth)) {
    start_rndv_chunk(sreq);
  }
}

void RankCtx::start_rndv_chunk(RequestImpl& sreq) {
  trace::Scope tsc("rndv:chunk", "mpi");
  const auto& p = profile();
  const std::size_t chunk =
      std::min(p.rndv_chunk_bytes, sreq.sbytes - sreq.dma_sent);
  sim::advance(p.nic_doorbell);
  machine::NetMessage data;
  data.src = rank_;
  data.dst = sreq.dst_global;
  data.kind = kWireData;
  data.h0 = sreq.peer_rreq;
  data.h1 = sreq.sbuf == nullptr
                ? 0
                : reinterpret_cast<std::uint64_t>(
                      static_cast<const std::byte*>(sreq.sbuf) + sreq.dma_sent);
  data.h2 = static_cast<std::uint64_t>(sreq.idx);
  data.h3 = chunk;
  data.wire_bytes = chunk;
  sreq.dma_sent += chunk;
  net_send(std::move(data));
}

// ----------------------------------------------------------- collectives ----

const CollTuner& RankCtx::coll_tuner() const { return cluster_.coll_tuner(); }

void RankCtx::post_coll_stage(RequestImpl& creq, std::size_t chain_idx) {
  CollOp& op = *creq.coll;
  CollChain& ch = op.chains[chain_idx];
  trace::Scope tsc(trace::Tracer::on()
                       ? std::string("coll:") + coll_algo_name(op.algo) + ":c" +
                             std::to_string(chain_idx) + ":s" +
                             std::to_string(ch.cur)
                       : std::string(),
                   "mpi");
  const CommInfo& ci = comms_.get(op.comm);
  const std::uint32_t ictx = ci.context | 0x40000000u;
  const CollStage& st = ch.stages[ch.cur];
  // One tag per (instance, chain): within a chain stages are sequential and
  // per-pair message order is preserved end to end, so FIFO matching pairs
  // stage messages correctly. Chains, however, run concurrently with no
  // ordering between them, so each gets its own tag salt.
  const int tag = static_cast<int>(
      (op.seq * kCollMaxChains + chain_idx) % (1u << 30));
  ch.pending.clear();
  // Stage traffic moves between schedule-owned registered buffers, so the
  // transport treats it as zero-copy (NIC DMA, no CPU bounce-buffer charge).
  coll_posting_ = true;
  // Post receives before sends (good practice and avoids self-flooding).
  for (const auto& rv : st.recvs) {
    ch.pending.push_back(irecv_internal(rv.buf, rv.bytes, ci.to_global(rv.src),
                                        ictx, tag, op.comm));
  }
  for (const auto& sd : st.sends) {
    ch.pending.push_back(isend_internal(sd.buf, sd.bytes, ci.to_global(sd.dst),
                                        ictx, tag));
  }
  coll_posting_ = false;
  ch.posted_at = sim::now();
  ch.stage_posted = true;
}

void RankCtx::advance_collectives() {
  bool moved = true;
  while (moved) {
    moved = false;
    for (std::size_t i = 0; i < active_colls_.size();) {
      RequestImpl* creq = active_colls_[i];
      CollOp& op = *creq->coll;
      // Each chain advances independently — this is the pipelining: chain
      // k+1's sends go to the NIC while chain k sits in its combine. All
      // stage sends posted in this pass ride one doorbell when the profile
      // allows it (the post_batch amortization applied to schedule-internal
      // p2p: the engine drains the whole descriptor batch, rings once).
      coll_doorbell_batch_ = profile().coll_batch_doorbells;
      coll_doorbell_rung_ = false;
      for (std::size_t c = 0; c < op.chains.size(); ++c) {
        CollChain& ch = op.chains[c];
        if (ch.cur < ch.stages.size() && !ch.stage_posted) {
          post_coll_stage(*creq, c);
          moved = true;
        }
        if (ch.stage_posted) {
          bool all_done = true;
          for (Request r : ch.pending) {
            if (!r.is_null() && !reqs_.get(r).complete) {
              all_done = false;
              break;
            }
          }
          if (all_done) {
            for (Request r : ch.pending) {
              if (!r.is_null()) reqs_.release(reqs_.get(r));
            }
            ch.pending.clear();
            ++coll_stats_.chunks;
            coll_stats_.chunk_time += sim::now() - ch.posted_at;
            if (ch.stages[ch.cur].on_complete) ch.stages[ch.cur].on_complete(*this);
            ++ch.cur;
            ch.stage_posted = false;
            moved = true;
          }
        }
      }
      coll_doorbell_batch_ = false;
      if (op.done()) {
        trace::instant(rank_, trace::ambient_tid(), "coll:done", "mpi");
        if (op.on_finish) op.on_finish(*this);
        creq->complete = true;
        active_colls_[i] = active_colls_.back();
        active_colls_.pop_back();
        arrivals_.signal();  // wake local waiters blocked on this collective
        continue;            // re-examine the swapped-in element
      }
      ++i;
    }
  }
}

Request RankCtx::start_collective(std::unique_ptr<CollOp> op) {
  // Every schedule must carry the algorithm that built it: this is what
  // makes the [stats] trailer's "unknown" impossible by construction.
  if (op->algo == CollAlgo::kUnknown) {
    throw std::logic_error(std::string("collective schedule for ") +
                           coll_name(op->kind) + " built without an algorithm");
  }
  ++coll_stats_.algo_count[static_cast<int>(op->kind)][static_cast<int>(op->algo)];
  if (op->chains.size() > kCollMaxChains) {
    throw std::logic_error("collective schedule exceeds kCollMaxChains");
  }
  // Cross-rank posting-order lint: every rank must post the same (kind, root)
  // sequence per communicator context. Read the fields before op is moved.
  san::mpi_coll_posted(rank_, comms_.get(op->comm).context,
                       static_cast<int>(op->kind), op->root,
                       coll_name(op->kind));
  RequestImpl& r = reqs_.alloc();
  r.kind = ReqKind::kColl;
  r.coll = std::move(op);
  active_colls_.push_back(&r);
  progress_poll();  // posts stage 0 (and may finish a 1-rank collective)
  return Request{r.idx};
}

}  // namespace smpi
