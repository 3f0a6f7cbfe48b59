// Collective algorithms, compiled to CollOp schedules per rank.
//
// Which schedule a collective compiles to is decided per instance by the
// CollTuner (size x ranks; see mpi/coll_tuner.hpp for the one override).
// The inventory:
//   * barrier      — dissemination (ceil(log2 p) rounds)
//   * bcast        — binomial tree
//   * reduce       — binomial tree
//   * allreduce    — segmented ring (reduce-scatter + allgather) for large
//                    vectors, recursive doubling for small power-of-two
//                    cases, reduce-to-0 + bcast otherwise
//   * alltoall     — post-all for eager-sized blocks, pairwise sequential
//                    exchange for rendezvous-sized blocks
//   * allgather    — post-all
#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "mpi/cluster.hpp"
#include "mpi/datatype.hpp"
#include "mpi/entry.hpp"
#include "mpi/rank_ctx.hpp"

namespace smpi {

namespace {

std::unique_ptr<CollOp> new_op(CommInfo& ci, Comm comm, CollectiveId kind,
                               CollAlgo algo) {
  auto op = std::make_unique<CollOp>();
  op->comm = comm;
  op->seq = ci.coll_seq++;
  op->kind = kind;
  op->algo = algo;
  return op;
}

/// Add an uninitialised temp of `bytes`: every schedule writes a temp
/// (copy or receive) before it sends or combines from it. A zero-byte temp
/// stays null, which phantom schedules and apply_op's null guard rely on.
std::size_t add_temp(CollOp& op, std::size_t bytes) {
  op.temps.push_back(bytes == 0
                         ? nullptr
                         : std::make_unique_for_overwrite<std::byte[]>(bytes));
  return op.temps.size() - 1;
}

/// The byte every barrier round sends: constant, so the wire bytes (and
/// fault-injection checksums) never depend on uninitialised memory.
constexpr std::byte kBarrierToken{0};

/// Offset into a possibly-phantom buffer (phantom schedules carry byte
/// counts but no storage).
std::byte* at(std::byte* base, std::size_t off) {
  return base == nullptr ? nullptr : base + off;
}

/// Set up where a reduction accumulates, charging the post-time copy of
/// `sbuf`. When the call carries data and this rank receives the result,
/// the accumulator is `rbuf` itself: `sbuf` is copied in once (not at all
/// in place, sbuf == rbuf) and the schedule combines there, so on_finish
/// only charges the result copy the model keeps. Phantom calls (no `sbuf`),
/// calls with no `rbuf` and non-root reduce ranks accumulate in a schedule
/// temp instead.
std::byte* reduction_accumulator(RankCtx& rc, CollOp& op, const void* sbuf,
                                 void* rbuf, std::size_t bytes,
                                 bool result_here) {
  const bool phantom = sbuf == nullptr;
  std::byte* accum = nullptr;
  if (phantom || rbuf == nullptr || !result_here) {
    accum = op.temps[add_temp(op, phantom ? 0 : bytes)].get();
  } else {
    accum = static_cast<std::byte*>(rbuf);
  }
  sim::advance(rc.profile().copy_cost(bytes));
  if (!phantom && accum != sbuf) std::memcpy(accum, sbuf, bytes);
  if (result_here) {
    op.on_finish = [bytes](RankCtx& r) {
      sim::advance(r.profile().copy_cost(bytes));
    };
  }
  return accum;
}

/// Append the stages of a binomial broadcast of `buf` (bytes) from comm rank
/// `root` to chain `ch`.
void build_bcast_stages(CollChain& ch, const CommInfo& ci, void* buf,
                        std::size_t bytes, int root) {
  const int p = ci.size();
  const int rel = (ci.my_rank - root + p) % p;
  int mask = 1;
  int parent_rel = -1;
  while (mask < p) {
    if ((rel & mask) != 0) {
      parent_rel = rel - mask;
      break;
    }
    mask <<= 1;
  }
  if (parent_rel >= 0) {
    CollStage st;
    st.recvs.push_back({(parent_rel + root) % p, buf, bytes});
    ch.stages.push_back(std::move(st));
  } else {
    mask = 1;
    while (mask < p) mask <<= 1;
  }
  // Children: all set bits below my entry bit.
  CollStage sends;
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (rel + m < p) sends.sends.push_back({(rel + m + root) % p, buf, bytes});
  }
  if (!sends.sends.empty()) ch.stages.push_back(std::move(sends));
}

/// Append binomial-reduce stages to `ch` combining into `accum` (which must
/// start as this rank's contribution); the result lands in rank `root`'s
/// accum. Combines are accum ⊕ recv with the received block always the
/// higher relative-rank range.
void build_reduce_stages(CollOp& op, CollChain& ch, const CommInfo& ci,
                         std::byte* accum, std::size_t bytes, Datatype dt,
                         Op rop, int root, std::size_t count,
                         std::size_t store) {
  const int p = ci.size();
  const int rel = (ci.my_rank - root + p) % p;
  CollOp* opp = &op;  // CollOp lives in a unique_ptr; its address is stable
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((rel & mask) == 0) {
      const int src_rel = rel + mask;
      if (src_rel >= p) continue;
      const std::size_t t = add_temp(op, store);
      CollStage st;
      st.recvs.push_back({(src_rel + root) % p, op.temps[t].get(), bytes});
      st.on_complete = [opp, t, accum, dt, rop, count, bytes](RankCtx& rc) {
        sim::advance(rc.profile().reduce_cost(bytes));
        apply_op(rop, dt, opp->temps[t].get(), accum, count);
      };
      ch.stages.push_back(std::move(st));
    } else {
      CollStage st;
      st.sends.push_back({(rel - mask + root) % p, accum, bytes});
      ch.stages.push_back(std::move(st));
      return;  // after sending inward this rank is done reducing
    }
  }
}

/// Segmented ring allreduce. Chain c owns the element range
/// [c*count/C, (c+1)*count/C); within a chain the range splits into p chunks
/// and runs the classic reduce-scatter + allgather ring: 2(p-1) stages, each
/// moving ~n/p elements to the right neighbour. Chains advance independently,
/// so chunk k+1's sends are on the wire while chunk k's combine runs — and
/// segments stay below the eager threshold, which is what keeps the schedule
/// overlap-friendly for the offload thread (no rendezvous stalls).
void build_ring_allreduce(CollOp& op, const CommInfo& ci, std::byte* accum,
                          std::size_t count, std::size_t elem, Datatype dt,
                          Op rop, bool phantom, int nchains) {
  const int p = ci.size();
  const int me = ci.my_rank;
  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  const auto up = static_cast<std::size_t>(p);
  CollOp* opp = &op;
  for (int c = 0; c < nchains; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    const std::size_t base = count * uc / static_cast<std::size_t>(nchains);
    const std::size_t n = count * (uc + 1) / static_cast<std::size_t>(nchains) - base;
    CollChain& ch = op.chain(uc);
    // Chunk j of this chain: n/p elements plus one of the remainder.
    const auto cn = [n, up](int j) {
      return n / up + (static_cast<std::size_t>(j) < n % up ? 1 : 0);
    };
    const auto coff = [n, up](int j) {
      const auto uj = static_cast<std::size_t>(j);
      return uj * (n / up) + std::min(uj, n % up);
    };
    // One receive temp per chain: stages are chain-sequential, and the
    // incoming partial is consumed by the combine before the next post.
    const std::size_t t = add_temp(op, phantom ? 0 : cn(0) * elem);
    // ---- reduce-scatter: stage s sends the chunk combined at stage s-1 ----
    for (int s = 0; s < p - 1; ++s) {
      const int schunk = ((me - s) % p + p) % p;
      const int rchunk = ((me - s - 1) % p + p) % p;
      CollStage st;
      st.sends.push_back(
          {right, at(accum, (base + coff(schunk)) * elem), cn(schunk) * elem});
      st.recvs.push_back({left, op.temps[t].get(), cn(rchunk) * elem});
      const std::size_t roff = (base + coff(rchunk)) * elem;
      const std::size_t rcnt = cn(rchunk);
      st.on_complete = [opp, t, accum, dt, rop, roff, rcnt, elem](RankCtx& rc) {
        sim::advance(rc.profile().reduce_cost(rcnt * elem));
        apply_op(rop, dt, opp->temps[t].get(), at(accum, roff), rcnt);
      };
      ch.stages.push_back(std::move(st));
    }
    // ---- allgather: circulate the finished chunks, landing in place ----
    for (int s = 0; s < p - 1; ++s) {
      const int schunk = ((me + 1 - s) % p + p) % p;
      const int rchunk = ((me - s) % p + p) % p;
      CollStage st;
      st.sends.push_back(
          {right, at(accum, (base + coff(schunk)) * elem), cn(schunk) * elem});
      st.recvs.push_back(
          {left, at(accum, (base + coff(rchunk)) * elem), cn(rchunk) * elem});
      ch.stages.push_back(std::move(st));
    }
  }
}

}  // namespace

// --------------------------------------------------------------- barrier ----

Request RankCtx::ibarrier(Comm comm) {
  MpiEntry entry(*this, "Ibarrier");
  CommInfo& ci = comms_.get(comm);
  const int p = ci.size();
  auto op = new_op(ci, comm, CollectiveId::kBarrier,
                   coll_tuner().choose(CollectiveId::kBarrier, 0, p));
  CollChain& ch = op->chain(0);
  const int me = ci.my_rank;
  for (int k = 1; k < p; k <<= 1) {
    CollStage st;
    // 1-byte token: zero-length messages are legal but a token keeps the
    // payload path uniform. The received byte is never read.
    const std::size_t t = add_temp(*op, 1);
    st.sends.push_back({(me + k) % p, &kBarrierToken, 1});
    st.recvs.push_back({(me - k + p) % p, op->temps[t].get(), 1});
    ch.stages.push_back(std::move(st));
  }
  return start_collective(std::move(op));
}

void RankCtx::barrier(Comm comm) {
  Request r = ibarrier(comm);
  wait(r);
}

// ----------------------------------------------------------------- bcast ----

Request RankCtx::ibcast(void* buf, std::size_t count, Datatype dt, int root,
                        Comm comm) {
  MpiEntry entry(*this, "Ibcast");
  CommInfo& ci = comms_.get(comm);
  const std::size_t bytes = count * datatype_size(dt);
  const int p = ci.size();
  auto op = new_op(ci, comm, CollectiveId::kBcast,
                   coll_tuner().choose(CollectiveId::kBcast, bytes, p));
  op->root = root;
  build_bcast_stages(op->chain(0), ci, buf, bytes, root);
  return start_collective(std::move(op));
}

void RankCtx::bcast(void* buf, std::size_t count, Datatype dt, int root,
                    Comm comm) {
  Request r = ibcast(buf, count, dt, root, comm);
  wait(r);
}

// ---------------------------------------------------------------- reduce ----

Request RankCtx::ireduce(const void* sbuf, void* rbuf, std::size_t count,
                         Datatype dt, Op rop, int root, Comm comm) {
  const std::size_t bytes = count * datatype_size(dt);
  check_reduce_op("Ireduce", rop, dt);
  if (comms_.get(comm).my_rank == root) {
    check_reduce_buffers("Ireduce", sbuf, rbuf, bytes);
  }
  MpiEntry entry(*this, "Ireduce");
  CommInfo& ci = comms_.get(comm);
  // Phantom (timing-only) reductions carry no data, so the schedule's
  // scratch buffers are not materialized either.
  const std::size_t store = sbuf == nullptr ? 0 : bytes;
  const int p = ci.size();
  auto op = new_op(ci, comm, CollectiveId::kReduce,
                   coll_tuner().choose(CollectiveId::kReduce, bytes, p));
  op->root = root;
  std::byte* accum = reduction_accumulator(*this, *op, sbuf, rbuf, bytes,
                                           ci.my_rank == root);
  build_reduce_stages(*op, op->chain(0), ci, accum, bytes, dt, rop, root,
                      count, store);
  return start_collective(std::move(op));
}

void RankCtx::reduce(const void* sbuf, void* rbuf, std::size_t count,
                     Datatype dt, Op rop, int root, Comm comm) {
  Request r = ireduce(sbuf, rbuf, count, dt, rop, root, comm);
  wait(r);
}

// ------------------------------------------------------------- allreduce ----

Request RankCtx::iallreduce(const void* sbuf, void* rbuf, std::size_t count,
                            Datatype dt, Op rop, Comm comm) {
  const std::size_t bytes = count * datatype_size(dt);
  check_reduce_op("Iallreduce", rop, dt);
  check_reduce_buffers("Iallreduce", sbuf, rbuf, bytes);
  MpiEntry entry(*this, "Iallreduce");
  CommInfo& ci = comms_.get(comm);
  const bool phantom = sbuf == nullptr;
  const std::size_t store = phantom ? 0 : bytes;
  const int p = ci.size();
  auto op = new_op(ci, comm, CollectiveId::kAllreduce,
                   coll_tuner().choose(CollectiveId::kAllreduce, bytes, p));
  std::byte* accum = reduction_accumulator(*this, *op, sbuf, rbuf, bytes,
                                           /*result_here=*/true);

  const std::size_t elem = datatype_size(dt);
  if (op->algo == CollAlgo::kRing) {
    build_ring_allreduce(*op, ci, accum, count, elem, dt, rop, phantom,
                         CollTuner::chains_for(bytes));
  } else if (op->algo == CollAlgo::kRecursiveDoubling) {
    // Recursive doubling: log2(p) exchange-and-combine rounds. Each round
    // sends a snapshot of the accumulator prepared by the previous round so
    // that rendezvous-sized payloads can be read at DMA time safely.
    CollChain& ch = op->chain(0);
    int nrounds = 0;
    for (int k = 1; k < p; k <<= 1) ++nrounds;
    std::vector<std::size_t> snaps, rtmps;
    for (int i = 0; i < nrounds; ++i) {
      snaps.push_back(add_temp(*op, store));
      rtmps.push_back(add_temp(*op, store));
    }
    if (nrounds > 0 && !phantom) {
      std::memcpy(op->temps[snaps[0]].get(), accum, bytes);
    }
    CollOp* opp = op.get();
    int round = 0;
    for (int k = 1; k < p; k <<= 1, ++round) {
      const int partner = ci.my_rank ^ k;
      CollStage st;
      st.sends.push_back({partner, op->temps[snaps[static_cast<std::size_t>(round)]].get(), bytes});
      st.recvs.push_back({partner, op->temps[rtmps[static_cast<std::size_t>(round)]].get(), bytes});
      const std::size_t rt = rtmps[static_cast<std::size_t>(round)];
      const bool last = (round == nrounds - 1);
      const std::size_t next_snap = last ? 0 : snaps[static_cast<std::size_t>(round + 1)];
      st.on_complete = [opp, rt, accum, dt, rop, count, bytes, last, phantom,
                        next_snap](RankCtx& rc) {
        sim::advance(rc.profile().reduce_cost(bytes));
        apply_op(rop, dt, opp->temps[rt].get(), accum, count);
        if (!last && !phantom) {
          std::memcpy(opp->temps[next_snap].get(), accum, bytes);
        }
      };
      ch.stages.push_back(std::move(st));
    }
  } else {
    // Reduce-to-0 + bcast: the default for one rank and for small vectors
    // on non-power-of-two communicators.
    assert(op->algo == CollAlgo::kReduceBcast);
    CollChain& ch = op->chain(0);
    build_reduce_stages(*op, ch, ci, accum, bytes, dt, rop, /*root=*/0, count,
                        store);
    build_bcast_stages(ch, ci, accum, bytes, /*root=*/0);
  }
  return start_collective(std::move(op));
}

void RankCtx::allreduce(const void* sbuf, void* rbuf, std::size_t count,
                        Datatype dt, Op rop, Comm comm) {
  Request r = iallreduce(sbuf, rbuf, count, dt, rop, comm);
  wait(r);
}

// -------------------------------------------------------------- alltoall ----

Request RankCtx::ialltoall(const void* sbuf, void* rbuf,
                           std::size_t count_per_rank, Datatype dt, Comm comm) {
  MpiEntry entry(*this, "Ialltoall");
  CommInfo& ci = comms_.get(comm);
  const std::size_t blk = count_per_rank * datatype_size(dt);
  const int p = ci.size();
  const int me = ci.my_rank;
  const auto* sb = static_cast<const std::byte*>(sbuf);
  auto* rb = static_cast<std::byte*>(rbuf);
  auto blk_at = [blk](const std::byte* base, int i) -> const std::byte* {
    return base == nullptr ? nullptr : base + static_cast<std::size_t>(i) * blk;
  };
  auto blk_at_mut = [blk](std::byte* base, int i) -> std::byte* {
    return base == nullptr ? nullptr : base + static_cast<std::size_t>(i) * blk;
  };
  auto op = new_op(ci, comm, CollectiveId::kAlltoall,
                   coll_tuner().choose(CollectiveId::kAlltoall, blk, p));

  // Self block: local copy at post time (phantom runs model their data
  // movement separately, so only real buffers are charged).
  if (sb != nullptr && rb != nullptr) {
    sim::advance(profile().copy_cost(blk));
    std::memcpy(rb + static_cast<std::size_t>(me) * blk,
                sb + static_cast<std::size_t>(me) * blk, blk);
  }

  if (op->algo == CollAlgo::kPostAll) {
    // Latency-bound regime: post everything at once.
    CollStage st;
    for (int k = 1; k < p; ++k) {
      const int dst = (me + k) % p;
      const int src = (me - k + p) % p;
      st.sends.push_back({dst, blk_at(sb, dst), blk});
      st.recvs.push_back({src, blk_at_mut(rb, src), blk});
    }
    if (!st.sends.empty() || !st.recvs.empty()) {
      op->chain(0).stages.push_back(std::move(st));
    }
  } else {
    // Bandwidth-bound regime: pairwise sequential exchange bounds the number
    // of concurrent rendezvous flows (what MPICH does for large alltoall).
    assert(op->algo == CollAlgo::kPairwise);
    CollChain& ch = op->chain(0);
    for (int k = 1; k < p; ++k) {
      const int dst = (me + k) % p;
      const int src = (me - k + p) % p;
      CollStage st;
      st.sends.push_back({dst, blk_at(sb, dst), blk});
      st.recvs.push_back({src, blk_at_mut(rb, src), blk});
      ch.stages.push_back(std::move(st));
    }
  }
  return start_collective(std::move(op));
}

void RankCtx::alltoall(const void* sbuf, void* rbuf, std::size_t count_per_rank,
                       Datatype dt, Comm comm) {
  Request r = ialltoall(sbuf, rbuf, count_per_rank, dt, comm);
  wait(r);
}

// ------------------------------------------------------------- allgather ----

Request RankCtx::iallgather(const void* sbuf, void* rbuf,
                            std::size_t count_per_rank, Datatype dt, Comm comm) {
  MpiEntry entry(*this, "Iallgather");
  CommInfo& ci = comms_.get(comm);
  const std::size_t blk = count_per_rank * datatype_size(dt);
  const int p = ci.size();
  const int me = ci.my_rank;
  auto* rb = static_cast<std::byte*>(rbuf);
  auto op = new_op(ci, comm, CollectiveId::kAllgather,
                   coll_tuner().choose(CollectiveId::kAllgather,
                                       blk * static_cast<std::size_t>(p), p));

  if (sbuf != nullptr && rb != nullptr) {
    sim::advance(profile().copy_cost(blk));
    std::memcpy(rb + static_cast<std::size_t>(me) * blk, sbuf, blk);
  }

  assert(op->algo == CollAlgo::kPostAll);
  CollStage st;
  for (int k = 1; k < p; ++k) {
    const int dst = (me + k) % p;
    const int src = (me - k + p) % p;
    st.sends.push_back({dst, at(rb, static_cast<std::size_t>(me) * blk), blk});
    st.recvs.push_back({src, at(rb, static_cast<std::size_t>(src) * blk), blk});
  }
  if (!st.sends.empty() || !st.recvs.empty()) {
    op->chain(0).stages.push_back(std::move(st));
  }
  return start_collective(std::move(op));
}

void RankCtx::allgather(const void* sbuf, void* rbuf, std::size_t count_per_rank,
                        Datatype dt, Comm comm) {
  Request r = iallgather(sbuf, rbuf, count_per_rank, dt, comm);
  wait(r);
}

}  // namespace smpi
