// Internal representation of nonblocking operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mpi/coll_op.hpp"
#include "mpi/matching.hpp"
#include "mpi/types.hpp"

namespace smpi {

enum class ReqKind : std::uint8_t {
  kNull,
  kSendEager,  ///< complete at post time (data buffered/injected)
  kSendRndv,   ///< RTS -> CTS -> DMA; completes when DMA has drained
  kRecv,
  kColl,       ///< nonblocking collective driven by a schedule
};

struct RequestImpl {
  int idx = 0;  ///< handle value (self index in the table)
  ReqKind kind = ReqKind::kNull;
  bool active = false;    ///< slot in use
  bool complete = false;  ///< user-visible completion
  Status status;          ///< source/tag/bytes for receives

  // ---- receive fields ----
  void* rbuf = nullptr;
  std::size_t rbytes = 0;      ///< capacity of rbuf
  std::uint32_t ctx = 0;       ///< matching triple (with wildcards)
  int src_global = kAnySource;
  int tag = kAnyTag;
  Comm comm{};                 ///< for translating status.source
  bool matched_rndv = false;   ///< CTS sent, waiting for DMA
  bool data_arrived = false;   ///< set by the "NIC" when all DMA chunks land
  std::size_t rndv_received = 0;  ///< bytes landed so far (chunks in order)
  /// Posted by a collective schedule: the buffer is schedule-owned and
  /// registered, so an eager arrival lands by NIC DMA (no CPU copy charge).
  bool coll_internal = false;

  // ---- rendezvous-send fields ----
  const void* sbuf = nullptr;
  std::size_t sbytes = 0;
  int dst_global = -1;
  bool cts_received = false;      ///< processed by sender's progress
  std::uint64_t peer_rreq = 0;    ///< receiver's request index (from CTS)
  std::size_t dma_sent = 0;       ///< bytes injected so far
  std::size_t dma_delivered = 0;  ///< bytes the NIC reported delivered

  // ---- collective ----
  std::unique_ptr<CollOp> coll;

  // ---- persistent envelope (MPI_Send_init / MPI_Recv_init) ----
  // Captured once at init time and replayed by every Start; survives
  // reset_transfer_state() so one table slot serves many generations.
  bool persistent = false;
  bool p_started = false;  ///< a generation is active (or complete, unwaited)
  bool p_send = false;
  const void* p_buf = nullptr;  ///< send-side user buffer
  void* p_rbuf = nullptr;       ///< recv-side user buffer
  std::size_t p_bytes = 0;
  int p_peer = -1;  ///< global rank, kProcNull, or kAnySource (recv)
  std::uint32_t p_ctx = 0;
  int p_tag = 0;
  Comm p_comm{};

  /// A request the completion calls may settle: complete, or a persistent
  /// request with no generation in flight (MPI treats inactive persistent
  /// requests as trivially complete with an empty status).
  [[nodiscard]] bool settled() const {
    return complete || (persistent && !p_started);
  }

  /// Clear one generation's transfer state, preserving the slot identity and
  /// the persistent envelope. Called by Start before re-posting.
  void reset_transfer_state() {
    kind = ReqKind::kNull;
    complete = false;
    status = Status{};
    rbuf = nullptr;
    rbytes = 0;
    ctx = 0;
    src_global = kAnySource;
    tag = kAnyTag;
    comm = Comm{};
    matched_rndv = data_arrived = false;
    coll_internal = false;
    sbuf = nullptr;
    sbytes = 0;
    dst_global = -1;
    cts_received = false;
    peer_rreq = 0;
    dma_sent = dma_delivered = 0;
    rndv_received = 0;
  }
};

/// Per-rank request table. Handles are indices; 0 is reserved for the null
/// request. Freed slots are recycled through a free list.
class RequestTable {
 public:
  RequestTable() {
    slots_.push_back(std::make_unique<RequestImpl>());  // null request
    slots_[0]->idx = 0;
  }

  RequestImpl& alloc() {
    int idx = static_cast<int>(slots_.size());
    if (free_.empty()) {
      slots_.push_back(std::make_unique<RequestImpl>());
    } else {
      idx = free_.back();
      free_.pop_back();
      *slots_[static_cast<std::size_t>(idx)] = RequestImpl{};
    }
    RequestImpl& r = *slots_[static_cast<std::size_t>(idx)];
    r.idx = idx;
    r.active = true;
    return r;
  }

  RequestImpl& get(Request h) { return *slots_.at(static_cast<std::size_t>(h.idx)); }
  const RequestImpl& get(Request h) const {
    return *slots_.at(static_cast<std::size_t>(h.idx));
  }

  void release(RequestImpl& r) {
    if (r.idx == 0) return;
    r.active = false;
    free_.push_back(r.idx);
  }

  [[nodiscard]] std::size_t active_count() const {
    return slots_.size() - 1 - free_.size();
  }

 private:
  std::vector<std::unique_ptr<RequestImpl>> slots_;
  std::vector<int> free_;
};

}  // namespace smpi
