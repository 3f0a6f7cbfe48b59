// Simulated interconnect.
//
// Model: every rank owns a NIC with one egress and one ingress queue. A
// message departs when the egress link is free, occupies it for
// bytes/bandwidth, traverses the wire (fixed latency), then occupies the
// destination ingress link for bytes/bandwidth before delivery. This
// reproduces the two first-order fabric behaviours the paper's evaluation
// depends on:
//   * per-NIC serialization — alltoall bandwidth per node does not scale
//     with node count (paper Sec. 5.2), incast contends at the receiver;
//   * in-order delivery per (src,dst) pair — MPI's non-overtaking rule.
//
// Crucially the network itself progresses autonomously in virtual time (it
// is hardware), while *software* protocol actions (matching, copies,
// rendezvous handshakes) only happen when a fiber is inside the MPI library.
// That split is what makes the paper's asynchronous-progress problem exist
// in the simulator at all.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "machine/fault.hpp"
#include "machine/profile.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace machine {

/// A wire-level message. The MPI layer defines the meaning of `kind` and the
/// header words; the network treats them opaquely. The reliability fields
/// (seq/ack/checksum) belong to the software sublayer in src/mpi/ — the
/// network never reads them, it only corrupts frames wholesale.
struct NetMessage {
  int src = -1;
  int dst = -1;
  std::uint32_t kind = 0;
  std::uint64_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;  ///< protocol header words
  std::vector<std::byte> payload;                ///< inline (eager) data
  std::size_t wire_bytes = 0;                    ///< bytes charged on the wire
  std::uint64_t seq = 0;       ///< per-(src,dst) sequence number; 0 = unsequenced
  std::uint64_t ack = 0;       ///< cumulative ack: peer received all seq < ack
  std::uint32_t checksum = 0;  ///< frame checksum (see smpi::wire_checksum)
};

/// Recycled storage for eager payloads (NetMessage::payload). A sender fills
/// a payload with fill(); the receive that copies the payload out hands the
/// storage back with recycle(). Free buffers are kept per power-of-two
/// capacity class and a message takes one from its own size's class, so a
/// small message never pins a large buffer. The list holds at most
/// kMaxFreeBytes of capacity: a buffer returned past that bound is freed.
class PayloadPool {
 public:
  static constexpr std::size_t kMaxFreeBytes = std::size_t{16} << 20;

  /// Make `payload` (empty) a copy of [src, src + bytes): one copy, no
  /// zero-fill, into a free buffer of the size's class when one is left.
  void fill(std::vector<std::byte>& payload, const void* src,
            std::size_t bytes);
  /// Take back a payload whose bytes have been consumed.
  void recycle(std::vector<std::byte> payload);

  /// Capacity held by free buffers (never above kMaxFreeBytes).
  [[nodiscard]] std::size_t free_bytes() const { return free_bytes_; }

 private:
  /// free_[k]: buffers whose capacity is at least 2^k and below 2^(k+1).
  std::array<std::vector<std::vector<std::byte>>, 64> free_;
  std::size_t free_bytes_ = 0;
};

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Network {
 public:
  using DeliveryHandler = std::function<void(NetMessage&&)>;

  Network(sim::Engine& engine, const Profile& profile, int nranks);

  /// Register the inbox handler for a rank. The handler runs in scheduler
  /// context at delivery time and must not block.
  void set_delivery_handler(int rank, DeliveryHandler handler);

  /// Inject a message. Called from a fiber or scheduler context at the time
  /// the NIC doorbell rings (CPU cost of the doorbell is charged by the
  /// caller). Transmission and delivery are autonomous from this point.
  void send(NetMessage&& msg);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const Profile& profile() const { return profile_; }
  /// Active fault plan, or nullptr when the profile's FaultSpec is disabled.
  [[nodiscard]] const FaultPlan* faults() const { return faults_.get(); }
  /// Storage for the eager payloads every rank of this network sends.
  [[nodiscard]] PayloadPool& payloads() { return payloads_; }

 private:
  void schedule_delivery(sim::Time when, NetMessage&& msg);

  sim::Engine& engine_;
  Profile profile_;
  int nranks_;
  std::vector<sim::Time> egress_free_;
  std::vector<sim::Time> ingress_free_;
  sim::Time fabric_free_;
  std::vector<DeliveryHandler> handlers_;
  NetworkStats stats_;
  std::unique_ptr<FaultPlan> faults_;
  PayloadPool payloads_;
  /// Per-rank cumulative NIC pause, for the nic.stall_ns trace counter.
  std::vector<sim::Time> stall_accum_;
};

}  // namespace machine
