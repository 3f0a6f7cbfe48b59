#include "machine/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "trace/scope.hpp"
#include "trace/tracer.hpp"

namespace machine {

namespace {
/// Minimum bytes a message occupies on the wire (headers/flits).
constexpr std::size_t kMinWireBytes = 64;

/// Flip one bit of the frame, chosen by `pick`. Payload bits if the frame
/// carries data inline, header words otherwise — either way the damage is
/// detectable only by the end-to-end checksum.
void corrupt_frame(NetMessage& m, std::uint64_t pick) {
  if (!m.payload.empty()) {
    const std::uint64_t bit = pick % (m.payload.size() * 8);
    m.payload[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
    return;
  }
  std::uint64_t* words[] = {&m.h0, &m.h1, &m.h2, &m.h3};
  *words[(pick / 64) % 4] ^= 1ull << (pick % 64);
}
}  // namespace

void PayloadPool::fill(std::vector<std::byte>& payload, const void* src,
                       std::size_t bytes) {
  if (bytes == 0) return;
  // The smallest class whose every buffer holds `bytes`.
  auto& list = free_[std::bit_width(bytes - 1)];
  if (list.empty()) {
    payload.reserve(std::bit_ceil(bytes));
  } else {
    payload = std::move(list.back());
    list.pop_back();
    free_bytes_ -= payload.capacity();
  }
  const auto* p = static_cast<const std::byte*>(src);
  payload.assign(p, p + bytes);
}

void PayloadPool::recycle(std::vector<std::byte> payload) {
  const std::size_t cap = payload.capacity();
  if (cap == 0 || cap > kMaxFreeBytes - free_bytes_) return;
  payload.clear();
  free_[std::bit_width(cap) - 1].push_back(std::move(payload));
  free_bytes_ += cap;
}

Network::Network(sim::Engine& engine, const Profile& profile, int nranks)
    : engine_(engine),
      profile_(profile),
      nranks_(nranks),
      egress_free_(static_cast<std::size_t>(nranks), sim::Time::zero()),
      ingress_free_(static_cast<std::size_t>(nranks), sim::Time::zero()),
      handlers_(static_cast<std::size_t>(nranks)) {
  if (profile_.faults.enabled()) {
    faults_ = std::make_unique<FaultPlan>(profile_.faults, nranks,
                                          profile_.net_latency);
    stall_accum_.assign(static_cast<std::size_t>(nranks), sim::Time::zero());
  }
  auto& tr = trace::Tracer::instance();
  for (int r = 0; r < nranks; ++r) {
    tr.name_thread(r, trace::kHwTid, "hw");
    tr.name_thread(r, trace::kNicTxTid, "nic.tx");
    tr.name_thread(r, trace::kNicRxTid, "nic.rx");
  }
}

void Network::set_delivery_handler(int rank, DeliveryHandler handler) {
  handlers_.at(static_cast<std::size_t>(rank)) = std::move(handler);
}

void Network::schedule_delivery(sim::Time when, NetMessage&& msg) {
  // The handler lookup is deferred to delivery time so handlers can be
  // (re)registered while traffic is in flight.
  auto boxed = std::make_shared<NetMessage>(std::move(msg));
  engine_.call_at(when, [this, boxed]() {
    auto& h = handlers_[static_cast<std::size_t>(boxed->dst)];
    if (!h) {
      throw std::logic_error("network delivery to rank without handler");
    }
    h(std::move(*boxed));
  });
}

void Network::send(NetMessage&& msg) {
  assert(msg.src >= 0 && msg.src < nranks_);
  assert(msg.dst >= 0 && msg.dst < nranks_);
  FaultDecision fd;
  if (faults_ != nullptr) fd = faults_->decide(msg.src, msg.dst);
  const std::size_t wire = std::max(msg.wire_bytes, kMinWireBytes);
  const sim::Time ser = profile_.wire_cost(wire);
  const sim::Time now = engine_.now();

  ++stats_.messages;
  stats_.bytes += wire;

  auto& eg = egress_free_[static_cast<std::size_t>(msg.src)];
  if (fd.egress_stall > sim::Time::zero()) {
    // The source NIC pauses (link-level flow control, firmware hiccup):
    // everything queued behind this frame is pushed out too.
    eg = std::max(now, eg) + fd.egress_stall;
    stall_accum_[static_cast<std::size_t>(msg.src)] += fd.egress_stall;
    trace::instant(msg.src, trace::kNicTxTid, "fault:stall", "net");
    trace::counter(msg.src, "nic.stall_ns",
                   static_cast<double>(
                       stall_accum_[static_cast<std::size_t>(msg.src)].ns()));
  }
  const sim::Time depart = std::max(now, eg);
  eg = depart + ser;

  if (fd.drop) {
    // Lost in the fabric after serialization: the sender's NIC did its work,
    // nothing ever reaches the destination. Recovery (if any) is software.
    trace::instant(msg.src, trace::kNicTxTid, "fault:drop", "net");
    return;
  }

  // Shared-fabric constraint: the message also occupies the aggregate
  // bisection for bytes/bisection_bw (tapered networks only).
  sim::Time reach = depart + ser + profile_.net_latency;
  if (profile_.bisection_bytes_per_ns > 0) {
    const sim::Time fser(static_cast<std::int64_t>(
        static_cast<double>(wire) / profile_.bisection_bytes_per_ns));
    const sim::Time fstart = std::max(depart + ser, fabric_free_);
    fabric_free_ = fstart + fser;
    reach = std::max(reach, fabric_free_ + profile_.net_latency);
  }

  auto& in = ingress_free_[static_cast<std::size_t>(msg.dst)];
  if (fd.ingress_stall > sim::Time::zero()) {
    in = std::max(reach, in) + fd.ingress_stall;
    stall_accum_[static_cast<std::size_t>(msg.dst)] += fd.ingress_stall;
    trace::instant(msg.dst, trace::kNicRxTid, "fault:stall", "net");
    trace::counter(msg.dst, "nic.stall_ns",
                   static_cast<double>(
                       stall_accum_[static_cast<std::size_t>(msg.dst)].ns()));
  }
  const sim::Time occupied = std::max(reach, in + ser);
  in = occupied;
  // Delay/reorder jitter happens "in the fabric": it postpones this frame's
  // delivery without holding the ingress link, so later frames can overtake.
  const sim::Time deliver = occupied + fd.delay;

  if (trace::Tracer::on()) {
    auto& tr = trace::Tracer::instance();
    char label[48];
    std::snprintf(label, sizeof label, "wire %zuB >%d", wire, msg.dst);
    // Egress: head-of-line queueing (if the NIC was busy) then serialization.
    if (depart > now) {
      tr.complete(now.ns(), (depart - now).ns(), msg.src, trace::kNicTxTid,
                  "queue", "net");
    }
    tr.complete(depart.ns(), ser.ns(), msg.src, trace::kNicTxTid, label, "net");
    // Ingress occupancy ending at delivery.
    std::snprintf(label, sizeof label, "wire %zuB <%d", wire, msg.src);
    tr.complete((occupied - ser).ns(), ser.ns(), msg.dst, trace::kNicRxTid,
                label, "net");
  }

  if (fd.dup) {
    // Ghost copy, delivered slightly later; it carries the pre-corruption
    // bits so dup+corrupt still lands one intact frame.
    NetMessage copy = msg;
    trace::instant(msg.dst, trace::kNicRxTid, "fault:dup", "net");
    schedule_delivery(deliver + fd.dup_delay, std::move(copy));
  }
  if (fd.corrupt) {
    corrupt_frame(msg, fd.corrupt_bit);
    trace::instant(msg.dst, trace::kNicRxTid, "fault:corrupt", "net");
  }
  schedule_delivery(deliver, std::move(msg));
}

}  // namespace machine
