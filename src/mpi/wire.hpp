// Wire-message kinds and header layouts shared by p2p.cpp / progress.cpp,
// plus the frame checksum of the reliability sublayer.
//
// Reliability (active only when the profile's FaultSpec is enabled): every
// frame RankCtx::net_send injects carries a per-(src,dst) sequence number, a
// piggybacked cumulative ack, and a checksum over ids + headers + payload.
// The receiver's NIC (hardware context) verifies the checksum and accepts
// only the next in-order sequence number — duplicates and gaps are dropped
// and re-acked. Retransmission is *software*: the sender's go-back-N timers
// are checked only inside progress_poll(), i.e. only while some fiber is
// inside MPI, so recovering from loss is subject to the same asynchrony
// problem the paper studies.
#pragma once

#include <cstdint>
#include <cstring>

#include "machine/network.hpp"

namespace smpi {

/// wire_checksum hashes the kind, so each value is part of the frame format.
enum WireKind : std::uint32_t {
  kWireEager = 1,  ///< h0=ctx, h1=tag, h2=bytes; payload = data
  kWireRts = 2,    ///< h0=ctx, h1=tag, h2=sender req idx, h3=bytes
  kWireCts = 3,    ///< h0=sender req idx, h1=recv req idx
  kWireData = 4,   ///< h0=recv req idx, h1=src buf ptr, h2=sender req idx, h3=bytes
  kWireAck = 8,    ///< pure cumulative ack (unsequenced); only `ack` is meaningful
};

/// FNV-1a over everything the receiver will interpret: ids, kind, headers,
/// sequence/ack numbers, and the inline payload. Computed before injection,
/// verified at delivery *before* any header word is trusted — several kinds
/// carry raw pointers in h1/h2, so a corrupted frame must never get that far.
inline std::uint32_t wire_checksum(const machine::NetMessage& m) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.src)) << 32) |
      static_cast<std::uint32_t>(m.dst));
  mix(m.kind);
  mix(m.h0);
  mix(m.h1);
  mix(m.h2);
  mix(m.h3);
  mix(m.seq);
  mix(m.ack);
  mix(m.payload.size());
  std::size_t i = 0;
  for (; i + 8 <= m.payload.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, m.payload.data() + i, 8);
    mix(w);
  }
  for (; i < m.payload.size(); ++i) {
    mix(std::to_integer<std::uint8_t>(m.payload[i]));
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace smpi
