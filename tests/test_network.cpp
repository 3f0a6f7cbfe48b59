// Tests for the interconnect model: latency, serialization, ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "machine/network.hpp"
#include "sim/engine.hpp"

using namespace sim;
using namespace sim::literals;
using machine::NetMessage;
using machine::Network;

namespace {

NetMessage msg(int src, int dst, std::uint64_t id, std::size_t bytes) {
  NetMessage m;
  m.src = src;
  m.dst = dst;
  m.h0 = id;
  m.wire_bytes = bytes;
  return m;
}

}  // namespace

TEST(Network, SmallMessageLatencyIsWireLatencyPlusMinFrame) {
  Engine e;
  auto prof = machine::xeon_fdr();
  Network net(e, prof, 2);
  Time arrival;
  net.set_delivery_handler(1, [&](NetMessage&&) { arrival = e.now(); });
  net.set_delivery_handler(0, [](NetMessage&&) {});
  e.spawn("s", [&] { net.send(msg(0, 1, 1, 8)); });
  e.run();
  // 64B minimum frame at 6 B/ns = 10ns serialization + 700ns latency.
  EXPECT_EQ(arrival.ns(), prof.net_latency.ns() + prof.wire_cost(64).ns());
}

TEST(Network, LargeMessageIsBandwidthBound) {
  Engine e;
  auto prof = machine::xeon_fdr();
  Network net(e, prof, 2);
  Time arrival;
  net.set_delivery_handler(1, [&](NetMessage&&) { arrival = e.now(); });
  const std::size_t mb = 1 << 20;
  e.spawn("s", [&] { net.send(msg(0, 1, 1, mb)); });
  e.run();
  const double gbps = static_cast<double>(mb) / static_cast<double>(arrival.ns());
  EXPECT_NEAR(gbps, prof.net_bytes_per_ns, 0.1);
}

TEST(Network, EgressSerializesBackToBackSends) {
  Engine e;
  auto prof = machine::xeon_fdr();
  Network net(e, prof, 3);
  std::vector<std::int64_t> arrivals;
  net.set_delivery_handler(1, [&](NetMessage&&) { arrivals.push_back(e.now().ns()); });
  net.set_delivery_handler(2, [&](NetMessage&&) { arrivals.push_back(e.now().ns()); });
  const std::size_t big = 600000;  // 100us serialization each
  e.spawn("s", [&] {
    net.send(msg(0, 1, 1, big));
    net.send(msg(0, 2, 2, big));  // must queue behind the first on egress
  });
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const auto ser = prof.wire_cost(big).ns();
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]),
              static_cast<double>(ser), static_cast<double>(ser) * 0.05);
}

TEST(Network, IncastContendsAtReceiverIngress) {
  Engine e;
  auto prof = machine::xeon_fdr();
  Network net(e, prof, 5);
  std::vector<std::int64_t> arrivals;
  net.set_delivery_handler(0, [&](NetMessage&&) { arrivals.push_back(e.now().ns()); });
  const std::size_t big = 600000;
  for (int s = 1; s <= 4; ++s) {
    e.spawn("s", [&, s] { net.send(msg(s, 0, static_cast<std::uint64_t>(s), big)); });
  }
  e.run();
  ASSERT_EQ(arrivals.size(), 4u);
  // All four senders inject in parallel, but the receiver NIC drains them
  // one serialization time apart.
  const auto ser = prof.wire_cost(big).ns();
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE(arrivals[i] - arrivals[i - 1], ser * 9 / 10);
  }
}

TEST(Network, InOrderPerSourceDestinationPair) {
  Engine e;
  Network net(e, machine::xeon_fdr(), 2);
  std::vector<std::uint64_t> ids;
  net.set_delivery_handler(1, [&](NetMessage&& m) { ids.push_back(m.h0); });
  e.spawn("s", [&] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      net.send(msg(0, 1, i, (i % 2 == 0) ? 100000 : 64));
    }
  });
  e.run();
  ASSERT_EQ(ids.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(ids[i], i);
}

TEST(Network, StatsAccumulate) {
  Engine e;
  Network net(e, machine::xeon_fdr(), 2);
  net.set_delivery_handler(1, [](NetMessage&&) {});
  e.spawn("s", [&] {
    net.send(msg(0, 1, 0, 1000));
    net.send(msg(0, 1, 1, 1000));
  });
  e.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 2000u);
}

TEST(Network, PayloadCarriedIntact) {
  Engine e;
  Network net(e, machine::xeon_fdr(), 2);
  std::vector<std::byte> got;
  net.set_delivery_handler(1, [&](NetMessage&& m) { got = std::move(m.payload); });
  e.spawn("s", [&] {
    NetMessage m = msg(0, 1, 7, 256);
    m.payload.resize(256);
    for (int i = 0; i < 256; ++i) m.payload[static_cast<std::size_t>(i)] = static_cast<std::byte>(i);
    net.send(std::move(m));
  });
  e.run();
  ASSERT_EQ(got.size(), 256u);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], static_cast<std::byte>(i));
}

TEST(PayloadPool, ReusesStorageBySizeClassWithinItsBound) {
  machine::PayloadPool pool;
  std::vector<std::byte> src(200 * 1024);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 7 + 1);
  }
  const auto holds = [&](const std::vector<std::byte>& p, std::size_t n) {
    return p.size() == n && std::equal(p.begin(), p.end(), src.begin());
  };
  std::vector<std::byte> big, small;
  pool.fill(big, src.data(), 100 * 1024);
  ASSERT_TRUE(holds(big, 100 * 1024));
  EXPECT_EQ(big.capacity(), std::size_t{128} * 1024);  // its class, 2^17
  const std::byte* storage = big.data();
  pool.recycle(std::move(big));
  EXPECT_EQ(pool.free_bytes(), std::size_t{128} * 1024);

  // A small message does not take the 128 KiB buffer ...
  pool.fill(small, src.data(), 100);
  ASSERT_TRUE(holds(small, 100));
  EXPECT_LT(small.capacity(), std::size_t{1} << 10);
  EXPECT_EQ(pool.free_bytes(), std::size_t{128} * 1024);
  // ... a message of its class does, and gets exactly its own bytes.
  std::vector<std::byte> again;
  pool.fill(again, src.data(), 65 * 1024);
  EXPECT_EQ(again.data(), storage);
  ASSERT_TRUE(holds(again, 65 * 1024));
  EXPECT_EQ(pool.free_bytes(), 0u);

  // A buffer whose capacity is not a power of two (a retransmit copy)
  // serves only sizes it can hold without growing.
  std::vector<std::byte> odd(src.begin(), src.begin() + 100 * 1024);
  pool.recycle(std::move(odd));
  std::vector<std::byte> fits, too_big;
  pool.fill(too_big, src.data(), 100 * 1024);  // class 2^17: not served
  EXPECT_EQ(pool.free_bytes(), std::size_t{100} * 1024);
  pool.fill(fits, src.data(), 64 * 1024);  // class 2^16: served
  EXPECT_EQ(pool.free_bytes(), 0u);
  ASSERT_TRUE(holds(fits, 64 * 1024));
  ASSERT_TRUE(holds(too_big, 100 * 1024));

  // Buffers returned past the bound are freed, not kept.
  constexpr std::size_t kBuf = std::size_t{1} << 20;
  for (std::size_t i = 0; i < machine::PayloadPool::kMaxFreeBytes / kBuf + 3;
       ++i) {
    std::vector<std::byte> b;
    b.reserve(kBuf);
    pool.recycle(std::move(b));
    EXPECT_LE(pool.free_bytes(), machine::PayloadPool::kMaxFreeBytes);
  }
  EXPECT_EQ(pool.free_bytes(), machine::PayloadPool::kMaxFreeBytes);
}

TEST(Profile, MachineProfilesAreOrdered) {
  const auto xeon = machine::xeon_fdr();
  const auto phi = machine::xeon_phi();
  // The Phi's software paths must be uniformly slower than the Xeon's:
  // this ordering is what produces the paper's Fig. 8 vs Fig. 7 contrast.
  EXPECT_GT(phi.mpi_call_overhead.ns(), xeon.mpi_call_overhead.ns());
  EXPECT_GT(phi.cmd_enqueue.ns(), xeon.cmd_enqueue.ns());
  EXPECT_GT(phi.thread_multiple_entry.ns(), xeon.thread_multiple_entry.ns());
  EXPECT_LT(phi.copy_bytes_per_ns, xeon.copy_bytes_per_ns);
  EXPECT_GT(phi.cores_per_rank, xeon.cores_per_rank);
}
