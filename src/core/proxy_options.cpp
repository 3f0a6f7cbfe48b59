#include "core/proxy_options.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/request_pool.hpp"
#include "util/env.hpp"
#include "util/spec_parser.hpp"

namespace core {

namespace {

constexpr const char* kEnv = "MPIOFF_PROXY";

constexpr const char* kValidKeys =
    "ring, pool, lanes, lane_cap, watchdog, proxies";

// Both separators are accepted (proxies:4 reads naturally next to the
// MPIOFF_SAN-style specs; key=value stays valid everywhere).
util::SpecParser grammar() {
  util::SpecParser g(kEnv, "=:", kValidKeys);
  g.key("ring")
      .key("pool")
      .key("lanes")
      .key("lane_cap")
      .key("watchdog")
      .key("proxies");
  return g;
}

std::size_t count_of(const util::SpecItem& it) {
  return util::SpecParser::parse_count(kEnv, it.value, it.key);
}

// Rings and lanes index their cells by mask.
std::size_t power_of_two_of(const util::SpecItem& it) {
  const std::size_t n = count_of(it);
  if (n < 2 || (n & (n - 1)) != 0) {
    throw std::invalid_argument(std::string(kEnv) + ": '" + it.key +
                                "' must be a power of two >= 2, got " +
                                it.value);
  }
  return n;
}

// Pool slots are 32-bit indices, and RequestPool::kNil ends the free list.
std::uint32_t pool_size_of(const util::SpecItem& it) {
  const std::size_t n = count_of(it);
  if (n == 0 || n >= RequestPool::kNil) {
    throw std::invalid_argument(std::string(kEnv) +
                                ": 'pool' must be in [1, " +
                                std::to_string(RequestPool::kNil) + "), got " +
                                it.value);
  }
  return static_cast<std::uint32_t>(n);
}

}  // namespace

ProxyOptions ProxyOptions::defaults_for(const machine::Profile& p) {
  ProxyOptions o;
  // One lane per core that could plausibly submit (everything except the
  // offload core itself), capped: past ~16 submitters the engine's drain
  // round, not tail contention, is the limiter.
  o.lane_count = static_cast<std::size_t>(
      std::clamp(p.cores_per_rank - 1, 1, 16));
  // One engine fiber per NUMA domain: each proxy serves its socket's
  // submitters; rank-per-socket profiles stay single-engine.
  o.proxy_count = static_cast<std::size_t>(std::clamp(p.numa_domains, 1, 8));
  return o;
}

ProxyOptions ProxyOptions::parse(const std::string& spec, ProxyOptions base) {
  ProxyOptions o = base;
  for (const util::SpecItem& it : grammar().parse(spec)) {
    if (it.key == "ring") {
      o.ring_capacity = power_of_two_of(it);
    } else if (it.key == "pool") {
      o.pool_capacity = pool_size_of(it);
    } else if (it.key == "lanes") {
      o.lane_count = count_of(it);
    } else if (it.key == "lane_cap") {
      o.lane_capacity = power_of_two_of(it);
    } else if (it.key == "watchdog") {
      o.watchdog_budget =
          util::SpecParser::parse_duration(kEnv, it.value, it.key);
    } else if (it.key == "proxies") {
      o.proxy_count = count_of(it);
    }
  }
  if (o.proxy_count == 0) {
    throw std::invalid_argument("MPIOFF_PROXY: 'proxies' must be at least 1");
  }
  return o;
}

ProxyOptions ProxyOptions::from_env(const machine::Profile& p) {
  ProxyOptions o = defaults_for(p);
  if (const char* spec = env_util::get("MPIOFF_PROXY"); spec != nullptr) {
    o = parse(spec, o);
  }
  return o;
}

}  // namespace core
