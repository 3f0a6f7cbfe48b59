#include "core/proxy_options.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/env.hpp"
#include "util/spec_parser.hpp"

namespace core {

namespace {

constexpr const char* kEnv = "MPIOFF_PROXY";

// Both separators are accepted (proxies:4 reads naturally next to the
// MPIOFF_SAN-style specs; key=value stays valid everywhere).
util::SpecParser grammar() {
  util::SpecParser g(kEnv, "=:", "proxies");
  g.key("proxies");
  return g;
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
    o.proxy_count = util::SpecParser::parse_count(kEnv, it.value, it.key);
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
