#include "util/spec_parser.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace util {

SpecParser::SpecParser(std::string env_name, std::string separators,
                       std::string vocabulary)
    : env_(std::move(env_name)),
      separators_(std::move(separators)),
      vocabulary_(std::move(vocabulary)) {}

SpecParser& SpecParser::key(const std::string& name) {
  keys_.push_back(name);
  return *this;
}

void SpecParser::fail(const std::string& what) const {
  throw std::invalid_argument(env_ + ": " + what);
}

std::vector<SpecItem> SpecParser::parse(const std::string& spec) const {
  std::vector<SpecItem> items;
  std::size_t pos = 0;
  const std::string kv_shape =
      "key" + std::string(1, separators_.front()) + "value";
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;  // tolerate trailing/doubled commas
    const std::size_t sep = item.find_first_of(separators_);
    if (sep == std::string::npos) {
      fail("expected " + kv_shape + ", got '" + item + "'");
    }
    const std::string key = item.substr(0, sep);
    const std::string val = item.substr(sep + 1);
    if (key.empty()) {
      fail("malformed token '" + item + "' (expected " + kv_shape + ")");
    }
    if (std::find(keys_.begin(), keys_.end(), key) == keys_.end()) {
      fail("unknown key '" + key + "' (valid: " + vocabulary_ + ")");
    }
    if (std::any_of(items.begin(), items.end(),
                    [&](const SpecItem& it) { return it.key == key; })) {
      fail("duplicate key '" + key + "' (valid: " + vocabulary_ + ")");
    }
    items.push_back(SpecItem{key, val, item});
  }
  return items;
}

// ------------------------------------------------------- value scanners ----

std::size_t SpecParser::parse_count(const std::string& env,
                                    const std::string& v,
                                    const std::string& where) {
  // Digits only: strtoull alone would take a sign ("-1" wraps to 2^64-1),
  // leading blanks, and saturate on overflow.
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE) {
    throw std::invalid_argument(env + ": bad count for '" + where + "': " + v);
  }
  return static_cast<std::size_t>(n);
}

sim::Time SpecParser::parse_duration(const std::string& env,
                                     const std::string& v,
                                     const std::string& where) {
  char* end = nullptr;
  const double n = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || n < 0) {
    throw std::invalid_argument(env + ": bad duration for '" + where +
                                "': " + v);
  }
  const std::string unit(end);
  if (unit.empty() || unit == "ns") {
    return sim::Time(static_cast<std::int64_t>(n));
  }
  if (unit == "us") return sim::Time::from_us(n);
  if (unit == "ms") return sim::Time::from_ms(n);
  if (unit == "s") return sim::Time::from_sec(n);
  throw std::invalid_argument(env + ": bad unit for '" + where + "': " + v);
}

double SpecParser::parse_prob(const std::string& env, const std::string& v,
                              const std::string& where) {
  char* end = nullptr;
  const double p = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    throw std::invalid_argument(env + ": bad probability for '" + where +
                                "': " + v);
  }
  return p;
}

bool SpecParser::parse_bool(const std::string& env, const std::string& v,
                            const std::string& where) {
  if (v == "0") return false;
  if (v == "1") return true;
  throw std::invalid_argument(env + ": key '" + where + "' takes 0 or 1, got '" +
                              v + "'");
}

}  // namespace util
