// Vector clocks for the model checker's happens-before machinery.
//
// One component per model thread (thread 0 is the setup/teardown context
// that runs the spec body outside of Sim::threads()). Clocks are tiny fixed
// arrays: the checker targets 2-4 threads, where exhaustive exploration is
// tractable, so kMaxThreads stays deliberately small.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

namespace chk {

inline constexpr int kMaxThreads = 8;

struct VectorClock {
  std::array<std::uint32_t, kMaxThreads> c{};

  void join(const VectorClock& o) {
    for (int i = 0; i < kMaxThreads; ++i) c[i] = std::max(c[i], o.c[i]);
  }

  void clear() { c.fill(0); }

  [[nodiscard]] std::string str() const {
    std::string s = "[";
    for (int i = 0; i < kMaxThreads; ++i) {
      if (i > 0) s += ',';
      s += std::to_string(c[i]);
    }
    s += ']';
    return s;
  }
};

}  // namespace chk
