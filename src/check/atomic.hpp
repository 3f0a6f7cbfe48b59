// chk::atomic / chk::var — the instrumented atomics policy.
//
// Drop-in replacements for std::atomic and plain members, usable only inside
// a chk::explore() body. Every access traps into the running Checker, which
// turns it into a scheduling point (atomics) or a happens-before-checked
// event (vars). chk::ModelAtomics packages them as a core:: atomics policy so
// the *production* MpscRing / RequestPoolT templates run unmodified under the
// model checker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "check/checker.hpp"

namespace chk {

namespace detail {

inline Checker& ck() {
  Checker* c = Checker::current();
  if (c == nullptr) {
    throw std::logic_error(
        "chk::atomic / chk::var used outside a chk::explore body");
  }
  return *c;
}

inline std::memory_order cas_failure_order(std::memory_order success) {
  switch (success) {
    case std::memory_order_acq_rel:
      return std::memory_order_acquire;
    case std::memory_order_release:
      return std::memory_order_relaxed;
    default:
      return success;
  }
}

}  // namespace detail

/// Model atomic. Holds no value itself: the Checker keeps the location's
/// full modification order so loads can legally return stale values.
/// Pointers are modelled by the order in which this location first met them
/// (0 = nullptr, then 1, 2, ...), so traces read the same from run to run.
template <class T>
class atomic {
  static_assert((std::is_integral_v<T> &&
                 sizeof(T) <= sizeof(std::uint64_t)) ||
                    std::is_pointer_v<T>,
                "chk::atomic models integers up to 64 bits and pointers");

 public:
  atomic() : atomic(T{}) {}
  atomic(T v)  // NOLINT(google-explicit-constructor): mirrors std::atomic
      : loc_(detail::ck().register_loc(false, to_u64(v))) {}

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    return from_u64(detail::ck().atomic_load(loc_, mo));
  }
  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    detail::ck().atomic_store(loc_, to_u64(v), mo);
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order success,
                             std::memory_order failure) {
    std::uint64_t e = to_u64(expected);
    const bool ok =
        detail::ck().atomic_cas(loc_, e, to_u64(desired), success, failure);
    if (!ok) expected = from_u64(e);
    return ok;
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order mo = std::memory_order_seq_cst) {
    return compare_exchange_weak(expected, desired, mo,
                                 detail::cas_failure_order(mo));
  }
  // The model has no spurious CAS failures, so strong == weak.
  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) {
    return compare_exchange_weak(expected, desired, success, failure);
  }
  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    return compare_exchange_weak(expected, desired, mo);
  }
  T fetch_add(T delta, std::memory_order mo = std::memory_order_seq_cst) {
    return from_u64(detail::ck().atomic_fetch_add(loc_, to_u64(delta), mo));
  }
  T fetch_or(T bits, std::memory_order mo = std::memory_order_seq_cst) {
    return from_u64(detail::ck().atomic_fetch_or(loc_, to_u64(bits), mo));
  }

  [[nodiscard]] int loc() const { return loc_; }

 private:
  std::uint64_t to_u64(T v) {
    if constexpr (std::is_pointer_v<T>) {
      if (v == nullptr) return 0;
      for (std::size_t i = 0; i < ptrs_.size(); ++i) {
        if (ptrs_[i] == v) return i + 1;
      }
      ptrs_.push_back(v);
      return ptrs_.size();
    } else {
      return static_cast<std::uint64_t>(
          static_cast<std::make_unsigned_t<T>>(v));
    }
  }
  T from_u64(std::uint64_t v) const {
    if constexpr (std::is_pointer_v<T>) {
      return v == 0 ? nullptr : ptrs_[v - 1];
    } else {
      return static_cast<T>(v);
    }
  }

  // Pointer values met, by model value - 1. Declared before loc_: the
  // constructor's to_u64 runs while loc_ is initialised.
  std::vector<T> ptrs_;
  int loc_;
};

/// Model wrapper for plain shared data. The value lives here (arbitrary T),
/// but every access is reported to the vector-clock race detector.
template <class T>
class var {
 public:
  var() : loc_(detail::ck().register_loc(true, 0)) {}

  var(const var&) = delete;
  var& operator=(const var&) = delete;

  T& ref_w() {
    detail::ck().var_write(loc_);
    return value_;
  }
  const T& ref_r() const {
    detail::ck().var_read(loc_);
    return value_;
  }

  [[nodiscard]] int loc() const { return loc_; }

 private:
  int loc_;
  T value_{};
};

/// core:: atomics policy backed by the model checker.
struct ModelAtomics {
  template <class T>
  using atomic = chk::atomic<T>;

  template <class T>
  using var = chk::var<T>;

  template <class T>
  static void set_name(const atomic<T>& a, const char* base, std::size_t idx) {
    detail::ck().set_loc_name(a.loc(), base, idx, /*indexed=*/true);
  }
  template <class T>
  static void set_name(const atomic<T>& a, const char* base) {
    detail::ck().set_loc_name(a.loc(), base, 0, /*indexed=*/false);
  }
  template <class T>
  static void set_name(const var<T>& v, const char* base, std::size_t idx) {
    detail::ck().set_loc_name(v.loc(), base, idx, /*indexed=*/true);
  }
  template <class T>
  static void set_name(const var<T>& v, const char* base) {
    detail::ck().set_loc_name(v.loc(), base, 0, /*indexed=*/false);
  }
};

}  // namespace chk
