#include "mpi/datatype.hpp"

#include <algorithm>
#include <complex>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace smpi {

std::size_t datatype_size(Datatype dt) {
  switch (dt) {
    case Datatype::kByte:
    case Datatype::kChar:
      return 1;
    case Datatype::kInt:
      return sizeof(int);
    case Datatype::kLong:
      return sizeof(long);
    case Datatype::kFloat:
      return sizeof(float);
    case Datatype::kDouble:
      return sizeof(double);
    case Datatype::kComplexFloat:
      return sizeof(std::complex<float>);
    case Datatype::kComplexDouble:
      return sizeof(std::complex<double>);
  }
  throw std::logic_error("unknown datatype");
}

namespace {

template <typename T>
void apply_typed(Op op, const T* in, T* inout, std::size_t n) {
  switch (op) {
    case Op::kSum:
      for (std::size_t i = 0; i < n; ++i) inout[i] = inout[i] + in[i];
      return;
    case Op::kProd:
      for (std::size_t i = 0; i < n; ++i) inout[i] = inout[i] * in[i];
      return;
    case Op::kMax:
      if constexpr (requires(T a, T b) { a < b; }) {
        for (std::size_t i = 0; i < n; ++i) inout[i] = std::max(inout[i], in[i]);
        return;
      }
      break;
    case Op::kMin:
      if constexpr (requires(T a, T b) { a < b; }) {
        for (std::size_t i = 0; i < n; ++i) inout[i] = std::min(inout[i], in[i]);
        return;
      }
      break;
  }
  throw std::invalid_argument("reduction op not supported for datatype");
}

}  // namespace

void apply_op(Op op, Datatype dt, const void* in, void* inout, std::size_t count) {
  if (in == nullptr || inout == nullptr) return;  // phantom buffers: timing only
  switch (dt) {
    case Datatype::kByte:
    case Datatype::kChar:
      apply_typed(op, static_cast<const std::uint8_t*>(in),
                  static_cast<std::uint8_t*>(inout), count);
      return;
    case Datatype::kInt:
      apply_typed(op, static_cast<const int*>(in), static_cast<int*>(inout), count);
      return;
    case Datatype::kLong:
      apply_typed(op, static_cast<const long*>(in), static_cast<long*>(inout), count);
      return;
    case Datatype::kFloat:
      apply_typed(op, static_cast<const float*>(in), static_cast<float*>(inout), count);
      return;
    case Datatype::kDouble:
      apply_typed(op, static_cast<const double*>(in), static_cast<double*>(inout), count);
      return;
    case Datatype::kComplexFloat:
      apply_typed(op, static_cast<const std::complex<float>*>(in),
                  static_cast<std::complex<float>*>(inout), count);
      return;
    case Datatype::kComplexDouble:
      apply_typed(op, static_cast<const std::complex<double>*>(in),
                  static_cast<std::complex<double>*>(inout), count);
      return;
  }
  throw std::logic_error("unknown datatype");
}

void check_reduce_op(const char* call, Op op, Datatype dt) {
  const bool complex =
      dt == Datatype::kComplexFloat || dt == Datatype::kComplexDouble;
  if (complex && (op == Op::kMax || op == Op::kMin)) {
    throw std::invalid_argument(std::string(call) +
                                ": kMax and kMin are not defined for a "
                                "complex datatype (only kSum and kProd are)");
  }
}

void check_reduce_buffers(const char* call, const void* sbuf, const void* rbuf,
                          std::size_t bytes) {
  if (sbuf == nullptr || rbuf == nullptr || sbuf == rbuf) return;
  // std::less gives a total order over unrelated pointers.
  const auto* s = static_cast<const std::byte*>(sbuf);
  const auto* r = static_cast<const std::byte*>(rbuf);
  const std::less<const std::byte*> before;
  if (before(s, r + bytes) && before(r, s + bytes)) {
    throw std::invalid_argument(std::string(call) +
                                ": sbuf and rbuf overlap without being the "
                                "same buffer (only sbuf == rbuf is in place)");
  }
}

}  // namespace smpi
