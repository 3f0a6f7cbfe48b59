// Public types and constants of SimMPI, the simulator-hosted MPI subset.
//
// Naming follows the MPI standard closely (ANY_SOURCE, Status fields, thread
// levels) so that code written against SimMPI reads like MPI code; handles
// are small value types rather than opaque pointers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smpi {

// ---- wildcards & special ranks ----
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
inline constexpr int kProcNull = -2;

/// MPI_Init_thread levels. kFunneled: the library takes no lock, and two
/// fibers of a rank inside it at once is a usage error (a rank's offload
/// engines, registered as progress sharers, excepted). kMultiple: any fiber
/// may call at any time; the global lock that mainstream MPIs use
/// serializes the calls.
enum class ThreadLevel : std::uint8_t {
  kFunneled,
  kMultiple,
};

/// Basic datatypes (contiguous only; derived datatypes are out of scope —
/// the paper's benchmarks and apps use contiguous buffers).
enum class Datatype : std::uint8_t {
  kByte,
  kChar,
  kInt,
  kLong,
  kFloat,
  kDouble,
  kComplexFloat,
  kComplexDouble,
};

/// Reduction operations (all commutative, so every schedule may combine in
/// any rank order).
enum class Op : std::uint8_t {
  kSum,
  kProd,
  kMax,
  kMin,
};

/// Communicator handle; value type, valid within one rank.
struct Comm {
  int idx = -1;
  [[nodiscard]] bool valid() const { return idx >= 0; }
  friend bool operator==(Comm a, Comm b) { return a.idx == b.idx; }
};

inline constexpr Comm kCommWorld{0};
inline constexpr Comm kCommSelf{1};
inline constexpr Comm kCommNull{-1};

/// Request handle; value type, valid within one rank. Index 0 is the null
/// request (complete, inactive).
struct Request {
  int idx = 0;
  [[nodiscard]] bool is_null() const { return idx == 0; }
  friend bool operator==(Request a, Request b) { return a.idx == b.idx; }
};

inline constexpr Request kRequestNull{0};

/// Completion status of a receive (or probe).
struct Status {
  int source = kAnySource;  ///< rank within the receive's communicator
  int tag = kAnyTag;
  std::uint64_t bytes = 0;  ///< received byte count
};

/// Size in bytes of one element of `dt`.
std::size_t datatype_size(Datatype dt);

}  // namespace smpi
