// 4-D hypercubic lattice and processor-grid decomposition for Lattice QCD
// (paper Section 5.1).
//
// Conventions: dimensions ordered (X, Y, Z, T) with X fastest; the MPI ranks
// form a 4-D virtual processor grid; the paper partitions the largest
// dimension first (T, then Z, then Y, then X), one rank per socket.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace qcd {

using Dims = std::array<int, 4>;  ///< {X, Y, Z, T}

inline constexpr int kX = 0, kY = 1, kZ = 2, kT = 3;

/// Column-major linear index of a site inside `dims`.
inline int site_index(const Dims& c, const Dims& dims) {
  return c[kX] + dims[kX] * (c[kY] + dims[kY] * (c[kZ] + dims[kZ] * c[kT]));
}

inline std::int64_t volume(const Dims& d) {
  return static_cast<std::int64_t>(d[0]) * d[1] * d[2] * d[3];
}

/// Factor `nranks` into a 4-D processor grid, assigning prime factors
/// (largest first) to whichever dimension currently has the largest local
/// extent divisible by the factor — ties broken T, Z, Y, X as in the paper.
Dims choose_grid(int nranks, const Dims& global);

/// One rank's view of the decomposition.
class Decomposition {
 public:
  Decomposition(const Dims& global, const Dims& grid, int rank);

  [[nodiscard]] const Dims& global() const { return global_; }
  [[nodiscard]] const Dims& grid() const { return grid_; }
  [[nodiscard]] const Dims& local() const { return local_; }
  [[nodiscard]] int rank() const { return rank_; }

  /// Rank of the neighbor one step along `mu` (dir = +1/-1), periodic.
  [[nodiscard]] int neighbor_rank(int mu, int dir) const;
  /// Is dimension `mu` split across ranks (i.e. needs halo exchange)?
  [[nodiscard]] bool partitioned(int mu) const { return grid_[static_cast<std::size_t>(mu)] > 1; }
  /// Sites on one face orthogonal to `mu`.
  [[nodiscard]] std::int64_t face_sites(int mu) const;
  /// Global coordinate of local site coordinate `c` (no wrap).
  [[nodiscard]] Dims to_global(const Dims& c) const;
  /// Number of local sites.
  [[nodiscard]] std::int64_t local_volume() const { return volume(local_); }
  /// Sites with at least one off-rank neighbor.
  [[nodiscard]] std::int64_t boundary_sites() const;

  static Dims rank_to_coords(int rank, const Dims& grid);
  static int coords_to_rank(const Dims& c, const Dims& grid);

 private:
  Dims global_, grid_, local_, coords_;
  int rank_;
};

}  // namespace qcd
