// Wilson-Dslash-style lattice operator (paper Section 5.1).
//
// Data model: a spinor carries 4 spins x 3 colors of complex<float> per
// site; gauge links are 3x3 complex matrices per site and direction. The
// operator implemented is the gauge-covariant central-difference hopping
// term
//     D psi(x) = sum_mu [ U_mu(x) psi(x+mu) + U_mu(x-mu)^dag psi(x-mu) ]
// applied per spin component. Compared to the full Wilson-Dslash it omits
// the spin-projection algebra (which halves the transferred spinor), but has
// the identical nearest-neighbor data movement, halo-exchange communication
// pattern, and comparable arithmetic intensity. This simplified D is
// Hermitian. Performance experiments use the paper's Wilson-Dslash figure
// of 1320 flops/site.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "apps/qcd/lattice.hpp"
#include "core/proxy.hpp"
#include "mpi/rank_ctx.hpp"

namespace qcd {

using cf = std::complex<float>;

inline constexpr int kSpins = 4;
inline constexpr int kColors = 3;
inline constexpr int kSpinorFloats = kSpins * kColors;  // complex entries/site
inline constexpr int kLinkEntries = kColors * kColors;

/// Paper figure for full Wilson-Dslash arithmetic (single precision).
inline constexpr double kFlopsPerSite = 1320.0;
/// Bytes per face site on the wire (projected two-spin half spinor, as the
/// QPhiX implementation the paper builds on sends).
inline constexpr std::size_t kFaceBytesPerSite = 48;

struct SpinorField {
  Dims dims{};
  std::vector<cf> v;

  explicit SpinorField(const Dims& d)
      : dims(d), v(static_cast<std::size_t>(volume(d)) * kSpinorFloats) {}
  [[nodiscard]] cf* site(int idx) { return v.data() + static_cast<std::size_t>(idx) * kSpinorFloats; }
  [[nodiscard]] const cf* site(int idx) const {
    return v.data() + static_cast<std::size_t>(idx) * kSpinorFloats;
  }
  [[nodiscard]] std::int64_t sites() const { return volume(dims); }
};

struct GaugeField {
  Dims dims{};
  std::vector<cf> v;  ///< 4 links x 9 entries per site

  explicit GaugeField(const Dims& d)
      : dims(d), v(static_cast<std::size_t>(volume(d)) * 4 * kLinkEntries) {}
  [[nodiscard]] cf* link(int idx, int mu) {
    return v.data() + (static_cast<std::size_t>(idx) * 4 + static_cast<std::size_t>(mu)) * kLinkEntries;
  }
  [[nodiscard]] const cf* link(int idx, int mu) const {
    return v.data() + (static_cast<std::size_t>(idx) * 4 + static_cast<std::size_t>(mu)) * kLinkEntries;
  }
};

/// Deterministic pseudo-random fields. The gauge field is the identity plus
/// uniform noise of amplitude `epsilon` in each entry's real and imaginary
/// parts.
void fill_random_spinor(SpinorField& f, std::uint64_t seed);
void fill_random_gauge(GaugeField& g, std::uint64_t seed, float epsilon = 0.1f);

/// Single-rank reference: periodic boundaries over the whole field.
void dslash_reference(const GaugeField& u, const SpinorField& in, SpinorField& out);

/// Distributed operator: owns halo buffers and performs the Listing-1 loop
/// (pack -> post nonblocking exchange -> interior -> wait -> boundary) with
/// real arithmetic. Used for correctness at small volumes.
class DistributedDslash {
 public:
  DistributedDslash(const Decomposition& dec, core::Proxy& proxy);

  [[nodiscard]] const Decomposition& dec() const { return dec_; }
  SpinorField& psi() { return psi_; }
  GaugeField& gauge() { return gauge_; }

  /// out = D psi (halo exchange + stencil).
  void apply(SpinorField& out);

 private:
  void pack_faces();
  void interior(SpinorField& out);
  void boundary(SpinorField& out);

  const Decomposition dec_;
  core::Proxy& proxy_;
  SpinorField psi_;
  GaugeField gauge_;
  // Per dimension: send/recv buffers for both directions (raw spinors go to
  // the -mu neighbor; premultiplied U^dag psi products go to the +mu one).
  std::vector<cf> send_minus_[4], send_plus_[4];
  std::vector<cf> recv_plus_[4], recv_minus_[4];
};

}  // namespace qcd
