#include "apps/qcd/dslash.hpp"

#include <cassert>

#include "sim/rng.hpp"

namespace qcd {

namespace {

// ---- small complex linear algebra on 3-vectors / 3x3 matrices ----

/// out[s] += U * in[s] for all 4 spins (U row-major 3x3).
inline void mat_vec_acc(const cf* u, const cf* in, cf* out) {
  for (int s = 0; s < kSpins; ++s) {
    const cf* x = in + s * kColors;
    cf* y = out + s * kColors;
    for (int r = 0; r < kColors; ++r) {
      cf acc = 0;
      for (int c = 0; c < kColors; ++c) acc += u[r * kColors + c] * x[c];
      y[r] += acc;
    }
  }
}

/// out[s] += U^dag * in[s] for all 4 spins.
inline void matdag_vec_acc(const cf* u, const cf* in, cf* out) {
  for (int s = 0; s < kSpins; ++s) {
    const cf* x = in + s * kColors;
    cf* y = out + s * kColors;
    for (int r = 0; r < kColors; ++r) {
      cf acc = 0;
      for (int c = 0; c < kColors; ++c) acc += std::conj(u[c * kColors + r]) * x[c];
      y[r] += acc;
    }
  }
}

/// out[s] = U^dag * in[s] (no accumulate) — used when packing +mu faces.
inline void matdag_vec(const cf* u, const cf* in, cf* out) {
  for (int s = 0; s < kSpins; ++s) {
    const cf* x = in + s * kColors;
    cf* y = out + s * kColors;
    for (int r = 0; r < kColors; ++r) {
      cf acc = 0;
      for (int c = 0; c < kColors; ++c) acc += std::conj(u[c * kColors + r]) * x[c];
      y[r] = acc;
    }
  }
}

inline void vec_acc(const cf* in, cf* out) {
  for (int i = 0; i < kSpinorFloats; ++i) out[i] += in[i];
}

/// Linear index of a site on the face orthogonal to `mu`.
inline int face_index(const Dims& c, const Dims& dims, int mu) {
  Dims fd = dims;
  Dims fc = c;
  fd[static_cast<std::size_t>(mu)] = 1;
  fc[static_cast<std::size_t>(mu)] = 0;
  return site_index(fc, fd);
}

template <typename Fn>
void for_each_site(const Dims& dims, Fn&& fn) {
  Dims c;
  for (c[kT] = 0; c[kT] < dims[kT]; ++c[kT]) {
    for (c[kZ] = 0; c[kZ] < dims[kZ]; ++c[kZ]) {
      for (c[kY] = 0; c[kY] < dims[kY]; ++c[kY]) {
        for (c[kX] = 0; c[kX] < dims[kX]; ++c[kX]) fn(c);
      }
    }
  }
}

}  // namespace

void fill_random_spinor(SpinorField& f, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (auto& z : f.v) {
    z = cf(static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1)));
  }
}

void fill_random_gauge(GaugeField& g, std::uint64_t seed, float epsilon) {
  sim::Rng rng(seed);
  const auto n = static_cast<std::int64_t>(volume(g.dims));
  for (std::int64_t i = 0; i < n; ++i) {
    for (int mu = 0; mu < 4; ++mu) {
      cf* u = g.link(static_cast<int>(i), mu);
      for (int r = 0; r < kColors; ++r) {
        for (int c = 0; c < kColors; ++c) {
          const float re = (r == c) ? 1.0f : 0.0f;
          u[r * kColors + c] =
              cf(re + epsilon * static_cast<float>(rng.uniform(-1, 1)),
                 epsilon * static_cast<float>(rng.uniform(-1, 1)));
        }
      }
    }
  }
}

void dslash_reference(const GaugeField& u, const SpinorField& in, SpinorField& out) {
  assert(u.dims == in.dims && in.dims == out.dims);
  const Dims& d = in.dims;
  std::fill(out.v.begin(), out.v.end(), cf(0));
  for_each_site(d, [&](const Dims& c) {
    const int x = site_index(c, d);
    cf* o = out.site(x);
    for (int mu = 0; mu < 4; ++mu) {
      const auto m = static_cast<std::size_t>(mu);
      Dims cf_ = c, cb = c;
      cf_[m] = (c[m] + 1) % d[m];
      cb[m] = (c[m] - 1 + d[m]) % d[m];
      const int xf = site_index(cf_, d);
      const int xb = site_index(cb, d);
      mat_vec_acc(u.link(x, mu), in.site(xf), o);
      matdag_vec_acc(u.link(xb, mu), in.site(xb), o);
    }
  });
}

// ------------------------------------------------------ DistributedDslash ----

DistributedDslash::DistributedDslash(const Decomposition& dec, core::Proxy& proxy)
    : dec_(dec), proxy_(proxy), psi_(dec.local()), gauge_(dec.local()) {
  for (int mu = 0; mu < 4; ++mu) {
    if (!dec_.partitioned(mu)) continue;
    const auto n = static_cast<std::size_t>(dec_.face_sites(mu)) * kSpinorFloats;
    send_minus_[mu].resize(n);
    send_plus_[mu].resize(n);
    recv_plus_[mu].resize(n);
    recv_minus_[mu].resize(n);
  }
}

void DistributedDslash::pack_faces() {
  const Dims& d = dec_.local();
  for (int mu = 0; mu < 4; ++mu) {
    if (!dec_.partitioned(mu)) continue;
    const auto m = static_cast<std::size_t>(mu);
    for_each_site(d, [&](const Dims& c) {
      if (c[m] == 0) {
        // Bottom face: raw spinor for the -mu neighbor's +mu term.
        const int fi = face_index(c, d, mu);
        const cf* s = psi_.site(site_index(c, d));
        std::copy(s, s + kSpinorFloats,
                  send_minus_[mu].begin() + static_cast<std::ptrdiff_t>(fi) * kSpinorFloats);
      }
      if (c[m] == d[m] - 1) {
        // Top face: premultiplied U^dag psi for the +mu neighbor's -mu term.
        const int fi = face_index(c, d, mu);
        const int x = site_index(c, d);
        matdag_vec(gauge_.link(x, mu), psi_.site(x),
                   send_plus_[mu].data() + static_cast<std::ptrdiff_t>(fi) * kSpinorFloats);
      }
    });
  }
}

void DistributedDslash::interior(SpinorField& out) {
  const Dims& d = dec_.local();
  std::fill(out.v.begin(), out.v.end(), cf(0));
  for_each_site(d, [&](const Dims& c) {
    const int x = site_index(c, d);
    cf* o = out.site(x);
    for (int mu = 0; mu < 4; ++mu) {
      const auto m = static_cast<std::size_t>(mu);
      const bool split = dec_.partitioned(mu);
      // Forward neighbor.
      if (!(split && c[m] == d[m] - 1)) {
        Dims cf_ = c;
        cf_[m] = (c[m] + 1) % d[m];
        mat_vec_acc(gauge_.link(x, mu), psi_.site(site_index(cf_, d)), o);
      }
      // Backward neighbor.
      if (!(split && c[m] == 0)) {
        Dims cb = c;
        cb[m] = (c[m] - 1 + d[m]) % d[m];
        const int xb = site_index(cb, d);
        matdag_vec_acc(gauge_.link(xb, mu), psi_.site(xb), o);
      }
    }
  });
}

void DistributedDslash::boundary(SpinorField& out) {
  const Dims& d = dec_.local();
  for (int mu = 0; mu < 4; ++mu) {
    if (!dec_.partitioned(mu)) continue;
    const auto m = static_cast<std::size_t>(mu);
    for_each_site(d, [&](const Dims& c) {
      const int x = site_index(c, d);
      cf* o = out.site(x);
      if (c[m] == d[m] - 1) {
        // +mu term: received raw spinor from the +mu neighbor's bottom face.
        const int fi = face_index(c, d, mu);
        mat_vec_acc(gauge_.link(x, mu),
                    recv_plus_[mu].data() + static_cast<std::ptrdiff_t>(fi) * kSpinorFloats, o);
      }
      if (c[m] == 0) {
        // -mu term: received premultiplied product from the -mu neighbor.
        const int fi = face_index(c, d, mu);
        vec_acc(recv_minus_[mu].data() + static_cast<std::ptrdiff_t>(fi) * kSpinorFloats, o);
      }
    });
  }
}

void DistributedDslash::apply(SpinorField& out) {
  using smpi::Datatype;
  pack_faces();
  // Post the whole boundary exchange (2 receives + 2 sends per partitioned
  // dim) as one batch: a single command-ring publish + doorbell under the
  // offload proxy instead of one per halo message.
  std::vector<core::Command> ops;
  for (int mu = 0; mu < 4; ++mu) {
    if (!dec_.partitioned(mu)) continue;
    const std::size_t n = recv_plus_[mu].size();
    const int up = dec_.neighbor_rank(mu, +1);
    const int dn = dec_.neighbor_rank(mu, -1);
    // Tags: 8 directions, mu*2 for data flowing -mu-ward, mu*2+1 for +mu-ward.
    ops.push_back(core::Command::irecv(recv_plus_[mu].data(), n,
                                       Datatype::kComplexFloat, up, mu * 2));
    ops.push_back(core::Command::irecv(recv_minus_[mu].data(), n,
                                       Datatype::kComplexFloat, dn, mu * 2 + 1));
    ops.push_back(core::Command::isend(send_minus_[mu].data(), n,
                                       Datatype::kComplexFloat, dn, mu * 2));
    ops.push_back(core::Command::isend(send_plus_[mu].data(), n,
                                       Datatype::kComplexFloat, up, mu * 2 + 1));
  }
  std::vector<core::PReq> reqs(ops.size());
  proxy_.post_batch(ops, reqs);
  interior(out);
  proxy_.waitall(reqs);
  boundary(out);
}

}  // namespace qcd
