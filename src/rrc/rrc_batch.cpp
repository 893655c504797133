#include "rrc/rrc_batch.h"

#include <functional>
#include <stdexcept>

#include "atomic/constants.h"
#include "util/fastmath.h"

namespace hspec::rrc {

namespace {

namespace fm = util::fm;

// The per-abscissa bodies mirror rrc_power_density operation for operation
// (see the bitwise contract in the header): the Kramers/Milne product keeps
// the scalar association
//   sigma0 * (n/z2) * r * r * r,  (e*e / me_c2) * sigma,  a * exp * e,
// the Gaunt factor is exactly 1.0 at or below the edge, which is what the
// scalar branch returns, and ee < 0 selects the below-threshold zero. Every
// value is computed unconditionally and the branches are fm::select blends,
// so the loops are select-only and vectorize. Lanes that a select discards
// may compute garbage (e <= 0 gives a nonsense ratio) — that is fine, they
// are never observed, and none of the ops can trap. The helpers are
// always_inline because GCC -O2 leaves them out of line, and a call in the
// loop body stops vectorization.

struct Channel {
  double binding;    ///< level threshold I [keV]
  double kt;         ///< electron temperature [keV]
  double pref;       ///< maxwellian_prefactor(plasma)
  double n_over_z2;  ///< n / Z^2 of the Kramers cross section
};

// Kramers/Milne emissivity before the prefactor and the threshold select.
[[gnu::always_inline]] inline double kramers_milne(const Channel& c,
                                                   double e) {
  const double ee = e - c.binding;
  const double ratio = c.binding / e;
  const double sigma_ph =
      atomic::kKramersSigma0 * c.n_over_z2 * ratio * ratio * ratio;
  const double ee_sigma = e * e / atomic::kElectronRestKeV * sigma_ph;
  return ee_sigma * fm::exp(-ee / c.kt) * e;
}

[[gnu::always_inline]] inline double nogaunt_at(const Channel& c, double e) {
  const double a = kramers_milne(c, e);
  return fm::select(e - c.binding < 0.0, 0.0, c.pref * a);
}

[[gnu::always_inline]] inline double gaunt_at(const Channel& c, double e) {
  const double a = kramers_milne(c, e);
  const double ratio_g = e / c.binding;
  const double lg = fm::log(ratio_g);
  const double g =
      fm::select(ratio_g <= 1.0, 1.0,
                 1.0 + 0.1727 * lg - 0.0496 * lg * lg / (1.0 + 0.5 * lg));
  const double ag = a * g;
  return fm::select(e - c.binding < 0.0, 0.0, c.pref * ag);
}

// Each loop runs over whole 4-lane vectors first and then the scalar tail:
// GCC's -O2 cost model (very-cheap) vectorizes a loop only when no scalar
// epilogue is needed, i.e. when the trip count is a known multiple of the
// vector length. The loops marked "vector loop" must vectorize with 32-byte
// vectors (4 lanes); the rrc_batch_vectorized test checks it at build time.

HSPEC_VEC_TARGET void eval_nogaunt(const Channel c,
                                   const double* __restrict xs,
                                   double* __restrict ys, std::size_t n) {
  const std::size_t nv = n & ~std::size_t{3};
  for (std::size_t i = 0; i < nv; ++i)  // vector loop
    ys[i] = nogaunt_at(c, xs[i]);
  for (std::size_t i = nv; i < n; ++i) ys[i] = nogaunt_at(c, xs[i]);
}

HSPEC_VEC_TARGET void eval_gaunt(const Channel c, const double* __restrict xs,
                                 double* __restrict ys, std::size_t n) {
  const std::size_t nv = n & ~std::size_t{3};
  for (std::size_t i = 0; i < nv; ++i)  // vector loop
    ys[i] = gaunt_at(c, xs[i]);
  for (std::size_t i = nv; i < n; ++i) ys[i] = gaunt_at(c, xs[i]);
}

}  // namespace

RrcBatchIntegrand::RrcBatchIntegrand(const RrcChannel& ch,
                                     const PlasmaState& plasma)
    : binding_(ch.level.binding_keV),
      kt_(plasma.kT_keV.value()),
      prefactor_(maxwellian_prefactor(plasma)),
      gaunt_(ch.gaunt_correction) {
  if (ch.recombining_charge < 1 || ch.level.n < 1)
    throw std::invalid_argument("kramers: charge and n must be >= 1");
  if (binding_ <= 0.0)
    throw std::invalid_argument("kramers: binding energy must be positive");
  const double z2 = static_cast<double>(ch.recombining_charge) *
                    static_cast<double>(ch.recombining_charge);
  n_over_z2_ = static_cast<double>(ch.level.n) / z2;
}

void RrcBatchIntegrand::operator()(std::span<const double> xs,
                                   std::span<double> ys) const {
  if (ys.size() < xs.size())
    throw std::out_of_range("RrcBatchIntegrand: output span too small");
  // The loops take restrict pointers (a runtime alias check would stop the
  // -O2 vectorizer), so overlapping spans would be undefined behaviour.
  const std::less<> before;
  if (before(xs.data(), ys.data() + xs.size()) &&
      before(ys.data(), xs.data() + xs.size()))
    throw std::invalid_argument("RrcBatchIntegrand: xs and ys overlap");
  const Channel c{binding_, kt_, prefactor_, n_over_z2_};
  if (gaunt_)
    eval_gaunt(c, xs.data(), ys.data(), xs.size());
  else
    eval_nogaunt(c, xs.data(), ys.data(), xs.size());
}

}  // namespace hspec::rrc
