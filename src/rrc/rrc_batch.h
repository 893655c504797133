#pragma once
// Batched form of the RRC integrand (Eq. 1) for the vectorized integration
// kernels: one call evaluates dP/dE at a whole span of photon energies.
//
// Bitwise contract: for every photon energy e,
//
//   RrcBatchIntegrand(ch, plasma)({e}) == rrc_power_density(ch, plasma, e)
//
// to the last bit. The channel- and plasma-dependent subexpressions the
// scalar path recomputes per abscissa (threshold, n/Z^2, the Maxwellian
// prefactor) are hoisted into the constructor — each is a parenthesized
// subexpression of the scalar formula, so hoisting cannot change the bits —
// and the per-abscissa arithmetic follows the scalar operation sequence
// exactly, with branches rewritten as selects and the transcendentals shared
// with the scalar path (util/fastmath.h). The tier-1 identity tests pin this
// contract across every kernel method.

#include <span>

#include "rrc/rrc.h"

namespace hspec::rrc {

/// One recombination channel's integrand, ready for lane-parallel
/// evaluation. Cheap to construct (a handful of doubles); build one per
/// level inside the task loop.
class RrcBatchIntegrand {
 public:
  /// Validates like the scalar path: throws std::invalid_argument for
  /// charge < 1, n < 1, non-positive binding or temperature.
  RrcBatchIntegrand(const RrcChannel& ch, const PlasmaState& plasma);

  /// ys[i] = dP/dE(xs[i]) for every i; ys.size() >= xs.size().
  /// Matches quad::BatchIntegrand. Throws std::out_of_range if ys is too
  /// small and std::invalid_argument if the spans overlap.
  void operator()(std::span<const double> xs, std::span<double> ys) const;

 private:
  double binding_;     ///< level threshold I [keV]
  double kt_;          ///< electron temperature [keV]
  double prefactor_;   ///< maxwellian_prefactor(plasma)
  double n_over_z2_;   ///< n / Z^2 of the Kramers cross section
  bool gaunt_;
};

}  // namespace hspec::rrc
