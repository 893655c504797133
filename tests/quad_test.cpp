// Tests for the numerical-integration substrate: rule correctness,
// convergence orders, adaptive behaviour on singular integrands, and the
// kernel-method registry the GPU path uses.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "quad/integrate.h"

namespace {

using namespace hspec::quad;

double poly3(double x) { return ((2.0 * x - 1.0) * x + 3.0) * x - 5.0; }
constexpr double kPoly3Integral01 = 2.0 / 4.0 - 1.0 / 3.0 + 3.0 / 2.0 - 5.0;

// ------------------------------------------------------------- Newton-Cotes

TEST(Simpson, ExactForCubics) {
  const auto r = simpson(poly3, 0.0, 1.0, 1);
  EXPECT_NEAR(r.value, kPoly3Integral01, 1e-14);
  EXPECT_EQ(r.evaluations, 3u);
}

TEST(Simpson, FourthOrderConvergence) {
  auto f = [](double x) { return std::exp(x); };
  const double exact = std::exp(1.0) - 1.0;
  const double e8 = std::fabs(simpson(f, 0.0, 1.0, 8).value - exact);
  const double e16 = std::fabs(simpson(f, 0.0, 1.0, 16).value - exact);
  EXPECT_NEAR(e8 / e16, 16.0, 1.5);  // halving h divides error by ~2^4
}

TEST(Simpson, PaperDefaultIs64Panels) {
  EXPECT_EQ(kPaperSimpsonPanels, 64u);
  auto f = [](double x) { return std::sin(x); };
  const auto r = simpson_paper_default(f, 0.0, std::numbers::pi);
  EXPECT_NEAR(r.value, 2.0, 1e-8);
}

TEST(Trapezoid, SecondOrderConvergence) {
  auto f = [](double x) { return std::exp(x); };
  const double exact = std::exp(1.0) - 1.0;
  const double e8 = std::fabs(trapezoid(f, 0.0, 1.0, 8).value - exact);
  const double e16 = std::fabs(trapezoid(f, 0.0, 1.0, 16).value - exact);
  EXPECT_NEAR(e8 / e16, 4.0, 0.5);
}

TEST(Midpoint, ExactForLinear) {
  auto f = [](double x) { return 3.0 * x + 1.0; };
  EXPECT_NEAR(midpoint(f, 0.0, 2.0, 1).value, 8.0, 1e-14);
}

TEST(NewtonCotes, ZeroPanelsThrow) {
  auto f = [](double x) { return x; };
  EXPECT_THROW(simpson(f, 0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(trapezoid(f, 0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(midpoint(f, 0.0, 1.0, 0), std::invalid_argument);
}

TEST(NewtonCotes, ReversedIntervalIsNegated) {
  auto f = [](double x) { return x * x; };
  const double fwd = simpson(f, 0.0, 1.0, 4).value;
  const double rev = simpson(f, 1.0, 0.0, 4).value;
  EXPECT_NEAR(fwd, -rev, 1e-14);
}

// ----------------------------------------------------------------- Romberg

TEST(Romberg, FixedDepthMatchesExactExponential) {
  auto f = [](double x) { return std::exp(-x); };
  const double exact = 1.0 - std::exp(-1.0);
  const auto r = romberg_fixed(f, 0.0, 1.0, 8);
  EXPECT_NEAR(r.value, exact, 1e-12);
  EXPECT_EQ(r.evaluations, (1u << 8) + 1);  // Eq. 3: cost 2^k + 1
}

TEST(Romberg, CostDoublesPerDichotomy) {
  auto f = [](double x) { return x; };
  for (std::size_t k = 3; k <= 10; ++k) {
    const auto r = romberg_fixed(f, 0.0, 1.0, k);
    EXPECT_EQ(r.evaluations, (std::size_t{1} << k) + 1) << "k=" << k;
  }
}

TEST(Romberg, AdaptiveConvergesAndReportsIt) {
  auto f = [](double x) { return 1.0 / (1.0 + x * x); };
  const auto r = romberg(f, 0.0, 1.0, {1e-12, 1e-12});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, std::numbers::pi / 4.0, 1e-11);
}

TEST(Romberg, ReportsNonConvergenceOnHardIntegrand) {
  // |x - 1/pi| has a kink: polynomial extrapolation struggles at depth 4.
  auto f = [](double x) { return std::fabs(x - 1.0 / std::numbers::pi); };
  const auto r = romberg(f, 0.0, 1.0, {1e-14, 1e-14}, 4);
  EXPECT_FALSE(r.converged);
}

// ---------------------------------------------------------- Gauss-Legendre

TEST(GaussLegendre, NodesAreLegendreRoots) {
  for (std::size_t n : {3u, 8u, 16u}) {
    const auto& rule = gauss_legendre_rule(n);
    ASSERT_EQ(rule.nodes.size(), n);
    for (double x : rule.nodes)
      EXPECT_LT(std::fabs(legendre(n, x).p), 1e-12) << "n=" << n << " x=" << x;
  }
}

TEST(GaussLegendre, WeightsPositiveAndSumToTwo) {
  for (std::size_t n : {2u, 5u, 12u, 31u}) {
    const auto& rule = gauss_legendre_rule(n);
    double sum = 0.0;
    for (double w : rule.weights) {
      EXPECT_GT(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 2.0, 1e-12) << "n=" << n;
  }
}

class GaussExactness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GaussExactness, IntegratesDegree2nMinus1Exactly) {
  const std::size_t n = GetParam();
  const auto degree = 2 * n - 1;
  // f(x) = x^degree on [0,1]: integral 1/(degree+1).
  auto f = [&](double x) { return std::pow(x, static_cast<double>(degree)); };
  const auto r = gauss_legendre(f, 0.0, 1.0, n);
  EXPECT_NEAR(r.value, 1.0 / (static_cast<double>(degree) + 1.0), 1e-12)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Orders, GaussExactness,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16));

TEST(GaussLegendre, ZeroOrderThrows) {
  EXPECT_THROW(gauss_legendre_rule(0), std::invalid_argument);
}

// ----------------------------------------------------------- Gauss-Kronrod

class KronrodRuleTest : public ::testing::TestWithParam<KronrodRule> {};

TEST_P(KronrodRuleTest, WeightsSumToTwo) {
  const KronrodTable t = kronrod_table(GetParam());
  double kron = t.wgk.back();  // center once
  for (std::size_t i = 0; i + 1 < t.wgk.size(); ++i) kron += 2.0 * t.wgk[i];
  EXPECT_NEAR(kron, 2.0, 1e-12);
  double gauss = 0.0;
  const bool odd_gauss = (t.xgk.size() - 1) % 2 == 1;
  for (std::size_t i = 0; i < t.wg.size(); ++i)
    gauss += (odd_gauss && i + 1 == t.wg.size()) ? t.wg[i] : 2.0 * t.wg[i];
  EXPECT_NEAR(gauss, 2.0, 1e-12);
}

TEST_P(KronrodRuleTest, AbscissaeDescendInUnitInterval) {
  const KronrodTable t = kronrod_table(GetParam());
  EXPECT_DOUBLE_EQ(t.xgk.back(), 0.0);
  for (std::size_t i = 0; i + 1 < t.xgk.size(); ++i) {
    EXPECT_GT(t.xgk[i], t.xgk[i + 1]);
    EXPECT_LT(t.xgk[i], 1.0);
  }
}

TEST_P(KronrodRuleTest, ExactOnHighDegreePolynomial) {
  // GK15 exact to degree 22; GK21 to degree 31. Use degree 13 for both.
  auto f = [](double x) { return std::pow(x, 13.0) + x * x; };
  const auto r = gauss_kronrod(f, 0.0, 1.0, GetParam());
  EXPECT_NEAR(r.value, 1.0 / 14.0 + 1.0 / 3.0, 1e-13);
}

TEST_P(KronrodRuleTest, ErrorEstimateBoundsTrueError) {
  auto f = [](double x) { return std::exp(-x * x); };
  const double exact = 0.746824132812427025;  // erf-based, [0,1]
  const KronrodEstimate e = kronrod_apply(f, 0.0, 1.0, GetParam());
  EXPECT_GE(e.error, std::fabs(e.value - exact));
  EXPECT_GT(e.resabs, 0.0);
  EXPECT_GT(e.resasc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Rules, KronrodRuleTest,
                         ::testing::Values(KronrodRule::k15, KronrodRule::k21));

TEST(Kronrod, EvaluationCounts) {
  std::size_t calls = 0;
  auto f = [&](double x) {
    ++calls;
    return x;
  };
  kronrod_apply(f, 0.0, 1.0, KronrodRule::k15);
  EXPECT_EQ(calls, 15u);
  calls = 0;
  kronrod_apply(f, 0.0, 1.0, KronrodRule::k21);
  EXPECT_EQ(calls, 21u);
}

// ----------------------------------------------------------------- QAGS

TEST(Qags, SmoothIntegrandConvergesImmediately) {
  auto f = [](double x) { return std::cos(x); };
  const auto r = qags(f, 0.0, 1.0, 1e-12, 1e-12);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, std::sin(1.0), 1e-12);
  EXPECT_EQ(r.evaluations, 21u);  // single GK21 application suffices
}

TEST(Qags, InverseSqrtSingularity) {
  auto f = [](double x) { return 1.0 / std::sqrt(x > 0.0 ? x : 1e-300); };
  const auto r = qags(f, 0.0, 1.0, 1e-10, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 2.0, 1e-8);
}

TEST(Qags, LogSingularity) {
  auto f = [](double x) { return std::log(x > 0.0 ? x : 1e-300); };
  const auto r = qags(f, 0.0, 1.0, 1e-10, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, -1.0, 1e-8);
}

TEST(Qags, StepDiscontinuityLikeRrcEdge) {
  // The RRC integrand shape: zero below the edge, exponential above.
  const double edge = 0.3333;
  auto f = [&](double x) { return x < edge ? 0.0 : std::exp(-(x - edge)); };
  const double exact = 1.0 - std::exp(-(1.0 - edge));
  const auto r = qags(f, 0.0, 1.0, 1e-10, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, exact, 1e-9);
}

TEST(Qags, EmptyIntervalIsZero) {
  auto f = [](double) { return 42.0; };
  const auto r = qags(f, 2.0, 2.0, 1e-10, 1e-10);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_EQ(r.evaluations, 0u);
}

TEST(Qags, RespectsSubintervalBudget) {
  auto f = [](double x) { return 1.0 / std::sqrt(x > 0.0 ? x : 1e-300); };
  QagsOptions opt;
  opt.tol = {1e-14, 1e-14};
  opt.max_subintervals = 3;
  opt.use_extrapolation = false;
  const auto r = qags(f, 0.0, 1.0, opt);
  EXPECT_FALSE(r.converged);  // budget too small without extrapolation
  EXPECT_GT(r.value, 1.0);    // but the estimate is in the right region
}

TEST(Qags, K15VariantWorks) {
  QagsOptions opt;
  opt.rule = KronrodRule::k15;
  auto f = [](double x) { return std::exp(x); };
  const auto r = qags(f, 0.0, 1.0, opt);
  EXPECT_NEAR(r.value, std::exp(1.0) - 1.0, 1e-10);
}

TEST(WynnEpsilon, AcceleratesGeometricPartialSums) {
  // s_n = sum_{k<=n} 0.5^k -> 2; plain sequence converges linearly,
  // epsilon algorithm should nail the limit from a few terms.
  std::vector<double> s;
  double acc = 0.0;
  double term = 1.0;
  for (int n = 0; n < 8; ++n) {
    acc += term;
    term *= 0.5;
    s.push_back(acc);
  }
  const auto r = wynn_epsilon(s);
  EXPECT_NEAR(r.value, 2.0, 1e-10);
}

TEST(WynnEpsilon, NeedsThreeTerms) {
  const std::vector<double> s{1.0, 2.0};
  EXPECT_THROW(wynn_epsilon(s), std::invalid_argument);
}

// ------------------------------------------------------------ kernel registry

TEST(KernelRegistry, CostsMatchMethods) {
  EXPECT_EQ(kernel_cost_evals(KernelMethod::simpson, 64), 129u);
  EXPECT_EQ(kernel_cost_evals(KernelMethod::romberg, 7), 129u);
  EXPECT_EQ(kernel_cost_evals(KernelMethod::romberg, 13), 8193u);
  EXPECT_EQ(kernel_cost_evals(KernelMethod::gauss, 12), 12u);
  EXPECT_EQ(kernel_cost_evals(KernelMethod::trapezoid, 64), 65u);
}

TEST(KernelRegistry, DispatchesToAllMethods) {
  auto f = [](double x) { return x * x; };
  for (auto m : {KernelMethod::simpson, KernelMethod::romberg,
                 KernelMethod::gauss, KernelMethod::trapezoid}) {
    const std::size_t param = m == KernelMethod::romberg ? 6 : 32;
    const auto r = kernel_integrate(m, param, f, 0.0, 1.0);
    EXPECT_NEAR(r.value, 1.0 / 3.0, 1e-3) << to_string(m);
  }
}

TEST(KernelRegistry, Names) {
  EXPECT_EQ(to_string(KernelMethod::simpson), "simpson");
  EXPECT_EQ(to_string(KernelMethod::romberg), "romberg");
}

TEST(Tolerance, CombinedBound) {
  Tolerance tol{1e-3, 1e-6};
  EXPECT_DOUBLE_EQ(tol.bound(1.0), 1e-3);    // absolute dominates
  EXPECT_DOUBLE_EQ(tol.bound(1e6), 1.0);     // relative dominates
}

// ------------------------------------------------- degenerate-input edges
// The RRC binning clamps integration limits to the recombination edge
// (Algorithm 2), which routinely produces zero-width bins [a, a] and bins
// whose integrand is identically zero. Every kernel must return an exact
// 0 with a zero error estimate — not a NaN, not accumulated noise.

TEST(EdgeCases, QagsZeroWidthIntervalIsExactZero) {
  std::size_t calls = 0;
  auto f = [&](double x) {
    ++calls;
    return std::exp(x);
  };
  const auto r = qags(f, 0.75, 0.75, {});
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_DOUBLE_EQ(r.error, 0.0);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(calls, 0u);  // the guard short-circuits before any evaluation
}

TEST(EdgeCases, RombergZeroWidthIntervalIsExactZero) {
  const auto fixed = romberg_fixed([](double x) { return std::exp(x); },
                                   0.75, 0.75, 6);
  EXPECT_DOUBLE_EQ(fixed.value, 0.0);
  const auto adaptive = romberg([](double x) { return std::exp(x); },
                                0.75, 0.75, {});
  EXPECT_DOUBLE_EQ(adaptive.value, 0.0);
}

TEST(EdgeCases, SimpsonZeroWidthIntervalIsExactZero) {
  const auto r = simpson([](double x) { return std::exp(x); }, 2.0, 2.0, 64);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(EdgeCases, ZeroIntegrandGivesExactZeroOnEveryKernel) {
  auto zero = [](double) { return 0.0; };
  const auto q = qags(zero, 0.0, 10.0, {});
  EXPECT_DOUBLE_EQ(q.value, 0.0);
  EXPECT_DOUBLE_EQ(q.error, 0.0);
  EXPECT_TRUE(q.converged);
  EXPECT_DOUBLE_EQ(simpson(zero, 0.0, 10.0, 64).value, 0.0);
  EXPECT_DOUBLE_EQ(romberg_fixed(zero, 0.0, 10.0, 8).value, 0.0);
  EXPECT_DOUBLE_EQ(gauss_kronrod(zero, 0.0, 10.0, KronrodRule::k21).value,
                   0.0);
}

TEST(EdgeCases, QagsZeroIntegrandConvergesImmediately) {
  // A zero integrand must not trigger the roundoff heuristics or subdivide:
  // one Kronrod application decides everything.
  std::size_t calls = 0;
  auto zero = [&](double) {
    ++calls;
    return 0.0;
  };
  const auto r = qags(zero, 0.0, 1.0, {});
  EXPECT_TRUE(r.converged);
  EXPECT_LE(calls, 21u + 1u);  // one k21 pass, nothing more
}

}  // namespace
