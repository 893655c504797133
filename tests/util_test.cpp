// Tests for src/util: statistics, histogram, table, cli, rng, function_ref,
// fastmath.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "util/cli.h"
#include "util/fastmath.h"
#include "util/function_ref.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/statistics.h"
#include "util/table.h"

namespace {

using namespace hspec::util;

// ---------------------------------------------------------------- RunningStats

TEST(RunningStats, EmptyIsNeutral) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(0.1 * i) * 10.0 + i * 0.01;
    (i < 37 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(xs, 99.0), 1.0);
}

TEST(MaxRelativeError, Basics) {
  const std::vector<double> a{1.0, 2.0, 0.0};
  const std::vector<double> b{1.0, 2.2, 0.0};
  EXPECT_NEAR(max_relative_error(a, b), 0.2 / 2.2, 1e-12);
  EXPECT_THROW(max_relative_error(a, {b.data(), 2}), std::invalid_argument);
}

TEST(Rms, KnownValue) {
  const std::vector<double> xs{3.0, 4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

// ------------------------------------------------------------------- Histogram

TEST(Histogram, BinsAndFractions) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_DOUBLE_EQ(h.total(), 10.0);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_DOUBLE_EQ(h.count(b), 1.0);
    EXPECT_DOUBLE_EQ(h.fraction(b), 0.1);
  }
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 3.5);
}

TEST(Histogram, ClampsOutOfRangeButCounts) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);  // clamped low
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);  // clamped high
}

TEST(Histogram, WeightedSamplesAndRanges) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5, 2.0);
  h.add(1.5, 1.0);
  h.add(2.5, 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_between(0.0, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction_between(2.0, 4.0), 0.25);
}

TEST(Histogram, TopEdgeGoesToLastBin) {
  Histogram h(0.0, 1.0, 2);
  h.add(1.0);  // exactly hi
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 0.0);
}

TEST(Histogram, RejectsDegenerateConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiRendersOneLinePerBin) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string art = h.ascii(10, "demo");
  EXPECT_NE(art.find("demo"), std::string::npos);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);  // label + 2 bins
}

// ----------------------------------------------------------------------- Table

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "speedup"});
  t.add_row({"x", Table::num(196.4, 4)});
  const std::string s = t.str();
  EXPECT_NE(s.find("speedup"), std::string::npos);
  EXPECT_NE(s.find("196.4"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, PercentFormatting) {
  EXPECT_EQ(Table::pct(0.9826), "98.26%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Table, WritesCsv) {
  Table t({"k", "ratio"});
  t.add_row({"7", "98.26"});
  t.add_row({"13", "40.92"});
  const std::string path = ::testing::TempDir() + "/hspec_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "k,ratio");
  std::getline(f, line);
  EXPECT_EQ(line, "7,98.26");
  std::remove(path.c_str());
}

// ------------------------------------------------------------------------- Cli

TEST(Cli, ParsesAllForms) {
  // A bare `--flag` followed by a non-option consumes it as a value, so
  // boolean flags go last or use the `=` form.
  const char* argv[] = {"prog",       "--gpus",  "3", "--qlen=12",
                        "positional", "--verbose"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("gpus", 0), 3);
  EXPECT_EQ(cli.get_int("qlen", 0), 12);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.get_bool("absent"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, DefaultsAndTypes) {
  const char* argv[] = {"prog", "--x", "1.5"};
  Cli cli(3, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(cli.get_double("y", 2.5), 2.5);
  EXPECT_EQ(cli.get("z", "dflt"), "dflt");
  EXPECT_THROW(cli.get_int("x", 0), std::invalid_argument);
}

TEST(Cli, MalformedBooleansThrow) {
  const char* argv[] = {"prog", "--flag=maybe"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_bool("flag"), std::invalid_argument);
}

// ------------------------------------------------------------------------- RNG

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5'000; ++i) {
    const auto v = rng.bounded(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, SplitStreamsDecorrelated) {
  Xoshiro256 parent(5);
  Xoshiro256 s1 = parent.split(1);
  Xoshiro256 s2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (s1() == s2()) ++same;
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------------ FunctionRef

TEST(FunctionRef, CallsLambda) {
  int hits = 0;
  auto lambda = [&hits](double x) {
    ++hits;
    return x * 2.0;
  };
  FunctionRef<double(double)> f = lambda;
  EXPECT_DOUBLE_EQ(f(21.0), 42.0);
  EXPECT_EQ(hits, 1);
}

double free_fn(double x) { return x + 1.0; }

TEST(FunctionRef, CallsPlainFunction) {
  FunctionRef<double(double)> f = free_fn;
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);
}

TEST(FunctionRef, CopyRefersToSameTarget) {
  int calls = 0;
  auto lambda = [&calls](double) {
    ++calls;
    return 0.0;
  };
  FunctionRef<double(double)> a = lambda;
  FunctionRef<double(double)> b = a;
  a(0.0);
  b(0.0);
  EXPECT_EQ(calls, 2);
}

TEST(BenchBanner, ContainsIdAndClaim) {
  const std::string b = bench_banner("Fig. 3", "speedup 196..311");
  EXPECT_NE(b.find("Fig. 3"), std::string::npos);
  EXPECT_NE(b.find("speedup"), std::string::npos);
}

// fm::exp/fm::log feed both the scalar RRC integrand and its batch twin,
// so a rewrite that moves both sides together passes every batch==scalar
// identity test; these tables pin the bits themselves. A NaN output is only
// checked to be NaN: which NaN comes out depends on the order the compiler
// gives a commutative op's operands, not on the algorithm.
struct GoldenBits {
  std::uint64_t in;
  std::uint64_t out;
};

#include "fastmath_golden.inc"

template <std::size_t N>
void expect_golden(const GoldenBits (&table)[N], double (*f)(double),
                   const char* name) {
  int mismatches = 0;
  for (const GoldenBits& g : table) {
    const double x = std::bit_cast<double>(g.in);
    const double want = std::bit_cast<double>(g.out);
    const double got = f(x);
    if (std::isnan(want) ? std::isnan(got)
                         : std::bit_cast<std::uint64_t>(got) == g.out)
      continue;
    if (++mismatches <= 10)
      ADD_FAILURE() << name << "(" << x << " = 0x" << std::hex << g.in
                    << ") = 0x" << std::bit_cast<std::uint64_t>(got)
                    << ", golden 0x" << g.out << std::dec;
  }
  EXPECT_EQ(mismatches, 0) << "of " << N << " " << name << " inputs";
}

TEST(FastMathGolden, ExpBits) {
  static_assert(std::size(kExpGolden) >= 1000 + 30);
  expect_golden(kExpGolden, [](double x) { return fm::exp(x); }, "fm::exp");
}

TEST(FastMathGolden, LogBits) {
  static_assert(std::size(kLogGolden) >= 1000 + 50);
  expect_golden(kLogGolden, [](double x) { return fm::log(x); }, "fm::log");
}

}  // namespace
