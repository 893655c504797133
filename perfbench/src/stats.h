#pragma once
// Order statistics for the benchmark's timings.
//
// A quantile is the linear interpolation between order statistics at
// position q * (n - 1) of the sorted sample. The samples "beyond" it are the
// order statistics strictly above that position; a tail percentile is only
// reported when at least ten samples lie beyond it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// q-quantile of `values` (any order), q in [0, 1]. Empty input throws.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Order statistics strictly above the q-quantile's position in a sample of
/// n values.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of the percentiles 0.5, 0.9, 0.99 and 0.999 that has at
/// least `min_beyond` samples beyond it in a sample of n values; 0 when not
/// even the median does.
double highest_supported_quantile(std::size_t n, std::size_t min_beyond = 10);

/// Arithmetic mean; empty input throws.
double mean(const std::vector<double>& values);

/// Fixed-memory histogram of positive durations for request streams too
/// long to keep every sample: geometric buckets 1% wide from 10 ns to
/// 100 s, so a quantile read from it is within 1% of the sample's.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double seconds);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Same estimator as quantile(), on bucket midpoints. Empty throws.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
