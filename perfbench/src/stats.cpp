#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto lo = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - lo;
}

double highest_supported_quantile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999})
    if (samples_beyond(n, q) >= min_beyond) best = q;
  return best;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

constexpr double kHistMin = 1e-8;
constexpr double kHistRatio = 1.01;
const double kLogRatio = std::log(kHistRatio);
const auto kHistBuckets =
    static_cast<std::size_t>(std::ceil(std::log(100.0 / kHistMin) / kLogRatio)) + 1;

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::add(double seconds) {
  const double b = seconds > kHistMin ? std::log(seconds / kHistMin) / kLogRatio : 0.0;
  buckets_[std::min(static_cast<std::size_t>(b), kHistBuckets - 1)] += 1;
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kHistBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) throw std::invalid_argument("quantile of no samples");
  // The order statistics at floor/ceil of q * (n - 1), each read as the
  // geometric midpoint of its bucket, interpolated like quantile().
  const double pos = q * static_cast<double>(count_ - 1);
  auto value_at = [&](std::uint64_t rank) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) return kHistMin * std::exp((static_cast<double>(i) + 0.5) * kLogRatio);
    }
    return 100.0;
  };
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  const double a = value_at(lo);
  const double b = value_at(std::min(lo + 1, count_ - 1));
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

}  // namespace perfbench
