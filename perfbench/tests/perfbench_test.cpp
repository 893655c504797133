// Tests of the benchmark's own code: input generators, the constructed
// cache behaviour of the service workloads, percentile arithmetic and span
// self times.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "service/grid_cache.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hspec::apec::GridPoint;

bool same_points(const std::vector<GridPoint>& a,
                 const std::vector<GridPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].kT_keV != b[i].kT_keV || a[i].ne_cm3 != b[i].ne_cm3) return false;
  return true;
}

double metric(const Result& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return m.value;
  throw std::out_of_range("no metric " + name);
}

std::string notes(const Result& r) {
  std::string out;
  for (const std::string& n : r.notes) out += n + "\n";
  return out;
}

GridParams tiny_grid() { return GridParams{2, 1, 1.0, 50.0, 64, 64}; }
ExecParams tiny_exec() {
  return ExecParams{2, 1, hspec::core::ExecutionMode::pipelined,
                    hspec::core::TaskGranularity::ion, 32};
}

TEST(Generators, SurveyIsDeterministicPerSeed) {
  SurveyGenerator a(PointRange{}, 7), b(PointRange{}, 7), c(PointRange{}, 8);
  for (int i = 0; i < 5; ++i) {
    const auto x = a.next_batch(8);
    EXPECT_TRUE(same_points(x, b.next_batch(8)));
    EXPECT_FALSE(same_points(x, c.next_batch(8)));
  }
}

TEST(Generators, SurveyBatchCoversEveryTemperatureStratum) {
  const PointRange range{0.1, 5.0, 0.1, 10.0};
  SurveyGenerator gen(range, 3);
  for (int i = 0; i < 20; ++i) {
    std::set<int> strata;
    for (const GridPoint& p : gen.next_batch(8)) {
      const double u = std::log(p.kT_keV / range.kt_min_keV) /
                       std::log(range.kt_max_keV / range.kt_min_keV);
      ASSERT_GT(u, 0.0);
      ASSERT_LT(u, 1.0);
      strata.insert(static_cast<int>(u * 8));
    }
    EXPECT_EQ(strata.size(), 8u);
  }
}

TEST(Generators, SurveyNeverRepeatsACacheKey) {
  const hspec::service::GridCache cache{hspec::service::GridCacheConfig{}};
  for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
    SurveyGenerator gen(PointRange{}, stream_seed(seed, 1));
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> keys;
    std::size_t n = 0;
    for (int b = 0; b < 500; ++b) {
      for (const GridPoint& p : gen.next_batch(8)) {
        const auto k = cache.key_of(p);
        keys.emplace(k.ne_q, k.time_q, k.t_q);
        ++n;
      }
    }
    EXPECT_EQ(keys.size(), n) << "seed " << seed;
  }
}

TEST(Generators, FitScheduleIsDeterministicWithAnExactRefitShare) {
  FitWorkload w;
  for (int client = 0; client < 3; ++client) {
    FitSchedule a(w, 5, client), b(w, 5, client);
    std::size_t refits = 0;
    for (int k = 0; k < 100; ++k) {
      const FitJob x = a.next(), y = b.next();
      ASSERT_EQ(x.refit, y.refit);
      ASSERT_EQ(x.observation, y.observation);
      EXPECT_EQ(x.refit, k % 2 == 1);  // ratio 0.5 alternates fresh, refit
      if (x.refit) {
        ++refits;
        EXPECT_LT(x.observation, a.fresh_count());
      }
    }
    EXPECT_EQ(refits, 50u);
    for (std::size_t i = 0; i < a.fresh_count(); ++i) {
      EXPECT_EQ(a.observation(i).truth_kT_keV, b.observation(i).truth_kT_keV);
      EXPECT_EQ(a.observation(i).noise_seed, b.observation(i).noise_seed);
    }
  }
  // Fresh fits of different clients fit different observations over
  // different brackets, so they share no abscissa.
  FitSchedule c0(w, 5, 0), c1(w, 5, 1);
  c0.next();
  c1.next();
  EXPECT_NE(c0.observation(0).truth_kT_keV, c1.observation(0).truth_kT_keV);
  EXPECT_NE(c0.observation(0).kt_min_keV, c1.observation(0).kt_min_keV);
}

TEST(Generators, HotRequestsAreDeterministicDistinctAndSized) {
  HotWorkload w;
  EXPECT_TRUE(same_points(hot_pool(w, 4), hot_pool(w, 4)));
  EXPECT_FALSE(same_points(hot_pool(w, 4), hot_pool(w, 5)));
  Rng a(11), b(11);
  for (int i = 0; i < 1000; ++i) {
    const auto x = hot_request(w, a);
    EXPECT_EQ(x, hot_request(w, b));
    EXPECT_GE(x.size(), w.min_request_points);
    EXPECT_LE(x.size(), w.max_request_points);
    EXPECT_EQ(std::set<std::size_t>(x.begin(), x.end()).size(), x.size());
    for (std::size_t idx : x) EXPECT_LT(idx, w.pool_points);
  }
}

TEST(Workloads, FitMixedGetsTheConstructedHitShare) {
  FitWorkload w;
  w.grid = tiny_grid();
  w.exec = tiny_exec();
  w.clients = 2;
  w.probe_points = 2;
  RunOptions opt;
  opt.seed = 3;
  opt.seconds = 2.0;
  opt.trace = true;
  const Result r = run_fit_workload(w, opt);
  // Every request is checked against the construction — a hit exactly when
  // the client asked for that point before — and every refit must retrace
  // its original fit bitwise; any deviation is a failure.
  EXPECT_EQ(r.failed, 0u) << notes(r);
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.attempted, 10u);
  // Refits (every other fit) hit on every request; fresh fits hit once,
  // on their final re-evaluation of the minimum.
  EXPECT_GT(metric(r, "service.cache_hit_frac"), 0.4);
  EXPECT_LT(metric(r, "service.cache_hit_frac"), 0.7);
}

TEST(Workloads, ServiceHotPrefillMakesEveryRequestAHit) {
  HotWorkload w;
  w.grid = tiny_grid();
  w.exec = tiny_exec();
  w.clients = 2;
  w.pool_points = 16;
  w.probe_points = 2;
  RunOptions opt;
  opt.seed = 9;
  opt.seconds = 2.0;
  opt.trace = true;
  const Result r = run_hot_workload(w, opt);
  EXPECT_EQ(r.failed, 0u) << notes(r);
  EXPECT_EQ(metric(r, "service.cache_hit_frac"), 1.0);
  // One untraced and one traced slice make the one overhead pair.
  EXPECT_TRUE(std::isfinite(metric(r, "trace.overhead_frac")));
}

std::set<std::string> metric_names(const Result& r) {
  std::set<std::string> names;
  for (const Metric& m : r.metrics) names.insert(m.name);
  return names;
}

// BENCHMARK.json holds one list of end-to-end metrics and one of per-layer
// metrics for every workload, so the executor workload and the service
// workload must report the same names in each mode.
TEST(Workloads, ExecutorAndServiceWorkloadsReportTheSameMetrics) {
  BatchWorkload b;
  b.grid = tiny_grid();
  b.exec = tiny_exec();
  b.batch_points = 2;
  b.warmup_points = 1;
  b.probe_points = 1;
  HotWorkload h;
  h.grid = tiny_grid();
  h.exec = tiny_exec();
  h.pool_points = 16;
  h.probe_points = 1;
  for (bool trace : {false, true}) {
    RunOptions opt;
    opt.seed = 4;
    opt.seconds = 2.0;
    opt.trace = trace;
    const Result rb = run_batch_workload(b, opt);
    const Result rh = run_hot_workload(h, opt);
    EXPECT_EQ(rb.failed, 0u) << notes(rb);
    EXPECT_EQ(rh.failed, 0u) << notes(rh);
    EXPECT_EQ(metric_names(rb), metric_names(rh)) << "trace " << trace;
    for (const Result* r : {&rb, &rh})
      for (const Metric& m : r->metrics) EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
}

TEST(Stats, QuantilesInterpolateBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({5, 1, 3, 2, 4}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.905), 90.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(91, 0.9), 9u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(901, 0.99), 9u);
  EXPECT_EQ(highest_supported_quantile(19), 0.0);
  EXPECT_EQ(highest_supported_quantile(21), 0.5);
  EXPECT_EQ(highest_supported_quantile(100), 0.9);
  EXPECT_EQ(highest_supported_quantile(901), 0.9);
  EXPECT_EQ(highest_supported_quantile(902), 0.99);
  EXPECT_EQ(highest_supported_quantile(1000), 0.99);
  EXPECT_EQ(highest_supported_quantile(10000), 0.999);
}

TEST(Stats, HistogramQuantilesStayWithinOnePercent) {
  std::vector<double> v;
  LatencyHistogram h, a, b;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double x = 1e-5 * std::exp(3.0 * rng.uniform());  // 10 us .. 200 us
    v.push_back(x);
    h.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(h.count(), 20000u);
  EXPECT_EQ(a.count(), 20000u);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_NEAR(h.quantile(q) / quantile(v, q), 1.0, 0.01) << q;
    EXPECT_EQ(h.quantile(q), a.quantile(q));
  }
  EXPECT_THROW(LatencyHistogram().quantile(0.5), std::invalid_argument);
}

Span make_span(SpanId id, SpanId parent, Layer layer, const char* name,
               std::int64_t t0, std::int64_t t1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.name = name;
  s.t0_ns = t0;
  s.t1_ns = t1;
  return s;
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  // Root [0, 100] with children that overlap ([10, 30] and [20, 50]) and
  // one that runs past the root's end ([90, 120]): they cover 50 ns of it.
  const std::vector<Span> spans{
      make_span(1, kNoSpan, Layer::bench, "iteration", 0, 100),
      make_span(2, 1, Layer::service, "request", 10, 30),
      make_span(3, 1, Layer::service, "request", 20, 50),
      make_span(4, 1, Layer::core, "run_batch", 90, 120),
      make_span(5, 4, Layer::apec, "inner", 95, 105),
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_NEAR(self[0], 50e-9, 1e-15);
  EXPECT_NEAR(self[1], 20e-9, 1e-15);
  EXPECT_NEAR(self[2], 30e-9, 1e-15);
  EXPECT_NEAR(self[3], 20e-9, 1e-15);
  EXPECT_NEAR(self[4], 10e-9, 1e-15);
}

TEST(Trace, LayerTimesSumOverTheSelectedTrees) {
  const std::vector<Span> spans{
      make_span(1, kNoSpan, Layer::bench, "iteration", 0, 100),
      make_span(2, 1, Layer::service, "request", 10, 90),
      make_span(3, kNoSpan, Layer::bench, "iteration", 200, 240),
      make_span(4, 3, Layer::service, "request", 200, 230),
      make_span(5, kNoSpan, Layer::minimpi, "run", 300, 400),
  };
  const LayerTimes lt = layer_times(spans, "iteration");
  EXPECT_NEAR(lt.root_s, 140e-9, 1e-15);
  EXPECT_NEAR(lt.self_s[static_cast<std::size_t>(Layer::service)], 110e-9, 1e-15);
  EXPECT_NEAR(lt.self_s[static_cast<std::size_t>(Layer::bench)], 30e-9, 1e-15);
  EXPECT_EQ(lt.self_s[static_cast<std::size_t>(Layer::minimpi)], 0.0);
  EXPECT_NEAR(lt.share(Layer::service), 110.0 / 140.0, 1e-12);
  EXPECT_NEAR(layer_times(spans, "run").root_s, 100e-9, 1e-15);
}

TEST(Trace, OverheadIsTheMedianOfPairedRelativeDifferences) {
  // Pair differences: 0.1, 0.0, -0.05 (a host slowing through the run moves
  // both members of a pair, not their difference); the unpaired 50 is
  // ignored.
  EXPECT_NEAR(paired_overhead({100, 50, 20}, {90, 50, 21, 50}), 0.0, 1e-12);
  EXPECT_NEAR(paired_overhead({100, 50}, {90, 44}), 0.11, 1e-12);
  EXPECT_THROW(paired_overhead({1.0}, {}), std::invalid_argument);
}

TEST(Trace, SpanLogNestsAndDropsPastCapacity) {
  SpanLog log(true, 3, 2);
  {
    ScopedSpan a(log, Layer::bench, "a", kNoSpan, 1);
    ScopedSpan b(log, Layer::core, "b", a.id(), 1);
    ScopedSpan c(log, Layer::core, "c", a.id(), 1);
    EXPECT_EQ(c.id(), kNoSpan);
    EXPECT_EQ(b.id() >> 32, 3u);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, log.spans()[0].id);
  EXPECT_LE(log.spans()[0].t0_ns, log.spans()[1].t0_ns);
  EXPECT_LE(log.spans()[1].t1_ns, log.spans()[0].t1_ns);
  EXPECT_EQ(log.dropped(), 1u);

  SpanLog off(false, 4, 10);
  { ScopedSpan s(off, Layer::bench, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
