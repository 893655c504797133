#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apec/fitting.h"
#include "core/hybrid_executor.h"
#include "harness.h"
#include "service/service.h"
#include "stats.h"

namespace perfbench {

namespace hs = hspec;
using hs::apec::GridPoint;

// ---- Generators ---------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
  return r.next();
}

namespace {

double log_lerp(double lo, double hi, double u) {
  return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
}

}  // namespace

SurveyGenerator::SurveyGenerator(PointRange range, std::uint64_t seed)
    : range_(range), rng_(seed) {}

std::vector<GridPoint> SurveyGenerator::next_batch(std::size_t n) {
  std::vector<GridPoint> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Strata in the order 0, n-1, 1, n-2, ...: the executor seeds ranks
    // with contiguous runs of points, so each rank's pair is one hot and
    // one cold temperature, and every batch carries the same load shape.
    const std::size_t s = i % 2 == 0 ? i / 2 : n - 1 - i / 2;
    const double u = (static_cast<double>(s) + rng_.uniform()) /
                     static_cast<double>(n);
    GridPoint p;
    p.kT_keV = log_lerp(range_.kt_min_keV, range_.kt_max_keV, u);
    p.ne_cm3 = log_lerp(range_.ne_min_cm3, range_.ne_max_cm3, rng_.uniform());
    p.time_s = 0.0;
    p.index = issued_++;
    batch.push_back(p);
  }
  return batch;
}

FitSchedule::FitSchedule(const FitWorkload& w, std::uint64_t seed, int client)
    : w_(&w),
      client_(client),
      rng_(stream_seed(seed, 100 + static_cast<std::uint64_t>(client))),
      phase_(Rng(stream_seed(seed, 99)).uniform()) {}

FitJob FitSchedule::next() {
  const std::size_t k = fits_++;
  const double r = w_->refit_ratio;
  const bool refit =
      k > 0 && !observations_.empty() &&
      std::floor(static_cast<double>(k + 1) * r) >
          std::floor(static_cast<double>(k) * r);
  if (refit) return {true, rng_.below(observations_.size())};

  // Hidden temperatures follow one golden-ratio sequence shared by all
  // clients, so any run's fresh fits cover the range evenly.
  const std::size_t g =
      observations_.size() * static_cast<std::size_t>(w_->clients) +
      static_cast<std::size_t>(client_);
  const double u = std::fmod(phase_ + 0.6180339887498949 * static_cast<double>(g), 1.0);
  ObservationSpec spec;
  spec.truth_kT_keV = log_lerp(w_->truth_kt_min_keV, w_->truth_kt_max_keV, u);
  spec.ne_cm3 = 1.0 + 0.25 * static_cast<double>(client_);
  spec.kt_min_keV = w_->fit_kt_min_keV * std::exp(0.2 * (rng_.uniform() - 0.5));
  spec.kt_max_keV = w_->fit_kt_max_keV * std::exp(0.2 * (rng_.uniform() - 0.5));
  spec.noise_seed = rng_.next();
  observations_.push_back(spec);
  return {false, observations_.size() - 1};
}

std::vector<GridPoint> hot_pool(const HotWorkload& w, std::uint64_t seed) {
  SurveyGenerator gen(w.points, stream_seed(seed, 200));
  return gen.next_batch(w.pool_points);
}

std::vector<std::size_t> hot_request(const HotWorkload& w, Rng& rng) {
  const std::size_t n =
      w.min_request_points +
      rng.below(w.max_request_points - w.min_request_points + 1);
  std::vector<std::size_t> idx;
  while (idx.size() < n) {
    const std::size_t i = rng.below(w.pool_points);
    if (std::find(idx.begin(), idx.end(), i) == idx.end()) idx.push_back(i);
  }
  return idx;
}

namespace {

constexpr std::size_t kSpanCapacity = 50000;  // per thread
/// service_hot answers ~45k requests/s per client, two spans each: room for
/// about 11 traced seconds per client; later spans are counted as dropped.
constexpr std::size_t kHotSpanCapacity = std::size_t{1} << 20;
/// Set-ups per run; setup_s is their median. The executor workloads and
/// service_hot measure an equal share of the window on each instance set
/// up, so that no one instance's thread placement or memory layout sets
/// the result.
constexpr int kSetupRepeats = 3;
constexpr double kRequestDeadlineS = 60.0;  // a later reply ends the run

void check_reference_sample(const Model& m, const std::vector<GridPoint>& pts,
                            const std::vector<std::vector<double>>& spectra,
                            std::uint64_t seed, std::size_t count,
                            Counters& counters, Result& res) {
  Rng rng(stream_seed(seed, 300));
  std::size_t bad = 0;
  for (std::size_t i = 0; i < count && !pts.empty(); ++i) {
    const std::size_t k = rng.below(pts.size());
    if (!matches_serial_reference(m, pts[k], spectra[k])) ++bad;
  }
  counters.failed += bad;
  res.notes.push_back("reference: " + std::to_string(std::min(count, pts.size())) +
                      " sampled spectra checked against serial QAGS, " +
                      std::to_string(bad) + " outside the Fig. 8 envelope");
}

void finish(Result& res, const Counters& counters) {
  res.attempted = counters.attempted.load();
  res.failed = counters.failed.load();
  res.correct = res.failed == 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Executor counters of the window's run_batch calls.
struct StreamCounters {
  std::size_t points = 0, batches = 0;
  double busy_s = 0.0;
  std::uint64_t kernels = 0, h2d = 0, saved = 0, tasks = 0, fallbacks = 0,
                cas = 0, steals = 0;
  std::vector<double> sched_p50, vms, wall_over_virtual;

  void add(const hs::core::HybridResult& r, std::size_t n, double wall) {
    busy_s += wall;
    points += n;
    ++batches;
    for (const auto& d : r.device_stats) {
      kernels += d.kernels_launched;
      h2d += d.bytes_h2d;
      saved += d.bytes_h2d_saved;
    }
    tasks += r.tasks_total;
    fallbacks += static_cast<std::uint64_t>(r.scheduling.cpu_fallbacks);
    cas += static_cast<std::uint64_t>(r.scheduling.cas_retries);
    steals += r.pipeline.steals;
    sched_p50.push_back(r.sched.median_ns());
    vms.push_back(r.virtual_makespan_s);
    wall_over_virtual.push_back(wall / r.virtual_makespan_s);
  }
};

/// Per-layer metrics of the executor (vgpu and core). A window that ran no
/// executor batch (service_hot: every request hits) reports them as 0.
void add_stream_metrics(Result& res, const StreamCounters& s,
                        const PointLayers& pl, int ranks) {
  const double n = static_cast<double>(s.points);
  const double tasks = static_cast<double>(s.tasks);
  const double wall_per_point = ratio(s.busy_s, n);
  const double layer_per_point = pl.layer_work_s() / static_cast<double>(pl.points);
  const auto med = [](const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); };
  add_metric(res, "vgpu.kernels_per_point", ratio(static_cast<double>(s.kernels), n), "count",
             s.batches);
  add_metric(res, "vgpu.h2d_bytes_per_point", ratio(static_cast<double>(s.h2d), n), "B", s.batches);
  add_metric(res, "vgpu.virtual_makespan_s", med(s.vms), "s", s.vms.size());
  add_metric(res, "vgpu.wall_over_virtual", med(s.wall_over_virtual), "ratio", s.vms.size());
  add_metric(res, "core.rank_wait_frac",
             s.batches > 0 ? 1.0 - layer_per_point / (wall_per_point * ranks) : 0.0, "ratio");
  add_metric(res, "core.parallel_speedup",
             ratio(pl.serial_s / static_cast<double>(pl.points), wall_per_point), "ratio");
  add_metric(res, "core.sched_decision_p50_ns", med(s.sched_p50), "ns", s.sched_p50.size());
  add_metric(res, "core.tasks_per_point", ratio(tasks, n), "count", s.batches);
  add_metric(res, "core.cpu_fallback_frac", ratio(static_cast<double>(s.fallbacks), tasks),
             "ratio", s.tasks);
  add_metric(res, "core.cas_retries_per_task", ratio(static_cast<double>(s.cas), tasks),
             "ratio", s.tasks);
  add_metric(res, "core.steals_per_batch",
             ratio(static_cast<double>(s.steals), static_cast<double>(s.batches)), "count",
             s.batches);
  add_metric(res, "core.h2d_saved_frac",
             ratio(static_cast<double>(s.saved), static_cast<double>(s.h2d + s.saved)),
             "ratio");
}

/// Per-layer metrics of the service stream, shared by every workload: a
/// workload that calls the executor directly (survey_cold) bypasses the
/// service, and its queue, hit and batching figures read 0.
struct ServiceSamples {
  LatencyHistogram queue_wait_s;
  std::vector<double> batch_points;  ///< of requests that missed
  std::uint64_t hits = 0;
  std::uint64_t points = 0;
  void merge(const ServiceSamples& o) {
    queue_wait_s.merge(o.queue_wait_s);
    batch_points.insert(batch_points.end(), o.batch_points.begin(), o.batch_points.end());
    hits += o.hits;
    points += o.points;
  }
  void add(const hs::service::ServiceReply& reply, std::size_t n) {
    queue_wait_s.add(reply.stats.queue_wait_s);
    if (reply.stats.batch_points > 0)
      batch_points.push_back(static_cast<double>(reply.stats.batch_points));
    hits += reply.stats.cache_hits;
    points += n;
  }
};

/// `batches` and `coalesced` count the executor batches the service
/// dispatched in the window and those fed by two requests or more.
void add_service_metrics(Result& res, const ServiceSamples& s,
                         std::uint64_t batches, std::uint64_t coalesced,
                         const hs::service::GridCacheConfig& cache_cfg,
                         const std::vector<GridPoint>& lookup_points,
                         std::size_t bins, SpanLog& log) {
  const LatencyHistogram& qw = s.queue_wait_s;
  const auto wait = [&qw](double q) { return qw.count() > 0 ? qw.quantile(q) : 0.0; };
  add_metric(res, "service.queue_wait_p50_s", wait(0.5), "s", qw.count());
  add_metric(res, "service.queue_wait_p99_s", wait(0.99), "s", qw.count());
  add_metric(res, "service.cache_lookup_ns",
             probe_cache_lookup_ns(cache_cfg, lookup_points, bins, log), "ns");
  add_metric(res, "service.cache_hit_frac",
             ratio(static_cast<double>(s.hits), static_cast<double>(s.points)), "ratio",
             s.points);
  add_metric(res, "service.batch_points_mean",
             s.batch_points.empty() ? 0.0 : mean(s.batch_points),
             "count", s.batch_points.size());
  add_metric(res, "service.coalesced_batch_frac",
             ratio(static_cast<double>(coalesced), static_cast<double>(batches)),
             "ratio", batches);
}

}  // namespace

// ---- survey_cold / paper_sync_level -------------------------------------------

Result run_batch_workload(const BatchWorkload& w, const RunOptions& opt) {
  Result res;
  Counters counters;
  Watchdog dog(kRequestDeadlineS, counters, 1);
  SurveyGenerator gen(w.points, stream_seed(opt.seed, 1));

  StreamCounters stream;
  std::vector<double> batch_s;
  std::vector<double> untraced_rates, traced_rates;
  std::vector<GridPoint> done_points;
  std::vector<std::vector<double>> done_spectra;
  SpanLog log(false, 1, kSpanCapacity);
  std::uint64_t batch_id = 0;

  std::unique_ptr<Model> model;  // declared first: outlives the executor
  std::unique_ptr<hs::core::HybridExecutor> exec;
  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    exec.reset();
    model.reset();
    const std::int64_t t0 = now_ns();
    model = std::make_unique<Model>(w.grid);
    exec = std::make_unique<hs::core::HybridExecutor>(model->calc,
                                                       hybrid_config(w.exec));
    dog.arm(0);
    (void)exec->run_batch(gen.next_batch(w.warmup_points));
    dog.disarm(0);
    setup.push_back(seconds_between(t0, now_ns()));

    // Each executor set up runs an equal share of the window. A traced run
    // traces every second batch, so each traced batch has an untraced
    // neighbour to be compared with; its last share runs until it has one
    // pair.
    const bool last = r + 1 == kSetupRepeats;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9 / kSetupRepeats);
    while (now_ns() < end || (last && opt.trace && traced_rates.empty())) {
      const std::vector<GridPoint> batch = gen.next_batch(w.batch_points);
      const bool traced = ++batch_id % 2 == 0 && opt.trace;
      log.set_enabled(traced);
      ScopedSpan it(log, Layer::bench, "iteration", kNoSpan, batch_id);
      ++counters.attempted;
      hs::core::HybridResult res_batch;
      dog.arm(0);
      const std::int64_t b0 = now_ns();
      try {
        ScopedSpan s(log, Layer::core, "run_batch", it.id(), batch_id);
        res_batch = exec->run_batch(batch);
      } catch (const std::exception& e) {
        dog.disarm(0);
        ++counters.failed;
        res.notes.push_back(std::string("run_batch threw: ") + e.what());
        continue;
      }
      const double wall = seconds_between(b0, now_ns());
      dog.disarm(0);
      stream.add(res_batch, batch.size(), wall);
      batch_s.push_back(wall);
      (traced ? traced_rates : untraced_rates)
          .push_back(static_cast<double>(batch.size()) / wall);

      bool ok = res_batch.spectra.size() == batch.size();
      for (std::size_t i = 0; ok && i < batch.size(); ++i) {
        ok = all_finite(res_batch.spectra[i]);
        done_points.push_back(batch[i]);
        done_spectra.push_back(res_batch.spectra[i].values());
      }
      if (!ok) ++counters.failed;
    }
  }
  log.set_enabled(false);

  check_reference_sample(*model, done_points, done_spectra, opt.seed, 2,
                         counters, res);

  if (!opt.trace) {
    if (batch_s.empty()) throw std::runtime_error("no batch completed");
    add_metric(res, "setup_s", median(setup), "s", setup.size());
    add_metric(res, "peak_rss_mb", peak_rss_mb(), "MB");
    add_metric(res, "points_per_s", static_cast<double>(stream.points) / stream.busy_s,
               "1/s", stream.batches);
    // One request is one run_batch call of batch_points points.
    add_metric(res, "latency_p50_s", median(batch_s), "s", batch_s.size());
    res.notes.push_back("points: " + std::to_string(stream.points) + " in " +
                        std::to_string(stream.batches) + " batches of " +
                        std::to_string(w.batch_points));
  } else {
    SpanLog probe_log(true, 2, kSpanCapacity);
    SurveyGenerator probe_gen(w.points, stream_seed(opt.seed, 2));
    const PointLayers pl = probe_point_layers(
        *model, probe_gen.next_batch(w.probe_points), w.exec.granularity,
        probe_log);
    add_probe_metrics(res, pl, probe_launch_speedup(*model, w.exec.ranks, probe_log),
                      probe_minimpi_run_s(w.exec.ranks, probe_log));
    add_stream_metrics(res, stream, pl, w.exec.ranks);
    // The lookup probe caches at most 64 of the window's points, as many as
    // the service_hot pool, well within the default cache's capacity.
    const std::size_t n_lookup = std::min<std::size_t>(64, done_points.size());
    const std::vector<GridPoint> lookup_points(
        done_points.begin(), done_points.begin() + static_cast<std::ptrdiff_t>(n_lookup));
    add_service_metrics(res, ServiceSamples{}, 0, 0, hs::service::GridCacheConfig{},
                        lookup_points, model->grid.bin_count(), probe_log);

    std::vector<Span> spans = log.spans();
    spans.insert(spans.end(), probe_log.spans().begin(), probe_log.spans().end());
    add_trace_metrics(res, spans, "iteration", untraced_rates, traced_rates,
                      log.dropped() + probe_log.dropped(), opt.trace_path);
  }
  finish(res, counters);
  return res;
}

// ---- fit_mixed ------------------------------------------------------------------

namespace {

hs::service::ServiceConfig service_config(const ExecParams& e,
                                          std::size_t max_batch_points,
                                          std::size_t cache_capacity) {
  hs::service::ServiceConfig cfg;
  cfg.hybrid = hybrid_config(e);
  cfg.max_batch_points = max_batch_points;
  cfg.cache.capacity = cache_capacity;
  return cfg;
}

}  // namespace

Result run_fit_workload(const FitWorkload& w, const RunOptions& opt) {
  Result res;
  Counters counters;
  const auto clients = static_cast<std::size_t>(w.clients);
  Watchdog dog(kRequestDeadlineS, counters, clients);
  const hs::service::ServiceConfig scfg =
      service_config(w.exec, w.max_batch_points, w.cache_capacity);

  std::unique_ptr<Model> model;  // declared first: outlives the service
  std::unique_ptr<hs::service::SpectralService> svc;
  std::vector<double> setup;
  SurveyGenerator warm_gen(PointRange{}, stream_seed(opt.seed, 3));
  for (int r = 0; r < kSetupRepeats; ++r) {
    svc.reset();
    model.reset();
    const std::int64_t t0 = now_ns();
    model = std::make_unique<Model>(w.grid);
    svc = std::make_unique<hs::service::SpectralService>(model->calc, scfg);
    dog.arm(0);
    (void)svc->submit(warm_gen.next_batch(w.warmup_points)).wait();
    dog.disarm(0);
    setup.push_back(seconds_between(t0, now_ns()));
  }

  std::vector<FitSchedule> schedules;
  for (int c = 0; c < w.clients; ++c) schedules.emplace_back(w, opt.seed, c);

  struct Client {
    std::vector<double> hit_s, miss_s, cold_fit_s;
    ServiceSamples service;
    std::size_t fits = 0, requests = 0, expected_hits = 0, next_job = 0;
    double busy_s = 0.0;  ///< summed fit durations, think time taken out
    /// Requests per busy second of each block of two fits (one fresh, one
    /// refit), by whether the block was traced.
    std::vector<double> untraced_rates, traced_rates;
    std::vector<hs::apec::ObservedSpectrum> observed;
    std::map<std::size_t, hs::apec::FitResult> results;
    /// By cache key: Brent's last steps can land within the cache's
    /// quantization of an earlier abscissa, and those requests hit.
    std::map<hs::service::GridKey, std::vector<double>> first_served;
    std::vector<GridPoint> missed_points;
    std::unique_ptr<SpanLog> log;
  };
  std::vector<Client> cs(clients);

  auto observation = [&](std::size_t c, std::size_t i) -> const hs::apec::ObservedSpectrum& {
    while (cs[c].observed.size() <= i) {
      const ObservationSpec& spec = schedules[c].observation(cs[c].observed.size());
      const hs::apec::Spectrum truth =
          model->calc.calculate({spec.truth_kT_keV, spec.ne_cm3, 0.0, 0});
      cs[c].observed.push_back(
          hs::apec::make_observation(truth, 1.0, w.noise, spec.noise_seed));
    }
    return cs[c].observed[i];
  };

  // Observations are inputs: their truth spectra are computed from the
  // seed before the timed window, one thread per client, for the fits a
  // client is likely to reach; one that runs past them builds more between
  // its fits.
  const auto prebuilt = static_cast<std::size_t>(opt.seconds) + 4;
  std::vector<std::vector<FitJob>> jobs(clients);
  {
    std::vector<std::thread> builders;
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::size_t k = 0; k < prebuilt; ++k) jobs[c].push_back(schedules[c].next());
      cs[c].log = std::make_unique<SpanLog>(false, static_cast<std::uint32_t>(c + 1),
                                            kSpanCapacity);
      builders.emplace_back([&, c] { (void)observation(c, schedules[c].fresh_count() - 1); });
    }
    for (auto& b : builders) b.join();
  }

  const auto telemetry_before = svc->telemetry();
  {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Client& me = cs[c];
        SpanLog& log = *me.log;
        Rng think(stream_seed(opt.seed, 500 + c));
        std::size_t block_requests = 0;
        double block_s = 0.0;
        while (now_ns() < end || (opt.trace && me.traced_rates.empty())) {
          if (me.next_job >= jobs[c].size()) jobs[c].push_back(schedules[c].next());
          const std::size_t k = ++me.next_job;
          const FitJob job = jobs[c][k - 1];
          const ObservationSpec spec = schedules[c].observation(job.observation);
          const hs::apec::ObservedSpectrum& obs = observation(c, job.observation);
          const std::uint64_t fit_id = (static_cast<std::uint64_t>(c + 1) << 32) | k;
          // A traced run traces every second block of two fits, so each
          // traced block has an untraced neighbour with the same mix; each
          // client runs until it has one pair.
          const bool traced = opt.trace && (k - 1) / 2 % 2 == 1;
          log.set_enabled(traced);

          ++counters.attempted;  // the fit itself
          ScopedSpan fit_span(log, Layer::apec, "fit", kNoSpan, fit_id);
          double think_s = 0.0;
          std::size_t fit_requests = 0;
          auto evaluate = [&](double kT) {
            {
              ScopedSpan z(log, Layer::bench, "think", fit_span.id(), fit_id);
              const std::int64_t z0 = now_ns();
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(w.think_max_s * think.uniform()));
              think_s += seconds_between(z0, now_ns());
            }
            const GridPoint p{kT, spec.ne_cm3, 0.0, 0};
            const hs::service::GridKey key = svc->cache().key_of(p);
            const auto seen = me.first_served.find(key);
            ++counters.attempted;
            ++me.requests;
            ++fit_requests;
            hs::service::ServiceReply reply;
            dog.arm(c);
            const std::int64_t t0 = now_ns();
            try {
              ScopedSpan s(log, Layer::service, "request", fit_span.id(), fit_id);
              reply = svc->submit({p}).wait();
            } catch (...) {
              dog.disarm(c);
              ++counters.failed;
              throw;
            }
            const double lat = seconds_between(t0, now_ns());
            dog.disarm(c);
            me.service.add(reply, 1);
            const bool hit = reply.stats.cache_hits == 1;
            const bool expect_hit = seen != me.first_served.end();
            me.expected_hits += expect_hit;
            (hit ? me.hit_s : me.miss_s).push_back(lat);
            bool ok = reply.spectra.size() == 1 && all_finite(reply.spectra[0]) &&
                      hit == expect_hit;
            if (ok && hit) ok = bitwise_equal(seen->second, reply.spectra[0]);
            if (ok && !hit) {
              me.first_served.emplace(key, reply.spectra[0].values());
              me.missed_points.push_back(p);
            }
            if (!ok) ++counters.failed;
            return reply.spectra.at(0);
          };

          hs::apec::FitOptions fo;
          fo.kt_min_keV = spec.kt_min_keV;
          fo.kt_max_keV = spec.kt_max_keV;
          const std::int64_t f0 = now_ns();
          hs::apec::FitResult fit;
          try {
            fit = hs::apec::fit_temperature(obs, evaluate, fo);
          } catch (...) {
            ++counters.failed;
            continue;
          }
          const double fit_s = seconds_between(f0, now_ns()) - think_s;
          ++me.fits;
          me.busy_s += fit_s;
          block_requests += fit_requests;
          block_s += fit_s;
          if (k % 2 == 0) {
            (traced ? me.traced_rates : me.untraced_rates)
                .push_back(static_cast<double>(block_requests) / block_s);
            block_requests = 0;
            block_s = 0.0;
          }
          if (job.refit) {
            // A refit sees bitwise the spectra of the original fit, so Brent
            // must retrace its path to the same result.
            const auto orig = me.results.find(job.observation);
            if (orig == me.results.end() ||
                std::memcmp(&orig->second.kT_keV, &fit.kT_keV, sizeof(double)) != 0 ||
                std::memcmp(&orig->second.chi2, &fit.chi2, sizeof(double)) != 0)
              ++counters.failed;
          } else {
            me.results[job.observation] = fit;
            me.cold_fit_s.push_back(fit_s);
          }
        }
        log.set_enabled(false);
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto telemetry_after = svc->telemetry();

  std::vector<GridPoint> pts;
  std::vector<std::vector<double>> spectra;
  for (const Client& c : cs) {
    for (const GridPoint& p : c.missed_points) {
      pts.push_back(p);
      spectra.push_back(c.first_served.at(svc->cache().key_of(p)));
    }
  }
  check_reference_sample(*model, pts, spectra, opt.seed, 2, counters, res);

  std::vector<double> hits, misses, cold;
  double fits_per_s = 0.0, points_per_s = 0.0;
  std::size_t fits = 0, expected_hits = 0;
  ServiceSamples service;
  for (const Client& c : cs) {
    hits.insert(hits.end(), c.hit_s.begin(), c.hit_s.end());
    misses.insert(misses.end(), c.miss_s.begin(), c.miss_s.end());
    cold.insert(cold.end(), c.cold_fit_s.begin(), c.cold_fit_s.end());
    // Each client is a closed loop: its rate is its fits over its own busy
    // time, and the service's rate is the sum over clients.
    if (c.fits > 0) {
      fits_per_s += static_cast<double>(c.fits) / c.busy_s;
      points_per_s += static_cast<double>(c.service.points) / c.busy_s;
    }
    fits += c.fits;
    expected_hits += c.expected_hits;
    service.merge(c.service);
  }
  res.notes.push_back("fits: " + std::to_string(fits) + " (" +
                      std::to_string(cold.size()) + " fresh), requests: " +
                      std::to_string(service.points) + ", hits " +
                      std::to_string(service.hits) + " of " +
                      std::to_string(expected_hits) + " expected by construction");
  if (!opt.trace) {
    if (highest_supported_quantile(hits.size()) < 0.9 || cold.empty() || misses.empty())
      throw std::runtime_error("fit_mixed: window too short for its percentiles");
    add_metric(res, "setup_s", median(setup), "s", setup.size());
    add_metric(res, "peak_rss_mb", peak_rss_mb(), "MB");
    std::vector<double> all = hits;
    all.insert(all.end(), misses.begin(), misses.end());
    add_metric(res, "points_per_s", points_per_s, "1/s", service.points);
    add_metric(res, "latency_p50_s", median(all), "s", all.size());
    add_metric(res, "fits_per_s", fits_per_s, "1/s", fits);
    add_metric(res, "cold_fit_p50_s", median(cold), "s", cold.size());
    add_metric(res, "hit_latency_p90_s", quantile(hits, 0.9), "s", hits.size());
    add_metric(res, "miss_latency_p50_s", median(misses), "s", misses.size());
  } else {
    SpanLog probe_log(true, 100, kSpanCapacity);
    SurveyGenerator probe_gen(PointRange{w.truth_kt_min_keV, w.truth_kt_max_keV, 1.0, 1.0},
                              stream_seed(opt.seed, 2));
    const PointLayers pl = probe_point_layers(
        *model, probe_gen.next_batch(w.probe_points), w.exec.granularity, probe_log);
    add_probe_metrics(res, pl, probe_launch_speedup(*model, w.exec.ranks, probe_log),
                      probe_minimpi_run_s(w.exec.ranks, probe_log));
    std::vector<GridPoint> lookup_points;
    for (const Client& c : cs)
      lookup_points.insert(lookup_points.end(), c.missed_points.begin(), c.missed_points.end());
    add_service_metrics(res, service, telemetry_after.batches - telemetry_before.batches,
                        telemetry_after.coalesced_batches -
                            telemetry_before.coalesced_batches,
                        scfg.cache, lookup_points, model->grid.bin_count(), probe_log);
    std::vector<Span> spans;
    std::vector<double> untraced_rates, traced_rates;
    std::size_t dropped = probe_log.dropped();
    for (const Client& c : cs) {
      spans.insert(spans.end(), c.log->spans().begin(), c.log->spans().end());
      dropped += c.log->dropped();
      // Pairs are formed within a client, from its neighbouring blocks.
      const std::size_t pairs = std::min(c.untraced_rates.size(), c.traced_rates.size());
      untraced_rates.insert(untraced_rates.end(), c.untraced_rates.begin(),
                            c.untraced_rates.begin() + static_cast<std::ptrdiff_t>(pairs));
      traced_rates.insert(traced_rates.end(), c.traced_rates.begin(),
                          c.traced_rates.begin() + static_cast<std::ptrdiff_t>(pairs));
    }
    spans.insert(spans.end(), probe_log.spans().begin(), probe_log.spans().end());
    add_trace_metrics(res, spans, "fit", untraced_rates, traced_rates, dropped,
                      opt.trace_path);
  }
  finish(res, counters);
  return res;
}

// ---- service_hot ----------------------------------------------------------------

Result run_hot_workload(const HotWorkload& w, const RunOptions& opt) {
  Result res;
  Counters counters;
  const auto clients = static_cast<std::size_t>(w.clients);
  Watchdog dog(kRequestDeadlineS, counters, clients);
  const hs::service::ServiceConfig scfg =
      service_config(w.exec, w.pool_points, w.cache_capacity);
  const std::vector<GridPoint> pool = hot_pool(w, opt.seed);

  // Latencies are kept per one-second slice of the window, in fixed-memory
  // histograms so the benchmark's footprint does not grow with the request
  // rate; the reported figures are medians over full slices, which holds
  // them steady against a brief stall of a shared host. A request belongs
  // to the slice it starts in. A traced run traces the odd slices, so each
  // traced slice has an untraced neighbour to be compared with.
  constexpr double kSlice = 1.0;
  struct Client {
    std::vector<LatencyHistogram> slices;
    std::vector<std::uint64_t> slice_points;  ///< points answered per slice
    ServiceSamples service;
    std::unique_ptr<SpanLog> log;
    std::uint64_t requests = 0;  ///< answered
    std::uint64_t sent = 0;
  };
  std::vector<Client> cs(clients);
  const std::size_t full = std::max<std::size_t>(
      opt.trace ? 2 : 1, static_cast<std::size_t>(opt.seconds / kSlice));
  const double slice_s = opt.seconds / static_cast<double>(full);
  for (std::size_t c = 0; c < clients; ++c) {
    cs[c].log = std::make_unique<SpanLog>(false, static_cast<std::uint32_t>(c + 1),
                                          kHotSpanCapacity);
    cs[c].slices.assign(full, LatencyHistogram{});
    cs[c].slice_points.assign(full, 0);
  }

  std::unique_ptr<Model> model;  // declared first: outlives the service
  std::unique_ptr<hs::service::SpectralService> svc;
  std::vector<double> setup;
  std::vector<std::vector<double>> first_served;
  std::uint64_t batches = 0, coalesced = 0;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    svc.reset();
    model.reset();
    const std::int64_t t0 = now_ns();
    model = std::make_unique<Model>(w.grid);
    svc = std::make_unique<hs::service::SpectralService>(model->calc, scfg);
    dog.arm(0);
    const hs::service::ServiceReply prefill = svc->submit(pool).wait();
    dog.disarm(0);
    setup.push_back(seconds_between(t0, now_ns()));
    // Every later request to this instance must return these spectra bitwise.
    first_served.clear();
    for (const auto& sp : prefill.spectra) {
      if (!all_finite(sp)) ++counters.failed;
      first_served.push_back(sp.values());
    }

    // Each service set up answers an equal share of the window's slices.
    const std::size_t lo = full * r / kSetupRepeats;
    const std::size_t hi = full * (r + 1) / kSetupRepeats;
    if (hi == lo) continue;
    const auto before = svc->telemetry();
    const std::int64_t start = now_ns();
    const std::int64_t end =
        start + static_cast<std::int64_t>(static_cast<double>(hi - lo) * slice_s * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Client& me = cs[c];
        Rng rng(stream_seed(opt.seed, 400 + 16 * r + c));
        std::vector<GridPoint> pts;
        for (std::int64_t now = now_ns(); now < end; now = now_ns()) {
          const std::size_t slice =
              lo + std::min(hi - lo - 1, static_cast<std::size_t>(
                                             seconds_between(start, now) / slice_s));
          me.log->set_enabled(opt.trace && slice % 2 == 1);
          const std::vector<std::size_t> idx = hot_request(w, rng);
          pts.clear();
          for (std::size_t i : idx) pts.push_back(pool[i]);
          const std::uint64_t rid = (static_cast<std::uint64_t>(c + 1) << 40) | ++me.sent;
          ScopedSpan it(*me.log, Layer::bench, "iteration", kNoSpan, rid);
          ++counters.attempted;
          hs::service::ServiceReply reply;
          dog.arm(c);
          const std::int64_t q0 = now_ns();
          try {
            ScopedSpan sp(*me.log, Layer::service, "request", it.id(), rid);
            reply = svc->submit(pts).wait();
          } catch (...) {
            dog.disarm(c);
            ++counters.failed;
            continue;
          }
          const std::int64_t q1 = now_ns();
          dog.disarm(c);
          me.slices[slice].add(seconds_between(q0, q1));
          me.slice_points[slice] += pts.size();
          me.service.add(reply, pts.size());
          ++me.requests;
          bool ok = reply.spectra.size() == pts.size() &&
                    reply.stats.cache_hits == pts.size();
          for (std::size_t i = 0; ok && i < idx.size(); ++i)
            ok = bitwise_equal(first_served[idx[i]], reply.spectra[i]);
          if (!ok) ++counters.failed;
        }
        me.log->set_enabled(false);
      });
    }
    for (auto& t : threads) t.join();
    const auto after = svc->telemetry();
    batches += after.batches - before.batches;
    coalesced += after.coalesced_batches - before.coalesced_batches;
  }
  check_reference_sample(*model, pool, first_served, opt.seed, 2, counters, res);

  std::vector<double> rate, point_rate, p50, p90, p99;
  std::vector<double> untraced_rates, traced_rates;
  for (std::size_t s = 0; s < full; ++s) {
    LatencyHistogram lat;
    std::uint64_t slice_points = 0;
    for (const auto& c : cs) {
      lat.merge(c.slices[s]);
      slice_points += c.slice_points[s];
    }
    const double r = static_cast<double>(lat.count()) / slice_s;
    (s % 2 == 1 ? traced_rates : untraced_rates).push_back(r);
    if (highest_supported_quantile(lat.count()) < 0.99) continue;
    rate.push_back(r);
    point_rate.push_back(static_cast<double>(slice_points) / slice_s);
    p50.push_back(lat.quantile(0.5));
    p90.push_back(lat.quantile(0.9));
    p99.push_back(lat.quantile(0.99));
  }

  ServiceSamples service;
  std::uint64_t requests = 0;
  for (const Client& c : cs) {
    service.merge(c.service);
    requests += c.requests;
  }
  res.notes.push_back("requests: " + std::to_string(requests) + " in " +
                      std::to_string(full) + " slices of " + std::to_string(slice_s) +
                      " s; points " + std::to_string(service.points) +
                      ", hits " + std::to_string(service.hits));
  if (!opt.trace) {
    if (rate.empty()) throw std::runtime_error("service_hot: no full slice");
    add_metric(res, "setup_s", median(setup), "s", setup.size());
    add_metric(res, "peak_rss_mb", peak_rss_mb(), "MB");
    add_metric(res, "points_per_s", median(point_rate), "1/s", point_rate.size());
    add_metric(res, "latency_p50_s", median(p50), "s", requests);
    res.notes.push_back("requests_per_s " + std::to_string(median(rate)) +
                        ", latency_p90_s " + std::to_string(median(p90)) +
                        ", latency_p99_s " + std::to_string(median(p99)) +
                        " (medians over one-second slices; not gated)");
  } else {
    SpanLog probe_log(true, 100, kSpanCapacity);
    SurveyGenerator probe_gen(w.points, stream_seed(opt.seed, 2));
    const PointLayers pl = probe_point_layers(
        *model, probe_gen.next_batch(w.probe_points), w.exec.granularity, probe_log);
    add_probe_metrics(res, pl, probe_launch_speedup(*model, w.exec.ranks, probe_log),
                      probe_minimpi_run_s(w.exec.ranks, probe_log));
    add_stream_metrics(res, StreamCounters{}, pl, w.exec.ranks);
    add_service_metrics(res, service, batches, coalesced, scfg.cache, pool,
                        model->grid.bin_count(), probe_log);
    std::vector<Span> spans;
    std::size_t dropped = probe_log.dropped();
    for (const Client& c : cs) {
      spans.insert(spans.end(), c.log->spans().begin(), c.log->spans().end());
      dropped += c.log->dropped();
    }
    spans.insert(spans.end(), probe_log.spans().begin(), probe_log.spans().end());
    add_trace_metrics(res, spans, "iteration", untraced_rates, traced_rates,
                      dropped, opt.trace_path);
  }
  finish(res, counters);
  return res;
}

// ---- Registry -------------------------------------------------------------------

namespace {

GridParams fit_grid() {
  GridParams g;
  g.max_z = 14;
  g.level_cap = 3;
  g.lambda_min_A = 2.0;
  g.lambda_max_A = 40.0;
  g.bins = 96;
  g.simpson_panels = 64;
  return g;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;

    BatchWorkload survey;  // Fig. 7 grid, pipelined, ion granularity
    survey.grid = GridParams{30, 3, 1.0, 50.0, 240, 64};
    survey.exec = ExecParams{4, 2, hs::core::ExecutionMode::pipelined,
                             hs::core::TaskGranularity::ion, 32};
    survey.points = PointRange{0.1, 5.0, 0.1, 10.0};
    survey.batch_points = 8;
    survey.warmup_points = 4;
    survey.probe_points = 4;
    v.push_back({"survey_cold", [survey](const RunOptions& o) {
                   return run_batch_workload(survey, o);
                 }});

    BatchWorkload paper = survey;  // the paper's executor configuration
    paper.exec = ExecParams{4, 2, hs::core::ExecutionMode::synchronous,
                            hs::core::TaskGranularity::level, 10};
    v.push_back({"paper_sync_level", [paper](const RunOptions& o) {
                   return run_batch_workload(paper, o);
                 }});

    FitWorkload fit;
    fit.grid = fit_grid();
    fit.exec = ExecParams{4, 2, hs::core::ExecutionMode::pipelined,
                          hs::core::TaskGranularity::ion, 32};
    fit.clients = 3;
    fit.refit_ratio = 0.5;
    v.push_back({"fit_mixed", [fit](const RunOptions& o) {
                   return run_fit_workload(fit, o);
                 }});

    HotWorkload hot;
    hot.grid = fit_grid();
    hot.exec = fit.exec;
    hot.clients = 2;
    hot.pool_points = 64;
    hot.min_request_points = 1;
    hot.max_request_points = 4;
    v.push_back({"service_hot", [hot](const RunOptions& o) {
                   return run_hot_workload(hot, o);
                 }});
    return v;
  }();
  return all;
}

}  // namespace perfbench
