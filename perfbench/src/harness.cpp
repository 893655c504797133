#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/cpu_task_executor.h"
#include "core/hybrid.h"
#include "minimpi/minimpi.h"
#include "rrc/rrc_batch.h"
#include "stats.h"
#include "vgpu/arena.h"
#include "vgpu/device.h"
#include "vgpu/integr_kernel.h"

namespace perfbench {

namespace hs = hspec;

namespace {

hs::atomic::DatabaseConfig db_config(const GridParams& g) {
  hs::atomic::DatabaseConfig cfg;
  cfg.max_z = g.max_z;
  cfg.levels = {g.level_cap, true};
  return cfg;
}

hs::apec::CalcOptions kernel_options(const GridParams& g) {
  hs::apec::CalcOptions opt;
  opt.integration.adaptive = false;
  opt.integration.kernel = hs::quad::KernelMethod::simpson;
  opt.integration.kernel_param = g.simpson_panels;
  return opt;
}

constexpr std::size_t kMinimpiRuns = 40;
constexpr std::size_t kCsvSpans = 200000;

/// Seconds taken by `fn`, recorded as a span when the log is on.
template <class F>
double timed(SpanLog& log, Layer layer, const char* name, SpanId parent,
             F&& fn) {
  ScopedSpan span(log, layer, name, parent);
  const std::int64_t t0 = now_ns();
  fn();
  return seconds_between(t0, now_ns());
}

}  // namespace

Model::Model(const GridParams& g)
    : db(db_config(g)),
      grid(hs::apec::EnergyGrid::wavelength(g.lambda_min_A, g.lambda_max_A,
                                            g.bins)),
      calc(db, grid, kernel_options(g)) {}

hs::core::HybridConfig hybrid_config(const ExecParams& e) {
  hs::core::HybridConfig cfg;
  cfg.ranks = e.ranks;
  cfg.devices = e.devices;
  cfg.mode = e.mode;
  cfg.granularity = e.granularity;
  cfg.max_queue_length = e.max_queue_length;
  return cfg;
}

double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return 1e-9 * static_cast<double>(t1_ns - t0_ns);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool all_finite(const hs::apec::Spectrum& s) {
  return std::all_of(s.values().begin(), s.values().end(),
                     [](double v) { return std::isfinite(v); });
}

bool bitwise_equal(const std::vector<double>& a, const hs::apec::Spectrum& b) {
  return a.size() == b.bin_count() &&
         std::memcmp(a.data(), b.values().data(), a.size() * sizeof(double)) ==
             0;
}

bool matches_serial_reference(const Model& m, const hs::apec::GridPoint& point,
                              const std::vector<double>& values) {
  hs::apec::CalcOptions opt = m.calc.options();
  opt.integration.adaptive = true;
  const hs::apec::SpectrumCalculator serial(m.db, m.grid, opt);
  const hs::apec::Spectrum ref = serial.calculate(point);
  if (values.size() != ref.bin_count()) return false;
  const double floor = 1e-9 * ref.peak();
  for (std::size_t b = 0; b < values.size(); ++b) {
    const double scale = std::max(std::fabs(ref[b]), floor);
    const double rel = (values[b] - ref[b]) / scale;
    if (!(rel >= -3e-5 && rel <= 3.3e-5)) return false;
  }
  return true;
}

// ---- Watchdog ---------------------------------------------------------------

Watchdog::Watchdog(double deadline_s, const Counters& counters,
                   std::size_t slots)
    : deadline_ns_(static_cast<std::int64_t>(deadline_s * 1e9)),
      counters_(counters),
      slots_(slots),
      started_(std::make_unique<std::atomic<std::int64_t>[]>(slots)) {
  for (std::size_t i = 0; i < slots_; ++i) started_[i].store(0);
  thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                       [this] { return stop_; })) {
    const std::int64_t now = now_ns();
    std::uint64_t expired = 0;
    for (std::size_t i = 0; i < slots_; ++i) {
      const std::int64_t t0 = started_[i].load(std::memory_order_relaxed);
      if (t0 != 0 && now - t0 > deadline_ns_) ++expired;
    }
    if (expired == 0) continue;
    // The program under test still holds threads blocked on the hung
    // requests; the result is printed and the process ends without them.
    std::cerr << "perfbench: " << expired
              << " request(s) past the deadline; ending the run\n";
    std::printf(
        "{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {}}\n",
        static_cast<unsigned long long>(counters_.attempted.load()),
        static_cast<unsigned long long>(counters_.failed.load() + expired));
    std::fflush(stdout);
    std::_Exit(1);
  }
}

// ---- Probes -------------------------------------------------------------------

PointLayers probe_point_layers(const Model& m,
                               const std::vector<hs::apec::GridPoint>& pts,
                               hs::core::TaskGranularity granularity,
                               SpanLog& log) {
  PointLayers out;
  const std::size_t n_bins = m.grid.bin_count();
  const auto& edges = m.grid.edges();

  for (const hs::apec::GridPoint& p : pts) {
    ++out.points;
    out.serial_s += timed(log, Layer::apec, "calculate", kNoSpan,
                          [&] { (void)m.calc.calculate(p); });

    ScopedSpan root(log, Layer::bench, "point_layers");
    hs::apec::PointPopulations pops;
    out.solve_s += timed(log, Layer::apec, "solve_populations", root.id(),
                         [&] { pops = hs::apec::solve_populations(m.db, p); });
    std::vector<hs::core::SpectralTask> tasks;
    out.make_tasks_s += timed(log, Layer::core, "make_tasks", root.id(), [&] {
      tasks = hs::core::make_tasks(m.calc, p, pops, granularity);
    });

    hs::apec::Spectrum spectrum(m.grid);
    hs::apec::Spectrum lines_scratch(m.grid);
    for (const hs::core::SpectralTask& task : tasks) {
      const double task_s =
          timed(log, Layer::kernel, "execute_task_degraded", root.id(), [&] {
            (void)hs::core::execute_task_degraded(m.calc, task, pops, spectrum);
          });
      if (task.ion.is_free_free() || !task.ion.emits_rrc()) {
        out.other_s += task_s;
        continue;
      }
      // The task adds the ion's lines after its bins; timing them apart
      // leaves the kernel's share.
      double lines_s = 0.0;
      const bool per_level =
          task.granularity == hs::core::TaskGranularity::level;
      if (!per_level || task.level_index == 0) {
        lines_s = timed(log, Layer::apec, "accumulate_ion_lines", root.id(), [&] {
          m.calc.accumulate_ion_lines(task.ion, pops, lines_scratch);
        });
      }
      out.lines_s += lines_s;
      out.kernel_s += task_s - lines_s;

      const auto levels = m.db.levels_for(task.ion);
      const std::size_t lo = per_level ? task.level_index : 0;
      const std::size_t hi = per_level ? task.level_index + 1 : levels.size();
      for (std::size_t li = lo; li < hi; ++li)
        for (std::size_t b = 0; b < n_bins; ++b)
          if (edges[b + 1] > levels[li].binding_keV) ++out.bins;
    }
  }
  return out;
}

double probe_launch_speedup(const Model& m, int threads, SpanLog& log) {
  hs::vgpu::DeviceRegistry registry(1);
  hs::vgpu::Device& device = registry.device(0);
  const std::size_t n_bins = m.grid.bin_count();

  // One representative launch: the ground level of the most populated RRC
  // unit at 1 keV over the whole grid.
  const hs::apec::GridPoint point{1.0, 1.0, 0.0, 0};
  const auto pops = hs::apec::solve_populations(m.db, point);
  hs::atomic::IonUnit ion;
  double best = -1.0;
  for (const auto& u : m.calc.populated_ions(pops)) {
    if (!u.emits_rrc()) continue;
    const double n = pops.ion_density(u.z, u.charge).value();
    if (n > best) {
      best = n;
      ion = u;
    }
  }
  hs::rrc::RrcChannel ch;
  ch.recombining_charge = ion.charge;
  ch.level = m.db.levels_for(ion).front();
  const hs::rrc::PlasmaState plasma{pops.kT_keV, pops.ne_cm3,
                                    pops.ion_density(ion.z, ion.charge)};
  const hs::rrc::RrcBatchIntegrand f(ch, plasma);
  hs::vgpu::IntegrLaunchConfig cfg;
  cfg.method = m.calc.options().integration.kernel;
  cfg.method_param = m.calc.options().integration.kernel_param;
  const double e_lo = ch.level.binding_keV;
  const double e_hi = e_lo + 10.0 * pops.kT_keV.value();

  auto run = [&](int nthreads, int launches_each) {
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> pool;
    for (int t = 0; t < nthreads; ++t) {
      pool.emplace_back([&] {
        hs::vgpu::DeviceBuffer emi = device.alloc(n_bins * sizeof(double));
        hs::vgpu::ScratchArena arena;
        for (int i = 0; i < launches_each; ++i) {
          hs::vgpu::gpu_integr_device(device, e_lo, e_hi, n_bins, f, emi,
                                      arena, cfg);
          arena.reset();
        }
      });
    }
    for (auto& th : pool) th.join();
    return seconds_between(t0, now_ns());
  };

  // Size the run so the single-thread side takes about 0.3 s.
  const double one = run(1, 8) / 8.0;
  const int each = std::max(4, static_cast<int>(0.3 / threads / one));
  double t1 = 0.0;
  double tn = 0.0;
  {
    ScopedSpan s(log, Layer::vgpu, "launch_1_thread");
    t1 = run(1, each * threads);
  }
  {
    ScopedSpan s(log, Layer::vgpu, "launch_n_threads");
    tn = run(threads, each);
  }
  return t1 / tn;
}

double probe_minimpi_run_s(int ranks, SpanLog& log) {
  std::vector<double> runs;
  for (std::size_t rep = 0; rep < kMinimpiRuns; ++rep) {
    runs.push_back(timed(log, Layer::minimpi, "run", kNoSpan, [&] {
      hs::minimpi::run(ranks, [](hs::minimpi::Communicator& c) { c.barrier(); });
    }));
  }
  return median(runs);
}

double probe_cache_lookup_ns(const hs::service::GridCacheConfig& cfg,
                             const std::vector<hs::apec::GridPoint>& pts,
                             std::size_t bins, SpanLog& log) {
  hs::service::GridCache cache(cfg);
  const auto values = std::make_shared<const std::vector<double>>(bins, 1.0);
  for (const auto& p : pts) cache.insert(p, values);
  constexpr std::size_t kLookups = 20000;
  std::vector<double> per_lookup;
  std::size_t hits = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const double s = timed(log, Layer::service, "cache_lookup_loop", kNoSpan, [&] {
      for (std::size_t i = 0; i < kLookups; ++i)
        hits += cache.lookup(pts[i % pts.size()]).bins != nullptr;
    });
    per_lookup.push_back(1e9 * s / kLookups);
  }
  if (hits != 7 * kLookups)
    throw std::runtime_error("cache probe: a prefilled key missed");
  return median(per_lookup);
}

void add_metric(Result& r, std::string name, double value, std::string unit,
                std::size_t samples) {
  r.metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void add_probe_metrics(Result& r, const PointLayers& pl, double launch_speedup,
                       double minimpi_run_s) {
  const double n = static_cast<double>(pl.points);
  add_metric(r, "kernel.bin_integrals_per_s",
             static_cast<double>(pl.bins) / pl.kernel_s, "1/s", pl.bins);
  add_metric(r, "apec.serial_s_per_point", pl.serial_s / n, "s", pl.points);
  add_metric(r, "apec.solve_populations_s_per_point", pl.solve_s / n, "s",
             pl.points);
  add_metric(r, "apec.make_tasks_s_per_point", pl.make_tasks_s / n, "s",
             pl.points);
  add_metric(r, "apec.lines_s_per_point", pl.lines_s / n, "s", pl.points);
  add_metric(r, "vgpu.launch_parallel_speedup", launch_speedup, "ratio");
  add_metric(r, "minimpi.run_overhead_s", minimpi_run_s, "s", kMinimpiRuns);
}

void add_trace_metrics(Result& r, const std::vector<Span>& spans,
                       const char* root_name,
                       const std::vector<double>& untraced_rates,
                       const std::vector<double>& traced_rates,
                       std::size_t dropped, const std::string& path) {
  const LayerTimes lt = layer_times(spans, root_name);
  std::size_t roots = 0;
  for (const Span& s : spans)
    if (s.parent == kNoSpan && std::strcmp(s.name, root_name) == 0) ++roots;
  for (Layer layer : {Layer::bench, Layer::service, Layer::core, Layer::apec}) {
    const std::string base = std::string("trace.") + layer_name(layer);
    add_metric(r, base + ".self_share", lt.share(layer), "ratio", roots);
    add_metric(r, base + ".self_s_per_root",
               roots > 0 ? lt.self_s[static_cast<std::size_t>(layer)] /
                               static_cast<double>(roots)
                         : 0.0,
               "s", roots);
  }
  const std::size_t pairs = std::min(untraced_rates.size(), traced_rates.size());
  if (pairs == 0)
    throw std::runtime_error("trace: window too short for a traced/untraced pair");
  add_metric(r, "trace.overhead_frac", paired_overhead(untraced_rates, traced_rates),
             "ratio", pairs);
  r.notes.push_back("trace: " + std::to_string(spans.size()) +
                    " spans recorded, " + std::to_string(dropped) +
                    " dropped past the per-thread capacity");
  if (!path.empty()) {
    // service_hot records ~10^5 spans a second; the file keeps the first
    // kCsvSpans of them (tens of MB), the analysis above used them all.
    const std::size_t n = std::min(spans.size(), kCsvSpans);
    write_spans_csv(path, {spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(n)});
    r.notes.push_back("trace: " + std::to_string(n) + " spans written to " + path);
  }
}

}  // namespace perfbench
