#pragma once
// Pieces every workload runner shares: the calculator under test, the
// correctness checks, the per-request deadline and the probes the traced
// run times layer by layer.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apec/calculator.h"
#include "atomic/database.h"
#include "core/hybrid.h"
#include "service/grid_cache.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Database, grid and kernel calculator built from GridParams. Not movable:
/// the calculator points into the database and grid.
struct Model {
  explicit Model(const GridParams& g);
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  hspec::atomic::AtomicDatabase db;
  hspec::apec::EnergyGrid grid;
  hspec::apec::SpectrumCalculator calc;
};

hspec::core::HybridConfig hybrid_config(const ExecParams& e);
double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns);
double peak_rss_mb();

bool all_finite(const hspec::apec::Spectrum& s);
bool bitwise_equal(const std::vector<double>& a,
                   const hspec::apec::Spectrum& b);

/// Serial adaptive-QAGS reference of `point` (the paper's serial APEC) and
/// the check that `values` lies within the Fig. 8 envelope of it: relative
/// error in [-3e-5, 3.3e-5] on every bin above 1e-9 of the peak, and the
/// same bound times 1e-9 of the peak below it.
bool matches_serial_reference(const Model& m,
                              const hspec::apec::GridPoint& point,
                              const std::vector<double>& values);

/// Attempted and failed operations of a run, readable by the watchdog.
struct Counters {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
};

/// Per-request deadline. Each caller arms its slot before a request and
/// disarms it after the reply. A slot armed longer than the deadline ends
/// the run: the watchdog prints a failed result and exits the process, so a
/// hung program costs a failed run instead of a wedged one.
class Watchdog {
 public:
  Watchdog(double deadline_s, const Counters& counters, std::size_t slots);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::size_t slot) {
    started_[slot].store(now_ns(), std::memory_order_relaxed);
  }
  void disarm(std::size_t slot) {
    started_[slot].store(0, std::memory_order_relaxed);
  }

 private:
  void loop();

  std::int64_t deadline_ns_;
  const Counters& counters_;
  std::size_t slots_;
  std::unique_ptr<std::atomic<std::int64_t>[]> started_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ---- Layer probes (traced run only) -----------------------------------------

/// Single-thread cost of one grid point, layer by layer, over `points`:
/// the serial calculator, then the same work split into the calls the
/// executor makes — population solve, task building, and every task through
/// core::execute_task_degraded, the program's host mirror of a device task
/// (the device kernel's per-bin rule, then the ion's lines).
struct PointLayers {
  std::size_t points = 0;
  double serial_s = 0.0;      ///< SpectrumCalculator::calculate
  double solve_s = 0.0;       ///< apec::solve_populations
  double make_tasks_s = 0.0;  ///< core::make_tasks
  /// execute_task_degraded on RRC tasks, less their lines (timed apart)
  double kernel_s = 0.0;
  double lines_s = 0.0;       ///< SpectrumCalculator::accumulate_ion_lines
  double other_s = 0.0;       ///< execute_task_degraded on free-free and non-RRC units
  std::uint64_t bins = 0;     ///< bin integrals above the RRC level edges
  double layer_work_s() const {
    return solve_s + make_tasks_s + kernel_s + lines_s + other_s;
  }
};
PointLayers probe_point_layers(const Model& m,
                               const std::vector<hspec::apec::GridPoint>& pts,
                               hspec::core::TaskGranularity granularity,
                               SpanLog& log);

/// Launch rate of `threads` threads sharing one device, over the rate of a
/// single thread making the same launches.
double probe_launch_speedup(const Model& m, int threads, SpanLog& log);

/// Median wall time of minimpi::run(ranks, barrier-only body).
double probe_minimpi_run_s(int ranks, SpanLog& log);

/// Median ns per exact-hit lookup in a standalone GridCache.
double probe_cache_lookup_ns(const hspec::service::GridCacheConfig& cfg,
                             const std::vector<hspec::apec::GridPoint>& pts,
                             std::size_t bins, SpanLog& log);

/// Metrics every traced run reports: the layer probes above.
void add_probe_metrics(Result& r, const PointLayers& pl, double launch_speedup,
                       double minimpi_run_s);

/// Tracing metrics: per-layer self time and share over the request trees
/// rooted at `root_name`, and the overhead of tracing on the workload's
/// throughput from alternating untraced and traced stretches of the run
/// (see paired_overhead).
void add_trace_metrics(Result& r, const std::vector<Span>& spans,
                       const char* root_name,
                       const std::vector<double>& untraced_rates,
                       const std::vector<double>& traced_rates,
                       std::size_t dropped, const std::string& path);

void add_metric(Result& r, std::string name, double value, std::string unit,
                std::size_t samples = 0);

}  // namespace perfbench
