#pragma once
// The benchmark's workloads. Every parameter is an explicit field below;
// the seed is the only input that varies between runs, and it generates
// every grid point, observation and request the program receives.
//
// All workloads are closed loop: each caller waits for its reply before it
// sends the next request, so the program sets the throughput.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apec/parameter_space.h"
#include "core/hybrid.h"

namespace perfbench {

// ---- Parameters -------------------------------------------------------------

/// Atomic database, wavelength grid and kernel of the calculator.
struct GridParams {
  int max_z = 30;
  int level_cap = 3;
  double lambda_min_A = 1.0;
  double lambda_max_A = 50.0;
  std::size_t bins = 240;
  std::size_t simpson_panels = 64;
};

/// How the hybrid executor runs a batch.
struct ExecParams {
  int ranks = 4;
  int devices = 2;
  hspec::core::ExecutionMode mode = hspec::core::ExecutionMode::pipelined;
  hspec::core::TaskGranularity granularity =
      hspec::core::TaskGranularity::ion;
  int max_queue_length = 32;
};

/// Grid points: kT log-uniform in [kt_min, kt_max], ne log-uniform.
struct PointRange {
  double kt_min_keV = 0.1;
  double kt_max_keV = 5.0;
  double ne_min_cm3 = 0.1;
  double ne_max_cm3 = 10.0;
};

/// survey_cold and paper_sync_level: one caller, fixed-size batches of
/// never-repeated points straight into core::HybridExecutor::run_batch.
struct BatchWorkload {
  GridParams grid;
  ExecParams exec;
  PointRange points;
  std::size_t batch_points = 8;
  std::size_t warmup_points = 4;  ///< one batch run during set-up
  std::size_t probe_points = 4;   ///< points the traced run's probes use
};

/// fit_mixed: clients running apec::fit_temperature through the service,
/// one point per request.
struct FitWorkload {
  GridParams grid;
  ExecParams exec;
  int clients = 3;
  /// Share of a client's fits that repeat one of its earlier observations
  /// (every request of such a refit is an exact cache hit).
  double refit_ratio = 0.5;
  double truth_kt_min_keV = 0.3;  ///< hidden temperatures of observations
  double truth_kt_max_keV = 3.0;
  double fit_kt_min_keV = 0.1;    ///< Brent bracket, jittered per fit
  double fit_kt_max_keV = 5.0;
  double noise = 0.03;
  /// Before each request a client spends a seeded uniform time in
  /// [0, think_max_s] on its own side of the fit (folding the model through
  /// a response, say). Without it the three closed loops lock into one of
  /// two phases — misses coalesced, or each waiting out another's batch —
  /// and the miss latency flips between them from run to run. The think
  /// time is taken out of every fit duration the benchmark reports.
  double think_max_s = 0.05;
  std::size_t max_batch_points = 64;
  std::size_t cache_capacity = 65536;
  std::size_t warmup_points = 4;
  std::size_t probe_points = 8;
};

/// service_hot: clients sending small requests drawn from a point pool the
/// set-up has already cached.
struct HotWorkload {
  GridParams grid;
  ExecParams exec;
  /// Two clients and the service worker leave a core of a 4-core host
  /// free. With three, every core is busy and a descheduled thread stalls
  /// a request's wake-up chain for milliseconds: throughput swung 2.5x
  /// between runs.
  int clients = 2;
  std::size_t pool_points = 64;
  std::size_t min_request_points = 1;
  std::size_t max_request_points = 4;
  PointRange points;
  std::size_t cache_capacity = 4096;
  std::size_t probe_points = 8;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< CSV of the recorded spans ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = derived)
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed for the reader, not part of the JSON result.
  std::vector<std::string> notes;
};

// ---- Input generators ---------------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                      ///< [0, 1)
  std::size_t below(std::size_t n);      ///< [0, n)

 private:
  std::uint64_t state_;
};

/// Seed of an independent stream derived from the run seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Never-repeated survey points. Each batch of n points puts one point,
/// jittered by the seed, in each of n equal strata of log kT, so every
/// batch spans the temperature range and carries similar work.
class SurveyGenerator {
 public:
  SurveyGenerator(PointRange range, std::uint64_t seed);
  std::vector<hspec::apec::GridPoint> next_batch(std::size_t n);

 private:
  PointRange range_;
  Rng rng_;
  std::size_t issued_ = 0;
};

/// One fit a client runs: a fresh observation, or a repeat of one of its
/// own earlier observations.
struct FitJob {
  bool refit = false;
  std::size_t observation = 0;  ///< index into the client's observations
};

/// What a fit fits: the hidden temperature, the noise seed and the Brent
/// bracket (jittered per observation, so fresh fits share no abscissa).
struct ObservationSpec {
  double truth_kT_keV = 1.0;
  double ne_cm3 = 1.0;
  double kt_min_keV = 0.1;
  double kt_max_keV = 5.0;
  std::uint64_t noise_seed = 0;
};

/// A client's fit sequence. Fit k is a refit when k > 0 and
/// floor((k + 1) * ratio) > floor(k * ratio), so the refit share is exact.
class FitSchedule {
 public:
  FitSchedule(const FitWorkload& w, std::uint64_t seed, int client);
  FitJob next();
  const ObservationSpec& observation(std::size_t i) const {
    return observations_.at(i);
  }
  std::size_t fresh_count() const { return observations_.size(); }

 private:
  const FitWorkload* w_;
  int client_;
  Rng rng_;
  double phase_;
  std::size_t fits_ = 0;
  std::vector<ObservationSpec> observations_;
};

/// The service_hot pool (stratified in log kT) and request draws from it.
std::vector<hspec::apec::GridPoint> hot_pool(const HotWorkload& w,
                                             std::uint64_t seed);
/// Distinct pool indices for one request, between min and max points.
std::vector<std::size_t> hot_request(const HotWorkload& w, Rng& rng);

// ---- Runners ----------------------------------------------------------------

Result run_batch_workload(const BatchWorkload& w, const RunOptions& opt);
Result run_fit_workload(const FitWorkload& w, const RunOptions& opt);
Result run_hot_workload(const HotWorkload& w, const RunOptions& opt);

struct Workload {
  std::string name;
  std::function<Result(const RunOptions&)> run;
};
/// survey_cold, paper_sync_level, fit_mixed, service_hot.
const std::vector<Workload>& workloads();

}  // namespace perfbench
