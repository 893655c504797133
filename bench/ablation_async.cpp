// ablation_async — quantify the paper's §V limitation and its remedy, now
// on the REAL executor instead of the DES stub model: "Only synchronous
// mode is supported in the task scheduler ... some asynchronous task
// queuing mechanism must be introduced to keep CPUs busy."
//
// Both modes run the actual hybrid driver on the actual RRC integrals; the
// spectra are bit-identical, only the virtual device timeline and the PCIe
// byte counts differ. Two overlap regimes show up:
//
//  * Fermi (copy/compute overlap + resident edge cache): the win is the
//    per-task H2D that no longer exists plus the D2H readback hiding under
//    the next task's kernels — largest where transfers are a big share,
//    i.e. for CHEAP kernels, shrinking as Romberg depth k grows;
//  * Kepler (Hyper-Q, 32-wide): concurrent ranks' kernels overlap, so the
//    win grows with per-task computation — the paper's §V prediction that
//    async queuing pays off exactly when "the single task is time-consuming
//    to GPU".
//
// Both makespans depend on which device each rank's tasks land on (thread
// interleaving decides it), so one run is one sample of a distribution:
// every row runs --repeat times (alternating sync and pipelined), reports
// min/median/max of each makespan, and the gain is the ratio of medians.
// The shape checks judge the medians.
//
// Exit codes: 0 ok (shape checks print PASS/MISS but do not fail the run);
// 2 some run's spectra differ bitwise from the row's first synchronous run;
// 3 usage error.
//
// Usage: ablation_async [--repeat N]   (N >= 1, default 15)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "apec/calculator.h"
#include "common.h"
#include "core/hybrid.h"
#include "util/cli.h"
#include "util/statistics.h"
#include "util/table.h"

namespace {

struct ModeRun {
  double makespan_s = 0.0;
  std::uint64_t bytes_h2d = 0;
  hspec::core::HybridResult result;
};

ModeRun run_mode(const hspec::apec::SpectrumCalculator& calc,
                 hspec::core::ExecutionMode mode,
                 const std::vector<hspec::apec::GridPoint>& pts) {
  hspec::core::HybridDriver driver(
      calc, hspec::bench::bench_hybrid_config(/*devices=*/2,
                                              /*max_queue_length=*/32,
                                              /*ranks=*/4, mode));
  ModeRun r;
  r.result = driver.run(pts);
  r.makespan_s = r.result.virtual_makespan_s;
  for (const auto& st : r.result.device_stats) r.bytes_h2d += st.bytes_h2d;
  return r;
}

bool spectra_identical(const hspec::core::HybridResult& a,
                       const hspec::core::HybridResult& b) {
  for (std::size_t p = 0; p < a.spectra.size(); ++p)
    for (std::size_t bin = 0; bin < a.spectra[p].bin_count(); ++bin)
      if (a.spectra[p][bin] != b.spectra[p][bin]) return false;
  return true;
}

/// min / median / max of one makespan column over the repeats.
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

Spread spread_of(const std::vector<double>& xs) {
  return {hspec::util::percentile(xs, 0.0), hspec::util::percentile(xs, 50.0),
          hspec::util::percentile(xs, 100.0)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hspec;
  int repeat = 0;
  try {
    repeat = static_cast<int>(util::Cli(argc, argv).get_int("repeat", 15));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_async: %s\n", e.what());
    return 3;
  }
  if (repeat < 1) {
    std::fprintf(stderr, "usage: ablation_async [--repeat N]  (N >= 1)\n");
    return 3;
  }
  std::fputs(util::bench_banner(
                 "Ablation — synchronous (paper) vs pipelined executor "
                 "(streams + resident cache + work stealing)",
                 "same spectra, shorter device timeline, ~zero per-task H2D")
                 .c_str(),
             stdout);

  atomic::AtomicDatabase db(bench::bench_db_config(/*max_z=*/8,
                                                   /*level_cap=*/2));
  const auto grid = apec::EnergyGrid::wavelength(5.0, 40.0, 64);
  const std::vector<apec::GridPoint> pts{{0.3, 1.0, 0.0, 0},
                                         {0.8, 1.0, 0.0, 1}};

  struct Row {
    const char* label;
    quad::KernelMethod method;
    std::size_t param;
    const char* arch;
  };
  const Row rows[] = {
      {"simpson-64", quad::KernelMethod::simpson, 64, "fermi"},
      {"romberg 2^7", quad::KernelMethod::romberg, 7, "fermi"},
      {"romberg 2^9", quad::KernelMethod::romberg, 9, "fermi"},
      {"romberg 2^9", quad::KernelMethod::romberg, 9, "kepler"},
  };

  util::Table t({"computation/task", "arch", "sync min (s)",
                 "sync median (s)", "sync max (s)", "async min (s)",
                 "async median (s)", "async max (s)", "async gain",
                 "H2D saved"});
  double fermi_gain_cheap = 0.0;
  double fermi_gain_costly = 0.0;
  double kepler_gain_costly = 0.0;
  bool all_identical = true;
  bool all_h2d_halved = true;
  bool all_faster = true;

  for (const Row& row : rows) {
    ::setenv("HSPEC_VGPU_ARCH", row.arch, 1);
    apec::SpectrumCalculator calc(
        db, grid, bench::bench_kernel_options(row.method, row.param));

    std::vector<double> sync_s;
    std::vector<double> async_s;
    ModeRun first_sync;
    double saved = 1.0;
    for (int r = 0; r < repeat; ++r) {
      // Alternate which mode runs first so neither always runs warm.
      ModeRun sync;
      ModeRun async;
      if (r % 2 == 0) {
        sync = run_mode(calc, core::ExecutionMode::synchronous, pts);
        async = run_mode(calc, core::ExecutionMode::pipelined, pts);
      } else {
        async = run_mode(calc, core::ExecutionMode::pipelined, pts);
        sync = run_mode(calc, core::ExecutionMode::synchronous, pts);
      }
      if (r == 0) first_sync = sync;
      all_identical = all_identical &&
                      spectra_identical(first_sync.result, sync.result) &&
                      spectra_identical(first_sync.result, async.result);
      sync_s.push_back(sync.makespan_s);
      async_s.push_back(async.makespan_s);
      saved = std::min(saved, 1.0 - static_cast<double>(async.bytes_h2d) /
                                        static_cast<double>(sync.bytes_h2d));
    }
    const Spread sy = spread_of(sync_s);
    const Spread as = spread_of(async_s);
    const double gain = sy.median / as.median;

    all_h2d_halved = all_h2d_halved && saved >= 0.5;
    all_faster = all_faster && as.median < sy.median;
    if (std::string(row.arch) == "fermi") {
      if (row.method == quad::KernelMethod::simpson) fermi_gain_cheap = gain;
      if (row.param == 9) fermi_gain_costly = gain;
    } else if (row.param == 9) {
      kepler_gain_costly = gain;
    }

    char gain_str[32];
    std::snprintf(gain_str, sizeof gain_str, "%.2fx", gain);
    char saved_str[32];
    std::snprintf(saved_str, sizeof saved_str, "%.1f%%", 100.0 * saved);
    t.add_row({row.label, row.arch, util::Table::num(sy.min, 4),
               util::Table::num(sy.median, 4), util::Table::num(sy.max, 4),
               util::Table::num(as.min, 4), util::Table::num(as.median, 4),
               util::Table::num(as.max, 4), gain_str, saved_str});
  }
  ::unsetenv("HSPEC_VGPU_ARCH");
  std::printf("%d runs per mode and row; async gain = sync median / async "
              "median\n",
              repeat);
  std::fputs(t.str().c_str(), stdout);
  t.write_csv("ablation_async.csv");

  std::printf("\nshape checks (medians):\n");
  bench::check(all_identical,
               "pipelined spectra bit-identical to synchronous in every row "
               "and run");
  bench::check(all_faster,
               "pipelined virtual timeline shorter in every configuration");
  bench::check(all_h2d_halved,
               "resident edge cache cuts H2D bytes by >= 50% everywhere");
  bench::check(fermi_gain_cheap > fermi_gain_costly,
               "Fermi overlap gain concentrates where transfers dominate "
               "(cheap kernels)");
  bench::check(kepler_gain_costly > fermi_gain_costly,
               "Hyper-Q adds kernel concurrency on top: expensive tasks gain "
               "more on Kepler (the paper's §V prediction)");
  std::printf("\ncsv: ablation_async.csv\n");
  if (!all_identical) {
    std::fprintf(stderr,
                 "ablation_async: spectra differ bitwise between runs or "
                 "modes\n");
    return 2;
  }
  return 0;
}
