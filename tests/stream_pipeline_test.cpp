// Tests for the asynchronous pipelined executor: bit-identical spectra vs
// the synchronous driver, resident-cache H2D savings, stream usage, and
// work stealing through the full hybrid driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "apec/calculator.h"
#include "core/hybrid.h"

namespace {

using namespace hspec;
using namespace hspec::core;

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : db_(small_db()), grid_(apec::EnergyGrid::wavelength(5.0, 40.0, 48)),
        calc_(db_, grid_, kernel_options()) {}

  static atomic::DatabaseConfig small_db() {
    atomic::DatabaseConfig cfg;
    cfg.max_z = 8;
    cfg.levels = {2, true};
    return cfg;
  }
  static apec::CalcOptions kernel_options() {
    apec::CalcOptions opt;
    opt.integration.adaptive = false;
    return opt;
  }

  static std::vector<apec::GridPoint> points(std::size_t n) {
    std::vector<apec::GridPoint> pts;
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({0.25 + 0.1 * static_cast<double>(i), 1.0, 0.0, i});
    return pts;
  }

  HybridResult run(ExecutionMode mode, int ranks, int devices,
                   const std::vector<apec::GridPoint>& pts,
                   TaskGranularity g = TaskGranularity::ion) {
    HybridConfig cfg;
    cfg.ranks = ranks;
    cfg.devices = devices;
    cfg.granularity = g;
    // Large enough that no task ever falls back to QAGS: fallback decisions
    // are race-dependent and QAGS differs from the Simpson kernels at the
    // 1e-5 level, so bit-identity is only defined on the all-GPU schedule.
    cfg.max_queue_length = 32;
    cfg.mode = mode;
    HybridDriver driver(calc_, cfg);
    return driver.run(pts);
  }

  static void expect_bit_identical(const HybridResult& a,
                                   const HybridResult& b) {
    ASSERT_EQ(a.spectra.size(), b.spectra.size());
    for (std::size_t p = 0; p < a.spectra.size(); ++p)
      for (std::size_t bin = 0; bin < a.spectra[p].bin_count(); ++bin)
        ASSERT_EQ(a.spectra[p][bin], b.spectra[p][bin])
            << "point " << p << " bin " << bin;
  }

  atomic::AtomicDatabase db_;
  apec::EnergyGrid grid_;
  apec::SpectrumCalculator calc_;
};

TEST_F(PipelineTest, AsyncSpectraBitIdenticalToSync) {
  const auto pts = points(3);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);
  expect_bit_identical(sync, async);
  EXPECT_EQ(sync.tasks_total, async.tasks_total);
}

TEST_F(PipelineTest, AsyncBitIdenticalAtLevelGranularityAndSingleRank) {
  const auto pts = points(2);
  expect_bit_identical(
      run(ExecutionMode::synchronous, 1, 1, pts, TaskGranularity::level),
      run(ExecutionMode::pipelined, 1, 1, pts, TaskGranularity::level));
}

TEST_F(PipelineTest, AsyncBitIdenticalWithoutDevices) {
  // CPU-only: every task falls back to QAGS through the FIFO.
  const auto pts = points(2);
  const HybridResult sync = run(ExecutionMode::synchronous, 3, 0, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 3, 0, pts);
  expect_bit_identical(sync, async);
  EXPECT_EQ(async.pipeline.tasks_pipelined, 0u);
  EXPECT_EQ(async.pipeline.streams_used, 0u);
}

TEST_F(PipelineTest, ResidentCacheSavesMostH2DTraffic) {
  const auto pts = points(3);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);

  std::uint64_t sync_h2d = 0;
  std::uint64_t async_h2d = 0;
  for (const auto& st : sync.device_stats) sync_h2d += st.bytes_h2d;
  for (const auto& st : async.device_stats) async_h2d += st.bytes_h2d;
  ASSERT_GT(sync_h2d, 0u);
  // The edges went up once per device instead of once per task: >= 50%
  // H2D reduction (in fact ~100% here, since edges are the only upload).
  EXPECT_LE(async_h2d * 2, sync_h2d);
  EXPECT_GT(async.pipeline.cache_hits, 0u);
  EXPECT_EQ(async.pipeline.cache_misses,
            static_cast<std::uint64_t>(async.device_stats.size()));
  EXPECT_GT(async.pipeline.bytes_h2d_saved, 0u);
}

TEST_F(PipelineTest, SynchronousModeKeepsThePaperAccounting) {
  // The paper baseline: every GPU RRC task uploads the bin edges once and
  // nothing else, no stream opens, the resident cache is never consulted,
  // and the makespan is the busiest device's serialized busy time.
  const auto pts = points(2);
  for (TaskGranularity g : {TaskGranularity::ion, TaskGranularity::level}) {
    const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts, g);
    ASSERT_EQ(sync.scheduling.cpu_fallbacks, 0);
    std::uint64_t rrc_tasks = 0;
    for (const apec::GridPoint& pt : pts) {
      const auto pops = apec::solve_populations(db_, pt);
      for (const SpectralTask& task : make_tasks(calc_, pt, pops, g))
        if (!task.ion.is_free_free() && task.ion.emits_rrc()) ++rrc_tasks;
    }
    ASSERT_GT(rrc_tasks, 0u);
    std::uint64_t h2d = 0;
    for (const auto& st : sync.device_stats) h2d += st.bytes_h2d;
    EXPECT_EQ(h2d, rrc_tasks * (grid_.bin_count() + 1) * sizeof(double))
        << to_string(g);
    EXPECT_EQ(sync.pipeline.streams_used, 0u);
    EXPECT_EQ(sync.pipeline.cache_hits, 0u);
    EXPECT_EQ(sync.pipeline.cache_misses, 0u);
    ASSERT_EQ(sync.device_sync_time_s.size(), 2u);
    EXPECT_EQ(sync.virtual_makespan_s,
              std::max(sync.device_sync_time_s[0],
                       sync.device_sync_time_s[1]));
  }
}

TEST_F(PipelineTest, PipelineShortensTheVirtualTimeline) {
  const auto pts = points(3);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);
  ASSERT_GT(sync.virtual_makespan_s, 0.0);
  ASSERT_GT(async.virtual_makespan_s, 0.0);
  // Overlapped copies + cached edges: the device timeline must shrink.
  EXPECT_LT(async.virtual_makespan_s, sync.virtual_makespan_s);
  EXPECT_GT(async.pipeline.streams_used, 0u);
  EXPECT_GT(async.pipeline.tasks_pipelined, 0u);
  EXPECT_GE(async.pipeline.max_in_flight, 1u);
}

TEST_F(PipelineTest, WorkStealingComputesEveryPointExactlyOnce) {
  // More points than ranks and real per-point cost: on a loaded machine the
  // first rank to drain its seed range steals from the others. Exactly-once
  // is asserted by bit-identity with the synchronous single-rank reference —
  // a double- or never-computed point cannot match.
  const auto pts = points(10);
  const HybridResult reference = run(ExecutionMode::synchronous, 1, 2, pts);
  const HybridResult stolen = run(ExecutionMode::pipelined, 4, 2, pts);
  expect_bit_identical(reference, stolen);
  // Chunks move between ranks only via the queue; the counters must agree.
  EXPECT_LE(stolen.pipeline.stolen_points, pts.size());
  EXPECT_GE(stolen.pipeline.stolen_points, stolen.pipeline.steals);
}

TEST_F(PipelineTest, KeplerHyperQStillBitIdentical) {
  ::setenv("HSPEC_VGPU_ARCH", "kepler", 1);
  const auto pts = points(2);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);
  ::unsetenv("HSPEC_VGPU_ARCH");
  expect_bit_identical(sync, async);
  EXPECT_LT(async.virtual_makespan_s, sync.virtual_makespan_s);
}

TEST_F(PipelineTest, ValidatesPipelineConfig) {
  HybridConfig bad;
  bad.pipeline_depth = 0;
  EXPECT_THROW(HybridDriver(calc_, bad), std::invalid_argument);
  HybridConfig bad2;
  bad2.steal_chunk = 0;
  EXPECT_THROW(HybridDriver(calc_, bad2), std::invalid_argument);
  HybridConfig bad3;
  bad3.ranks = kMaxRanks + 1;
  EXPECT_THROW(HybridDriver(calc_, bad3), std::invalid_argument);
}

}  // namespace
