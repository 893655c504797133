// Tests for the virtual GPU substrate: device properties, cost model,
// memory management, kernel launch semantics, and Algorithm 2's kernel.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "quad/newton_cotes.h"
#include "vgpu/device.h"
#include "vgpu/integr_kernel.h"

namespace {

using namespace hspec;
using namespace hspec::vgpu;

TEST(DeviceProperties, PaperTestbedPreset) {
  const DeviceProperties p = tesla_c2075();
  EXPECT_EQ(p.total_cores(), 448);            // 14 SM x 32
  EXPECT_DOUBLE_EQ(p.core_clock_ghz, 1.15);
  EXPECT_DOUBLE_EQ(p.dp_peak_gflops, 515.0);
  EXPECT_EQ(p.max_concurrent_kernels, 1);     // Fermi serial execution
  EXPECT_EQ(p.arch, Architecture::fermi);
  EXPECT_EQ(p.memory_bytes, std::size_t{6} * 1024 * 1024 * 1024);
}

TEST(DeviceProperties, KeplerHasHyperQ) {
  const DeviceProperties p = tesla_k20();
  EXPECT_EQ(p.max_concurrent_kernels, 32);
  EXPECT_EQ(p.arch, Architecture::kepler);
  EXPECT_EQ(to_string(p.arch), "kepler");
}

TEST(CostModel, LaunchOverheadIsAdditive) {
  const GpuCostModel m(tesla_c2075());
  const double empty = m.kernel_time_s({0.0, 0});
  EXPECT_DOUBLE_EQ(empty, m.launch_overhead_s());
  const double loaded = m.kernel_time_s({1e9, 0});
  EXPECT_GT(loaded, empty);
  // 1e9 flops at 25% of 515 GFLOPS ~ 7.8 ms.
  EXPECT_NEAR(loaded - empty, 1e9 / (515e9 * 0.25), 1e-6);
}

TEST(CostModel, TransferLatencyPlusBandwidth) {
  const GpuCostModel m(tesla_c2075());
  const double small = m.transfer_time_s(8);
  EXPECT_NEAR(small, m.properties().memcpy_latency_s, 1e-7);
  const double big = m.transfer_time_s(6'000'000);  // ~1 ms at 6 GB/s
  EXPECT_NEAR(big, m.properties().memcpy_latency_s + 1e-3, 1e-5);
}

TEST(CostModel, MemoryBoundKernelsChargedByBandwidth) {
  const GpuCostModel m(tesla_c2075());
  WorkEstimate w;
  w.flops = 1.0;                       // negligible compute
  w.device_bytes = 144'000'000;        // 1 ms at 144 GB/s
  EXPECT_NEAR(m.kernel_time_s(w), 1e-3 + m.launch_overhead_s(), 1e-5);
}

// ---------------------------------------------------------------------- device

TEST(Device, AllocationBudgetEnforced) {
  DeviceProperties p = tesla_c2075();
  p.memory_bytes = 1024;
  Device dev(p, 0);
  auto a = dev.alloc(512);
  EXPECT_EQ(dev.bytes_allocated(), 512u);
  auto b = dev.alloc(512);
  EXPECT_EQ(dev.bytes_allocated(), 1024u);
  EXPECT_THROW(dev.alloc(1), std::bad_alloc);
  b = DeviceBuffer();  // release
  EXPECT_EQ(dev.bytes_allocated(), 512u);
  EXPECT_NO_THROW(dev.alloc(256));
  EXPECT_THROW(dev.alloc(0), std::invalid_argument);
}

TEST(Device, BufferMoveTransfersOwnership) {
  Device dev(tesla_c2075(), 0);
  DeviceBuffer a = dev.alloc(64);
  void* ptr = a.device_ptr();
  DeviceBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.device_ptr(), ptr);
  EXPECT_EQ(dev.bytes_allocated(), 64u);
}

TEST(Device, MemcpyRoundTripAndAccounting) {
  Device dev(tesla_c2075(), 3);
  EXPECT_EQ(dev.id(), 3);
  std::vector<double> in{1.0, 2.0, 3.0};
  std::vector<double> out(3, 0.0);
  DeviceBuffer buf = dev.alloc(3 * sizeof(double));
  dev.copy_to_device(buf, in.data(), 3 * sizeof(double));
  dev.copy_to_host(out.data(), buf, 3 * sizeof(double));
  EXPECT_EQ(out, in);
  const DeviceStats st = dev.stats();
  EXPECT_EQ(st.h2d_copies, 1u);
  EXPECT_EQ(st.d2h_copies, 1u);
  EXPECT_EQ(st.bytes_h2d, 24u);
  EXPECT_GT(st.transfer_time_s, 0.0);
  EXPECT_THROW(dev.copy_to_device(buf, in.data(), 999), std::out_of_range);
}

TEST(Device, LaunchVisitsEveryThreadOnce) {
  Device dev(tesla_c2075(), 0);
  std::set<std::size_t> seen;
  std::size_t calls = 0;
  dev.launch({3, 1, 1}, {4, 1, 1}, {}, [&](const KernelCtx& c) {
    ++calls;
    seen.insert(c.global_x());
    EXPECT_EQ(c.stride_x(), 12u);
  });
  EXPECT_EQ(calls, 12u);
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 11u);
}

TEST(Device, MultiDimensionalLaunch) {
  Device dev(tesla_c2075(), 0);
  std::size_t calls = 0;
  dev.launch({2, 2, 1}, {2, 1, 2}, {}, [&](const KernelCtx&) { ++calls; });
  EXPECT_EQ(calls, 16u);
  EXPECT_THROW(dev.launch({0, 1, 1}, {1, 1, 1}, {}, [](const KernelCtx&) {}),
               std::invalid_argument);
}

TEST(Device, VirtualClockAccumulates) {
  Device dev(tesla_c2075(), 0);
  EXPECT_DOUBLE_EQ(dev.busy_time_s(), 0.0);
  dev.launch({1, 1, 1}, {1, 1, 1}, {1e9, 0}, [](const KernelCtx&) {});
  const double t1 = dev.busy_time_s();
  EXPECT_GT(t1, 7e-3);
  dev.launch({1, 1, 1}, {1, 1, 1}, {1e9, 0}, [](const KernelCtx&) {});
  EXPECT_NEAR(dev.busy_time_s(), 2.0 * t1, 1e-9);
  EXPECT_EQ(dev.stats().kernels_launched, 2u);
}

// Fermi's one-kernel-at-a-time rule is billed on the virtual clock, not
// enforced on the host: two threads launching on one device must have their
// kernel bodies in flight together. Each body announces itself and waits
// (bounded) for the other, so a device that serializes bodies again fails
// here after the timeout instead of hanging.
TEST(Device, LaunchBodiesOverlapOnTheHost) {
  Device dev(tesla_c2075(), 0);
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool saw_other[2] = {false, false};
  auto launcher = [&](int me) {
    dev.launch({1, 1, 1}, {1, 1, 1}, {1e6, 0}, [&](const KernelCtx&) {
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      saw_other[me] = cv.wait_for(lock, std::chrono::seconds(5),
                                  [&] { return entered == 2; });
    });
  };
  std::thread a(launcher, 0);
  std::thread b(launcher, 1);
  a.join();
  b.join();
  EXPECT_TRUE(saw_other[0]);
  EXPECT_TRUE(saw_other[1]);
  EXPECT_EQ(dev.stats().kernels_launched, 2u);
}

// The counters stay exact under concurrent launches: every launch is
// counted once, billed its own cost-model duration, and returns it.
TEST(Device, ConcurrentLaunchesBillEveryKernelOnce) {
  constexpr int kThreads = 4;
  constexpr int kLaunches = 50;
  Device dev(tesla_c2075(), 0);
  auto work_of = [](int t, int i) {
    return WorkEstimate{1e6 * (t * kLaunches + i + 1),
                        static_cast<std::size_t>(64 * (i + 1))};
  };
  std::vector<std::thread> threads;
  std::vector<std::size_t> visits(kThreads, 0);
  std::vector<int> misbilled(kThreads, 0);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLaunches; ++i) {
        const WorkEstimate work = work_of(t, i);
        const double billed = dev.launch({2, 1, 1}, {8, 1, 1}, work,
                                         [&](const KernelCtx&) { ++visits[t]; });
        if (billed != dev.cost_model().kernel_time_s(work)) ++misbilled[t];
      }
    });
  for (auto& th : threads) th.join();

  double expected = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(visits[t], std::size_t{16} * kLaunches);
    EXPECT_EQ(misbilled[t], 0);
    for (int i = 0; i < kLaunches; ++i)
      expected += dev.cost_model().kernel_time_s(work_of(t, i));
  }
  const DeviceStats st = dev.stats();
  EXPECT_EQ(st.kernels_launched,
            static_cast<std::uint64_t>(kThreads) * kLaunches);
  // Only the summation order differs from the serial sum.
  EXPECT_NEAR(st.kernel_time_s, expected, 1e-12 * expected);
  EXPECT_EQ(dev.busy_time_s(), st.kernel_time_s);  // no transfers
}

TEST(DeviceRegistry, ExplicitCountAndEnvDetect) {
  DeviceRegistry three(3);
  EXPECT_EQ(three.device_count(), 3u);
  EXPECT_TRUE(three.gpu_available());
  EXPECT_EQ(three.device(2).id(), 2);

  ::setenv("HSPEC_VGPU_COUNT", "2", 1);
  DeviceRegistry detected(-1);
  EXPECT_EQ(detected.device_count(), 2u);
  ::unsetenv("HSPEC_VGPU_COUNT");
  DeviceRegistry none(-1);
  EXPECT_FALSE(none.gpu_available());  // runs normally without GPU devices
  EXPECT_THROW(DeviceRegistry{65}, std::invalid_argument);
}

// --------------------------------------------------------------- Algorithm 2

TEST(GpuIntegr, MatchesHostSimpsonPerBin) {
  Device dev(tesla_c2075(), 0);
  auto f = [](double x) { return std::exp(-x) * x; };
  const std::size_t n = 37;
  std::vector<double> gpu(n);
  gpu_integr(dev, 0.0, 3.0, f, gpu);
  for (std::size_t b = 0; b < n; ++b) {
    const double lo = 0.0 + 3.0 * static_cast<double>(b) / n;
    const double hi = 0.0 + 3.0 * static_cast<double>(b + 1) / n;
    const double host = quad::simpson(f, lo, hi, 64).value;
    EXPECT_NEAR(gpu[b], host, 1e-15 + 1e-12 * std::fabs(host)) << "bin " << b;
  }
}

TEST(GpuIntegr, SumOfBinsIsTotalIntegral) {
  Device dev(tesla_c2075(), 0);
  auto f = [](double x) { return std::sin(x); };
  std::vector<double> gpu(64);
  gpu_integr(dev, 0.0, 3.141592653589793, f, gpu);
  double total = 0.0;
  for (double v : gpu) total += v;
  EXPECT_NEAR(total, 2.0, 1e-9);
}

TEST(GpuIntegr, AccumulateModeAddsAcrossLaunches) {
  Device dev(tesla_c2075(), 0);
  auto f = [](double x) { return x; };
  const std::size_t n = 8;
  DeviceBuffer emi = dev.alloc(n * sizeof(double));
  dev.memset_device(emi, 0, n * sizeof(double));
  IntegrLaunchConfig cfg;
  cfg.accumulate = true;
  gpu_integr_device(dev, 0.0, 1.0, n, f, emi, cfg);
  gpu_integr_device(dev, 0.0, 1.0, n, f, emi, cfg);  // "levels" accumulate
  std::vector<double> out(n);
  dev.copy_to_host(out.data(), emi, n * sizeof(double));
  double total = 0.0;
  for (double v : out) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);  // 2 x integral of x over [0,1]
}

TEST(GpuIntegr, NonUniformEdges) {
  Device dev(tesla_c2075(), 0);
  auto f = [](double x) { return 1.0 / x; };
  const std::vector<double> edges{1.0, 2.0, 4.0, 8.0};  // log-uniform
  DeviceBuffer edges_dev = dev.alloc(edges.size() * sizeof(double));
  dev.copy_to_device(edges_dev, edges.data(), edges.size() * sizeof(double));
  DeviceBuffer emi = dev.alloc(3 * sizeof(double));
  gpu_integr_edges_device(dev, edges_dev, 3, f, emi);
  std::vector<double> out(3);
  dev.copy_to_host(out.data(), emi, 3 * sizeof(double));
  for (double v : out) EXPECT_NEAR(v, std::log(2.0), 1e-8);
}

TEST(GpuIntegr, WorkEstimateScalesWithMethod) {
  IntegrLaunchConfig simpson;
  IntegrLaunchConfig romberg13;
  romberg13.method = quad::KernelMethod::romberg;
  romberg13.method_param = 13;
  const auto w_s = integr_work(1000, simpson);
  const auto w_r = integr_work(1000, romberg13);
  EXPECT_NEAR(w_r.flops / w_s.flops, 8193.0 / 129.0, 1e-9);
}

TEST(GpuIntegr, ValidatesArguments) {
  Device dev(tesla_c2075(), 0);
  auto f = [](double x) { return x; };
  DeviceBuffer small = dev.alloc(8);
  EXPECT_THROW(gpu_integr_device(dev, 0.0, 1.0, 4, f, small),
               std::out_of_range);
  DeviceBuffer ok = dev.alloc(4 * sizeof(double));
  EXPECT_THROW(gpu_integr_device(dev, 1.0, 1.0, 4, f, ok),
               std::invalid_argument);
  EXPECT_THROW(gpu_integr_device(dev, 0.0, 1.0, 0, f, ok),
               std::invalid_argument);
}

}  // namespace
