// Tests for asynchronous streams/events on the virtual GPU and the
// asynchronous + Hyper-Q modes of the discrete-event simulator.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/hybrid_sim.h"
#include "vgpu/buffer_pool.h"
#include "vgpu/stream.h"

namespace {

using namespace hspec;
using namespace hspec::vgpu;

WorkEstimate one_ms_kernel() {
  // 1 ms of compute at C2075 effective rate, minus launch overhead noise.
  WorkEstimate w;
  w.flops = 1e-3 * 515e9 * 0.25;
  return w;
}

TEST(Stream, FifoWithinOneStream) {
  Device dev(tesla_c2075(), 0);
  StreamScheduler sched(dev);
  Stream s(sched, dev);
  s.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(), [](const KernelCtx&) {});
  const double t1 = s.synchronize();
  s.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(), [](const KernelCtx&) {});
  const double t2 = s.synchronize();
  EXPECT_GT(t1, 1e-3);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-9);
}

TEST(Stream, FermiSerializesAcrossStreams) {
  Device dev(tesla_c2075(), 0);  // max_concurrent_kernels == 1
  StreamScheduler sched(dev);
  Stream a(sched, dev);
  Stream b(sched, dev);
  a.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(), [](const KernelCtx&) {});
  b.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(), [](const KernelCtx&) {});
  // The second stream's kernel queues behind the first one.
  EXPECT_NEAR(sched.device_sync_time(), a.synchronize() * 2.0, 1e-9);
  EXPECT_NEAR(b.synchronize(), 2.0 * a.synchronize(), 1e-9);
}

TEST(Stream, KeplerOverlapsAcrossStreams) {
  Device dev(tesla_k20(), 0);  // Hyper-Q: 32 concurrent
  StreamScheduler sched(dev);
  Stream a(sched, dev);
  Stream b(sched, dev);
  a.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(), [](const KernelCtx&) {});
  b.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(), [](const KernelCtx&) {});
  // Full overlap: both streams complete at the solo duration.
  EXPECT_NEAR(b.synchronize(), a.synchronize(), 1e-12);
  EXPECT_NEAR(sched.device_sync_time(), a.synchronize(), 1e-12);
}

TEST(Stream, CopyEnginesPerDirectionOverlap) {
  Device dev(tesla_c2075(), 0);
  StreamScheduler sched(dev);
  Stream a(sched, dev);
  Stream b(sched, dev);
  std::vector<double> host(1'000'000);
  DeviceBuffer buf_a = dev.alloc(host.size() * sizeof(double));
  DeviceBuffer buf_b = dev.alloc(host.size() * sizeof(double));
  // H2D on one stream, D2H on the other: different engines, full overlap.
  a.copy_to_device_async(buf_a, host.data(), host.size() * sizeof(double));
  b.copy_to_host_async(host.data(), buf_b, host.size() * sizeof(double));
  EXPECT_NEAR(a.synchronize(), b.synchronize(), 1e-12);
  // Two H2D copies on different streams serialize on the one engine.
  Stream c(sched, dev);
  Stream d(sched, dev);
  c.copy_to_device_async(buf_a, host.data(), host.size() * sizeof(double));
  d.copy_to_device_async(buf_b, host.data(), host.size() * sizeof(double));
  EXPECT_GT(d.synchronize(), 1.5 * a.synchronize());
}

TEST(Stream, EventsCreateCrossStreamDependencies) {
  Device dev(tesla_k20(), 0);
  StreamScheduler sched(dev);
  Stream producer(sched, dev);
  Stream consumer(sched, dev);
  producer.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(),
                        [](const KernelCtx&) {});
  const Event done = producer.record();
  consumer.wait(done);
  consumer.launch_async({1, 1, 1}, {1, 1, 1}, one_ms_kernel(),
                        [](const KernelCtx&) {});
  // Despite Hyper-Q, the consumer kernel starts after the producer's.
  EXPECT_NEAR(consumer.synchronize(), 2.0 * producer.synchronize(), 1e-9);
}

TEST(Stream, KernelsStillExecuteForReal) {
  Device dev(tesla_c2075(), 0);
  StreamScheduler sched(dev);
  Stream s(sched, dev);
  int counter = 0;
  s.launch_async({2, 1, 1}, {3, 1, 1}, {}, [&](const KernelCtx&) { ++counter; });
  EXPECT_EQ(counter, 6);
}

TEST(Stream, RejectsForeignScheduler) {
  Device dev_a(tesla_c2075(), 0);
  Device dev_b(tesla_c2075(), 1);
  StreamScheduler sched_a(dev_a);
  EXPECT_THROW(Stream(sched_a, dev_b), std::invalid_argument);
}

// ----------------------------------------------- DES async / Hyper-Q modes

sim::HybridSimConfig base_config() {
  sim::HybridSimConfig c;
  c.ranks = 8;
  c.devices = 1;
  c.max_queue_length = 8;
  c.total_tasks = 400;
  c.prep_s = 0.01;
  c.cpu_task_s = 0.5;
  c.gpu_task_s = 0.05;  // expensive GPU tasks: blocking hurts
  c.jitter = 0.0;
  return c;
}

TEST(AsyncSim, ConservesTasksAndBeatsSyncOnExpensiveTasks) {
  auto cfg = base_config();
  const auto sync = sim::simulate_hybrid(cfg);
  cfg.asynchronous = true;
  const auto async = sim::simulate_hybrid(cfg);
  EXPECT_EQ(async.tasks_gpu + async.tasks_cpu, cfg.total_tasks);
  EXPECT_LT(async.makespan_s, sync.makespan_s);
}

TEST(AsyncSim, QueueBoundStillRespected) {
  auto cfg = base_config();
  cfg.asynchronous = true;
  const auto res = sim::simulate_hybrid(cfg);
  // Residency vector is sized by the bound; nothing above it is recorded.
  EXPECT_EQ(res.load0_residency_s.size(),
            static_cast<std::size_t>(cfg.max_queue_length) + 1);
  double total = 0.0;
  for (double t : res.load0_residency_s) total += t;
  EXPECT_NEAR(total, res.makespan_s, 1e-6 * res.makespan_s);
}

TEST(HyperQSim, ConcurrencyShortensMakespanWhenQueueBound) {
  auto cfg = base_config();
  cfg.ranks = 24;
  cfg.total_tasks = 2000;
  const auto fermi = sim::simulate_hybrid(cfg);
  cfg.concurrent_kernels = 32;
  const auto kepler = sim::simulate_hybrid(cfg);
  EXPECT_LT(kepler.makespan_s, fermi.makespan_s);
  EXPECT_EQ(kepler.tasks_gpu + kepler.tasks_cpu, cfg.total_tasks);
}

TEST(HyperQSim, SingleKernelUnaffectedByConcurrency) {
  auto cfg = base_config();
  cfg.ranks = 1;
  cfg.total_tasks = 5;
  const auto one = sim::simulate_hybrid(cfg);
  cfg.concurrent_kernels = 32;
  const auto many = sim::simulate_hybrid(cfg);
  EXPECT_DOUBLE_EQ(one.makespan_s, many.makespan_s);
}

TEST(HyperQSim, ValidatesConcurrency) {
  auto cfg = base_config();
  cfg.concurrent_kernels = 0;
  EXPECT_THROW(sim::simulate_hybrid(cfg), std::invalid_argument);
}

// ------------------------------------------------------- buffer pool / reduce

TEST(BufferPool, ReusesReleasedBuffers) {
  Device dev(tesla_c2075(), 0);
  BufferPool pool(dev);
  DeviceBuffer a = pool.acquire(1000);
  const void* ptr = a.device_ptr();
  pool.release(std::move(a));
  DeviceBuffer b = pool.acquire(900);  // smaller fits the pooled buffer
  EXPECT_EQ(b.device_ptr(), ptr);
  const auto st = pool.stats();
  EXPECT_EQ(st.acquisitions, 2u);
  EXPECT_EQ(st.reuses, 1u);
  EXPECT_EQ(st.allocations, 1u);
}

TEST(BufferPool, PicksSmallestAdequateBuffer) {
  Device dev(tesla_c2075(), 0);
  BufferPool pool(dev);
  DeviceBuffer big = pool.acquire(10'000);
  DeviceBuffer small = pool.acquire(100);
  const void* small_ptr = small.device_ptr();
  pool.release(std::move(big));
  pool.release(std::move(small));
  DeviceBuffer again = pool.acquire(50);
  EXPECT_EQ(again.device_ptr(), small_ptr);
}

TEST(BufferPool, TrimReturnsMemoryToTheDevice) {
  Device dev(tesla_c2075(), 0);
  BufferPool pool(dev);
  pool.release(pool.acquire(4096));
  EXPECT_GT(dev.bytes_allocated(), 0u);
  pool.trim();
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  pool.release(DeviceBuffer());  // invalid buffers are ignored
}

TEST(BufferPool, SteadyStateNeverAllocates) {
  Device dev(tesla_c2075(), 0);
  BufferPool pool(dev);
  for (int iter = 0; iter < 50; ++iter) {
    PooledBuffer lease(pool, 2048);
    EXPECT_TRUE(lease.get().valid());
  }
  const auto st = pool.stats();
  EXPECT_EQ(st.allocations, 1u);
  EXPECT_EQ(st.reuses, 49u);
}

}  // namespace
