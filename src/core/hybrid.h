#pragma once
// The hybrid CPU-GPU parallel framework (Fig. 2 of the paper).
//
// "The main program is responsible for reading the input parameters, invoke
// all MPI processes, and assign sub parameter spaces to them. MPI processes
// will prepare tasks, and dispatch each task to either the CPU-based
// calculator within its context or a shared GPU calculator through the task
// scheduler, and finally aggregate result of each tasks."
//
// This is the functional execution mode: ranks are minimpi threads, GPUs
// are vgpu devices executing real kernels, and the spectra that come out
// are numerically checked against the serial APEC baseline in the tests.
// (Wall-clock performance claims come from the DES in src/sim, which drives
// the very same TaskScheduler.)
//
// Two execution modes share every scheduling decision, the one per-rank
// FIFO executor and the one RRC task body (core/fifo_executor.h,
// core/rrc_task.h):
//  * synchronous — the paper's shipped mode: the rank blocks on each GPU
//    task and re-uploads the bin edges every time (kept as the ablation
//    baseline);
//  * pipelined — the §V remedy: per-rank streams, resident edge cache and
//    double-buffered accumulators. Spectra are bit-identical between the
//    modes; only the virtual timeline and the PCIe byte counts differ.
// Grid points are distributed by the work-stealing PointWorkQueue in shm
// (each rank drains its own contiguous range, then steals from the most
// loaded victim) instead of the old static split, so a slow rank no longer
// sets the wall clock.
//
// HybridDriver is the one-shot facade: run() builds a fresh device stack,
// executes one batch and tears everything down. The long-lived form —
// devices, pools, stream schedulers and resident caches reused across
// batches, the seam the always-on service (src/service) pumps — is
// core::HybridExecutor (core/hybrid_executor.h); run() is now exactly
// `HybridExecutor(calc, config).run_batch(points)`.

#include <cstdint>
#include <functional>
#include <vector>

#include "apec/calculator.h"
#include "apec/spectrum.h"
#include "core/sched_policy.h"
#include "core/scheduler.h"
#include "core/task.h"
#include "vgpu/device.h"

namespace hspec::util {
class FaultPlan;
}

namespace hspec::core {

struct HybridConfig {
  int ranks = 4;
  int max_queue_length = 10;
  TaskGranularity granularity = TaskGranularity::ion;
  /// Number of virtual GPUs; -1 detects from HSPEC_VGPU_COUNT (0 => CPU-only,
  /// "it can run normally in the runtime environment without GPU device").
  int devices = -1;
  /// Pipelined is the production default; synchronous is the paper baseline.
  ExecutionMode mode = ExecutionMode::pipelined;
  /// Device-selection strategy for every task (core/sched_policy.h). The
  /// default is the paper's Algorithm 1 min-load pick; both modes and the
  /// service thread the same policy through run_batch's single decision
  /// site, and all three policies produce bitwise-identical spectra.
  SchedulingPolicyKind scheduling_policy = SchedulingPolicyKind::dynamic_min_load;
  /// In-flight GPU tasks (and streams) per rank per device when pipelined.
  int pipeline_depth = 2;
  /// Grid points claimed per work-queue visit (steal granularity).
  std::int64_t steal_chunk = 1;
  /// Test seam: invoked by each rank right before its first work-queue
  /// claim, with read access to the shared queue. Lets tests stage
  /// deterministic imbalance (e.g. hold ranks back until another rank has
  /// stolen) instead of betting on OS scheduling. Null in production.
  std::function<void(int rank, const PointWorkQueue& queue)> rank_start_hook;
  /// Fault-injection plan installed on every device for the run (chaos and
  /// recovery tests; null in production). Non-null arms the recovery layer:
  /// failed attempts retry with requeue, device health feeds sche_alloc,
  /// and tasks out of budget degrade to the kernel-equivalent host path.
  util::FaultPlan* fault_plan = nullptr;
  /// Device attempts one task may consume before degrading to the CPU.
  int max_task_attempts = 3;
  /// Consecutive failed attempts before a device is marked degraded /
  /// quarantined (DESIGN.md §11 defaults).
  int degrade_after = 2;
  int quarantine_after = 5;
};

/// Counters specific to the pipelined path and the work-stealing queue.
struct PipelineStats {
  std::uint64_t streams_used = 0;      ///< streams opened across all devices
  std::uint64_t cache_hits = 0;        ///< resident-cache leases served free
  std::uint64_t cache_misses = 0;      ///< leases that actually uploaded
  std::uint64_t bytes_h2d_saved = 0;   ///< H2D bytes the cache did not send
  std::uint64_t steals = 0;            ///< point chunks taken from other ranks
  std::uint64_t stolen_points = 0;     ///< grid points inside those chunks
  std::uint64_t tasks_pipelined = 0;   ///< tasks that ran through streams
  std::uint64_t max_in_flight = 0;     ///< deepest pipeline any rank reached
};

struct HybridResult {
  std::vector<apec::Spectrum> spectra;  ///< one per input grid point
  SchedulerStats scheduling;            ///< aggregated over all ranks
  /// Per-task scheduling-latency telemetry for this batch (the shm
  /// histogram timed_assign fills; counts sum to tasks_total).
  SchedulingStats sched;
  std::vector<std::int64_t> history;    ///< final history count per device
  std::vector<vgpu::DeviceStats> device_stats;
  PipelineStats pipeline;
  /// Per device: virtual time at which its work drains. Pipelined mode reads
  /// the stream scheduler (overlap-aware); synchronous mode is the device's
  /// serialized busy time.
  std::vector<double> device_sync_time_s;
  /// max over devices of device_sync_time_s (0 with no GPUs).
  double virtual_makespan_s = 0.0;
  std::size_t tasks_total = 0;
  /// Fault-recovery accounting, aggregated over all ranks (all zero when no
  /// FaultPlan is installed, except the completion counters, which always
  /// balance against tasks_total). Service clients never touch this struct
  /// directly: service::ServiceStats re-surfaces `faults` and
  /// `device_health` per request, so recovery activity is visible without
  /// digging into the batch result.
  FaultStats faults;
  /// Final health of each device (all healthy on a fault-free run). Under
  /// HybridExecutor this is live state that carries across batches.
  std::vector<DeviceHealth> device_health;
};

class HybridDriver {
 public:
  HybridDriver(const apec::SpectrumCalculator& calculator, HybridConfig config);

  /// Calculate the spectra of `points`. Points are seeded to ranks in
  /// near-equal contiguous ranges (the paper's inter-node strategy applied
  /// intra-node) and rebalanced by work stealing; each rank schedules its
  /// tasks through the shared-memory scheduler.
  HybridResult run(const std::vector<apec::GridPoint>& points);

  const HybridConfig& config() const noexcept { return config_; }

 private:
  const apec::SpectrumCalculator* calc_;
  HybridConfig config_;
};

/// Build the task list one rank prepares for one grid point.
std::vector<SpectralTask> make_tasks(const apec::SpectrumCalculator& calc,
                                     const apec::GridPoint& point,
                                     const apec::PointPopulations& pops,
                                     TaskGranularity granularity);

}  // namespace hspec::core
