#pragma once
// Long-lived hybrid execution core — the reuse seam under HybridDriver and
// the batch engine under service::SpectralService (DESIGN.md §13).
//
// HybridDriver::run built the whole device stack per call: registry, shm
// segment, buffer pools, stream schedulers, resident caches. That is the
// right shape for a one-shot calculation and exactly the wrong shape for an
// always-on service, where the next batch arrives microseconds after the
// last one drained and the bin edges it needs are already resident on every
// device. HybridExecutor hoists the device stack into a constructed-once
// handle:
//
//  * the DeviceRegistry, SchedulerShm and per-device DevicePipelines
//    (buffer pool + stream scheduler + resident edge cache) live for the
//    executor's lifetime — batch N+1 reuses batch N's pools and resident
//    edges, so steady-state batches pay zero device allocations and zero
//    edge re-uploads;
//  * device health persists across batches: a device quarantined while
//    serving one request stays masked for the next (the service-level
//    recovery story), while per-batch counters are reported as deltas so a
//    HybridResult still describes one batch, not the executor's lifetime;
//  * run_batch() is the coalescing seam: callers may concatenate grid
//    points from many independent requests into one batch — the scheduler
//    and work-stealing queue treat them as one workload, which is what
//    makes cross-request device sharing free.
//
// Threading: run_batch() spawns and joins its minimpi ranks internally, but
// the executor itself is single-caller — one batch in flight at a time
// (HSPEC_DCHECK-enforced). Concurrency across requests is the service
// layer's job (it owns the one worker thread that pumps this executor).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/fifo_executor.h"
#include "core/hybrid.h"
#include "core/sched_policy.h"
#include "core/shm.h"
#include "util/thread_annotations.h"
#include "vgpu/device.h"

namespace hspec::core {

/// Cross-rank aggregation of one batch's counters. Every rank calls
/// merge_rank() once after the barrier; the single-threaded epilogue then
/// publishes the totals into the HybridResult. merge_rank takes the mutex
/// itself, so callers must not already hold it; the declarations below are
/// the contract hlint's [guard-verify] pass checks against the locksets it
/// actually observes.
class BatchAccumulator {
 public:
  /// Fold one rank's scheduler stats, recovery accounting, task count and
  /// executor stats into the batch totals.
  void merge_rank(const SchedulerStats& sched, const FaultStats& fs,
                  std::size_t tasks, const FifoExecutor::Stats& exec)
      HSPEC_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    scheduling_.gpu_allocations += sched.gpu_allocations;
    scheduling_.cpu_fallbacks += sched.cpu_fallbacks;
    scheduling_.cas_retries += sched.cas_retries;
    scheduling_.degradations += sched.degradations;
    scheduling_.quarantines += sched.quarantines;
    scheduling_.recoveries += sched.recoveries;
    scheduling_.readmissions += sched.readmissions;
    faults_.retried += fs.retried;
    faults_.requeued += fs.requeued;
    faults_.cpu_fallbacks += fs.cpu_fallbacks;
    faults_.gpu_completed += fs.gpu_completed;
    faults_.cpu_completed += fs.cpu_completed;
    tasks_total_ += tasks;
    tasks_pipelined_ += exec.tasks_pipelined;
    max_in_flight_ = std::max(max_in_flight_, exec.max_in_flight);
  }

  /// Copy the aggregate into `result` (scheduling, faults, tasks_total and
  /// the rank-side pipeline counters). Called after every rank has merged
  /// and joined; takes the lock anyway so the contract has one shape.
  void publish(HybridResult& result) HSPEC_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    result.scheduling = scheduling_;
    result.faults = faults_;
    result.tasks_total = tasks_total_;
    result.pipeline.tasks_pipelined = tasks_pipelined_;
    result.pipeline.max_in_flight = max_in_flight_;
  }

 private:
  util::Mutex mu_;
  SchedulerStats scheduling_ HSPEC_GUARDED_BY(mu_);
  FaultStats faults_ HSPEC_GUARDED_BY(mu_);
  std::size_t tasks_total_ HSPEC_GUARDED_BY(mu_) = 0;
  std::uint64_t tasks_pipelined_ HSPEC_GUARDED_BY(mu_) = 0;
  std::uint64_t max_in_flight_ HSPEC_GUARDED_BY(mu_) = 0;
};

class HybridExecutor {
 public:
  /// Builds the device stack once: registry, shm scheduler segment, one
  /// DevicePipeline per device. Validates `config` exactly as HybridDriver
  /// does.
  HybridExecutor(const apec::SpectrumCalculator& calculator,
                 HybridConfig config);
  ~HybridExecutor();

  HybridExecutor(const HybridExecutor&) = delete;
  HybridExecutor& operator=(const HybridExecutor&) = delete;

  /// Run one batch of grid points (possibly coalesced from many requests)
  /// through the long-lived device stack. The HybridResult is per-batch:
  /// spectra in point order; scheduling/fault/pipeline counters, device
  /// stats, history and virtual times are deltas since the previous batch.
  /// device_health is live state and carries across batches.
  ///
  /// A fresh executor running a single batch behaves exactly like
  /// HybridDriver::run — spectra bitwise included (HybridDriver is now this
  /// wrapper, and the identity tests pin it).
  HybridResult run_batch(const std::vector<apec::GridPoint>& points);

  const HybridConfig& config() const noexcept { return config_; }
  int device_count() const noexcept { return n_dev_; }

  /// Batches run through this executor so far.
  std::uint64_t batches_run() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-device cumulative counters captured at batch start, so run_batch
  /// can report per-batch deltas off the long-lived stack.
  struct DeviceSnapshot {
    std::int64_t history = 0;
    vgpu::DeviceStats device;
    vgpu::ResidentCache::Stats cache;
    std::uint64_t streams_opened = 0;
    double sync_time_s = 0.0;
  };

  const apec::SpectrumCalculator* calc_;
  HybridConfig config_;
  vgpu::DeviceRegistry registry_;
  ShmRegion shm_;
  /// The batch's device-selection strategy (config_.scheduling_policy).
  /// begin_batch() runs single-threaded at batch start; during the batch
  /// every rank calls its read-only assign() through timed_assign.
  std::unique_ptr<SchedulingPolicy> policy_;
  int n_dev_ = 0;
  std::vector<std::unique_ptr<DevicePipeline>> pipes_;
  std::vector<DevicePipeline*> pipe_views_;
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<bool> batch_in_flight_{false};
};

}  // namespace hspec::core
