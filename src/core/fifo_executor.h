#pragma once
// One rank's task executor, for both execution modes. Every task goes
// through submit() into one per-rank FIFO and reaches its spectrum when it
// drains, in submission order. The RRC work is the shared task body
// (core/rrc_task.h); the mode picks its placement and the transfers around
// it:
//
//  * pipelined — the paper's §V remedy ("Only synchronous mode is supported
//    in the task scheduler ... some asynchronous task queuing mechanism must
//    be introduced to keep CPUs busy"): GPU tasks launch on per-rank
//    vgpu::Streams (`pipeline_depth` per device), so the kernels and
//    readback of consecutive tasks overlap per the device's concurrency
//    rules (copy / compute overlap on Fermi, up to 32-wide Hyper-Q on
//    Kepler); the bin edges are leased from the device's ResidentCache, one
//    upload per device for the whole run; each in-flight task owns an emi
//    device buffer plus a host staging array, recycled as tasks drain;
//  * synchronous — the paper's shipped mode, kept as the baseline: blocking
//    Device calls, the bin edges uploaded per task into a pool buffer, and
//    every submit drained before it returns, so the rank waits on each task
//    and frees its queue slot when the task ends.
//
// Recovery is one loop for both modes: a faulted device attempt returns its
// buffers, frees its queue slot, reports the failure and asks the scheduler
// for a (possibly different) device; past the retry budget, or with every
// device quarantined, the task degrades to the host placement in its FIFO
// position (DESIGN.md §11). Nothing reaches a spectrum before drain, so a
// fault cannot double-count.
//
// Ordering contract: CPU-fallback, degraded and closed-form tasks travel
// through the same FIFO, so the floating-point accumulation order is the
// submission order in both modes — spectra are bit-identical between them.
// (On the virtual GPU all work executes eagerly on the host; deferring the
// *accumulation* costs nothing real and keeps the virtual timeline honest.)

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "apec/calculator.h"
#include "apec/spectrum.h"
#include "core/cpu_task_executor.h"
#include "core/scheduler.h"
#include "core/task.h"
#include "vgpu/arena.h"
#include "vgpu/buffer_pool.h"
#include "vgpu/device.h"
#include "vgpu/resident_cache.h"
#include "vgpu/stream.h"

namespace hspec::core {

/// Shared per-device plumbing, owned by the driver and used by every rank's
/// FifoExecutor: the buffer pool the emi accumulators (and the synchronous
/// edge uploads) recycle through, the overlap scheduler all the device's
/// streams funnel into, and the resident cache holding the bin edges.
struct DevicePipeline {
  // The plumbing pointers are fixed at construction (const-hardened): the
  // pipeline is shared by every rank, and only `streams_opened` — an atomic
  // counter — mutates after the ctor, so the struct needs no lock.
  vgpu::Device* const device;
  const std::unique_ptr<vgpu::BufferPool> pool;
  const std::unique_ptr<vgpu::StreamScheduler> streams;
  const std::unique_ptr<vgpu::ResidentCache> cache;
  std::atomic<std::uint64_t> streams_opened{0};  ///< across all ranks

  explicit DevicePipeline(vgpu::Device& dev)
      : device(&dev),
        pool(std::make_unique<vgpu::BufferPool>(dev)),
        streams(std::make_unique<vgpu::StreamScheduler>(dev)),
        cache(std::make_unique<vgpu::ResidentCache>(dev)) {}

  /// Virtual time at which the device's work drains: the stream scheduler's
  /// overlap-aware clock when pipelined, the device's serialized busy time
  /// when synchronous.
  double sync_time(ExecutionMode mode) const noexcept {
    return mode == ExecutionMode::pipelined ? streams->device_sync_time()
                                            : device->busy_time_s();
  }
};

/// One rank's executor. Not thread-safe: each rank owns one.
class FifoExecutor {
 public:
  struct Stats {
    std::uint64_t tasks_pipelined = 0;  ///< GPU tasks issued on streams
    std::uint64_t max_in_flight = 0;    ///< pipeline high-water mark
  };

  /// `pipelines[d]` must outlive the executor; `depth` is the number of
  /// in-flight tasks (and streams) this rank keeps per device when
  /// pipelined. `max_attempts` bounds device attempts per task before it
  /// degrades to the host; `recovery` arms the health reporting (set when a
  /// FaultPlan is installed, so the fault-free hot path pays nothing).
  FifoExecutor(const apec::SpectrumCalculator& calc,
               const std::vector<DevicePipeline*>& pipelines,
               TaskScheduler& scheduler, const CpuTaskExecutor& cpu,
               ExecutionMode mode, int depth = 2, int max_attempts = 3,
               bool recovery = false);

  /// Queue one task. `device` is the scheduler's verdict: >= 0 runs the task
  /// on that device (the load slot is released when the task drains), -1
  /// defers it to the QAGS path. Pipelined, this may drain older tasks to
  /// honour `depth`; synchronous, it drains the task before returning.
  void submit(const SpectralTask& task, const apec::PointPopulations& pops,
              int device, apec::Spectrum& spectrum);

  /// Drain every queued task (accumulate + sche_free, in order). Must be
  /// called before reading any spectrum passed to submit() — the driver
  /// drains at each grid-point boundary.
  void drain_all();

  ~FifoExecutor();  // drains; a non-empty FIFO must not be dropped

  const Stats& stats() const noexcept { return stats_; }
  /// This rank's recovery accounting.
  const FaultStats& faults() const noexcept { return faults_; }

 private:
  struct Slot {
    SpectralTask task;
    const apec::PointPopulations* pops = nullptr;
    apec::Spectrum* target = nullptr;
    int free_device = -1;  ///< sche_free() this device on drain (-1: none)
    bool gpu = false;      ///< emi/staging hold device results to accumulate
    /// Retry budget exhausted (or all devices quarantined): drain runs the
    /// host placement in this slot's FIFO position, keeping the
    /// accumulation order — and hence bit-identity — intact.
    bool degraded = false;
    vgpu::DeviceBuffer emi;
    std::vector<double> staging;
  };

  struct Lane {
    std::vector<std::unique_ptr<vgpu::Stream>> streams;  ///< pipelined only
    std::size_t next_stream = 0;
    int in_flight = 0;
    /// Batch-integrand scratch for this rank's launches on the device,
    /// reset once per submitted task: launches execute eagerly on the host,
    /// so nothing in flight holds arena spans, and steady-state tasks
    /// allocate nothing.
    vgpu::ScratchArena arena;
  };

  void submit_gpu(Slot& slot, int device);
  void drain_front();
  /// Undo a partially submitted slot after a fault (return its buffers).
  void abort_slot(Slot& slot, int device) noexcept;

  const apec::SpectrumCalculator* calc_;
  std::vector<DevicePipeline*> pipelines_;
  TaskScheduler* scheduler_;
  const CpuTaskExecutor* cpu_;
  bool pipelined_;
  int depth_;
  int max_attempts_;
  bool recovery_;
  std::vector<Lane> lanes_;            // one per device
  std::deque<Slot> fifo_;              // drains in submission order
  std::vector<std::vector<double>> staging_pool_;
  Stats stats_;
  FaultStats faults_;
};

}  // namespace hspec::core
