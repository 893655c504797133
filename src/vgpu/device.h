#pragma once
// The virtual GPU device: explicit device memory, host<->device copies, and
// CUDA-style kernel launches. Kernels execute on the host (results are real
// and checkable); every operation charges the device's virtual clock through
// the cost model, so launch/copy overheads shape performance exactly as on
// the paper's Fermi cards.
//
// Thread model: many MPI ranks share one device. On Fermi, queued kernels
// run serially ("application-level context switching"). That serialization
// lives on the virtual clock: synchronous callers read it from
// busy_time_s(), the billed sum of every kernel's duration, and streams from
// the StreamScheduler's single Fermi kernel lane. The host bodies of
// different launches run concurrently (each launch writes only its own
// buffers); the device mutex guards the counters alone.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/function_ref.h"
#include "util/thread_annotations.h"
#include "vgpu/cost_model.h"
#include "vgpu/device_properties.h"

namespace hspec::util {
class FaultPlan;
}

namespace hspec::vgpu {

struct Dim3 {
  unsigned x = 1;
  unsigned y = 1;
  unsigned z = 1;
  std::size_t total() const noexcept {
    return static_cast<std::size_t>(x) * y * z;
  }
};

/// Per-thread kernel context (the CUDA builtins).
struct KernelCtx {
  Dim3 grid_dim;
  Dim3 block_dim;
  Dim3 block_idx;
  Dim3 thread_idx;

  /// blockIdx.x * blockDim.x + threadIdx.x
  std::size_t global_x() const noexcept {
    return static_cast<std::size_t>(block_idx.x) * block_dim.x + thread_idx.x;
  }
  /// gridDim.x * blockDim.x
  std::size_t stride_x() const noexcept {
    return static_cast<std::size_t>(grid_dim.x) * block_dim.x;
  }
};

using Kernel = util::FunctionRef<void(const KernelCtx&)>;

class Device;
class BufferPool;

/// RAII device-memory allocation. Must not outlive its Device.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&& o) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer();

  std::size_t size() const noexcept { return bytes_; }
  bool valid() const noexcept { return data_ != nullptr; }

  /// Raw device pointer — only meaningful inside kernels and device copies.
  void* device_ptr() noexcept { return data_; }
  const void* device_ptr() const noexcept { return data_; }

  template <class T>
  T* as() noexcept {
    return static_cast<T*>(data_);
  }
  template <class T>
  const T* as() const noexcept {
    return static_cast<const T*>(data_);
  }

 private:
  friend class Device;
  DeviceBuffer(Device* owner, void* data, std::size_t bytes)
      : owner_(owner), data_(data), bytes_(bytes) {}
  void release() noexcept;

  Device* owner_ = nullptr;
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Cumulative device counters (for the EXPERIMENTS and ablation reports).
struct DeviceStats {
  std::uint64_t kernels_launched = 0;
  std::uint64_t h2d_copies = 0;
  std::uint64_t d2h_copies = 0;
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  double kernel_time_s = 0.0;
  double transfer_time_s = 0.0;
  // Pipeline counters, filled by the hybrid driver (the device itself does
  // not know about streams or the resident cache).
  std::uint64_t streams_used = 0;     ///< streams ranks opened on this device
  std::uint64_t cache_hits = 0;       ///< resident-cache leases served free
  std::uint64_t bytes_h2d_saved = 0;  ///< H2D bytes the cache did not send
};

class Device {
 public:
  Device(DeviceProperties props, int device_id);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const noexcept { return id_; }
  const DeviceProperties& properties() const noexcept {
    return model_.properties();
  }
  const GpuCostModel& cost_model() const noexcept { return model_; }

  /// cudaMalloc. Throws std::bad_alloc when the 6 GB budget is exceeded.
  /// Hot paths (kernel wrappers, per-task loops) must lease from a
  /// BufferPool instead — tools/hlint's [hot-alloc] rule enforces this.
  DeviceBuffer alloc(std::size_t bytes);
  std::size_t bytes_allocated() const noexcept {
    return allocated_.load(std::memory_order_relaxed);
  }

  /// The device's own size-bucketed buffer pool, for wrappers that are not
  /// handed an executor pool (e.g. gpu_integr): repeated calls recycle their
  /// buffers instead of paying a cudaMalloc/cudaFree per call.
  BufferPool& default_pool() noexcept { return *default_pool_; }

  /// cudaMemcpy(HostToDevice): real copy + virtual PCIe cost.
  void copy_to_device(DeviceBuffer& dst, const void* src, std::size_t bytes);
  /// cudaMemcpy(DeviceToHost).
  void copy_to_host(void* dst, const DeviceBuffer& src, std::size_t bytes);
  /// cudaMemset.
  void memset_device(DeviceBuffer& dst, int value, std::size_t bytes);

  /// Launch a kernel over grid x block threads and return the virtual
  /// duration billed for it. `work` is the caller's work estimate used for
  /// virtual-time accounting. One launch's virtual threads execute
  /// sequentially on the calling thread, so they may share per-launch
  /// scratch; concurrent launches from other threads run at the same time
  /// on the host and serialize only on the virtual clock.
  double launch(Dim3 grid, Dim3 block, const WorkEstimate& work,
                Kernel kernel);

  /// Virtual time this device has spent busy [s].
  double busy_time_s() const noexcept;
  DeviceStats stats() const;

  /// Install the fault-injection plan every fallible entry point of this
  /// device (and its streams / buffer pools) consults; nullptr disarms it.
  /// Must be set before ranks start — installation is not synchronized.
  void set_fault_plan(util::FaultPlan* plan) noexcept { fault_plan_ = plan; }
  util::FaultPlan* fault_plan() const noexcept { return fault_plan_; }

 private:
  friend class DeviceBuffer;
  void on_free(std::size_t bytes) noexcept;

  GpuCostModel model_;
  int id_;
  std::atomic<std::size_t> allocated_{0};
  // Guards the counters only; kernel bodies run outside it.
  mutable util::Mutex mu_;
  DeviceStats stats_ HSPEC_GUARDED_BY(mu_);
  // Written once before the ranks launch (thread creation provides the
  // happens-before), read on every fallible operation.
  util::FaultPlan* fault_plan_ = nullptr;
  // Constructed eagerly (BufferPool is cheap); destroyed before the mutex
  // and allocation counter it returns buffers through.
  std::unique_ptr<BufferPool> default_pool_;
};

/// The machine's virtual GPUs. "The program will detect the number of GPU
/// devices automatically, and it can run normally in the runtime environment
/// without GPU device": the count comes from HSPEC_VGPU_COUNT (default 0)
/// unless overridden, the architecture from HSPEC_VGPU_ARCH (fermi|kepler).
class DeviceRegistry {
 public:
  /// Detect from environment (count < 0) or create `count` devices.
  explicit DeviceRegistry(int count = -1);

  std::size_t device_count() const noexcept { return devices_.size(); }
  bool gpu_available() const noexcept { return !devices_.empty(); }
  Device& device(std::size_t i) { return *devices_.at(i); }
  const Device& device(std::size_t i) const { return *devices_.at(i); }

  /// Arm (or disarm, with nullptr) fault injection on every device. Must be
  /// called before any rank touches the devices.
  void set_fault_plan(util::FaultPlan* plan) noexcept;

 private:
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace hspec::vgpu
