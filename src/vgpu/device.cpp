#include "vgpu/device.h"

#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "util/fault.h"
#include "vgpu/buffer_pool.h"

namespace hspec::vgpu {

DeviceBuffer::DeviceBuffer(DeviceBuffer&& o) noexcept
    : owner_(o.owner_), data_(o.data_), bytes_(o.bytes_) {
  o.owner_ = nullptr;
  o.data_ = nullptr;
  o.bytes_ = 0;
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& o) noexcept {
  if (this != &o) {
    release();
    owner_ = o.owner_;
    data_ = o.data_;
    bytes_ = o.bytes_;
    o.owner_ = nullptr;
    o.data_ = nullptr;
    o.bytes_ = 0;
  }
  return *this;
}

DeviceBuffer::~DeviceBuffer() { release(); }

void DeviceBuffer::release() noexcept {
  if (data_ != nullptr) {
    ::operator delete(data_);
    if (owner_ != nullptr) owner_->on_free(bytes_);
    data_ = nullptr;
    owner_ = nullptr;
    bytes_ = 0;
  }
}

Device::Device(DeviceProperties props, int device_id)
    : model_(std::move(props)),
      id_(device_id),
      default_pool_(std::make_unique<BufferPool>(*this)) {}

Device::~Device() = default;

DeviceBuffer Device::alloc(std::size_t bytes) {
  if (bytes == 0) throw std::invalid_argument("Device::alloc: zero bytes");
  std::size_t current = allocated_.load(std::memory_order_relaxed);
  do {
    if (current + bytes > properties().memory_bytes) throw std::bad_alloc();
  } while (!allocated_.compare_exchange_weak(current, current + bytes,
                                             std::memory_order_relaxed));
  void* data = ::operator new(bytes);
  return DeviceBuffer(this, data, bytes);
}

void Device::on_free(std::size_t bytes) noexcept {
  allocated_.fetch_sub(bytes, std::memory_order_relaxed);
}

void Device::copy_to_device(DeviceBuffer& dst, const void* src,
                            std::size_t bytes) {
  if (bytes > dst.size())
    throw std::out_of_range("copy_to_device: byte count exceeds buffer");
  if (fault_plan_ != nullptr) {
    const util::FaultDecision verdict =
        fault_plan_->query(util::FaultSite::h2d_transfer, id_);
    if (verdict.fail) throw util::FaultError(verdict.site, id_);
  }
  std::memcpy(dst.device_ptr(), src, bytes);
  util::MutexLock lock(mu_);
  ++stats_.h2d_copies;
  stats_.bytes_h2d += bytes;
  stats_.transfer_time_s += model_.transfer_time_s(bytes);
}

void Device::copy_to_host(void* dst, const DeviceBuffer& src,
                          std::size_t bytes) {
  if (bytes > src.size())
    throw std::out_of_range("copy_to_host: byte count exceeds buffer");
  if (fault_plan_ != nullptr) {
    const util::FaultDecision verdict =
        fault_plan_->query(util::FaultSite::d2h_transfer, id_);
    if (verdict.fail) throw util::FaultError(verdict.site, id_);
  }
  std::memcpy(dst, src.device_ptr(), bytes);
  util::MutexLock lock(mu_);
  ++stats_.d2h_copies;
  stats_.bytes_d2h += bytes;
  stats_.transfer_time_s += model_.transfer_time_s(bytes);
}

void Device::memset_device(DeviceBuffer& dst, int value, std::size_t bytes) {
  if (bytes > dst.size())
    throw std::out_of_range("memset_device: byte count exceeds buffer");
  std::memset(dst.device_ptr(), value, bytes);
}

double Device::launch(Dim3 grid, Dim3 block, const WorkEstimate& work,
                      Kernel kernel) {
  if (grid.total() == 0 || block.total() == 0)
    throw std::invalid_argument("Device::launch: empty grid or block");
  if (fault_plan_ != nullptr) {
    // A failed launch never ran; a timeout ran until the watchdog killed it,
    // so the wasted wall time is charged to the device's virtual clock.
    const util::FaultDecision verdict =
        fault_plan_->query(util::FaultSite::kernel_launch, id_);
    if (verdict.fail) throw util::FaultError(verdict.site, id_);
    const util::FaultDecision timeout =
        fault_plan_->query(util::FaultSite::kernel_timeout, id_);
    if (timeout.fail) {
      util::MutexLock lock(mu_);
      stats_.kernel_time_s += timeout.penalty_s;
      throw util::FaultError(timeout.site, id_);
    }
  }
  // The body runs unlocked: a launch writes only its own buffers, so ranks
  // sharing this device run their bodies concurrently on the host. Fermi's
  // one-kernel-at-a-time rule is a virtual-clock fact, billed below.
  KernelCtx ctx;
  ctx.grid_dim = grid;
  ctx.block_dim = block;
  for (unsigned bz = 0; bz < grid.z; ++bz)
    for (unsigned by = 0; by < grid.y; ++by)
      for (unsigned bx = 0; bx < grid.x; ++bx) {
        ctx.block_idx = {bx, by, bz};
        for (unsigned tz = 0; tz < block.z; ++tz)
          for (unsigned ty = 0; ty < block.y; ++ty)
            for (unsigned tx = 0; tx < block.x; ++tx) {
              ctx.thread_idx = {tx, ty, tz};
              kernel(ctx);
            }
      }
  const double duration = model_.kernel_time_s(work);
  util::MutexLock lock(mu_);
  ++stats_.kernels_launched;
  stats_.kernel_time_s += duration;
  return duration;
}

double Device::busy_time_s() const noexcept {
  util::MutexLock lock(mu_);
  return stats_.kernel_time_s + stats_.transfer_time_s;
}

DeviceStats Device::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

DeviceRegistry::DeviceRegistry(int count) {
  DeviceProperties props = tesla_c2075();
  if (const char* arch = std::getenv("HSPEC_VGPU_ARCH");
      arch != nullptr && std::string(arch) == "kepler")
    props = tesla_k20();
  int n = count;
  if (n < 0) {
    n = 0;
    if (const char* env = std::getenv("HSPEC_VGPU_COUNT"); env != nullptr)
      n = std::atoi(env);
  }
  if (n < 0 || n > 64)
    throw std::invalid_argument("DeviceRegistry: device count out of range");
  for (int i = 0; i < n; ++i)
    devices_.push_back(std::make_unique<Device>(props, i));
}

void DeviceRegistry::set_fault_plan(util::FaultPlan* plan) noexcept {
  for (auto& dev : devices_) dev->set_fault_plan(plan);
}

}  // namespace hspec::vgpu
