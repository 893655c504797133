#include "vgpu/stream.h"

#include <algorithm>
#include <stdexcept>

#include "util/fault.h"

namespace hspec::vgpu {

StreamScheduler::StreamScheduler(Device& device)
    : device_(&device),
      max_concurrent_(device.properties().max_concurrent_kernels) {
  if (max_concurrent_ < 1)
    throw std::invalid_argument("StreamScheduler: bad concurrency bound");
}

std::pair<double, double> StreamScheduler::schedule_kernel(double earliest,
                                                           double duration) {
  util::MutexLock lock(mu_);
  // Find a free lane; if all lanes are busy past `earliest`, take the one
  // that frees first (the kernel queues behind it).
  if (kernel_lanes_.size() < static_cast<std::size_t>(max_concurrent_)) {
    kernel_lanes_.push_back(0.0);
  }
  auto lane = std::min_element(kernel_lanes_.begin(), kernel_lanes_.end());
  const double start = std::max(earliest, *lane);
  const double end = start + duration;
  *lane = end;
  note_completion(end);
  return {start, end};
}

double StreamScheduler::schedule_copy(bool h2d, double earliest,
                                      double duration) {
  util::MutexLock lock(mu_);
  double& engine = h2d ? h2d_engine_free_ : d2h_engine_free_;
  const double start = std::max(earliest, engine);
  const double end = start + duration;
  engine = end;
  note_completion(end);
  return end;
}

Stream::Stream(StreamScheduler& scheduler, Device& device)
    : scheduler_(&scheduler), device_(&device) {
  if (&scheduler.device() != &device)
    throw std::invalid_argument("Stream: scheduler belongs to another device");
}

void Stream::stall_check() {
  if (util::FaultPlan* plan = device_->fault_plan(); plan != nullptr) {
    const util::FaultDecision verdict =
        plan->query(util::FaultSite::stream_stall, device_->id());
    if (verdict.fail) {
      clock_ += verdict.penalty_s;
      throw util::FaultError(verdict.site, device_->id());
    }
  }
}

void Stream::launch_async(Dim3 grid, Dim3 block, const WorkEstimate& work,
                          Kernel kernel) {
  stall_check();
  // Execute now for real results; account virtual time per overlap rules.
  const double duration = device_->launch(grid, block, work, kernel);
  clock_ = scheduler_->schedule_kernel(clock_, duration).second;
}

void Stream::copy_to_device_async(DeviceBuffer& dst, const void* src,
                                  std::size_t bytes) {
  stall_check();
  device_->copy_to_device(dst, src, bytes);
  const double duration = device_->cost_model().transfer_time_s(bytes);
  clock_ = scheduler_->schedule_copy(true, clock_, duration);
}

void Stream::copy_to_host_async(void* dst, const DeviceBuffer& src,
                                std::size_t bytes) {
  stall_check();
  device_->copy_to_host(dst, src, bytes);
  const double duration = device_->cost_model().transfer_time_s(bytes);
  clock_ = scheduler_->schedule_copy(false, clock_, duration);
}

void Stream::wait(const Event& event) {
  clock_ = std::max(clock_, event.ready_time);
}

}  // namespace hspec::vgpu
