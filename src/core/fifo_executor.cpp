#include "core/fifo_executor.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/rrc_task.h"
#include "util/dcheck.h"
#include "util/fault.h"

namespace hspec::core {

FifoExecutor::FifoExecutor(const apec::SpectrumCalculator& calc,
                           const std::vector<DevicePipeline*>& pipelines,
                           TaskScheduler& scheduler, const CpuTaskExecutor& cpu,
                           ExecutionMode mode, int depth, int max_attempts,
                           bool recovery)
    : calc_(&calc),
      pipelines_(pipelines),
      scheduler_(&scheduler),
      cpu_(&cpu),
      pipelined_(mode == ExecutionMode::pipelined),
      depth_(depth),
      max_attempts_(max_attempts),
      recovery_(recovery),
      lanes_(pipelines.size()) {
  if (depth_ < 1)
    throw std::invalid_argument("FifoExecutor: depth must be >= 1");
  if (max_attempts_ < 1)
    throw std::invalid_argument("FifoExecutor: max attempts must be >= 1");
  for (const DevicePipeline* p : pipelines_)
    if (p == nullptr)
      throw std::invalid_argument("FifoExecutor: missing pipeline");
}

FifoExecutor::~FifoExecutor() { drain_all(); }

void FifoExecutor::submit(const SpectralTask& task,
                          const apec::PointPopulations& pops, int device,
                          apec::Spectrum& spectrum) {
  if (device >= static_cast<int>(pipelines_.size()))
    throw std::out_of_range("FifoExecutor::submit: bad device id");

  Slot slot;
  slot.task = task;
  slot.pops = &pops;
  slot.target = &spectrum;
  slot.free_device = device;

  // Closed-form / non-emitting ions never launch kernels; they still travel
  // through the FIFO so the accumulation order stays the submission order.
  const bool closed_form = is_closed_form(task);
  if (device >= 0 && !closed_form) {
    // Bounded retry-with-requeue: a faulted attempt returns its buffers,
    // frees its queue slot, reports the failure, and asks the scheduler for
    // a (possibly different) device; past the budget the task degrades to
    // the host at drain time. submit_gpu accumulates nothing — results land
    // in the slot's staging buffer and reach the spectrum only at drain —
    // so a fault mid-submit cannot double-count (DESIGN.md §11).
    for (int attempt = 1;; ++attempt) {
      try {
        slot.free_device = device;
        submit_gpu(slot, device);
        if (recovery_) scheduler_->report_task_success(device);
        ++faults_.gpu_completed;
        break;
      } catch (const util::FaultError& e) {
        abort_slot(slot, device);
        scheduler_->sche_free(device);
        scheduler_->report_task_fault(
            device, e.site() == util::FaultSite::device_death);
        ++faults_.retried;
        device = attempt < max_attempts_ ? scheduler_->sche_alloc() : -1;
        if (device >= 0) {
          ++faults_.requeued;
          continue;
        }
        slot.free_device = -1;
        slot.degraded = true;
        ++faults_.cpu_fallbacks;
        ++faults_.cpu_completed;
        break;
      }
    }
  } else {
    // An all-quarantined verdict degrades to the kernel-equivalent host
    // path (bit-identity); a plain full-queue verdict stays on QAGS, the
    // paper's fallback. A closed-form task that holds a device slot counts
    // as a GPU completion.
    if (device < 0 && !closed_form && recovery_ &&
        scheduler_->all_quarantined()) {
      slot.degraded = true;
      ++faults_.cpu_fallbacks;
    }
    if (device >= 0)
      ++faults_.gpu_completed;
    else
      ++faults_.cpu_completed;
  }
  fifo_.push_back(std::move(slot));
  if (!pipelined_) drain_all();
}

void FifoExecutor::submit_gpu(Slot& slot, int device) {
  DevicePipeline& pipe = *pipelines_[static_cast<std::size_t>(device)];
  Lane& lane = lanes_[static_cast<std::size_t>(device)];

  // Pipelined: this rank's streams on the device, created on first use.
  // Tasks rotate across `depth_` streams so task i+1's kernels can overlap
  // task i's readback (and, on Kepler, its kernels) on the virtual timeline.
  vgpu::Stream* stream = nullptr;
  if (pipelined_) {
    if (lane.streams.empty()) {
      for (int s = 0; s < depth_; ++s)
        lane.streams.push_back(
            std::make_unique<vgpu::Stream>(*pipe.streams, *pipe.device));
      pipe.streams_opened.fetch_add(static_cast<std::uint64_t>(depth_),
                                    std::memory_order_relaxed);
    }
    stream = lane.streams[lane.next_stream].get();
    lane.next_stream = (lane.next_stream + 1) % lane.streams.size();
  }
  // Double-buffer bound: at most `depth_` of this rank's tasks in flight per
  // device. Draining the FIFO front (oldest first, any device) preserves the
  // accumulation order; host-only slots drained on the way cost nothing.
  while (lane.in_flight >= depth_) drain_front();

  const apec::EnergyGrid& grid = calc_->grid();
  const std::size_t n_bins = grid.bin_count();
  const std::size_t emi_bytes = n_bins * sizeof(double);
  const std::size_t edge_bytes = (n_bins + 1) * sizeof(double);

  slot.gpu = true;
  slot.emi = pipe.pool->acquire(emi_bytes);
  if (!staging_pool_.empty()) {
    slot.staging = std::move(staging_pool_.back());
    staging_pool_.pop_back();
  }
  slot.staging.resize(n_bins);

  // The bin edges are immutable for the whole run. Pipelined, the task
  // leases the resident copy instead of paying the (n_bins + 1) * 8-byte H2D
  // transfer; synchronous, it re-uploads them, as the paper's executor does.
  std::optional<vgpu::PooledBuffer> task_edges;
  const vgpu::DeviceBuffer* edges = nullptr;
  if (stream != nullptr) {
    edges = &pipe.cache->lease(grid.edges().data(), edge_bytes);
  } else {
    task_edges.emplace(*pipe.pool, edge_bytes);
    pipe.device->copy_to_device(task_edges->get(), grid.edges().data(),
                                edge_bytes);
    edges = &task_edges->get();
  }

  // One arena reset per task (vgpu/arena.h lifetime rule): the eager
  // launches below are done with their scratch by the time they return.
  lane.arena.reset();
  DeviceLevels place =
      stream != nullptr
          ? DeviceLevels(*stream, *edges, slot.emi, n_bins, lane.arena)
          : DeviceLevels(*pipe.device, *edges, slot.emi, n_bins, lane.arena);
  if (integrate_rrc_levels(*calc_, slot.task, *slot.pops, place) == 0) {
    slot.staging.clear();  // no level wrote the emi buffer: nothing to add
  } else if (stream != nullptr) {
    // One readback finishes the task (the coarse-granularity win), queued on
    // the stream so it overlaps the next task's kernels.
    stream->copy_to_host_async(slot.staging.data(), slot.emi, emi_bytes);
  } else {
    pipe.device->copy_to_host(slot.staging.data(), slot.emi, emi_bytes);
  }

  ++lane.in_flight;
  HSPEC_DCHECK(lane.in_flight >= 1 && lane.in_flight <= depth_,
               "pipeline lane in-flight count outside [1, depth]");
  if (stream != nullptr) {
    ++stats_.tasks_pipelined;
    std::uint64_t in_flight_total = 0;
    for (const Lane& l : lanes_)
      in_flight_total += static_cast<std::uint64_t>(l.in_flight);
    stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_total);
  }
}

void FifoExecutor::abort_slot(Slot& slot, int device) noexcept {
  // Undo the partial submit: the emi buffer goes back to the pool and the
  // staging array to the recycle list. lane.in_flight needs no undo — it is
  // incremented only after the last fallible operation in submit_gpu.
  if (slot.emi.valid())
    pipelines_[static_cast<std::size_t>(device)]->pool->release(
        std::move(slot.emi));
  if (!slot.staging.empty()) staging_pool_.push_back(std::move(slot.staging));
  slot.staging.clear();
  slot.gpu = false;
}

void FifoExecutor::drain_front() {
  Slot slot = std::move(fifo_.front());
  fifo_.pop_front();

  if (slot.degraded) {
    // Retry budget exhausted or every device quarantined: the host
    // placement, in FIFO position (bitwise what the device would have
    // produced).
    execute_task_degraded(*calc_, slot.task, *slot.pops, *slot.target);
  } else if (slot.free_device >= 0) {
    // The device's result — or, for a closed-form task the scheduler sent
    // to a device, the body's host early-out — in its FIFO position.
    finish_rrc_task(*calc_, slot.task, *slot.pops, slot.staging,
                    *slot.target);
  } else {
    // CPU fallback (queues full): QAGS on this rank, in submission order.
    cpu_->execute(slot.task, *slot.pops, *slot.target);
  }

  if (slot.gpu) {
    const auto d = static_cast<std::size_t>(slot.free_device);
    pipelines_[d]->pool->release(std::move(slot.emi));
    staging_pool_.push_back(std::move(slot.staging));
    --lanes_[d].in_flight;
    HSPEC_DCHECK(lanes_[d].in_flight >= 0,
                 "pipeline lane drained more tasks than it submitted");
  }
  if (slot.free_device >= 0) scheduler_->sche_free(slot.free_device);
}

void FifoExecutor::drain_all() {
  while (!fifo_.empty()) drain_front();
}

}  // namespace hspec::core
