#pragma once
// The RRC task body, written once (§III-B + Algorithm 2) — StarPU's codelet
// shape: one implementation, several placements. Every executor path runs a
// task through the same two halves:
//
//  * integrate_rrc_levels() owns the closed-form early-out, the task's level
//    range (all of the ion's levels, or one for level granularity) and its
//    bounds check, and per level the RrcChannel, PlasmaState, Algorithm 2's
//    lower cutoff, the launch config and the batch-vs-scalar integrand
//    choice. The placement supplies only how one level is integrated into
//    the task's emi accumulator: a blocking device launch (synchronous
//    mode), a stream launch (pipelined mode) or the host replay of the
//    kernel (the degraded path);
//  * finish_rrc_task() adds the task's emi into the spectrum, then — line
//    emission stays host-side on every path — the ion's lines, on the ion
//    task or, in level granularity, only on the level-0 task.
//
// All placements run the kernel's shared per-bin rule (vgpu/integr_kernel.h),
// so a task produces the same bits wherever it is placed.

#include <cstddef>
#include <span>

#include "apec/calculator.h"
#include "apec/spectrum.h"
#include "core/task.h"
#include "quad/batch.h"
#include "vgpu/arena.h"
#include "vgpu/device.h"
#include "vgpu/integr_kernel.h"

namespace hspec::core {

/// True for tasks without kernel work: the free-free pseudo-unit has a
/// closed-form per-bin integral and neutral units emit no RRC.
bool is_closed_form(const SpectralTask& task) noexcept;

/// Where one level of a task is integrated. The body calls integrate() once
/// per level, in level order, with `cfg` complete: the task's first level
/// stores (cfg.accumulate == false) and later levels add, so a recycled emi
/// accumulator needs no clearing.
class LevelPlacement {
 public:
  virtual void integrate(quad::Integrand f,
                         const vgpu::IntegrLaunchConfig& cfg) = 0;
  virtual void integrate(quad::BatchIntegrand f,
                         const vgpu::IntegrLaunchConfig& cfg) = 0;

 protected:
  ~LevelPlacement() = default;
};

/// Launches on a device, into device buffers: `edges` holds the n_bins + 1
/// bin edges, `emi` n_bins doubles. Built on a Device the launches block
/// (synchronous mode); built on a Stream they queue on it (pipelined mode).
class DeviceLevels final : public LevelPlacement {
 public:
  DeviceLevels(vgpu::Device& device, const vgpu::DeviceBuffer& edges,
               vgpu::DeviceBuffer& emi, std::size_t n_bins,
               vgpu::ScratchArena& arena)
      : device_(&device), edges_(&edges), emi_(&emi), n_bins_(n_bins),
        arena_(&arena) {}
  DeviceLevels(vgpu::Stream& stream, const vgpu::DeviceBuffer& edges,
               vgpu::DeviceBuffer& emi, std::size_t n_bins,
               vgpu::ScratchArena& arena)
      : stream_(&stream), edges_(&edges), emi_(&emi), n_bins_(n_bins),
        arena_(&arena) {}
  void integrate(quad::Integrand f,
                 const vgpu::IntegrLaunchConfig& cfg) override;
  void integrate(quad::BatchIntegrand f,
                 const vgpu::IntegrLaunchConfig& cfg) override;

 private:
  vgpu::Device* device_ = nullptr;  ///< blocking launches, or
  vgpu::Stream* stream_ = nullptr;  ///< stream launches
  const vgpu::DeviceBuffer* edges_;
  vgpu::DeviceBuffer* emi_;
  std::size_t n_bins_;
  vgpu::ScratchArena* arena_;
};

/// The host replay of the kernel (vgpu::integr_edges_host): no device, no
/// virtual time — the degraded path.
class HostLevels final : public LevelPlacement {
 public:
  HostLevels(std::span<const double> edges, std::span<double> emi,
             vgpu::ScratchArena& arena)
      : edges_(edges), emi_(emi), arena_(&arena) {}
  void integrate(quad::Integrand f,
                 const vgpu::IntegrLaunchConfig& cfg) override;
  void integrate(quad::BatchIntegrand f,
                 const vgpu::IntegrLaunchConfig& cfg) override;

 private:
  std::span<const double> edges_;
  std::span<double> emi_;
  vgpu::ScratchArena* arena_;
};

/// Integrate the RRC levels of `task` through `place` and return how many
/// levels ran (0 for a closed-form task, which finish_rrc_task completes on
/// its own). The integration method comes from calc.options().integration
/// (the non-adaptive kernel settings; the adaptive flag is ignored here).
/// Throws std::out_of_range for a level index past the ion's levels.
std::size_t integrate_rrc_levels(const apec::SpectrumCalculator& calc,
                                 const SpectralTask& task,
                                 const apec::PointPopulations& pops,
                                 LevelPlacement& place);

/// Add the task's result into `spectrum`: its emi (the bins its levels
/// integrated; may be empty when no level ran), then the ion's lines on
/// the ion task or the level-0 task. A closed-form task adds its whole
/// contribution here instead (`emi` is ignored).
void finish_rrc_task(const apec::SpectrumCalculator& calc,
                     const SpectralTask& task,
                     const apec::PointPopulations& pops,
                     std::span<const double> emi, apec::Spectrum& spectrum);

}  // namespace hspec::core
