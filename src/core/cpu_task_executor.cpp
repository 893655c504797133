#include "core/cpu_task_executor.h"

#include <vector>

#include "core/rrc_task.h"
#include "vgpu/arena.h"

namespace hspec::core {

namespace {

apec::CalcOptions qags_options(const apec::SpectrumCalculator& calc) {
  apec::CalcOptions options = calc.options();
  options.integration.adaptive = true;
  return options;
}

}  // namespace

CpuTaskExecutor::CpuTaskExecutor(const apec::SpectrumCalculator& calc)
    : qags_(calc.database(), calc.grid(), qags_options(calc)) {}

std::size_t CpuTaskExecutor::execute(const SpectralTask& task,
                                     const apec::PointPopulations& pops,
                                     apec::Spectrum& spectrum) const {
  if (task.granularity == TaskGranularity::level && task.ion.emits_rrc()) {
    const std::size_t bins =
        qags_.accumulate_level(task.ion, task.level_index, pops, spectrum);
    // In level granularity the ion's lines belong to the level-0 task.
    if (task.level_index == 0)
      qags_.accumulate_ion_lines(task.ion, pops, spectrum);
    return bins;
  }
  return qags_.accumulate_ion(task.ion, pops, spectrum);
}

// The host placement of the shared task body. Degradation is rare, so the
// emi array and the batch scratch are task-local.
std::size_t execute_task_degraded(const apec::SpectrumCalculator& calc,
                                  const SpectralTask& task,
                                  const apec::PointPopulations& pops,
                                  apec::Spectrum& spectrum) {
  std::vector<double> emi(calc.grid().bin_count(), 0.0);
  vgpu::ScratchArena scratch;
  HostLevels place(calc.grid().edges(), emi, scratch);
  const std::size_t levels = integrate_rrc_levels(calc, task, pops, place);
  finish_rrc_task(calc, task, pops, emi, spectrum);
  return levels > 0 ? emi.size() : 0;
}

}  // namespace hspec::core
