#include "core/rrc_task.h"

#include <stdexcept>

#include "rrc/rrc.h"
#include "rrc/rrc_batch.h"
#include "vgpu/stream.h"

namespace hspec::core {

bool is_closed_form(const SpectralTask& task) noexcept {
  return task.ion.is_free_free() || !task.ion.emits_rrc();
}

void DeviceLevels::integrate(quad::Integrand f,
                             const vgpu::IntegrLaunchConfig& cfg) {
  if (stream_ != nullptr)
    vgpu::gpu_integr_edges_stream(*stream_, *edges_, n_bins_, f, *emi_, cfg);
  else
    vgpu::gpu_integr_edges_device(*device_, *edges_, n_bins_, f, *emi_, cfg);
}

void DeviceLevels::integrate(quad::BatchIntegrand f,
                             const vgpu::IntegrLaunchConfig& cfg) {
  if (stream_ != nullptr)
    vgpu::gpu_integr_edges_stream(*stream_, *edges_, n_bins_, f, *emi_,
                                  *arena_, cfg);
  else
    vgpu::gpu_integr_edges_device(*device_, *edges_, n_bins_, f, *emi_,
                                  *arena_, cfg);
}

void HostLevels::integrate(quad::Integrand f,
                           const vgpu::IntegrLaunchConfig& cfg) {
  vgpu::integr_edges_host(edges_, emi_.size(), f, emi_, cfg);
}

void HostLevels::integrate(quad::BatchIntegrand f,
                           const vgpu::IntegrLaunchConfig& cfg) {
  vgpu::integr_edges_host(edges_, emi_.size(), f, emi_, *arena_, cfg);
}

std::size_t integrate_rrc_levels(const apec::SpectrumCalculator& calc,
                                 const SpectralTask& task,
                                 const apec::PointPopulations& pops,
                                 LevelPlacement& place) {
  // The free-free pseudo-unit's per-bin integral is closed-form, not worth a
  // kernel; neutral units contribute nothing. finish_rrc_task adds both.
  if (is_closed_form(task)) return 0;

  const auto levels = calc.database().levels_for(task.ion);
  const bool one_level = task.granularity == TaskGranularity::level;
  const std::size_t level_begin = one_level ? task.level_index : 0;
  const std::size_t level_end =
      one_level ? task.level_index + 1 : levels.size();
  if (level_end > levels.size())
    throw std::out_of_range("RRC task: level index out of range");

  const rrc::PlasmaState plasma{
      pops.kT_keV, pops.ne_cm3,
      pops.ion_density(task.ion.z, task.ion.charge)};
  const apec::IntegrationPolicy& pol = calc.options().integration;
  vgpu::IntegrLaunchConfig cfg;
  cfg.method = pol.kernel;
  cfg.method_param = pol.kernel_param;

  for (std::size_t li = level_begin; li < level_end; ++li) {
    rrc::RrcChannel ch;
    ch.recombining_charge = task.ion.charge;
    ch.level = levels[li];
    ch.gaunt_correction = calc.options().gaunt_correction;
    // Algorithm 2: the level integrates from its own threshold upward. The
    // task's levels accumulate in its emi array, so that one transfer
    // finishes the task (the coarse-granularity win).
    cfg.lower_cutoff = ch.level.binding_keV;
    cfg.accumulate = li != level_begin;
    if (pol.batch) {
      const rrc::RrcBatchIntegrand bf(ch, plasma);
      place.integrate(bf, cfg);
    } else {
      // Kernel edge: the integrator hands us raw abscissae; wrap on entry
      // and unwrap the typed emissivity.
      auto f = [&](double e) {
        return rrc::rrc_power_density(ch, plasma, util::KeV{e}).value();
      };
      place.integrate(f, cfg);
    }
  }
  return level_end - level_begin;
}

void finish_rrc_task(const apec::SpectrumCalculator& calc,
                     const SpectralTask& task,
                     const apec::PointPopulations& pops,
                     std::span<const double> emi, apec::Spectrum& spectrum) {
  if (is_closed_form(task)) {
    calc.accumulate_ion(task.ion, pops, spectrum);
    return;
  }
  for (std::size_t b = 0; b < emi.size(); ++b) spectrum[b] += emi[b];
  // In level granularity the ion's lines belong to the level-0 task, so
  // they are added exactly once.
  if (task.granularity == TaskGranularity::ion || task.level_index == 0)
    calc.accumulate_ion_lines(task.ion, pops, spectrum);
}

}  // namespace hspec::core
