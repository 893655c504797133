#include "vgpu/integr_kernel.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "vgpu/buffer_pool.h"
#include "vgpu/stream.h"

namespace hspec::vgpu {

namespace {

/// Grid sizing: enough threads that each handles a short run of bins.
Dim3 pick_grid(std::size_t n_bins, const IntegrLaunchConfig& cfg) {
  const std::size_t want_threads = (n_bins + 3) / 4;  // ~4 bins per thread
  const std::size_t blocks =
      std::clamp<std::size_t>((want_threads + cfg.block_dim - 1) / cfg.block_dim,
                              1, cfg.max_grid_dim);
  return {static_cast<unsigned>(blocks), 1, 1};
}

}  // namespace

WorkEstimate integr_work(std::size_t bins, const IntegrLaunchConfig& cfg,
                         double lanes) {
  const double evals = static_cast<double>(bins) *
                       static_cast<double>(quad::kernel_cost_evals(
                           cfg.method, cfg.method_param));
  WorkEstimate w;
  w.flops = evals * kFlopsPerIntegrandEval;
  w.device_bytes = bins * sizeof(double) * 2;  // emi read+write
  w.lanes = lanes;
  return w;
}

namespace {

/// One bin of the kernel. Shared verbatim by every scalar variant — the
/// uniform-bin kernel, the edges kernel, and the host degradation path — so
/// they are bitwise identical by construction, not by happenstance. The
/// batched variants replay the identical rule arithmetic over precomputed
/// integrand values (quad/batch.h) and are pinned to this oracle by the
/// tier-1 identity tests.
double integr_edge_bin(const double* edges, std::size_t b, quad::Integrand f,
                       const IntegrLaunchConfig& cfg) {
  if (edges[b + 1] <= cfg.lower_cutoff) return 0.0;
  const double left = std::max(edges[b], cfg.lower_cutoff);
  return quad::kernel_integrate(cfg.method, cfg.method_param, f, left,
                                edges[b + 1])
      .value;
}

/// Batched processing of one virtual thread's bins {begin, begin+stride, ...}
/// below `end`: record every live bin's abscissae contiguously, evaluate
/// them in one pass, then replay the rule per bin. Each value depends only
/// on its own abscissa, so the result is independent of how bins are grouped
/// into batches — the host path (one chunk) and the device path (one batch
/// per virtual thread) agree bitwise.
void integr_edge_bins_batch(const double* edges, std::size_t begin,
                            std::size_t end, std::size_t stride,
                            quad::BatchIntegrand f, double* emi,
                            const IntegrLaunchConfig& cfg,
                            std::span<double> xs, std::span<double> ys,
                            std::size_t evals_per_bin) {
  // Phase A: record. Bins entirely below the cutoff are skipped (they
  // contribute exactly 0.0, as in integr_edge_bin); straddling bins clamp.
  std::size_t nx = 0;
  for (std::size_t b = begin; b < end; b += stride) {
    if (edges[b + 1] <= cfg.lower_cutoff) continue;
    const double left = std::max(edges[b], cfg.lower_cutoff);
    quad::kernel_abscissae(cfg.method, cfg.method_param, left, edges[b + 1],
                           xs.subspan(nx, evals_per_bin));
    nx += evals_per_bin;
  }
  // Phase B: one batched integrand evaluation for all live bins.
  f(std::span<const double>(xs.data(), nx), ys.first(nx));
  // Phase C: replay the rule over the precomputed values, bin by bin.
  std::size_t k = 0;
  for (std::size_t b = begin; b < end; b += stride) {
    double v = 0.0;
    if (edges[b + 1] > cfg.lower_cutoff) {
      const double left = std::max(edges[b], cfg.lower_cutoff);
      v = quad::kernel_combine(cfg.method, cfg.method_param, left,
                               edges[b + 1], ys.subspan(k, evals_per_bin))
              .value;
      k += evals_per_bin;
    }
    if (cfg.accumulate)
      emi[b] += v;
    else
      emi[b] = v;
  }
}

/// Shared scalar kernel body over an explicit edges array — the single code
/// path behind the uniform-bin kernel, the edges kernel (blocking and
/// stream), after the uniform form's bin edges are hoisted out of the
/// grid-stride loop into the same edges form.
template <class LaunchFn>
void integr_bins_launch(LaunchFn&& launch, const double* edges,
                        std::size_t n_bins, quad::Integrand f, double* emi,
                        const IntegrLaunchConfig& cfg) {
  const Dim3 grid = pick_grid(n_bins, cfg);
  const Dim3 block{cfg.block_dim, 1, 1};
  launch(grid, block, integr_work(n_bins, cfg), [&](const KernelCtx& c) {
    for (std::size_t b = c.global_x(); b < n_bins; b += c.stride_x()) {
      const double v = integr_edge_bin(edges, b, f, cfg);
      if (cfg.accumulate)
        emi[b] += v;
      else
        emi[b] = v;
    }
  });
}

/// Batched counterpart of integr_bins_launch. Scratch for the abscissa and
/// value arrays is bump-allocated once per launch and shared by the virtual
/// threads (one launch's threads run sequentially on the calling thread;
/// other launches use their own arena); in the pipelined steady state the
/// arena serves it without touching the heap.
template <class LaunchFn>
void integr_bins_launch_batch(LaunchFn&& launch, const double* edges,
                              std::size_t n_bins, quad::BatchIntegrand f,
                              double* emi, ScratchArena& arena,
                              const IntegrLaunchConfig& cfg) {
  const std::size_t evals =
      quad::kernel_cost_evals(cfg.method, cfg.method_param);
  const Dim3 grid = pick_grid(n_bins, cfg);
  const Dim3 block{cfg.block_dim, 1, 1};
  const std::size_t threads =
      static_cast<std::size_t>(grid.x) * cfg.block_dim;
  const std::size_t max_run = (n_bins + threads - 1) / threads;
  std::span<double> xs = arena.alloc(max_run * evals);
  std::span<double> ys = arena.alloc(max_run * evals);
  launch(grid, block, integr_work(n_bins, cfg, kBatchLanes),
         [&](const KernelCtx& c) {
           integr_edge_bins_batch(edges, c.global_x(), n_bins, c.stride_x(), f,
                                  emi, cfg, xs, ys, evals);
         });
}

void check_uniform_args(double lo, double hi, std::size_t n_bins,
                        const DeviceBuffer& emi_dev) {
  if (n_bins == 0) throw std::invalid_argument("gpu_integr: no bins");
  if (!(hi > lo)) throw std::invalid_argument("gpu_integr: need hi > lo");
  if (emi_dev.size() < n_bins * sizeof(double))
    throw std::out_of_range("gpu_integr: emi buffer too small");
}

void check_edges_args(const DeviceBuffer& edges_dev, std::size_t n_bins,
                      const DeviceBuffer& emi_dev) {
  if (n_bins == 0) throw std::invalid_argument("gpu_integr_edges: no bins");
  if (edges_dev.size() < (n_bins + 1) * sizeof(double))
    throw std::out_of_range("gpu_integr_edges: edges buffer too small");
  if (emi_dev.size() < n_bins * sizeof(double))
    throw std::out_of_range("gpu_integr_edges: emi buffer too small");
}

/// Hoisted bin edges of the uniform form: e[b] = lo + b * bin_size exactly
/// as the old per-bin recomputation produced them (the last edge is pinned
/// to `hi`, matching the `(b + 1 == n_bins) ? hi : ...` special case).
void fill_uniform_edges(double lo, double hi, std::size_t n_bins,
                        std::span<double> edges) {
  const double bin_size = (hi - lo) / static_cast<double>(n_bins);
  for (std::size_t i = 0; i < n_bins; ++i)
    edges[i] = lo + static_cast<double>(i) * bin_size;
  edges[n_bins] = hi;
}

auto device_launcher(Device& device) {
  return [&device](Dim3 grid, Dim3 block, const WorkEstimate& work,
                   Kernel kernel) { device.launch(grid, block, work, kernel); };
}

auto stream_launcher(Stream& stream) {
  return [&stream](Dim3 grid, Dim3 block, const WorkEstimate& work,
                   Kernel kernel) {
    stream.launch_async(grid, block, work, kernel);
  };
}

}  // namespace

void gpu_integr_device(Device& device, double lo, double hi, std::size_t n_bins,
                       quad::Integrand f, DeviceBuffer& emi_dev,
                       const IntegrLaunchConfig& cfg) {
  check_uniform_args(lo, hi, n_bins, emi_dev);
  std::vector<double> edges(n_bins + 1);
  fill_uniform_edges(lo, hi, n_bins, edges);
  integr_bins_launch(device_launcher(device), edges.data(), n_bins, f,
                     emi_dev.as<double>(), cfg);
}

void gpu_integr_device(Device& device, double lo, double hi, std::size_t n_bins,
                       quad::BatchIntegrand f, DeviceBuffer& emi_dev,
                       ScratchArena& arena, const IntegrLaunchConfig& cfg) {
  check_uniform_args(lo, hi, n_bins, emi_dev);
  std::span<double> edges = arena.alloc(n_bins + 1);
  fill_uniform_edges(lo, hi, n_bins, edges);
  integr_bins_launch_batch(device_launcher(device), edges.data(), n_bins, f,
                           emi_dev.as<double>(), arena, cfg);
}

void gpu_integr_edges_device(Device& device, const DeviceBuffer& edges_dev,
                             std::size_t n_bins, quad::Integrand f,
                             DeviceBuffer& emi_dev,
                             const IntegrLaunchConfig& cfg) {
  check_edges_args(edges_dev, n_bins, emi_dev);
  integr_bins_launch(device_launcher(device), edges_dev.as<const double>(),
                     n_bins, f, emi_dev.as<double>(), cfg);
}

void gpu_integr_edges_device(Device& device, const DeviceBuffer& edges_dev,
                             std::size_t n_bins, quad::BatchIntegrand f,
                             DeviceBuffer& emi_dev, ScratchArena& arena,
                             const IntegrLaunchConfig& cfg) {
  check_edges_args(edges_dev, n_bins, emi_dev);
  integr_bins_launch_batch(device_launcher(device),
                           edges_dev.as<const double>(), n_bins, f,
                           emi_dev.as<double>(), arena, cfg);
}

void gpu_integr_edges_stream(Stream& stream, const DeviceBuffer& edges_dev,
                             std::size_t n_bins, quad::Integrand f,
                             DeviceBuffer& emi_dev,
                             const IntegrLaunchConfig& cfg) {
  check_edges_args(edges_dev, n_bins, emi_dev);
  integr_bins_launch(stream_launcher(stream), edges_dev.as<const double>(),
                     n_bins, f, emi_dev.as<double>(), cfg);
}

void gpu_integr_edges_stream(Stream& stream, const DeviceBuffer& edges_dev,
                             std::size_t n_bins, quad::BatchIntegrand f,
                             DeviceBuffer& emi_dev, ScratchArena& arena,
                             const IntegrLaunchConfig& cfg) {
  check_edges_args(edges_dev, n_bins, emi_dev);
  integr_bins_launch_batch(stream_launcher(stream),
                           edges_dev.as<const double>(), n_bins, f,
                           emi_dev.as<double>(), arena, cfg);
}

void integr_edges_host(std::span<const double> edges, std::size_t n_bins,
                       quad::Integrand f, std::span<double> emi,
                       const IntegrLaunchConfig& cfg) {
  if (n_bins == 0) throw std::invalid_argument("integr_edges_host: no bins");
  if (edges.size() < n_bins + 1)
    throw std::out_of_range("integr_edges_host: edges span too small");
  if (emi.size() < n_bins)
    throw std::out_of_range("integr_edges_host: emi span too small");
  for (std::size_t b = 0; b < n_bins; ++b) {
    const double v = integr_edge_bin(edges.data(), b, f, cfg);
    if (cfg.accumulate)
      emi[b] += v;
    else
      emi[b] = v;
  }
}

void integr_edges_host(std::span<const double> edges, std::size_t n_bins,
                       quad::BatchIntegrand f, std::span<double> emi,
                       ScratchArena& arena, const IntegrLaunchConfig& cfg) {
  if (n_bins == 0) throw std::invalid_argument("integr_edges_host: no bins");
  if (edges.size() < n_bins + 1)
    throw std::out_of_range("integr_edges_host: edges span too small");
  if (emi.size() < n_bins)
    throw std::out_of_range("integr_edges_host: emi span too small");
  // Chunked so the abscissa/value scratch stays cache-resident instead of
  // scaling with the bin count. Chunking cannot change the bits (each value
  // depends only on its own abscissa).
  constexpr std::size_t kChunkBins = 256;
  const std::size_t evals =
      quad::kernel_cost_evals(cfg.method, cfg.method_param);
  const std::size_t chunk = std::min(kChunkBins, n_bins);
  std::span<double> xs = arena.alloc(chunk * evals);
  std::span<double> ys = arena.alloc(chunk * evals);
  for (std::size_t b0 = 0; b0 < n_bins; b0 += chunk) {
    const std::size_t end = std::min(b0 + chunk, n_bins);
    integr_edge_bins_batch(edges.data(), b0, end, 1, f, emi.data(), cfg, xs,
                           ys, evals);
  }
}

void gpu_integr(Device& device, double lo, double hi, quad::Integrand f,
                std::span<double> out, const IntegrLaunchConfig& cfg) {
  // Leased from the device's own pool: repeated host-convenience calls reuse
  // one buffer instead of paying a cudaMalloc/cudaFree per call.
  PooledBuffer emi(device.default_pool(), out.size() * sizeof(double));
  gpu_integr_device(device, lo, hi, out.size(), f, emi.get(), cfg);
  device.copy_to_host(out.data(), emi.get(), out.size() * sizeof(double));
}

void gpu_integr(Device& device, double lo, double hi, quad::BatchIntegrand f,
                std::span<double> out, ScratchArena& arena,
                const IntegrLaunchConfig& cfg) {
  PooledBuffer emi(device.default_pool(), out.size() * sizeof(double));
  gpu_integr_device(device, lo, hi, out.size(), f, emi.get(), arena, cfg);
  device.copy_to_host(out.data(), emi.get(), out.size() * sizeof(double));
}

}  // namespace hspec::vgpu
