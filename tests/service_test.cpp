// Tests for the always-on spectral service (DESIGN.md §13): the memoized
// grid cache (quantization, LRU eviction, interpolation bounds, bitwise
// exact-hit identity against a direct HybridDriver run), cross-request
// batch coalescing and dedup, admission control in both policies, the
// per-request ServiceStats surface, and minimpi ranks as clients.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apec/calculator.h"
#include "core/hybrid.h"
#include "minimpi/minimpi.h"
#include "service/grid_cache.h"
#include "service/service.h"

namespace {

using namespace hspec;
using service::GridCache;
using service::GridCacheConfig;
using service::GridKey;
using service::ServiceConfig;
using service::SpectralService;

// ------------------------------------------------------------- fixtures

/// Small real workload shared by the service tests: a truncated database
/// and a coarse grid keep each executor batch around tens of milliseconds.
struct Workload {
  Workload()
      : db(db_config()),
        grid(apec::EnergyGrid::wavelength(5.0, 40.0, 32)),
        calc(db, grid, calc_options()) {}

  static atomic::DatabaseConfig db_config() {
    atomic::DatabaseConfig cfg;
    cfg.max_z = 6;
    cfg.levels = {2, true};
    return cfg;
  }
  static apec::CalcOptions calc_options() {
    apec::CalcOptions opt;
    opt.integration.adaptive = false;
    return opt;
  }
  static core::HybridConfig hybrid_config() {
    core::HybridConfig cfg;
    cfg.ranks = 2;
    cfg.devices = 2;
    cfg.max_queue_length = 32;
    return cfg;
  }

  atomic::AtomicDatabase db;
  apec::EnergyGrid grid;
  apec::SpectrumCalculator calc;
};

apec::GridPoint point_at(double kT_keV, std::size_t index = 0) {
  apec::GridPoint pt;
  pt.kT_keV = kT_keV;
  pt.ne_cm3 = 1.0;
  pt.time_s = 0.0;
  pt.index = index;
  return pt;
}

GridCache::Bins make_bins(std::initializer_list<double> values) {
  return std::make_shared<const std::vector<double>>(values);
}

// ------------------------------------------------------------ grid cache

TEST(GridCacheKey, IdenticalPointsShareABucket) {
  GridCache cache(GridCacheConfig{});
  const auto a = cache.key_of(point_at(0.8675309));
  const auto b = cache.key_of(point_at(0.8675309));
  EXPECT_EQ(a, b);
}

TEST(GridCacheKey, ZeroSignAndMagnitudeAreDistinct) {
  GridCache cache(GridCacheConfig{});
  apec::GridPoint zero = point_at(1.0);
  zero.time_s = 0.0;
  apec::GridPoint pos = zero;
  pos.time_s = 1.0;
  apec::GridPoint neg = zero;
  neg.time_s = -1.0;
  const auto kz = cache.key_of(zero);
  const auto kp = cache.key_of(pos);
  const auto kn = cache.key_of(neg);
  EXPECT_NE(kz, kp);
  EXPECT_NE(kz, kn);
  EXPECT_NE(kp, kn);
}

TEST(GridCacheKey, ResolutionSeparatesNearbyTemperatures) {
  GridCache cache(GridCacheConfig{});  // rel_resolution 1e-9
  EXPECT_NE(cache.key_of(point_at(1.0)), cache.key_of(point_at(1.0001)));
}

TEST(GridCache, ExactHitReturnsTheStoredBinsObject) {
  GridCache cache(GridCacheConfig{});
  const auto pt = point_at(1.25);
  const auto bins = make_bins({1.0, 2.0, 3.0});
  cache.insert(pt, bins);
  const auto found = cache.lookup(pt);
  ASSERT_NE(found.bins, nullptr);
  EXPECT_FALSE(found.interpolated);
  // Same object, not a copy: bitwise identity is structural.
  EXPECT_EQ(found.bins.get(), bins.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(GridCache, LruEvictsOldestUnderCapacityPressure) {
  GridCacheConfig cfg;
  cfg.capacity = 4;
  cfg.shards = 1;  // one shard so the LRU order is global
  GridCache cache(cfg);
  for (int i = 0; i < 4; ++i)
    cache.insert(point_at(1.0 + i), make_bins({double(i)}));
  // Touch the oldest entry so it is no longer the LRU tail.
  EXPECT_NE(cache.lookup(point_at(1.0)).bins, nullptr);
  // Two more inserts: evicts kT=2.0 then kT=3.0, never the touched 1.0.
  cache.insert(point_at(10.0), make_bins({10.0}));
  cache.insert(point_at(11.0), make_bins({11.0}));
  EXPECT_NE(cache.lookup(point_at(1.0)).bins, nullptr);
  EXPECT_EQ(cache.lookup(point_at(2.0)).bins, nullptr);
  EXPECT_EQ(cache.lookup(point_at(3.0)).bins, nullptr);
  EXPECT_NE(cache.lookup(point_at(4.0)).bins, nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.inserts, 6u);
}

TEST(GridCache, ReinsertRefreshesInsteadOfGrowing) {
  GridCacheConfig cfg;
  cfg.capacity = 2;
  cfg.shards = 1;
  GridCache cache(cfg);
  cache.insert(point_at(1.0), make_bins({1.0}));
  cache.insert(point_at(1.0), make_bins({2.0}));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  const auto found = cache.lookup(point_at(1.0));
  ASSERT_NE(found.bins, nullptr);
  EXPECT_EQ((*found.bins)[0], 2.0);  // last writer wins
}

TEST(GridCache, InterpolationServesBracketedNearHitWithinBound) {
  GridCacheConfig cfg;
  cfg.shards = 1;
  cfg.interpolate = true;
  cfg.interp_max_rel_spacing = 0.25;
  GridCache cache(cfg);
  cache.insert(point_at(1.0), make_bins({1.0, 10.0}));
  cache.insert(point_at(1.2), make_bins({3.0, 30.0}));
  const auto found = cache.lookup(point_at(1.1));
  ASSERT_NE(found.bins, nullptr);
  EXPECT_TRUE(found.interpolated);
  // Linear in temperature, per bin; the tolerance bound is the bracket
  // width times the bins' slope, and the midpoint is exact for a linear
  // profile.
  EXPECT_NEAR((*found.bins)[0], 2.0, 1e-12);
  EXPECT_NEAR((*found.bins)[1], 20.0, 1e-12);
  EXPECT_EQ(cache.stats().interpolated, 1u);
  // Every interpolated bin lies inside [min(b0,b1), max(b0,b1)] — the
  // configurable-tolerance contract for monotone brackets.
  EXPECT_GE((*found.bins)[0], 1.0);
  EXPECT_LE((*found.bins)[0], 3.0);
}

TEST(GridCache, InterpolationRefusesWideBracketsAndExtrapolation) {
  GridCacheConfig cfg;
  cfg.shards = 1;
  cfg.interpolate = true;
  cfg.interp_max_rel_spacing = 0.05;  // 1.0..1.2 bracket is too wide now
  GridCache cache(cfg);
  cache.insert(point_at(1.0), make_bins({1.0}));
  cache.insert(point_at(1.2), make_bins({3.0}));
  EXPECT_EQ(cache.lookup(point_at(1.1)).bins, nullptr);  // bracket too wide
  EXPECT_EQ(cache.lookup(point_at(1.3)).bins, nullptr);  // not bracketed
  EXPECT_EQ(cache.stats().interpolated, 0u);
}

TEST(GridCache, InterpolationNeverCrossesFamilies) {
  GridCacheConfig cfg;
  cfg.shards = 1;
  cfg.interpolate = true;
  GridCache cache(cfg);
  auto lo = point_at(1.0);
  lo.ne_cm3 = 1.0;
  auto hi = point_at(1.2);
  hi.ne_cm3 = 2.0;  // different density family
  cache.insert(lo, make_bins({1.0}));
  cache.insert(hi, make_bins({3.0}));
  auto probe = point_at(1.1);
  probe.ne_cm3 = 1.0;
  EXPECT_EQ(cache.lookup(probe).bins, nullptr);
}

// -------------------------------------------------------------- service

TEST(SpectralService, ExactHitIsBitwiseIdenticalToDirectRun) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  SpectralService svc(w.calc, cfg);

  const std::vector<apec::GridPoint> pts{point_at(0.7)};
  const auto first = svc.submit(pts).wait();
  EXPECT_EQ(first.stats.cache_misses, 1u);
  const auto second = svc.submit(pts).wait();
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.batch_points, 0u);  // fully cache-served

  core::HybridDriver direct(w.calc, cfg.hybrid);
  const auto fresh = direct.run(pts);
  ASSERT_EQ(second.spectra.size(), 1u);
  for (std::size_t b = 0; b < w.grid.bin_count(); ++b) {
    const double cached = second.spectra[0][b];
    const double ref = fresh.spectra[0][b];
    EXPECT_EQ(std::memcmp(&cached, &ref, sizeof(double)), 0)
        << "bin " << b << " differs bitwise";
  }
}

TEST(SpectralService, CoalescesQueuedRequestsIntoOneBatch) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  cfg.autostart = false;  // queue first, then start: deterministic grouping
  SpectralService svc(w.calc, cfg);

  auto t1 = svc.submit({point_at(0.4), point_at(0.5)});
  auto t2 = svc.submit({point_at(0.6)});
  auto t3 = svc.submit({point_at(0.7)});
  svc.start();
  const auto r1 = t1.wait();
  const auto r2 = t2.wait();
  const auto r3 = t3.wait();

  // The coalescing criterion: one executor batch carried more than one
  // point, contributed by at least two distinct requests.
  EXPECT_EQ(r1.stats.batch_points, 4u);
  EXPECT_EQ(r1.stats.batch_requests, 3u);
  EXPECT_EQ(r2.stats.batch_points, 4u);
  EXPECT_GE(r2.stats.batch_requests, 2u);
  EXPECT_EQ(r3.stats.batch_requests, 3u);

  const auto tel = svc.telemetry();
  EXPECT_EQ(tel.batches, 1u);
  EXPECT_EQ(tel.coalesced_batches, 1u);
  EXPECT_EQ(tel.max_batch_points, 4u);
  EXPECT_EQ(tel.max_batch_requests, 3u);

  // Spot-check correctness of a coalesced result against a direct run.
  core::HybridDriver direct(w.calc, cfg.hybrid);
  const auto fresh = direct.run({point_at(0.6)});
  for (std::size_t b = 0; b < w.grid.bin_count(); ++b)
    EXPECT_EQ(r2.spectra[0][b], fresh.spectra[0][b]) << "bin " << b;
}

TEST(SpectralService, DeduplicatesSamePointAcrossRequests) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  cfg.autostart = false;
  SpectralService svc(w.calc, cfg);

  auto t1 = svc.submit({point_at(0.9)});
  auto t2 = svc.submit({point_at(0.9)});  // same quantized bucket
  svc.start();
  const auto r1 = t1.wait();
  const auto r2 = t2.wait();
  // Both requests missed (nothing was cached), yet the executor saw the
  // point once.
  EXPECT_EQ(r1.stats.cache_misses, 1u);
  EXPECT_EQ(r2.stats.cache_misses, 1u);
  EXPECT_EQ(r1.stats.batch_points, 1u);
  EXPECT_EQ(r1.stats.batch_requests, 2u);
  for (std::size_t b = 0; b < w.grid.bin_count(); ++b)
    EXPECT_EQ(r1.spectra[0][b], r2.spectra[0][b]);
  EXPECT_EQ(svc.telemetry().batches, 1u);
}

TEST(SpectralService, RejectPolicyThrowsWhenQueueIsFull) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  cfg.admission = ServiceConfig::Admission::reject;
  cfg.max_pending_points = 2;
  cfg.autostart = false;  // nothing drains: the gate must close
  SpectralService svc(w.calc, cfg);

  auto t1 = svc.submit({point_at(0.4), point_at(0.5)});
  EXPECT_THROW(svc.submit({point_at(0.6)}), service::ServiceOverloaded);
  EXPECT_EQ(svc.telemetry().requests_rejected, 1u);

  svc.start();  // drain so the queued ticket completes
  EXPECT_EQ(t1.wait().spectra.size(), 2u);
}

TEST(SpectralService, BlockPolicyAdmitsOnceTheQueueDrains) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  cfg.admission = ServiceConfig::Admission::block;
  cfg.max_pending_points = 2;
  SpectralService svc(w.calc, cfg);

  // More in flight than the gate admits at once: later submits block until
  // the worker drains, then everything completes.
  std::vector<SpectralService::Ticket> tickets;
  for (int i = 0; i < 5; ++i)
    tickets.push_back(svc.submit({point_at(0.3 + 0.1 * i)}));
  for (auto& t : tickets) EXPECT_EQ(t.wait().spectra.size(), 1u);
  const auto tel = svc.telemetry();
  EXPECT_EQ(tel.requests_submitted, 5u);
  EXPECT_EQ(tel.requests_completed, 5u);
  EXPECT_EQ(tel.requests_rejected, 0u);
}

TEST(SpectralService, StatsSurfaceDeviceHealthAndQueueWait) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  SpectralService svc(w.calc, cfg);

  const auto miss = svc.submit({point_at(1.5)}).wait();
  EXPECT_GE(miss.stats.queue_wait_s, 0.0);
  // A computed request carries the batch's fault/health surface: one entry
  // per device, all healthy on a fault-free run.
  ASSERT_EQ(miss.stats.device_health.size(),
            static_cast<std::size_t>(svc.device_count()));
  for (const auto h : miss.stats.device_health)
    EXPECT_EQ(h, core::DeviceHealth::healthy);
  EXPECT_EQ(miss.stats.faults.injected, 0);

  // A fully cached request never touched a device: the surface is empty.
  const auto hit = svc.submit({point_at(1.5)}).wait();
  EXPECT_TRUE(hit.stats.device_health.empty());
  EXPECT_EQ(hit.stats.batch_points, 0u);
}

TEST(SpectralService, EmptyRequestCompletesImmediately) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  cfg.autostart = false;  // no worker: completion cannot come from dispatch
  SpectralService svc(w.calc, cfg);
  auto ticket = svc.submit({});
  EXPECT_TRUE(ticket.done());
  EXPECT_TRUE(ticket.wait().spectra.empty());
}

// Points outside the physical domain are refused at submit(), before they
// reach the cache's quantize() or an executor rank, so one bad request
// cannot disturb the tickets around it.
TEST(SpectralService, InvalidPointsAreRejectedAtSubmit) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  SpectralService svc(w.calc, cfg);
  auto before = svc.submit({point_at(0.6)});

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<apec::GridPoint> bad;
  // Tiny positive kT used to pass and compute all-NaN populations.
  for (double kT : {-1.0, 0.0, nan, inf, -inf, 1e-8, 1e-30, 1e-300,
                    std::nextafter(service::kMinKT_keV, 0.0)})
    bad.push_back(point_at(kT));
  for (double ne : {-1.0, 0.0, nan, inf}) {
    bad.push_back(point_at(0.6));
    bad.back().ne_cm3 = ne;
  }
  for (double t : {-1.0, nan, inf}) {
    bad.push_back(point_at(0.6));
    bad.back().time_s = t;
  }
  for (const apec::GridPoint& p : bad)
    EXPECT_THROW(svc.submit({point_at(0.6), p}), service::InvalidRequest)
        << "kT " << p.kT_keV << " ne " << p.ne_cm3 << " t " << p.time_s;

  auto after = svc.submit({point_at(0.6), point_at(0.9)});
  EXPECT_EQ(before.wait().spectra.size(), 1u);
  const auto reply = after.wait();
  ASSERT_EQ(reply.spectra.size(), 2u);
  for (const auto& spectrum : reply.spectra)
    for (double v : spectrum.values()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(svc.telemetry().requests_submitted, 2u);
  EXPECT_EQ(svc.cache_stats().entries, 2u);
}

TEST(SpectralService, KTFloorIsServedWithAFiniteSpectrum) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  SpectralService svc(w.calc, cfg);
  const auto reply = svc.submit({point_at(service::kMinKT_keV)}).wait();
  ASSERT_EQ(reply.spectra.size(), 1u);
  for (double v : reply.spectra[0].values()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(svc.cache_stats().entries, 1u);
}

TEST(SpectralService, NonFiniteSpectraFailOnlyTheirRequestsAndAreNotCached) {
  // ne = 1e150 cm^-3 passes submit() but the emissivity (~ ne^2)
  // overflows, so its spectrum is not finite. Both requests ride one batch
  // (queued before start): the one holding the bad point fails naming it,
  // the other is served.
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  cfg.autostart = false;
  SpectralService svc(w.calc, cfg);
  apec::GridPoint dense = point_at(0.6);
  dense.ne_cm3 = 1e150;
  auto bad = svc.submit({point_at(0.6), dense});
  auto good = svc.submit({point_at(0.6)});
  svc.start();

  try {
    bad.wait();
    ADD_FAILURE() << "a request with a non-finite spectrum succeeded";
  } catch (const service::InvalidRequest& e) {
    EXPECT_NE(std::string(e.what()).find("point 1"), std::string::npos)
        << e.what();
  }
  const auto served = good.wait();
  ASSERT_EQ(served.spectra.size(), 1u);
  EXPECT_EQ(svc.telemetry().batches, 1u);
  EXPECT_EQ(svc.cache_stats().entries, 1u);  // the valid point only

  core::HybridDriver direct(w.calc, Workload::hybrid_config());
  const auto truth = direct.run({point_at(0.6), point_at(0.9)});
  const auto next = svc.submit({point_at(0.9)}).wait();
  ASSERT_EQ(next.spectra.size(), 1u);
  EXPECT_EQ(std::memcmp(next.spectra[0].values().data(),
                        truth.spectra[1].values().data(),
                        truth.spectra[1].bin_count() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(served.spectra[0].values().data(),
                        truth.spectra[0].values().data(),
                        truth.spectra[0].bin_count() * sizeof(double)),
            0);
  EXPECT_EQ(svc.cache_stats().entries, 2u);
}

TEST(SpectralService, StopDrainsThenRejectsNewWork) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  SpectralService svc(w.calc, cfg);
  auto ticket = svc.submit({point_at(0.8)});
  svc.stop();
  EXPECT_EQ(ticket.wait().spectra.size(), 1u);  // drained, not dropped
  EXPECT_THROW(svc.submit({point_at(0.9)}), service::ServiceStopped);
}

TEST(SpectralService, StopWithoutStartFailsQueuedTickets) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  cfg.autostart = false;
  SpectralService svc(w.calc, cfg);
  auto ticket = svc.submit({point_at(0.8)});
  svc.stop();  // never started: the queued request cannot ever run
  EXPECT_THROW(ticket.wait(), service::ServiceStopped);
}

TEST(SpectralService, MinimpiRanksActAsConcurrentClients) {
  Workload w;
  ServiceConfig cfg;
  cfg.hybrid = Workload::hybrid_config();
  SpectralService svc(w.calc, cfg);

  // Four ranks share the service; each submits its own temperature plus a
  // common one, so ranks both coalesce and hit each other's cache fills.
  constexpr int kRanks = 4;
  std::vector<double> totals(kRanks, 0.0);
  minimpi::run(kRanks, [&](minimpi::Communicator& comm) {
    const int r = comm.rank();
    auto ticket = svc.submit({point_at(0.5 + 0.1 * r), point_at(2.0)});
    const auto reply = ticket.wait();
    totals[static_cast<std::size_t>(r)] = reply.spectra[0].total();
    comm.barrier();
  });
  for (double total : totals) EXPECT_GT(total, 0.0);
  const auto tel = svc.telemetry();
  EXPECT_EQ(tel.requests_submitted, static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(tel.requests_completed, static_cast<std::uint64_t>(kRanks));
  // The shared point was computed at most once; later ranks were served
  // from the cache or the deduplicated batch slot.
  const auto cache_stats = svc.cache_stats();
  EXPECT_GE(cache_stats.entries, 1u);
  EXPECT_LE(cache_stats.entries, static_cast<std::size_t>(kRanks) + 1u);
}

}  // namespace
