// The chaos campaign: deterministic point generation covering both fleet
// sizes and every adversity class, a clean fixed-seed campaign, report
// invariance across worker counts, the single-device
// deadline-only guarantee, and targeted single points that pin the
// campaign's hardest corners (full blackout, storms against depth-1 queues,
// hedged dispatch, router misprediction) to a zero-violation outcome. The
// 500-point campaign runs as the kami_chaos CI step.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "serve/chaos.hpp"
#include "serve/slo.hpp"

namespace kami::serve {
namespace {

TEST(FleetChaos, PointGenerationIsDeterministic) {
  for (const std::uint64_t seed : {0ull, 1ull, 7ull, 42ull, 12345ull, 123456789ull}) {
    const ChaosPoint a = chaos_point(seed);
    const ChaosPoint b = chaos_point(seed);
    EXPECT_EQ(to_string(a), to_string(b)) << "seed " << seed;
    EXPECT_FALSE(to_string(a).empty());
  }
  EXPECT_NE(to_string(chaos_point(1)), to_string(chaos_point(2)));
}

// A point is a pure function of its seed: generating the seeds in reverse
// order, after other points, yields the same points as a forward pass. The
// parallel campaign relies on this — replications share no generator state.
TEST(ChaosPoints, GenerationIsDeterministic) {
  std::vector<std::string> forward;
  for (std::uint64_t seed = 0; seed < 64; ++seed) forward.push_back(to_string(chaos_point(seed)));
  for (std::uint64_t seed = 64; seed-- > 0;)
    EXPECT_EQ(to_string(chaos_point(seed)), forward[seed]) << "seed " << seed;
}

TEST(FleetChaos, EveryFaultClassModeAndFleetShapeAppears) {
  std::set<std::string> faults;
  std::set<sim::ExecMode> modes;
  std::set<std::size_t> fleet_sizes;
  std::size_t with_deadline = 0, blackouts_1 = 0, blackouts_4 = 0, full_outages = 0;
  std::size_t storms = 0, hedges = 0, skews = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ChaosPoint p = chaos_point(seed);
    faults.insert(chaos_fault_name(p.fault));
    modes.insert(p.mode);
    fleet_sizes.insert(p.fleet_size);
    if (p.deadline_cycles > 0.0) ++with_deadline;
    // Adversity is drawn for the point's own fleet: masks stay inside it,
    // and skew and hedging only appear where a second device exists.
    const std::uint32_t all = (1u << p.fleet_size) - 1u;
    EXPECT_EQ(p.blackout_mask & ~all, 0u) << to_string(p);
    if (p.blackout_mask != 0) ++(p.fleet_size == 1 ? blackouts_1 : blackouts_4);
    if (p.blackout_mask == all) ++full_outages;
    if (p.storm_requests > 0) ++storms;
    if (p.hedge) {
      ++hedges;
      EXPECT_GT(p.fleet_size, 1u) << to_string(p);
    }
    if (!p.route_skew.empty()) {
      ++skews;
      EXPECT_EQ(p.route_skew.size(), p.fleet_size) << to_string(p);
    }
  }
  EXPECT_EQ(fleet_sizes, (std::set<std::size_t>{1, 4}));
  EXPECT_EQ(faults.size(), 5u);  // none + 2 transient + permanent + alloc
  EXPECT_EQ(modes.size(), 3u);
  EXPECT_GT(with_deadline, 20u);
  EXPECT_LT(with_deadline, 180u);
  EXPECT_GT(blackouts_1, 0u);
  EXPECT_GT(blackouts_4, 0u);
  EXPECT_GT(full_outages, 0u);
  EXPECT_GT(storms, 0u);
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(skews, 0u);
}

TEST(FleetChaos, FixedSeedSmokeCampaignIsClean) {
  const auto slo = std::make_shared<SloTracker>();
  const ChaosReport rep = run_campaign(1, 40, /*workers=*/1, nullptr, slo);
  EXPECT_TRUE(rep.clean()) << rep.violations.size() << " violations, first: "
                           << (rep.violations.empty() ? std::string()
                                                      : rep.violations[0].point + ": " +
                                                            rep.violations[0].detail);
  EXPECT_EQ(rep.ran, 40u);
  EXPECT_EQ(rep.served_ok + rep.typed_errors, rep.ran);
  EXPECT_FALSE(rep.by_rung.empty());
  EXPECT_EQ(rep.by_fleet_size.size(), 2u);  // both fleet sizes ran
  // 40 seeds comfortably cover both sides of every distribution: some points
  // serve, some refuse typed, and the blackout machinery fires.
  EXPECT_GT(rep.served_ok, 0u);
  EXPECT_GT(rep.typed_errors, 0u);
  // One fleet request (plus storm and recovery traffic) per point, recorded
  // at fleet level only — the SLO tracker must have seen every point.
  EXPECT_GE(slo->total_requests(), rep.ran);
}

// The campaign determinism contract for the report: every count and every
// breakdown is identical at every worker count. (The flight-recorder dump
// and SLO export half of the contract is CampaignTraceDeterminism.)
TEST(FleetChaos, CampaignReportIsWorkerCountInvariant) {
  const auto run = [](int workers) {
    return run_campaign(/*base_seed=*/7, /*points=*/24, workers, nullptr, nullptr);
  };
  const ChaosReport a = run(1);
  EXPECT_TRUE(a.clean());
  for (const int workers : {2, 4, 8}) {
    const ChaosReport b = run(workers);
    EXPECT_TRUE(b.clean()) << "workers=" << workers;
    EXPECT_EQ(a.ran, b.ran) << "workers=" << workers;
    EXPECT_EQ(a.served_ok, b.served_ok) << "workers=" << workers;
    EXPECT_EQ(a.typed_errors, b.typed_errors) << "workers=" << workers;
    EXPECT_EQ(a.failovers, b.failovers) << "workers=" << workers;
    EXPECT_EQ(a.hedged, b.hedged) << "workers=" << workers;
    EXPECT_EQ(a.storm_requests, b.storm_requests) << "workers=" << workers;
    EXPECT_EQ(a.storm_rejected, b.storm_rejected) << "workers=" << workers;
    EXPECT_EQ(a.by_code, b.by_code) << "workers=" << workers;
    EXPECT_EQ(a.by_rung, b.by_rung) << "workers=" << workers;
    EXPECT_EQ(a.by_device, b.by_device) << "workers=" << workers;
    EXPECT_EQ(a.by_fault, b.by_fault) << "workers=" << workers;
    EXPECT_EQ(a.by_fleet_size, b.by_fleet_size) << "workers=" << workers;
  }
}

// A one-device fleet with no blackout and no storm is a single server
// behind a queue: its full ladder (reference fallback included) absorbs
// every injected fault, so the only typed error it may return is a deadline
// abort, and its one request is retained in the flight recorder — as an
// error trace exactly when it failed.
TEST(FleetChaos, CalmSingleDevicePointsFailOnlyOnDeadlines) {
  std::size_t calm = 0, deadline_errors = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ChaosPoint p = chaos_point(seed);
    if (p.fleet_size != 1 || p.blackout_mask != 0 || p.storm_requests != 0) continue;
    ++calm;
    const auto flight = std::make_shared<obs::FlightRecorder>();
    const ChaosOutcome o = run_chaos_point(p, flight);
    EXPECT_FALSE(o.violation) << to_string(p) << ": " << o.detail;
    EXPECT_TRUE(o.code == ErrorCode::Ok || o.code == ErrorCode::DeadlineExceeded)
        << to_string(p) << ": " << error_code_name(o.code) << " " << o.message;
    EXPECT_EQ(o.device, p.base.device);
    EXPECT_EQ(flight->size(), 1u) << to_string(p);
    EXPECT_EQ(flight->error_count(), o.code == ErrorCode::Ok ? 0u : 1u) << to_string(p);
    if (o.code == ErrorCode::DeadlineExceeded) ++deadline_errors;
  }
  EXPECT_GT(calm, 10u);
  EXPECT_GT(deadline_errors, 0u);
}

// The campaign's worst corner, pinned explicitly so a distribution change in
// chaos_point() can never silently stop covering it: every device dark, a
// storm against depth-1 queues, and hedging armed — for both fleet sizes.
// The point must run violation-free: the full outage comes back typed, every
// storm future resolves, and the devices recover once the blackout clears.
TEST(FleetChaos, FullBlackoutWithStormAndHedgeIsViolationFree) {
  for (const std::size_t devices : {std::size_t{1}, std::size_t{4}}) {
    ChaosPoint p = chaos_point(3);
    p.fleet_size = devices;
    p.route_skew.clear();
    p.fault = ChaosFault::None;
    p.blackout_mask = (1u << devices) - 1u;
    p.storm_requests = 8;
    p.queue_depth = 1;
    p.hedge = devices > 1;
    p.probe_cooldown = 1;
    const ChaosOutcome o = run_chaos_point(p);
    EXPECT_FALSE(o.violation) << to_string(p) << ": " << o.detail;
    // A dark fleet serves nothing: storm futures come back as typed admission
    // refusals or dark-dispatch errors, never results.
    EXPECT_EQ(o.storm_ok, 0) << to_string(p);
    EXPECT_GT(o.storm_rejected, 0) << to_string(p);
    EXPECT_NE(o.code, ErrorCode::Ok) << to_string(p);
  }
}

TEST(FleetChaos, RouterMispredictionPointIsViolationFree) {
  ChaosPoint p = chaos_point(5);
  p.fleet_size = 4;
  p.fault = ChaosFault::None;
  p.blackout_mask = 0;
  p.route_skew = {64.0, 0.25, 4.0, 1.0};  // deliberately wrong ranking
  const ChaosOutcome o = run_chaos_point(p);
  EXPECT_FALSE(o.violation) << o.detail;
}

TEST(FleetChaos, InjectedFaultPointsStayWithinTheContract) {
  // A handful of fixed seeds spanning the fault kinds and both fleet sizes;
  // each point internally asserts bit-correct-or-typed, no lost request,
  // failover identity, recovery, and replay.
  std::set<std::size_t> sizes;
  for (const std::uint64_t seed : {2ull, 9ull, 17ull, 33ull, 41ull}) {
    const ChaosPoint p = chaos_point(seed);
    sizes.insert(p.fleet_size);
    const ChaosOutcome o = run_chaos_point(p);
    EXPECT_FALSE(o.violation) << "seed " << seed << ": " << o.detail << "\n  point: "
                              << to_string(p);
  }
  EXPECT_EQ(sizes.size(), 2u);
}

}  // namespace
}  // namespace kami::serve
