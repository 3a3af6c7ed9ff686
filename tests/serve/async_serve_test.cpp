// The single-device async server — a one-device FleetServer — and its
// submit_async contract: results bit-equal the synchronous GemmServer path,
// the submitting thread's FaultHooks are replayed in the worker, a full
// queue refuses with a typed ResourceExhausted future (never blocking, never
// touching breakers or retries), and the destructor drains every accepted
// request so futures are always eventually ready.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <iterator>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/fleet.hpp"
#include "serve/serve.hpp"
#include "serve/slo.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

using serve::ErrorCode;
using serve::FleetConfig;
using serve::FleetResult;
using serve::FleetServer;
using serve::GemmServer;
using serve::ServeResult;

double counter(const char* name) {
  return obs::MetricRegistry::global().counter(name).value();
}

template <Scalar T>
std::pair<Matrix<T>, Matrix<T>> operands(std::size_t m, std::size_t n, std::size_t k,
                                         std::uint64_t seed = 1) {
  Rng rng(seed);
  Matrix<T> A = random_matrix<T>(m, k, rng);
  Matrix<T> B = random_matrix<T>(k, n, rng);
  return {std::move(A), std::move(B)};
}

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// A one-device GH200 fleet whose lone worker is held up by a transient
/// fault's 30 ms retry backoff, in front of a depth-2 queue.
FleetConfig stalled_depth2() {
  FleetConfig cfg = serve::one_device_fleet(sim::gh200());
  cfg.async_workers_per_device = 1;
  cfg.devices[0].queue_depth = 2;
  cfg.devices[0].serve.backoff_base_ms = 30.0;  // retries keep the worker busy
  cfg.devices[0].serve.backoff_max_ms = 30.0;
  return cfg;
}

/// Submit n requests; the first carries a transient fault so the lone
/// worker spends the retry backoff on it and the rest overflow the queue.
std::vector<std::future<FleetResult<fp16_t>>> burst(FleetServer& fleet, std::size_t n) {
  const auto [A, B] = operands<fp16_t>(32, 32, 32);
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  {
    verify::FaultHooks hooks;
    hooks.warp_advance_skew = -1e9;
    hooks.armed_runs = 1;
    const verify::ScopedFault fault(hooks);
    futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
  }
  for (std::size_t i = 1; i < n; ++i)
    futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
  return futures;
}

TEST(AsyncServe, ResultsBitEqualSynchronousServe) {
  GemmServer sync_server;
  FleetServer async_server(serve::one_device_fleet(sim::gh200()));
  const std::size_t shapes[][3] = {{32, 32, 32}, {64, 64, 64}, {48, 16, 64}};
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  std::vector<ServeResult<fp16_t>> want;
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    const auto [A, B] =
        operands<fp16_t>(shapes[i][0], shapes[i][1], shapes[i][2], 100 + i);
    want.push_back(sync_server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B));
    futures.push_back(async_server.submit_async<fp16_t>(Algo::OneD, A, B));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult<fp16_t> got = futures[i].get().result;
    ASSERT_TRUE(got.ok()) << got.message;
    EXPECT_EQ(got.code, want[i].code);
    EXPECT_EQ(got.rung_label, want[i].rung_label);
    EXPECT_EQ(got.attempts, want[i].attempts);
    EXPECT_EQ(got.warps, want[i].warps);
    EXPECT_TRUE(bits_equal(got.C, want[i].C)) << "entry " << i;
  }
}

TEST(AsyncServe, SubmitterFaultHooksReplayInWorker) {
  FleetServer fleet(serve::one_device_fleet(sim::gh200()));
  const auto [A, B] = operands<fp16_t>(32, 32, 32);

  std::future<FleetResult<fp16_t>> fut;
  {
    // Transient fault armed only for the duration of the submit call. The
    // worker must still see it (snapshot semantics), fail once, retry, and
    // serve on the second attempt.
    verify::FaultHooks hooks;
    hooks.warp_advance_skew = -1e9;
    hooks.armed_runs = 1;
    const verify::ScopedFault fault(hooks);
    fut = fleet.submit_async<fp16_t>(Algo::OneD, A, B);
  }
  const ServeResult<fp16_t> r = fut.get().result;
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.rung_label, "kami_1d");
  // The submitting thread's own hooks are untouched afterwards.
  EXPECT_EQ(verify::fault_hooks().warp_advance_skew, 0.0);
}

TEST(AsyncServe, FullQueueRefusesTypedWithoutTouchingBreakers) {
  obs::ScopedMetricsReset reset;
  constexpr std::size_t kBurst = 24;
  std::size_t refused = 0;
  {
    FleetServer fleet(stalled_depth2());
    for (auto& f : burst(fleet, kBurst)) {
      const FleetResult<fp16_t> r = f.get();
      if (r.result.code == ErrorCode::ResourceExhausted) {
        ++refused;
        EXPECT_NE(
            r.result.message.find("every eligible fleet queue is full (1 candidates)"),
            std::string::npos)
            << r.result.message;
        EXPECT_EQ(r.result.attempts, 0);  // refused before any rung ran
        EXPECT_EQ(r.device_index, -1);
      } else {
        ASSERT_TRUE(r.ok()) << r.result.message;
      }
    }
    // Overload never counts against the resilience machinery: the rung's
    // breaker stays closed and no refusal burned a retry.
    EXPECT_EQ(fleet.shard_server(0).breaker_state(sim::gh200().name, Algo::OneD,
                                                  Precision::FP16, 32, 32, 32),
              serve::BreakerState::Closed);
  }
  EXPECT_GT(refused, 0u) << "burst never overflowed the depth-2 queue";
  EXPECT_EQ(counter("fleet.async.submitted"), static_cast<double>(kBurst));
  EXPECT_EQ(counter("fleet.async.accepted") + counter("fleet.async.rejected"),
            static_cast<double>(kBurst));
  EXPECT_EQ(counter("fleet.async.rejected"), static_cast<double>(refused));
}

// Queue-full refusals must reach the attached SLO tracker: a rejected
// submission must not vanish from SLO accounting (the shape class would
// under-report its request and error counts), and a class consisting only of
// refusals must still export.
TEST(AsyncServe, QueueRefusalsLandInSloAccounting) {
  FleetConfig cfg = stalled_depth2();
  const auto slo = std::make_shared<serve::SloTracker>();
  cfg.slo = slo;

  constexpr std::size_t kBurst = 24;
  std::size_t refused = 0;
  {
    FleetServer fleet(std::move(cfg));
    for (auto& f : burst(fleet, kBurst))
      if (f.get().result.code == ErrorCode::ResourceExhausted) ++refused;
  }
  ASSERT_GT(refused, 0u) << "burst never overflowed the depth-2 queue";

  // Every submission — served or refused — is one SLO request; the refusals
  // are errors coded resource_exhausted with no latency observation.
  EXPECT_EQ(slo->total_requests(), kBurst);
  const obs::Json doc = slo->to_json();
  const obs::Json& cls = doc.at("classes").at(0);
  EXPECT_EQ(cls.at("class").as_string(), "tiny");
  EXPECT_EQ(cls.at("requests").as_number(), static_cast<double>(kBurst));
  EXPECT_EQ(cls.at("by_code").at("resource_exhausted").as_number(),
            static_cast<double>(refused));
  EXPECT_EQ(cls.at("latency_cycles").at("count").as_number(),
            static_cast<double>(kBurst - refused));
}

TEST(AsyncServe, DestructorDrainsEveryAcceptedRequest) {
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  {
    FleetConfig cfg = serve::one_device_fleet(sim::gh200());
    cfg.async_workers_per_device = 2;
    FleetServer fleet(std::move(cfg));
    for (std::uint64_t s = 0; s < 8; ++s) {
      const auto [A, B] = operands<fp16_t>(32, 32, 32, s + 1);
      futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
    }
  }  // ~FleetServer drains the queue and joins the workers
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const FleetResult<fp16_t> r = f.get();
    EXPECT_TRUE(r.ok() || r.result.code == ErrorCode::ResourceExhausted)
        << r.result.message;
  }
}

TEST(AsyncServe, ErrorsArriveTypedNotAsExceptions) {
  FleetServer fleet(serve::one_device_fleet(sim::gh200()));
  // Inner dimensions disagree: must come back as a typed InvalidRequest
  // through the future, not an exception.
  Matrix<fp16_t> A(32, 16), B(32, 32);
  auto fut = fleet.submit_async<fp16_t>(Algo::OneD, std::move(A), std::move(B));
  const ServeResult<fp16_t> r = fut.get().result;
  EXPECT_EQ(r.code, ErrorCode::InvalidRequest);
  EXPECT_FALSE(r.message.empty());
}

}  // namespace
}  // namespace kami
