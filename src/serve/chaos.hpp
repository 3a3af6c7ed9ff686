// Chaos campaign: randomized resilience fuzzing of the serving layer.
//
// Each chaos point is a verify::CheckPoint (device, precision, algorithm,
// shape, tuning, data seed) plus adversity drawn from the same seed:
//
//   * request conditions — an injected fault (transient or permanent
//     cycle-accounting skew, a one-shot register-allocation failure), a
//     randomized cycle deadline, and a randomized execution mode;
//   * a fleet — either one device (the verify point's own, so the point is
//     a single-server request wrapped in the fleet's routing and queues) or
//     the four Table-3 devices;
//   * fleet adversity for that fleet — seeded blackouts (possibly every
//     device), router-misprediction skew, queue-overflow storms against
//     tiny shard queues in manual-drain mode, and hedged dispatch (which
//     only fires with two or more devices).
//
// run_chaos_point() builds the point's fleet from scratch (manual drain; the
// fleet owns its planning state, so no point reads or warms another's) and
// checks every invariant on every point:
//
//   * bit-correct-or-typed — chaos_detail::contract_violation on the main
//     request and on every storm request's future: faults may slow or
//     degrade a request but never corrupt it, and failures are well-typed;
//   * no request lost or double-completed — every submitted future is ready
//     after drain() and carries a result;
//   * failover bit-identity — a fault-free success is bit-identical to a
//     direct GemmServer::serve on the device the fleet reports it used:
//     failover may change *where*, never *what*;
//   * recovery — once blackouts clear, the probe state machine returns every
//     marked-down device to Healthy within cooldown + 2 requests;
//   * deterministic replay — the whole scenario rerun from scratch (fresh
//     fleet, fresh planner state) reproduces the same code, message, serving
//     device, failover count, rung, end-to-end cycles and storm outcome.
//
// Points are generated from a seed (chaos_point), so every violation is
// replayable: `kami_chaos --seed <s> --points 1`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "serve/fleet.hpp"
#include "serve/serve.hpp"
#include "verify/differential.hpp"

namespace kami::serve {

enum class ChaosFault {
  None,               ///< no injection: the point must serve on its merits
  TransientWarpSkew,  ///< clock-rewind skew that clears after one failing run
  TransientPortSkew,  ///< port double-charge skew that clears after one run
  PermanentWarpSkew,  ///< clock-rewind skew on every run: only reference serves
  AllocFailure,       ///< one-shot injected register-allocation failure
};

const char* chaos_fault_name(ChaosFault f) noexcept;

struct ChaosPoint {
  verify::CheckPoint base;  ///< the requested shape/precision/algo/tuning
  ChaosFault fault = ChaosFault::None;
  long long alloc_countdown = -1;  ///< AllocFailure: which allocation fails
  double deadline_cycles = 0.0;    ///< 0 = no deadline
  sim::ExecMode mode = sim::ExecMode::Full;

  /// 1 = base.device alone; 4 = the Table-3 fleet.
  std::size_t fleet_size = 4;
  std::uint32_t blackout_mask = 0;  ///< bit i: device i dark at arrival
  std::vector<double> route_skew;   ///< empty = honest router
  bool hedge = false;               ///< hedge deadline-carrying requests
  int storm_requests = 0;           ///< async burst size (0 = no storm)
  std::size_t queue_depth = 4;      ///< shard queue capacity for this point
  int probe_cooldown = 2;           ///< fleet requests before a Down shard probes
};

/// Deterministic seed -> point generation (replays exactly).
ChaosPoint chaos_point(std::uint64_t seed);

/// One-line human-readable spec (verify spec + chaos fields).
std::string to_string(const ChaosPoint& p);

struct ChaosOutcome {
  bool violation = false;  ///< contract broken (crash, corruption, bad typing)
  std::string detail;      ///< violation description when violation
  ErrorCode code = ErrorCode::Ok;
  std::string message;     ///< the main request's error message (typed failures)
  std::string rung_label;  ///< rung that served, or "error"
  std::string device;      ///< device that answered ("" on fleet refusal)
  int failovers = 0;
  bool hedged = false;
  int storm_ok = 0;        ///< storm futures that served
  int storm_rejected = 0;  ///< storm futures typed-refused at admission
};

/// Run one chaos point: build the point's fleet, apply blackouts and skew,
/// run the storm, serve the main request under its fault, check recovery,
/// then replay the scenario from scratch and compare. `flight`/`slo` attach
/// observability to the first run (the campaign passes per-point instances
/// and folds them in seed order); request ids are "<request_id_prefix>-<n>".
ChaosOutcome run_chaos_point(const ChaosPoint& p,
                             const std::shared_ptr<obs::FlightRecorder>& flight = nullptr,
                             const std::shared_ptr<SloTracker>& slo = nullptr,
                             const std::string& request_id_prefix = "chaos");

struct ChaosViolation {
  std::uint64_t seed = 0;
  std::string point;   ///< to_string of the generated point
  std::string detail;
};

struct ChaosReport {
  std::size_t ran = 0;
  std::size_t served_ok = 0;
  std::size_t typed_errors = 0;
  std::size_t failovers = 0;       ///< total failed dispatches before an answer
  std::size_t hedged = 0;          ///< points served by a hedged pair
  std::size_t storm_requests = 0;  ///< total storm submissions checked
  std::size_t storm_rejected = 0;  ///< typed admission refusals among them
  std::map<std::string, std::size_t> by_code;        ///< error_code_name -> count
  std::map<std::string, std::size_t> by_rung;        ///< rung label -> count
  std::map<std::string, std::size_t> by_fault;       ///< injected fault -> count
  std::map<std::string, std::size_t> by_device;      ///< device that answered
  std::map<std::string, std::size_t> by_fleet_size;  ///< "1_device" / "4_devices"
  std::vector<ChaosViolation> violations;

  bool clean() const noexcept { return violations.empty(); }
};

/// Replication-parallel campaign: points seeded base_seed, base_seed+1, ...
/// each against its own fresh fleet, fanned out across the execution engine
/// (`workers` 0 = defer to KAMI_THREADS, 1 = serial). Each point owns all of
/// its state — fleet, planner state, recorder, SLO tracker (request ids
/// prefixed "seed<n>") — and outcomes fold serially in seed order, so the
/// report and the `flight`/`slo` contents are byte-identical at every
/// worker count.
ChaosReport run_campaign(std::uint64_t base_seed, std::size_t points, int workers = 1,
                         const std::shared_ptr<obs::FlightRecorder>& flight = nullptr,
                         const std::shared_ptr<SloTracker>& slo = nullptr);

// ---------------------------------------------------------------------------
// Contract machinery shared by the campaign and the tests.

namespace chaos_detail {

/// Shortest round-trip-exact decimal rendering (violation messages compare
/// byte-for-byte across replays).
std::string fmt(double v);

/// KAMI-3D's tolerance vs the FP64 reference, per element, scaled by k at
/// the call site (same table as verify::check_point).
double reference_tolerance(Precision p);

/// The fault-injection hooks one ChaosFault arms (AllocFailure consumes
/// `alloc_countdown`; the other faults ignore it).
verify::FaultHooks hooks_for(ChaosFault f, long long alloc_countdown);

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// The bit-correct-or-typed contract on one finished ServeResult: a success
/// must match the reference rounding model bit-for-bit (KAMI-3D: stay inside
/// the precision tolerance vs the FP64 reference); a failure must carry a
/// non-empty message, must not claim InternalInvariant (campaigns inject
/// faults only through armed sources, which classify as transient), and may
/// be DeadlineExceeded only when the request actually set a deadline.
/// Returns "" when the contract holds, else the violation detail.
template <Scalar T>
std::string contract_violation(const ServeResult<T>& res, const Matrix<T>& A,
                               const Matrix<T>& B, sim::ExecMode mode,
                               double deadline_cycles) {
  if (res.ok()) {
    // TimingOnly KAMI rungs carry no numerics to check; the reference rung
    // and degenerate shapes always compute.
    const bool computed =
        res.from_reference || res.degenerate || sim::mode_computes(mode);
    if (!computed) return "";
    if (res.from_reference || res.degenerate || res.served != core::Algo::ThreeD) {
      const Matrix<T> ref = baselines::reference_gemm(A, B);
      if (!bits_equal(res.C, ref))
        return "silent corruption: " + res.rung_label +
               " result does not match the reference rounding model bit-for-bit";
    } else {
      const Matrix<double> ref = baselines::reference_gemm_fp64(A, B);
      const double bound = reference_tolerance(num_traits<T>::precision) *
                           static_cast<double>(A.cols());
      const double err = max_abs_diff(res.C, ref);
      if (!(err <= bound))
        return "silent corruption: kami_3d deviates from the FP64 reference "
               "(max |delta| = " + fmt(err) + " > " + fmt(bound) + ")";
    }
    return "";
  }
  if (res.message.empty())
    return std::string("typed error ") + error_code_name(res.code) +
           " carries an empty message";
  if (res.code == ErrorCode::InternalInvariant)
    return "injected fault misclassified as a simulator bug: " + res.message;
  if (res.code == ErrorCode::DeadlineExceeded && deadline_cycles <= 0.0)
    return "deadline error without a deadline: " + res.message;
  return "";
}

}  // namespace chaos_detail

}  // namespace kami::serve
