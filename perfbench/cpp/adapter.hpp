// The benchmark's only contact with the library. Every call into a layer
// goes through a function here, and each uses a public entry point:
// kami::gemm, the baselines:: kernels, core::{plan_gemm, estimate_plan,
// timing_profile, autotune_gemm, kami_batched_gemm}, the types
// decode/encode spans, and serve::FleetServer. Counters are read only
// through the metric snapshot. Library types (Matrix, DeviceSpec,
// FleetResult) are used as plain vocabulary elsewhere.
#pragma once

#include <cstddef>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cublasdx_like.hpp"
#include "baselines/cutlass_like.hpp"
#include "baselines/reference.hpp"
#include "baselines/syclbench_like.hpp"
#include "core/analytic_planner.hpp"
#include "core/autotune.hpp"
#include "core/batched.hpp"
#include "core/kami.hpp"
#include "core/planner.hpp"
#include "core/profile_cache.hpp"
#include "core/vector_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/fleet.hpp"
#include "sim/device.hpp"
#include "types/decode_tables.hpp"
#include "types/matrix.hpp"
#include "util/table.hpp"

namespace pb::lib {

using kami::Matrix;
using Algo = kami::core::Algo;
using Device = kami::sim::DeviceSpec;
using Mode = kami::sim::ExecMode;

// -- element formats -------------------------------------------------------

template <class T>
using acc_t = typename kami::num_traits<T>::acc_t;

template <class T>
acc_t<T> widen(T v) {
  return kami::num_traits<T>::to_acc(v);
}
template <class T>
T narrow(double v) {
  return kami::num_traits<T>::from_acc(static_cast<acc_t<T>>(v));
}
template <class T>
double acc_epsilon() {
  return static_cast<double>(std::numeric_limits<acc_t<T>>::epsilon());
}
/// Unit roundoff of the stored format (2^-mantissa bits).
template <class T>
double storage_epsilon() {
  switch (kami::num_traits<T>::precision) {
    case kami::Precision::FP64: return 0x1.0p-52;
    case kami::Precision::FP32: return 0x1.0p-23;
    case kami::Precision::TF32: return 0x1.0p-10;
    case kami::Precision::FP16: return 0x1.0p-10;
    case kami::Precision::BF16: return 0x1.0p-7;
    case kami::Precision::FP8E4M3: return 0x1.0p-3;
  }
  return 0.0;
}
template <class T>
const char* precision_name() {
  return kami::precision_name(kami::num_traits<T>::precision);
}
inline const char* precision_name(kami::Precision p) { return kami::precision_name(p); }
inline bool supports(const Device& dev, kami::Precision p) { return dev.supports(p); }
inline const char* simd_name() { return kami::core::numeric_simd_name(); }

inline const Device& device(const std::string& name) {
  return kami::sim::device_by_name(name);
}

// -- block kernels -----------------------------------------------------------

/// One block-kernel call's observable outputs.
template <class T>
struct KernelRun {
  Matrix<T> C;
  double cycles = 0.0;  ///< simulated block latency (0 in NumericsOnly)
  double flops = 0.0;   ///< useful 2mnk
  bool feasible = true;
};

template <class T>
KernelRun<T> kami_gemm(Algo algo, const Device& dev, const Matrix<T>& A, const Matrix<T>& B,
                       Mode mode, bool charge_global_io = false) {
  kami::core::GemmOptions opt;
  opt.mode = mode;
  opt.charge_global_io = charge_global_io;
  try {
    auto r = kami::gemm(algo, dev, A, B, opt);
    return {std::move(r.C), r.profile.latency, r.profile.useful_flops, true};
  } catch (const kami::PreconditionError&) {
    return {{}, 0.0, 0.0, false};
  }
}

enum class Baseline { CublasDx, Cutlass, SyclBench };

/// The Fig 8 comparators, configured as bench/fig08_square_gemm.cpp runs them.
template <class T>
KernelRun<T> block_baseline(Baseline which, const Device& dev, const Matrix<T>& A,
                            const Matrix<T>& B) {
  try {
    kami::baselines::BaselineResult<T> r;
    switch (which) {
      case Baseline::CublasDx: r = kami::baselines::cublasdx_gemm(dev, A, B); break;
      case Baseline::Cutlass:
        r = kami::baselines::cutlass_gemm(dev, A, B, /*charge_global_io=*/true);
        break;
      case Baseline::SyclBench: r = kami::baselines::syclbench_gemm(dev, A, B); break;
    }
    if (!r.feasible) return {{}, 0.0, 0.0, false};
    return {std::move(r.C), r.profile.latency, r.profile.useful_flops, true};
  } catch (const kami::PreconditionError&) {
    return {{}, 0.0, 0.0, false};
  }
}

/// The serving ladder's last rung, called directly.
template <class T>
Matrix<T> reference_gemm(const Matrix<T>& A, const Matrix<T>& B) {
  return kami::baselines::reference_gemm(A, B);
}

// -- planning ----------------------------------------------------------------

template <class T>
void plan(Algo algo, const Device& dev, std::size_t m, std::size_t n, std::size_t k,
          bool charge_global_io = false) {
  kami::core::GemmOptions opt;
  opt.charge_global_io = charge_global_io;
  (void)kami::core::plan_gemm(algo, dev, kami::num_traits<T>::precision, m, n, k, opt);
}

/// The router's per-device estimate against the process-wide planning state
/// (read-only: estimate_plan never simulates or learns).
inline double estimate(Algo algo, const Device& dev, kami::Precision prec, std::size_t m,
                       std::size_t n, std::size_t k) {
  try {
    return kami::core::estimate_plan(kami::core::ProfileCache::global(),
                                     kami::model::Predictor::global(), algo, dev, prec, m,
                                     n, k, {})
        .cycles;
  } catch (const std::exception&) {
    return 0.0;  // infeasible as requested, as the router treats it
  }
}

/// A private profile cache, so replays never change the state the measured
/// calls read.
using ProfileCache = kami::core::ProfileCache;

template <class T>
bool cache_holds(ProfileCache& cache, Algo algo, const Device& dev, std::size_t m,
                 std::size_t n, std::size_t k) {
  kami::core::GemmOptions opt;
  opt.charge_global_io = true;
  const auto prec = kami::num_traits<T>::precision;
  const auto p = kami::core::plan_gemm(algo, dev, prec, m, n, k, opt);
  return cache.try_get(kami::core::ProfileKey::make(algo, dev, prec, m, n, k, opt, p))
      .has_value();
}

/// TimingOnly profile through `cache`, with global I/O charged as
/// kami_batched_gemm requests it. Returns simulated cycles.
template <class T>
double timing_profile(ProfileCache& cache, Algo algo, const Device& dev, std::size_t m,
                      std::size_t n, std::size_t k) {
  kami::core::GemmOptions opt;
  opt.charge_global_io = true;
  return kami::core::timing_profile<T>(cache, algo, dev, m, n, k, opt).profile.latency;
}

// -- numeric data plane --------------------------------------------------------

template <class T>
void decode(const T* src, acc_t<T>* dst, std::size_t n) {
  kami::types::decode_span(src, dst, n);
}
template <class T>
void encode(const acc_t<T>* src, T* dst, std::size_t n) {
  kami::types::encode_span(src, dst, n);
}

// -- tuning and batching -----------------------------------------------------

struct Tuned {
  Algo algo = Algo::OneD;
  int warps = 0;
  double smem_ratio = 0.0;
  double tflops = 0.0;
  int evaluated = 0;
  int pruned = 0;
};

template <class T>
Tuned autotune(const Device& dev, std::size_t m, std::size_t n, std::size_t k, int threads) {
  const auto r = kami::core::autotune_gemm<T>(dev, m, n, k, 16384,
                                              kami::core::default_candidates(), threads);
  return {r.config.algo, r.warps, r.smem_ratio, r.tflops, r.evaluated, r.pruned};
}

template <class T>
struct Batch {
  std::vector<Matrix<T>> C;
  double seconds = 0.0;  ///< simulated batch completion time
  double tflops = 0.0;
};

template <class T>
Batch<T> batched(const Device& dev, std::span<const Matrix<T>> As,
                 std::span<const Matrix<T>> Bs, Mode mode, int threads) {
  kami::core::GemmOptions opt;
  opt.mode = mode;
  opt.threads = threads;
  auto r = kami::core::kami_batched_gemm<T>(dev, As, Bs, Algo::OneD, opt);
  return {std::move(r.C), r.seconds, r.tflops};
}

// -- metric snapshot -----------------------------------------------------------

inline std::map<std::string, double> counters() {
  return kami::obs::MetricRegistry::global().counter_values();
}
inline std::map<std::string, double> gauges() {
  return kami::obs::MetricRegistry::global().gauge_values();
}

// -- serving -------------------------------------------------------------------

template <class T>
using FleetFuture = std::future<kami::serve::FleetResult<T>>;

/// What the benchmark records of one served request.
struct Outcome {
  bool ok = false;
  bool rejected = false;  ///< admission refusal (no shard accepted it)
  std::string code;
  std::string device;
  int device_index = -1;
  std::string rung;
  Algo served = Algo::OneD;
  int failovers = 0;
  bool hedged = false;
  double end_to_end_cycles = 0.0;
  double cycles = 0.0;  ///< served rung's block latency
};

/// serve_load's fleet: the Table-3 devices, bounded queues, manual drain
/// (one drain per slot), hedged deadline requests and SLO accounting.
class Fleet {
 public:
  explicit Fleet(std::size_t queue_depth) {
    kami::serve::FleetConfig cfg = kami::serve::table3_fleet();
    for (auto& d : cfg.devices) d.queue_depth = queue_depth;
    cfg.async_workers_per_device = 0;
    cfg.hedge_deadline_requests = true;
    cfg.slo = std::make_shared<kami::serve::SloTracker>();
    cfg.request_id_prefix = "bench";
    fleet_ = std::make_unique<kami::serve::FleetServer>(std::move(cfg));
  }

  template <class T>
  FleetFuture<T> submit(Algo algo, Matrix<T> A, Matrix<T> B, double deadline_cycles) {
    return fleet_->submit_async<T>(algo, std::move(A), std::move(B), options(deadline_cycles));
  }
  void drain() { fleet_->drain(); }

  void route(Algo algo, kami::Precision prec, std::size_t m, std::size_t n, std::size_t k,
             double deadline_cycles) const {
    (void)fleet_->route_order(algo, prec, m, n, k, options(deadline_cycles));
  }
  const Device& device(int i) const { return fleet_->device(static_cast<std::size_t>(i)); }
  std::size_t devices() const { return fleet_->device_count(); }
  std::string slo_json() const { return fleet_->config().slo->to_json().dump(); }

  template <class T>
  static Outcome outcome(const kami::serve::FleetResult<T>& r) {
    Outcome o;
    o.ok = r.ok();
    o.rejected = !r.ok() && r.device_index < 0 &&
                 r.result.code == kami::serve::ErrorCode::ResourceExhausted;
    o.code = kami::serve::error_code_name(r.result.code);
    o.device = r.device;
    o.device_index = r.device_index;
    o.rung = r.result.rung_label;
    o.served = r.result.served;
    o.failovers = r.failovers;
    o.hedged = r.hedged;
    o.end_to_end_cycles = r.end_to_end_cycles;
    o.cycles = r.result.profile.latency;
    return o;
  }

 private:
  static kami::core::GemmOptions options(double deadline_cycles) {
    kami::core::GemmOptions opt;
    opt.mode = Mode::TimingOnly;
    opt.deadline_cycles = deadline_cycles;
    return opt;
  }
  std::unique_ptr<kami::serve::FleetServer> fleet_;
};

// -- reporting -------------------------------------------------------------------

/// A kami.obs.run report: tables print to stdout as they are added and are
/// captured verbatim, so `kami_prof report` reprints them and `kami_prof
/// diff` compares two runs.
class Report {
 public:
  explicit Report(std::string name) : report_(std::move(name)) {}
  void meta(std::string key, std::string value) {
    report_.set_meta(std::move(key), std::move(value));
  }
  void table(const std::string& title, std::vector<std::string> headers,
             const std::vector<std::vector<std::string>>& rows, std::ostream& os) {
    kami::TablePrinter t(std::move(headers));
    for (const auto& r : rows) t.add_row(r);
    t.print(os, title);
    report_.add_table(title, t);
  }
  void write(std::ostream& os) {
    report_.set_metrics(kami::obs::MetricRegistry::global());
    report_.write_json(os);
  }

 private:
  kami::obs::RunReport report_;
};

}  // namespace pb::lib
