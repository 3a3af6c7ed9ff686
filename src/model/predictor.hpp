// Calibrated analytic latency predictor (the fast-path planner's brain).
//
// The paper's expanded closed forms ((4), (8), (12) — cost_model.hpp) predict
// block latency from (device, algo, precision, shape, warps, bank-conflict
// factors) at ~zero cost. The cycle simulator reproduces those formulas plus
// second-order effects the closed forms ignore (sync latency, per-transfer
// instruction overhead, register-spill traffic, global-IO charging), so the
// simulated latency is consistently a modest, *systematic* multiple of the
// formula value. Predictor exploits that: it fits one multiplicative residual
// correction per (device, algo, precision, warp count, global-IO) bucket
// against simulated profiles (harvested from the ProfileCache or fed
// directly), and carries a
// dispersion-based confidence band that decides when the corrected formula is
// trustworthy and when a caller must fall back to a TimingOnly simulation.
//
// The fit is deliberately order-independent: a bucket keeps the count, the
// sum and the min/max of log(simulated / analytic), so the scale (geometric
// mean ratio) and the band (worst observed deviation from that scale, padded)
// are identical no matter what order observations arrive in. That keeps every
// consumer deterministic — the autotuner feeds outcomes in candidate order,
// but even out-of-order feeding (a warm serving fleet) converges to the same
// state.
//
// Thread safety: all methods lock an internal mutex; predict() is copy-out.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/cost_model.hpp"
#include "model/registers.hpp"
#include "sim/device.hpp"
#include "types/float_formats.hpp"

namespace kami::model {

/// Timing knobs that reach the analytic formulas (the subset of the planner's
/// options the closed forms can see). Defaults match GemmOptions defaults.
struct PredictOptions {
  bool charge_global_io = false;  ///< splits the calibration bucket: the
                                  ///< formula has no global-memory term, so
                                  ///< IO-charged profiles carry a different
                                  ///< systematic residual
  double theta_r = 1.0;
  double theta_w = 1.0;
};

/// One simulated data point the predictor calibrates against.
struct Observation {
  std::string device;
  Algo algo = Algo::OneD;
  Precision precision = Precision::FP16;
  std::size_t m = 0, n = 0, k = 0;
  int p = 1;  ///< planner-resolved warp count (never 0)
  PredictOptions options;
  double simulated_cycles = 0.0;  ///< KernelProfile::latency
};

/// The answer to "how many cycles will this block take?".
struct Prediction {
  double cycles = 0.0;           ///< corrected estimate: analytic * scale
  double analytic_cycles = 0.0;  ///< raw expanded-form T_all (uncorrected)
  double scale = 1.0;            ///< residual correction applied
  double rel_band = 0.0;         ///< calibrated relative-error bound (padded)
  std::size_t samples = 0;       ///< observations in this bucket
  bool calibrated = false;       ///< bucket has >= PredictorConfig::min_samples
  bool confident = false;        ///< calibrated && rel_band <= trust_rel_error
};

struct PredictorConfig {
  /// Observations a bucket needs before its scale/band are meaningful.
  std::size_t min_samples = 3;
  /// A bucket whose padded band is wider than this is not trusted: callers
  /// should fall back to a TimingOnly simulation.
  double trust_rel_error = 0.35;
  /// Safety multiplier over the worst observed deviation from the fitted
  /// scale — the band must hold for shapes *between* the calibration points.
  double band_pad = 2.0;
  /// The band never claims to be tighter than this (guards against a
  /// calibration set whose residuals happen to be identical).
  double band_floor = 0.02;
};

/// Typed failure for formula-vs-simulator disagreement beyond the calibrated
/// tolerance (the verify subsystem's model-divergence check raises this).
class ModelDivergence : public std::runtime_error {
 public:
  explicit ModelDivergence(const std::string& what) : std::runtime_error(what) {}
};

class Predictor {
 public:
  explicit Predictor(PredictorConfig cfg = {}) : cfg_(cfg) {}

  const PredictorConfig& config() const noexcept { return cfg_; }

  /// Raw expanded-form T_all for one block — formula (4), (8) or (12) — with
  /// no residual correction. Throws PreconditionError when p does not fit the
  /// algorithm (non-square p for 2D, non-cube for 3D) or the device lacks the
  /// precision's tensor path.
  static double analytic_cycles(const sim::DeviceSpec& dev, Algo algo, Precision prec,
                                std::size_t m, std::size_t n, std::size_t k, int p,
                                const PredictOptions& opt = {});

  /// Fold one simulated profile into its bucket. Observations with
  /// non-positive simulated latency are rejected (PreconditionError): a
  /// latency-free profile (e.g. NumericsOnly) carries no timing signal.
  void observe(const Observation& obs);

  /// Corrected prediction plus the bucket's confidence state. Never
  /// simulates; never returns NaN. Throws exactly when analytic_cycles does.
  /// Shapes that do not divide the precision's MMA tile are outside the
  /// model's domain (the closed forms assume perfect tiling) and come back
  /// uncalibrated regardless of the bucket's state.
  Prediction predict(const sim::DeviceSpec& dev, Algo algo, Precision prec,
                     std::size_t m, std::size_t n, std::size_t k, int p,
                     const PredictOptions& opt = {}) const;

  /// Throw ModelDivergence when |actual - prediction| exceeds the
  /// calibrated tolerance: rel_band for a calibrated bucket, else
  /// trust_rel_error. `context` prefixes the exception message.
  static void require_within_band(const Prediction& pred, double actual_cycles,
                                  const PredictorConfig& cfg,
                                  const std::string& context);

  /// Calibration state of one bucket, for reports and the bench tables.
  struct BucketStats {
    std::string device;
    Algo algo = Algo::OneD;
    Precision precision = Precision::FP16;
    int p = 1;
    bool charge_global_io = false;
    std::size_t samples = 0;
    double scale = 1.0;
    double rel_band = 0.0;
    bool confident = false;
  };
  /// Key-ordered snapshot of every bucket.
  std::vector<BucketStats> bucket_stats() const;

  std::size_t bucket_count() const;
  std::size_t observation_count() const;
  void reset();

  /// The process-wide predictor autotune_gemm reads and feeds. Servers own
  /// theirs (serve/serve.hpp).
  static Predictor& global();

 private:
  /// Order-independent residual statistics over log(simulated / analytic).
  struct Bucket {
    std::size_t count = 0;
    double log_sum = 0.0;
    double log_min = 0.0;
    double log_max = 0.0;
  };
  struct BucketKey {
    std::string device;
    Algo algo = Algo::OneD;
    Precision precision = Precision::FP16;
    // The warp count splits the bucket: the second-order overheads the
    // formula ignores (sync, per-transfer instruction cost) scale with the
    // warp grid, so p=2 and p=16 carry visibly different residuals.
    int p = 1;
    bool charge_global_io = false;
    friend auto operator<=>(const BucketKey&, const BucketKey&) = default;
  };

  /// scale / band / confidence for one bucket (0-sample buckets allowed).
  void bucket_fit_locked(const Bucket& b, double* scale, double* band,
                         bool* calibrated, bool* confident) const;

  PredictorConfig cfg_;
  mutable std::mutex mu_;
  std::map<BucketKey, Bucket> buckets_;
};

}  // namespace kami::model
