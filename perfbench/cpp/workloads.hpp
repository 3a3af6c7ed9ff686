// The four workloads and what each hands back to main.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"

namespace pb {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  double t0_ns = 0.0;  ///< monotonic time the process was spawned (0 = main entry)
  /// Simulated cycles recorded for keys that do not depend on the seed
  /// (a Fig 8 cell, a served request's device/precision/rung/shape, the
  /// canonical batch). A differing value fails the op that produced it.
  std::map<std::string, double> expected_cycles;
};

/// Set-up accounting: process start to the first timed op, minus the time
/// the benchmark spends generating inputs and computing its references.
class SetupClock {
 public:
  explicit SetupClock(double t0_ns) : t0_(t0_ns) {}
  void exclude(double ns) {
    if (first_op_ns_ == 0.0) excluded_ += ns;
  }
  void first_op() {
    if (first_op_ns_ == 0.0) first_op_ns_ = now_ns();
  }
  double seconds() const { return (first_op_ns_ - t0_ - excluded_) / 1e9; }

 private:
  double t0_;
  double excluded_ = 0.0;
  double first_op_ns_ = 0.0;
};

/// Times a benchmark-side stretch (generation, checks) for exclusion.
class Excluded {
 public:
  explicit Excluded(SetupClock& clock) : clock_(clock), start_(now_ns()) {}
  ~Excluded() { clock_.exclude(now_ns() - start_); }
  Excluded(const Excluded&) = delete;
  Excluded& operator=(const Excluded&) = delete;

 private:
  SetupClock& clock_;
  double start_;
};

struct Result {
  // end to end (untimed checks and replays excluded)
  /// One timed region (an op, or a serve slot): how long it took, the
  /// useful 2mnk flop and op count that completed ok in it, and the host
  /// probe (harness.hpp: probe_host_ns) taken right before it. Every ok op
  /// in a region has the region's duration as its latency.
  struct Timed {
    double ns, flops, ok_ops, probe_ns;
  };
  /// Reserved up front, so the record grows by sizeof(Timed) per region
  /// without reallocating and main.cpp can leave it out of peak_rss_mb.
  static constexpr std::size_t kTimedCapacity = std::size_t{1} << 20;
  std::vector<Timed> timed;
  Result() { timed.reserve(kTimedCapacity); }
  std::size_t attempted = 0;
  std::size_t refused = 0;       ///< typed errors and admission refusals
  std::size_t check_failed = 0;  ///< ops whose output failed a check
  std::vector<std::string> failures;  ///< first few check failure messages
  std::set<std::string> notes;        ///< observations that do not gate an op
  double setup_s = 0.0;

  // deterministic outputs
  std::string digest;  ///< fingerprint of the run's first `digest_ops` ops
  std::size_t digest_ops = 0;
  std::map<std::string, double> cycles;  ///< seed-independent cycle keys seen
  std::size_t cycles_checked = 0;        ///< ops whose cycles matched a recorded key

  // traced run only: per-layer metrics computed by the workload
  std::map<std::string, double> layer;

  void fail(const std::string& why) {
    ++check_failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  /// Record a seed-independent cycle count and compare it with the value
  /// recorded for the key and with earlier ops of this run; false on a
  /// mismatch.
  bool check_cycles(const RunConfig& cfg, const std::string& key, double value) {
    const auto [seen, fresh] = cycles.emplace(key, value);
    if (!fresh && seen->second != value) return false;
    const auto it = cfg.expected_cycles.find(key);
    if (it == cfg.expected_cycles.end()) return true;
    ++cycles_checked;
    return it->second == value;
  }
};

Result run_fig8(const RunConfig& cfg);
Result run_batch(const RunConfig& cfg);
Result run_serve(const RunConfig& cfg, bool with_tail);

/// The serve workloads' request trace for `slots` slots, as bytes (specs
/// and operands in generation order).
std::string serve_trace(std::uint64_t seed, std::size_t slots, bool with_tail);

/// Self-tests of the benchmark's own machinery; returns the failure count.
int selftest();

}  // namespace pb
