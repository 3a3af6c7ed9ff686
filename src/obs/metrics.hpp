// MetricRegistry: named counters, gauges, and histograms that instrumented
// code (the simulator's Warp/ThreadBlock/SharedMemory, the planner, the
// autotuner) publishes into.
//
// Design constraints, in order:
//   * hot-path cheap — instrumented code resolves a metric by name once and
//     then holds a stable reference; an update is one relaxed atomic add on
//     a double;
//   * deterministic export — iteration and JSON output are name-sorted;
//   * resettable without invalidating handles — `reset_values()` zeroes
//     every metric in place, so a Warp constructed before the reset keeps
//     publishing into the same (now zeroed) counters.
//
// Threading model. A single ThreadBlock simulation is single-threaded by
// construction (warps are round-robin scheduled on one OS thread), but the
// execution engine in src/exec runs many independent simulations
// concurrently. Counter and Gauge are therefore lock-free atomics with
// relaxed ordering (values are statistics, not synchronization), Histogram
// serializes observations behind a small mutex, and metric *creation* in a
// registry is mutex-guarded. For bit-deterministic aggregation across
// worker counts, parallel work should publish into per-task shard
// registries (ScopedMetricShard + MetricRegistry::current()) that the
// engine merges back in task-index order — see DESIGN §10.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "util/require.hpp"

namespace kami::obs {

/// A monotonically increasing sum (bytes moved, ops issued, cycles waited).
/// Concurrent add() calls are safe; ordering is relaxed because the value
/// is a statistic, never a synchronization point.
class Counter {
 public:
  /// Increase by `v`; negative deltas are rejected (counters only go up).
  void add(double v) {
    KAMI_REQUIRE(v >= 0.0, "counter increments must be non-negative");
    // fetch_add on atomic<double> requires C++20; relaxed is enough since
    // readers only ever see a (possibly slightly stale) running total.
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  void increment() { add(1.0); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A point-in-time level (high-water bytes, resident blocks).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Keep the maximum of the current and the observed value (CAS loop so
  /// concurrent maxima never regress).
  void set_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A sample distribution with exact percentiles (the sample counts here are
/// small — planner candidates, autotune evaluations — so keeping every
/// observation is cheaper than maintaining approximate sketches).
/// Observations are serialized behind a mutex; percentile queries sort a
/// snapshot under the same lock.
class Histogram {
 public:
  void observe(double v) {
    std::lock_guard lock(mu_);
    samples_.push_back(v);
    sorted_ = false;
  }

  std::size_t count() const noexcept {
    std::lock_guard lock(mu_);
    return samples_.size();
  }
  double sum() const noexcept;

  /// Empty-distribution contract: mean/min/max/percentile on a histogram
  /// with no samples are well-defined NaN-free zeros (count() == 0 tells a
  /// consumer the distribution is empty). A distribution can legitimately be
  /// empty at export time — a reset registry, or a shape class that was
  /// admitted but never completed a request.
  double mean() const;
  double min() const;
  double max() const;

  /// Exact percentile by linear interpolation between order statistics;
  /// p in [0, 100] (enforced), 0.0 when there are no samples.
  double percentile(double p) const;

  /// All samples in observation order.
  std::vector<double> samples() const {
    std::lock_guard lock(mu_);
    return samples_;
  }

  void reset() noexcept {
    std::lock_guard lock(mu_);
    samples_.clear();
    sorted_ = false;
  }

 private:
  friend class MetricRegistry;  // merge_from appends samples under both locks
  void ensure_sorted_locked() const;

  mutable std::mutex mu_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

class MetricRegistry {
 public:
  /// Find-or-create. The returned reference stays valid for the registry's
  /// lifetime (std::map nodes are stable) and across reset_values().
  /// Creation is mutex-guarded; subsequent updates through the reference
  /// need no lock.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(std::string_view name) const noexcept;
  const Gauge* find_gauge(std::string_view name) const noexcept;
  const Histogram* find_histogram(std::string_view name) const noexcept;

  /// Name-sorted snapshots for reports.
  std::map<std::string, double> counter_values() const;
  std::map<std::string, double> gauge_values() const;

  /// Zero every metric in place; existing references keep working.
  void reset_values();

  /// Fold another registry into this one: counters add, gauges take the
  /// max (both are "how much happened" / "high-water" semantics), histogram
  /// samples append in their original observation order. Used by the
  /// execution engine to merge per-task shards deterministically.
  void merge_from(const MetricRegistry& other);

  std::size_t size() const noexcept {
    std::lock_guard lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, p50, p90, p99}}} — name-sorted, deterministic.
  Json to_json() const;

  /// The process-wide registry the simulator publishes into by default.
  static MetricRegistry& global();

  /// The registry instrumented code should publish into on *this* thread:
  /// the installed shard if a ScopedMetricShard is active, else global().
  static MetricRegistry& current();

 private:
  friend class ScopedMetricShard;
  static MetricRegistry*& current_slot();

  // std::map (not unordered) for deterministic iteration; transparent
  // comparator so string_view lookups don't allocate. Guarded by mu_ for
  // node creation/iteration; the nodes themselves are internally
  // synchronized.
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// RAII redirect of this thread's MetricRegistry::current() into a shard.
/// The execution engine installs one per task so concurrent simulations
/// never contend on (or nondeterministically interleave into) the parent's
/// registry; shards are merged back in task-index order at join.
class ScopedMetricShard {
 public:
  explicit ScopedMetricShard(MetricRegistry& shard)
      : prev_(MetricRegistry::current_slot()) {
    MetricRegistry::current_slot() = &shard;
  }
  ~ScopedMetricShard() { MetricRegistry::current_slot() = prev_; }
  ScopedMetricShard(const ScopedMetricShard&) = delete;
  ScopedMetricShard& operator=(const ScopedMetricShard&) = delete;

 private:
  MetricRegistry* prev_;
};

/// RAII reset of the global registry's values — tests and bench binaries
/// wrap a measured run so previously accumulated totals don't leak in.
class ScopedMetricsReset {
 public:
  ScopedMetricsReset() { MetricRegistry::global().reset_values(); }
  ~ScopedMetricsReset() = default;
  ScopedMetricsReset(const ScopedMetricsReset&) = delete;
  ScopedMetricsReset& operator=(const ScopedMetricsReset&) = delete;
};

}  // namespace kami::obs
