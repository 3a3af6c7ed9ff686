// ExecutionEngine: a work-stealing thread-pool for the repo's fan-out
// workloads (batched GEMM entries, autotune candidate sweeps, chaos campaign
// points, differential fuzz points, async serving requests).
//
// Design constraints, in order:
//   * deterministic — results land in pre-sized slots indexed by input
//     order, per-task metric shards are merged back in task-index order, and
//     the lowest-index exception is the one that propagates, so output —
//     metrics and traces included — is bit-identical at every worker count
//     and in every exec mode (DESIGN §10);
//   * one body — every region, serial or not, snapshots the FaultHooks and
//     gives each task its own metric and trace shard; one worker only
//     changes scheduling (run_region runs the tasks inline, no pool);
//   * safe to nest — a task may call parallel_for again; the nested caller
//     always drains its own stripes, so progress never depends on a free
//     pool thread.
//
// Scheduling: each parallel region stripes its indices round-robin across
// min(workers, n) mutexed deques. The calling thread participates as
// stripe 0; persistent pool threads attach as the remaining stripes. A
// participant pops its own stripe from the back and, when empty, steals from
// other stripes' front — classic work-stealing, so a stripe that drew the
// slow tasks sheds them to idle participants.
//
// Shared state audit (what makes fn safe to run concurrently): ProfileCache
// is mutex-guarded with copy-out lookups; MetricRegistry counters/gauges are
// relaxed atomics and each task additionally publishes into its own shard
// via obs::MetricRegistry::current(); verify::fault_hooks() is thread-local
// and the engine re-installs the submitting thread's hooks in every task.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "verify/invariants.hpp"

namespace kami::exec {

/// Hard cap on workers. Oversubscription past the core count is allowed
/// (and benchmarked), but runaway KAMI_THREADS values are clamped here.
inline constexpr int kMaxWorkers = 64;

/// Worker count from the KAMI_THREADS environment variable, clamped to
/// [1, kMaxWorkers]; 1 (serial) when unset or unparsable. Read once and
/// cached for the process lifetime.
int default_workers();

/// Map a caller-requested worker count to an effective one: <= 0 defers to
/// default_workers() (the env knob), anything else clamps to kMaxWorkers.
int resolve_workers(int requested);

class ExecutionEngine {
 public:
  /// `workers` <= 0 defers to KAMI_THREADS (default 1 == serial).
  explicit ExecutionEngine(int workers = 0) : workers_(resolve_workers(workers)) {}

  int workers() const noexcept { return workers_; }

  /// Run fn(0) .. fn(n-1), distributed across workers. Blocks until every
  /// index has run. Each task sees the submitting thread's FaultHooks and
  /// publishes metrics into a per-task shard; shards are merged back into
  /// the submitter's MetricRegistry::current() in index order. If any
  /// indices throw, the shards of tasks past the lowest failing index are
  /// discarded and that lowest-index exception is rethrown — exactly the
  /// state a serial loop would have left behind.
  ///
  /// Span propagation: when the submitting thread has an active tracer
  /// (obs::current_tracer()), every task gets its own shard TraceBuilder
  /// rooted at a "task[i]" span that starts at the parent's clock; shards
  /// are grafted back under the parent's innermost open span in task-index
  /// order and the parent clock advances once, by the maximum shard clock —
  /// tasks are concurrent, so the region costs its critical path. A traced
  /// region is therefore bit-identical at every worker count. On an
  /// exception, shards up to and including the lowest failing index are
  /// grafted (mirroring the metric-shard contract) before the rethrow.
  template <class Fn>
  void parallel_for(std::size_t n, Fn&& fn) const {
    if (n == 0) return;
    obs::TraceBuilder* tracer = obs::current_tracer();
    obs::MetricRegistry& parent = obs::MetricRegistry::current();
    const verify::FaultHooks hooks = verify::fault_hooks();
    // deque, not vector: MetricRegistry holds a mutex and is immovable.
    std::deque<obs::MetricRegistry> shards(n);
    std::deque<obs::TraceBuilder> trace_shards;
    const double start = tracer != nullptr ? tracer->clock() : 0.0;
    if (tracer != nullptr)
      for (std::size_t i = 0; i < n; ++i)
        trace_shards.emplace_back("shard", "task[" + std::to_string(i) + "]", start);
    std::vector<std::exception_ptr> errors(n);
    const auto task = [&](std::size_t i) {
      verify::ScopedFault fault(hooks);
      obs::ScopedMetricShard shard(shards[i]);
      obs::ScopedTracer scoped(tracer != nullptr ? &trace_shards[i] : nullptr);
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };
    run_region(n, task);
    double max_clock = start;
    for (std::size_t i = 0; i < n; ++i) {
      parent.merge_from(shards[i]);
      if (tracer != nullptr) {
        max_clock = std::max(max_clock, trace_shards[i].clock());
        tracer->graft(trace_shards[i].finish());
      }
      if (errors[i]) {
        if (tracer != nullptr) tracer->advance(max_clock - start);
        std::rethrow_exception(errors[i]);
      }
    }
    if (tracer != nullptr) tracer->advance(max_clock - start);
  }

  /// parallel_for that collects fn(i) into a pre-sized vector slot i.
  /// T must be default-constructible and move-assignable.
  template <class T, class Fn>
  std::vector<T> parallel_map(std::size_t n, Fn&& fn) const {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Engine configured purely by KAMI_THREADS.
  static const ExecutionEngine& global();

 private:
  /// Scheduling core (engine.cpp): stripes indices, enlists pool threads,
  /// participates from the calling thread, blocks until all tasks ran. With
  /// one stripe (one worker, or n == 1) it runs the tasks inline in index
  /// order. `task` must not throw (parallel_for wraps exceptions per index).
  void run_region(std::size_t n, const std::function<void(std::size_t)>& task) const;

  int workers_;
};

}  // namespace kami::exec
