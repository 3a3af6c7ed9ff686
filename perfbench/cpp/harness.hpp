// Benchmark-side machinery shared by every workload: the seeded generator,
// host clocks, the span recorder, the percentile helper, output digests, the
// naive reference the checker compares against, and the noise probe.
//
// Nothing here calls into the library's layers; element widening/narrowing
// goes through the adapter so that every library call stays in adapter.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "adapter.hpp"

namespace pb {

// ---------------------------------------------------------------------------
// seeded generation (independent of the library's own RNG)

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) from the top 53 bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(uniform() * static_cast<double>(n)); }
  bool bernoulli(double p) { return uniform() < p; }

 private:
  std::uint64_t s_;
};

template <class T>
kami::Matrix<T> random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  kami::Matrix<T> m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = lib::narrow<T>(rng.uniform(-1.0, 1.0));
  return m;
}

// ---------------------------------------------------------------------------
// host time

inline double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

// ---------------------------------------------------------------------------
// span recorder (traced runs only)

struct Span {
  const char* name;  ///< "<layer>.<what>", e.g. "sim.timing"
  double start_ns = 0, end_ns = 0;
  int parent = -1;
  long op = -1;       ///< op id the span belongs to (replays carry the op's id)
  double flops = 0;   ///< useful 2mnk flop the call computed
  double bytes = 0;   ///< bytes the call computed over (operands + result)
  double cycles = 0;  ///< simulated cycles the call produced (sim spans)
};

/// Spans are kept in memory and written when the run ends. When disabled,
/// open() returns -1 and costs one branch, so the untraced run is unchanged.
class Tracer {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  int open(const char* name, long op) {
    if (!enabled) return -1;
    spans.push_back(Span{name, now_ns(), 0.0, stack_.empty() ? -1 : stack_.back(), op});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

 private:
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span; annotate flops/bytes/cycles through the accessors.
class Scope {
 public:
  Scope(const char* name, long op) : id_(tracer().open(name, op)) {}
  ~Scope() { tracer().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void work(double flops, double bytes, double cycles = 0.0) {
    if (id_ < 0) return;
    Span& s = tracer().spans[static_cast<std::size_t>(id_)];
    s.flops += flops;
    s.bytes += bytes;
    s.cycles += cycles;
  }

 private:
  int id_;
};

/// Per-span-name aggregate: calls, inclusive time, self time (duration minus
/// the part covered by child spans), and the work annotated on the spans.
struct LayerTotals {
  std::size_t calls = 0;
  double incl_ns = 0, self_ns = 0, flops = 0, bytes = 0, cycles = 0;
  double mean_ms() const { return calls ? incl_ns / 1e6 / static_cast<double>(calls) : 0.0; }
};

inline std::map<std::string, LayerTotals> aggregate(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    const double d = spans[i].end_ns - spans[i].start_ns;
    ++t.calls;
    t.incl_ns += d;
    t.self_ns += d - child_ns[i];
    t.flops += spans[i].flops;
    t.bytes += spans[i].bytes;
    t.cycles += spans[i].cycles;
  }
  return out;
}

/// after[name] - before[name] for one counter of two metric snapshots.
inline double counter_delta(const std::map<std::string, double>& before,
                            const std::map<std::string, double>& after, const std::string& name) {
  const auto a = after.find(name), b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

// ---------------------------------------------------------------------------
// percentiles

struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  bool resolved = false;  ///< at least 10 samples lie beyond the quantile
};

/// Nearest-rank q-quantile (q in (0, 1)). A tail quantile is only resolved
/// when at least ten samples lie strictly beyond its rank, so p90 needs 100
/// samples and p99 needs 1000; the sample count is always reported.
inline Quantile quantile(std::vector<double> v, double q) {
  Quantile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  out.value = v[idx];
  out.resolved = v.size() - 1 - idx >= 10;
  return out;
}

// ---------------------------------------------------------------------------
// digests of deterministic outputs

/// FNV-1a over bytes; fed in a fixed order it fingerprints a run's
/// deterministic outputs (cycles, outcome codes, result bits).
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ c[i]) * 0x100000001b3ULL;
  }
  void num(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) { bytes(s.data(), s.size() + 1); }
  template <class T>
  void matrix(const kami::Matrix<T>& m) {
    num(static_cast<double>(m.rows()));
    num(static_cast<double>(m.cols()));
    bytes(m.data(), m.size() * sizeof(T));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// output checks

/// The benchmark's own reference: every C element is one ascending-k chain
/// in accumulator precision, narrowed once. The i-k-j loop keeps each
/// (i, j) chain in ascending k, so it is the same arithmetic as the naive
/// i-j-k loop; this file is compiled with -ffp-contract=off so no
/// multiply-add is fused.
template <class T>
kami::Matrix<T> naive_reference(const kami::Matrix<T>& A, const kami::Matrix<T>& B) {
  using Acc = lib::acc_t<T>;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  std::vector<Acc> a(m * k), b(k * n), acc(n);
  for (std::size_t i = 0; i < m * k; ++i) a[i] = lib::widen(A.data()[i]);
  for (std::size_t i = 0; i < k * n; ++i) b[i] = lib::widen(B.data()[i]);
  kami::Matrix<T> C(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), Acc{});
    for (std::size_t kk = 0; kk < k; ++kk) {
      const Acc aik = a[i * k + kk];
      const Acc* brow = &b[kk * n];
      for (std::size_t j = 0; j < n; ++j) acc[j] += aik * brow[j];
    }
    for (std::size_t j = 0; j < n; ++j) C.data()[i * n + j] = lib::narrow<T>(acc[j]);
  }
  return C;
}

template <class T>
bool bit_equal(const kami::Matrix<T>& x, const kami::Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// Bounded-error comparison for re-associated sums (KAMI-3D reduces its
/// depth layers separately). Operands lie in [-1, 1], so sum|a||b| <= k and
/// re-association moves an accumulator by at most 2*k*k*eps_acc; narrowing
/// may then land one storage ulp apart.
template <class T>
bool within_bound(const kami::Matrix<T>& C, const kami::Matrix<T>& ref, std::size_t k) {
  if (C.rows() != ref.rows() || C.cols() != ref.cols()) return false;
  const double kk = static_cast<double>(k);
  const double acc_tol = 2.0 * kk * kk * lib::acc_epsilon<T>();
  for (std::size_t i = 0; i < C.size(); ++i) {
    const double c = static_cast<double>(lib::widen(C.data()[i]));
    const double r = static_cast<double>(lib::widen(ref.data()[i]));
    const double tol = acc_tol + 2.0 * lib::storage_epsilon<T>() * std::max(std::abs(c), std::abs(r));
    if (!(std::abs(c - r) <= tol)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// noise record

/// Host-speed probe: host ns for a fixed piece of the benchmark's own
/// arithmetic (a naive 16x16 float GEMM, 8 scalar passes, 14-18 us on a
/// 4-vCPU shared Xeon VM), taken right before every timed region. The
/// vCPUs of a shared host switch between fast and slow states within
/// milliseconds and drift over minutes; one probe per region samples both
/// as densely as the ops run.
double probe_host_ns();

/// Aggregate CPU ticks from /proc/stat (idle and steal columns).
struct CpuTicks {
  double idle = 0, steal = 0, total = 0;
};
CpuTicks read_cpu_ticks();

}  // namespace pb
