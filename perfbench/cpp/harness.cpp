#include "harness.hpp"

#include <fstream>
#include <sstream>

namespace pb {

Tracer& tracer() {
  static Tracer t;
  return t;
}

namespace {

constexpr std::size_t kProbeN = 16;

/// The probe's operands live in static storage at a fixed alignment, and
/// the probe allocates nothing: where the program's allocations left the
/// heap must not change how fast the probe runs.
struct ProbeData {
  alignas(64) float a[kProbeN * kProbeN], b[kProbeN * kProbeN], c[kProbeN * kProbeN];
  ProbeData() {
    Rng rng(0x9e3779b9);
    for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
};

/// C = A * B, i-k-j order, the naive reference's loop. Aligned and kept
/// out of line, so its code sits the same way whatever the program's code
/// ahead of it in the binary. Scalar: a vectorized probe read 2.3x slower
/// after TimingOnly-only work (serve_small) than after SIMD numerics
/// (fig8_full) on the same host, as if wide vector units left idle by the
/// program had powered down.
[[gnu::noinline, gnu::aligned(64), gnu::optimize("no-tree-vectorize")]] void probe_pass(
    ProbeData& d) {
  for (std::size_t i = 0; i < kProbeN; ++i) {
    float* c = d.c + i * kProbeN;
    for (std::size_t j = 0; j < kProbeN; ++j) c[j] = 0.0f;
    for (std::size_t k = 0; k < kProbeN; ++k) {
      const float aik = d.a[i * kProbeN + k];
      const float* b = d.b + k * kProbeN;
      for (std::size_t j = 0; j < kProbeN; ++j) c[j] += aik * b[j];
    }
  }
  // Every pass must run: tell the compiler memory may have changed.
  asm volatile("" ::: "memory");
}

}  // namespace

double probe_host_ns() {
  static ProbeData data;
  // One untimed pass first: the op before may have evicted the operands.
  probe_pass(data);
  const double t0 = now_ns();
  for (int rep = 0; rep < 8; ++rep) probe_pass(data);
  return now_ns() - t0;
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string line, cpu;
  if (!std::getline(in, line)) return t;
  std::istringstream fields(line);
  fields >> cpu;  // "cpu": the aggregate over all CPUs
  double v[8] = {};
  for (double& x : v) fields >> x;
  for (double x : v) t.total += x;
  t.idle = v[3] + v[4];  // idle + iowait
  t.steal = v[7];
  return t;
}

}  // namespace pb
