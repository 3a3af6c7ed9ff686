// Self-tests of the benchmark's own machinery: trace determinism, the
// percentile rule, and that the checker catches a corrupted C and an altered
// cycle count.
#include <iostream>

#include "workloads.hpp"

namespace pb {

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };

  // -- the same seed gives a byte-identical request trace; another seed does not.
  const std::string a = serve_trace(7, 6, true), b = serve_trace(7, 6, true);
  expect(!a.empty() && a == b, "same seed -> byte-identical request trace");
  expect(a != serve_trace(8, 6, true), "different seed -> different request trace");

  // -- percentiles: ten samples must lie beyond a resolved quantile.
  std::vector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(100 - i);
  const Quantile p90 = quantile(v, 0.9);
  expect(p90.samples == 100 && p90.value == 90.0 && p90.resolved,
         "p90 of 100 samples is resolved (10 beyond) and reports its count");
  v.pop_back();
  expect(!quantile(v, 0.9).resolved, "p90 of 99 samples is unresolved (9 beyond)");
  expect(quantile(v, 0.5).value == 51.0 && quantile(v, 0.5).resolved, "p50 of 99 samples is the 50th");
  expect(!quantile({}, 0.5).resolved && quantile({}, 0.5).samples == 0, "empty input");

  // -- the checker: a correct C passes, a corrupted one fails.
  Rng rng(3);
  const auto A = random_matrix<kami::fp16_t>(32, 32, rng);
  const auto B = random_matrix<kami::fp16_t>(32, 32, rng);
  const auto ref = naive_reference(A, B);
  const auto& dev = lib::device("GH200");
  auto one_d = lib::kami_gemm(lib::Algo::OneD, dev, A, B, lib::Mode::Full);
  expect(bit_equal(one_d.C, ref), "KAMI-1D C is bit-exact against the naive reference");
  auto three_d = lib::kami_gemm(lib::Algo::ThreeD, dev, A, B, lib::Mode::Full);
  expect(three_d.feasible && within_bound(three_d.C, ref, 32), "KAMI-3D C is within the bound");
  expect(bit_equal(lib::reference_gemm(A, B), ref), "reference rung is bit-exact");
  one_d.C(3, 5) = lib::narrow<kami::fp16_t>(lib::widen(one_d.C(3, 5)) + 0.25);
  expect(!bit_equal(one_d.C, ref), "corrupted C fails the bit-exact check");
  three_d.C(0, 0) = lib::narrow<kami::fp16_t>(lib::widen(three_d.C(0, 0)) + 1.0);
  expect(!within_bound(three_d.C, ref, 32), "corrupted C fails the bounded check");

  // -- the checker: an altered cycle count fails against the recorded value
  // and against an earlier op of the same run.
  RunConfig cfg;
  cfg.expected_cycles["cell"] = one_d.cycles;
  Result res;
  expect(res.check_cycles(cfg, "cell", one_d.cycles), "recorded cycles match");
  expect(!res.check_cycles(cfg, "cell", one_d.cycles + 1.0), "altered cycles fail");
  expect(res.check_cycles(cfg, "other", 5.0) && !res.check_cycles(cfg, "other", 6.0),
         "cycles that change within a run fail");

  std::cout << (failures == 0 ? "selftest: all passed" : "selftest: FAILED") << "\n";
  return failures;
}

}  // namespace pb
