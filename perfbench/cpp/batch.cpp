// batch_tune: seeded batches of fp16 or fp64 matrices, orders 16-64 with
// ragged shapes. A repeated head of shapes hits the ProfileCache; a tail of
// never-seen shapes misses and inserts. An op autotunes each new shape,
// then runs the batch through kami_batched_gemm (Full, global I/O charged).
// Closed loop, one client.
//
// Timed ops run on one engine worker, the library's default width. At two
// workers the wall time on a shared 4-vCPU VM is dominated by vCPU wake-up
// steal (700-1900 steal ticks per 20 s run against <100 at one worker, and a
// 0.43 spread of throughput across runs), so the traced run replays every
// batch at one and at two workers instead and reports exec.speedup.
#include <set>
#include <tuple>

#include "workloads.hpp"

namespace pb {
namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kHeadShapes = 12;  ///< per precision
constexpr std::size_t kVariants = 4;     ///< operand sets per head shape
constexpr std::size_t kNewPerBatch = 2;  ///< tail shapes per batch
constexpr std::size_t kDigestOps = 16;
constexpr int kWorkers = 1;     ///< engine width of the timed ops
constexpr int kReplayWorkers = 2;

using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;  // m, n, k

/// 1D needs m divisible by its warp count, so m steps by 4; n and k are
/// any order in [16, 64].
Shape draw_shape(Rng& rng) {
  return {16 + 4 * rng.index(13), 16 + rng.index(49), 16 + rng.index(49)};
}

std::string shape_key(const Shape& s) {
  return std::to_string(std::get<0>(s)) + "x" + std::to_string(std::get<1>(s)) + "x" +
         std::to_string(std::get<2>(s));
}

template <class T>
struct Operands {
  kami::Matrix<T> A, B, ref;
};

/// One precision's generator state: the head pool and the shapes seen so far.
template <class T>
struct Stream {
  std::vector<Shape> head;
  std::vector<std::vector<Operands<T>>> pool;  ///< [head shape][variant]
  std::set<Shape> seen;

  Operands<T> make(const Shape& s, Rng& rng) {
    Operands<T> o{random_matrix<T>(std::get<0>(s), std::get<2>(s), rng),
                  random_matrix<T>(std::get<2>(s), std::get<1>(s), rng), {}};
    o.ref = naive_reference(o.A, o.B);
    return o;
  }
  /// The head is a Latin hypercube (along each dimension its shapes cover
  /// [16, 64] evenly) drawn from a fixed seed, the same in every run: how a
  /// draw pairs m, n and k moves the head's mean work per entry by ~10%
  /// between draws, and ops_per_s and op latency with it. The run's seed
  /// picks the operands, the order of draws and the tail.
  void init(Rng& rng) {
    Rng shapes(0x4ead0000ULL + sizeof(T));
    std::vector<std::size_t> perm[3];
    for (auto& p : perm) {
      for (std::size_t i = 0; i < kHeadShapes; ++i) p.push_back(i);
      for (std::size_t i = kHeadShapes - 1; i > 0; --i) std::swap(p[i], p[shapes.index(i + 1)]);
    }
    const auto stratum = [&](std::size_t slot, std::size_t levels) {
      return static_cast<std::size_t>((static_cast<double>(slot) + shapes.uniform()) *
                                      static_cast<double>(levels) /
                                      static_cast<double>(kHeadShapes));
    };
    for (std::size_t i = 0; head.size() < kHeadShapes; i = (i + 1) % kHeadShapes) {
      const Shape s{16 + 4 * stratum(perm[0][i], 13), 16 + stratum(perm[1][i], 49),
                    16 + stratum(perm[2][i], 49)};
      if (head.size() == i && seen.insert(s).second) head.push_back(s);
    }
    for (const Shape& s : head) {
      pool.emplace_back();
      for (std::size_t v = 0; v < kVariants; ++v) pool.back().push_back(make(s, rng));
    }
  }
};

/// Everything the traced run accumulates across ops.
struct Traced {
  double cache_hits = 0, cache_misses = 0, evictions = 0;
  double evaluated = 0, pruned = 0, tunes = 0;
};

template <class T>
class Batcher {
 public:
  Batcher(const RunConfig& cfg, Result& res, Rng& rng, Traced& traced)
      : cfg_(cfg), res_(res), rng_(rng), traced_(traced), dev_(lib::device("GH200")) {}

  Stream<T> stream;

  /// One op. Generation and checks run outside the timed region.
  void op(long id, SetupClock& setup, Digest* digest, bool timed) {
    // -- generate the batch: head entries reuse pooled operands, the tail
    // brings never-seen shapes.
    std::vector<kami::Matrix<T>> As, Bs;
    std::vector<const kami::Matrix<T>*> refs;
    std::vector<Operands<T>> fresh;
    std::vector<Shape> fresh_shapes;
    {
      Excluded gen(setup);
      fresh.reserve(kNewPerBatch);
      while (fresh.size() < kNewPerBatch) {
        const Shape s = draw_shape(rng_);
        if (!stream.seen.insert(s).second) continue;
        fresh_shapes.push_back(s);
        fresh.push_back(stream.make(s, rng_));
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        const Operands<T>* o = nullptr;
        if (i % (kBatch / kNewPerBatch) == 0) {
          o = &fresh[i / (kBatch / kNewPerBatch)];
        } else {
          const std::size_t h = rng_.index(stream.head.size());
          o = &stream.pool[h][rng_.index(kVariants)];
        }
        As.push_back(o->A);
        Bs.push_back(o->B);
        refs.push_back(&o->ref);
      }
    }

    // -- the op: tune the new shapes, then run the batch.
    double probe = 0;
    if (timed) {
      setup.first_op();
      probe = probe_host_ns();
    }
    std::map<std::string, double> before;
    if (tracer().enabled) before = lib::counters();
    std::vector<lib::Tuned> tuned;
    lib::Batch<T> out;
    const double t0 = now_ns();
    {
      Scope op_span("bench.op", id);
      for (const Shape& s : fresh_shapes) {
        Scope sp("core.autotune", id);
        tuned.push_back(lib::autotune<T>(dev_, std::get<0>(s), std::get<1>(s), std::get<2>(s),
                                         kWorkers));
      }
      Scope sp("core.batched", id);
      out = lib::batched<T>(dev_, As, Bs, lib::Mode::Full, kWorkers);
    }
    const double t1 = now_ns();
    if (!timed) return;
    if (tracer().enabled) {
      const auto after = lib::counters();
      traced_.cache_hits += counter_delta(before, after, "profile_cache.hits");
      traced_.cache_misses += counter_delta(before, after, "profile_cache.misses");
      traced_.evictions += counter_delta(before, after, "profile_cache.evictions");
      traced_.evaluated += counter_delta(before, after, "autotune.candidates_evaluated");
      traced_.pruned += counter_delta(before, after, "autotune.candidates_pruned");
      traced_.tunes += static_cast<double>(fresh_shapes.size());
    }

    // -- checks: every entry against the reference (1D reduces each element
    // in one ascending-k chain, so bit for bit); on the digest prefix the
    // Full batch must also time exactly as the TimingOnly batch does.
    ++res_.attempted;
    double flops = 0;
    std::string why;
    for (std::size_t i = 0; i < kBatch && why.empty(); ++i) {
      flops += 2.0 * static_cast<double>(As[i].rows() * Bs[i].cols() * As[i].cols());
      if (i >= out.C.size() || !bit_equal(out.C[i], *refs[i]))
        why = "batch entry " + std::to_string(i) + ": C differs from the reference";
    }
    if (why.empty() && digest != nullptr) {
      const auto timing = lib::batched<T>(dev_, As, Bs, lib::Mode::TimingOnly, 1);
      if (timing.seconds != out.seconds || timing.tflops != out.tflops)
        why = "batch: Full completion time differs from TimingOnly";
    }
    if (why.empty()) {
      res_.timed.push_back({t1 - t0, flops, 1.0, probe});
    } else {
      res_.fail(why);
    }
    if (digest != nullptr) {
      for (std::size_t i = 0; i < fresh_shapes.size(); ++i) {
        digest->str(shape_key(fresh_shapes[i]));
        digest->num(static_cast<double>(tuned[i].algo));
        digest->num(tuned[i].warps);
        digest->num(tuned[i].smem_ratio);
        digest->num(tuned[i].tflops);
        digest->num(tuned[i].evaluated);
        digest->num(tuned[i].pruned);
      }
      digest->num(out.seconds);
      digest->num(out.tflops);
      for (const auto& C : out.C) digest->matrix(C);
    }
    if (tracer().enabled) replay(id, As, Bs);
  }

  /// The canonical batch: fixed shapes whose completion time is the same for
  /// every seed, so every run compares it with the recorded value.
  void canonical() {
    const std::vector<Shape> shapes{{16, 16, 16}, {32, 32, 32}, {48, 40, 24}, {64, 64, 64},
                                    {20, 63, 17}};
    std::vector<kami::Matrix<T>> As, Bs;
    for (const Shape& s : shapes) {
      As.emplace_back(std::get<0>(s), std::get<2>(s));
      Bs.emplace_back(std::get<2>(s), std::get<1>(s));
    }
    const auto out = lib::batched<T>(dev_, As, Bs, lib::Mode::TimingOnly, 1);
    const std::string key = std::string("canonical_batch/") + lib::precision_name<T>();
    // The simulated completion time; compared exactly.
    if (!res_.check_cycles(cfg_, key, out.seconds))
      res_.fail(key + ": simulated completion time differs from the recorded value");
  }

 private:
  void replay(long id, const std::vector<kami::Matrix<T>>& As,
              const std::vector<kami::Matrix<T>>& Bs) {
    // Distinct shapes in first-appearance order, as kami_batched_gemm
    // looks them up, through a private cache that mirrors its lookups.
    std::vector<std::size_t> first;  // entry index of each distinct shape
    std::set<Shape> seen;
    for (std::size_t i = 0; i < As.size(); ++i)
      if (seen.insert({As[i].rows(), Bs[i].cols(), As[i].cols()}).second) first.push_back(i);
    for (const std::size_t i : first) {
      const std::size_t m = As[i].rows(), n = Bs[i].cols(), k = As[i].cols();
      const double flops = 2.0 * static_cast<double>(m * n * k);
      const double bytes = static_cast<double>((m * k + k * n + m * n) * sizeof(T));
      const bool hit = lib::cache_holds<T>(mirror_, lib::Algo::OneD, dev_, m, n, k);
      {
        Scope sp(hit ? "core.cache.hit" : "core.cache.miss", id);
        (void)lib::timing_profile<T>(mirror_, lib::Algo::OneD, dev_, m, n, k);
      }
      {
        Scope sp("core.plan", id);
        lib::plan<T>(lib::Algo::OneD, dev_, m, n, k, /*charge_global_io=*/true);
      }
      Scope sp("sim.timing", id);
      const auto r = lib::kami_gemm(lib::Algo::OneD, dev_, As[i], Bs[i], lib::Mode::TimingOnly,
                                    /*charge_global_io=*/true);
      sp.work(flops, bytes, r.cycles);
    }
    for (std::size_t i = 0; i < As.size(); ++i) {
      const std::size_t m = As[i].rows(), n = Bs[i].cols(), k = As[i].cols();
      const double flops = 2.0 * static_cast<double>(m * n * k);
      std::vector<lib::acc_t<T>> buf(std::max(m * k, k * n));
      const double tb = static_cast<double>(sizeof(T) + sizeof(lib::acc_t<T>));
      {
        Scope sp("types.decode", id);
        lib::decode(As[i].data(), buf.data(), m * k);
        lib::decode(Bs[i].data(), buf.data(), k * n);
        sp.work(0.0, static_cast<double>(m * k + k * n) * tb);
      }
      {
        Scope sp("types.encode", id);
        std::vector<T> C(m * n);
        lib::encode(buf.data(), C.data(), m * n);
        sp.work(0.0, static_cast<double>(m * n) * tb);
      }
      Scope sp("core.numerics", id);
      (void)lib::kami_gemm(lib::Algo::OneD, dev_, As[i], Bs[i], lib::Mode::NumericsOnly);
      sp.work(flops, static_cast<double>((m * k + k * n + m * n) * sizeof(T)));
    }
    // The same batch at one worker and at two, both with warm profiles.
    {
      Scope sp("exec.batched_1w", id);
      (void)lib::batched<T>(dev_, As, Bs, lib::Mode::Full, 1);
    }
    Scope sp("exec.batched_2w", id);
    (void)lib::batched<T>(dev_, As, Bs, lib::Mode::Full, kReplayWorkers);
  }

  const RunConfig& cfg_;
  Result& res_;
  Rng& rng_;
  Traced& traced_;
  const lib::Device& dev_;
  lib::ProfileCache mirror_;
};

}  // namespace

Result run_batch(const RunConfig& cfg) {
  Result res;
  SetupClock setup(cfg.t0_ns);
  Rng rng(cfg.seed);
  Traced traced;
  Batcher<kami::fp16_t> half(cfg, res, rng, traced);
  Batcher<double> dbl(cfg, res, rng, traced);
  {
    Excluded gen(setup);
    half.stream.init(rng);
    dbl.stream.init(rng);
  }
  // Warm-up (set-up): two batches per precision fill the cache with the head.
  for (long w = 0; w < 2; ++w) {
    half.op(-1, setup, nullptr, false);
    dbl.op(-1, setup, nullptr, false);
  }
  if (cfg.setup_only) {
    setup.first_op();
    res.setup_s = setup.seconds();
    return res;
  }

  Digest digest;
  const double start = now_ns();
  for (long op = 0; op < static_cast<long>(kDigestOps) || now_ns() - start < cfg.seconds * 1e9;
       ++op) {
    Digest* d = op < static_cast<long>(kDigestOps) ? &digest : nullptr;
    if (d != nullptr) res.digest_ops = static_cast<std::size_t>(op) + 1;
    if (rng.bernoulli(0.5))
      half.op(op, setup, d, true);
    else
      dbl.op(op, setup, d, true);
  }
  res.digest = digest.hex();
  res.setup_s = setup.seconds();
  half.canonical();
  dbl.canonical();

  if (tracer().enabled) {
    const double lookups = traced.cache_hits + traced.cache_misses;
    res.layer["core.cache.hit_share"] = lookups > 0 ? traced.cache_hits / lookups : 0.0;
    res.layer["core.cache.evictions"] = traced.evictions;
    res.layer["core.autotune.evaluated"] = traced.tunes > 0 ? traced.evaluated / traced.tunes : 0.0;
    res.layer["core.autotune.pruned"] = traced.tunes > 0 ? traced.pruned / traced.tunes : 0.0;
  }
  return res;
}

}  // namespace pb
