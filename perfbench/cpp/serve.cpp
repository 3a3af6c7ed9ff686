// serve_small / serve_tail: serve_load's slot generator (diurnal Poisson
// arrivals with burst windows, a heavy-tailed shape mix, hedged deadline
// requests, TimingOnly) against the four-device fleet with bounded queues of
// 32 and one manual drain per slot. Open loop in simulated time, closed loop
// in host time: slot t+1 is generated after slot t's drain returns. An op is
// one request; its latency is host time from its slot's start to the return
// of the drain that served it.
//
// serve_small drops the 384^3 class, so every request is served by a KAMI
// rung; serve_tail keeps it, and those requests fall through to the
// reference rung, which then does nearly all the host work.
#include <cmath>
#include <memory>
#include <variant>

#include "workloads.hpp"

namespace pb {
namespace {

constexpr std::size_t kQueueDepth = 32;
constexpr std::size_t kWarmupSlots = 3;
constexpr std::size_t kDigestSlots = 12;

/// Knuth's method, as serve_load draws arrivals.
int poisson(Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

bool burst_slot(std::size_t t) { return t % 37 >= 2 && t % 37 < 5; }

double arrival_rate(std::size_t t) {
  double rate = 24.0 * (1.0 + 0.6 * std::sin(2.0 * 3.14159265358979323846 *
                                             static_cast<double>(t) / 50.0));
  if (burst_slot(t)) rate *= 6.0;
  return rate;
}

struct Spec {
  std::size_t m = 0, n = 0, k = 0;
  kami::Precision prec = kami::Precision::FP16;
  lib::Algo algo = lib::Algo::OneD;
  double deadline_cycles = 0.0;
};

/// One generated request: its spec, operands (kept for the check) and the
/// copies handed to the fleet.
template <class T>
struct Typed {
  kami::Matrix<T> A, B, A_sent, B_sent;
  lib::FleetFuture<T> future;
  kami::Matrix<T> C;  ///< set when the reference rung served it
};
using Payload = std::variant<Typed<kami::fp16_t>, Typed<float>, Typed<kami::bf16_t>,
                             Typed<double>>;

struct Request {
  Spec spec;
  Payload payload;
  lib::Outcome out;
};

template <class T>
Payload make_payload(const Spec& s, Rng& rng) {
  Typed<T> t;
  t.A = random_matrix<T>(s.m, s.k, rng);
  t.B = random_matrix<T>(s.k, s.n, rng);
  t.A_sent = t.A;
  t.B_sent = t.B;
  return t;
}

/// Systematic sampling: exactly `rate` of the calls return true, at a
/// seeded phase, instead of an independent coin per call.
class Stratified {
 public:
  Stratified(double rate, Rng& rng) : rate_(rate), phase_(rng.uniform()) {}
  bool next() {
    const double before = std::floor(static_cast<double>(n_) * rate_ + phase_);
    ++n_;
    return std::floor(static_cast<double>(n_) * rate_ + phase_) > before;
  }

 private:
  double rate_, phase_;
  std::size_t n_ = 0;
};

/// serve_load's request mix. The 384^3 tail is 3% of requests; its share,
/// its FP32/FP64 split and its deadline share are stratified, because each
/// of those requests costs as much host time as hundreds of others and
/// independent draws would make one run's work differ from the next
/// seed's. Everything else is drawn independently, as serve_load does.
/// with_tail=false removes the 384^3 class.
class Generator {
 public:
  Generator(std::uint64_t seed, bool with_tail)
      : rng_(seed), with_tail_(with_tail), large_(0.03, rng_), fp64_(0.4, rng_),
        deadline_(0.25, rng_) {}

  std::vector<Request> slot(std::size_t t);

 private:
  Spec draw() {
    static constexpr std::size_t kTiny[] = {16, 32, 48};
    static constexpr std::size_t kSmall[] = {64, 96};
    static constexpr std::size_t kMedium[] = {128, 160, 192};
    Spec s;
    const auto dims = [&](const std::size_t* d, std::size_t count) {
      s.m = d[rng_.index(count)];
      s.n = d[rng_.index(count)];
      s.k = d[rng_.index(count)];
    };
    const bool large = with_tail_ && large_.next();
    if (large) {
      s.m = s.n = s.k = 384;
    } else {
      const double roll = rng_.uniform() * 0.97;
      if (roll < 0.55) dims(kTiny, 3);
      else if (roll < 0.85) dims(kSmall, 2);
      else dims(kMedium, 3);
    }
    if (rng_.bernoulli(0.02)) {
      const std::size_t axis = rng_.index(3);
      (axis == 0 ? s.m : axis == 1 ? s.n : s.k) = 0;
    }
    const double p = rng_.uniform();
    if (large)
      s.prec = fp64_.next() ? kami::Precision::FP64 : kami::Precision::FP32;
    else
      s.prec = p < 0.70   ? kami::Precision::FP16
               : p < 0.85 ? kami::Precision::FP32
               : p < 0.95 ? kami::Precision::BF16
                          : kami::Precision::FP64;
    const double a = rng_.uniform();
    s.algo = a < 0.40 ? lib::Algo::OneD : a < 0.70 ? lib::Algo::TwoD : lib::Algo::ThreeD;
    if (large ? deadline_.next() : rng_.bernoulli(0.25))
      s.deadline_cycles = std::exp(rng_.uniform(std::log(1e3), std::log(3e6)));
    return s;
  }

  Rng rng_;
  bool with_tail_;
  Stratified large_, fp64_, deadline_;
};

std::vector<Request> Generator::slot(std::size_t t) {
  const auto arrivals = static_cast<std::size_t>(poisson(rng_, arrival_rate(t)));
  std::vector<Request> reqs(arrivals);
  for (Request& r : reqs) {
    r.spec = draw();
    switch (r.spec.prec) {
      case kami::Precision::FP16: r.payload = make_payload<kami::fp16_t>(r.spec, rng_); break;
      case kami::Precision::FP32: r.payload = make_payload<float>(r.spec, rng_); break;
      case kami::Precision::BF16: r.payload = make_payload<kami::bf16_t>(r.spec, rng_); break;
      default: r.payload = make_payload<double>(r.spec, rng_); break;
    }
  }
  return reqs;
}

double flops_of(const Spec& s) {
  return 2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) * static_cast<double>(s.k);
}

double operand_bytes(const Spec& s, std::size_t element) {
  return static_cast<double>((s.m * s.k + s.k * s.n + s.m * s.n) * element);
}

std::string cycle_key(const Request& r) {
  return std::string("serve/") + r.out.device + "/" + lib::precision_name(r.spec.prec) + "/" +
         r.out.rung + "/" + std::to_string(r.spec.m) + "x" + std::to_string(r.spec.n) + "x" +
         std::to_string(r.spec.k);
}

/// Everything the traced run accumulates across slots.
struct Traced {
  double requests = 0, rejected = 0, failovers = 0, hedged = 0, ok = 0, kami = 0, reference = 0;
  double drain_ns = 0, replay_ns = 0, drains = 0;
  std::map<std::string, double> plan_sources;
  double retries = 0;
};

class Server {
 public:
  Server(const RunConfig& cfg, Result& res) : cfg_(cfg), res_(res), fleet_(kQueueDepth) {}

  Traced traced;

  double last_drain_ns = 0;  ///< host ns of the last drain() call

  /// Submit one slot, drain it, harvest the results. Returns host ns of the
  /// timed region (submit + drain).
  double serve_slot(std::vector<Request>& reqs, long first_op) {
    std::map<std::string, double> before;
    if (tracer().enabled) before = lib::counters();
    const double t0 = now_ns();
    long id = first_op;
    for (Request& r : reqs) {
      Scope sp("fleet.submit", id++);
      std::visit([&](auto& t) { t.future = fleet_.submit(r.spec.algo, std::move(t.A_sent),
                                                         std::move(t.B_sent), r.spec.deadline_cycles); },
                 r.payload);
    }
    const double td = now_ns();
    {
      Scope sp("fleet.drain", first_op);
      fleet_.drain();
    }
    const double t1 = now_ns();
    last_drain_ns = t1 - td;
    for (Request& r : reqs)
      std::visit([&](auto& t) {
        auto fr = t.future.get();
        r.out = lib::Fleet::outcome(fr);
        if (r.out.ok && r.out.rung == "reference") t.C = std::move(fr.result.C);
      }, r.payload);
    if (tracer().enabled) {
      const auto after = lib::counters();
      for (const auto& [name, v] : after)
        if (name.rfind("serve.plan.", 0) == 0)
          traced.plan_sources[name] += counter_delta(before, after, name);
      traced.retries += counter_delta(before, after, "serve.retries");
    }
    return t1 - t0;
  }

  /// Checks one request's output; returns the failure reason or "".
  std::string check(Request& r) {
    if (!r.out.ok) return "";
    if (r.out.rung == "reference") {
      bool exact = false;
      std::visit([&](auto& t) { exact = bit_equal(t.C, naive_reference(t.A, t.B)); }, r.payload);
      return exact ? "" : cycle_key(r) + ": reference rung C differs from the reference";
    }
    if (r.out.rung == "degenerate") return "";
    if (!(r.out.cycles > 0.0)) return cycle_key(r) + ": KAMI rung reported no cycles";
    if (!res_.check_cycles(cfg_, cycle_key(r), r.out.cycles))
      return cycle_key(r) + ": simulated cycles differ from the recorded value";
    return "";
  }

  static void digest(Digest& d, const Request& r) {
    d.str(r.out.code);
    d.str(r.out.device);
    d.str(r.out.rung);
    d.num(r.out.failovers);
    d.num(r.out.hedged ? 1.0 : 0.0);
    d.num(r.out.end_to_end_cycles);
    d.num(r.out.cycles);
  }
  std::string slo_json() const { return fleet_.slo_json(); }

  /// Replays a drained slot's requests through the layers the drain ran
  /// them through: routing, the per-device plan estimates, the KAMI rung's
  /// TimingOnly simulation and the reference rung.
  void replay(std::vector<Request>& reqs, long first_op, double drain_ns) {
    double replayed = 0;
    long id = first_op;
    for (Request& r : reqs) {
      const Spec& s = r.spec;
      {
        Scope sp("fleet.route", id);
        fleet_.route(s.algo, s.prec, s.m, s.n, s.k, s.deadline_cycles);
      }
      for (std::size_t d = 0; d < fleet_.devices(); ++d) {
        const lib::Device& dev = fleet_.device(static_cast<int>(d));
        if (!lib::supports(dev, s.prec)) continue;
        const double t = now_ns();
        {
          Scope sp("core.estimate", id);
          (void)lib::estimate(s.algo, dev, s.prec, s.m, s.n, s.k);
        }
        replayed += now_ns() - t;
      }
      if (r.out.ok && r.out.rung.rfind("kami", 0) == 0) {
        const lib::Device& dev = fleet_.device(r.out.device_index);
        const double t = now_ns();
        std::visit([&](auto& tt) {
          Scope sp("sim.timing", id);
          const auto k = lib::kami_gemm(r.out.served, dev, tt.A, tt.B, lib::Mode::TimingOnly);
          sp.work(flops_of(s), operand_bytes(s, sizeof(*tt.A.data())), k.cycles);
        }, r.payload);
        replayed += now_ns() - t;
      } else if (r.out.ok && r.out.rung == "reference") {
        const double t = now_ns();
        std::visit([&](auto& tt) {
          Scope sp("baselines.reference", id);
          (void)lib::reference_gemm(tt.A, tt.B);
          sp.work(flops_of(s), operand_bytes(s, sizeof(*tt.A.data())));
        }, r.payload);
        replayed += now_ns() - t;
      }
      ++id;
    }
    traced.drain_ns += drain_ns;
    traced.replay_ns += replayed;
    traced.drains += 1;
  }

 private:
  const RunConfig& cfg_;
  Result& res_;
  lib::Fleet fleet_;
};

}  // namespace

std::string serve_trace(std::uint64_t seed, std::size_t slots, bool with_tail) {
  Generator gen(seed, with_tail);
  std::string out;
  const auto put = [&](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (std::size_t t = 0; t < slots; ++t)
    for (const Request& r : gen.slot(t)) {
      put(&r.spec.m, sizeof r.spec.m);
      put(&r.spec.n, sizeof r.spec.n);
      put(&r.spec.k, sizeof r.spec.k);
      put(&r.spec.prec, sizeof r.spec.prec);
      put(&r.spec.algo, sizeof r.spec.algo);
      put(&r.spec.deadline_cycles, sizeof r.spec.deadline_cycles);
      std::visit([&](const auto& x) {
        put(x.A.data(), x.A.size() * sizeof(*x.A.data()));
        put(x.B.data(), x.B.size() * sizeof(*x.B.data()));
      }, r.payload);
    }
  return out;
}

Result run_serve(const RunConfig& cfg, bool with_tail) {
  Result res;
  SetupClock setup(cfg.t0_ns);
  Server server(cfg, res);

  // Warm-up (set-up): a few slots from a fixed stream, the same for every
  // seed, warm the planner state and the caches the router reads.
  Generator warm(0x5eed5eedULL, with_tail);
  for (std::size_t t = 0; t < kWarmupSlots; ++t) {
    std::vector<Request> reqs;
    {
      Excluded gen(setup);
      reqs = warm.slot(t);
    }
    server.serve_slot(reqs, -1);
  }
  if (cfg.setup_only) {
    setup.first_op();
    res.setup_s = setup.seconds();
    return res;
  }

  Generator gen(cfg.seed, with_tail);
  Digest digest;
  const double start = now_ns();
  long op = 0;
  for (std::size_t slot = 0; slot < kDigestSlots || now_ns() - start < cfg.seconds * 1e9;
       ++slot) {
    std::vector<Request> reqs;
    {
      Excluded generation(setup);
      reqs = gen.slot(slot);
    }
    setup.first_op();
    const double probe = probe_host_ns();
    const double slot_ns = server.serve_slot(reqs, op);
    Result::Timed timed{slot_ns, 0.0, 0.0, probe};
    for (Request& r : reqs) {
      ++res.attempted;
      const std::string why = server.check(r);
      if (!why.empty()) {
        res.fail(why);
      } else if (r.out.ok) {
        timed.flops += flops_of(r.spec);
        timed.ok_ops += 1;
      } else {
        ++res.refused;
      }
      if (slot < kDigestSlots) Server::digest(digest, r);
      if (tracer().enabled) {
        Traced& t = server.traced;
        t.requests += 1;
        t.rejected += r.out.rejected ? 1 : 0;
        t.failovers += r.out.failovers;
        t.hedged += r.out.hedged ? 1 : 0;
        if (r.out.ok) {
          t.ok += 1;
          t.kami += r.out.rung.rfind("kami", 0) == 0 ? 1 : 0;
          t.reference += r.out.rung == "reference" ? 1 : 0;
        }
      }
    }
    res.timed.push_back(timed);
    if (slot + 1 == kDigestSlots) {
      digest.str(server.slo_json());
      res.digest_ops = static_cast<std::size_t>(op) + reqs.size();
    }
    if (tracer().enabled) server.replay(reqs, op, server.last_drain_ns);
    op += static_cast<long>(reqs.size());
  }
  res.digest = digest.hex();
  res.setup_s = setup.seconds();

  if (tracer().enabled) {
    const Traced& t = server.traced;
    const double base = t.requests > 0 ? t.requests : 1.0;
    res.layer["fleet.rejected"] = 100.0 * t.rejected / base;
    res.layer["fleet.failovers"] = 100.0 * t.failovers / base;
    res.layer["fleet.hedged"] = 100.0 * t.hedged / base;
    res.layer["serve.rung.kami_share"] = t.ok > 0 ? t.kami / t.ok : 0.0;
    res.layer["serve.rung.reference_share"] = t.ok > 0 ? t.reference / t.ok : 0.0;
    res.layer["serve.retries"] = t.retries / base;
    double estimates = 0;
    for (const auto& [name, v] : t.plan_sources) estimates += v;
    const auto cache = t.plan_sources.find("serve.plan.cache");
    res.layer["core.plan.cache_share"] =
        estimates > 0 && cache != t.plan_sources.end() ? cache->second / estimates : 0.0;
    res.layer["serve.self_ms"] = t.drains > 0 ? (t.drain_ns - t.replay_ns) / t.drains / 1e6 : 0.0;
    res.layer["attribution_coverage"] = t.drain_ns > 0 ? t.replay_ns / t.drain_ns : 0.0;
  }
  return res;
}

}  // namespace pb
