// kami_perfbench: runs one workload for a fixed host time, checks every
// output, and prints either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). perfbench/run.py builds and drives it.
//
//   kami_perfbench --workload <fig8_full|batch_tune|serve_small|serve_tail>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--setup-only] [--t0-ns <monotonic ns at spawn>]
//                  [--expect <file of "key<TAB>cycles" lines>] [--out-dir <dir>]
//   kami_perfbench selftest
//
// The last stdout line is one JSON object for run.py; everything before it
// is the human-readable report, also written as a kami.obs.run document.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "workloads.hpp"

namespace pb {
namespace {

/// How a metric moves with host speed: a time shrinks and a rate grows as
/// the host gets faster; counts, shares and memory do not move.
enum class Speed { Time, Rate, None };

struct MetricDef {
  const char* name;
  const char* unit;
  Speed speed;
};

constexpr MetricDef kEndToEnd[] = {
    {"throughput_gflops", "GFLOP/s", Speed::Rate}, {"ops_per_s", "1/s", Speed::Rate},
    {"op_ms_p50", "ms", Speed::Time},              {"op_ms_p80", "ms", Speed::Time},
    {"op_ms_p90", "ms", Speed::Time},
    {"setup_s", "s", Speed::Time},                 {"peak_rss_mb", "MiB", Speed::None},
    {"fail_pct", "%", Speed::None},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.timing_ms", "ms", Speed::Time},
    {"sim.kcycles_per_host_ms", "kcycles/ms", Speed::Rate},
    {"core.numerics_ms", "ms", Speed::Time},
    {"core.numerics_gflops", "GFLOP/s", Speed::Rate},
    {"core.full_overhead_ms", "ms", Speed::Time},
    {"types.decode_gbps", "GB/s", Speed::Rate},
    {"types.encode_gbps", "GB/s", Speed::Rate},
    {"core.plan_us", "us", Speed::Time},
    {"core.estimate_us", "us", Speed::Time},
    {"core.plan.cache_share", "ratio", Speed::None},
    {"core.cache.hit_us", "us", Speed::Time},
    {"core.cache.miss_us", "us", Speed::Time},
    {"core.cache.hit_share", "ratio", Speed::None},
    {"core.cache.evictions", "count", Speed::None},
    {"core.autotune_ms", "ms", Speed::Time},
    {"core.autotune.evaluated", "count", Speed::None},
    {"core.autotune.pruned", "count", Speed::None},
    {"core.batched_ms", "ms", Speed::Time},
    {"core.batched.profile_share", "ratio", Speed::None},
    {"exec.speedup", "x", Speed::None},
    {"core.arena.high_water_mb", "MiB", Speed::None},
    {"fleet.submit_us", "us", Speed::Time},
    {"fleet.route_us", "us", Speed::Time},
    {"fleet.drain_ms", "ms", Speed::Time},
    {"fleet.rejected", "%", Speed::None},
    {"fleet.failovers", "%", Speed::None},
    {"fleet.hedged", "%", Speed::None},
    {"serve.rung.kami_share", "ratio", Speed::None},
    {"serve.rung.reference_share", "ratio", Speed::None},
    {"serve.retries", "count", Speed::None},
    {"serve.self_ms", "ms", Speed::Time},
    {"baselines.reference_ms", "ms", Speed::Time},
    {"baselines.block_ms", "ms", Speed::Time},
    {"attribution_coverage", "ratio", Speed::None},
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string fixed(double v, int digits = 4) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

/// Reported host times are scaled to the host speed at which the probe
/// (harness.hpp: probe_host_ns) takes this long, on average over the run.
/// This shared VM's speed moves by 2x within half an hour (raw fig8_full
/// throughput 7.1 GFLOP/s, then 3.1-3.4), and by 10-25% between runs a
/// minute apart; over three 3-s runs of each workload, raw values moved by
/// up to 26% and raw values times the run's mean probe by at most 12%.
/// Raw values are printed beside the scaled ones.
constexpr double kProbeReferenceUs = 15.0;

/// `raw` as it would read on the reference host; `faster` is how much
/// faster than the reference this run's host was.
double at_reference(double raw, Speed speed, double faster) {
  return speed == Speed::Time ? raw * faster : speed == Speed::Rate ? raw / faster : raw;
}

/// Mean host probe over the run's timed regions, in ns.
double mean_probe_ns(const Result& res) {
  double sum = 0;
  for (const Result::Timed& t : res.timed) sum += t.probe_ns;
  return res.timed.empty() ? probe_host_ns() : sum / static_cast<double>(res.timed.size());
}

/// Peak RSS less the benchmark's own per-region record, which grows with
/// the number of ops a run fits into its seconds: a faster program would
/// otherwise read as a bigger one.
double program_rss_mb(const Result& res, const rusage& ru) {
  const double record_kb = static_cast<double>(res.timed.size() * sizeof(Result::Timed)) / 1024.0;
  return (static_cast<double>(ru.ru_maxrss) - record_kb) / 1024.0;
}

struct EndToEnd {
  double gflops = 0, ops_per_s = 0;
  std::vector<double> op_ms;  ///< latency of every ok op
};

/// End-to-end figures over every timed region of the run: flop and ok ops
/// per timed host second, and every ok op's latency.
EndToEnd end_to_end(const Result& res) {
  EndToEnd e;
  double ns = 0, flops = 0, ok_ops = 0;
  for (const Result::Timed& t : res.timed) {
    ns += t.ns;
    flops += t.flops;
    ok_ops += t.ok_ops;
    for (std::size_t i = 0; i < static_cast<std::size_t>(t.ok_ops); ++i)
      e.op_ms.push_back(t.ns / 1e6);
  }
  if (ns > 0) {
    e.gflops = flops / ns;
    e.ops_per_s = ok_ops / (ns / 1e9);
  }
  return e;
}

/// Per-layer metrics from the span aggregate plus the workload's own.
std::map<std::string, double> layer_metrics(const std::string& workload, const Result& res,
                                            const std::map<std::string, LayerTotals>& L) {
  const auto get = [&](const char* n) {
    const auto it = L.find(n);
    return it == L.end() ? LayerTotals{} : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::map<std::string, double> m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;

  const LayerTotals timing = get("sim.timing"), numerics = get("core.numerics");
  m["sim.timing_ms"] = timing.mean_ms();
  m["sim.kcycles_per_host_ms"] = ratio(timing.cycles / 1e3, timing.incl_ns / 1e6);
  m["core.numerics_ms"] = numerics.mean_ms();
  m["core.numerics_gflops"] = ratio(numerics.flops, numerics.incl_ns);
  m["types.decode_gbps"] = ratio(get("types.decode").bytes, get("types.decode").incl_ns);
  m["types.encode_gbps"] = ratio(get("types.encode").bytes, get("types.encode").incl_ns);
  m["core.plan_us"] = get("core.plan").mean_ms() * 1e3;
  m["core.estimate_us"] = get("core.estimate").mean_ms() * 1e3;
  m["core.cache.hit_us"] = get("core.cache.hit").mean_ms() * 1e3;
  m["core.cache.miss_us"] = get("core.cache.miss").mean_ms() * 1e3;
  m["core.autotune_ms"] = get("core.autotune").mean_ms();
  const LayerTotals batched = get("core.batched");
  m["core.batched_ms"] = batched.mean_ms();
  const double profile_ns = get("core.cache.hit").incl_ns + get("core.cache.miss").incl_ns;
  m["core.batched.profile_share"] = ratio(profile_ns, batched.incl_ns);
  m["exec.speedup"] = ratio(get("exec.batched_1w").incl_ns, get("exec.batched_2w").incl_ns);
  const auto gauges = lib::gauges();
  const auto hw = gauges.find("arena.high_water_bytes");
  m["core.arena.high_water_mb"] = hw == gauges.end() ? 0.0 : hw->second / (1024.0 * 1024.0);
  m["fleet.submit_us"] = get("fleet.submit").mean_ms() * 1e3;
  m["fleet.route_us"] = get("fleet.route").mean_ms() * 1e3;
  m["fleet.drain_ms"] = get("fleet.drain").mean_ms();
  m["baselines.reference_ms"] = get("baselines.reference").mean_ms();
  m["baselines.block_ms"] = get("baselines.block").mean_ms();
  // Replayed time over the measured time of the call it attributes.
  if (workload == "fig8_full")
    m["attribution_coverage"] =
        ratio(timing.incl_ns + numerics.incl_ns, get("core.gemm_full").incl_ns);
  else if (workload == "batch_tune")
    m["attribution_coverage"] = ratio(profile_ns + numerics.incl_ns, batched.incl_ns);
  for (const auto& [k, v] : res.layer) m[k] = v;
  return m;
}

int run(const RunConfig& cfg, const std::string& out_dir) {
  tracer().enabled = cfg.trace;
  const CpuTicks before = read_cpu_ticks();
  Result res;
  if (cfg.workload == "fig8_full") res = run_fig8(cfg);
  else if (cfg.workload == "batch_tune") res = run_batch(cfg);
  else if (cfg.workload == "serve_small") res = run_serve(cfg, false);
  else if (cfg.workload == "serve_tail") res = run_serve(cfg, true);
  else {
    std::cerr << "unknown workload: " << cfg.workload << "\n";
    return 2;
  }
  if (cfg.setup_only) {
    double probe_ns = 0;
    for (int i = 0; i < 100; ++i) probe_ns += probe_host_ns() / 100.0;
    const double faster = kProbeReferenceUs / (probe_ns / 1e3);
    std::cout << "{\"setup_s\": " << num(at_reference(res.setup_s, Speed::Time, faster))
              << "}\n";
    return 0;
  }
  const CpuTicks after = read_cpu_ticks();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const EndToEnd ee = end_to_end(res);
  const std::size_t ok_ops = ee.op_ms.size();
  const Quantile p50 = quantile(ee.op_ms, 0.5), p80 = quantile(ee.op_ms, 0.8),
                 p90 = quantile(ee.op_ms, 0.9);
  const double attempted = static_cast<double>(std::max<std::size_t>(res.attempted, 1));
  const std::map<std::string, std::pair<double, std::size_t>> e2e{
      {"throughput_gflops", {ee.gflops, ok_ops}},
      {"ops_per_s", {ee.ops_per_s, ok_ops}},
      {"op_ms_p50", {p50.value, p50.samples}},
      {"op_ms_p80", {p80.value, p80.samples}},
      {"op_ms_p90", {p90.value, p90.samples}},
      {"setup_s", {res.setup_s, 1}},
      {"peak_rss_mb", {program_rss_mb(res, ru), 1}},
      {"fail_pct",
       {100.0 * static_cast<double>(res.refused + res.check_failed) / attempted, res.attempted}},
  };

  const double probe_us = mean_probe_ns(res) / 1e3;
  const double faster = kProbeReferenceUs / probe_us;
  lib::Report report("perfbench." + cfg.workload);
  const double steal = after.steal - before.steal;
  const double ticks = after.total - before.total;
  const std::vector<std::pair<std::string, std::string>> meta{
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", num(cfg.seconds)},
      {"trace", cfg.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", __VERSION__},
      {"build_type", KAMI_PERFBENCH_BUILD_TYPE},
      {"numeric_simd", lib::simd_name()},
      {"cpu_steal_ticks", num(steal)},
      {"cpu_idle_share", fixed(ticks > 0 ? (after.idle - before.idle) / ticks : 0.0)},
      {"noisy", steal > 0 ? "yes (steal seen)" : "no"},
      {"host_probe_us", fixed(probe_us, 3) + " (mean over " + std::to_string(res.timed.size()) +
                            " timed regions; reference " + fixed(kProbeReferenceUs, 1) + ")"},
      {"digest", res.digest},
      {"digest_ops", std::to_string(res.digest_ops)},
      {"cycle_keys_checked", std::to_string(res.cycles_checked)},
  };
  std::vector<std::vector<std::string>> rows;
  for (const auto& [k, v] : meta) {
    report.meta(k, v);
    rows.push_back({k, v});
  }
  report.table("run", {"field", "value"}, rows, std::cout);

  rows.clear();
  for (const MetricDef& d : kEndToEnd) {
    const auto& [v, n] = e2e.at(d.name);
    std::string samples = std::to_string(n);
    if (std::string(d.unit).find('/') != std::string::npos) samples += " ops";
    if ((std::string(d.name) == "op_ms_p90" && !p90.resolved) ||
        (std::string(d.name) == "op_ms_p80" && !p80.resolved) ||
        (std::string(d.name) == "op_ms_p50" && !p50.resolved))
      samples += " (unresolved)";
    rows.push_back({d.name, fixed(at_reference(v, d.speed, faster)), fixed(v), d.unit, samples});
  }
  // Same title in both runs, so `kami_prof diff` lines a traced run up with
  // an untraced one: the difference is the tracing overhead.
  report.table("end to end", {"metric", "value", "raw", "unit", "samples"}, rows, std::cout);

  std::map<std::string, double> layers;
  if (cfg.trace) {
    const auto L = aggregate(tracer().spans);
    rows.clear();
    for (const auto& [name, t] : L) {
      const double s = t.incl_ns / 1e9;
      rows.push_back({name.substr(0, name.find('.')), name, std::to_string(t.calls),
                      fixed(t.self_ns / 1e6, 3), fixed(t.incl_ns / 1e6, 3), fixed(t.mean_ms(), 5),
                      fixed(t.flops / 1e9, 4), fixed(t.bytes / 1e9, 4),
                      fixed(s > 0 ? t.flops / 1e9 / s : 0.0, 3),
                      fixed(s > 0 ? t.bytes / 1e9 / s : 0.0, 3)});
    }
    report.table("per-layer host time (spans recorded around public calls)",
                 {"layer", "span", "calls", "self_ms", "incl_ms", "mean_ms", "GFLOP",
                  "GB computed", "GFLOP/s", "GB/s"},
                 rows, std::cout);
    layers = layer_metrics(cfg.workload, res, L);
    rows.clear();
    for (const MetricDef& d : kPerLayer)
      rows.push_back({d.name, fixed(at_reference(layers.at(d.name), d.speed, faster), 6),
                      fixed(layers.at(d.name), 6), d.unit});
    report.table("per-layer metrics", {"metric", "value", "raw", "unit"}, rows, std::cout);
  }
  if (!res.notes.empty()) {
    rows.clear();
    for (const auto& n : res.notes) rows.push_back({n});
    report.table("observations (not gated)", {"observation"}, rows, std::cout);
  }
  if (!res.failures.empty()) {
    rows.clear();
    for (const auto& f : res.failures) rows.push_back({f});
    report.table("check failures", {"failure"}, rows, std::cout);
  }

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
                             "-trace" + (cfg.trace ? "1" : "0");
    std::ofstream os(stem + ".json");
    report.write(os);
    if (cfg.trace) {
      // Spans, written once the run is over: name, start, end, parent, op.
      // One file per workload (the latest traced run), so disk use stays flat.
      std::ofstream sp(out_dir + "/" + cfg.workload + ".spans.tsv");
      sp << "name\tstart_ns\tend_ns\tparent\top\n";
      for (const Span& s : tracer().spans)
        sp << s.name << '\t' << num(s.start_ns) << '\t' << num(s.end_ns) << '\t' << s.parent
           << '\t' << s.op << '\n';
    }
  }

  // The machine-readable line for run.py.
  std::ostringstream js;
  js << "{\"correct\": " << (res.check_failed == 0 ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.check_failed
     << ", \"probe_us\": " << num(probe_us)
     << ", \"refused\": " << res.refused << ", \"noisy\": " << (steal > 0 ? "true" : "false")
     << ", \"digest\": \"" << res.digest << "\", \"metrics\": {";
  bool first = true;
  const auto put = [&](const std::string& k, double v, const char* unit, std::size_t n) {
    js << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << num(v) << ", \"unit\": \""
       << unit << "\", \"samples\": " << n << "}";
    first = false;
  };
  for (const MetricDef& d : kEndToEnd)
    put(d.name, at_reference(e2e.at(d.name).first, d.speed, faster), d.unit,
        e2e.at(d.name).second);
  for (const MetricDef& d : kPerLayer)
    if (cfg.trace) put(d.name, at_reference(layers.at(d.name), d.speed, faster), d.unit, 0);
  js << "}, \"cycles\": {";
  first = true;
  for (const auto& [k, v] : res.cycles) {
    js << (first ? "" : ", ") << "\"" << k << "\": " << num(v);
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return res.check_failed == 0 ? 0 : 1;
}

std::map<std::string, double> load_expected(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.rfind('\t');
    if (tab != std::string::npos) out[line.substr(0, tab)] = std::stod(line.substr(tab + 1));
  }
  return out;
}

int usage() {
  std::cerr << "usage: kami_perfbench --workload W --seed N --seconds S --trace 0|1\n"
               "                      [--setup-only] [--t0-ns NS] [--expect FILE] [--out-dir DIR]\n"
               "       kami_perfbench selftest\n";
  return 2;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const double entry_ns = pb::now_ns();
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "selftest") return pb::selftest() == 0 ? 0 : 1;
  pb::RunConfig cfg;
  std::string out_dir;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const bool has = i + 1 < args.size();
      if (args[i] == "--workload" && has) cfg.workload = args[++i];
      else if (args[i] == "--seed" && has) cfg.seed = std::stoull(args[++i]);
      else if (args[i] == "--seconds" && has) cfg.seconds = std::stod(args[++i]);
      else if (args[i] == "--trace" && has) cfg.trace = args[++i] == "1";
      else if (args[i] == "--t0-ns" && has) cfg.t0_ns = std::stod(args[++i]);
      else if (args[i] == "--expect" && has) cfg.expected_cycles = pb::load_expected(args[++i]);
      else if (args[i] == "--out-dir" && has) out_dir = args[++i];
      else if (args[i] == "--setup-only") cfg.setup_only = true;
      else return pb::usage();
    }
    if (cfg.workload.empty()) return pb::usage();
    if (cfg.t0_ns <= 0.0) cfg.t0_ns = entry_ns;
    return pb::run(cfg, out_dir);
  } catch (const std::exception& e) {
    std::cerr << "kami_perfbench: " << e.what() << "\n";
    return 1;
  }
}
