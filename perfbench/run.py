#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest        # machinery self-tests + smoke runs
    python3 perfbench/run.py --record          # rewrite perfbench/expected.json

Run from the repository root. It builds the library and the kami_perfbench
program from source into $CARGO_TARGET_DIR (default .bench_build), sets up the
workload several times in fresh processes to time set-up, then runs the
workload once for --seconds and checks every output. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end list for --trace 0 and its per_layer
list for --trace 1. A failed check makes it exit 1.

Deterministic outputs are compared with perfbench/expected.json: simulated
cycles for every key that does not depend on the seed, and for the default
and held-out seeds a digest of each workload's first ops.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_RUNS = 14  # extra set-up-only processes; setup_s is the median with the main run's
WORKLOADS = ("fig8_full", "batch_tune", "serve_small", "serve_tail")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build incrementally; compiler output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "kami_perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "kami_perfbench")


def load_expected():
    if not os.path.exists(EXPECTED):
        return {"seeds": {}, "workloads": {}, "cycles": {}}
    with open(EXPECTED) as f:
        return json.load(f)


def write_expect_file(cycles, path):
    with open(path, "w") as f:
        for key, value in sorted(cycles.items()):
            f.write("%s\t%r\n" % (key, value))


def run_bench(exe, args, forward=True):
    """Runs kami_perfbench; returns (exit code, parsed last line or None)."""
    cmd = [exe] + args + ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if forward:
        for line in lines[:-1]:
            print(line)
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def measure(exe, spec, expected, workload, seed, seconds, trace, expect_file, out_dir):
    common = ["--workload", workload, "--seed", str(seed), "--expect", expect_file]
    setups = []
    for _ in range(SETUP_RUNS):
        rc, res = run_bench(exe, common + ["--seconds", "1", "--trace", "0", "--setup-only"],
                             forward=False)
        if rc != 0 or res is None:
            raise RuntimeError("set-up run failed (exit %d)" % rc)
        setups.append(res["setup_s"])
    rc, res = run_bench(exe, common + ["--seconds", repr(seconds), "--trace", str(trace),
                                        "--out-dir", out_dir])
    if res is None:
        raise RuntimeError("kami_perfbench printed no result (exit %d)" % rc)
    setups.append(res["metrics"]["setup_s"]["value"])
    res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    res["metrics"]["setup_s"]["samples"] = len(setups)

    correct, failed = res["correct"] and rc == 0, res["failed"]
    want = expected["workloads"].get(workload, {}).get("digests", {}).get(str(seed))
    digest_state = "not recorded for this seed"
    if want is not None:
        digest_state = "matches" if want == res["digest"] else "MISMATCH (want %s)" % want
        if want != res["digest"]:
            correct = False
            failed += 1
    print("digest of the first ops: %s (%s)" % (res["digest"], digest_state))
    if res["noisy"]:
        print("noise: CPU steal was seen during this run; its timings are marked noisy")

    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        got = res["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise RuntimeError("unit of %s is %s, BENCHMARK.json says %s"
                               % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": res["attempted"], "failed": failed,
            "metrics": metrics}


def selftest(exe, expected):
    failures = 0
    if subprocess.run([exe, "selftest"]).returncode != 0:
        failures += 1
    out_dir = os.path.join(build_dir(), "reports")
    os.makedirs(out_dir, exist_ok=True)
    expect_file = os.path.join(build_dir(), "expected_cycles.tsv")
    write_expect_file(expected["cycles"], expect_file)
    spec = load_spec()
    seed = expected["seeds"].get("default", 1)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(exe, spec, expected, workload, seed, 1, trace, expect_file,
                             out_dir)
            ok = result["correct"] and result["attempted"] >= 1
            print("%s  smoke %s trace=%d" % ("ok  " if ok else "FAIL", workload, trace))
            failures += 0 if ok else 1
    # An altered recorded cycle count must fail the run and its exit code.
    tampered = dict(expected["cycles"])
    key = next(k for k in sorted(tampered) if k.startswith("GH200/"))
    tampered[key] += 1.0
    bad = os.path.join(build_dir(), "tampered_cycles.tsv")
    write_expect_file(tampered, bad)
    rc, res = run_bench(exe, ["--workload", "fig8_full", "--seed", str(seed), "--seconds", "1",
                               "--trace", "0", "--expect", bad], forward=False)
    ok = rc != 0 and res is not None and not res["correct"]
    print("%s  altered cycle count fails the run" % ("ok  " if ok else "FAIL"))
    failures += 0 if ok else 1
    print("selftest: %s" % ("all passed" if failures == 0 else "%d FAILED" % failures))
    return failures


def record(exe, expected):
    """Re-derive expected.json from the default and held-out seeds."""
    seeds = expected["seeds"] or {"default": 1, "held_out": 2}
    cycles = {}
    workloads = {}
    empty = os.path.join(build_dir(), "no_cycles.tsv")
    write_expect_file({}, empty)
    for workload in WORKLOADS:
        digests = {}
        for seed in sorted(seeds.values()):
            rc, res = run_bench(exe, ["--workload", workload, "--seed", str(seed), "--seconds",
                                       "4", "--trace", "0", "--expect", empty], forward=False)
            if rc != 0 or res is None or not res["correct"]:
                raise RuntimeError("%s seed %d failed its checks" % (workload, seed))
            digests[str(seed)] = res["digest"]
            for key, value in res["cycles"].items():
                if cycles.setdefault(key, value) != value:
                    raise RuntimeError("%s: cycles differ between runs" % key)
        workloads[workload] = {"digests": digests}
    doc = {"seeds": seeds, "workloads": workloads, "cycles": dict(sorted(cycles.items()))}
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s: %d cycle keys" % (EXPECTED, len(cycles)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: the library sources (src/) are not next to perfbench/; "
            "run from a full checkout of the repository")
        return 2
    spec = load_spec()
    expected = load_expected()
    try:
        exe = build()
        if args.selftest:
            return 1 if selftest(exe, expected) else 0
        if args.record:
            record(exe, expected)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        seed = args.seed if args.seed is not None else expected["seeds"].get("default", 1)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        out_dir = os.path.join(build_dir(), "reports")
        os.makedirs(out_dir, exist_ok=True)
        expect_file = os.path.join(build_dir(), "expected_cycles.tsv")
        write_expect_file(expected["cycles"], expect_file)
        result = measure(exe, spec, expected, args.workload, seed, seconds, args.trace,
                         expect_file, out_dir)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log("run.py: %s" % e)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
