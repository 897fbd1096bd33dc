"""Census benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload split_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Every measurement happens in a fresh child process (bench/child.py), one at
a time, so this process holds no program state:

  --trace 0   SETUP_SAMPLES set-up-only children, then one plain child that
              runs whole untraced rounds for --seconds and checks its
              outputs.  Prints the end-to-end metrics; setup_s is the median
              of the set-up times.
  --trace 1   one plain child (the workload's own worker count) for the
              fan-out efficiency, then one traced child that alternates
              traced and untraced rounds with one worker.  Prints the
              per-layer metrics, per round, and the tracing overhead (the
              traced round time over the untraced one).

Times are in reference seconds (see calibrate.py).  The last line of stdout
is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("split_sweep", "pattern_census", "extension_classify")
SETUP_SAMPLES = 21
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str,
              workdir: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MACBEATH_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(BENCH, "child.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--mode", mode, "--t0", repr(t0), "--workdir", workdir]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child of {workload} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, workdir: str,
               deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate.median_wall()
        child = run_child(workload, seed, seconds, "setup", workdir, deadline)
        setups.append(child["setup_s"] * calibrate.REFERENCE_S
                      / ((before + child["calibration_s"]) / 2))
    plain = run_child(workload, seed, seconds, "plain", workdir, deadline)
    ops = plain["ops_per_round"]
    return {
        "correct": plain["correct"], "attempted": plain["ops"],
        "failed": plain["failed"],
        "metrics": {
            "primes_per_s": metric(ops / plain["round_wall_ref_s"], "1/s"),
            "cpu_ms_per_prime": metric(1000.0 * plain["round_cpu_ref_s"] / ops, "ms"),
            "peak_rss_mb": metric(plain["peak_rss_mb"], "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
    }


def per_layer(workload: str, seed: int, seconds: float, workdir: str,
              deadline: float) -> dict:
    plain = run_child(workload, seed, seconds, "plain", workdir, deadline)
    traced = run_child(workload, seed, seconds, "traced", workdir, deadline)
    ops_per_round = traced["ops_per_round"]
    calls = traced["layers"]["calls"]
    total = traced["layers"]["total_s"]
    own = traced["layers"]["self_s"]
    uses_density = calls["density"] > 0

    def per_call_us(layer):
        return 1e6 * total[layer] / calls[layer] if calls[layer] else 0.0

    written, read = traced.get("cache_rows", (0, 0))
    m = {
        "numkit.sieve_s": metric(total["numkit.sieve"], "s"),
        "intpoly.build_s": metric(total["intpoly.build"], "s"),
        "gf.factor_calls": metric(calls["gf.factor"], "count"),
        "gf.factor_s": metric(total["gf.factor"], "s"),
        "gf.factor_us": metric(per_call_us("gf.factor"), "us"),
        "gf.factor_per_prime": metric(calls["gf.factor"] / ops_per_round, "count/op"),
        "gf.pattern_calls": metric(calls["gf.pattern"], "count"),
        "gf.pattern_s": metric(total["gf.pattern"], "s"),
        "gf.pattern_us": metric(per_call_us("gf.pattern"), "us"),
        "gf.sqrt_calls": metric(calls["gf.sqrt"], "count"),
        "gf.sqrt_s": metric(total["gf.sqrt"], "s"),
        "gf.sqrt_us": metric(per_call_us("gf.sqrt"), "us"),
        "gf.chi_calls": metric(calls["gf.chi"], "count"),
        "gf.chi_s": metric(total["gf.chi"], "s"),
        "census.census_calls": metric(calls["census.census"], "count"),
        "census.self_s": metric(own["census.census"], "s"),
        "census.oracle_calls": metric(calls["census.oracle"], "count"),
        "census.oracle_self_s": metric(own["census.oracle"], "s"),
        "density.self_s": metric(own["density"], "s"),
        "density.cache_rows_written": metric(written, "count"),
        "density.cache_rows_read": metric(read, "count"),
        "density.fanout_efficiency": metric(
            plain["cpu_s"] / (plain["workers"] * plain["wall_s"]) if uses_density
            else 0.0, "ratio"),
        "cli.self_s": metric(own["cli"], "s"),
        "trace.overhead_ratio": metric(
            traced["traced_round_wall_ref_s"] / traced["round_wall_ref_s"], "ratio"),
    }
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["ops"] + traced["ops"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": m,
    }


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "macbeath")):
        print(f"bench: no program source under {ROOT}/src", file=sys.stderr)
        return 1
    # compile once here so no child pays for writing bytecode
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    workdir = os.path.join(BENCH, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        result = measure(args.workload, args.seed, args.seconds, workdir,
                         start + DEADLINE_S)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
