"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  setup    import the package, make the inputs, warm up, report set-up time
  plain    set up, then run whole rounds untraced for --seconds
  traced   set up, then alternate traced and untraced rounds with one worker

Set-up time runs from --t0, the parent's monotonic clock just before it
started this process, so it includes interpreter start-up.  Prints one JSON
object on stdout.

Each unit of a round is bracketed by calibration runs (calibrate.py), and
its wall and CPU time are recorded as multiples of the calibration time next
to it.  A unit's cost is the median of those multiples over the run's
rounds; the round's cost in reference seconds is their sum times
calibrate.REFERENCE_S.  Set-up time is scaled the same way, by calibrations
run just before the process starts (in the parent) and just after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "macbeath", "cli.py")):
        sys.exit(f"bench: no program source under {src}")
    sys.path.insert(0, src)
    import macbeath.cli

    if not os.path.abspath(macbeath.cli.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported {macbeath.cli.__file__}, not the checkout's copy")


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    _import_program()
    import calibrate
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workers = workload.workers if args.mode == "plain" else 1
    inputs = workload.make_inputs(args.seed)
    workload.warm_up(inputs, workers, args.workdir)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s,
                          "calibration_s": calibrate.median_wall()}))
        return 0

    units = workload.units(inputs, workers, args.workdir)
    stats = layers.LayerStats()
    # traced -> unit key -> [(wall, cpu) as multiples of the calibration]
    multiples: dict[bool, dict] = {False: {}, True: {}}
    traced_calibrations = []
    rounds = failed = traced_rounds = 0
    first_outputs, repeatable = None, True
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    before = calibrate.measure()
    while True:
        traced = args.mode == "traced" and rounds % 2 == 0
        if traced:
            stats.install()
        outputs = {}
        try:
            for unit in units:
                cpu_start, start = _cpu_seconds(), time.perf_counter()
                ok, outputs[unit.key] = unit.run()
                wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu_start
                after = calibrate.measure()
                cal_wall, cal_cpu = (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
                multiples[traced].setdefault(unit.key, []).append(
                    (wall / cal_wall, cpu / cal_cpu))
                if traced:
                    traced_calibrations.append(cal_wall)
                before = after
                failed += 0 if ok else unit.ops
        finally:
            if traced:
                stats.uninstall()
        rounds += 1
        traced_rounds += traced
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            repeatable = False
        elapsed = time.perf_counter() - wall0
        if elapsed >= args.seconds and (args.mode == "plain" or rounds % 2 == 0):
            break
    cpu_total = _cpu_seconds() - cpu0
    rss = _peak_rss_mb()

    problems = workload.check(inputs, first_outputs)
    if not repeatable:
        problems.append("a later round's output differs from the first round's")
    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    def round_cost(traced: bool, index: int) -> float:
        """Reference seconds of one round: per-unit medians, summed."""
        return calibrate.REFERENCE_S * sum(
            statistics.median(m[index] for m in ms) for ms in multiples[traced].values())

    ops_per_round = sum(unit.ops for unit in units)
    result = {
        "setup_s": setup_s, "workers": workers, "correct": not problems,
        "ops": ops_per_round * rounds, "failed": failed, "rounds": rounds,
        "ops_per_round": ops_per_round, "wall_s": elapsed, "cpu_s": cpu_total,
        "peak_rss_mb": rss,
        "round_wall_ref_s": round_cost(False, 0),
        "round_cpu_ref_s": round_cost(False, 1),
    }
    if args.mode == "traced":
        scale = calibrate.REFERENCE_S / statistics.median(traced_calibrations)
        result["traced_round_wall_ref_s"] = round_cost(True, 0)
        result["layers"] = {
            "calls": {k: v / traced_rounds for k, v in stats.calls.items()},
            "total_s": {k: v * scale / traced_rounds for k, v in stats.total.items()},
            "self_s": {k: v * scale / traced_rounds for k, v in stats.self_time.items()}}
    if hasattr(workload, "cache_rows"):
        result["cache_rows"] = workload.cache_rows(first_outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
