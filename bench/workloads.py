"""The three workloads: inputs from a seed, a warm-up, the timed units, the checks.

Every workload drives the CLI in-process (`cli.main` with stdout captured),
so a unit costs what a user's command costs minus interpreter start-up.

A round runs every unit of the workload once, in a fixed order; a run
attempts whole rounds only, so the failure share cannot depend on the run
length.  Each unit is timed on its own, between two calibration runs, and
its cost is the median of its calibration multiples over the rounds (see
child.py).
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
import sys
from typing import Callable, NamedTuple

import check_split_sweep
import refmath


class Unit(NamedTuple):
    key: object
    ops: int                       # operations the unit attempts
    run: Callable[[], tuple]       # -> (all commands exited 0, output)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`macbeath <argv>` in this process: exit code and captured stdout."""
    from macbeath import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            print(f"bench: macbeath {' '.join(argv)} raised {exc!r}", file=sys.stderr)
            code = -1
    return code, out.getvalue()


def _line_count(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


class SplitSweep:
    """`sweep --format csv --workers 1` over split primes for a mix of n.

    One unit is one n, swept in two passes through one --cache file: the
    lower half of the range first, then the whole range resumed from the
    cache.  An operation is one prime of the stream.
    """

    name = "split_sweep"
    workers = 1
    # n -> base bound; f1 has degree 3, 3, 5, 6, 3, 4, 9.  The n = 7 bound
    # covers the first 400 primes = +-1 mod 7 (the 400th is 9871).
    BOUNDS = {7: 10_000, 9: 8_000, 11: 10_000, 13: 8_000, 14: 10_000,
              16: 10_000, 19: 7_000}
    JITTER = 0.05

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        plan = []
        for n, base in self.BOUNDS.items():
            bound = base + rng.randrange(int(base * self.JITTER) + 1)
            plan.append((n, bound // 2, bound, len(check_split_sweep.stream(n, bound))))
        return {"plan": plan}

    def warm_up(self, inputs: dict, workers: int, workdir: str) -> None:
        for n, _, _, _ in inputs["plan"]:
            self._sweep_pair(n, 300, 600, workers, workdir)

    @staticmethod
    def _sweep_pair(n, lower, bound, workers, workdir):
        cache = os.path.join(workdir, f"sweep_{n}.jsonl")
        if os.path.exists(cache):
            os.remove(cache)
        common = ["sweep", "--n", str(n), "--format", "csv",
                  "--workers", str(workers), "--cache", cache]
        code1, first = run_cli(common + ["--bound", str(lower)])
        rows_read = _line_count(cache)
        code2, full = run_cli(common + ["--bound", str(bound)])
        rows_written = _line_count(cache)
        if os.path.exists(cache):
            os.remove(cache)
        return code1 == code2 == 0, (first, full, rows_written, rows_read)

    def units(self, inputs: dict, workers: int, workdir: str) -> list[Unit]:
        return [Unit(n, count, functools.partial(self._sweep_pair, n, lower, bound,
                                                 workers, workdir))
                for n, lower, bound, count in inputs["plan"]]

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        problems = []
        for n, lower, bound, _ in inputs["plan"]:
            first, full, written, read = outputs[n]
            disc = refmath.sympy_discriminant(refmath.sympy_f1(n))
            problems += check_split_sweep.check(n, lower, bound, first, full,
                                                written, read, disc)
        return problems

    @staticmethod
    def cache_rows(outputs: dict) -> tuple[int, int]:
        """(rows written, rows read) over one round."""
        return (sum(o[2] for o in outputs.values()),
                sum(o[3] for o in outputs.values()))


class PatternCensus:
    """`pattern --format json --workers 2` over all primes up to a bound.

    One unit is one n; an operation is one prime up to the bound.
    """

    name = "pattern_census"
    workers = min(2, os.cpu_count() or 1)
    BOUNDS = {7: 30_000, 11: 15_000}
    JITTER = 0.05
    SAMPLE = 40  # primes per n whose pattern is compared with sympy

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        plan = []
        for n, base in self.BOUNDS.items():
            bound = base + rng.randrange(int(base * self.JITTER) + 1)
            primes = refmath.primes_upto(bound)
            sample = sorted(rng.sample(primes[2:], self.SAMPLE))
            plan.append((n, bound, len(primes), sample))
        return {"plan": plan}

    def warm_up(self, inputs: dict, workers: int, workdir: str) -> None:
        for n, _, _, _ in inputs["plan"]:
            self._census(n, 3000, workers)

    @staticmethod
    def _census(n, bound, workers):
        code, out = run_cli(["pattern", "--n", str(n), "--bound", str(bound),
                             "--format", "json", "--workers", str(workers)])
        return code == 0, out

    def units(self, inputs: dict, workers: int, workdir: str) -> list[Unit]:
        return [Unit(n, count, functools.partial(self._census, n, bound, workers))
                for n, bound, count, _ in inputs["plan"]]

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        import check_pattern_census
        from macbeath import gf, intpoly

        problems = []
        for n, bound, _, sample in inputs["plan"]:
            f2 = intpoly.doubled(intpoly.s_polynomial(3, n))
            problems += check_pattern_census.check(
                n, bound, outputs[n], sample,
                functools.partial(gf.degree_pattern, f2))
        return problems


class ExtensionClassify:
    """`classify --format json` (with traces) and `oracle --format json` for
    a seeded sample of (n, p) with d > 1.

    The primes are those from 3 to 500: the range over which the program's
    own acceptance suite checks the matrix oracle against the character
    (n = 7, 9, 11) and the trace route against the s-value route (n <= 16),
    the two paths this workload runs; the paper's worked examples all lie
    in it.  p = 2 is left out because the oracle's witness construction
    needs 2 invertible, and the program rejects a p dividing N (f1 is not
    squarefree mod p).  The sample is
    stratified: half of the primes of every (n, d), so the cost mix barely
    moves with the seed.  Even field degrees are included on purpose: they
    take the square-root path whose cost grows with p.  One unit, and one
    operation, is one pair.
    """

    name = "extension_classify"
    workers = 1
    NS = (7, 8, 9, 11, 13, 16, 19)
    PRIMES = (3, 500)
    SHARE = 0.5

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        primes = [p for p in refmath.primes_upto(self.PRIMES[1]) if p >= self.PRIMES[0]]
        pairs, warm = [], []
        for n in self.NS:
            N = refmath.trace_modulus(n)
            strata: dict[int, list[int]] = {}
            for p in primes:
                d = refmath.signed_order(p, N) if N % p else 1
                if d > 1:
                    strata.setdefault(d, []).append(p)
            for d in sorted(strata):
                size = max(1, round(len(strata[d]) * self.SHARE))
                pairs += [(n, p) for p in sorted(rng.sample(strata[d], size))]
            warm.append((n, min(ps[0] for ps in strata.values())))
        return {"pairs": pairs, "warm": warm}

    def warm_up(self, inputs: dict, workers: int, workdir: str) -> None:
        # the same pairs for every seed, so set-up time does not follow the seed
        for n, p in inputs["warm"]:
            self._pair(n, p)

    @staticmethod
    def _pair(n, p):
        args = ["--n", str(n), "--p", str(p), "--format", "json"]
        code1, classified = run_cli(["classify"] + args)
        code2, witnessed = run_cli(["oracle"] + args)
        return code1 == code2 == 0, (classified, witnessed)

    def units(self, inputs: dict, workers: int, workdir: str) -> list[Unit]:
        return [Unit((n, p), 1, functools.partial(self._pair, n, p))
                for n, p in inputs["pairs"]]

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        import check_extension_classify
        from macbeath import census

        problems = []
        for n, p in inputs["pairs"]:
            classified, witnessed = outputs[(n, p)]
            problems += check_extension_classify.check(
                n, p, classified, witnessed, census.record_from_json,
                census.record_to_dict)
        return problems


WORKLOADS = {w.name: w for w in (SplitSweep(), PatternCensus(), ExtensionClassify())}
