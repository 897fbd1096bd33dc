"""Named verification suites binding the modules together.

Each suite replays a block of ground truth (the tabulated Psi_n(1) values,
the worked examples, the 400-prime census, the parity and oracle properties,
the long-run degree-pattern frequencies) and reports one pass/fail check per
item.  The same suites back the CLI `verify` subcommand and the acceptance
tests.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from . import census, density, refdata
from .errors import BadReduction, Inadmissible, IntegrityError
from .intpoly import psi_at_one
from .numkit import primes_upto

SUITES = ("table1", "examples", "appendix", "parity", "oracle", "patterns")


class Check(NamedTuple):
    name: str
    ok: bool
    expected: str
    actual: str


class SuiteReport(NamedTuple):
    suite: str
    checks: tuple[Check, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _finish(suite: str, checks: list[Check], start: float) -> SuiteReport:
    return SuiteReport(suite, tuple(checks), time.time() - start)


def table1() -> SuiteReport:
    start = time.time()
    checks = []
    for n, expected in sorted(refdata.PSI_AT_ONE_TABLE.items()):
        res = psi_at_one(n)
        ok = res.direct == expected and res.mobius == Fraction(expected)
        checks.append(Check(f"psi_at_one({n})", ok, str(expected),
                            f"{res.direct} (moebius {res.mobius})"))
    return _finish("table1", checks, start)


def examples() -> SuiteReport:
    start = time.time()
    checks = []
    for expect in refdata.WORKED_EXAMPLES:
        m, n, p = expect["m"], expect["n"], expect["p"]
        name = f"({m},{n},{p})"
        try:
            record = census.map_census(m, n, p)
        except (BadReduction, Inadmissible) as exc:
            checks.append(Check(name, False, "census record", f"error: {exc}"))
            continue
        problems = []
        if "q" in expect and record.field.q != expect["q"]:
            problems.append(f"q={record.field.q}!={expect['q']}")
        if "genus" in expect and record.genus != expect["genus"]:
            problems.append(f"genus={record.genus}!={expect['genus']}")
        if "classes" in expect and len(record.classes) != expect["classes"]:
            problems.append(f"classes={len(record.classes)}!={expect['classes']}")
        if "k" in expect and record.k != expect["k"]:
            problems.append(f"k={record.k}!={expect['k']}")
        if "s_values" in expect:
            got = sorted(c.s.coeffs[0] if c.s.coeffs else 0 for c in record.classes)
            if got != sorted(expect["s_values"]):
                problems.append(f"s={got}!={sorted(expect['s_values'])}")
        if "outer_s" in expect:
            got = sorted(c.s.coeffs[0] if c.s.coeffs else 0
                         for c in record.classes if c.regularity == census.OUTER)
            if got != sorted(expect["outer_s"]):
                problems.append(f"outer s={got}!={sorted(expect['outer_s'])}")
        expected = ", ".join(f"{key}={val}" for key, val in expect.items()
                             if key not in ("m", "n", "p"))
        checks.append(Check(name, not problems, expected,
                            "; ".join(problems) if problems else "matches"))
    return _finish("examples", checks, start)


def appendix(workers: int | None = None) -> SuiteReport:
    start = time.time()
    checks = []
    result = density.sweep(3, 7, density.default_stream(3, 7, first=400),
                           workers=workers)
    got = {key: [] for key in refdata.SIGMA_LISTS}
    for rec in result.records:
        got[(rec.k, "+" if rec.residue == 1 else "-")].append(rec.p)
    for key in sorted(refdata.SIGMA_LISTS):
        expected = refdata.SIGMA_LISTS[key]
        actual = tuple(got[key])
        k, sign = key
        checks.append(Check(
            f"sigma_{k}^{sign} membership", actual == expected,
            f"{len(expected)} primes", f"{len(actual)} primes, "
            + ("element-for-element match" if actual == expected else "MISMATCH")))
    split = tuple(len(got[(k, s)]) for k in range(4) for s in "+-")
    checks.append(Check("split counts", split == refdata.SPLIT_COUNTS,
                        str(refdata.SPLIT_COUNTS), str(split)))
    aggregate = tuple(result.tally.counts[k] for k in range(4))
    checks.append(Check("aggregate counts", aggregate == refdata.AGGREGATE_COUNTS,
                        str(refdata.AGGREGATE_COUNTS), str(aggregate)))
    # reconcile with the printed tabulation: moving 8693 back to the + column
    # must reproduce its split sizes, so the only deltas are the known typos
    src_key, dst_key, moved = refdata.PRINTED_MISFILED
    printed = list(split)
    printed[2 * 1 + 0] += 1  # k=1, '+' column
    printed[2 * 1 + 1] -= 1
    ok = (tuple(printed) == refdata.PRINTED_SPLIT_COUNTS
          and moved in got[dst_key] and moved not in got[src_key])
    checks.append(Check("printed-tabulation reconciliation", ok,
                        f"{refdata.PRINTED_SPLIT_COUNTS} after refiling {moved}",
                        str(tuple(printed))))
    checks.append(Check("no skipped primes", not result.tally.skipped,
                        "()", str(result.tally.skipped)))
    return _finish("appendix", checks, start)


def _parity_chunk(args) -> tuple:
    # (p, k) of every classified prime is kept for n = 7, whose k-parity
    # laws parity() checks after the pool
    n, chunk = args
    odd_d = 0
    failures = []
    k_rows = []
    for p in chunk:
        try:
            record = census.map_census(3, n, p, traces=False)
        except (BadReduction, Inadmissible):
            continue
        except IntegrityError as exc:
            failures.append(f"p={p}: {exc}")
            continue
        if n == 7:
            k_rows.append((p, record.k))
        if record.field.d % 2:
            odd_d += 1
            if not record.parity.consistent:
                failures.append(f"p={p}: inconsistent parity")
    return n, odd_d, failures, k_rows


def parity(bound: int = 10**4, workers: int | None = None) -> SuiteReport:
    start = time.time()
    workers = density.default_workers() if workers is None else workers
    primes = primes_upto(bound)
    args = []
    for n in range(7, 20):
        for chunk in density._chunked(primes, workers):
            args.append((n, chunk))
    rows = density._pool_map(_parity_chunk, args, workers)
    per_n: dict[int, tuple[int, list[str]]] = {}
    k_of_n7 = []
    for n, odd_d, failures, k_rows in rows:
        count, fails = per_n.get(n, (0, []))
        per_n[n] = (count + odd_d, fails + failures)
        k_of_n7.extend(k_rows)
    checks = []
    for n in sorted(per_n):
        count, fails = per_n[n]
        checks.append(Check(f"parity n={n}", not fails,
                            "0 violations",
                            f"{len(fails)} violations over {count} odd-d primes"
                            + (f": {fails[:3]}" if fails else "")))
    # k_p odd iff p = 1 mod 4, for p = +-1 mod 7 (n = 7 parity theorem)
    bad = []
    d3_bad = []
    for p, k in k_of_n7:
        if p % 7 in (1, 6):
            if (k % 2 == 1) != (p % 4 == 1):
                bad.append(p)
        elif p != 2:
            # unique class: inner exactly when p = 1 mod 4
            if (k == 1) != (p % 4 == 1):
                d3_bad.append(p)
    checks.append(Check("k_p odd iff p=1 mod 4 (type {3,7})", not bad,
                        "0 exceptions", f"{len(bad)} exceptions {bad[:5]}"))
    checks.append(Check("q=p^3 class inner iff p=1 mod 4 (type {3,7})", not d3_bad,
                        "0 exceptions", f"{len(d3_bad)} exceptions {d3_bad[:5]}"))
    return _finish("parity", checks, start)


def _oracle_chunk(args) -> tuple:
    n, chunk = args
    agreed = degenerate = 0
    failures = []
    for p in chunk:
        try:
            record = census.map_census(3, n, p)
        except (BadReduction, Inadmissible):
            continue
        for cls in record.classes:
            try:
                witness = census.matrix_oracle(n, p, cls, record.field.d)
            except (IntegrityError, Inadmissible) as exc:
                failures.append(f"p={p} factor={cls.factor}: {exc}")
                continue
            agreed += 1
            degenerate += witness.degenerate
    return n, agreed, degenerate, failures


def oracle(bound: int = 500, workers: int | None = None) -> SuiteReport:
    start = time.time()
    workers = density.default_workers() if workers is None else workers
    odd_primes = [p for p in primes_upto(bound) if p != 2]
    args = []
    for n in (7, 9, 11):
        for chunk in density._chunked(odd_primes, workers):
            args.append((n, chunk))
    rows = density._pool_map(_oracle_chunk, args, workers)
    per_n: dict[int, list] = {}
    for n, agreed, degenerate, failures in rows:
        entry = per_n.setdefault(n, [0, 0, []])
        entry[0] += agreed
        entry[1] += degenerate
        entry[2].extend(failures)
    checks = []
    total_degenerate = 0
    for n in sorted(per_n):
        agreed, degenerate, failures = per_n[n]
        total_degenerate += degenerate
        checks.append(Check(f"matrix oracle n={n}", not failures,
                            "oracle = character criterion on every class",
                            f"{agreed} classes agreed, {degenerate} degenerate"
                            + (f", FAILURES {failures[:3]}" if failures else "")))
    checks.append(Check("degenerate beta=0 branch exercised", total_degenerate > 0,
                        ">= 1", str(total_degenerate)))
    # route equivalence: s-values via trace roots match the factored f1
    route_failures = []
    route_count = 0
    for n in range(7, 17):
        for p in primes_upto(bound):
            try:
                left, right = census.route_product(3, n, p)
            except (BadReduction, Inadmissible):
                continue
            route_count += 1
            if left != right:
                route_failures.append((n, p))
    checks.append(Check("trace-route equivalence n<=16", not route_failures,
                        "identical multisets", f"{route_count} cases checked"
                        + (f", FAILURES {route_failures[:3]}" if route_failures else "")))
    return _finish("oracle", checks, start)


def patterns(bound: int = 10**6, workers: int | None = None) -> SuiteReport:
    start = time.time()
    result = density.pattern_census(3, 7, bound, workers=workers)
    checks = []
    predicted = result.predicted
    assert predicted is not None
    for pattern in sorted(predicted):
        freq = result.frequencies.get(pattern, Fraction(0))
        dev = abs(freq - predicted[pattern])
        checks.append(Check(f"pattern {pattern}", dev < Fraction(1, 100),
                            f"within 0.01 of {predicted[pattern]}",
                            f"{float(freq):.5f} (dev {float(dev):.5f})"))
    unexpected = set(result.counts) - set(predicted)
    checks.append(Check("no unpredicted patterns", not unexpected,
                        "set()", str(unexpected or "set()")))
    checks.append(Check("linear factors = 2*k_p", result.bridge_violations == 0,
                        f"0 violations over {result.bridge_checked} primes",
                        f"{result.bridge_violations} violations"))
    checks.append(Check("bad primes excluded", result.skipped == (2, 7),
                        "(2, 7)", str(result.skipped)))
    return _finish("patterns", checks, start)


def run_suite(name: str, *, workers: int | None = None,
              bound: int | None = None) -> SuiteReport:
    if name == "table1":
        return table1()
    if name == "examples":
        return examples()
    if name == "appendix":
        return appendix(workers=workers)
    if name == "parity":
        return parity(bound=bound or 10**4, workers=workers)
    if name == "oracle":
        return oracle(bound=bound or 500, workers=workers)
    if name == "patterns":
        return patterns(bound=bound or 10**6, workers=workers)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
