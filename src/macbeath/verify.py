"""Named verification suites binding the modules together.

Each suite replays a block of ground truth (the tabulated Psi_n(1) values,
the worked examples, the 400-prime census, the parity and oracle properties,
the long-run degree-pattern frequencies) and reports one pass/fail check per
item.  The same suites back the CLI `verify` subcommand and the acceptance
tests.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import census, density, refdata
from .errors import BadReduction, Inadmissible, IntegrityError
from .intpoly import psi_at_one
from .numkit import primes_upto

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


def _over(checked: int, name: str, ok: bool, expected: str, actual: str) -> Check:
    """A check over `checked` cases: none checked fails, it does not pass on no data."""
    if not checked:
        return Check(name, False, expected, "no cases checked")
    return Check(name, ok, expected, actual)


def table1() -> SuiteReport:
    from fractions import Fraction

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
        except (BadReduction, Inadmissible, IntegrityError) as exc:
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
            got = sorted(c.s for c in record.classes)
            if got != sorted(expect["s_values"]):
                problems.append(f"s={got}!={sorted(expect['s_values'])}")
        if "outer_s" in expect:
            got = sorted(c.s for c in record.classes if c.regularity == census.OUTER)
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
    columns = [(k, s) for k in range(4) for s in "+-"]
    split = tuple(len(got[key]) for key in columns)
    checks.append(Check("split counts", split == refdata.SPLIT_COUNTS,
                        str(refdata.SPLIT_COUNTS), str(split)))
    aggregate = tuple(result.tally.counts[k] for k in range(4))
    checks.append(Check("aggregate counts", aggregate == refdata.AGGREGATE_COUNTS,
                        str(refdata.AGGREGATE_COUNTS), str(aggregate)))
    # reconcile with the printed tabulation: moving the misfiled prime back to its
    # printed column must reproduce its split sizes, so the only deltas are the
    # known typos; each typo's fix is in its computed list, no printed value swept
    src_key, dst_key, moved = refdata.PRINTED_MISFILED
    printed = list(split)
    printed[columns.index(src_key)] += 1
    printed[columns.index(dst_key)] -= 1
    swept = {rec.p for rec in result.records}
    typos = [f"{typo}->{fixed}" for key, typo, fixed in refdata.PRINTED_TYPO_CORRECTIONS
             if fixed not in got[key] or typo in swept]
    ok = (tuple(printed) == refdata.PRINTED_SPLIT_COUNTS and not typos
          and moved in got[dst_key] and moved not in got[src_key])
    checks.append(Check("printed-tabulation reconciliation", ok,
                        f"{refdata.PRINTED_SPLIT_COUNTS} after refiling {moved}, "
                        f"{len(refdata.PRINTED_TYPO_CORRECTIONS)} typo fixes computed",
                        str(tuple(printed)) + (f", typo fixes not computed: {typos}"
                                               if typos else "")))
    checks.append(Check("no skipped primes", not result.tally.skipped,
                        "()", str(result.tally.skipped)))
    return _finish("appendix", checks, start)


def _parity_row(item: tuple[int, int]) -> tuple | None:
    """(k, d odd, failure or None) for one (n, p), None when p is skipped;
    k is None when the census itself failed, as it does on a parity
    violation (`census._parity` raises IntegrityError)."""
    n, p = item
    try:
        field, k, _, _, _, _ = census.summary(3, n, p)
    except (BadReduction, Inadmissible):
        return None
    except IntegrityError as exc:
        return None, False, f"p={p}: {exc}"
    return k, bool(field.d % 2), None


def parity(bound: int = 10**4, workers: int | None = None) -> SuiteReport:
    start = time.time()
    primes = primes_upto(bound)
    items = [(n, p) for n in range(7, 20) for p in primes]
    per_n = {n: [0, []] for n in range(7, 20)}  # odd-d primes, failures
    k_of_n7 = []
    for (n, p), row in zip(items, density._fan_out(_parity_row, items, workers)):
        if row is None:
            continue
        k, odd_d, failure = row
        per_n[n][0] += odd_d
        if failure:
            per_n[n][1].append(failure)
        # k-parity laws for n = 7, checked below
        if n == 7 and k is not None:
            k_of_n7.append((p, k))
    checks = []
    for n in sorted(per_n):
        count, fails = per_n[n]
        checks.append(_over(count, f"parity n={n}", not fails,
                            "0 violations",
                            f"{len(fails)} violations over {count} odd-d primes"
                            + (f": {fails[:3]}" if fails else "")))
    # k_p odd iff p = 1 mod 4, for p = +-1 mod 7 (n = 7 parity theorem); on
    # the other odd p the unique class is inner exactly when p = 1 mod 4
    split = [(p, k % 2 == 1) for p, k in k_of_n7 if p % 7 in (1, 6)]
    inert = [(p, k == 1) for p, k in k_of_n7 if p % 7 not in (1, 6) and p != 2]
    bad = [p for p, odd in split if odd != (p % 4 == 1)]
    d3_bad = [p for p, inner in inert if inner != (p % 4 == 1)]
    checks.append(_over(len(split), "k_p odd iff p=1 mod 4 (type {3,7})", not bad,
                        "0 exceptions", f"{len(bad)} exceptions {bad[:5]}"))
    checks.append(_over(len(inert), "q=p^3 class inner iff p=1 mod 4 (type {3,7})",
                        not d3_bad, "0 exceptions",
                        f"{len(d3_bad)} exceptions {d3_bad[:5]}"))
    return _finish("parity", checks, start)


def _oracle_row(item: tuple[int, int]) -> tuple | None:
    """(classes agreed, degenerate, failures) for one (n, p), None when p is
    skipped."""
    n, p = item
    try:
        # the oracle derives its own trace from each class
        record = census.map_census(3, n, p, traces=False)
    except (BadReduction, Inadmissible):
        return None
    agreed = degenerate = 0
    failures = []
    for cls in record.classes:
        try:
            witness = census.matrix_oracle(cls)
        except (IntegrityError, Inadmissible) as exc:
            failures.append(f"p={p} factor={cls.factor}: {exc}")
            continue
        agreed += 1
        degenerate += witness.degenerate
    return agreed, degenerate, failures


def _route_row(item: tuple[int, int]) -> bool | None:
    """Whether the trace route and the factored f1 give the same s-values
    for one (n, p); None when p is skipped."""
    try:
        left, right = census.route_product(3, *item)
    except (BadReduction, Inadmissible):
        return None
    return left == right


def oracle(bound: int = 500, workers: int | None = None) -> SuiteReport:
    start = time.time()
    primes = primes_upto(bound)
    items = [(n, p) for n in (7, 9, 11) for p in primes if p != 2]
    per_n: dict[int, list] = {n: [0, 0, []] for n in (7, 9, 11)}
    for (n, _), row in zip(items, density._fan_out(_oracle_row, items, workers)):
        if row is not None:
            entry = per_n[n]
            entry[0] += row[0]
            entry[1] += row[1]
            entry[2].extend(row[2])
    checks = []
    total_degenerate = 0
    for n in sorted(per_n):
        agreed, degenerate, failures = per_n[n]
        total_degenerate += degenerate
        checks.append(_over(agreed + len(failures), f"matrix oracle n={n}", not failures,
                            "oracle = character criterion on every class",
                            f"{agreed} classes agreed, {degenerate} degenerate"
                            + (f", FAILURES {failures[:3]}" if failures else "")))
    checks.append(Check("degenerate beta=0 branch exercised", total_degenerate > 0,
                        ">= 1", str(total_degenerate)))
    # route equivalence: s-values via trace roots match the factored f1
    items = [(n, p) for n in range(7, 17) for p in primes]
    rows = density._fan_out(_route_row, items, workers)
    route_failures = [item for item, same in zip(items, rows) if same is False]
    route_count = sum(same is not None for same in rows)
    checks.append(_over(route_count, "trace-route equivalence n<=16", not route_failures,
                        "identical multisets", f"{route_count} cases checked"
                        + (f", FAILURES {route_failures[:3]}" if route_failures else "")))
    return _finish("oracle", checks, start)


def patterns(bound: int = 10**6, workers: int | None = None) -> SuiteReport:
    from fractions import Fraction

    start = time.time()
    result = density.pattern_census(3, 7, bound, workers=workers)
    checks = []
    predicted = result.predicted
    if predicted is None:
        raise IntegrityError("no predicted pattern densities for the {3,7} census")
    for pattern in sorted(predicted):
        freq = result.frequencies.get(pattern, Fraction(0))
        dev = abs(freq - predicted[pattern])
        checks.append(_over(result.total, f"pattern {pattern}", dev < Fraction(1, 100),
                            f"within 0.01 of {predicted[pattern]}",
                            f"{float(freq):.5f} (dev {float(dev):.5f})"))
    unexpected = set(result.counts) - set(predicted)
    checks.append(_over(result.total, "no unpredicted patterns", not unexpected,
                        "set()", str(unexpected or "set()")))
    checks.append(_over(result.bridge_checked, "linear factors = 2*k_p",
                        result.bridge_violations == 0,
                        f"0 violations over {result.bridge_checked} primes",
                        f"{result.bridge_violations} violations"))
    checks.append(Check("bad primes excluded", result.skipped == (2, 7),
                        "(2, 7)", str(result.skipped)))
    return _finish("patterns", checks, start)


# name -> (suite, the arguments of run_suite it takes)
_SUITES = {
    "table1": (table1, ()),
    "examples": (examples, ()),
    "appendix": (appendix, ("workers",)),
    "parity": (parity, ("workers", "bound")),
    "oracle": (oracle, ("workers", "bound")),
    "patterns": (patterns, ("workers", "bound")),
}
SUITES = tuple(_SUITES)


def run_suite(name: str, *, workers: int | None = None,
              bound: int | None = None) -> SuiteReport:
    """Run a named suite.  A bound that is not None replaces the suite's
    default, which only its own signature holds; a suite without one
    rejects it."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    suite, takes = _SUITES[name]
    if bound is not None and "bound" not in takes:
        raise ValueError(f"suite {name} takes no bound")
    given = {"workers": workers, "bound": bound}
    return suite(**{arg: given[arg] for arg in takes if given[arg] is not None})
