"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The expensive sweeps (the 400-prime census, the 10^4 parity fuzz, the 10^6
degree-pattern census, the matrix-oracle sweep) run once in module-scoped
fixtures and are shared by the tests that grade them.
"""

import random
import time
from fractions import Fraction

import pytest

from irreducibles import find_irreducible
from macbeath import density, verify
from macbeath.gf import FieldCtx, chi, degree_pattern, reduce_and_factor
from macbeath.intpoly import IntPoly, discriminant, s_polynomial
from macbeath.numkit import primes_upto

WORKERS = 2


def grade(number, name, report=None, ok=None, detail=""):
    passed = report.passed if report is not None else ok
    line = f"ACCEPTANCE {number}: {name}: {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    if report is not None and not report.passed:
        for c in report.checks:
            if not c.ok:
                print(f"    failed check {c.name}: expected {c.expected}, got {c.actual}")
    assert passed, line


@pytest.fixture(scope="module")
def appendix_report():
    return verify.appendix(workers=1)


@pytest.fixture(scope="module")
def parity_report():
    return verify.parity(bound=10**4, workers=WORKERS)


@pytest.fixture(scope="module")
def oracle_report():
    return verify.oracle(bound=500, workers=WORKERS)


@pytest.fixture(scope="module")
def patterns_report():
    return verify.patterns(bound=10**6, workers=WORKERS)


def test_criterion_1_table1_reproduction():
    report = verify.table1()
    assert report.elapsed < 1.0, f"table1 took {report.elapsed:.2f}s (budget 1s)"
    grade(1, "Table-1 reproduction", report,
          detail=f"({len(report.checks)} values, {report.elapsed:.3f}s)")


def test_criterion_2_appendix_reproduction(appendix_report):
    assert appendix_report.elapsed < 5.0, \
        f"appendix sweep took {appendix_report.elapsed:.2f}s single-threaded (budget 5s)"
    grade(2, "Appendix reproduction", appendix_report,
          detail=f"(400 primes element-for-element, {appendix_report.elapsed:.2f}s)")


def density_convergence() -> verify.SuiteReport:
    """Empirical Sigma_k frequencies of the 400-prime sweep vs the predictions."""
    start = time.time()
    result = density.sweep(3, 7, density.default_stream(3, 7, first=400))
    tally = result.tally
    checks = []
    expected_freq = (Fraction(12, 100), Fraction(385, 1000),
                     Fraction(3775, 10000), Fraction(1175, 10000))
    got = tuple(tally.frequencies[k] for k in range(4))
    checks.append(verify.Check("frequencies", got == expected_freq,
                               "(0.12, 0.385, 0.3775, 0.1175)",
                               str(tuple(float(f) for f in got))))
    predicted = tally.predicted
    for k in range(4):
        dev = abs(got[k] - predicted[k])
        checks.append(verify.Check(f"|freq - predicted| for k={k}", dev < Fraction(5, 100),
                                   f"< 0.05 from {predicted[k]}", f"{float(dev):.4f}"))
    return verify.SuiteReport("density", tuple(checks), time.time() - start)


def test_criterion_3_density_convergence():
    report = density_convergence()
    grade(3, "Density convergence", report)


def test_criterion_4_worked_examples():
    report = verify.examples()
    assert report.elapsed < 2.0, f"examples took {report.elapsed:.2f}s (budget 2s)"
    grade(4, "Worked-example census suite", report,
          detail=f"({len(report.checks)} records, {report.elapsed:.2f}s)")


def test_criterion_5_parity_property(parity_report):
    grade(5, "Parity property (incl. k_p mod-4 law for n=7)", parity_report,
          detail=f"({parity_report.elapsed:.1f}s)")


def test_criterion_6_oracle_equivalence(oracle_report):
    matrix_checks = [c for c in oracle_report.checks
                     if c.name.startswith(("matrix oracle", "degenerate"))]
    ok = all(c.ok for c in matrix_checks)
    grade(6, "Matrix-oracle equivalence", ok=ok,
          detail="; ".join(f"{c.name}: {c.actual}" for c in matrix_checks))


def test_criterion_7_route_equivalence(oracle_report):
    route_checks = [c for c in oracle_report.checks if "route" in c.name]
    assert route_checks
    ok = all(c.ok for c in route_checks)
    grade(7, "Trace-route equivalence", ok=ok,
          detail=route_checks[0].actual)


def test_criterion_8_frobenius_pattern_census(patterns_report):
    assert patterns_report.elapsed <= 600, \
        f"pattern census took {patterns_report.elapsed:.0f}s (budget 600s)"
    grade(8, "Frobenius pattern census to 10^6", patterns_report,
          detail=f"({patterns_report.elapsed:.0f}s on {WORKERS} workers)")


def test_criterion_9a_chi_exhaustive_tables():
    # every prime field q <= 2000, against a brute-force squares table
    for p in primes_upto(2000):
        squares = {b * b % p for b in range(1, p)}
        ctx = FieldCtx.checked(p, [0, 1])
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert chi(ctx, ctx.value(a)) == expected, (p, a)
    # every proper prime power q <= 2000
    extensions = 0
    for p in primes_upto(44):
        e = 2
        while p**e <= 2000:
            ctx = FieldCtx.checked(p, find_irreducible(p, e))
            q = p**e
            squares = set()
            for i in range(1, q):
                b = ctx.element_at(i)
                squares.add(ctx.coeffs(ctx.mul(b, b)))
            for i in range(q):
                a = ctx.element_at(i)
                expected = 0 if not a else (1 if ctx.coeffs(a) in squares else -1)
                assert chi(ctx, a) == expected, (p, e, i)
            extensions += 1
            e += 1
    grade("9a", "chi vs exhaustive square tables, q <= 2000", ok=True,
          detail=f"({extensions} extension fields)")


def test_criterion_9b_factorization_reconstructs():
    rng = random.Random(2026)
    cases = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 13, 97, 1009, 65537])
        deg = rng.randrange(1, 10)
        f = IntPoly([rng.randrange(-99, 100) for _ in range(deg)] + [1])
        factored = reduce_and_factor(f, p)
        product = IntPoly([1])
        for g, mult in factored.factors:
            for _ in range(mult):
                product = product * IntPoly(g)
        assert product.degree == f.degree
        assert [c % p for c in product.coeffs] == [c % p for c in f.coeffs], (p, f)
        cases += 1
    grade("9b", "factor products reconstruct inputs", ok=True,
          detail=f"({cases} cases, independent exact re-multiplication)")


def test_criterion_9c_equal_degree_invariant():
    checked = 0
    for n in range(7, 31):
        f1 = s_polynomial(3, n)
        disc = discriminant(f1)
        for p in primes_upto(10**4):
            if disc % p == 0:
                continue
            pattern = degree_pattern(f1, p)
            assert len(set(pattern)) == 1, (n, p, pattern)
            checked += 1
    grade("9c", "equal factor degrees over the fuzz range", ok=True,
          detail=f"({checked} factorizations, zero exceptions)")
