"""Output checks for the split_sweep workload.

Every k is recomputed by the benchmark's own route (refmath.split_k: a root
of unity of order N in F_p or F_{p^2}, s_j = 3 - t_j^2, Euler's criterion),
the skipped primes are compared with the prime divisors of disc f1 computed
by sympy, and the n = 7 sweep is held to the parity rule and to the
appendix's aggregate counts.
"""

from __future__ import annotations

import csv

import refmath

APPENDIX_N = 7
APPENDIX_FIRST = 400
APPENDIX_COUNTS = (48, 154, 151, 47)  # |Sigma_0..3| over the first 400 primes


def parse_sweep_csv(text: str) -> dict[int, dict[str, str]]:
    """Rows of `sweep --format csv` keyed by p; comment and summary lines dropped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    reader = csv.DictReader(lines)
    return {int(row["p"]): row for row in reader}


def stream(n: int, bound: int) -> list[int]:
    """Primes p = +-1 (mod N) up to bound, by the benchmark's own sieve."""
    N = refmath.trace_modulus(n)
    return [p for p in refmath.primes_upto(bound) if p % N in (1, N - 1)]


def check(n: int, lower: int, bound: int, first_csv: str, full_csv: str,
          rows_written: int, rows_read: int, disc_f1: int) -> list[str]:
    """Problems found in one n's two-pass sweep; empty when all is correct."""
    problems = []
    N = refmath.trace_modulus(n)
    r = refmath.phi(n) // 2
    primes = stream(n, bound)
    bad = {p for p in primes if disc_f1 % p == 0}
    full = parse_sweep_csv(full_csv)
    first = parse_sweep_csv(first_csv)
    if set(full) != set(primes) - bad:
        problems.append(f"n={n}: swept primes differ from the good primes of the "
                        f"stream (missing {sorted(set(primes) - bad - set(full))[:5]}, "
                        f"extra {sorted(set(full) - (set(primes) - bad))[:5]})")
    if set(first) != {p for p in primes if p <= lower} - bad:
        problems.append(f"n={n}: first pass did not cover the lower range")
    if any(full.get(p) != row for p, row in first.items()):
        problems.append(f"n={n}: rows resumed from the cache differ from the first pass")
    if rows_read != len(first) or rows_written != len(full):
        problems.append(f"n={n}: cache holds {rows_written} rows ({rows_read} before "
                        f"the resume), expected {len(full)} ({len(first)})")
    for p, row in full.items():
        k = refmath.split_k(n, p)
        if k is None:
            problems.append(f"n={n} p={p}: classified, but the reference route "
                            f"finds bad reduction")
            continue
        expected = {"residue_class": "1" if p % N == 1 else "-1", "d": "1",
                    "q": str(p), "genus": str(refmath.psl2_genus(n, p)),
                    "k": str(k), "l": str(r - k), "parity_ok": "True",
                    "class_details": f"k={k};l={r - k}"}
        wrong = {key: row[key] for key, value in expected.items() if row[key] != value}
        if wrong:
            problems.append(f"n={n} p={p}: {wrong} != {expected}")
            continue
        if n == 7 and (k % 2 == 1) != (p % 4 == 1):
            problems.append(f"n=7 p={p}: k={k} breaks 'k odd iff p = 1 mod 4'")
    if n == APPENDIX_N:
        head = primes[:APPENDIX_FIRST]
        if len(head) < APPENDIX_FIRST:
            problems.append(f"n=7 sweep to {bound} holds fewer than {APPENDIX_FIRST} primes")
        else:
            counts = [0] * (r + 1)
            for p in head:
                if p in full:
                    counts[int(full[p]["k"])] += 1
            if tuple(counts) != APPENDIX_COUNTS:
                problems.append(f"n=7 first {APPENDIX_FIRST} primes: Sigma counts "
                                f"{tuple(counts)} != appendix {APPENDIX_COUNTS}")
    return problems
