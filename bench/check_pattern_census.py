"""Output checks for the pattern_census workload.

The {3,7} pattern frequencies are held to the Chebotarev densities within a
binomial bound for the sample size, every observed pattern must be a cycle
type of the wreath product, the linear-factor counts are matched against
2k with k from the benchmark's own route, the skipped primes against the
prime divisors of disc f2 (sympy), and the program's degree patterns on a
seeded sample of primes against sympy's galoistools factorizations.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import refmath

# Cycle-type densities of C2 wr C3, the Galois group of f1(x^2) for {3,7}
N7_DENSITIES = {
    (1, 1, 1, 1, 1, 1): Fraction(1, 24),
    (2, 2, 2): Fraction(1, 24),
    (1, 1, 1, 1, 2): Fraction(1, 8),
    (1, 1, 2, 2): Fraction(1, 8),
    (3, 3): Fraction(1, 3),
    (6,): Fraction(1, 3),
}
# allowed deviation of a frequency from its density, in binomial standard errors
Z_BOUND = 5.0


def check(n: int, bound: int, payload_text: str,
          sample: list[int], program_pattern) -> list[str]:
    """Problems found in one `pattern --format json` report.

    `program_pattern(p)` returns the program's degree pattern of f2 mod p;
    it is compared with sympy on the primes in `sample`.
    """
    problems = []
    payload = json.loads(payload_text)
    f2 = refmath.doubled(refmath.sympy_f1(n))
    disc_f2 = refmath.sympy_discriminant(f2)
    primes = refmath.primes_upto(bound)
    skipped = [p for p in primes if disc_f2 % p == 0]
    skipped_set = set(skipped)
    if payload["skipped"] != skipped:
        problems.append(f"n={n}: skipped {payload['skipped']} != primes dividing "
                        f"disc f2 {skipped}")
    counts = {tuple(int(d) for d in key.split("-")): v
              for key, v in payload["counts"].items()}
    total = sum(counts.values())
    if total != payload["total"] or total != len(primes) - len(skipped):
        problems.append(f"n={n}: {total} patterns counted for "
                        f"{len(primes) - len(skipped)} good primes")
    unpredicted = set(counts) - refmath.wreath_patterns(n)
    if unpredicted:
        problems.append(f"n={n}: unpredicted patterns {sorted(unpredicted)}")
    if n == 7:
        for pattern, density in N7_DENSITIES.items():
            freq = Fraction(counts.get(pattern, 0), total)
            sigma = math.sqrt(density * (1 - density) / total)
            if abs(freq - density) > Z_BOUND * sigma:
                problems.append(f"n=7: pattern {pattern} frequency {float(freq):.4f} "
                                f"is off {density} by more than {Z_BOUND} sigma")
    # linear factors of f2 exist only at split primes, where there are 2k
    N = refmath.trace_modulus(n)
    r = refmath.phi(n) // 2
    by_linear = [0] * (r + 1)
    for pattern, count in counts.items():
        by_linear[pattern.count(1) // 2] += count
    by_k = [0] * (r + 1)
    split = 0
    for p in primes:
        if p in skipped_set or p % N not in (1, N - 1):
            continue
        k = refmath.split_k(n, p)
        if k is None:
            problems.append(f"n={n} p={p}: good for f2 but bad by the reference route")
            continue
        by_k[k] += 1
        split += 1
    by_k[0] += total - split
    if by_linear != by_k:
        problems.append(f"n={n}: primes by linear-factor count / 2 {by_linear} != "
                        f"primes by reference k {by_k}")
    if payload["bridge_checked"] != split or payload["bridge_violations"]:
        problems.append(f"n={n}: bridge checked {payload['bridge_checked']} primes "
                        f"({payload['bridge_violations']} violations), expected "
                        f"{split} (0)")
    for p in sample:
        ours, theirs = program_pattern(p), refmath.sympy_pattern(f2, p)
        if ours != theirs:
            problems.append(f"n={n} p={p}: degree pattern {ours} != sympy {theirs}")
    return problems
