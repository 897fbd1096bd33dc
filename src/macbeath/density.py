"""Prime sweeps and density statistics for the inner/outer classification.

Partitions primes into the classes Sigma_k by the number k of inner regular
maps, compares empirical frequencies with the densities predicted by the
Galois-structure model (full wreath product or its even subgroup), computes
wreath-product cycle statistics in closed form from the orbit lengths of each
group element, and runs degree-pattern censuses of f1(x^2) mod p against
those predictions.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import operator
import os
from typing import NamedTuple

from . import census, gf
from .errors import BadReduction, Inadmissible, WorkerError
from .intpoly import discriminant, doubled, s_polynomial
from .numkit import (PrimeStream, euler_phi, mult_order_signed, primes_in_classes,
                     trace_indices, trace_modulus)

FULL_WREATH = "full_wreath"
EVEN_SUBGROUP = "even_subgroup"
UNKNOWN = "unknown"

# Galois structure of the doubled polynomial, as far as it is settled: the
# full wreath product is forced by a unique negative root for n <= 18, n = 19
# is known full by direct search, and n = 13, 15 drop to the even subgroup.
_STRUCTURE_TABLE_M3 = {
    7: FULL_WREATH, 8: FULL_WREATH, 9: FULL_WREATH, 10: FULL_WREATH,
    11: FULL_WREATH, 12: FULL_WREATH, 14: FULL_WREATH, 16: FULL_WREATH,
    18: FULL_WREATH, 19: FULL_WREATH,
    13: EVEN_SUBGROUP, 15: EVEN_SUBGROUP,
}


def clamp_workers(workers: int | None) -> int:
    """The worker count: the requested one, or MACBEATH_WORKERS (else 1) when
    None, raised to 1 and capped at the CPU count (read only above 1)."""
    if workers is None:
        workers = int(os.environ.get("MACBEATH_WORKERS") or 1)
    return 1 if workers <= 1 else min(workers, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# sigma sweeps


class PrimeSummary(NamedTuple):
    p: int
    residue: int  # +1 or -1: the sign of p mod the relevant modulus
    k: int
    l: int
    d: int
    q: int
    genus: int


class SigmaTally(NamedTuple):
    m: int
    n: int
    stream: PrimeStream
    total: int
    counts: dict[int, int]
    split: dict[tuple[int, str], int]
    frequencies: dict[int, Fraction]
    predicted: tuple[Fraction, ...] | None
    max_abs_deviation: float | None
    skipped: tuple[tuple[int, str], ...]


class SweepResult(NamedTuple):
    m: int
    n: int
    records: tuple[PrimeSummary, ...]
    tally: SigmaTally


def default_stream(m: int, n: int, first: int | None = None,
                   bound: int | None = None) -> PrimeStream:
    """Primes p = +-1 mod N, the ones carrying PSL(2,p) maps of type {m,n}."""
    s_polynomial(m, n)  # rejects an unsupported m or a non-hyperbolic type
    return PrimeStream.plus_minus_one(trace_modulus(n), first=first, bound=bound)


def _summarize(m: int, n: int, p: int) -> PrimeSummary | tuple[int, str]:
    try:
        fd, k, l, genus, _, _ = census.summary(m, n, p)
    except (BadReduction, Inadmissible) as exc:
        return (p, f"{exc.code}: {exc}")
    residue = 1 if p % fd.n_modulus == 1 else -1
    return PrimeSummary(p, residue, k, l, fd.d, fd.q, genus)


def _fan_out(func, items: list, workers: int | None) -> list:
    """[func(x) for x in items], shared out over w workers when w > 1 and the
    platform can fork, w being `clamp_workers(workers)` cut to len(items).

    The caller is worker 1: it forks w - 1 children, then computes
    items[0::w] itself.  Child i (worker i + 1 of w) computes items[i::w] and
    writes its results, or the exception that stopped it, pickled down its
    own pipe, then leaves by os._exit without returning into the caller's
    stack.  The caller then reads every pipe to EOF and reaps every child
    (killing those still running when its own share raises or it is
    interrupted), re-raises the first worker's exception, and interleaves
    the shares back into input order.  A child that ends without sending
    anything raises WorkerError.  The caller must hold no threads: a fork
    copies only the calling one.
    """
    w = min(clamp_workers(workers), len(items))
    if w < 2 or not hasattr(os, "fork"):
        return [func(x) for x in items]
    import pickle  # loaded only when children start
    import signal

    pids: list[int] = []
    pipes = []
    try:
        for i in range(1, w):
            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _fan_out_child(func, items[i::w], write_end)
                pids.append(pid)
            finally:
                os.close(write_end)  # the child never gets here
        results = [None] * len(items)
        results[0::w] = [func(x) for x in items[0::w]]
        payloads = [pipe.read() for pipe in pipes]
        statuses = []
        while pids:
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1]))
            del pids[0]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # left only when the caller's share or wait was cut short
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    for i, (data, status) in enumerate(zip(payloads, statuses), 1):
        if not data:
            raise WorkerError(f"worker {i + 1} of {w} ended with status {status} "
                              f"before sending its results")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results[i::w] = value
    return results


def _fan_out_child(func, share: list, write_end: int) -> None:
    """The body of one _fan_out child; it ends the process and never returns."""
    import pickle

    status = 1
    try:
        try:
            payload = (True, [func(x) for x in share])
        except BaseException as exc:  # raised again in the parent
            payload = (False, exc)
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def sweep(m: int, n: int, stream: PrimeStream, *,
          workers: int | None = None, cache_path: str | None = None) -> SweepResult:
    """Classify every prime admitted by the stream and tally the k values.

    An unsupported m or a non-hyperbolic type raises Inadmissible before any
    prime is classified; bad-reduction (and otherwise inadmissible) primes
    are skipped and reported in the tally.  Partitioning the work over
    several workers does not change the result.
    """
    s_polynomial(m, n)  # an inadmissible type fails here, before any prime
    primes = primes_in_classes(stream)
    cached: dict[int, PrimeSummary] = {}
    cache_end = 0
    if cache_path and os.path.exists(cache_path):
        cached, cache_end = _read_cache(cache_path, m, n)
    todo = [p for p in primes if p not in cached]
    fresh = {}
    skipped = []
    for item in _fan_out(functools.partial(_summarize, m, n), todo, workers):
        if isinstance(item, PrimeSummary):
            fresh[item.p] = item
        else:
            skipped.append(item)
    if cache_path and fresh:
        _append_cache(cache_path, cache_end, m, n,
                      [fresh[p] for p in todo if p in fresh])
    records = tuple(cached.get(p) or fresh[p] for p in primes
                    if p in cached or p in fresh)
    return SweepResult(m, n, records,
                       _tally(m, n, stream, records, tuple(skipped)))


def _tally(m: int, n: int, stream: PrimeStream,
           records: tuple[PrimeSummary, ...],
           skipped: tuple[tuple[int, str], ...]) -> SigmaTally:
    r = euler_phi(n) // 2
    counts = {k: 0 for k in range(r + 1)}
    split = {(k, sign): 0 for k in range(r + 1) for sign in "+-"}
    for (k, residue), c in collections.Counter(
            map(operator.attrgetter("k", "residue"), records)).items():
        counts[k] = counts.get(k, 0) + c
        key = (k, "+" if residue == 1 else "-")
        split[key] = split.get(key, 0) + c
    from fractions import Fraction

    total = len(records)
    frequencies = {k: Fraction(c, total) if total else Fraction(0)
                   for k, c in counts.items()}
    model = galois_model(m, n)
    predicted = None if model.structure == UNKNOWN else \
        tuple(predicted_sigma_densities(model))
    deviation = None
    if predicted is not None and total:
        deviation = _max_deviation(counts, total, dict(enumerate(predicted)))
    return SigmaTally(m, n, stream, total, counts, split, frequencies,
                      predicted, deviation, skipped)


def _max_deviation(counts: dict, total: int, predicted: dict) -> float:
    """max |counts[k]/total - predicted[k]| over the keys of both, a missing
    key counting 0: in integers over the common denominator total * den,
    where true division rounds it as float(Fraction) would."""
    den = math.lcm(*(f.denominator for f in predicted.values()))
    scaled = {k: f.numerator * (den // f.denominator) * total for k, f in predicted.items()}
    return max(abs(counts.get(k, 0) * den - scaled.get(k, 0))
               for k in counts.keys() | scaled.keys()) / (total * den)


def _read_cache(path: str, m: int, n: int) -> tuple[dict[int, PrimeSummary], int]:
    """The cached rows for (m, n), and the offset just past the last newline.

    A last line without a newline is torn, as a crash mid-append leaves it:
    it is skipped, and the next append starts at that offset.  Any other
    malformed line raises ValueError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    out = {}
    for line in data[:end].decode("utf-8").split("\n"):
        if not line.strip():
            continue
        row = json.loads(line)
        try:
            if row["m"] != m or row["n"] != n:
                continue
            out[row["p"]] = PrimeSummary(row["p"], row["residue"], row["k"],
                                         row["l"], row["d"], int(row["q"]),
                                         int(row["genus"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sweep cache row {line!r}") from exc
    return out, end


def _append_cache(path: str, end: int, m: int, n: int,
                  records: list[PrimeSummary]) -> None:
    """Append rows, as json.dumps writes their dicts, after the first end bytes,
    cutting a torn line there."""
    with open(path, "ab") as fh:
        if fh.tell() > end:
            fh.truncate(end)
        fh.writelines(
            f'{{"m": {m}, "n": {n}, "p": {rec.p}, "residue": {rec.residue}, '
            f'"k": {rec.k}, "l": {rec.l}, "d": {rec.d}, '
            f'"q": "{rec.q}", "genus": "{rec.genus}"}}\n'.encode()
            for rec in records)


# ---------------------------------------------------------------------------
# negative roots and Galois models


# m -> multipliers (odd_low, odd_high, even_low): theta/pi < 1/low or theta/pi
# > high part; for m = 3, 12j < n or 12j > 5n for odd n and 6j < n for even n
_NEGATIVE_ROOT_CUTOFFS = {3: (12, 5, 6), 4: (8, 3, 4), 6: (6, 2, 3)}


def negative_root_count(n: int, m: int = 3) -> int:
    """Number of negative roots of the s-polynomial of a hyperbolic type {m, n},
    by exact integer inequalities on its trace indices j (`trace_indices`).

    A root s_j = (4 - w^2) - 2cos(theta_j) - ... is negative exactly when the
    corresponding trace satisfies t^2 > 4 - w^2, which for m = 3 means
    |cos(theta)| > sqrt(3)/2; the cutoffs above are that condition cleared of
    irrationals.
    """
    s_polynomial(m, n)  # rejects an unsupported m or a non-hyperbolic type
    odd_low, odd_high, even_low = _NEGATIVE_ROOT_CUTOFFS[m]
    if n % 2:
        return sum(odd_low * j < n or odd_low * j > odd_high * n for j in trace_indices(n))
    return sum(even_low * j < n for j in trace_indices(n))


class GaloisModel(NamedTuple):
    m: int
    n: int
    r: int              # phi(n)/2, the number of root pairs
    structure: str      # full_wreath | even_subgroup | unknown
    negative_roots: int


def galois_model(m: int, n: int, override: str | None = None) -> GaloisModel:
    """Curated Galois-structure assignment for the doubled polynomial.

    The table is not computed here; `override` substitutes a structure for
    n outside it (or forces one for experiments).
    """
    s_polynomial(m, n)  # rejects an unsupported m or a non-hyperbolic type
    r = euler_phi(n) // 2
    if override is not None:
        if override not in (FULL_WREATH, EVEN_SUBGROUP, UNKNOWN):
            raise ValueError(f"unknown structure override {override!r}")
        structure = override
    elif m == 3:
        structure = _STRUCTURE_TABLE_M3.get(n, UNKNOWN)
    elif m == 4 and n == 5:
        structure = FULL_WREATH
    else:
        structure = UNKNOWN
    return GaloisModel(m, n, r, structure, negative_root_count(n, m))


def _odd_orbit_weights(t: int, structure: str) -> list[Fraction]:
    """Density of i odd-flip orbits, i = 0..t, among the sign vectors on t orbits.

    Each orbit has an odd number of sign flips for exactly half the vectors,
    independently of the others, so i is Binomial(t, 1/2).  The even
    subgroup keeps the vectors with even total flips, that is even i.
    """
    from fractions import Fraction

    if structure == FULL_WREATH:
        out = [Fraction(math.comb(t, i), 2**t) for i in range(t + 1)]
    elif structure == EVEN_SUBGROUP:
        out = [Fraction(math.comb(t, i), 2 ** (t - 1)) if i % 2 == 0
               else Fraction(0) for i in range(t + 1)]
    else:
        raise ValueError(f"no prediction: Galois structure {structure}")
    if sum(out) != 1:
        raise AssertionError("orbit-parity densities do not sum to 1")
    return out


def predicted_sigma_densities(model: GaloisModel) -> list[Fraction]:
    """Relative densities of Sigma_0..Sigma_r under the structure model.

    These are the identity element's cycle statistics: r orbits of length 1,
    of which the k = r - i with even flips are the inner classes.
    """
    return _odd_orbit_weights(model.r, model.structure)[::-1]


# ---------------------------------------------------------------------------
# wreath-product cycle statistics


def wreath_cycle_distribution(n: int, structure: str = FULL_WREATH
                              ) -> dict[tuple[int, ...], Fraction]:
    """Cycle-type densities of C2 wr H, H = (Z/n)*/{+-1} of order r, or of its
    even subgroup, acting on the phi(n) roots.

    Multiplication by a in H permutes the r root pairs in t = r/L orbits, all
    of length L = ord_H(a).  An orbit with odd sign flips is one 2L-cycle and
    one with even flips two L-cycles, so i odd orbits give the pattern
    [2L]^i + [L]^(2(t - i)), with i distributed as _odd_orbit_weights(t).
    """
    from fractions import Fraction

    reps = trace_indices(n)
    orders = collections.Counter(mult_order_signed(a, n) for a in reps)
    out: dict[tuple[int, ...], Fraction] = {}
    for length, count in orders.items():
        t = len(reps) // length
        for i, w in enumerate(_odd_orbit_weights(t, structure)):
            if w:
                key = (length,) * (2 * (t - i)) + (2 * length,) * i
                out[key] = out.get(key, 0) + w * Fraction(count, len(reps))
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# degree-pattern census


class PatternCensus(NamedTuple):
    m: int
    n: int
    bound: int
    total: int
    counts: dict[tuple[int, ...], int]
    frequencies: dict[tuple[int, ...], Fraction]
    predicted: dict[tuple[int, ...], Fraction] | None
    max_abs_deviation: float | None
    skipped: tuple[int, ...]          # bad-reduction primes, excluded
    bridge_checked: int               # primes where 2*k' was verified
    bridge_violations: int


def _pattern_row(m: int, n: int, f2, p: int) -> tuple | None:
    """(degree pattern of f2 mod p, k') for one prime, k' None off the split
    primes; None when p has bad reduction."""
    pattern = gf.degree_pattern(f2, p)
    modulus = trace_modulus(n)
    if p % modulus not in (1, modulus - 1):
        return pattern, None
    try:
        fd, k, _, _, _, classes = census.summary(m, n, p)
    except (BadReduction, Inadmissible):
        return None
    # f2 has two linear factors per class whose s is a square in its own
    # field F_{p^e}; chi is the character in F_{p^d}, the one in F_{p^e}
    # when d/e is odd
    if fd.d == 1:
        return pattern, k
    return pattern, sum(1 for c in classes if (
        c.chi if fd.d // c.e % 2 else gf._euler_sign(c.field, c.s)) == 1)


def pattern_census(m: int, n: int, bound: int, *,
                   workers: int | None = None) -> PatternCensus:
    """Degree patterns of f1(x^2) mod p over all good primes <= bound.

    Primes dividing the discriminant of the doubled polynomial are excluded
    and reported.  For primes p = +-1 mod N the linear-factor count is
    cross-checked against 2k', k' the number of census classes whose s is a
    square in its own field F_{p^e} (the census k when d/e is odd).
    """
    f2 = doubled(s_polynomial(m, n))
    disc = discriminant(f2)
    primes = primes_in_classes(PrimeStream(1, {0}, bound=bound))
    # the kernel's per-type constants, computed here once for every worker
    gf._half_modulus(f2)
    rows = _fan_out(functools.partial(_pattern_row, m, n, f2), primes, workers)
    counts: dict[tuple[int, ...], int] = {}
    skipped = []
    checked = violations = 0
    for p, row in zip(primes, rows):
        if row is None or disc % p == 0:
            skipped.append(p)
            continue
        pattern, k_census = row
        counts[pattern] = counts.get(pattern, 0) + 1
        if k_census is not None:
            checked += 1
            if pattern.count(1) != 2 * k_census:
                violations += 1
    from fractions import Fraction

    total = sum(counts.values())
    freqs = {pat: Fraction(c, total) for pat, c in sorted(counts.items())}
    model = galois_model(m, n)
    predicted = None
    deviation = None
    if model.structure != UNKNOWN:
        predicted = wreath_cycle_distribution(n, model.structure)
        if total:
            deviation = _max_deviation(counts, total, predicted)
    return PatternCensus(m, n, bound, total, dict(sorted(counts.items())), freqs,
                         predicted, deviation, tuple(sorted(skipped)),
                         checked, violations)


# ---------------------------------------------------------------------------
# CSV / JSON emission for sweeps

SWEEP_CSV_HEADER = ("p", "residue_class", "d", "q", "genus", "k", "l",
                    "parity_ok", "class_details")


def sweep_csv_rows(result: SweepResult) -> list[tuple]:
    rows = []
    for rec in result.records:
        # census.summary raises on any parity violation, so odd-d records
        # that reach a sweep row are consistent by construction (m = 3 only)
        parity_ok = "True" if (result.m == 3 and rec.d % 2) else ""
        rows.append((rec.p, rec.residue, rec.d, str(rec.q), str(rec.genus),
                     rec.k, rec.l, parity_ok, f"k={rec.k};l={rec.l}"))
    return rows


def tally_to_dict(tally: SigmaTally) -> dict:
    return {
        "m": tally.m,
        "n": tally.n,
        "stream": {
            "modulus": tally.stream.modulus,
            "residues": sorted(tally.stream.residues),
            "first": tally.stream.first,
            "bound": tally.stream.bound,
        },
        "total": tally.total,
        "counts": {str(k): v for k, v in sorted(tally.counts.items())},
        "split": {f"{k}{sign}": v for (k, sign), v in sorted(tally.split.items())},
        "frequencies": {str(k): [v.numerator, v.denominator]
                        for k, v in sorted(tally.frequencies.items())},
        "predicted": None if tally.predicted is None else
                     [[f.numerator, f.denominator] for f in tally.predicted],
        "max_abs_deviation": tally.max_abs_deviation,
        "skipped": list(tally.skipped),
    }
