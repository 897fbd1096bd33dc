import json
import math
import os
import signal
import time
from collections import Counter
from fractions import Fraction

import pytest

from macbeath import census, verify
from macbeath.density import (
    _STRUCTURE_TABLE_M3,
    EVEN_SUBGROUP,
    FULL_WREATH,
    UNKNOWN,
    _fan_out,
    clamp_workers,
    default_stream,
    galois_model,
    negative_root_count,
    pattern_census,
    predicted_sigma_densities,
    sweep,
    sweep_csv_rows,
    tally_to_dict,
    wreath_cycle_distribution,
)
from macbeath.errors import Error, WorkerError
from macbeath.numkit import PrimeStream, euler_phi, primes_upto


def test_sweep_first_400_counts_and_split():
    res = sweep(3, 7, default_stream(3, 7, first=400))
    assert res.tally.total == 400
    assert tuple(res.tally.counts[k] for k in range(4)) == (48, 154, 151, 47)
    split = {f"{k}{s}": v for (k, s), v in res.tally.split.items()}
    assert (split["0+"], split["0-"]) == (22, 26)
    assert (split["1+"], split["1-"]) == (78, 76)
    assert (split["2+"], split["2-"]) == (78, 73)
    assert (split["3+"], split["3-"]) == (24, 23)
    assert res.tally.skipped == ()
    assert res.tally.max_abs_deviation == pytest.approx(0.01)


def test_sweep_membership_spot_checks():
    res = sweep(3, 7, default_stream(3, 7, first=60))
    by_p = {rec.p: rec for rec in res.records}
    assert by_p[167].k == 0
    assert by_p[181].k == 3
    first4 = [rec.k for rec in res.records[:4]]
    assert [rec.p for rec in res.records[:4]] == [13, 29, 41, 43]
    assert first4 == [1, 1, 1, 2]


def test_sweep_worker_determinism():
    one = sweep(3, 9, default_stream(3, 9, first=50), workers=1)
    two = sweep(3, 9, default_stream(3, 9, first=50), workers=2)
    assert one.records == two.records
    assert one.tally == two.tally


def test_sweep_reports_bad_reduction():
    # a residue filter that lets the ramified prime 7 through
    stream = PrimeStream(2, {1}, bound=50)  # all odd primes <= 50
    res = sweep(3, 7, stream)
    skipped = dict(res.tally.skipped)
    assert 7 in skipped and "bad-reduction" in skipped[7]
    assert all(rec.p != 7 for rec in res.records)


def test_sweep_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.jsonl"
    stream = default_stream(3, 7, first=20)
    first = sweep(3, 7, stream, cache_path=str(cache))
    size = cache.stat().st_size
    again = sweep(3, 7, stream, cache_path=str(cache))
    assert cache.stat().st_size == size  # nothing recomputed or appended
    assert first.records == again.records
    longer = sweep(3, 7, default_stream(3, 7, first=25), cache_path=str(cache))
    assert cache.stat().st_size > size
    assert longer.records[:20] == first.records


@pytest.mark.parametrize("m", [3, 4])
def test_sweep_cache_lines_are_json_dumps_bytes(tmp_path, m):
    # each row is byte for byte json.dumps of its dict, in this key order; for
    # m = 4 the primes = +-3 mod 8 have d = 2, so q is p^2
    cache = tmp_path / "cache.jsonl"
    res = sweep(m, 7, default_stream(m, 7, first=12), cache_path=str(cache))
    assert {rec.residue for rec in res.records} == {1, -1}
    assert m == 3 or {rec.d for rec in res.records} == {1, 2}
    assert cache.read_bytes() == b"".join(
        json.dumps({"m": m, "n": 7, "p": rec.p, "residue": rec.residue,
                    "k": rec.k, "l": rec.l, "d": rec.d,
                    "q": str(rec.q), "genus": str(rec.genus)}).encode() + b"\n"
        for rec in res.records)


def test_clamp_workers(monkeypatch):
    cpus = os.cpu_count() or 1
    assert clamp_workers(10**9) == cpus
    assert clamp_workers(cpus) == cpus
    assert clamp_workers(1) == 1
    assert clamp_workers(0) == 1 and clamp_workers(-4) == 1
    # None is MACBEATH_WORKERS, else 1, under the same cap
    monkeypatch.delenv("MACBEATH_WORKERS", raising=False)
    assert clamp_workers(None) == 1
    monkeypatch.setenv("MACBEATH_WORKERS", str(10**9))
    assert clamp_workers(None) == cpus


@pytest.fixture
def four_cpus(monkeypatch):
    """os.cpu_count() reads 4, so that up to four workers fork on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fan_out_returns_the_serial_list(workers, four_cpus):
    for length in range(10):
        items = [(i, str(i)) for i in range(length)]
        assert _fan_out(lambda x: (x[1], x[0] ** 2), items, workers) == \
            [(x[1], x[0] ** 2) for x in items], length
    assert _no_child_left()


@pytest.mark.parametrize("exc_type", [Error, ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fan_out_raises_a_worker_exception_in_the_parent(workers, exc_type, four_cpus):
    def func(x):
        if x == 5:
            raise exc_type(f"item {x}")
        return x

    with pytest.raises(exc_type, match="item 5"):
        _fan_out(func, list(range(9)), workers)
    assert _no_child_left()


def test_fan_out_reports_a_worker_that_dies_without_results(four_cpus):
    parent = os.getpid()

    def func(x):
        if x == 5 and os.getpid() != parent:  # 5 is in the child's share, items[1::2]
            os._exit(3)
        return x

    with pytest.raises(WorkerError, match="worker 2 of 2 ended with status 3"):
        _fan_out(func, list(range(6)), 2)
    assert _no_child_left()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_fan_out_computes_the_first_share_in_the_caller(workers, four_cpus):
    parent = os.getpid()
    pids = _fan_out(lambda x: os.getpid(), list(range(3 * workers)), workers)
    assert set(pids[0::workers]) == {parent}
    children = [set(pids[i::workers]) for i in range(1, workers)]
    assert all(len(share) == 1 and parent not in share for share in children)
    assert len(set.union(*children)) == workers - 1  # one child per share
    assert _no_child_left()


def test_fan_out_raises_the_callers_exception_without_waiting(four_cpus):
    parent = os.getpid()

    def func(x):
        if os.getpid() == parent:
            raise ValueError(f"item {x}")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="item 0"):
        _fan_out(func, [0, 1], 2)
    assert time.monotonic() - start < 30
    assert _no_child_left()


def test_fan_out_stops_its_children_when_interrupted(four_cpus):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(KeyboardInterrupt):
            _fan_out(lambda x: time.sleep(60), [1, 2], 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert _no_child_left()


def test_fan_out_caps_a_library_call_at_the_cpu_count(monkeypatch):
    # the cap holds for a library call as for the CLI: eight items with
    # workers=8 on two CPUs make two workers, the caller and one child, not
    # eight; on four CPUs, the caller and three children
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    for cpus in (2, 4):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        forks.clear()
        assert _fan_out(abs, [-i for i in range(8)], 8) == list(range(8))
        assert len(forks) == cpus - 1
        assert _no_child_left()


def test_oracle_suite_rows_do_not_depend_on_workers():
    one = verify.oracle(bound=200, workers=1).checks
    two = verify.oracle(bound=200, workers=2).checks
    assert one == two
    assert one[-1].name == "trace-route equivalence n<=16"
    assert one[-1].actual == "446 cases checked"


def test_negative_root_count_examples():
    assert negative_root_count(7) == 1
    assert negative_root_count(13) == 2
    assert negative_root_count(20) == 2
    assert negative_root_count(19) == 3
    for n in (8, 10, 12, 14, 16, 18):
        assert negative_root_count(n) == 1
    with pytest.raises(Exception):
        negative_root_count(6)


def test_negative_root_count_matches_real_roots():
    # independent check: count the negative real roots themselves, for every
    # hyperbolic n from the smallest up to 25
    import mpmath
    from macbeath.intpoly import s_polynomial
    mpmath.mp.dps = 40
    for m, smallest in ((3, 7), (4, 5), (6, 4)):
        for n in range(smallest, 26):
            f1 = s_polynomial(m, n)
            roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f1.coeffs)],
                                     maxsteps=200, extraprec=200)
            negatives = sum(1 for r in roots
                            if abs(mpmath.im(r)) < mpmath.mpf("1e-20") and mpmath.re(r) < 0)
            assert negative_root_count(n, m) == negatives, (m, n)


def test_galois_model_table():
    assert galois_model(3, 7).structure == FULL_WREATH
    assert galois_model(3, 7).r == 3
    assert galois_model(3, 13).structure == EVEN_SUBGROUP
    assert galois_model(3, 13).r == 6
    assert galois_model(3, 17).structure == UNKNOWN
    assert galois_model(3, 17).r == 8
    assert galois_model(4, 5).structure == FULL_WREATH
    assert galois_model(3, 21).structure == UNKNOWN
    assert galois_model(3, 17, override=FULL_WREATH).structure == FULL_WREATH


def test_full_wreath_entries_have_one_negative_root_below_19():
    for n in range(7, 19):
        if galois_model(3, n).structure == FULL_WREATH:
            assert negative_root_count(n) == 1
    assert negative_root_count(19) == 3  # the tabled exception


def test_predicted_sigma_densities():
    assert predicted_sigma_densities(galois_model(3, 7)) == [
        Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)]
    d11 = predicted_sigma_densities(galois_model(3, 11))
    assert d11 == [Fraction(c, 32) for c in (1, 5, 10, 10, 5, 1)]
    assert predicted_sigma_densities(galois_model(4, 5)) == [
        Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    d13 = predicted_sigma_densities(galois_model(3, 13))
    assert d13[1] == d13[3] == d13[5] == 0
    assert d13[0] == d13[6] == Fraction(1, 32)
    assert d13[2] == d13[4] == Fraction(15, 32)
    assert sum(d13) == 1
    with pytest.raises(ValueError):
        predicted_sigma_densities(galois_model(3, 17))
    # the closed form at a = 1 against the binomial laws, for every table entry
    for m, n in [(3, n) for n in _STRUCTURE_TABLE_M3] + [(4, 5)]:
        model = galois_model(m, n)
        r = model.r
        if model.structure == FULL_WREATH:
            expected = [Fraction(math.comb(r, k), 2**r) for k in range(r + 1)]
        else:
            expected = [Fraction(math.comb(r, k), 2 ** (r - 1)) if (r - k) % 2 == 0
                        else 0 for k in range(r + 1)]
        assert predicted_sigma_densities(model) == expected, (m, n)


def test_wreath_cycle_distribution_n7():
    dist = wreath_cycle_distribution(7)
    assert dist == {
        (1, 1, 1, 1, 1, 1): Fraction(1, 24),
        (2, 2, 2): Fraction(1, 24),
        (1, 1, 1, 1, 2): Fraction(1, 8),
        (1, 1, 2, 2): Fraction(1, 8),
        (3, 3): Fraction(1, 3),
        (6,): Fraction(1, 3),
    }


def test_wreath_cycle_distribution_properties():
    for n in (7, 8, 9, 11, 12, 13, 15, 16):
        dist = wreath_cycle_distribution(n)
        r = galois_model(3, n).r
        assert sum(dist.values()) == 1
        identity = tuple([1] * (2 * r))
        assert dist[identity] == Fraction(1, r * 2**r)
        assert all(sum(pat) == 2 * r for pat in dist)


def _enumerated_wreath_distribution(n, structure):
    """Reference: the cycle types of every (sign vector, a) of C2 wr H, or of
    its even subgroup (sign vectors with an even number of flips)."""
    reps = [j for j in range(1, n // 2 + 1) if math.gcd(j, n) == 1 and 2 * j != n]
    r = len(reps)
    index = {j: i for i, j in enumerate(reps)}
    tallies = Counter()
    for a in reps:
        orbits = []
        seen = [False] * r
        for start in range(r):
            orbit = []
            j = start
            while not seen[j]:
                seen[j] = True
                orbit.append(j)
                x = reps[j] * a % n
                j = index[min(x, n - x)]
            if orbit:
                orbits.append(orbit)
        for signs in range(1 << r):
            if structure == EVEN_SUBGROUP and bin(signs).count("1") % 2:
                continue
            pattern = []
            for orbit in orbits:
                if sum((signs >> j) & 1 for j in orbit) % 2:
                    pattern.append(2 * len(orbit))
                else:
                    pattern.extend([len(orbit)] * 2)
            tallies[tuple(sorted(pattern))] += 1
    total = sum(tallies.values())
    return {pat: Fraction(c, total) for pat, c in sorted(tallies.items())}


# r = phi(n)/2 root pairs; the group depends on n alone, not on a map type
SMALL_R = [n for n in range(3, 100) if euler_phi(n) // 2 <= 10]


@pytest.mark.parametrize("structure", [FULL_WREATH, EVEN_SUBGROUP])
def test_wreath_cycle_distribution_matches_enumeration(structure):
    for n in SMALL_R:
        dist = wreath_cycle_distribution(n, structure)
        assert list(dist.items()) == list(
            _enumerated_wreath_distribution(n, structure).items()), n


def test_wreath_cycle_distribution_for_large_r():
    for n in (37, 199):
        r = galois_model(3, n).r
        start = time.perf_counter()
        dist = wreath_cycle_distribution(n)
        assert time.perf_counter() - start < 1
        assert sum(dist.values()) == 1
        assert dist[(1,) * (2 * r)] == Fraction(1, r * 2**r)
        assert all(sum(pat) == 2 * r for pat in dist)


def test_pattern_census_small():
    res = pattern_census(3, 7, 3000)
    assert res.skipped == (2, 7)
    assert set(res.counts) <= set(res.predicted)
    assert res.bridge_violations == 0
    assert res.bridge_checked > 100
    assert res.total == sum(res.counts.values())
    assert res.max_abs_deviation < 0.05
    # the k=1 bridge example: p=13 has pattern (1,1,2,2)
    assert res.counts[(1, 1, 2, 2)] > 0


def test_pattern_census_worker_determinism():
    one = pattern_census(3, 7, 1500, workers=1)
    two = pattern_census(3, 7, 1500, workers=2)
    assert one == two


def test_pattern_census_without_prediction():
    res = pattern_census(3, 17, 500)
    assert res.predicted is None and res.max_abs_deviation is None
    assert res.total > 0


@pytest.mark.parametrize("n", [13, 15])
def test_pattern_census_matches_the_even_subgroup(n):
    res = pattern_census(3, n, 10**5)
    assert set(res.counts) <= set(res.predicted)
    assert res.max_abs_deviation < 0.01
    # the same frequencies are far from the full wreath's cycle types
    full = wreath_cycle_distribution(n, FULL_WREATH)
    assert max(abs(res.frequencies.get(pat, 0) - full.get(pat, 0))
               for pat in set(full) | set(res.frequencies)) > 0.2


def test_sweep_csv_and_json_shapes():
    res = sweep(3, 7, default_stream(3, 7, first=5))
    rows = sweep_csv_rows(res)
    assert len(rows) == 5
    assert rows[0][0] == 13 and rows[0][7] == "True"
    blob = tally_to_dict(res.tally)
    assert blob["counts"] == {"0": 0, "1": 3, "2": 2, "3": 0}


def test_pattern_bridge_counts_squares_in_each_class_field(monkeypatch):
    # m = 4 splits f1 over F_p while the maps live over F_{p^2} on half of
    # the split primes: f2 has two linear factors per class whose s is a
    # square in F_p, whatever its character in F_{p^2}
    res = pattern_census(4, 19, 20000, workers=1)
    assert (res.bridge_checked, res.bridge_violations) == (251, 0)
    assert pattern_census(6, 13, 3000, workers=1).bridge_violations == 0
    # the bridge still fires when the census character is wrong
    from macbeath import gf
    real = gf._euler_sign
    monkeypatch.setattr(gf, "_euler_sign", lambda ctx, v: -real(ctx, v))
    assert pattern_census(4, 19, 3000, workers=1).bridge_violations > 0


def test_pattern_bridge_catches_a_flipped_witness_character(monkeypatch):
    # on split primes the bridge reads k from the d = 1 witness's checker;
    # flipped in every character the census reads (the classes, Psi_n(1) and
    # its shortcut), k becomes l and every internal check still holds, so
    # only the degree patterns can catch it
    assert pattern_census(3, 7, 3000, workers=1).bridge_violations == 0
    characters, shortcut = census._characters, census._chi_shortcut
    monkeypatch.setattr(census, "_characters",
                        lambda values, p: [-c for c in characters(values, p)])
    monkeypatch.setattr(census, "_chi_shortcut", lambda n, p: -shortcut(n, p))
    res = pattern_census(3, 7, 3000, workers=1)
    assert res.bridge_violations == res.bridge_checked > 100


def _count_calls(monkeypatch, name):
    counter, original = Counter(), getattr(census, name)

    def counting(m, n, p, *args, **kwargs):
        counter[(m, n, p)] += 1
        return original(m, n, p, *args, **kwargs)

    monkeypatch.setattr(census, name, counting)
    return counter


def test_parity_suite_classifies_each_prime_once(monkeypatch):
    # every (n, p) goes through census.summary once, which asks the ladder
    # once and factors f1 only where the ladder gives no witness; no full
    # record (map_census) is built
    summaries = _count_calls(monkeypatch, "summary")
    records = _count_calls(monkeypatch, "map_census")
    ladders = _count_calls(monkeypatch, "_ladder")
    factored = _count_calls(monkeypatch, "_factored_classes")
    report = verify.parity(bound=2000, workers=1)
    assert report.passed
    primes = primes_upto(2000)
    once = Counter({(3, n, p): 1 for n in range(7, 20) for p in primes})
    assert summaries == ladders == once
    assert not records
    monkeypatch.undo()
    assert factored == Counter({key: 1 for key in once if census._ladder(*key) is None})


def _tally_by_hand(m, n, records):
    """The tally's numbers recomputed from the records in Fractions."""
    r = euler_phi(n) // 2
    total = len(records)
    counts = {k: sum(1 for rec in records if rec.k == k) for k in range(r + 1)}
    split = {f"{k}{sign}": sum(1 for rec in records
                               if rec.k == k and rec.residue == int(sign + "1"))
             for k in range(r + 1) for sign in "+-"}
    structure = galois_model(m, n).structure
    if structure == UNKNOWN:
        predicted = deviation = None
    else:
        # C(r, k) / 2^r, or for the even subgroup twice that on k = r mod 2
        half = structure == EVEN_SUBGROUP
        predicted = [Fraction(math.comb(r, k) * (2 if half else 1), 2**r)
                     if not half or (r - k) % 2 == 0 else Fraction(0)
                     for k in range(r + 1)]
        deviation = float(max(abs(Fraction(counts[k], total) - predicted[k])
                              for k in range(r + 1)))
    return {
        "total": total,
        "counts": {str(k): c for k, c in counts.items()},
        "split": split,
        "frequencies": {str(k): [Fraction(c, total).numerator, Fraction(c, total).denominator]
                        for k, c in counts.items()},
        "predicted": None if predicted is None else
                     [[f.numerator, f.denominator] for f in predicted],
        "max_abs_deviation": deviation,
    }


@pytest.mark.parametrize("m", [3, 4, 6])
def test_tally_matches_a_fraction_recomputation(m):
    for n in range(7, 20):
        res = sweep(m, n, default_stream(m, n, first=80), workers=1)
        got = tally_to_dict(res.tally)
        expected = _tally_by_hand(m, n, res.records)
        assert {key: got[key] for key in expected} == expected, (m, n)
        assert type(got["max_abs_deviation"]) is type(expected["max_abs_deviation"])
        assert all(type(f) is Fraction for f in res.tally.frequencies.values())
        if res.tally.predicted is not None:
            assert type(res.tally.predicted) is tuple
            assert all(type(f) is Fraction for f in res.tally.predicted)
    # the pattern census takes its deviation from the same integer formula
    for n in (7, 11, 13):
        res = pattern_census(m, n, 5000, workers=1)
        if res.predicted is None:
            assert res.max_abs_deviation is None, (m, n)
            continue
        keys = set(res.counts) | set(res.predicted)
        expected = float(max(abs(Fraction(res.counts.get(k, 0), res.total)
                                 - res.predicted.get(k, Fraction(0))) for k in keys))
        assert type(res.max_abs_deviation) is float
        assert res.max_abs_deviation == expected, (m, n)


def test_predicted_sigma_densities_returns_a_fresh_list():
    model = galois_model(3, 7)
    expected = [Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)]
    densities = predicted_sigma_densities(model)
    densities[0] = Fraction(1)
    densities.append(Fraction(0))
    assert predicted_sigma_densities(model) == expected
    assert sweep(3, 7, default_stream(3, 7, first=10)).tally.predicted == tuple(expected)
