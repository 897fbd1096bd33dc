import itertools
import math

import pytest

from macbeath import numkit
from macbeath.errors import Inadmissible
from macbeath.numkit import (
    PrimeStream,
    divisors,
    euler_phi,
    genus_of_prime_power,
    is_prime,
    lucas_v,
    moebius,
    mult_order_signed,
    primes_in_classes,
    primes_upto,
    trace_indices,
    trace_modulus,
)
from timelimit import time_limit


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def iter_primes(start=2):
    """Primes >= start, ascending, read off the sieve's unbounded segments."""
    for lo, flags in numkit._segments(max(start, 2)):
        yield from itertools.compress(range(lo, lo + len(flags)), flags)


def test_is_prime_small_range_against_trial_division():
    for n in range(0, 5000):
        assert is_prime(n) == naive_is_prime(n)


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(1)
    assert is_prime(9871)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def _strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_small_witness_boundary():
    # the least strong pseudoprime to 2, 3, 5 and 7 is where the short
    # witness set stops being enough
    n = 3_215_031_751
    assert all(_strong_probable_prime(n, b) for b in (2, 3, 5, 7))
    assert n == 151 * 751 * 28351
    assert not is_prime(n)


def test_is_prime_agrees_with_sieve_to_one_million():
    bound = 10**6
    assert [n for n in range(bound + 1) if is_prime(n)] == primes_upto(bound)


# the witness sets by range: each range ends at the least strong pseudoprime
# to its bases
_WITNESS_BOUNDARIES = [
    (1_373_653, (829, 1657), (2, 3)),
    (25_326_001, (2251, 11251), (2, 3, 5)),
    (3_215_031_751, (151, 751, 28351), (2, 3, 5, 7)),
]


@pytest.mark.parametrize("n, factors, bases", _WITNESS_BOUNDARIES)
def test_is_prime_rejects_each_witness_boundary(n, factors, bases):
    assert math.prod(factors) == n
    assert all(_strong_probable_prime(n, b) for b in bases)
    assert not is_prime(n)


@pytest.mark.parametrize("n", [n for n, _, _ in _WITNESS_BOUNDARIES])
def test_is_prime_next_to_each_witness_boundary(n):
    divisors_ = primes_upto(math.isqrt(n + 200))
    window = range(n - 200, n + 201)
    expected = [v for v in window if all(v % q for q in divisors_)]
    assert expected[0] < n < expected[-1]
    assert [v for v in window if is_prime(v)] == expected


def test_is_prime_agrees_with_sieve_across_the_first_witness_boundary():
    # (10^6, 2 * 10^6] crosses 1,373,653, where the bases 2 and 3 stop
    lo, bound = 10**6, 2 * 10**6
    assert [v for v in range(lo + 1, bound + 1) if is_prime(v)] == \
        [p for p in primes_upto(bound) if p > lo]


def test_is_prime_just_below_2_64():
    # the ten largest primes below 2^64 are 2^64 - k for these k
    ks = [59, 83, 95, 179, 189, 257, 279, 323, 353, 363]
    assert [k for k in range(1, 364) if is_prime(2**64 - k)] == ks


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(1 << 64)
    with pytest.raises(ValueError):
        is_prime(-3)


def test_primes_upto_matches_naive():
    assert primes_upto(100) == [n for n in range(101) if naive_is_prime(n)]
    assert primes_upto(1) == []


def test_primes_upto_crosses_segment_boundary():
    bound = (1 << 17) + 1000
    ps = primes_upto(bound)
    assert ps[-1] <= bound
    assert all(is_prime(p) for p in ps[-20:])
    # spot check against a direct count
    assert sum(1 for n in range(bound - 500, bound + 1) if naive_is_prime(n)) == sum(
        1 for p in ps if p > bound - 500
    )


def test_primes_in_classes_examples():
    assert primes_in_classes(PrimeStream(7, {1, 6}, first=4)) == [13, 29, 41, 43]
    assert primes_in_classes(PrimeStream(4, {1}, first=3)) == [5, 13, 17]
    first400 = primes_in_classes(PrimeStream.plus_minus_one(7, first=400))
    assert len(first400) == 400
    assert first400[-1] == 9871


def test_primes_in_classes_bound_mode():
    got = primes_in_classes(PrimeStream(7, {1, 6}, bound=100))
    assert got == [13, 29, 41, 43, 71, 83, 97]


@pytest.mark.parametrize("bound", [(1 << 17) - 1, 1 << 17, (1 << 17) + 1])
def test_bounded_sieve_matches_segmented_path(bound):
    segmented = []
    for p in iter_primes():
        if p > bound:
            break
        segmented.append(p)
    assert primes_upto(bound) == segmented
    stream = PrimeStream.plus_minus_one(14, bound=bound)
    assert primes_in_classes(stream) == [p for p in segmented if p % 14 in (1, 13)]


def test_first_k_stream_matches_bounded_stream():
    first = primes_in_classes(PrimeStream.plus_minus_one(38, first=2000))
    assert first[-1] > 1 << 17  # the stream runs past the first segment
    bounded = primes_in_classes(PrimeStream.plus_minus_one(38, bound=first[-1]))
    assert first == bounded
    assert primes_in_classes(PrimeStream(7, {1}, bound=1)) == []


def test_lucas_v_matches_recurrence():
    for p in (2, 3, 13, 10007):
        for c in (0, 1, 5, p - 1):
            seq = [2 % p, c % p]
            for _ in range(40):
                seq.append((c * seq[-1] - seq[-2]) % p)
            assert [lucas_v(k, c, p) for k in range(len(seq))] == seq
    with pytest.raises(ValueError):
        lucas_v(-1, 3, 13)


def test_lucas_v_is_a_power_trace():
    # c = z + 1/z with z = 2 in F_13: V_k(c) = 2^k + 2^-k
    p, z = 13, 2
    c = (z + pow(z, -1, p)) % p
    for k in (0, 1, 7, 12, 1000003):
        assert lucas_v(k, c, p) == (pow(z, k, p) + pow(z, -k, p)) % p


def test_prime_stream_validation():
    with pytest.raises(ValueError):
        PrimeStream(7, frozenset(), first=3)
    with pytest.raises(ValueError):
        PrimeStream(6, frozenset({2}), first=3)  # residue not coprime
    with pytest.raises(ValueError):
        PrimeStream(7, frozenset({1}), first=3, bound=10)
    with pytest.raises(ValueError):
        PrimeStream(7, frozenset({1}))


@pytest.mark.parametrize("first", [0, -1])
def test_prime_stream_rejects_a_count_below_one(first):
    # a stream that can never reach its count would run forever
    with time_limit(10), pytest.raises(ValueError, match="first must be >= 1"):
        primes_in_classes(PrimeStream.plus_minus_one(7, first=first))


def test_prime_stream_reduces_its_residues():
    assert PrimeStream.plus_minus_one(7, bound=50).residues == {1, 6}
    assert PrimeStream(7, {-1, 8}, first=2).residues == frozenset({1, 6})
    with pytest.raises(ValueError, match="positive"):
        PrimeStream.plus_minus_one(0, bound=50)


def test_residue_classes_partition_primes():
    inner = set(primes_in_classes(PrimeStream(7, {1, 6}, bound=3000)))
    outer = set(primes_in_classes(PrimeStream(7, {2, 3, 4, 5}, bound=3000)))
    allp = set(primes_upto(3000))
    assert inner | outer == allp - {7}
    assert not inner & outer


def test_mult_order_signed_examples():
    assert mult_order_signed(2, 7) == 3
    assert mult_order_signed(13, 7) == 1
    assert mult_order_signed(2, 15) == 4


def test_mult_order_signed_divides_full_order():
    for modulus in range(3, 40):
        for p in range(2, 60):
            if math.gcd(p, modulus) != 1:
                continue
            e = mult_order_signed(p, modulus)
            # full multiplicative order of p mod modulus
            full, r = 1, p % modulus
            while r != 1:
                r = r * p % modulus
                full += 1
            assert full % e == 0 and full // e in (1, 2)


def test_mult_order_signed_requires_coprime():
    with pytest.raises(ValueError):
        mult_order_signed(7, 14)


def test_arith_tables():
    assert divisors(9) == (1, 3, 9)
    assert {e: moebius(e) for e in divisors(9)} == {1: 1, 3: -1, 9: 0}
    assert euler_phi(9) == 6
    assert euler_phi(7) == 6
    assert moebius(7) == -1
    assert euler_phi(12) == 4
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert euler_phi(1) == 1


def test_trace_modulus_doubles_even_n():
    assert [trace_modulus(n) for n in (3, 4, 7, 8, 9, 12)] == [3, 8, 7, 16, 9, 24]


def test_genus_paper_examples():
    assert genus_of_prime_power(3, 7, 7) == 3
    assert genus_of_prime_power(3, 7, 8) == 7
    assert genus_of_prime_power(3, 9, 19) == 96
    assert genus_of_prime_power(4, 5, 31) == 373
    assert genus_of_prime_power(3, 13, 25) == 351
    assert genus_of_prime_power(3, 11, 32) == 1241
    assert genus_of_prime_power(3, 15, 16) == 205
    assert genus_of_prime_power(3, 17, 16) == 221
    assert genus_of_prime_power(3, 19, 37) == 1444
    assert genus_of_prime_power(3, 10, 19) == 115
    assert genus_of_prime_power(3, 12, 25) == 326
    assert genus_of_prime_power(3, 14, 29) == 581


def test_genus_hurwitz_identity():
    for q in (7, 8, 13, 27, 29, 41, 43, 64, 97, 113):
        try:
            g = genus_of_prime_power(3, 7, q)
        except Inadmissible:
            continue
        assert q * (q * q - 1) // math.gcd(2, q - 1) == 84 * (g - 1)  # |PSL(2,q)|


def test_genus_rejects_non_integral():
    # q = 11 is inadmissible for type {3,7}: 11 = +-4 mod 7 needs q = 11^3
    with pytest.raises(Inadmissible):
        genus_of_prime_power(3, 7, 11)


# ---------------------------------------------------------------------------
# the sieve streams against is_prime alone


@pytest.fixture(scope="module")
def filtered_primes():
    return [v for v in range(300_001) if is_prime(v)]


_CLASS_SETS = [(N, {1, N - 1}) for N in (7, 9, 11, 13, 19, 28, 32, 38)] + [
    (1, {0}), (2, {1}), (3, {2}), (7, {2, 3, 4}), (10, {3, 7}), (12, {5, 7, 11})]


@pytest.mark.parametrize("bound", [-1, 0, 1, 2, 3, (1 << 17) - 1, 1 << 17,
                                   (1 << 17) + 1, 300_000])
def test_bounded_streams_match_an_is_prime_filter(filtered_primes, bound):
    expected = [p for p in filtered_primes if p <= bound]
    assert primes_upto(bound) == expected
    for modulus, residues in _CLASS_SETS:
        got = primes_in_classes(PrimeStream(modulus, residues, bound=bound))
        assert got == [p for p in expected if p % modulus in residues], (modulus, residues)


@pytest.mark.parametrize("modulus, residues", _CLASS_SETS)
def test_first_streams_past_the_first_segment_match_an_is_prime_filter(
        filtered_primes, modulus, residues):
    matching = [p for p in filtered_primes if p % modulus in residues]
    first = sum(1 for p in matching if p <= 1 << 17) + 50
    got = primes_in_classes(PrimeStream(modulus, residues, first=first))
    assert got == matching[:first]
    assert got[-1] > 1 << 17
    assert primes_in_classes(PrimeStream(modulus, residues, first=1)) == matching[:1]


@pytest.mark.parametrize("start", [-5, 0, 2, 3, (1 << 17) - 5, (1 << 17) + 1,
                                   200_003, 250_000])
def test_iter_primes_from_a_start_matches_an_is_prime_filter(filtered_primes, start):
    got = list(itertools.islice(iter_primes(start), 2000))
    assert got == [p for p in filtered_primes if p >= start][:2000]


def test_segments_grow_the_base_primes_only_to_the_block_root(monkeypatch):
    # past 131071^2 the next block needs base primes to isqrt(hi), about
    # 1.3 * 10^5, not a sieve of twice the square of the last base prime
    real = numkit._small_primes

    def guarded(bound):
        if bound > 10**7:
            raise AssertionError(f"base primes asked for up to {bound}")
        return real(bound)

    monkeypatch.setattr(numkit, "_small_primes", guarded)
    start = 18_000_000_000
    p = next(iter_primes(start))
    assert is_prime(p)
    assert not any(is_prime(v) for v in range(start, p))


def test_trace_indices_is_each_index_set_it_replaces():
    # one set, three readings: the split ladder's trace indices, the j of the
    # negative-root cutoffs, and the wreath product's representatives of
    # (Z/n)*/{+-1}, each spelled out by its own formula
    for n in range(1, 201):
        n_mod = trace_modulus(n)
        ladder = tuple(j for j in range(1, (n + 1) // 2) if math.gcd(j, n_mod) == 1)
        if n % 2:
            negative = tuple(j for j in range(1, (n + 1) // 2) if math.gcd(j, n) == 1)
        else:
            negative = tuple(j for j in range(1, n // 2) if math.gcd(j, 2 * n) == 1)
        wreath = tuple(j for j in range(1, n // 2 + 1) if math.gcd(j, n) == 1 and 2 * j != n)
        assert trace_indices(n) == ladder == negative == wreath, n
        if n >= 3:
            assert len(trace_indices(n)) == euler_phi(n) // 2, n
