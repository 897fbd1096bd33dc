import math

import pytest

from macbeath import numkit
from macbeath.errors import Inadmissible
from macbeath.numkit import (
    PrimeStream,
    divisors,
    euler_phi,
    genus,
    is_prime,
    lucas_v,
    moebius,
    mult_order_signed,
    primes_in_classes,
    primes_upto,
    psl2_order,
)
from timelimit import time_limit


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


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
    assert primes_in_classes(PrimeStream.first_k(7, {1, 6}, 4)) == [13, 29, 41, 43]
    assert primes_in_classes(PrimeStream.first_k(4, {1}, 3)) == [5, 13, 17]
    first400 = primes_in_classes(PrimeStream.plus_minus_one(7, first=400))
    assert len(first400) == 400
    assert first400[-1] == 9871


def test_primes_in_classes_bound_mode():
    got = primes_in_classes(PrimeStream.up_to(7, {1, 6}, 100))
    assert got == [13, 29, 41, 43, 71, 83, 97]


@pytest.mark.parametrize("bound", [(1 << 17) - 1, 1 << 17, (1 << 17) + 1])
def test_bounded_sieve_matches_segmented_path(bound):
    segmented = []
    for p in numkit.iter_primes():
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
    assert primes_in_classes(PrimeStream.up_to(7, {1}, 1)) == []


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
    inner = set(primes_in_classes(PrimeStream.up_to(7, {1, 6}, 3000)))
    outer = set(primes_in_classes(PrimeStream.up_to(7, {2, 3, 4, 5}, 3000)))
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


def test_psl2_order():
    assert psl2_order(7) == 168
    assert psl2_order(8) == 504
    assert psl2_order(13) == 1092
    assert psl2_order(25) == 7800
    with pytest.raises(ValueError):
        psl2_order(12)
    with pytest.raises(ValueError):
        psl2_order(1)


def test_prime_power_decompose():
    assert numkit.prime_power_decompose(27) == (3, 3)
    assert numkit.prime_power_decompose(1024) == (2, 10)
    assert numkit.prime_power_decompose(9871) == (9871, 1)
    for p in (2, 3, 13, 2**61 - 1, (1 << 64) - 59):  # the last is the largest 64-bit prime
        assert numkit.prime_power_decompose(p) == (p, 1)
    assert numkit.prime_power_decompose(13**5) == (13, 5)
    assert numkit.prime_power_decompose((2**61 - 1) ** 2) == (2**61 - 1, 2)
    assert numkit.prime_power_decompose(2**64) == (2, 64)
    big = 2**89 - 1  # a Mersenne prime past the 64-bit range
    with pytest.raises(ValueError):
        numkit.prime_power_decompose(big)  # primality is only decided below 2^64
    for composite in (12, 15, (1 << 64) - 1, 2**64 + 2):
        with pytest.raises(ValueError):
            numkit.prime_power_decompose(composite)


def test_prime_power_decompose_tries_small_exponents_first(monkeypatch):
    roots = []
    real = numkit._integer_nth_root

    def counted(x, n):
        roots.append(n)
        return real(x, n)

    monkeypatch.setattr(numkit, "_integer_nth_root", counted)
    for p in (2, 3, 13, 499, 65521, 2**61 - 1):
        for d in range(2, 10):
            roots.clear()
            assert numkit.prime_power_decompose(p**d) == (p, d)
            assert roots == list(range(2, d + 1))  # p^d is found at exponent d
    for q in (6**2, 6**5, 3**2 * 5, 13**2 * 7, 499**2 * 503, 2**10 * 3**10, 100):
        with pytest.raises(ValueError):
            numkit.prime_power_decompose(q)


def test_genus_paper_examples():
    assert genus(3, 7, 7) == 3
    assert genus(3, 7, 8) == 7
    assert genus(3, 9, 19) == 96
    assert genus(4, 5, 31) == 373
    assert genus(3, 13, 25) == 351
    assert genus(3, 11, 32) == 1241
    assert genus(3, 15, 16) == 205
    assert genus(3, 17, 16) == 221
    assert genus(3, 19, 37) == 1444
    assert genus(3, 10, 19) == 115
    assert genus(3, 12, 25) == 326
    assert genus(3, 14, 29) == 581


def test_genus_hurwitz_identity():
    for q in (7, 8, 13, 27, 29, 41, 43, 64, 97, 113):
        try:
            g = genus(3, 7, q)
        except Inadmissible:
            continue
        assert psl2_order(q) == 84 * (g - 1)


def test_genus_rejects_non_hyperbolic():
    with pytest.raises(Inadmissible):
        genus(3, 6, 7)
    with pytest.raises(Inadmissible):
        genus(4, 4, 7)


def test_genus_rejects_non_integral():
    # q = 11 is inadmissible for type {3,7}: 11 = +-4 mod 7 needs q = 11^3
    with pytest.raises(Inadmissible):
        genus(3, 7, 11)
