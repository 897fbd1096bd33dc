"""Integer and prime utilities.

Primality is deterministic for the full 64-bit range, prime enumeration is
segmented so that million-prime sweeps stay cheap, and group orders / genera
are computed in exact arbitrary precision throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import Inadmissible

# Witness set proven deterministic for every n < 3.3 * 10**24, hence for all
# 64-bit inputs.  Its first four suffice below 3,215,031,751, the least strong
# pseudoprime to the bases 2, 3, 5 and 7.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_SMALL_BOUND = 3_215_031_751

_SEGMENT = 1 << 17


def is_prime(v: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= v < 2**64."""
    if v < 0 or v >= 1 << 64:
        raise ValueError(f"is_prime is only deterministic for 64-bit inputs, got {v}")
    if v < 2:
        return False
    for w in _MR_WITNESSES:
        if v == w:
            return True
        if v % w == 0:
            return False
    d = v - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES[:4] if v < _MR_SMALL_BOUND else _MR_WITNESSES:
        x = pow(w, d, v)
        if x == 1 or x == v - 1:
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def _small_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, bound + 1) if sieve[i]]


def iter_primes(start: int = 2):
    """Yield primes >= start in increasing order, sieving one segment at a time."""
    base = _small_primes(_SEGMENT)
    if start <= _SEGMENT:
        for p in base:
            if p >= start:
                yield p
        lo = _SEGMENT + 1
    else:
        lo = start
    while True:
        hi = lo + _SEGMENT - 1
        while base[-1] ** 2 < hi:
            base = _small_primes(2 * base[-1] ** 2)
        block = bytearray([1]) * (hi - lo + 1)
        for p in base:
            if p * p > hi:
                break
            first = max(p * p, ((lo + p - 1) // p) * p)
            block[first - lo :: p] = bytearray(len(block[first - lo :: p]))
        for i, flag in enumerate(block):
            if flag:
                yield lo + i
        lo = hi + 1


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, ascending (segmented sieve)."""
    if bound < 2:
        return []
    if bound <= _SEGMENT:
        return _small_primes(bound)
    out = []
    for p in iter_primes():
        if p > bound:
            break
        out.append(p)
    return out


class _PrimeStreamFields(NamedTuple):
    modulus: int
    residues: frozenset[int]
    first: int | None = None
    bound: int | None = None


class PrimeStream(_PrimeStreamFields):
    """A filter over primes: residue classes mod `modulus`, cut by count or bound.

    Exactly one of `first` (emit the first K >= 1 matching primes) and
    `bound` (emit every matching prime <= bound) is set.  Residues are
    reduced mod `modulus`.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, residues, first: int | None = None,
                bound: int | None = None):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        residues = frozenset(r % modulus for r in residues)
        if not residues:
            raise ValueError("residue set must be nonempty")
        for r in residues:
            if math.gcd(r, modulus) != 1:
                raise ValueError(f"residue {r} is not coprime to {modulus}")
        if (first is None) == (bound is None):
            raise ValueError("set exactly one of first / bound")
        if first is not None and first < 1:
            raise ValueError(f"first must be >= 1, got {first}")
        return super().__new__(cls, modulus, residues, first, bound)

    @classmethod
    def first_k(cls, modulus: int, residues, k: int) -> PrimeStream:
        return cls(modulus, residues, first=k)

    @classmethod
    def up_to(cls, modulus: int, residues, bound: int) -> PrimeStream:
        return cls(modulus, residues, bound=bound)

    @classmethod
    def plus_minus_one(cls, modulus: int, *, first: int | None = None,
                       bound: int | None = None) -> PrimeStream:
        """Primes congruent to +-1 mod `modulus`."""
        return cls(modulus, {1, -1}, first=first, bound=bound)


def primes_in_classes(stream: PrimeStream) -> list[int]:
    """Materialize a PrimeStream as an ascending list of primes."""
    m = stream.modulus
    if stream.bound is not None and 2 <= stream.bound <= _SEGMENT:
        return [p for p in _small_primes(stream.bound) if p % m in stream.residues]
    out = []
    for p in iter_primes():
        if stream.bound is not None and p > stream.bound:
            break
        if p % m in stream.residues:
            out.append(p)
            if stream.first is not None and len(out) == stream.first:
                break
    return out


def lucas_v(k: int, c: int, p: int) -> int:
    """V_k(c) mod p, where V_0 = 2, V_1 = c and V_{i+1} = c*V_i - V_{i-1}.

    A ladder over the pair (V_i, V_{i+1}), one doubling step per bit of k, so
    it costs O(log k) products mod p.  V_k(z + 1/z) = z^k + z^-k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    c %= p
    v, w = 2 % p, c
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w = (v * w - c) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - c) % p
    return v


def mult_order_signed(p: int, modulus: int) -> int:
    """Least e >= 1 with p**e = +-1 (mod modulus)."""
    if math.gcd(p, modulus) != 1:
        raise ValueError(f"gcd({p}, {modulus}) != 1")
    if modulus <= 2:
        return 1
    r = p % modulus
    e = 1
    while r != 1 and r != modulus - 1:
        r = r * p % modulus
        e += 1
        if e > modulus:
            raise AssertionError("signed order search did not terminate")
    return e


def _factorize(n: int) -> dict[int, int]:
    # trial division; inputs here are small (map valencies, moduli)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> tuple[int, ...]:
    """Divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    divs = [1]
    for q, a in _factorize(n).items():
        divs = [d * q**i for d in divs for i in range(a + 1)]
    return tuple(sorted(divs))


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = 1
    for _, a in _factorize(n).items():
        if a > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = n
    for q in _factorize(n):
        phi = phi // q * (q - 1)
    return phi


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p**d with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q < 1 << 64 and is_prime(q):
        return q, 1
    # a prime power has one prime base, so the first exponent that fits is
    # it; a root past 2^64 is skipped, as its primality is not decided
    for d in range(2, q.bit_length() + 1):
        p = _integer_nth_root(q, d)
        if p**d == q and p < 1 << 64 and is_prime(p):
            return p, d
    raise ValueError(f"{q} is not a power of a prime below 2^64")


def _integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, by integer Newton steps from above."""
    if n == 1 or x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)  # 2^ceil(bits/n) > x^(1/n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def psl2_order(q: int) -> int:
    """|PSL(2,q)| = q(q^2-1)/gcd(2, q-1), exact."""
    prime_power_decompose(q)  # raises unless q is a prime power
    return q * (q * q - 1) // math.gcd(2, q - 1)


def genus(m: int, n: int, q: int) -> int:
    """Genus of an orientably regular map of type {m,n} with rotation group PSL(2,q).

    Derived from |G| = 4mn/(mn-2m-2n) * (g-1); raises if the result is not an
    integer, which signals an inadmissible q for this type.
    """
    if (m - 2) * (n - 2) <= 4:
        raise Inadmissible(f"type {{{m},{n}}} is not hyperbolic")
    prime_power_decompose(q)  # raises unless q is a prime power
    return genus_of_prime_power(m, n, q)


def genus_of_prime_power(m: int, n: int, q: int) -> int:
    """`genus` for a hyperbolic {m,n} and a q already known to be a prime
    power, so q is not decomposed (nor tested for primality) again."""
    num = q * (q * q - 1) // math.gcd(2, q - 1) * (m * n - 2 * m - 2 * n)
    den = 4 * m * n
    if num % den:
        raise Inadmissible(f"genus of type {{{m},{n}}} over q={q} is not integral")
    return 1 + num // den
