"""Integer and prime utilities.

Primality is deterministic for the full 64-bit range, prime enumeration is
segmented so that million-prime sweeps stay cheap, and group orders / genera
are computed in exact arbitrary precision throughout.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, compress
from typing import NamedTuple

from .errors import Inadmissible

# Strong-pseudoprime bounds (Pomerance, Selfridge and Wagstaff 1980; Jaeschke
# 1993): below each bound the bases beside it are enough, because the bound
# is the least strong pseudoprime to all of them.  The twelve primes up to 37
# are proven deterministic for every n < 3.3 * 10**24, hence for all 64-bit
# inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANGES = ((1_373_653, (2, 3)), (25_326_001, (2, 3, 5)),
              (3_215_031_751, (2, 3, 5, 7)), (1 << 64, _MR_WITNESSES))

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
    s = ((v - 1) & (1 - v)).bit_length() - 1  # v - 1 = d * 2^s with d odd
    d = (v - 1) >> s
    for bound, witnesses in _MR_RANGES:
        if v < bound:
            break
    for w in witnesses:
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


def _block(lo: int, hi: int, base: list[int]) -> bytearray:
    """flags[i] = 1 iff lo + i is prime, for 2 <= lo <= hi and base holding
    every prime up to isqrt(hi): one slice assignment per base prime."""
    size = hi - lo + 1
    flags = bytearray([1]) * size
    for p in base:
        if p * p > hi:
            break
        first = max(p * p, -(-lo // p) * p) - lo
        flags[first::p] = bytes(len(range(first, size, p)))
    return flags


@functools.lru_cache(maxsize=None)
def _small_primes(bound: int) -> list[int]:
    if bound < 2:
        return []
    return list(compress(range(2, bound + 1),
                         _block(2, bound, _small_primes(math.isqrt(bound)))))


def _segments(lo: int, stop: int | None = None):
    """Yield (lo, flags) for consecutive blocks from lo >= 2 up to stop
    (inclusive; without end when None), as `_block` flags them.

    The base primes reach the power of two above isqrt(hi), at most twice
    it, and grow when a block passes them, so they stay O(sqrt(hi)) in
    memory; the powers of two make repeated streams share their cache.
    """
    limit, base = 0, []
    while stop is None or lo <= stop:
        hi = lo + _SEGMENT - 1 if stop is None else min(lo + _SEGMENT - 1, stop)
        if limit < math.isqrt(hi):
            limit = 1 << math.isqrt(hi).bit_length()
            base = _small_primes(limit)
        yield lo, _block(lo, hi, base)
        lo = hi + 1


def _in_classes(lo: int, flags: bytearray, modulus: int, residues) -> list[int]:
    """The flagged lo + i in the residue classes, ascending: one C-level
    compress per class over the stride-modulus slice of the flags.  An odd
    modulus is doubled to skip the even half of each class, which holds no
    prime but 2."""
    end = lo + len(flags)
    head = []
    if modulus % 2:
        head = [2] if lo <= 2 < end and 2 % modulus in residues else []
        residues = {r if r % 2 else r + modulus for r in residues}
        modulus *= 2
    runs = [compress(range(lo + off, end, modulus), flags[off::modulus])
            for off in ((r - lo) % modulus for r in residues)]
    return head + sorted(chain.from_iterable(runs))


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, ascending."""
    return primes_in_classes(PrimeStream(1, {0}, bound=bound))


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
    def plus_minus_one(cls, modulus: int, *, first: int | None = None,
                       bound: int | None = None) -> PrimeStream:
        """Primes congruent to +-1 mod `modulus`."""
        return cls(modulus, {1, -1}, first=first, bound=bound)


def primes_in_classes(stream: PrimeStream) -> list[int]:
    """Materialize a PrimeStream as an ascending list of primes, sieving
    segment after segment until its bound or count is met."""
    modulus, residues, first, bound = stream
    out: list[int] = []
    for lo, flags in _segments(2, bound):
        out += _in_classes(lo, flags, modulus, residues)
        if first is not None and len(out) >= first:
            return out[:first]
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


def trace_modulus(n: int) -> int:
    """N, the order in SL(2,q) of a lift of a rotation of order n: n for odd
    n, 2n for even n.  Its traces are the roots of Psi_N."""
    return n if n % 2 else 2 * n


@functools.lru_cache(maxsize=None)
def trace_indices(n: int) -> tuple[int, ...]:
    """The j with 1 <= j < n/2 and gcd(j, N) = 1, N = trace_modulus(n), one per
    class of (Z/n)*/{+-1}: with z of order N, t_j = z^j + z^-j gives each root
    shift - t_j^2 of the s-polynomial once (t_{n-j} = -t_j gives it again)."""
    n_mod = trace_modulus(n)
    return tuple(j for j in range(1, (n + 1) // 2) if math.gcd(j, n_mod) == 1)


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


def genus_of_prime_power(m: int, n: int, q: int) -> int:
    """Genus of a map of hyperbolic type {m,n} with rotation group PSL(2,q),
    q a prime power, from |G| = 4mn/(mn-2m-2n) * (g-1); a non-integral
    result signals an inadmissible q for this type."""
    num = q * (q * q - 1) // math.gcd(2, q - 1) * (m * n - 2 * m - 2 * n)
    den = 4 * m * n
    if num % den:
        raise Inadmissible(f"genus of type {{{m},{n}}} over q={q} is not integral")
    return 1 + num // den
