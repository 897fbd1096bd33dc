"""Reference arithmetic for the output checks, independent of the program.

Nothing here imports `macbeath`: the checks compare the program's outputs
with values computed by these routines (and by sympy where a check says so),
so a fault in the program cannot cancel itself out.
"""

from __future__ import annotations

import math


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound by a plain sieve of Eratosthenes."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def phi(n: int) -> int:
    out = n
    for q in prime_factors(n):
        out = out // q * (q - 1)
    return out


def trace_modulus(n: int) -> int:
    """N = n for odd n, 2n for even n: the order of the rotation in PSL(2,q)."""
    return n if n % 2 else 2 * n


def signed_order(p: int, modulus: int) -> int:
    """Least d >= 1 with p^d = +-1 (mod modulus): the degree of the map field."""
    r, d = p % modulus, 1
    while r not in (1, modulus - 1):
        r = r * p % modulus
        d += 1
    return d


def legendre(a: int, p: int) -> int:
    """Euler's criterion: +1, -1, or 0 when p divides a."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _fp2_mul(a, b, c, p):
    # (a0 + a1 i)(b0 + b1 i) with i^2 = c
    return ((a[0] * b[0] + a[1] * b[1] * c) % p, (a[0] * b[1] + a[1] * b[0]) % p)


def _fp2_pow(a, e, c, p):
    out = (1, 0)
    while e:
        if e & 1:
            out = _fp2_mul(out, a, c, p)
        a = _fp2_mul(a, a, c, p)
        e >>= 1
    return out


def split_traces(N: int, p: int) -> list[int]:
    """t_j = zeta^j + zeta^-j in F_p for 1 <= j < N/2, gcd(j, N) = 1.

    zeta is an element of order exactly N, taken in F_p when p = 1 (mod N)
    and in F_{p^2} = F_p[i]/(i^2 - c) when p = -1 (mod N); in the second case
    zeta^-j is the conjugate of zeta^j, so t_j still lies in F_p.
    """
    js = [j for j in range(1, (N + 1) // 2) if math.gcd(j, N) == 1]
    qs = prime_factors(N)
    if p % N == 1:
        for g in range(2, p):
            z = pow(g, (p - 1) // N, p)
            if all(pow(z, N // q, p) != 1 for q in qs):
                break
        zinv = pow(z, -1, p)
        return [(pow(z, j, p) + pow(zinv, j, p)) % p for j in js]
    if p % N != N - 1:
        raise ValueError(f"p={p} is not +-1 mod {N}")
    c = next(a for a in range(2, p) if legendre(a, p) == -1)
    one = (1, 0)
    for g0 in range(p):
        z = _fp2_pow((g0, 1), (p * p - 1) // N, c, p)
        if all(_fp2_pow(z, N // q, c, p) != one for q in qs):
            break
    return [2 * _fp2_pow(z, j, c, p)[0] % p for j in js]


def split_class_params(n: int, p: int) -> list[int] | None:
    """The s-values 3 - t^2 of the trace classes for a split prime, sorted.

    Returns None when p has bad reduction: an s-value vanishes or two
    classes collide, so the phi(n)/2 classes are not distinct.
    """
    values = {(3 - t * t) % p for t in split_traces(trace_modulus(n), p)}
    if 0 in values or len(values) != phi(n) // 2:
        return None
    return sorted(values)


def split_k(n: int, p: int) -> int | None:
    """Number of inner regular classes for a split prime, or None if bad."""
    values = split_class_params(n, p)
    if values is None:
        return None
    return sum(1 for s in values if legendre(s, p) == 1)


def psl2_genus(n: int, q: int, m: int = 3) -> int:
    """Genus of a type-{m,n} map with rotation group PSL(2,q), q odd."""
    order = q * (q * q - 1) // 2
    num = order * (m * n - 2 * m - 2 * n)
    if num % (4 * m * n):
        raise ValueError("non-integral genus")
    return 1 + num // (4 * m * n)


def poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a*b mod (f, p) for ascending coefficient lists; f monic."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    deg = len(f) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(deg + 1):
                prod[i - deg + j] -= c * f[j]
    out = [c % p for c in prod[:deg]]
    while out and out[-1] == 0:
        out.pop()
    return out


def wreath_patterns(n: int) -> set[tuple[int, ...]]:
    """Cycle types of C2 wr ((Z/n)^*/{+-1}) on the phi(n) roots of f1(x^2).

    Odd n only.  A group element is a sign vector on the root pairs and a
    multiplier a; an a-orbit of length L gives one 2L-cycle when its sign
    sum is odd and two L-cycles when it is even.
    """
    reps = [j for j in range(1, (n + 1) // 2) if math.gcd(j, n) == 1]
    canon = {j: min(j, n - j) for j in range(1, n)}
    out = set()
    for a in reps:
        seen, lengths = set(), []
        for j in reps:
            if j in seen:
                continue
            length, cur = 0, j
            while cur not in seen:
                seen.add(cur)
                cur = canon[cur * a % n]
                length += 1
            lengths.append(length)
        for odd_mask in range(1 << len(lengths)):
            pattern = []
            for i, length in enumerate(lengths):
                if odd_mask >> i & 1:
                    pattern.append(2 * length)
                else:
                    pattern += [length, length]
            out.add(tuple(sorted(pattern)))
    return out


def sympy_f1(n: int) -> list[int]:
    """f1 for type {3,n}, ascending, built by sympy alone.

    The s-values are 1 - u over the roots u of the minimal polynomial of
    2cos(2pi/n), so f1(x) = (-1)^deg Psi_n(1 - x).
    """
    import sympy

    x = sympy.Symbol("x")
    psi = sympy.Poly(sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / n), x), x)
    f1 = sympy.Poly((-1) ** psi.degree() * psi.as_expr().subs(x, 1 - x), x)
    return [int(c) for c in reversed(f1.all_coeffs())]


def doubled(coeffs: list[int]) -> list[int]:
    """f(x^2) from f, ascending coefficient lists."""
    out = [0] * (2 * len(coeffs) - 1)
    out[::2] = coeffs
    return out


def sympy_discriminant(coeffs: list[int]) -> int:
    import sympy

    x = sympy.Symbol("x")
    return int(sympy.discriminant(sympy.Poly(list(reversed(coeffs)), x)))


def sympy_pattern(coeffs: list[int], p: int) -> tuple[int, ...]:
    """Factor degrees (with multiplicity) of a monic integer polynomial mod p,
    from sympy's galoistools."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_from_int_poly

    f = gf_from_int_poly(list(reversed(coeffs)), p)
    _, factors = gf_factor(f, p, ZZ)
    return tuple(sorted(d for g, mult in factors for d in [len(g) - 1] * mult))
