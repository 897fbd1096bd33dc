"""Exact integer-coefficient polynomial arithmetic.

Builds the minimal polynomial Psi_n of 2*cos(2*pi/n) by exact divisor-product
division of Vieta-Lucas (normalized Chebyshev) combinations, the monic
s-polynomials whose roots parametrize trace classes, their doubled companions
f(x^2), and exact discriminants via resultants.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import NamedTuple

from .errors import Inadmissible, IntegrityError
from .numkit import divisors, euler_phi, moebius


class IntPoly:
    """Immutable polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored constant-term first; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))
        object.__setattr__(self, "_hash", hash(self.coeffs))  # the caches' key

    def __setattr__(self, *args):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def const(cls, c: int) -> IntPoly:
        return cls((c,))

    @classmethod
    def x(cls) -> IntPoly:
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def compose(self, inner: IntPoly) -> IntPoly:
        """self(inner(x)), by Horner over polynomials."""
        result = IntPoly.zero()
        for c in reversed(self.coeffs):
            result = result * inner + IntPoly.const(c)
        return result

    def exact_div(self, divisor: IntPoly) -> IntPoly:
        """Exact quotient self / divisor; IntegrityError if a remainder is left."""
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        lead = dc[-1]
        out = [0] * max(len(rem) - len(dc) + 1, 0)
        for i in range(len(rem) - len(dc), -1, -1):
            c = rem[i + len(dc) - 1]
            if c % lead:
                raise IntegrityError("exact polynomial division left a remainder")
            q = c // lead
            out[i] = q
            for j, d in enumerate(dc):
                rem[i + j] -= q * d
        if any(rem):
            raise IntegrityError("exact polynomial division left a remainder")
        return IntPoly(out)

    def derivative(self) -> IntPoly:
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, value):
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def vieta_lucas(m: int) -> IntPoly:
    """V_m with V_0 = 2, V_1 = y, V_{m+1} = y*V_m - V_{m-1}.

    Satisfies V_m(2*cos(t)) = 2*cos(m*t); equals 2*T_m(y/2) in integer form.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    prev, cur = IntPoly.const(2), IntPoly.x()
    if m == 0:
        return prev
    y = IntPoly.x()
    for _ in range(m - 1):
        prev, cur = cur, y * cur - prev
    return cur


_PSI_CAP = 200  # largest n that psi accepts


def chebyshev_combination(n: int) -> IntPoly:
    """prod_{e | n} Psi_e(x) expressed through the Vieta-Lucas recurrence.

    For odd n = 2m+1 this is V_{m+1} - V_m; for even n = 2m it is
    V_{m+1} - V_{m-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2:
        m = (n - 1) // 2
        return vieta_lucas(m + 1) - vieta_lucas(m)
    m = n // 2
    return vieta_lucas(m + 1) - vieta_lucas(m - 1)


@functools.lru_cache(maxsize=None)
def psi(n: int) -> IntPoly:
    """Minimal polynomial of 2*cos(2*pi/n) over Q, monic of degree phi(n)/2.

    Recovered from the divisor product identity by exact division, which
    doubles as a consistency check: any nonzero remainder raises.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _PSI_CAP:
        raise ValueError(f"n must be <= {_PSI_CAP}")
    result = chebyshev_combination(n)
    for e in divisors(n):
        if e < n:
            result = result.exact_div(psi(e))
    expected_deg = 1 if n <= 2 else euler_phi(n) // 2
    if not result.is_monic() or result.degree != expected_deg:
        raise IntegrityError(f"psi({n}) failed monic/degree check: {result}")
    return result


# prod_{e | d} Psi_e(1) by residue of e mod 12: integers for odd e, and
# twice the value for even e (zero for e = 0 mod 6, half-integers otherwise).
_B_ODD = {1: -1, 3: -2, 5: -1, 7: 1, 9: 2, 11: 1}
_B_EVEN_TWICE = {0: 0, 2: -3, 4: -3, 6: 0, 8: 3, 10: 3}


def _b_value(e: int) -> Fraction:
    from fractions import Fraction

    if e % 2:
        return Fraction(_B_ODD[e % 12])
    return Fraction(_B_EVEN_TWICE[e % 12], 2)


class PsiOne(NamedTuple):
    n: int
    direct: int          # Psi_n(1), authoritative
    mobius: Fraction     # the Moebius-product route, equal to direct
    degenerate: bool     # True when the tabulated product had zeros (6 | n)


def psi_at_one(n: int) -> PsiOne:
    """Psi_n(1) with a Moebius-product cross-check.

    The direct evaluation is checked against prod_{e|n} b_e^{mu(n/e)} where
    b_e = prod_{d|e} Psi_d(1) comes from the tabulated case values.  The
    comparison is done in cross-multiplied form so zero entries (which occur
    exactly when 6 | e) never get inverted; when 6 | n both sides collapse to
    zero and an exact limit form of the product, with the simple zero at
    x = 1 cancelled against the derivative, is checked instead.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    from fractions import Fraction

    direct = psi(n)(1)
    num = Fraction(1)
    den = Fraction(1)
    for e in divisors(n):
        mu = moebius(n // e)
        if mu == 0:
            continue
        if mu == 1:
            num *= _b_value(e)
        else:
            den *= _b_value(e)
    if den != 0:
        product = num / den
        if product != direct:
            raise IntegrityError(
                f"Moebius cross-check failed for n={n}: {product} != {direct}")
        return PsiOne(n, direct, product, False)
    if num != 0:
        raise IntegrityError(f"Moebius cross-check failed for n={n}: {num} != 0")
    # 6 | n: redo the product with the zero factor Psi_6 cancelled via the
    # derivative of the Chebyshev combination at its simple root x = 1.
    product = Fraction(1)
    for e in divisors(n):
        mu = moebius(n // e)
        if mu == 0:
            continue
        comb = chebyshev_combination(e)
        value = comb.derivative()(1) if e % 6 == 0 else comb(1)
        product *= Fraction(value) ** mu
    if product != direct:
        raise IntegrityError(
            f"degenerate Moebius cross-check failed for n={n}: {product} != {direct}")
    return PsiOne(n, direct, product, True)


# w_m^2 where +-w_m is the trace of a rotation of order m, for each supported m
_W_SQUARE = {3: 1, 4: 2, 6: 3}


def s_polynomial(m: int, n: int) -> IntPoly:
    """Monic polynomial of degree phi(n)/2 whose roots are the s-parameters
    of trace classes for maps of type {m,n}.

    Supported face valencies are m = 3, 4, 6, the ones whose order-m trace
    has a rational square (1, 2, 3 respectively).
    """
    if m not in _W_SQUARE:
        raise Inadmissible(f"m={m} is unsupported: the order-{m} trace square is irrational")
    if (m - 2) * (n - 2) <= 4:
        raise Inadmissible(f"type {{{m},{n}}} is not hyperbolic")
    deg = euler_phi(n) // 2
    f1 = psi(n).compose(IntPoly((2 - _W_SQUARE[m], -1)))  # Psi_n(2 - w_m^2 - x)
    if deg % 2:
        f1 = -f1
    if not f1.is_monic() or f1.degree != deg:
        raise IntegrityError(f"s_polynomial({m},{n}) failed monic/degree check")
    return f1


def doubled(f1: IntPoly) -> IntPoly:
    """f1(x^2): even-power coefficients only, twice the degree."""
    out = [0] * (2 * len(f1.coeffs))
    out[::2] = f1.coeffs
    return IntPoly(out)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of f and g by the subresultant remainder sequence over Z
    (Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    3.3.7): every division in it is exact, so no fraction is ever formed.
    A zero polynomial has resultant 0 with anything."""
    a, b = list(f.coeffs), list(g.coeffs)
    if not a or not b:
        return 0
    ca, cb = functools.reduce(gcd, a), functools.reduce(gcd, b)
    a, b = [c // ca for c in a], [c // cb for c in b]
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    if len(a) < len(b):
        a, b = b, a
        t *= (-1) ** ((len(a) - 1) * (len(b) - 1))
    if len(b) == 1:
        return t * b[0] ** (len(a) - 1)
    lead, h = 1, 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            t = -t
        r = _pseudo_remainder(a, b)
        a, b = b, [c // (lead * h**delta) for c in r]
        lead = a[-1]
        h = lead**delta // h ** (delta - 1) if delta else h
    if not b:
        return 0
    return t * (b[0] ** (len(a) - 1) // h ** (len(a) - 2))


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    r, lead, db = list(a), b[-1], len(b) - 1
    for _ in range(len(a) - db):
        c = r.pop()
        r = [x * lead for x in r]
        for i in range(db):
            r[len(r) - db + i] -= c * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def discriminant(f: IntPoly) -> int:
    """Exact discriminant; zero iff f has a repeated complex root."""
    if f.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    d = f.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    value, left = divmod(sign * resultant(f, f.derivative()), f.coeffs[-1])
    if left:
        raise IntegrityError("discriminant of an integer polynomial must be integral")
    return value
