"""Finite fields F_p[x]/(g) and polynomial factorization mod p.

Polynomials over F_p are coefficient lists, constant term first, entries in
0..p-1, no trailing zeros ([] is zero).  Factorization runs squarefree
decomposition, distinct degree factorization by Frobenius maps, then
Cantor-Zassenhaus equal degree splitting in the same ring (a trace map in
characteristic 2); its PRNG, seeded from the input, runs only if a class splits.
The Frobenius map h -> h^p has one entry point, `_PackedModulus.frobenius_map`:
the ring builds its rows on its first map, and no caller holds them.  The
distinct degree split proves a polynomial of prime-power degree r irreducible
by x^(p^r) = x, with no gcd; it and `is_irreducible` form each x^(p^i) - x
packed, and `_gcd` is the one Euclid.  Degree patterns of g(x^2) are read
mod g, a class's square count off a trace, with no Euclid of their own.
Square roots in F_{p^e} descend through its subfields by Frobenius maps in
the field's one ring, with no power of full size.
"""

from __future__ import annotations

import functools
import operator
import random
from typing import NamedTuple

from .errors import IntegrityError
from .intpoly import IntPoly, discriminant
from .numkit import _factorize, divisors, is_prime


# ---------------------------------------------------------------------------
# coefficient-list arithmetic over F_p


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim([c % p for c in out])


def _rem_in_place(a, b, p):
    """a mod b for a nonzero trimmed b, taken in the list a (consumed) and
    returned trimmed: the one remainder loop, shared by `_rem` and `_gcd`.
    It skips the zero low coefficients of b."""
    lb = len(b)
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    while len(a) >= lb:
        c = a.pop()
        if c:
            if inv != 1:
                c = c * inv % p
            base = len(a) - lb + 1
            for j in range(lb - 1):
                if b[j]:
                    a[base + j] = (a[base + j] - c * b[j]) % p
    return _trim(a)


def _rem(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    return _rem_in_place(list(a), b, p)


def _quo(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        if c:
            quo[i] = c
            for j, d in enumerate(b):
                rem[i + j] = (rem[i + j] - c * d) % p
    return _trim(quo)


def _monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _rem_in_place(a, b, p)
    return _monic(a, p)


def _deriv(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _series_mu(f, p=0):
    """MU = floor(x^(2d)/f) for f monic of degree d, ascending: reversed, it is
    the power series 1/rev(f) mod x^(d+1), rev(f) = x^d f(1/x).  Mod p, or over
    Z for p = 0, where a monic f keeps every coefficient integral."""
    d = len(f) - 1
    inv = [1]
    for j in range(1, d + 1):
        c = -sum(map(operator.mul, f[d - j:d], inv))
        inv.append(c % p if p else c)
    return inv[::-1]


# (mask, low, quotient mask, repunit, top bits) of a ring, by (d, w, K): they
# depend on p only through its size
_LAYOUTS: dict[tuple[int, int, int], tuple[int, int, int, int, int]] = {}


class _PackedModulus:
    """Arithmetic in F_p[x]/(f) on Kronecker-packed ints, for a fixed f.

    A residue a_0 + ... + a_{d-1} x^(d-1) (0 <= a_j < p) of the monic f of
    degree d is the int sum a_j * 2^(j*w), one w-bit slot per coefficient; a
    product of two is one big-int product, slot j at most d*(p-1)^2.  Every
    entry point takes slots below d*p^2 < 2^V, V = bitlen(d*p^2), and reduces
    them in a fixed number of big-int operations whatever d is:

    * mod p, all slots at once, by a Barrett step (Barrett, CRYPTO '86;
      Granlund and Montgomery, PLDI '94): with K = V + bitlen(p) and M =
      ceil(2^K/p), floor(v*M/2^K) = floor(v/p) for v < 2^V, as the excess
      v*(M*p - 2^K)/(p*2^K) is below 2^-bitlen(p) < 1/p.  w = V + bitlen(M)
      keeps v*M below 2^w, inside its slot, so after the shift by K a
      (w-K)-bit mask per slot holds each quotient alone;
    * mod f, by polynomial Barrett reduction (von zur Gathen and Gerhard,
      Modern Computer Algebra, 9.1): for deg a < 2d, a mod f is the low d
      slots of a plus those of q*(x^d - f), q = floor(floor(a/x^d) * MU/x^d)
      with MU = floor(x^(2d)/f).  Nothing carries over F_p, and each sum
      reduced mod p stays below d*p^2.  A product may first be shifted by
      one slot (times x), since its degree stays below 2d.
    """

    __slots__ = ("p", "d", "w", "mask", "low", "_k", "_m", "_qm", "_top", "_p_slots",
                 "_mu", "_negf", "_frobenius")

    def __init__(self, f, p, series=None):
        """The ring mod f.  `series`, if given, is `_series_mu` over Z of a monic
        integer polynomial that reduces to f: MU is then that, reduced mod p."""
        f = _monic(f, p)  # the remainder mod c*f is the remainder mod f
        d = len(f) - 1
        if d < 1:
            raise ValueError("modulus must have degree >= 1")
        v = (d * p * p).bit_length()
        k = v + p.bit_length()
        m = -(-(1 << k) // p)
        w = v + m.bit_length()
        self.p, self.d, self.w, self._k, self._m = p, d, w, k, m
        layout = _LAYOUTS.get((d, w, k))
        if layout is None:
            mask, low = (1 << w) - 1, (1 << d * w) - 1
            # w - K low bits in each of 2d slots: where the quotients land; the
            # repunit with 1 in each of d slots; the top bit of each of them
            ones = low // mask
            layout = _LAYOUTS[d, w, k] = (mask, low, ((1 << 2 * d * w) - 1) // mask
                                          * ((1 << w - k) - 1), ones, ones << w - 1)
        self.mask, self.low, self._qm, ones, self._top = layout
        self._p_slots = ones * p  # p in each of d slots
        self._mu = self.pack([c % p for c in series] if series is not None
                          else _series_mu(f, p))
        self._negf = self.pack([-c % p for c in f[:-1]])
        self._frobenius = None

    def __eq__(self, other):  # the ring mod f, whatever rows it has built
        return isinstance(other, _PackedModulus) and (self.p, self.d, self._negf) == (
            other.p, other.d, other._negf)

    def __hash__(self):
        return hash((self.p, self.d, self._negf))

    def pack(self, coeffs) -> int:
        """A residue of degree < d, coefficients in 0..p-1, as one int."""
        v, w = 0, self.w
        for c in reversed(coeffs):
            v = (v << w) | c
        return v

    def unpack(self, v: int) -> list[int]:
        out, w, mask = [], self.w, self.mask
        for _ in range(self.d):
            out.append(v & mask)
            v >>= w
        return _trim(out)

    def normalize(self, acc: int) -> int:
        """Reduce each slot of acc (2d slots at most, each below d*p^2) mod p."""
        return acc - ((acc * self._m >> self._k) & self._qm) * self.p

    def reduce(self, prod: int) -> int:
        """A packed polynomial of degree < 2d (slots below d*p^2) mod f; its
        three steps mod p are `normalize` inlined (a call costs ~10% each)."""
        m, k, qm, p, low, dw = self._m, self._k, self._qm, self.p, self.low, self.d * self.w
        n = prod - ((prod * m >> k) & qm) * p
        q = (n >> dw) * self._mu >> dw
        q -= ((q * m >> k) & qm) * p
        r = (n & low) + (q * self._negf & low)
        return r - ((r * m >> k) & qm) * p

    def pow(self, a: int, exp: int) -> int:
        """a**exp mod f, left-to-right square and multiply."""
        if exp == 0:
            return 1
        reduce = self.reduce
        r = a
        if self.d > 1 and a == 1 << self.w:
            # a = x: multiplying by x is a shift by one slot, fused into
            # the reduction of the preceding square
            w = self.w
            for bit in bin(exp)[3:]:
                r = reduce((r * r) << w if bit == "1" else r * r)
        else:
            for bit in bin(exp)[3:]:
                r = reduce(r * r)
                if bit == "1":
                    r = reduce(r * a)
        return r

    def frobenius_map(self, h: int, times: int = 1) -> int:
        """phi^times(h), phi(h) = h(x)**p mod f: each step is the sum of the
        h_j * x**(p*j), j < d, accumulated packed on the Frobenius rows, which
        the ring's first map builds past x**p (d > 1)."""
        xp, rows = self.x_power_p(), self._frobenius
        while len(rows) < self.d:
            rows.append(self.reduce(rows[-1] * xp))
        w, mask = self.w, self.mask
        for _ in range(times):
            acc, v = 0, h
            for row in rows:
                c = v & mask
                if c:
                    acc += c * row
                v >>= w
            h = self.normalize(acc)
        return h

    def x_power_p(self, xp: int | None = None) -> int:
        """x**p mod f, the Frobenius row after 1, set on first use: to xp if
        the caller has it, else computed here."""
        if self._frobenius is None:
            self._frobenius = [1, self.pow(1 << self.w, self.p) if xp is None else xp]
        return self._frobenius[1]

    def frobenius_sum_power(self, a: int, terms: int, step: int = 1) -> int:
        """a**(1 + p^step + p^(2 step) + ...), `terms` terms, by Horner:
        b <- phi^step(b) * a with phi(h) = h**p (`frobenius_map`)."""
        b = a
        for _ in range(terms - 1):
            b = self.reduce(self.frobenius_map(b, step) * a)
        return b


# ---------------------------------------------------------------------------
# factorization


def _pth_root(f, p):
    # valid only for f in F_p[x**p]; coefficients are fixed by Frobenius
    if any(c for i, c in enumerate(f) if i % p):
        raise IntegrityError("polynomial is not a p-th power")
    return _trim([f[i] for i in range(0, len(f), p)])


def _sqf_list(f, p):
    """Squarefree decomposition of monic f: list of (monic factor, multiplicity)."""
    if len(f) <= 1:
        return []  # a constant has no factors (and f' = 0 would recurse forever)
    out = []
    df = _deriv(f, p)
    if not df:
        # f is a polynomial in x**p, i.e. a p-th power of its de-interleaving
        return [(g, m * p) for g, m in _sqf_list(_pth_root(f, p), p)]
    g = _gcd(f, df, p)
    if g == [1]:
        return [(f, 1)]
    w = _quo(f, g, p)
    i = 1
    while len(w) > 1:
        y = _gcd(w, g, p)
        z = _quo(w, y, p)
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w = y
        g = _quo(g, y, p)
    if len(g) > 1:
        # what survives the peeling has every multiplicity divisible by p
        out.extend((h, m * p) for h, m in _sqf_list(_pth_root(g, p), p))
    return out


def _ddf(f, p, ring=None):
    """Distinct-degree split of monic squarefree f of degree r: list of
    (product, degree), degrees ascending.  `ring` is the packed modulus of f,
    if the caller has it.

    x^(p^i) mod f is stepped by Frobenius maps up to the first i <= r/2 with
    x^(p^i) = x, whose proper divisors alone can find a factor.  With none,
    f is irreducible iff it has no factor of degree <= r/2: for r a prime
    power, iff x^(p^r) = x (each factor's degree divides r, and a proper
    divisor of r divides r/q <= r/2, q its prime), else iff the product of
    the x^(p^i) - x, i <= r/2, is prime to f (Rabin).  A reducible f then
    takes one gcd per degree up to half that of its shrinking cofactor."""
    r = len(f) - 1
    if r <= 1:
        return [(list(f), 1)] if r == 1 else []
    if ring is None:
        ring = _PackedModulus(f, p)
    x, xp = 1 << ring.w, ring.x_power_p()
    if xp == x:  # x^p = x mod f: every factor is linear
        return [(list(f), 1)]
    # x^(p^i) mod f for i <= r/2, up to the first that is x again
    powers = [xp]
    while len(powers) < r // 2 and powers[-1] != x:
        powers.append(ring.frobenius_map(powers[-1]))
    if powers[-1] == x:
        # x^(p^e) = x: every factor's degree divides e, so only the proper
        # divisors of e can find one, and what is left is one group of degree e
        e, steps = len(powers), divisors(len(powers))[:-1]
    else:
        if len(_factorize(r)) == 1:  # r a prime power: x^(p^r) = x decides
            irreducible = ring.frobenius_map(powers[-1], r - len(powers)) == x
        else:  # one gcd with the product of the x^(p^i) - x decides
            prod = ring.normalize(powers[0] + ring._p_slots - x)
            for h in powers[1:]:
                prod = ring.reduce(prod * ring.normalize(h + ring._p_slots - x))
            irreducible = _gcd(ring.unpack(prod), f, p) == [1]
        if irreducible:
            return [(list(f), r)]
        e, steps = 0, range(1, len(powers) + 1)
    out = []
    # h and the Frobenius rows stay reduced mod the original f: every
    # cofactor divides it, so a gcd with the cofactor is the same gcd
    for i in steps:
        if not e and 2 * i > len(f) - 1:
            break
        g = _gcd(ring.unpack(ring.normalize(powers[i - 1] + ring._p_slots - x)), f, p)
        if len(g) > 1:
            out.append((g, i))
            f = _quo(f, g, p)
    if len(f) > 1:
        out.append((list(f), e or len(f) - 1))  # a copy: a caller may consume it
    return out


def _edf(f, d, p, rng, ring=None):
    """Split monic squarefree f into its irreducible factors, all of degree d.

    All arithmetic is on packed residues of one ring mod f (`ring`, if the
    caller has it).  Each draw a gives one t mod f, and gcd(t, g) splits
    every part g still above degree d.  For p odd, t = a^((p^d-1)/2) - 1, the
    power taken as (a^(1 + p + ... + p^(d-1)))^((p-1)/2), the first by
    Horner's rule on Frobenius maps; for p = 2, t is the trace map, the sum of
    a^(2^i) for i < d.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    if n % d:  # no split would end: the distinct-degree split went wrong
        raise IntegrityError(f"degree {n} is not a multiple of the factor degree {d}")
    if ring is None:
        ring = _PackedModulus(f, p)
    done, parts = [], [f]
    while parts:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) <= (1 if p > 2 else 0):
            continue
        if p == 2:
            # every slot holds 0 or 1, so xor adds two residues mod 2
            t = cur = ring.pack(a)
            for _ in range(d - 1):
                cur = ring.reduce(cur * cur)
                t ^= cur
        else:  # p - 1 in slot 0 and p in the others subtracts 1
            t = ring.pow(ring.frobenius_sum_power(ring.pack(a), d), (p - 1) // 2)
            t = ring.normalize(t + ring._p_slots - 1)
        t = ring.unpack(t)
        left = []
        for g in parts:
            h = _gcd(t, g, p)
            for part in (h, _quo(g, h, p)) if 1 < len(h) < len(g) else (g,):
                (left if len(part) - 1 > d else done).append(part)
        parts = left
    return done


def _splitting_seed(coeffs, p):
    seed = (p * 0x9E3779B97F4A7C15) & (1 << 64) - 1
    for c in coeffs:
        seed = (seed * 1000003 + c + 1) & (1 << 64) - 1
    return seed


def _factor_monic(f, p, squarefree, series=None):
    # (factors, `FactorList.ring`); series is f's, as for _PackedModulus
    rng = None  # seeded on the first group that needs splitting
    out = []
    for g, mult in [(f, 1)] if squarefree else _sqf_list(f, p):
        # one ring mod g for its distinct-degree split and, when that finds a
        # single degree class, for the equal-degree split of g itself
        ring = _PackedModulus(g, p, series if squarefree else None) if len(g) > 2 else None
        for h, d in _ddf(g, p, ring):
            if rng is None and len(h) - 1 > d:
                rng = random.Random(_splitting_seed(f, p))
            for irr in _edf(h, d, p, rng, ring if len(h) == len(g) else None):
                out.append((tuple(irr), mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out, ring if squarefree else None


class FactorList(NamedTuple):
    """Complete factorization of a monic reduction mod p."""

    p: int
    lead: int                                # unit factored out of the input
    factors: tuple[tuple[tuple[int, ...], int], ...]  # (monic irreducible, mult)
    squarefree: bool = True
    # the packed ring mod the monic reduction that its distinct-degree split
    # ran in, x^p set; None unless the reduction is squarefree of degree >= 2
    ring: _PackedModulus | None = None

    def field(self, factor: tuple[int, ...], ambient_d: int) -> FieldCtx:
        """The field F_p[x]/(factor) inside F_{p^ambient_d}, for one of the
        factors: on the list's ring if the factor is the whole reduction, else
        on a new ring, seeded with x^p mod factor = (x^p mod f) mod factor
        when the list holds the ring mod f."""
        ring, p = self.ring, self.p
        if ring is not None and ring.d == len(factor) - 1:
            return FieldCtx(p, factor, ambient_d, ring)
        ctx = FieldCtx(p, factor, ambient_d)
        if ring is not None and ctx.ring is not None:
            ctx.ring.x_power_p(ctx.ring.pack(_rem(ring.unpack(ring.x_power_p()), factor, p)))
        return ctx


def reduce_polynomial(f: IntPoly, p: int) -> list[int]:
    """Coefficientwise reduction of f mod p; errors if the leading term dies."""
    coeffs = [c % p for c in f.coeffs]
    if not any(coeffs):
        raise ValueError("polynomial reduces to zero mod p")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient vanishes mod p; normalize first")
    return coeffs


@functools.lru_cache(maxsize=256)
def _discriminant(f: IntPoly) -> int:
    """disc f over Z, 0 for a constant.  reduce_polynomial keeps the leading
    coefficient, so f mod p is squarefree exactly when p does not divide it."""
    return discriminant(f) if f.degree >= 1 else 0


@functools.lru_cache(maxsize=256)
def _integer_series(f: IntPoly) -> tuple[int, ...] | None:
    """`_series_mu` of a nonzero f over Z, None unless f is monic over Z."""
    return tuple(_series_mu(f.coeffs)) if f.coeffs[-1] == 1 else None


@functools.lru_cache(maxsize=256)
def _half_modulus(f: IntPoly) -> tuple[int, tuple[int, ...] | None, tuple[int, ...]]:
    """(disc g, MU of g over Z, g) for f = g(x^2) over Z with deg g >= 1: g is
    the half-degree kernel's modulus, MU its `_series_mu`, None unless g is
    monic over Z.  (0, None, ()) for any other f."""
    if f.degree < 2 or any(f.coeffs[1::2]):
        return 0, None, ()
    g = IntPoly(f.coeffs[::2])
    return _discriminant(g), _integer_series(g), g.coeffs


def reduce_and_factor(f: IntPoly, p: int) -> FactorList:
    """Fully factor f mod p into monic irreducibles with multiplicities.

    Output ordering is canonical (degree, then coefficient tuple), and the
    product of the factors is re-checked against the input on every call.
    The squarefree decomposition is skipped when p does not divide disc f.
    """
    coeffs = reduce_polynomial(f, p)
    lead = coeffs[-1]
    monic = _monic(coeffs, p)
    factors, ring = _factor_monic(monic, p, _discriminant(f) % p != 0, _integer_series(f))
    check = [1]
    for g, m in factors:
        for _ in range(m):
            check = _mul(check, list(g), p)
    if check != monic:
        raise IntegrityError("factor product does not reproduce the input")
    return FactorList(p, lead, tuple(factors), all(m == 1 for _, m in factors), ring)


def degree_pattern(f: IntPoly, p: int) -> tuple[int, ...]:
    """Partition of deg f given by the irreducible factor degrees mod p.

    Uses only squarefree decomposition plus distinct-degree factorization,
    so it is cheap enough for million-prime sweeps.  An f = g(x^2) over Z
    with p > 2 deg g, g(0) != 0 mod p and p not dividing disc g (g squarefree
    mod p) is done mod g instead, in half the degree (`_half_degree_pattern`);
    smaller primes take the generic route, the kernel's test reference.
    """
    disc, series, g = _half_modulus(f)
    if p > 2 * (len(g) - 1) and disc % p and g[0] % p and g[-1] % p:
        # only g is reduced; an f that reduce_polynomial rejects is not taken
        return _half_degree_pattern(_monic([c % p for c in g], p), p, series)
    monic = _monic(reduce_polynomial(f, p), p)
    degs: list[int] = []
    for g, mult in _sqf_list(monic, p):
        for h, d in _ddf(g, p):
            degs.extend([d] * ((len(h) - 1) // d * mult))
    return tuple(sorted(degs))


def _half_degree_pattern(g, p, series=None):
    """Degree pattern of f = g(x^2) for p > 2 deg g, g(0) != 0 and g squarefree.

    A root b of g of degree e gives f two roots of degree e when b is a
    square in F_{p^e} and two conjugate roots of degree 2e otherwise; all
    roots of one factor of g agree.  So if s_e of the k_e factors of g of
    degree e have square roots, f has 2 s_e factors of degree e and k_e - s_e
    of degree 2e.  A lone factor h of degree e >= 2 has them iff its roots'
    norm (-1)^e h(0) is a square mod p; any other class reads s_e off the
    trace of a_e = y^((p^e-1)/2) (`_class_squares`), which needs p > 2 deg g.
    All arithmetic is mod g, in half the degree of f: y^p = y a_1^2 gives the
    Frobenius rows for the distinct-degree split of g, and a_(i+1) = a_1 a_i^p
    runs only up to the degree of the last class that needs a_e.  `series`,
    when given, is MU of g over Z (`_half_modulus`), for g monic over Z.
    """
    ring = _PackedModulus(g, p, series)
    y = 1 << ring.w if ring.d > 1 else p - g[0]  # y mod g
    a1 = ring.pow(y, (p - 1) // 2)
    ring.x_power_p(ring.reduce((a1 * a1) << ring.w))  # y^p = y a_1^2
    pattern: list[int] = []
    a, i = a1, 1
    for group, e in _ddf(g, p, ring):
        k = (len(group) - 1) // e
        if k == 1 and e > 1:  # one factor h: read the character of its norm
            s = 1 if pow(-group[0] if e % 2 else group[0], (p - 1) // 2, p) == 1 else 0
        else:
            while i < e:
                a = ring.reduce(a1 * ring.frobenius_map(a))
                i += 1
            s = _class_squares(ring, a, group, e)
        pattern += [e] * (2 * s) + [2 * e] * (k - s)
    return tuple(sorted(pattern))


def _class_squares(ring, a, group, e):
    """How many of the k factors of degree e whose product is `group` (monic,
    dividing the modulus g of `ring`) have roots that are squares in F_{p^e},
    from a = a_e = y^((p^e-1)/2) mod g, for p > 2 deg g.

    F_p[y]/(group) is (F_{p^e})^k, and a is +-1 in each factor, +1 in s of
    them, so Tr(a mod group) = e(2s - k), which p > 2ek reads centred mod p
    (Lidl and Niederreiter, Finite Fields, ch. 2).  The trace is sum_j a_j P_j,
    P_j the power sums of the roots of group (Newton's identities), j < deg g:
    slot deg g - 1 of one product of a with the P_j packed in reverse.
    """
    p, d, n = ring.p, ring.d, len(group) - 1
    # P_0 = n; P_j = -(j c_(n-j) + sum c_(n-i) P_(j-i), 0 < i < j, i <= n),
    # c_i the coefficients of group and c_i = 0 for i < 0
    sums = [n]
    for j in range(1, d):
        t = j * group[n - j] if j <= n else 0
        for i in range(1, min(j - 1, n) + 1):
            t += group[n - i] * sums[j - i]
        sums.append(-t % p)
    trace = (a * ring.pack(sums[::-1]) >> (d - 1) * ring.w & ring.mask) % p
    return _trace_squares(trace, e, n // e, p)


def _trace_squares(trace, e, k, p):
    """s with e(2s - k) = trace mod p, 0 <= s <= k, for p > 2ek; IntegrityError
    if there is none."""
    s, left = divmod((trace - p if 2 * trace > p else trace) + e * k, 2 * e)
    if left or not 0 <= s <= k:
        raise IntegrityError("square roots of g do not fit its factor degrees")
    return s


def is_irreducible(g: list[int], p: int) -> bool:
    """Rabin irreducibility test for monic g over F_p, degree e: x^(p^e) = x
    mod g, and gcd(x^(p^(e/r)) - x, g) = 1 for each prime r | e.  Each
    x^(p^i) is one Frobenius map of the one before, on the rows mod g."""
    e = len(g) - 1
    if e < 1 or g[-1] != 1:
        return False
    if e == 1:
        return True
    ring = _PackedModulus(g, p)
    x = 1 << ring.w
    powers = [x]  # x^(p^i) mod g, packed, for i = 0..e
    for _ in range(e):
        powers.append(ring.frobenius_map(powers[-1]))
    if powers[e] != x:
        return False
    for r in _factorize(e):
        h = ring.normalize(powers[e // r] + ring._p_slots - x)  # x^(p^(e/r)) - x
        if len(_gcd(ring.unpack(h), g, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# field contexts and their values


class FieldCtx:
    """The field F_p[x]/(g) of degree e, inside an ambient F_{p^ambient_d}.

    The ambient degree only matters for squareness decisions: chi answers
    "is this a square in the ambient field", which the subfield-parity rule
    reduces to a computation inside F_{p^e}.
    """

    __slots__ = ("p", "modulus", "degree", "ambient_d", "ring")

    def __init__(self, p: int, modulus: tuple[int, ...], ambient_d: int,
                 ring: _PackedModulus | None = None):
        """A context for a modulus the program built: a tuple, monic, reduced
        mod p, trimmed and irreducible, nothing checked (library input goes
        through `checked`).  `ring`: the packed arithmetic mod it in degree > 1,
        the given one (a factorization's) or a new one; None in degree 1."""
        self.p = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.ambient_d = ambient_d
        self.ring = _PackedModulus(modulus, p) if ring is None and self.degree > 1 else ring

    @classmethod
    def checked(cls, p: int, modulus, ambient_d: int | None = None) -> FieldCtx:
        """A context for library input: p prime, the modulus monic and
        irreducible mod p once reduced, its degree dividing the ambient degree
        (default: the field's own degree).  ValueError otherwise."""
        modulus = tuple(int(c) % p for c in modulus)
        while modulus and modulus[-1] == 0:
            modulus = modulus[:-1]
        e = len(modulus) - 1
        ambient_d = e if ambient_d is None else ambient_d
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if ambient_d % e:
            raise ValueError("field degree must divide the ambient degree")
        if not is_irreducible(list(modulus), p):
            raise ValueError("modulus is not irreducible mod p")
        return cls(p, modulus, ambient_d)

    # Arithmetic on values.  A value is one int: the packed residue of
    # `_PackedModulus` (slot j holds the coefficient of x^j, in 0..p-1), which
    # in degree 1 is the residue itself; a constant c is the int c in every
    # degree.  Each method holds the one choice between the two.

    def add(self, a: int, b: int) -> int:
        ring = self.ring
        return (a + b) % self.p if ring is None else ring.normalize(a + b)

    def sub(self, a: int, b: int) -> int:
        ring = self.ring
        return (a - b) % self.p if ring is None else ring.normalize(a + ring._p_slots - b)

    def mul(self, a: int, b: int) -> int:
        ring = self.ring
        if ring is None:
            return a * b % self.p
        # a constant factor scales each slot, to below p^2: one step mod p
        return (ring.normalize if a < self.p or b < self.p else ring.reduce)(a * b)

    def dot(self, a: int, b: int, c: int, d: int) -> int:
        """a*b + c*d, reduced once: one `normalize` if each product has a
        constant factor (degree < e, slots below 2p^2 <= e*p^2), else `reduce`,
        whose input normalize(a*b) + c*d has slots below p - 1 + e(p-1)^2 < e*p^2."""
        ring, p = self.ring, self.p
        if ring is None:
            return (a * b + c * d) % p
        if (a < p or b < p) and (c < p or d < p):
            return ring.normalize(a * b + c * d)
        return ring.reduce(ring.normalize(a * b) + c * d)

    def pow(self, v: int, exp: int) -> int:
        if exp < 0:
            raise ValueError("negative exponent")
        return pow(v, exp, self.p) if self.ring is None else self.ring.pow(v, exp)

    def value(self, coeffs) -> int:
        """The value of an int or a coefficient list, reduced mod p and g."""
        if isinstance(coeffs, int):
            return coeffs % self.p
        reduced = _rem([c % self.p for c in coeffs], list(self.modulus), self.p)
        if self.ring is None:
            return reduced[0] if reduced else 0
        return self.ring.pack(reduced)

    def coeffs(self, v: int) -> tuple[int, ...]:
        """Coefficients of the value v, constant term first, trimmed."""
        if self.ring is None:
            return (v,) if v else ()
        return tuple(self.ring.unpack(v))

    def gen(self) -> int:
        """The residue class of x."""
        return self.value([0, 1])

    def element_at(self, index: int) -> int:
        """Deterministic enumeration of field elements by base-p digits."""
        digits = []
        while index:
            index, d = divmod(index, self.p)
            digits.append(d)
        return self.value(digits)

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.modulus == other.modulus
                and self.ambient_d == other.ambient_d)

    def __hash__(self):
        return hash((self.p, self.modulus, self.ambient_d))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, modulus={list(self.modulus)}, ambient_d={self.ambient_d})"


def _checked_value(ctx: FieldCtx, v: int) -> int:
    """v, if it is a value of ctx: not negative, no bits above its e slots,
    every slot below p.  ValueError otherwise.  A bare int does not always
    show its field: a constant is the same value in every field of p.

    A slot c has its top bit clear iff c < 2^(w-1), and then c + 2^(w-1) - p,
    taken in every slot at once with no borrow or carry (p < 2^(w-1)), has
    its top bit clear iff c < p."""
    ring, p = ctx.ring, ctx.p
    if not (0 <= v < p if ring is None
            else 0 <= v <= ring.low and not v & ring._top
            and not (v + ring._top - ring._p_slots) & ring._top):
        raise ValueError(f"{v} is not a reduced value of {ctx!r}")
    return v


def _norm(ctx: FieldCtx, v: int, resultant: bool = False) -> int:
    """Norm of a nonzero value v down to F_p, f the monic modulus of degree e:
    for a linear v = c0 + c1 x, c1 != 0, (-c1)^e f(-c0/c1) by one Horner pass
    mod p; else, or if `resultant` is set, the resultant of f with a
    representative of v by a Euclidean remainder sequence (v itself in degree 1)."""
    p, ring = ctx.p, ctx.ring
    c1 = 0 if ring is None or resultant else v >> ring.w
    if 0 < c1 < p:  # no slot above the first
        r = -(v & ring.mask) * pow(c1, -1, p) % p
        h = functools.reduce(lambda h, c: (h * r + c) % p, reversed(ctx.modulus))
        norm = pow(-c1, ctx.degree, p) * h % p
    else:
        f, g, res = list(ctx.modulus), list(ctx.coeffs(v)), 1
        while len(g) > 1:
            r = _rem(f, g, p)
            if ((len(f) - 1) * (len(g) - 1)) % 2:
                res = -res
            if g[-1] != 1:
                res = res * pow(g[-1], (len(f) - 1) - max(len(r) - 1, 0), p)
            res %= p
            f, g = g, r
        norm = res * pow(g[0], len(f) - 1, p) % p if g else 0
    if norm == 0:
        raise IntegrityError("norm of a nonzero field element vanished")
    return norm


def _euler_sign(ctx: FieldCtx, v: int, resultant: bool = False) -> int:
    """Character of v in its own field F_{p^e}, via the norm to F_p.

    chi_{p^e}(v) = chi_p(Norm(v)) since v^((q-1)/2) = Norm(v)^((p-1)/2).
    """
    p = ctx.p
    return 1 if pow(_norm(ctx, v, resultant), (p - 1) // 2, p) == 1 else -1


def chi(ctx: FieldCtx, v: int, resultant: bool = False) -> int:
    """Quadratic residue character of the AMBIENT field F_{p^ambient_d}.

    For a value v of the subfield F_{p^e} = ctx: decided by the Euler
    criterion inside F_{p^e} when ambient_d/e is odd; every nonzero subfield
    element is an ambient square when ambient_d/e is even.  In characteristic
    2 every element is a square.  `resultant` takes the norm by the Euclidean
    resultant whatever v is (`_norm`), sharing no code with its closed form.
    ValueError unless v is a reduced value of ctx.
    """
    if not _checked_value(ctx, v):
        return 0
    if ctx.p == 2:
        return 1
    if (ctx.ambient_d // ctx.degree) % 2 == 0:
        return 1
    return _euler_sign(ctx, v, resultant)


def sqrt_in_field(ctx: FieldCtx, v: int) -> int | None:
    """A square root of the value v inside its own field F_{p^e} = ctx, or None.

    Note chi may still be +1 when this returns None: the root then lives only
    in the larger ambient field and is not represented here.  A non-square is
    rejected by its norm before any Frobenius row is built; a square gets the
    lexicographically smaller root +-r of `_descent_sqrt` (in F_p, `_sqrt_mod_prime`).
    ValueError unless v is a reduced value of ctx.
    """
    if not _checked_value(ctx, v):
        return 0
    p, e = ctx.p, ctx.degree
    if p == 2:
        return ctx.pow(v, 2 ** (e - 1))
    norm = _norm(ctx, v)
    if pow(norm, (p - 1) // 2, p) != 1:
        return None
    ring = ctx.ring
    r = _sqrt_mod_prime(norm, p) if e == 1 else _descent_sqrt(ring, v, norm)
    if r is None or ctx.mul(r, r) != v:
        raise IntegrityError("square root verification failed")
    # -r holds p - r_j in each nonzero slot j, so the coefficient tuples of
    # +-r first differ at the lowest one, and r is the smaller iff 2 r_j < p
    low = r >> ((r & -r).bit_length() - 1) // ring.w * ring.w & ring.mask if e > 1 else r
    return r if 2 * low < p else ctx.sub(0, r)


def _descent_sqrt(ring: _PackedModulus, a: int, norm: int) -> int | None:
    """A root of the packed a of F_{p^e} = F_p[x]/(f), p odd, or None if a is not
    a square, level by level in subfields F_{p^k}, k = e first, all in one ring.

    Odd k: with r = (p^k-1)/(p-1), s = a^((r+1)/2) = a * phi(u^(1 + p^2 + ... +
    p^(k-3))), u = a^((p+1)/2), squares to Norm(a) * a, so s/sqrt(Norm(a)).
    Even k = 2h, Q = p^h (the complex method of Adj and Rodriguez-Henriquez,
    IEEE Trans. Computers 63(11), 2014): for a outside F_Q, with a' = phi^h(a)
    and c = sqrt(a a') in F_Q, one T^2 = a + a' +- 2c is a square in F_Q and
    (a + c)/T squares to a.  An a of F_Q with no root there has sqrt(a/beta) *
    iota, iota = z - phi^h(z), beta = iota^2: z = x at the top, and below it
    the beta of the level above.
    """
    p = ring.p

    def inverse(v, k):  # 1/v = v^(p + ... + p^(k-1)) / Norm(v) in F_{p^k}
        if v < p:
            return pow(v, -1, p)
        u = ring.frobenius_map(ring.frobenius_sum_power(v, k - 1))
        return ring.normalize(u * pow(ring.reduce(v * u), -1, p))

    def unit(k):  # (iota, beta) of level k
        z = 1 << ring.w if k == ring.d else unit(2 * k)[1]
        iota = ring.normalize(z + ring._p_slots - ring.frobenius_map(z, k // 2))
        return iota, ring.reduce(iota * iota)

    def root(v, k, norm=None):  # norm: Norm(v) to F_p, if known
        if v < p:  # a constant: a square of F_{p^k} when k is even
            if pow(v, (p - 1) // 2, p) == 1:
                return _sqrt_mod_prime(v, p)
            if k % 2:
                return None
        elif k % 2:
            u = ring.pow(v, (p + 1) // 2)
            s = ring.reduce(v * ring.frobenius_map(
                ring.frobenius_sum_power(u, (k - 1) // 2, 2)))
            if norm is None:  # s^2 = Norm(v) * v, read at a nonzero slot of v
                j = ((v & -v).bit_length() - 1) // ring.w * ring.w
                norm = (ring.reduce(s * s) >> j & ring.mask) * pow(v >> j & ring.mask, -1, p) % p
                if pow(norm, (p - 1) // 2, p) != 1:
                    return None
            return ring.normalize(s * pow(_sqrt_mod_prime(norm, p), -1, p))
        h = k // 2
        w = v if v < p else ring.frobenius_map(v, h)  # phi^h fixes exactly F_Q
        if w == v:  # v lies in F_Q
            r = root(v, h)
            if r is None:
                iota, beta = unit(k)
                r = root(ring.reduce(v * inverse(beta, h)), h)
                r = None if r is None else ring.reduce(r * iota)
            return r
        c = root(ring.reduce(v * w), h)
        if c is None:
            return None
        for c in (c, ring.normalize(ring._p_slots - c)):
            t = root(ring.normalize(v + w + 2 * c), h)
            if t is not None:
                return ring.reduce(ring.normalize(v + c) * inverse(t, h))
        return None

    return root(a, ring.d, norm)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A root of the quadratic residue a mod an odd prime p (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:  # t has order 2^i < 2^s: a root of unity moves r closer
        i = next((i for i in range(1, s) if pow(t, 1 << i, p) == 1), None)
        if i is None:
            raise IntegrityError("Tonelli-Shanks walked past the 2-part order")
        b = pow(c, 1 << (s - i - 1), p)
        r, c, s = r * b % p, b * b % p, i
        t = t * c % p
    return r
