"""Finite fields F_p[x]/(g) and polynomial factorization mod p.

Polynomials over F_p are coefficient lists, constant term first, with
coefficients reduced to 0..p-1 and no trailing zeros ([] is the zero
polynomial).  Factorization runs squarefree decomposition, then distinct
degree factorization with a precomputed Frobenius power table, then
Cantor-Zassenhaus equal degree splitting (a trace-map variant in
characteristic 2).  The splitting PRNG is seeded from the input polynomial
and p, so results are reproducible run to run.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from .errors import IntegrityError
from .intpoly import IntPoly, discriminant
from .numkit import is_prime


# ---------------------------------------------------------------------------
# coefficient-list arithmetic over F_p


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim([c % p for c in out])


def _mul_scalar(a, s, p):
    s %= p
    if s == 0:
        return []
    return _trim([c * s % p for c in a])


def _divmod(a, b, p):
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
    return _trim(quo), _trim(rem)


def _rem(a, b, p):
    # remainder only; avoids building the quotient on the modexp hot path
    lb = len(b)
    if lb == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if lb == 1:
        return []
    if len(a) < lb:
        return _trim(list(a))
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    rem = list(a)
    for i in range(len(rem) - lb, -1, -1):
        c = rem[i + lb - 1]
        if c:
            if inv != 1:
                c = c * inv % p
            for j in range(lb - 1):
                if b[j]:
                    rem[i + j] = (rem[i + j] - c * b[j]) % p
            rem[i + lb - 1] = 0
    return _trim(rem)


def _quo(a, b, p):
    return _divmod(a, b, p)[0]


def _monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    return _mul_scalar(a, pow(a[-1], -1, p), p)


def _gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p)


def _gcd_degree(a, b, p):
    """deg gcd(a, b) for nonzero b: Euclid on remainders left unnormalized,
    each taken in place (a and b are consumed)."""
    while b:
        lb = len(b)
        inv = pow(b[-1], -1, p)
        while len(a) >= lb:
            c = a.pop() * inv % p
            if c:
                base = len(a) - lb + 1
                for j in range(lb - 1):
                    a[base + j] = (a[base + j] - c * b[j]) % p
        a, b = b, _trim(a)
    return len(a) - 1


def _deriv(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


class _PackedModulus:
    """Arithmetic in F_p[x]/(f) on Kronecker-packed ints, for a fixed f.

    A reduced residue a_0 + a_1 x + ... + a_{d-1} x^(d-1) (0 <= a_j < p) is
    the int sum a_j * 2^(j*w): one slot of w bits per coefficient.  The
    product of two packed residues is then one big-int product whose slot j
    holds the j-th coefficient of the polynomial product, at most d*(p-1)^2
    and so free of carries.  Reduction takes the top slots j >= d mod p and
    adds each, times the packed row T_i = x^(d+i) mod f, into the low d
    slots; a low slot then holds at most 2d*(p-1)^2 < (2d+1)*p^2 + p, which
    w is chosen to cover.  A last pass reduces every low slot mod p.  Rows
    exist for i < d, one more than a product needs, so that a squaring can
    be multiplied by x (a shift by one slot) before the same reduction.
    A sum of two residues (slots below 2p) or a residue plus p in every slot
    minus another (slots in 1..2p-1) needs only the last pass.
    """

    __slots__ = ("p", "d", "w", "mask", "low", "rows", "slots", "_frobenius")

    def __init__(self, f, p):
        f = _monic(f, p)  # the remainder mod c*f is the remainder mod f
        d = len(f) - 1
        if d < 1:
            raise ValueError("modulus must have degree >= 1")
        w = ((2 * d + 1) * p * p + p).bit_length()
        self.p, self.d, self.w = p, d, w
        self.mask = (1 << w) - 1
        self.low = (1 << d * w) - 1
        # shift of slot j, highest first, for the normalizing pass
        self.slots = tuple(range((d - 1) * w, -1, -w))
        rows = []
        row = [-c % p for c in f[:-1]]  # x^d mod f
        for i in range(d):
            rows.append(((d + i) * w, self.pack(row)))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(a - top * b) % p for a, b in zip(row, f)]
        self.rows = tuple(rows)
        self._frobenius = None

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
        """Reduce each of the low d slots of acc mod p."""
        p, w, mask = self.p, self.w, self.mask
        out = 0
        for s in self.slots:
            out = (out << w) | ((acc >> s) & mask) % p
        return out

    def reduce(self, prod: int) -> int:
        """A packed product (2d slots at most, unreduced) mod f."""
        p, mask = self.p, self.mask
        acc = prod & self.low
        for s, row in self.rows:
            c = ((prod >> s) & mask) % p
            if c:
                acc += c * row
        return self.normalize(acc)

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

    def frobenius_map(self, h: int, rows) -> int:
        """h(x)**p mod f: sum h_j * x**(p*j), accumulated packed."""
        w, mask = self.w, self.mask
        acc = 0
        for row in rows:
            c = h & mask
            if c:
                acc += c * row
            h >>= w
        return self.normalize(acc)

    def frobenius(self, xp: int | None = None) -> list[int]:
        """Packed x**(p*j) mod f for j < d, to apply Frobenius in one pass;
        built on first use (d > 1) from xp = x**p mod f, computed here
        unless given."""
        if self._frobenius is None:
            if xp is None:
                xp = self.pow(1 << self.w, self.p)
            rows = [1]
            for _ in range(self.d - 1):
                rows.append(self.reduce(rows[-1] * xp))
            self._frobenius = rows
        return self._frobenius

    def frobenius_sum_power(self, a: int, terms: int, step: int = 1) -> int:
        """a**(1 + p^step + p^(2 step) + ...), `terms` terms, by Horner:
        b <- phi^step(b) * a with phi(h) = h**p from the Frobenius rows."""
        rows = self.frobenius()
        b = a
        for _ in range(terms - 1):
            for _ in range(step):
                b = self.frobenius_map(b, rows)
            b = self.reduce(b * a)
        return b


def _pow_mod(base, exp, mod, p):
    ring = _PackedModulus(mod, p)
    base = [c % p for c in _rem(base, mod, p)]
    return ring.unpack(ring.pow(ring.pack(base), exp))


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
    """Distinct-degree split of monic squarefree f: list of (product, degree),
    degrees ascending.  `ring` is the packed modulus of f, if the caller has it."""
    if len(f) <= 2:
        return [(list(f), 1)] if len(f) == 2 else []
    out = []
    # h and the Frobenius rows stay reduced mod the original f: every
    # cofactor divides it, so a gcd with the cofactor is the same gcd
    if ring is None:
        ring = _PackedModulus(f, p)
    rows = ring.frobenius()
    h = rows[1]  # x^p mod f, packed
    i = 1
    while True:
        g = _gcd(_sub(ring.unpack(h), [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, i))
            f = _quo(f, g, p)
        i += 1
        if 2 * i > len(f) - 1:
            break
        h = ring.frobenius_map(h, rows)
    if len(f) > 1:
        out.append((list(f), len(f) - 1))  # a copy: callers consume groups
    return out


def _edf(f, d, p, rng, ring=None):
    """Split monic squarefree f into its irreducible factors, all of degree d.

    For p odd, a^((p^d-1)/2) is taken as (a^(1 + p + ... + p^(d-1)))^((p-1)/2),
    the first power by Horner's rule on Frobenius maps of one ring mod f
    (`ring`, with its Frobenius rows, if the caller has it).
    """
    n = len(f) - 1
    if n == d:
        return [f]
    if n % d:  # no split would end: the distinct-degree split went wrong
        raise IntegrityError(f"degree {n} is not a multiple of the factor degree {d}")
    if ring is None and p > 2:
        ring = _PackedModulus(f, p)
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _trim(a)
        if len(a) <= (1 if p > 2 else 0):
            continue
        if p == 2:
            # trace map sum a^(2^i), i < d
            t, cur = list(a), list(a)
            for _ in range(d - 1):
                cur = _pow_mod(cur, 2, f, p)
                t = _add(t, cur, p)
            g = _gcd(t, f, p)
        else:
            g = _gcd(a, f, p)
            if len(g) <= 1:
                b = ring.pow(ring.frobenius_sum_power(ring.pack(a), d), (p - 1) // 2)
                g = _gcd(_sub(ring.unpack(b), [1], p), f, p)
        if 1 < len(g) < len(f):
            return _edf(g, d, p, rng) + _edf(_quo(f, g, p), d, p, rng)


def _splitting_seed(coeffs, p):
    seed = (p * 0x9E3779B97F4A7C15) & (1 << 64) - 1
    for c in coeffs:
        seed = (seed * 1000003 + c + 1) & (1 << 64) - 1
    return seed


def _factor_monic(f, p, squarefree):
    rng = random.Random(_splitting_seed(f, p))
    out = []
    for g, mult in [(f, 1)] if squarefree else _sqf_list(f, p):
        # one ring mod g for its distinct-degree split and, when that finds a
        # single degree class, for the equal-degree split of g itself
        ring = _PackedModulus(g, p) if len(g) > 2 else None
        for h, d in _ddf(g, p, ring):
            for irr in _edf(h, d, p, rng, ring if len(h) == len(g) else None):
                out.append((tuple(irr), mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


class FactorList(NamedTuple):
    """Complete factorization of a monic reduction mod p."""

    p: int
    lead: int                                # unit factored out of the input
    factors: tuple[tuple[tuple[int, ...], int], ...]  # (monic irreducible, mult)
    squarefree: bool = True

    def pattern(self) -> tuple[int, ...]:
        degs: list[int] = []
        for f, m in self.factors:
            degs.extend([len(f) - 1] * m)
        return tuple(sorted(degs))


def poly_mul(a, b, p: int) -> tuple[int, ...]:
    """Product of two coefficient-list polynomials over F_p."""
    return tuple(_mul(list(a), list(b), p))


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
def _half_discriminant(f: IntPoly) -> int:
    """disc g for f = g(x^2) over Z with deg g >= 1; 0 for any other f."""
    if f.degree < 2 or any(f.coeffs[1::2]):
        return 0
    return _discriminant(IntPoly(f.coeffs[::2]))


def reduce_and_factor(f: IntPoly, p: int) -> FactorList:
    """Fully factor f mod p into monic irreducibles with multiplicities.

    Output ordering is canonical (degree, then coefficient tuple), and the
    product of the factors is re-checked against the input on every call.
    The squarefree decomposition is skipped when p does not divide disc f.
    """
    coeffs = reduce_polynomial(f, p)
    lead = coeffs[-1]
    monic = _monic(coeffs, p)
    factors = _factor_monic(monic, p, squarefree=_discriminant(f) % p != 0)
    check = [1]
    for g, m in factors:
        for _ in range(m):
            check = _mul(check, list(g), p)
    if check != monic:
        raise IntegrityError("factor product does not reproduce the input")
    return FactorList(p, lead, tuple(factors),
                      squarefree=all(m == 1 for _, m in factors))


def degree_pattern(f: IntPoly, p: int) -> tuple[int, ...]:
    """Partition of deg f given by the irreducible factor degrees mod p.

    Uses only squarefree decomposition plus distinct-degree factorization,
    so it is cheap enough for million-prime sweeps.  An f = g(x^2) over Z
    with p odd, g(0) != 0 mod p and p not dividing disc g (g squarefree mod
    p) is done mod g instead, in half the degree (`_half_degree_pattern`).
    """
    coeffs = reduce_polynomial(f, p)
    monic = _monic(coeffs, p)
    if p > 2 and monic[0] and _half_discriminant(f) % p:
        return _half_degree_pattern(monic[::2], p)
    degs: list[int] = []
    for g, mult in _sqf_list(monic, p):
        for h, d in _ddf(g, p):
            degs.extend([d] * ((len(h) - 1) // d * mult))
    return tuple(sorted(degs))


def _half_degree_pattern(g, p):
    """Degree pattern of f = g(x^2) for p odd, g(0) != 0 and g squarefree.

    A root b of g of degree e gives f two roots of degree e when b is a
    square in F_{p^e} and two conjugate roots of degree 2e otherwise; all
    roots of one factor of g agree.  So if G_e, the product of the k_e
    factors of g of degree e, has s_e = deg gcd(G_e, a_e - 1)/e factors with
    square roots, a_e = y^((p^e-1)/2), then f has 2 s_e factors of degree e
    and k_e - s_e of degree 2e.  All arithmetic is mod g, in half the degree
    of f: y^p = y a_1^2 gives the Frobenius rows for the distinct-degree
    split of g, and a_(i+1) = a_1 a_i^p.
    """
    ring = _PackedModulus(g, p)
    a1 = ring.pow(ring.pack(_rem([0, 1], g, p)), (p - 1) // 2)
    rows = ring.frobenius(ring.reduce((a1 * a1) << ring.w))  # y^p = y a_1^2
    pattern: list[int] = []
    a, i = a1, 1
    for group, e in _ddf(g, p, ring):
        while i < e:
            a = ring.reduce(a1 * ring.frobenius_map(a, rows))
            i += 1
        k = (len(group) - 1) // e
        s, left = divmod(_gcd_degree(_sub(ring.unpack(a), [1], p), group, p), e)
        if left or s > k:
            raise IntegrityError("square roots of g do not fit its factor degrees")
        pattern += [e] * (2 * s) + [2 * e] * (k - s)
    return tuple(sorted(pattern))


def is_irreducible(g: list[int], p: int) -> bool:
    """Rabin irreducibility test for monic g over F_p."""
    e = len(g) - 1
    if e < 1 or g[-1] != 1:
        return False
    if e == 1:
        return True
    x = [0, 1]
    if _pow_mod(x, p**e, g, p) != _rem(x, g, p):
        return False
    rem, r = e, 2
    prime_divs = []
    while r * r <= rem:
        if rem % r == 0:
            prime_divs.append(r)
            while rem % r == 0:
                rem //= r
        r += 1
    if rem > 1:
        prime_divs.append(rem)
    for r in prime_divs:
        h = _sub(_pow_mod(x, p ** (e // r), g, p), x, p)
        if len(_gcd(h, g, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# field contexts and elements


class FieldCtx:
    """The field F_p[x]/(g) of degree e, inside an ambient F_{p^ambient_d}.

    The ambient degree only matters for squareness decisions: chi answers
    "is this a square in the ambient field", which the subfield-parity rule
    reduces to a computation inside F_{p^e}.
    """

    __slots__ = ("p", "modulus", "degree", "ambient_d", "_ring", "_p_slots")

    def __init__(self, p: int, modulus, ambient_d: int | None = None):
        """A checked context: p prime, the modulus monic and irreducible mod p
        once reduced, its degree dividing the ambient degree."""
        modulus = tuple(int(c) % p for c in modulus)
        while modulus and modulus[-1] == 0:
            modulus = modulus[:-1]
        self._set(p, modulus, ambient_d)
        e = self.degree
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if self.ambient_d % e:
            raise ValueError("field degree must divide the ambient degree")
        if not is_irreducible(list(modulus), p):
            raise ValueError("modulus is not irreducible mod p")

    def _set(self, p, modulus, ambient_d):
        e = len(modulus) - 1
        self.p = p
        self.modulus = modulus
        self.degree = e
        self.ambient_d = e if ambient_d is None else ambient_d
        self._ring = None

    @classmethod
    def trusted(cls, p: int, modulus: tuple[int, ...], ambient_d: int) -> FieldCtx:
        """A context for a modulus the program built itself: a tuple, monic,
        reduced mod p and trimmed.  No normalizing pass, no checks."""
        ctx = cls.__new__(cls)
        ctx._set(p, modulus, ambient_d)
        return ctx

    def ring(self) -> _PackedModulus:
        """Packed arithmetic mod the modulus, built on first use (degree > 1;
        a degree-1 context works on the residue itself and never builds one)."""
        if self._ring is None:
            ring = _PackedModulus(self.modulus, self.p)
            self._p_slots = ring.pack([self.p] * self.degree)  # for - and negation
            self._ring = ring
        return self._ring

    @property
    def order(self) -> int:
        return self.p**self.degree

    def elem(self, coeffs) -> FieldElem:
        if isinstance(coeffs, int):
            return FieldElem(self, coeffs % self.p)
        reduced = _rem([c % self.p for c in coeffs], list(self.modulus), self.p)
        if self.degree == 1:
            return FieldElem(self, reduced[0] if reduced else 0)
        return FieldElem(self, self.ring().pack(reduced))

    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def gen(self) -> FieldElem:
        """The residue class of x."""
        return self.elem([0, 1])

    def element_at(self, index: int) -> FieldElem:
        """Deterministic enumeration of field elements by base-p digits."""
        digits = []
        while index:
            index, d = divmod(index, self.p)
            digits.append(d)
        return self.elem(digits)

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.modulus == other.modulus
                and self.ambient_d == other.ambient_d)

    def __hash__(self):
        return hash((self.p, self.modulus, self.ambient_d))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, modulus={list(self.modulus)}, ambient_d={self.ambient_d})"


class FieldElem:
    """A residue class in a FieldCtx; immutable value semantics.

    The value v is one int: the packed residue of `_PackedModulus` (slot j
    holds the coefficient of x^j, in 0..p-1), which in degree 1 is the
    residue itself.  A constant c is the int c in every degree.
    """

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: FieldCtx, v: int):
        self.ctx = ctx
        self.v = v

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients of the reduced residue, constant term first, trimmed."""
        if self.ctx.degree == 1:
            return (self.v,) if self.v else ()
        return tuple(self.ctx.ring().unpack(self.v))

    def is_zero(self) -> bool:
        return not self.v

    def _check(self, other: FieldElem):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("elements from different field contexts")

    # Each operation takes the residue itself in degree 1 and the packed
    # kernel otherwise; `ctx._ring or ctx.ring()` skips a call once built.

    def __add__(self, other: FieldElem) -> FieldElem:
        ctx = self.ctx
        if other.ctx is not ctx:
            self._check(other)
        if ctx.degree == 1:
            return FieldElem(ctx, (self.v + other.v) % ctx.p)
        return FieldElem(ctx, (ctx._ring or ctx.ring()).normalize(self.v + other.v))

    def __sub__(self, other: FieldElem) -> FieldElem:
        ctx = self.ctx
        if other.ctx is not ctx:
            self._check(other)
        if ctx.degree == 1:
            return FieldElem(ctx, (self.v - other.v) % ctx.p)
        ring = ctx._ring or ctx.ring()
        return FieldElem(ctx, ring.normalize(self.v + ctx._p_slots - other.v))

    def __neg__(self) -> FieldElem:
        ctx = self.ctx
        if ctx.degree == 1:
            return FieldElem(ctx, -self.v % ctx.p)
        ring = ctx._ring or ctx.ring()
        return FieldElem(ctx, ring.normalize(ctx._p_slots - self.v))

    def __mul__(self, other: FieldElem) -> FieldElem:
        ctx = self.ctx
        if other.ctx is not ctx:
            self._check(other)
        if ctx.degree == 1:
            return FieldElem(ctx, self.v * other.v % ctx.p)
        return FieldElem(ctx, (ctx._ring or ctx.ring()).reduce(self.v * other.v))

    def __pow__(self, exp: int) -> FieldElem:
        if exp < 0:
            raise ValueError("negative exponent")
        ctx = self.ctx
        if ctx.degree == 1:
            return FieldElem(ctx, pow(self.v, exp, ctx.p))
        return FieldElem(ctx, ctx.ring().pow(self.v, exp))

    def frobenius(self) -> FieldElem:
        return self**self.ctx.p

    def is_constant(self) -> bool:
        return self.v < self.ctx.p  # any higher slot would make v >= 2^w > p

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"{self} is not in the prime field")
        return self.v

    def min_poly(self) -> tuple[int, ...]:
        """Minimal polynomial over F_p, ascending coefficients, monic."""
        conjugates = [self]
        cur = self.frobenius()
        while cur != self:
            conjugates.append(cur)
            cur = cur.frobenius()
        poly = [self.ctx.one()]
        for c in conjugates:
            nxt = [self.ctx.zero()] * (len(poly) + 1)
            for i, coeff in enumerate(poly):
                nxt[i + 1] = nxt[i + 1] + coeff
                nxt[i] = nxt[i] - c * coeff
            poly = nxt
        out = []
        for coeff in poly:
            if not coeff.is_constant():
                raise IntegrityError("minimal polynomial coefficients left the prime field")
            out.append(coeff.constant_value())
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, FieldElem) and self.v == other.v
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self):
        return hash((self.ctx, self.v))

    def __repr__(self):
        return f"FieldElem({list(self.coeffs)} over {self.ctx!r})"


def _norm_to_prime(a: FieldElem) -> int:
    """Norm from F_{p^e} down to F_p: the resultant of the (monic) modulus
    with a representative of a, by a Euclidean remainder sequence."""
    p = a.ctx.p
    f = list(a.ctx.modulus)
    g = list(a.coeffs)
    res = 1
    while True:
        if not g:
            return 0
        if len(g) == 1:
            return res * pow(g[0], len(f) - 1, p) % p
        r = _rem(f, g, p)
        if ((len(f) - 1) * (len(g) - 1)) % 2:
            res = -res
        if g[-1] != 1:
            res = res * pow(g[-1], (len(f) - 1) - max(len(r) - 1, 0), p)
        res %= p
        f, g = g, r


def _norm(a: FieldElem) -> int:
    """Norm of a nonzero a down to F_p (a itself in degree 1)."""
    norm = a.v if a.ctx.degree == 1 else _norm_to_prime(a)
    if norm == 0:
        raise IntegrityError("norm of a nonzero field element vanished")
    return norm


def _euler_sign(a: FieldElem) -> int:
    """Character of a in its own field F_{p^e}, via the norm to F_p.

    chi_{p^e}(a) = chi_p(Norm(a)) since a^((q-1)/2) = Norm(a)^((p-1)/2).
    """
    p = a.ctx.p
    return 1 if pow(_norm(a), (p - 1) // 2, p) == 1 else -1


def chi(a: FieldElem) -> int:
    """Quadratic residue character of the AMBIENT field F_{p^ambient_d}.

    For a in the subfield F_{p^e}: decided by the Euler criterion inside
    F_{p^e} when ambient_d/e is odd; every nonzero subfield element is an
    ambient square when ambient_d/e is even.  In characteristic 2 every
    element is a square.
    """
    if a.is_zero():
        return 0
    ctx = a.ctx
    if ctx.p == 2:
        return 1
    if (ctx.ambient_d // ctx.degree) % 2 == 0:
        return 1
    return _euler_sign(a)


def sqrt_in_field(a: FieldElem) -> FieldElem | None:
    """A square root of a inside its own field F_{p^e}, or None.

    Note chi may still be +1 when this returns None: the root then lives only
    in the larger ambient field and is not represented here.  The returned
    root is the lexicographically smaller of the pair +-r.

    Odd e: with r = (p^e - 1)/(p - 1), a^r = Norm(a) = c^2 for some c in F_p,
    so a^((r+1)/2) / c squares to a; a^((r+1)/2) = a * phi(u^(1 + p^2 + ...
    + p^(e-3))) with u = a^((p+1)/2), by Frobenius maps.  Even e: Tonelli-Shanks.
    """
    ctx = a.ctx
    if a.is_zero():
        return a
    p, e = ctx.p, ctx.degree
    if p == 2:
        return a ** (2 ** (e - 1))
    if e % 2:
        norm = _norm(a)
        if pow(norm, (p - 1) // 2, p) != 1:
            return None
        c = _sqrt_mod_prime(norm, p)
        if e == 1:
            r = FieldElem(ctx, c)
        else:
            ring = ctx.ring()
            u = ring.pow(a.v, (p + 1) // 2)
            h = ring.frobenius_map(ring.frobenius_sum_power(u, (e - 1) // 2, 2),
                                   ring.frobenius())
            r = FieldElem(ctx, ring.normalize(ring.reduce(a.v * h) * pow(c, -1, p)))
    else:
        if _euler_sign(a) != 1:
            return None
        r = _tonelli_shanks(a)
    if (r * r) != a:
        raise IntegrityError("square root verification failed")
    return min(r, -r, key=lambda x: x.coeffs)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod an odd prime p."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    return _tonelli_shanks(FieldElem(FieldCtx.trusted(p, (0, 1), 1), a)).v


def _tonelli_shanks(a: FieldElem) -> FieldElem:
    ctx = a.ctx
    q = ctx.order
    big_q, s = q - 1, 0
    while big_q % 2 == 0:
        big_q //= 2
        s += 1
    # in a field of even degree every prime-field constant is a square, so
    # the walk starts at x (index p) there instead of at the constant 2
    index = ctx.p if ctx.degree % 2 == 0 else 2
    while True:
        z = ctx.element_at(index)
        if not z.is_zero() and _euler_sign(z) == -1:
            break
        index += 1
    c = z**big_q
    w = a ** ((big_q - 1) // 2)
    r = a * w       # a^((Q+1)/2)
    t = r * w       # a^Q
    m = s
    one = ctx.one()
    while t != one:
        i, temp = 0, t
        while temp != one:
            temp = temp * temp
            i += 1
            if i == m:
                raise IntegrityError("Tonelli-Shanks walked past the 2-part order")
        b = c ** (1 << (m - i - 1))
        r = r * b
        t = t * b * b
        c = b * b
        m = i
    return r
