"""Classification of Macbeath maps of type {m,n} over PSL(2, p^d).

One isomorphism class of maps corresponds to one irreducible factor of the
s-polynomial mod p; the class is inner regular exactly when its s-value is a
square in the ambient field F_q.  This module builds the census records,
checks the parity prediction, and provides an independent matrix-witness
oracle for the criterion.

A type's constants are one `MapType` record, built and validated once by
`map_type(m, n)`; every public (m, n[, p]) entry point calls it first, and
the private helpers take the record instead of (m, n).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice
from math import gcd, lcm
from typing import NamedTuple

from . import gf
from .errors import BadReduction, Inadmissible, IntegrityError
from .intpoly import _W_SQUARE, IntPoly, psi, s_polynomial
from .numkit import (_factorize, divisors, euler_phi, genus_of_prime_power, is_prime,
                     lucas_v, moebius, mult_order_signed, trace_indices, trace_modulus)

INNER = "inner"
OUTER = "outer"


class MapType(NamedTuple):  # the constants of a type {m, n}, never a per-prime result
    m: int
    n: int
    f1: IntPoly                  # the s-polynomial
    n_modulus: int               # N: n for odd n, 2n for even n
    m_modulus: int               # 3, 8 or 12: it controls the order-m rotations
    shift: int                   # 4 - w_m^2, +-w_m the order-m trace: t^2 = shift - s
    exponents: tuple[int, ...]   # N/q for the primes q | N
    indices: tuple[int, ...]     # the trace indices j (`trace_indices`)
    half_phi: int                # phi(n)/2, the degree of f1
    psi_one: int                 # Psi_n(1), whose character predicts the parity of l
    chi_shortcut: tuple[int, ...] | None  # _chi_shortcut(n, r), r = p mod 8; odd n only


@functools.lru_cache(maxsize=None)
def map_type(m: int, n: int) -> MapType:
    """The validated constants of type {m, n}: `s_polynomial` rejects an
    unsupported m or a non-hyperbolic type, and nothing else checks them."""
    f1 = s_polynomial(m, n)
    n_mod = trace_modulus(n)
    return MapType(m, n, f1, n_mod, trace_modulus(m), 4 - _W_SQUARE[m],
                   tuple(n_mod // q for q in _factorize(n_mod)), trace_indices(n),
                   euler_phi(n) // 2, psi(n)(1),
                   tuple(_chi_shortcut(n, r) for r in range(8)) if n % 2 else None)


class FieldData(NamedTuple):
    m: int
    n: int
    p: int
    n_modulus: int  # n for odd n, 2n for even n
    m_modulus: int  # 3, 8 or 12
    d: int          # degree of the map's field over F_p
    q: int          # p**d


def _check_prime(p: int) -> None:
    if not (2 <= p < 1 << 64 and is_prime(p)):
        raise Inadmissible(f"p={p} is not a prime below 2^64")


def field_data(m: int, n: int, p: int) -> FieldData:
    """Degree and order of the field F_q carrying the type-{m,n} maps in char p."""
    mt = map_type(m, n)
    _check_prime(p)
    return _field_data(mt, p)


def _field_data(mt: MapType, p: int) -> FieldData:
    if gcd(p, mt.n_modulus) != 1:
        raise Inadmissible(f"p={p} divides {mt.n_modulus}")
    if mt.m == 4 and p == 2:
        raise Inadmissible("PSL(2,2^d) has no elements of order 4")
    if mt.m == 6 and p in (2, 3):
        raise Inadmissible(f"no order-6 rotations in characteristic {p}")
    d = mult_order_signed(p, mt.n_modulus)
    if mt.m != 3:
        d = lcm(d, mult_order_signed(p, mt.m_modulus))
    # m = 3 needs no side condition: p = 3 gives unipotent order-3 elements,
    # and any other p already has p = +-1 mod 3.
    return FieldData(mt.m, mt.n, p, mt.n_modulus, mt.m_modulus, d, p**d)


class TraceClass(NamedTuple):
    """One isomorphism class: an irreducible factor of f1 mod p with its verdict."""

    factor: tuple[int, ...]  # monic irreducible over F_p, ascending coefficients
    e: int                   # its degree
    s: int                   # the class parameter, a root of f1: a value of `field`
    chi: int                 # quadratic character of s in the AMBIENT field
    regularity: str          # "inner" iff chi == +1
    t: int | None            # a trace with t^2 = shift - s, when representable
    field: gf.FieldCtx       # F_p[x]/(factor) inside F_{p^d}, the field of s and t


class ParityVerdict(NamedTuple):
    applicable: bool          # the parity theorem speaks only for m=3, d odd
    predicted: str | None     # "even" / "odd" parity of l
    observed: str
    consistent: bool | None


class CensusRecord(NamedTuple):
    m: int
    n: int
    p: int
    field: FieldData
    genus: int
    classes: tuple[TraceClass, ...]
    k: int  # inner regular classes
    l: int  # outer regular classes
    parity: ParityVerdict
    closed_form_count: int     # phi(n)/2d, the generic isomorphism-class count
    count_flag: bool           # True when the factor count differs from it


def _class_sort_key(factor: tuple[int, ...], p: int):
    # degree first, then the root for linear factors (x - r has key (r,)),
    # extended to higher degree by the negated non-leading coefficients
    return (len(factor) - 1, tuple((-c) % p for c in factor[:-1]))


def map_census(m: int, n: int, p: int, *, traces: bool = True) -> CensusRecord:
    """Full classification of the type-{m,n} Macbeath maps in characteristic p:
    `summary`'s classes as a tuple, with the closed-form class count.

    `traces=False` skips the optional square-root representative t on each
    class (the expensive part of a record); everything else is unchanged.
    """
    half_phi = map_type(m, n).half_phi
    fd, k, l, genus, parity, classes = summary(m, n, p, traces=traces)
    closed_form = half_phi // fd.d if half_phi % fd.d == 0 else -1
    return CensusRecord(m, n, p, fd, genus, tuple(classes), k, l,
                        parity, closed_form, closed_form != k + l)


def summary(m: int, n: int, p: int, *, traces: bool = False
            ) -> tuple[FieldData, int, int, int, ParityVerdict, Iterable[TraceClass]]:
    """(field, k, l, genus, parity, classes): the census of (m, n, p) by the
    one choice of route.  A split prime takes the ladder witness and its
    checker, and `classes` is a generator that builds the class objects only
    when read, so a sweep builds none; any other p (or one the ladder gives
    no witness for) takes the factorization of f1 mod p, and `classes` is a list.
    """
    mt = map_type(m, n)
    ladder = _ladder(mt, p)
    if ladder is not None:
        s_values, t_values = ladder
        fd, k, l, genus, characters, parity = check_witness(m, n, p, s_values)
        return fd, k, l, genus, parity, _split_classes(p, s_values, characters,
                                                       t_values, traces)
    _check_prime(p)
    fd, classes = _factored_classes(mt, p, traces)
    k, l, genus, parity = _verdicts(mt, p, fd, [c.chi for c in classes], classes[0].e)
    return fd, k, l, genus, parity, classes


def _verdicts(mt: MapType, p: int, fd: FieldData, characters: list[int],
              e: int) -> tuple[int, int, int, ParityVerdict]:
    """(k, l, genus, parity) from the classes' nonzero characters, every class
    of degree e: both census routes end here.  Checks that there are
    phi(n)/2e classes, an integral genus and the parity verdict."""
    k = characters.count(1)
    l = len(characters) - k
    if k + l != mt.half_phi // e:
        raise IntegrityError(f"class count {k + l} != phi(n)/2e for ({mt.m},{mt.n},{p})")
    return k, l, genus_of_prime_power(mt.m, mt.n, fd.q), _parity(mt, p, fd.d, l)


def _s_zero(mt: MapType, p: int) -> BadReduction:
    return BadReduction(f"s = 0 occurs for ({mt.m},{mt.n},{p}); no generating triple "
                        f"has t^2 = {mt.shift}")


def _trace_class(mt: MapType, p: int, ctx: gf.FieldCtx, traces: bool) -> TraceClass:
    # the class of the factor ctx.modulus (`FactorList.field`), s its generator
    s = ctx.gen()
    character = gf.chi(ctx, s)
    if character == 0:
        raise _s_zero(mt, p)
    t = gf.sqrt_in_field(ctx, ctx.sub(mt.shift % p, s)) if traces else None
    return TraceClass(ctx.modulus, ctx.degree, s, character,
                      INNER if character == 1 else OUTER, t, ctx)


def _factored_classes(mt: MapType, p: int, traces: bool) -> tuple[FieldData, list[TraceClass]]:
    """Field data and the classes from the irreducible factors of f1 mod p
    (any d); a bad reduction is reported before an inadmissible p."""
    factored = gf.reduce_and_factor(mt.f1, p)
    if not factored.squarefree:
        raise BadReduction(f"f1 for type {{{mt.m},{mt.n}}} is not squarefree mod {p}")
    fd = _field_data(mt, p)
    degrees = {len(g) - 1 for g, _ in factored.factors}
    if len(degrees) != 1:
        raise IntegrityError(f"unequal factor degrees {degrees} for ({mt.m},{mt.n},{p})")
    e = degrees.pop()
    if fd.d % e:
        raise IntegrityError(f"factor degree {e} does not divide d={fd.d}")
    factors = sorted((g for g, _ in factored.factors),
                     key=lambda g: _class_sort_key(g, p))
    return fd, [_trace_class(mt, p, factored.field(g, fd.d), traces) for g in factors]


def _ladder(mt: MapType, p: int) -> tuple[list[int], list[int]] | None:
    """The j-ordered s-values and traces t_j on a split prime, no factoring.

    Both branches find t_1 = z + 1/z for a z of order exactly N; then t_j =
    V_j(t_1) = z^j + z^-j and s_j = shift - t_j^2.  For p = 1 mod N, z is
    w^((p-1)/N) for the first w = 2, 3, ... in F_p* with no z^(N/q) = 1.  For
    p = -1 mod N, z is in the norm-one torus of F_{p^2}: t_1 = V_{(p+1)/N}(c)
    for the first c with Legendre(c^2 - 4) = -1 and no V_{N/q}(t_1) = 2.

    The s-values, in the order of the trace indices j, are the d = 1 witness
    that `check_witness` checks; nothing here checks them.  None unless
    2 < p < 2^64 and p = +-1 mod N and mod the order-m modulus, the d = 1
    primes in range.  The ladder assumes p prime but never relies on it: an Euler
    value of w other than +-1, or of c^2 - 4 other than 0, +-1, gives None.
    """
    n_mod, m_mod, exponents = mt.n_modulus, mt.m_modulus, mt.exponents
    if not 2 < p < 1 << 64 or p % n_mod not in (1, n_mod - 1) \
            or p % m_mod not in (1, m_mod - 1):
        return None
    half = (p - 1) // 2
    if p % n_mod == 1:
        # ends by a primitive root of a prime p, or at w = the least factor of p
        for w in count(2):
            if pow(w, half, p) not in (1, p - 1):
                return None
            z = pow(w, (p - 1) // n_mod, p)
            if all(pow(z, k, p) != 1 for k in exponents):
                t1 = (z + pow(z, n_mod - 1, p)) % p
                break
    else:
        for c in range(3, p):
            euler = pow(c * c - 4, half, p)
            if euler != p - 1:
                if euler not in (0, 1):
                    return None
                continue
            t1 = lucas_v((p + 1) // n_mod, c, p)
            if all(lucas_v(k, t1, p) != 2 for k in exponents):
                break
        else:
            raise IntegrityError(f"no trace of order {n_mod} found mod {p}")
    # t_j = V_j(t_1) for every index, in one pass of V_(j+1) = t_1 V_j - V_(j-1)
    v = [2, t1]
    while len(v) <= mt.indices[-1]:
        v.append((t1 * v[-1] - v[-2]) % p)
    t_values = [v[j] for j in mt.indices]
    return [(mt.shift - t * t) % p for t in t_values], t_values


def check_witness(m: int, n: int, p: int, s_values: list[int]
                  ) -> tuple[FieldData, int, int, int, list[int], ParityVerdict]:
    """Check a d = 1 witness, the s-values of a split prime, and read the census
    off it: (field, k, l, genus, characters, parity), the characters being
    chi of each s_j mod p in the witness's order.  A plain tuple: a sweep
    takes five numbers from it on every prime and builds no record for them.

    The checks are the split route's, each made here once: p is a prime
    below 2^64 with d = 1; prod (x - s_j) is f1 mod p, which one carry-free
    packed product checks (`_product_mod_p`); the s_j are distinct and
    nonzero (else a bad reduction); k counts the s_j that are squares mod p
    (Euler's criterion on the residue); then `_verdicts` checks k + l =
    phi(n)/2, an integral genus and the parity verdict.
    """
    mt = map_type(m, n)
    _check_prime(p)
    fd = _field_data(mt, p)
    if fd.d != 1:
        raise Inadmissible(f"p={p} is not a split prime for type {{{m},{n}}} (d={fd.d})")
    if _product_mod_p(s_values, p) != [c % p for c in mt.f1.coeffs]:
        raise IntegrityError(f"split-route s-values do not multiply out to f1 mod {p}")
    if len(set(s_values)) != len(s_values):
        raise BadReduction(f"f1 for type {{{m},{n}}} is not squarefree mod {p}")
    characters = _characters(s_values, p)
    if 0 in characters:
        raise _s_zero(mt, p)
    k, l, genus, parity = _verdicts(mt, p, fd, characters, 1)
    return fd, k, l, genus, characters, parity


def _split_classes(p: int, s_values: list[int], characters: list[int],
                   t_values: list[int], traces: bool) -> Iterator[TraceClass]:
    # sorted by s, the root order of the factorization route; x mod (x - s)
    # is s, so the class values are built from the residues
    for s, character, t in sorted(zip(s_values, characters, t_values)):
        factor = ((-s) % p, 1)
        yield TraceClass(factor, 1, s, character, INNER if character == 1 else OUTER,
                         min(t, p - t) if traces else None, gf.FieldCtx(p, factor, 1))


def _product_mod_p(roots: list[int], p: int) -> list[int]:
    """Ascending coefficients mod p of prod (x - s) over residues s in [0, p).

    Slot k of the Kronecker-packed integer prod (2^w + p - s) is e_(r-k)(p - s)
    <= C(r, k) p^(r-k) < 2^(w-1) for r roots: no slot carries, and p - s = -s."""
    w = len(roots) * (p.bit_length() + 1) + 1
    base = (1 << w) + p
    packed = 1
    for s in roots:
        packed *= base - s
    mask = (1 << w) - 1
    return [(packed >> k & mask) % p for k in range(0, w * len(roots) + 1, w)]


def _characters(values, p: int) -> list[int]:
    """Characters of integers inside F_{p^d} for odd d, which are their
    characters mod p: a non-square mod p stays one in an odd-degree
    extension.  Euler's criterion, one power each: v^((p-1)/2) is 0, 1 or
    p - 1 mod an odd prime p."""
    if p == 2:
        return [value % 2 for value in values]
    half = (p - 1) // 2
    return [(pow(value, half, p) + 1) % p - 1 for value in values]


def _chi_shortcut(n: int, p: int) -> int:
    # section-free restatement of the tabulated chi(b_e) cases; valid for odd
    # n and q = p odd, where every b_e is +-1 or +-2
    sign = 1
    for e in divisors(n):
        if moebius(n // e) == 0:
            continue
        r = e % 12
        if r in (7, 11):
            ce = 1
        elif r in (1, 5):
            ce = 1 if p % 4 == 1 else -1
        elif r == 9:
            ce = 1 if p % 8 in (1, 7) else -1
        else:  # r == 3, the chi(-2) case
            ce = 1 if p % 8 in (1, 3) else -1
        sign *= ce
    return sign


# the verdicts a record can carry, by (predicted, observed): shared, not
# built per prime
_VERDICTS = {(None, obs): ParityVerdict(False, None, obs, None) for obs in ("even", "odd")}
_VERDICTS.update({(obs, obs): ParityVerdict(True, obs, obs, True) for obs in ("even", "odd")})


def _parity(mt: MapType, p: int, d: int, l: int) -> ParityVerdict:
    observed = "even" if l % 2 == 0 else "odd"
    if mt.m != 3 or d % 2 == 0:
        return _VERDICTS[None, observed]
    character = _characters((mt.psi_one,), p)[0]
    if character == 0:
        raise IntegrityError(f"Psi_{mt.n}(1) = {mt.psi_one} vanishes mod {p} on a good prime")
    if d == 1 and mt.chi_shortcut and p != 2:
        if mt.chi_shortcut[p % 8] != character:  # it reads p only mod 8
            raise IntegrityError(f"chi(b_e) shortcut disagrees for n={mt.n}, p={p}")
    predicted = "even" if character == 1 else "odd"
    if predicted != observed:
        raise IntegrityError(
            f"parity prediction falsified at ({mt.m},{mt.n},{p}): predicted l {predicted}, "
            f"observed l={l}")
    return _VERDICTS[predicted, observed]


# ---------------------------------------------------------------------------
# matrix witness oracle


class OracleWitness(NamedTuple):
    verdict: str
    degenerate: bool           # the beta = 0, r = v branch was taken
    field_modulus: tuple[int, ...]
    x_matrix: tuple[tuple[int, ...], ...]   # (r, s', u, v) coefficient tuples
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    det_w: tuple[int, ...]


def _proportional(K: gf.FieldCtx, A, B) -> bool:
    # projective equality of 2x2 matrices of values of K: (A, B) has rank
    # <= 1.  With a nonzero pivot A[i], the three cross products A[i] B[j] =
    # A[j] B[i] make B = (B[i]/A[i]) A; A = 0 is proportional to everything.
    for i in range(4):
        if A[i]:
            return all(K.mul(A[i], B[j]) == K.mul(A[j], B[i]) for j in range(4) if j != i)
    return True


def _conjugation_inverts(K: gf.FieldCtx, w, M) -> bool:
    # w M w^{-1} = M^{-1} projectively, i.e. w*M proportional to adj(M)*w
    a, b, c, d = M
    adjugate = (d, K.sub(0, b), K.sub(0, c), a)
    return _proportional(K, _mat_mul(K, w, M), _mat_mul(K, adjugate, w))


def _mat_mul(K: gf.FieldCtx, A, B):
    a, b, c, d = A
    e, f, g, h = B
    dot = K.dot
    return (dot(a, e, b, g), dot(a, f, b, h), dot(c, e, d, g), dot(c, f, d, h))


def _trace_field_modulus(factor: tuple[int, ...], p: int) -> tuple[int, ...]:
    """(-1)^e factor(3 - T^2) mod p, e = deg factor: the minimal polynomial of
    t over F_p when T^2 = 3 - s has no root in F_p(s).  Horner's rule in
    y = T^2 on g = (-1)^e factor(3 - y), whose coefficients sit at even powers."""
    sign = -1 if len(factor) % 2 == 0 else 1
    g = [sign * factor[-1] % p]
    for c in factor[-2::-1]:  # g <- g * (3 - y) + sign * c
        g = [(3 * a - b) % p for a, b in zip(g + [0], [0] + g)]
        g[0] = (g[0] + sign * c) % p
    return tuple(c for a in g for c in (a, 0))[:-1]


def matrix_oracle(cls: TraceClass) -> OracleWitness:
    """Re-derive the inner/outer verdict of a type-{3,n} class from matrices.

    Constructs z of order 2 and x = [[r, s'], [u, v]] of order 3 in SL(2)
    with tr(zx) = t, then the involution w = [[alpha, beta], [beta, -alpha]]
    with alpha = s' + u and beta = v - r, which inverts both by conjugation,
    and reads the verdict off det w = -alpha^2 - beta^2.  The
    conjugation identities are checked literally, and the result must agree
    with the character criterion.  It works in the class's field, where s
    is the generator, or in the quadratic extension of it that holds t, on
    the field's values, plain ints (`FieldCtx`'s arithmetic, one reduction per
    matrix entry), which `gf.sqrt_in_field` and `gf.chi` take with the field.
    """
    K = cls.field
    p, d, e = K.p, K.ambient_d, cls.e
    if p == 2:
        raise Inadmissible("the witness construction needs invertible 2")
    t = gf.sqrt_in_field(K, K.sub(3 % p, cls.s))
    if t is None:
        # adjoin t via T^2 = 3 - s, irreducible of degree 2e here
        if d % (2 * e):
            raise IntegrityError(f"trace of class {cls.factor} does not live in F_q")
        K = gf.FieldCtx(p, _trace_field_modulus(cls.factor, p), d)
        t = K.gen()
    add, sub, mul, dot = K.add, K.sub, K.mul, K.dot
    minus_one, half = p - 1, (p + 1) // 2
    tt = mul(t, t)
    s_val = sub(3 % p, tt)
    if not s_val:
        raise IntegrityError("degenerate class with t^2 = 3")

    # try r = 1/2 first so the beta = 0 branch gets exercised
    candidates = chain([half], (c for c in map(K.element_at, count()) if c != half))
    tried = set()
    for r in islice(candidates, 4000):
        v = sub(1, r)
        if v in tried:  # r^2 - r = v^2 - v: the disc of v, which had no root
            continue
        tried.add(r)
        disc = sub(tt, mul(4 % p, add(v, mul(r, r))))
        root = gf.sqrt_in_field(K, disc)
        if root is not None:
            sp = mul(sub(root, t), half)
            u = add(t, sp)
            if dot(r, v, sub(0, sp), u) != 1:
                raise IntegrityError("constructed x does not have determinant 1")
            if sub(u, sp) != t:
                raise IntegrityError("constructed x has the wrong zx trace")
            break
    else:
        raise IntegrityError(f"no solvable x found for class {cls.factor} mod {p}")

    x_mat, z_mat = (r, sp, u, v), (0, 1, minus_one, 0)
    # x^3 = -I: order 3 in PSL(2,q)
    if _mat_mul(K, _mat_mul(K, x_mat, x_mat), x_mat) != (minus_one, 0, 0, minus_one):
        raise IntegrityError("x is not of order 3")

    alpha, beta = add(sp, u), sub(v, r)
    w_mat = (alpha, beta, beta, sub(0, alpha))
    if not ((alpha or beta) and _conjugation_inverts(K, w_mat, z_mat)
            and _conjugation_inverts(K, w_mat, x_mat)):
        raise IntegrityError("w = [[s'+u, v-r], [v-r, -s'-u]] fails to invert z and x")
    degenerate = not beta
    det_w = sub(0, dot(alpha, alpha, beta, beta))
    if not det_w:
        raise IntegrityError("w is singular")
    # the Euclidean norm: chi(s) of a class takes the closed form of a linear s
    verdict = INNER if gf.chi(K, det_w, resultant=True) == 1 else OUTER
    if degenerate:
        # in this branch 3 - t^2 is a square iff -1 is
        if gf.chi(K, s_val) != gf.chi(K, minus_one):
            raise IntegrityError("degenerate-branch rule chi(3-t^2) = chi(-1) failed")
    if verdict != cls.regularity:
        raise IntegrityError(
            f"matrix oracle verdict {verdict} contradicts character verdict "
            f"{cls.regularity} for factor {cls.factor} mod {p}")
    coeffs = [K.coeffs(value) for value in (*x_mat, alpha, beta, det_w)]
    return OracleWitness(verdict, degenerate, K.modulus, tuple(coeffs[:4]), *coeffs[4:])


# ---------------------------------------------------------------------------
# trace-route oracle: recover the s-values from the trace polynomial instead


def route_product(m: int, n: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two routes to the s-value multiset, as polynomial products mod p.

    Left: product over irreducible factors G of Psi_N mod p (N = n or 2n) of
    the characteristic polynomial prod_{i < deg G} (X - phi^i(shift - t^2))
    of shift - t^2 in F_p[t]/(G), phi the field's Frobenius map:
    the minimal polynomial M to the power deg G / deg M.  Right: f1 mod p,
    squared for even n where traces come in +- pairs.  Both are returned as
    ascending coefficient tuples for comparison.
    """
    mt = map_type(m, n)
    fd = field_data(m, n, p)
    factored = gf.reduce_and_factor(psi(fd.n_modulus), p)
    if not factored.squarefree:
        raise BadReduction(f"Psi_{fd.n_modulus} is not squarefree mod {p}")
    left = [1]
    for factor, _ in factored.factors:
        ctx = factored.field(factor, len(factor) - 1)
        ring, t = ctx.ring, ctx.gen()
        conjugate = ctx.sub(mt.shift % p, ctx.mul(t, t))
        charpoly = [1]  # times X - conjugate, for each conjugate in turn
        for _ in range(ctx.degree):
            charpoly = [ctx.sub(a, ctx.mul(conjugate, b))
                        for a, b in zip([0] + charpoly, charpoly + [0])]
            if ring is not None:
                conjugate = ring.frobenius_map(conjugate)
        if any(c >= p for c in charpoly):  # a slot above the first is set
            raise IntegrityError("characteristic polynomial coefficients left the prime field")
        left = gf._mul(left, charpoly, p)
    right = gf.reduce_polynomial(mt.f1, p)
    if n % 2 == 0:
        right = gf._mul(right, right, p)
    return tuple(left), tuple(right)


# ---------------------------------------------------------------------------
# serialization


def record_to_dict(record: CensusRecord) -> dict:
    return {
        "m": record.m,
        "n": record.n,
        "p": record.p,
        "d": record.field.d,
        "q": str(record.field.q),
        "genus": str(record.genus),
        "classes": [
            {
                "factor": list(c.factor),
                "e": c.e,
                "s": list(c.field.coeffs(c.s)),
                "chi": c.chi,
                "regularity": c.regularity,
                "t": list(c.field.coeffs(c.t)) if c.t is not None else None,
            }
            for c in record.classes
        ],
        "k": record.k,
        "l": record.l,
        "parity": {
            "applicable": record.parity.applicable,
            "predicted": record.parity.predicted,
            "observed": record.parity.observed,
            "consistent": record.parity.consistent,
        },
        "closed_form_count": record.closed_form_count,
        "count_flag": record.count_flag,
    }


def record_from_json(text: str) -> CensusRecord:
    """The census record a `classify --format json` report names, recomputed:
    only m, n, p and whether its classes carry traces are read, and ValueError
    is raised unless its d, q and class factors are the recomputed ones."""
    import json

    data = json.loads(text)
    classes = data["classes"]
    record = map_census(data["m"], data["n"], data["p"],
                        traces=any(c["t"] is not None for c in classes))
    if (data["d"], data["q"], [c["factor"] for c in classes]) != (
            record.field.d, str(record.field.q), [list(c.factor) for c in record.classes]):
        raise ValueError("serialized field or class factors differ from the recomputed census")
    return record


CSV_CLASS_HEADER = ("m", "n", "p", "d", "q", "genus", "k", "l", "parity_ok",
                    "class_index", "factor", "s", "chi", "regularity")


def record_to_csv_rows(record: CensusRecord) -> list[tuple]:
    parity_ok = "" if record.parity.consistent is None else str(record.parity.consistent)
    rows = []
    for i, c in enumerate(record.classes):
        rows.append((record.m, record.n, record.p, record.field.d, str(record.field.q),
                     str(record.genus), record.k, record.l, parity_ok, i,
                     " ".join(map(str, c.factor)), " ".join(map(str, c.field.coeffs(c.s))),
                     c.chi, c.regularity))
    return rows
