"""Classification of Macbeath maps of type {m,n} over PSL(2, p^d).

One isomorphism class of maps corresponds to one irreducible factor of the
s-polynomial mod p; the class is inner regular exactly when its s-value is a
square in the ambient field F_q.  This module builds the census records,
checks the parity prediction, evaluates the general three-trace discriminant,
and provides an independent matrix-witness oracle for the criterion.
"""

from __future__ import annotations

import functools
import json
from math import gcd, lcm
from typing import NamedTuple

from . import gf
from .errors import BadReduction, Inadmissible, IntegrityError, OracleError
from .intpoly import IntPoly, psi, s_polynomial
from .numkit import (divisors, euler_phi, genus_of_prime_power, is_prime, lucas_v,
                     moebius, mult_order_signed, trace_modulus)

# modulus that controls existence of order-m rotations in PSL(2,q)
_M_MODULUS = {3: 3, 4: 8, 6: 12}
# 4 - w_m^2 where +-w_m is the order-m rotation trace; t^2 = this - s
_T_SQUARE_SHIFT = {3: 3, 4: 2, 6: 1}

INNER = "inner"
OUTER = "outer"


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
    s_polynomial(m, n)  # rejects an unsupported m or a non-hyperbolic type
    _check_prime(p)
    return _field_data(m, n, p)


def _field_data(m: int, n: int, p: int) -> FieldData:
    # for a type s_polynomial has accepted
    n_mod = trace_modulus(n)
    if gcd(p, n_mod) != 1:
        raise Inadmissible(f"p={p} divides {n_mod}")
    if m == 4 and p == 2:
        raise Inadmissible("PSL(2,2^d) has no elements of order 4")
    if m == 6 and p in (2, 3):
        raise Inadmissible(f"no order-6 rotations in characteristic {p}")
    d = mult_order_signed(p, n_mod)
    if m != 3:
        d = lcm(d, mult_order_signed(p, _M_MODULUS[m]))
    # m = 3 needs no side condition: p = 3 gives unipotent order-3 elements,
    # and any other p already has p = +-1 mod 3.
    return FieldData(m, n, p, n_mod, _M_MODULUS[m], d, p**d)


class TraceClass(NamedTuple):
    """One isomorphism class: an irreducible factor of f1 mod p with its verdict."""

    factor: tuple[int, ...]  # monic irreducible over F_p, ascending coefficients
    e: int                   # its degree
    s: gf.FieldElem          # the class parameter, a root of f1
    chi: int                 # quadratic character of s in the AMBIENT field
    regularity: str          # "inner" iff chi == +1
    t: gf.FieldElem | None   # a trace with t^2 = shift - s, when representable


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
    """Full classification of the type-{m,n} Macbeath maps in characteristic p.

    Split primes (d = 1) take the Lucas-ladder route, every other prime the
    factorization of f1 mod p; both give the same record.  `traces=False`
    skips the optional square-root representative t on each class (the
    expensive part of a record); everything else is unchanged.
    """
    return _map_census(m, n, p, traces, split_route=True)


def _map_census(m: int, n: int, p: int, traces: bool, split_route: bool) -> CensusRecord:
    # split_route=False factors f1 on every prime: the reference the split
    # route is tested against
    f1 = s_polynomial(m, n)
    _check_prime(p)
    try:
        fd = _field_data(m, n, p)
    except Inadmissible:
        fd = None  # raised again by the factorization route, after its squarefree check
    if split_route and fd is not None and fd.d == 1:
        classes = _split_classes(m, n, p, f1, traces)
    else:
        fd, classes = _factored_classes(m, n, p, f1, fd, traces)
    e = classes[0].e
    k = sum(1 for c in classes if c.regularity == INNER)
    l = len(classes) - k
    half_phi = _half_phi(n)
    if k + l != half_phi // e:
        raise IntegrityError(f"class count {k + l} != phi(n)/2e for ({m},{n},{p})")
    closed_form = half_phi // fd.d if half_phi % fd.d == 0 else -1
    return CensusRecord(
        m, n, p, fd, genus_of_prime_power(m, n, fd.q), tuple(classes), k, l,
        _parity(m, n, p, fd.d, l),
        closed_form, closed_form != k + l)


def _s_zero(m: int, n: int, p: int) -> BadReduction:
    return BadReduction(f"s = 0 occurs for ({m},{n},{p}); no generating triple "
                        f"has t^2 = {_T_SQUARE_SHIFT[m]}")


def _trace_class(m: int, n: int, p: int, factor: tuple[int, ...], d: int,
                 traces: bool) -> TraceClass:
    ctx = gf.FieldCtx.trusted(p, factor, d)
    s = ctx.gen()
    character = gf.chi(s)
    if character == 0:
        raise _s_zero(m, n, p)
    t = gf.sqrt_in_field(ctx.elem(_T_SQUARE_SHIFT[m]) - s) if traces else None
    return TraceClass(factor, len(factor) - 1, s, character,
                      INNER if character == 1 else OUTER, t)


def _factored_classes(m: int, n: int, p: int, f1: IntPoly, fd: FieldData | None,
                      traces: bool) -> tuple[FieldData, list[TraceClass]]:
    """Classes from the irreducible factors of f1 mod p (any d)."""
    factored = gf.reduce_and_factor(f1, p)
    if not factored.squarefree:
        raise BadReduction(f"f1 for type {{{m},{n}}} is not squarefree mod {p}")
    if fd is None:
        fd = _field_data(m, n, p)
    degrees = {len(g) - 1 for g, _ in factored.factors}
    if len(degrees) != 1:
        raise IntegrityError(f"unequal factor degrees {degrees} for ({m},{n},{p})")
    e = degrees.pop()
    if fd.d % e:
        raise IntegrityError(f"factor degree {e} does not divide d={fd.d}")
    factors = sorted((g for g, _ in factored.factors),
                     key=lambda g: _class_sort_key(g, p))
    return fd, [_trace_class(m, n, p, g, fd.d, traces) for g in factors]


@functools.lru_cache(maxsize=None)
def _half_phi(n: int) -> int:
    return euler_phi(n) // 2


@functools.lru_cache(maxsize=None)
def _split_plan(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """N, the exponents N/q for the primes q | N, and the trace indices j.

    With z of order N, the traces t_j = z^j + z^-j for 1 <= j < n/2 and
    gcd(j, N) = 1 give each of the phi(n)/2 roots of f1 once (for even n,
    t_{n-j} = -t_j would give the same root again).
    """
    n_mod = trace_modulus(n)
    exponents = tuple(n_mod // q for q in divisors(n_mod) if q > 1 and is_prime(q))
    indices = tuple(j for j in range(1, (n + 1) // 2) if gcd(j, n_mod) == 1)
    return n_mod, exponents, indices


def _split_classes(m: int, n: int, p: int, f1: IntPoly,
                   traces: bool) -> list[TraceClass]:
    """Classes on a split prime (p = +-1 mod N) from Lucas sequences, no factoring.

    With eps = +-1 the sign of p mod N and c a parameter with Legendre(c^2 - 4)
    = eps, z + 1/z = c has a root z in F_p or in the norm-one torus of F_{p^2},
    so z^(p - eps) = 1 and t_1 = V_{(p-eps)/N}(c) is the trace of an element of
    order dividing N, of order exactly N when no V_{N/q}(t_1) equals 2.  The
    s-values s_j = shift - V_j(t_1)^2 must multiply out to f1 mod p, which
    one carry-free packed product checks (`_product_mod_p`); each class
    character is Euler's criterion on the residue s_j itself.
    """
    n_mod, exponents, indices = _split_plan(n)
    eps = 1 if p % n_mod == 1 else -1
    half = (p - 1) // 2
    for c in range(3, p):
        if pow(c * c - 4, half, p) != eps % p:
            continue
        t1 = lucas_v((p - eps) // n_mod, c, p)
        if all(lucas_v(k, t1, p) != 2 for k in exponents):
            break
    else:
        raise IntegrityError(f"no trace of order {n_mod} found mod {p}")
    shift = _T_SQUARE_SHIFT[m]
    # t_j = V_j(t_1) for every index, in one pass of V_(j+1) = t_1 V_j - V_(j-1)
    v = [2, t1]
    while len(v) <= indices[-1]:
        v.append((t1 * v[-1] - v[-2]) % p)
    t_values = [v[j] for j in indices]
    s_values = [(shift - t * t) % p for t in t_values]
    if _product_mod_p(s_values, p) != [c % p for c in f1.coeffs]:
        raise IntegrityError(f"split-route s-values do not multiply out to f1 mod {p}")
    if len(set(s_values)) != len(s_values):
        raise BadReduction(f"f1 for type {{{m},{n}}} is not squarefree mod {p}")
    classes = []
    for s, t in sorted(zip(s_values, t_values)):
        character = _chi_of_integer(s, p, 1)
        if character == 0:
            raise _s_zero(m, n, p)
        # x mod (x - s) is s, so the class values are built from the residues
        factor = ((-s) % p, 1)
        ctx = gf.FieldCtx.trusted(p, factor, 1)
        t = min(t, p - t)
        classes.append(TraceClass(factor, 1, gf.FieldElem(ctx, s), character,
                                  INNER if character == 1 else OUTER,
                                  gf.FieldElem(ctx, t) if traces else None))
    return classes


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


def _chi_of_integer(value: int, p: int, d: int) -> int:
    """Character of an integer inside F_{p^d} (it lives in the prime field)."""
    if p == 2:
        return 1 if value % 2 else 0
    v = value % p
    if v == 0:
        return 0
    if d % 2 == 0:
        return 1
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _psi_one(n: int) -> int:
    return psi(n)(1)


def _parity(m: int, n: int, p: int, d: int, l: int) -> ParityVerdict:
    observed = "even" if l % 2 == 0 else "odd"
    if m != 3 or d % 2 == 0:
        return ParityVerdict(False, None, observed, None)
    psi_one = _psi_one(n)
    character = _chi_of_integer(psi_one, p, d)
    if character == 0:
        raise IntegrityError(f"Psi_{n}(1) = {psi_one} vanishes mod {p} on a good prime")
    if d == 1 and n % 2 and p != 2:
        if _chi_shortcut(n, p % 8) != character:  # it reads p only mod 8
            raise IntegrityError(f"chi(b_e) shortcut disagrees for n={n}, p={p}")
    predicted = "even" if character == 1 else "odd"
    verdict = ParityVerdict(True, predicted, observed, predicted == observed)
    if not verdict.consistent:
        raise IntegrityError(
            f"parity prediction falsified at ({m},{n},{p}): predicted l {predicted}, "
            f"observed l={l}")
    return verdict


def cps_discriminant(a: gf.FieldElem, b: gf.FieldElem,
                     c: gf.FieldElem) -> tuple[gf.FieldElem, int]:
    """-D = 4 + abc - a^2 - b^2 - c^2 for a triple of rotation traces.

    Inner regularity of the corresponding hypermap is equivalent to -D being
    a square in the ambient field; the character is returned alongside.
    """
    if a.ctx != b.ctx or a.ctx != c.ctx:
        raise ValueError("trace elements from mixed field contexts")
    value = a.ctx.elem(4) + a * b * c - a * a - b * b - c * c
    return value, gf.chi(value)


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


def _proportional(A, B) -> bool:
    # projective equality of 2x2 matrices: (A, B) has rank <= 1.  With a
    # nonzero pivot A[i], the three cross products A[i] B[j] = A[j] B[i]
    # make B = (B[i]/A[i]) A; A = 0 is proportional to everything.
    for i in range(4):
        if not A[i].is_zero():
            return all(A[i] * B[j] == A[j] * B[i] for j in range(4) if j != i)
    return True


def _conjugation_inverts(w, M) -> bool:
    # w M w^{-1} = M^{-1} projectively, i.e. w*M proportional to adj(M)*w
    wa, wb, wc, wd = w
    a, b, c, d = M
    left = (wa * a + wb * c, wa * b + wb * d, wc * a + wd * c, wc * b + wd * d)
    right = (d * wa - b * wc, d * wb - b * wd, -c * wa + a * wc, -c * wb + a * wd)
    return _proportional(left, right)


def matrix_oracle(n: int, p: int, cls: TraceClass,
                  ambient_d: int | None = None) -> OracleWitness:
    """Re-derive the inner/outer verdict of a type-{3,n} class from matrices.

    Constructs z of order 2 and x of order 3 in SL(2) with tr(zx) = t, then
    the involution w = [[alpha, beta], [beta, -alpha]] that inverts both by
    conjugation, and reads the verdict off det w = -alpha^2 - beta^2.  The
    conjugation identities are checked literally, and the result must agree
    with the character criterion.
    """
    if p == 2:
        raise Inadmissible("the witness construction needs invertible 2")
    d = ambient_d if ambient_d is not None else field_data(3, n, p).d
    e = cls.e
    base_ctx = gf.FieldCtx.trusted(p, cls.factor, d)
    if base_ctx == cls.s.ctx:
        base_ctx = cls.s.ctx  # the same field: reuse its packed ring
    s_base = base_ctx.gen()
    t = gf.sqrt_in_field(base_ctx.elem(3) - s_base)
    if t is not None:
        K = base_ctx
    else:
        # adjoin t via T^2 = 3 - s: the minimal polynomial of t over F_p is
        # (-1)^e * factor(3 - T^2), irreducible of degree 2e here
        if d % (2 * e):
            raise OracleError(f"trace of class {cls.factor} does not live in F_q")
        comp = IntPoly(cls.factor).compose(IntPoly([3, 0, -1]))
        if e % 2:
            comp = -comp
        K = gf.FieldCtx.trusted(p, tuple(c % p for c in comp.coeffs), d)
        t = K.gen()
    one, zero = K.one(), K.zero()
    s_val = K.elem(3) - t * t
    if s_val.is_zero():
        raise OracleError("degenerate class with t^2 = 3")
    half = K.elem((p + 1) // 2)

    x_mat = None
    tried = 0
    index = 0
    candidate = half  # try r = 1/2 first so the beta = 0 branch gets exercised
    while tried < 4000:
        r = candidate
        v = one - r
        disc = t * t - K.elem(4) * (one - r + r * r)
        root = gf.sqrt_in_field(disc)
        if root is not None:
            sp = (root - t) * half
            u = t + sp
            if r * v - sp * u != one:
                raise IntegrityError("constructed x does not have determinant 1")
            if u - sp != t:
                raise IntegrityError("constructed x has the wrong zx trace")
            x_mat = (r, sp, u, v)
            break
        tried += 1
        candidate = K.element_at(index)
        index += 1
        if candidate == half:
            candidate = K.element_at(index)
            index += 1
    if x_mat is None:
        raise OracleError(f"no solvable x found for class {cls.factor} mod {p}")

    r, sp, u, v = x_mat
    z_mat = (zero, one, -one, zero)
    # x^3 = -I: order 3 in PSL(2,q)
    x2 = _mat_mul(x_mat, x_mat)
    x3 = _mat_mul(x2, x_mat)
    if x3 != (-one, zero, zero, -one):
        raise IntegrityError("x is not of order 3")
    # nonsingularity determinant for the trace triple (0, 1, t): equals 3 - t^2
    nonsing, _ = cps_discriminant(zero, one, u - sp)
    if nonsing != s_val or nonsing.is_zero():
        raise OracleError("nonsingularity determinant check failed")

    alpha = sp + u
    beta_options = [-(r - v), r - v]
    w_mat = None
    for beta in beta_options:
        if alpha.is_zero() and beta.is_zero():
            continue
        cand = (alpha, beta, beta, -alpha)
        if _conjugation_inverts(cand, z_mat) and _conjugation_inverts(cand, x_mat):
            w_mat = cand
            break
    if w_mat is None:
        raise OracleError("no sign choice of w inverts both z and x")
    alpha, beta = w_mat[0], w_mat[1]
    degenerate = beta.is_zero()
    det_w = -(alpha * alpha) - beta * beta
    if det_w.is_zero():
        raise OracleError("w is singular")
    verdict = INNER if gf.chi(det_w) == 1 else OUTER
    if degenerate:
        # in this branch 3 - t^2 is a square iff -1 is
        if gf.chi(s_val) != gf.chi(-one):
            raise IntegrityError("degenerate-branch rule chi(3-t^2) = chi(-1) failed")
    if verdict != cls.regularity:
        raise IntegrityError(
            f"matrix oracle verdict {verdict} contradicts character verdict "
            f"{cls.regularity} for factor {cls.factor} mod {p}")
    return OracleWitness(verdict, degenerate, K.modulus, tuple(m.coeffs for m in x_mat),
                         alpha.coeffs, beta.coeffs, det_w.coeffs)


def _mat_mul(A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# ---------------------------------------------------------------------------
# trace-route oracle: recover the s-values from the trace polynomial instead


def route_product(m: int, n: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two routes to the s-value multiset, as polynomial products mod p.

    Left: product over irreducible factors G of Psi_N mod p (N = n or 2n) of
    the minimal polynomial of shift - t^2, with multiplicity deg G / deg M.
    Right: f1 mod p, squared for even n where traces come in +- pairs.
    Both are returned as ascending coefficient tuples for comparison.
    """
    fd = field_data(m, n, p)
    trace_poly = psi(fd.n_modulus)
    factored = gf.reduce_and_factor(trace_poly, p)
    if not factored.squarefree:
        raise BadReduction(f"Psi_{fd.n_modulus} is not squarefree mod {p}")
    shift = _T_SQUARE_SHIFT[m]
    left: tuple[int, ...] = (1,)
    for factor, _ in factored.factors:
        ctx = gf.FieldCtx.trusted(p, factor, len(factor) - 1)
        troot = ctx.gen()
        s_elem = ctx.elem(shift) - troot * troot
        minpoly = s_elem.min_poly()
        mult = (len(factor) - 1) // (len(minpoly) - 1)
        for _ in range(mult):
            left = gf.poly_mul(left, minpoly, p)
    right: tuple[int, ...] = tuple(gf.reduce_polynomial(s_polynomial(m, n), p))
    if n % 2 == 0:
        right = gf.poly_mul(right, right, p)
    return left, right


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
                "s": list(c.s.coeffs),
                "chi": c.chi,
                "regularity": c.regularity,
                "t": list(c.t.coeffs) if c.t is not None else None,
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
    data = json.loads(text)
    m, n, p = data["m"], data["n"], data["p"]
    fd = field_data(m, n, p)
    if fd.d != data["d"] or str(fd.q) != data["q"]:
        raise ValueError("serialized field data is inconsistent")
    classes = []
    for c in data["classes"]:
        ctx = gf.FieldCtx(p, c["factor"], ambient_d=fd.d)
        t = ctx.elem(c["t"]) if c["t"] is not None else None
        classes.append(TraceClass(ctx.modulus, c["e"], ctx.elem(c["s"]),
                                  c["chi"], c["regularity"], t))
    parity = ParityVerdict(data["parity"]["applicable"], data["parity"]["predicted"],
                           data["parity"]["observed"], data["parity"]["consistent"])
    return CensusRecord(m, n, p, fd, int(data["genus"]), tuple(classes),
                        data["k"], data["l"], parity,
                        data["closed_form_count"], data["count_flag"])


CSV_CLASS_HEADER = ("m", "n", "p", "d", "q", "genus", "k", "l", "parity_ok",
                    "class_index", "factor", "s", "chi", "regularity")


def record_to_csv_rows(record: CensusRecord) -> list[tuple]:
    parity_ok = "" if record.parity.consistent is None else str(record.parity.consistent)
    rows = []
    for i, c in enumerate(record.classes):
        rows.append((record.m, record.n, record.p, record.field.d, str(record.field.q),
                     str(record.genus), record.k, record.l, parity_ok, i,
                     " ".join(map(str, c.factor)), " ".join(map(str, c.s.coeffs)),
                     c.chi, c.regularity))
    return rows
