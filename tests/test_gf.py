import functools
import itertools
import math
import random

import pytest

from irreducibles import find_irreducible, random_irreducible
from macbeath import gf
from macbeath.errors import IntegrityError
from macbeath.gf import (
    FieldCtx,
    chi,
    degree_pattern,
    is_irreducible,
    reduce_and_factor,
    sqrt_in_field,
)
from macbeath.intpoly import IntPoly, discriminant, doubled, s_polynomial
from macbeath.numkit import divisors, is_prime, moebius, primes_upto


F1_37 = s_polynomial(3, 7)
F2_37 = doubled(F1_37)


def factor_pattern(factored) -> tuple[int, ...]:
    """The sorted factor degrees of a FactorList, each repeated by its multiplicity."""
    return tuple(sorted(len(g) - 1 for g, mult in factored.factors for _ in range(mult)))


def test_factor_f2_mod_13_paper_example():
    fl = reduce_and_factor(F2_37, 13)
    assert fl.squarefree
    # (x-2)(x+2)(x^2-6)(x^2-7), canonically ordered
    assert [list(f) for f, m in fl.factors] == [[2, 1], [11, 1], [6, 0, 1], [7, 0, 1]]
    assert all(m == 1 for _, m in fl.factors)


def test_factor_bad_reduction_mod_7():
    fl = reduce_and_factor(F1_37, 7)
    assert not fl.squarefree
    assert fl.factors == (((1, 1), 3),)


def test_factor_f1_mod_13():
    fl = reduce_and_factor(F1_37, 13)
    assert fl.squarefree
    # roots 4, 6, 7 -> factors s-4, s-6, s-7
    assert [list(f) for f, m in fl.factors] == [[6, 1], [7, 1], [9, 1]]


def test_degree_patterns():
    assert degree_pattern(F2_37, 13) == (1, 1, 2, 2)
    assert degree_pattern(F2_37, 181) == (1, 1, 1, 1, 1, 1)
    assert degree_pattern(F1_37, 2) == (3,)
    assert degree_pattern(F1_37, 7) == (1, 1, 1)  # triple root counted thrice


def test_degree_pattern_agrees_with_full_factorization():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 13, 101])
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(-30, 30) for _ in range(deg)] + [1]
        f = IntPoly(coeffs)
        pat = degree_pattern(f, p)
        assert sum(pat) == f.degree
        assert pat == factor_pattern(reduce_and_factor(f, p))


def test_constant_input_has_no_factors():
    for p in (2, 3, 7, 13):
        assert degree_pattern(IntPoly([5]), p) == ()
        fl = reduce_and_factor(IntPoly([5]), p)
        assert fl.factors == () and fl.lead == 5 % p and fl.squarefree
        assert factor_pattern(fl) == ()
    with pytest.raises(ValueError):
        degree_pattern(IntPoly([7]), 7)  # reduces to zero


def test_factorization_reconstructs_and_is_deterministic():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 17, 97, 9871])
        deg = rng.randrange(1, 10)
        coeffs = [rng.randrange(-50, 50) for _ in range(deg)] + [rng.randrange(1, 50)]
        f = IntPoly(coeffs)
        if f.coeffs[-1] % p == 0:
            continue
        first = reduce_and_factor(f, p)
        again = reduce_and_factor(f, p)
        assert first == again
        for g, _ in first.factors:
            assert is_irreducible(list(g), p)


def test_reduce_rejects_vanishing_lead():
    with pytest.raises(ValueError):
        reduce_and_factor(IntPoly([1, 0, 7]), 7)
    with pytest.raises(ValueError):
        reduce_and_factor(IntPoly([7, 14]), 7)


def test_field_ops_examples():
    # x^2-2 splits mod 7 (2 = 3^2), so use p = 5 where it is irreducible
    ctx = FieldCtx.checked(5, [-2, 0, 1])  # F_25 as F_5[x]/(x^2-2)
    x = ctx.gen()
    assert ctx.mul(x, x) == ctx.value(2)
    f41 = FieldCtx.checked(41, [0, 1])
    assert f41.mul(f41.value(2), f41.value(21)) == f41.value(1)
    with pytest.raises(ValueError, match="negative exponent"):
        ctx.pow(x, -1)


def test_frobenius_fixes_exactly_the_prime_field():
    ctx = FieldCtx.checked(3, find_irreducible(3, 3))
    fixed = [i for i in range(27) if ctx.pow(e := ctx.element_at(i), 3) == e]
    assert len(fixed) == 3
    # and a^(p^e) = a for everything
    assert all(ctx.pow(ctx.element_at(i), 27) == ctx.element_at(i) for i in range(27))


def test_chi_prime_field_examples():
    f13 = FieldCtx.checked(13, [0, 1])
    assert chi(f13, f13.value(4)) == 1
    assert chi(f13, f13.value(6)) == -1
    assert chi(f13, f13.value(0)) == 0


def test_chi_characteristic_two():
    ctx = FieldCtx.checked(2, [1, 1, 0, 1], ambient_d=3)
    assert all(chi(ctx, ctx.element_at(i)) == 1 for i in range(1, 8))


def test_chi_ambient_parity_rule():
    # a non-square of F_19 becomes a square in the ambient F_19^2
    f19 = FieldCtx.checked(19, [0, 1])
    nonsquare = next(a for a in range(2, 19) if chi(f19, f19.value(a)) == -1)
    ambient = FieldCtx.checked(19, [0, 1], ambient_d=2)
    assert chi(ambient, ambient.value(nonsquare)) == 1
    # odd ambient index keeps the subfield verdict
    ambient3 = FieldCtx.checked(19, [0, 1], ambient_d=3)
    assert chi(ambient3, ambient3.value(nonsquare)) == -1


def brute_square_table(ctx):
    q = ctx.p**ctx.degree
    squares = set()
    for i in range(q):
        b = ctx.element_at(i)
        squares.add(ctx.coeffs(ctx.mul(b, b)))
    return squares


def test_chi_against_exhaustive_squares_small_fields():
    for q in (3, 5, 9, 25, 8, 27, 49, 121, 128):
        p = next(pp for pp in primes_upto(q) if q % pp == 0 and is_prime(pp))
        e = 0
        qq = q
        while qq > 1:
            qq //= p
            e += 1
        ctx = FieldCtx.checked(p, find_irreducible(p, e))
        squares = brute_square_table(ctx)
        for i in range(q):
            a = ctx.element_at(i)
            expected = 0 if not a else (1 if ctx.coeffs(a) in squares else -1)
            if p == 2:
                expected = 0 if not a else 1
            assert chi(ctx, a) == expected


def test_chi_multiplicative_all_fields():
    rng = random.Random(17)
    fields = 0
    for p in primes_upto(2000):
        e = 1
        while p**e <= 2000:
            ctx = FieldCtx.checked(p, [0, 1] if e == 1 else find_irreducible(p, e))
            q = p**e
            for _ in range(1000):
                a = ctx.element_at(rng.randrange(q))
                b = ctx.element_at(rng.randrange(q))
                assert chi(ctx, ctx.mul(a, b)) == chi(ctx, a) * chi(ctx, b)
            fields += 1
            e += 1
    assert fields == 333


def test_sqrt_examples():
    f13 = FieldCtx.checked(13, [0, 1])
    assert sqrt_in_field(f13, f13.value(4)) == f13.value(2)
    assert sqrt_in_field(f13, f13.value(6)) is None
    f41 = FieldCtx.checked(41, [0, 1])
    assert sqrt_in_field(f41, f41.value(5)) == f41.value(13)


def test_sqrt_in_extension_fields():
    for p, e in ((3, 2), (5, 3), (7, 2), (2, 4), (13, 2)):
        ctx = FieldCtx.checked(p, find_irreducible(p, e))
        hits = 0
        q = ctx.p**ctx.degree
        for i in range(q):
            a = ctx.element_at(i)
            r = sqrt_in_field(ctx, a)
            if r is not None:
                assert ctx.mul(r, r) == a
                hits += 1
        expected = q if p == 2 else (q - 1) // 2 + 1
        assert hits == expected


def test_sqrt_ambient_square_may_have_no_represented_root():
    f19 = FieldCtx.checked(19, [0, 1], ambient_d=2)
    f19_own = FieldCtx.checked(19, [0, 1])
    nonsquare = next(a for a in range(2, 19) if sqrt_in_field(f19_own, f19_own.value(a)) is None)
    elem = f19.value(nonsquare)
    assert chi(f19, elem) == 1
    assert sqrt_in_field(f19, elem) is None


def test_equal_degree_factors_of_s_polynomial():
    # abelian Galois consequence: all irreducible factors share one degree
    for n in range(7, 31):
        f1 = s_polynomial(3, n)
        for p in primes_upto(300):
            try:
                fl = reduce_and_factor(f1, p)
            except ValueError:
                continue
            if not fl.squarefree:
                continue
            degs = {len(g) - 1 for g, _ in fl.factors}
            assert len(degs) == 1, (n, p, fl.factors)


def test_field_ctx_validation():
    with pytest.raises(ValueError):
        FieldCtx.checked(10, [0, 1])
    with pytest.raises(ValueError):
        FieldCtx.checked(3, [2, 0, 1])  # x^2+2 = (x+1)(x+2) mod 3
    with pytest.raises(ValueError):
        FieldCtx.checked(3, [1, 0, 1], ambient_d=3)  # 2 does not divide 3
    with pytest.raises(ValueError):
        FieldCtx.checked(5, [2])  # degree 0


def test_field_ctx_builds_its_ring_exactly_above_degree_one():
    # the constructor builds the packed ring for degree > 1 and none in
    # degree 1, which works on the residue; checked contexts and those of
    # census classes alike
    from macbeath.census import map_census

    for p in (2, 3, 13, 499):
        for e in range(1, 7):
            modulus = find_irreducible(p, e)
            for ctx in (FieldCtx(p, modulus, e), FieldCtx.checked(p, modulus),
                        FieldCtx.checked(p, modulus, ambient_d=2 * e)):
                assert ctx.degree == e and (ctx.ring is None) == (e == 1), (p, e)
                if e > 1:
                    assert (ctx.ring.p, ctx.ring.d) == (p, e)
                    assert ctx.gen() == 1 << ctx.ring.w
    seen = set()
    for m, n, p in ((3, 7, 13), (3, 7, 5), (3, 8, 7), (4, 9, 19), (6, 13, 5)):
        for c in map_census(m, n, p).classes:
            assert (c.field.ring is None) == (c.e == 1), (m, n, p)
            seen.add(c.e)
    assert {1, 2, 3} <= seen
    with pytest.raises(TypeError):
        FieldCtx(13, (0, 1))  # the modulus alone is FieldCtx.checked's call


def test_factor_list_field_reuses_seeds_or_builds_a_ring(monkeypatch):
    # the whole reduction's field is the list's own ring; any other factor
    # of degree > 1 gets a new ring seeded with (x^p mod f) mod factor, and
    # no x^p of its own; a list without a ring gives a new ring, unseeded
    powers = []
    power = gf._PackedModulus.pow

    def counted(ring, a, exp):
        if exp >= ring.p:
            powers.append(exp)
        return power(ring, a, exp)

    rng = random.Random(30)
    seen = set()
    for p in (2, 3, 13, 499, 65521):
        for degrees in ((3,), (2, 2), (1, 3, 4), (5, 1)):
            factors = [random_irreducible(p, e, rng) for e in degrees]
            product = [1]
            for g in factors:
                product = gf._mul(product, list(g), p)
            factored = reduce_and_factor(IntPoly(product), p)
            if not factored.squarefree:
                continue  # two equal draws
            with monkeypatch.context() as patch:
                patch.setattr(gf._PackedModulus, "pow", counted)
                powers.clear()
                fields = [(g, factored.field(g, 12)) for g, _ in factored.factors]
            assert powers == [], (p, degrees)
            for g, ctx in fields:
                e = len(g) - 1
                assert (ctx.p, ctx.modulus, ctx.degree, ctx.ambient_d) == (p, g, e, 12)
                if e == 1:
                    assert ctx.ring is None and len(degrees) > 1
                    continue
                fresh = gf._PackedModulus(list(g), p)
                assert ctx.ring == fresh and ctx.ring._frobenius[:2] == [1, fresh.x_power_p()]
                assert (ctx.ring is factored.ring) == (len(degrees) == 1), (p, degrees)
                seen.add(len(degrees) == 1)
    assert seen == {True, False}
    # a non-squarefree reduction holds no ring: (x^2 + 1)^2 mod 3
    factored = reduce_and_factor(IntPoly([1, 0, 2, 0, 1]), 3)
    assert factored.ring is None and factored.factors == (((1, 0, 1), 2),)
    ctx = factored.field((1, 0, 1), 2)
    assert ctx.ring == gf._PackedModulus([1, 0, 1], 3) and ctx.ring._frobenius is None
    assert ctx.coeffs(ctx.mul(ctx.gen(), ctx.gen())) == (2,)


def test_chi_and_sqrt_reject_what_is_not_a_reduced_value_of_their_field():
    # a value is a bare int, its field named at each call: chi and
    # sqrt_in_field check that it is a reduced residue of that field, not
    # negative, no bits above its d slots, every slot below p
    from macbeath import census

    f5, f7 = FieldCtx.checked(5, [0, 1]), FieldCtx.checked(7, [0, 1])
    f13_3 = FieldCtx.checked(13, find_irreducible(13, 3))
    w = f13_3.ring.w
    # s = x of a class of F_9 (type {3, 8} mod 3), in the quadratic extension
    # F_81 that holds its trace: a wider slot, so x's coefficient lands in slot 0
    cls = census.map_census(3, 8, 3, traces=False).classes[0]
    f81 = FieldCtx(3, census._trace_field_modulus(cls.factor, 3), cls.field.ambient_d)
    assert (cls.e, f81.degree, cls.field.coeffs(cls.s)) == (2, 4, (0, 1))
    bad = [(f5, f7.value(6)),                  # F_7's 6 in F_5
           (f13_3, f13_3.ring.pack([1, 13])),  # a slot equal to p
           (f13_3, (13 << w) - 1),             # a slot with every bit set
           (f5, -1), (f13_3, -1),              # negative
           (f13_3, 1 << 3 * w),                # a fourth slot in degree 3
           (f81, cls.s)]
    for field, v in bad:
        for fn in (chi, sqrt_in_field):
            with pytest.raises(ValueError, match="not a reduced value"):
                fn(field, v)
    # every value of the field passes, and a constant of F_p is one in each
    # field of characteristic p: a bare int cannot always show its field
    assert chi(f5, 4) == 1 and sqrt_in_field(f5, 4) in (2, 3)
    assert chi(f13_3, f13_3.ring.pack([12, 12, 12])) in (1, -1)
    assert chi(f81, 2) == chi(cls.field, 2) == chi(f7, 2) == 1


def test_find_irreducible():
    g = find_irreducible(2, 8)
    assert is_irreducible(list(g), 2)
    assert len(g) == 9
    assert find_irreducible(13, 1) == (0, 1)


def gauss_count(p, e):
    """The number of monic irreducibles of degree e over F_p."""
    return sum(moebius(e // d) * p**d for d in divisors(e)) // e


def test_is_irreducible_accepts_exactly_gauss_count():
    for p, top in ((2, 8), (3, 6)):
        for e in range(1, top + 1):
            accepted = sum(is_irreducible(list(tail) + [1], p)
                           for tail in itertools.product(range(p), repeat=e))
            assert accepted == gauss_count(p, e), (p, e)
    # squarefree of degree 6 with every factor degree dividing 6, so that
    # x^(p^6) = x holds and only a gcd step rejects it: x(x^2+x+1)(x^3+x+1)
    # over F_2, and over F_3 the three monic irreducible quadratics, which
    # only the gcd with x^(3^2) - x finds
    for p, factors in ((2, ([0, 1], [1, 1, 1], [1, 1, 0, 1])),
                       (3, ([1, 0, 1], [2, 1, 1], [2, 2, 1]))):
        g = [1]
        for h in factors:
            g = gf._mul(g, h, p)
        assert packed_pow_mod([0, 1], p**6, g, p) == [0, 1]
        assert not is_irreducible(g, p)


def test_characteristic_two_split_gives_back_its_factors(monkeypatch):
    # the trace-map equal-degree split, with a ring of its own and with the
    # top-level ring of a full factorization; every trace sum a^(2^i), i < d,
    # it takes a gcd with is 0 or 1 mod each degree-d factor of the cofactor
    rng = random.Random(43)
    real_gcd = gf._gcd
    traces = []

    def recording_gcd(a, b, p):
        traces.append((list(a), list(b)))
        return real_gcd(a, b, p)

    for d in range(2, 7):  # F_2 has one irreducible quadratic: d = 2 has no product
        for count in range(2, min(4, gauss_count(2, d)) + 1):
            factors = set()
            while len(factors) < count:
                factors.add(random_irreducible(2, d, rng))
            f = [1]
            for g in factors:
                f = gf._mul(f, list(g), 2)
            expected = sorted(factors)
            traces.clear()
            with monkeypatch.context() as patch:
                patch.setattr(gf, "_gcd", recording_gcd)
                got = gf._edf(f, d, 2, random.Random(d))
            assert sorted(map(tuple, got)) == expected
            assert traces
            for t, cofactor in traces:
                for g in factors:
                    if not gf._rem(cofactor, list(g), 2):
                        assert gf._rem(t, list(g), 2) in ([], [1]), (d, t, g)
            fl = reduce_and_factor(IntPoly(f), 2)
            assert [g for g, _ in fl.factors] == expected, (d, count)


# ---------------------------------------------------------------------------
# the packed F_p[x]/(f) kernel against schoolbook arithmetic and sympy

try:
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_pow_mod
except ImportError:  # sympy is a test-only reference
    gf_pow_mod = None

P63 = 2**63 - 25  # the largest prime below 2^63
P64 = 2**64 - 59  # the largest prime below 2^64, the CLI's limit


def schoolbook_pow_mod(base, exp, mod, p):
    result = [1]
    base = gf._rem(base, mod, p)
    while exp:
        if exp & 1:
            result = gf._rem(gf._mul(result, base, p), mod, p)
        base = gf._rem(gf._mul(base, base, p), mod, p)
        exp >>= 1
    return result


def packed_pow_mod(base, exp, mod, p):
    """base**exp mod `mod` by the packed kernel, as coefficient lists."""
    ring = gf._PackedModulus(mod, p)
    base = [c % p for c in gf._rem(base, mod, p)]
    return ring.unpack(ring.pow(ring.pack(base), exp))


def sympy_pow_mod(base, exp, mod, p):
    out = gf_pow_mod(base[::-1], exp, mod[::-1], p, ZZ)
    return [int(c) % p for c in out[::-1]]


def kernel_cases():
    rng = random.Random(23)
    cases = []
    for p in (2, 3, 5, 101, 65521, P63, P64):
        for d in (1, 2, 3, 7, 18):
            mod = [rng.randrange(p) for _ in range(d)] + [1]
            for exp in (0, 1, 2, 3, p, p**2 - 1, rng.randrange(1, 1 << 80)):
                # a base shorter than, as long as and longer than the modulus
                for length in (1, d, 2 * d + 3):
                    base = gf._trim([rng.randrange(p) for _ in range(length)])
                    cases.append((base, exp, mod, p))
            cases.append(([0, 1], p**d, mod, p))  # the x-power path
    return cases


def test_packed_pow_mod_matches_schoolbook():
    for base, exp, mod, p in kernel_cases():
        assert packed_pow_mod(base, exp, mod, p) == schoolbook_pow_mod(base, exp, mod, p), \
            (base, exp, mod, p)


def test_packed_pow_mod_matches_sympy():
    if gf_pow_mod is None:
        pytest.skip("sympy is not installed")
    for base, exp, mod, p in kernel_cases():
        assert packed_pow_mod(base, exp, mod, p) == sympy_pow_mod(base, exp, mod, p), \
            (base, exp, mod, p)


def test_packed_pow_mod_edge_values():
    assert packed_pow_mod([5], 0, [3, 1], 7) == [1]
    assert packed_pow_mod([0, 1], 0, [3, 0, 1], 7) == [1]
    # a non-monic modulus gives the remainder mod its monic multiple
    assert packed_pow_mod([0, 1], 9, [6, 0, 2], 7) == packed_pow_mod([0, 1], 9, [3, 0, 1], 7)
    with pytest.raises(ValueError):
        packed_pow_mod([1], 3, [4], 7)


def loop_reduce(ring, mod, prod):
    """The per-slot reduction the Barrett steps replaced, as the reference:
    each top slot mod p, times the row x^(d+i) mod f, added into the low
    slots, then each low slot mod p."""
    p, d, w, mask = ring.p, ring.d, ring.w, ring.mask
    f = gf._monic(mod, p)
    acc = [(prod >> j * w) & mask for j in range(d)]
    row = [-c % p for c in f[:-1]]  # x^d mod f
    for i in range(d):
        c = ((prod >> (d + i) * w) & mask) % p
        acc = [a + c * r for a, r in zip(acc, row)]
        top, row = row[-1], [0] + row[:-1]
        row = [(a - top * b) % p for a, b in zip(row, f)]
    return ring.pack([a % p for a in acc])


def test_barrett_steps_at_the_largest_slot_content():
    # every slot at the documented bound d*p^2 - 1, and the largest product
    # of two residues (all coefficients p - 1), plain and shifted by x
    rng = random.Random(53)
    for p in (2, 3, 65521, P64):
        for d in (1, 2, 3, 9, 18):
            mod = [rng.randrange(p) for _ in range(d)] + [1]
            ring = gf._PackedModulus(mod, p)
            top = d * p * p - 1
            full = ring.pack([top] * (2 * d))
            assert ring.normalize(full) == ring.pack([top % p] * (2 * d)), (p, d)
            assert ring.unpack(ring.reduce(full)) == gf._rem([top % p] * (2 * d), mod, p)
            assert ring.reduce(full) == loop_reduce(ring, mod, full), (p, d)
            for a in ([p - 1] * d, [rng.randrange(p) for _ in range(d)]):
                a = gf._trim(a)
                for shift in (0, 1):
                    prod = (ring.pack(a) ** 2) << shift * ring.w
                    expected = gf._rem(gf._mul([0] * shift + a, a, p), mod, p)
                    assert ring.unpack(ring.reduce(prod)) == expected, (p, d, shift)
                    assert ring.reduce(prod) == loop_reduce(ring, mod, prod), (p, d, shift)
            for _ in range(20):
                slots = [rng.randrange(top + 1) for _ in range(2 * d)]
                acc = ring.pack(slots)
                assert ring.normalize(acc) == ring.pack([v % p for v in slots])
                assert ring.reduce(acc) == loop_reduce(ring, mod, acc), (p, d, slots)


def test_frobenius_is_identity_after_e_steps():
    # x^(p^e) = x in F_p[x]/(g) for g irreducible of degree e
    for p, e in ((2, 1), (2, 18), (3, 1), (3, 18), (P63, 1), (P63, 2), (P63, 3)):
        g = list(find_irreducible(p, e))
        x = gf._rem([0, 1], g, p)
        assert packed_pow_mod([0, 1], p**e, g, p) == x
        if e > 1:
            assert packed_pow_mod([0, 1], p, g, p) != x


def test_packed_field_mul_matches_schoolbook():
    rng = random.Random(29)
    for p, e in ((2, 1), (2, 18), (3, 5), (13, 18), (499, 4), (P63, 1), (P63, 3)):
        ctx = FieldCtx(p, find_irreducible(p, e), e)
        mod = list(ctx.modulus)
        for _ in range(30):
            a = ctx.value([rng.randrange(p) for _ in range(e)])
            b = ctx.value([rng.randrange(p) for _ in range(e)])
            expected = gf._rem(gf._mul(list(ctx.coeffs(a)), list(ctx.coeffs(b)), p), mod, p)
            assert list(ctx.coeffs(ctx.mul(a, b))) == expected
            assert ctx.coeffs(ctx.pow(a, 3)) == ctx.coeffs(ctx.mul(ctx.mul(a, a), a))


def test_constant_factor_products_match_the_generic_reduction(monkeypatch):
    # a factor c of F_p (v = c < p) scales each slot and takes one step mod p,
    # no reduction mod f: in both orders, with zero on either side, it must
    # equal the reduction of the product (degree 1: the residue mod p); a
    # product needs no field
    reduced = []
    reduce = gf._PackedModulus.reduce
    monkeypatch.setattr(gf._PackedModulus, "reduce",
                        lambda ring, prod: reduced.append(prod) or reduce(ring, prod))
    rng = random.Random(24)
    for p in (2, 3, 499, 65521, P64):
        for e in range(1, 19):
            ctx = FieldCtx(p, tuple(rng.randrange(p) for _ in range(e)) + (1,), e)
            elems = [ctx.value(0), ctx.value(1), ctx.value(p - 1)]
            elems += [ctx.value([rng.randrange(p) for _ in range(e)]) for _ in range(4)]
            for c in (ctx.value(0), ctx.value(1), ctx.value(p - 1), ctx.value(rng.randrange(p))):
                for a in elems:
                    expected = c * a % p if e == 1 else reduce(ctx.ring, c * a)
                    reduced.clear()
                    assert ctx.mul(c, a) == ctx.mul(a, c) == expected, (p, e, c, a)
                    assert reduced == [], (p, e, c, a)


def test_fused_product_matches_two_reductions_and_list_arithmetic(monkeypatch):
    # a*b + c*d reduced once, as reduce(normalize(a*b) + c*d): the sum's slots
    # stay below p - 1 + e(p-1)^2 < e*p^2, the kernel's input bound (checked
    # on every call), reached with p - 1 in every slot.  When each product
    # has a constant factor, one normalize(a*b + c*d), its input below 2p^2
    # <= e*p^2 (checked on every call too).  Equal to two reductions and to
    # the product on coefficient lists; in degree 1, to the residue mod p
    reduce, normalize = gf._PackedModulus.reduce, gf._PackedModulus.normalize
    inputs = []

    def bounded_reduce(ring, prod):
        assert max(slots(ring, prod)) < ring.d * ring.p ** 2, (ring.p, ring.d)
        inputs.append(("reduce", prod))
        return reduce(ring, prod)

    def bounded_normalize(ring, acc):
        assert max(slots(ring, acc)) < ring.d * ring.p ** 2, (ring.p, ring.d)
        inputs.append(("normalize", acc))
        return normalize(ring, acc)

    monkeypatch.setattr(gf._PackedModulus, "reduce", bounded_reduce)
    monkeypatch.setattr(gf._PackedModulus, "normalize", bounded_normalize)
    rng = random.Random(61)
    for p in (3, 499, 65521, 2**61 - 1, P64):
        for e in range(1, 19):
            mod = [rng.randrange(p) for _ in range(e)] + [1]
            ctx = FieldCtx(p, tuple(mod), e)
            top = [p - 1] * e
            residues = [top, [p - 1], [0] * (e - 1) + [p - 1], [0]]
            residues += [[rng.randrange(p) for _ in range(e)] for _ in range(4)]
            values = [(gf._trim(list(a)), ctx.value(a)) for a in residues]
            for (a, va), (b, vb), (c, vc), (d, vd) in [
                    [values[0]] * 4, *(rng.sample(values, 4) for _ in range(12))]:
                fused = ctx.dot(va, vb, vc, vd)
                if e == 1:
                    assert fused == (va * vb + vc * vd) % p, (p, a, b, c, d)
                    continue
                ring = ctx.ring
                inner = ring.normalize(va * vb) + vc * vd
                assert max(slots(ring, inner)) < e * p * p, (p, e)
                two = ring.normalize(ring.reduce(va * vb) + ring.reduce(vc * vd))
                ab, cd = gf._mul(a, b, p), gf._mul(c, d, p)
                total = [(x + y) % p for x, y in itertools.zip_longest(ab, cd, fillvalue=0)]
                assert fused == two == ring.pack(gf._rem(total, mod, p)), (p, e, a, b, c, d)
            if e > 1:  # the bound is met: slot e - 1 of top * top is e(p-1)^2
                top_v = ctx.ring.pack(top)
                inner = ctx.ring.normalize(top_v * top_v) + top_v * top_v
                assert max(slots(ctx.ring, inner)) >= e * (p - 1) ** 2, (p, e)
                # constants p - 1 against p - 1 in every slot: the one normalize
                # takes 2(p-1)^2 in every slot, and no reduce runs
                c = ctx.value(p - 1)
                expected = ctx.ring.pack(gf._rem(gf._mul([2 * (p - 1) % p], top, p), mod, p))
                for args in ((c, top_v, c, top_v), (top_v, c, c, top_v), (top_v, c, top_v, c)):
                    inputs.clear()
                    assert ctx.dot(*args) == expected, (p, e, args)
                    assert [(kind, max(slots(ctx.ring, v))) for kind, v in inputs] == [
                        ("normalize", 2 * (p - 1) ** 2)], (p, e, args)


def test_linear_norm_closed_form_matches_the_euclidean_resultant(monkeypatch):
    # N(c0 + c1 x) = (-c1)^e f(-c0/c1), one Horner pass over the monic f with
    # no remainder taken, equals the Euclidean resultant every other element
    # takes (f need not be irreducible for that); a root of f at -c0/c1
    # makes both vanish, which an unchecked context on a reducible f raises
    rems = []
    rem = gf._rem
    monkeypatch.setattr(gf, "_rem", lambda a, b, p: rems.append(1) or rem(a, b, p))
    rng = random.Random(29)
    vanished = 0
    for p in (3, 5, 499, 65521, 2**61 - 1, P64):
        for e in range(2, 19):
            mod = tuple(rng.randrange(p) for _ in range(e)) + (1,)
            ctx = FieldCtx(p, mod, e)
            for c0 in (0, 1, p - 1, rng.randrange(p)):
                for c1 in (1, p - 1, rng.randrange(1, p)):
                    a = ctx.value([c0, c1])
                    rems.clear()
                    try:
                        expected = gf._norm(ctx, a, resultant=True)
                    except IntegrityError:
                        with pytest.raises(IntegrityError, match="vanished"):
                            gf._norm(ctx, a)
                        continue
                    assert rems, (p, e)
                    rems.clear()
                    assert gf._norm(ctx, a) == expected and rems == [], (p, e, c0, c1)
            # (x - r) g for a monic g of degree e - 1, r = -c0/c1
            c0, c1 = rng.randrange(p), rng.randrange(1, p)
            r = -c0 * pow(c1, -1, p) % p
            g = [rng.randrange(p) for _ in range(e - 1)] + [1]
            reducible = FieldCtx(p, tuple(gf._mul([-r % p, 1], g, p)), e)
            for resultant in (False, True):
                with pytest.raises(IntegrityError, match="norm of a nonzero field element vanished"):
                    gf._norm(reducible, reducible.value([c0, c1]), resultant)
                vanished += 1
    assert vanished == 2 * 6 * 17


def slots(ring, acc):
    """The 2d slots of a packed accumulator, untrimmed."""
    return [acc >> j * ring.w & ring.mask for j in range(2 * ring.d)]


def test_degree_pattern_matches_sympy_factor_degrees():
    # the distinct-degree split, with its packed Frobenius map and the rows
    # carried over to each cofactor, against an independent factorization
    if gf_pow_mod is None:
        pytest.skip("sympy is not installed")
    rng = random.Random(31)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 101, 65521, P63])
        deg = rng.randrange(1, 13)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        _, factors = gf_factor(f[::-1], p, ZZ)
        expected = sorted(d for g, m in factors for d in [len(g) - 1] * m)
        assert list(degree_pattern(IntPoly(f), p)) == expected, (f, p)


# ---------------------------------------------------------------------------
# the half-degree pattern kernel for f = g(x^2) against the generic route


def generic_pattern(f, p):
    """Squarefree decomposition plus distinct-degree split, whatever the input."""
    monic = gf._monic(gf.reduce_polynomial(f, p), p)
    return tuple(sorted(d for g, mult in gf._sqf_list(monic, p)
                        for h, d in gf._ddf(g, p)
                        for _ in range((len(h) - 1) // d * mult)))


def even_lift(g):
    """g(x^2) over Z, for g a coefficient list."""
    return IntPoly([c for b in g for c in (b, 0)][:-1])


@pytest.fixture
def kernel_calls(monkeypatch):
    """The primes on which degree_pattern took the half-degree kernel."""
    calls = []
    real = gf._half_degree_pattern

    def counted(g, p, series=None):
        calls.append(p)
        return real(g, p, series)

    monkeypatch.setattr(gf, "_half_degree_pattern", counted)
    return calls


def test_half_degree_kernel_matches_generic_route(kernel_calls):
    # the kernel runs exactly on the odd primes that keep f2 squarefree, and
    # the generic route, which never sees it, is the reference on each
    for m, bound in ((3, 2000), (4, 1000), (6, 1000)):
        primes = primes_upto(bound)
        for n in range(7, 31):
            f2 = doubled(s_polynomial(m, n))
            disc = discriminant(f2)
            kernel_calls.clear()
            for p in primes:
                assert degree_pattern(f2, p) == generic_pattern(f2, p), (m, n, p)
            assert kernel_calls == [p for p in primes if p > 2 and disc % p], (m, n)


def test_half_degree_kernel_on_random_even_inputs(kernel_calls):
    rng = random.Random(37)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 101, 65521, P63])
        r = rng.randrange(1, 9)
        g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(r - 1)] + [1]
        f = even_lift(g)
        assert degree_pattern(f, p) == generic_pattern(f, p), (g, p)
    assert len(kernel_calls) > 250  # a random g is squarefree almost always


def test_half_degree_kernel_fallbacks(kernel_calls):
    x = IntPoly([0, 1])
    cases = [
        (F2_37, 2),                                       # p = 2
        (F2_37, 7),                                       # p | disc f2: triple root
        (x * x * (x * x - IntPoly([1])) * (x * x - IntPoly([3])), 11),  # g(0) = 0
        (IntPoly([1, 1, 0, 1]), 13),                      # odd in x
        (IntPoly([3, 0, 2, 0, 1]) * IntPoly([3, 0, 2, 0, 1]), 5),  # g a square
        (IntPoly([2, 0, 1]) * IntPoly([-1, 0, 1]), 3),    # g = (y - 1)^2 mod 3
    ]
    for f, p in cases:
        assert degree_pattern(f, p) == factor_pattern(reduce_and_factor(f, p)), (f, p)
    assert kernel_calls == []


def test_half_degree_kernel_matches_sympy_on_f2(kernel_calls):
    if gf_pow_mod is None:
        pytest.skip("sympy is not installed")
    for n in (7, 11, 13, 20, 29):
        f2 = doubled(s_polynomial(3, n))
        coeffs = [int(c) for c in f2.coeffs[::-1]]
        for p in (3, 13, 43, 97, 1009, 9871, 65521):
            kernel_calls.clear()
            pattern = degree_pattern(f2, p)
            _, factors = gf_factor([c % p for c in coeffs], p, ZZ)
            expected = tuple(sorted(d for g, m in factors for d in [len(g) - 1] * m))
            assert pattern == expected, (n, p)
            assert kernel_calls or discriminant(f2) % p == 0, (n, p)


def test_half_degree_kernel_reads_no_character(kernel_calls, monkeypatch):
    # the pattern census compares the linear factors of f2 with the census
    # k, which rests on chi and the Lucas ladder: the kernel must use neither
    from macbeath import census, numkit

    def forbidden(*args, **kwargs):
        raise AssertionError("the pattern kernel reached the census routes")

    for module, name in ((gf, "chi"), (gf, "_euler_sign"), (gf, "_norm"),
                         (gf, "sqrt_in_field"), (numkit, "lucas_v"),
                         (census, "lucas_v"), (census, "map_census")):
        monkeypatch.setattr(module, name, forbidden)
    f2 = doubled(s_polynomial(3, 7))
    for p in primes_upto(3000)[1:]:
        degree_pattern(f2, p)
    assert len(kernel_calls) == len(primes_upto(3000)) - 2  # all but 2 and 7


def test_half_degree_kernel_selection_rule(kernel_calls):
    # the kernel needs g squarefree mod p (p not dividing disc g), g(0) != 0
    # and f even over Z; on every other input the generic route answers
    bad = {"disc g": 0, "g(0)": 0}
    for m, n in ((m, n) for m in (3, 4, 6) for n in range(7, 20)):
        f1 = s_polynomial(m, n)
        f2 = doubled(f1)
        disc_g, g0 = discriminant(f1), f1.coeffs[0]
        for p in primes_upto(1000)[1:]:
            kernel_calls.clear()
            assert degree_pattern(f2, p) == generic_pattern(f2, p), (m, n, p)
            assert kernel_calls == ([] if disc_g % p == 0 or g0 % p == 0 else [p]), (m, n, p)
            bad["disc g"] += disc_g % p == 0
            bad["g(0)"] += g0 % p == 0
        for p in primes_upto(40)[1:]:
            # even mod p but not over Z
            for odd in (IntPoly([0, p]), IntPoly([0, 0, 0, -p])):
                kernel_calls.clear()
                f = f2 + odd
                assert degree_pattern(f, p) == generic_pattern(f, p), (m, n, p)
                assert kernel_calls == [], (m, n, p)
    assert bad == {"disc g": 36, "g(0)": 4}
    x2 = IntPoly([0, 0, 1])
    for p in (3, 5, 13, 101):
        # g(0) = 0 with g squarefree over Z: x^2 (x^2 - 1)(x^2 - 3) + p x^2
        f = x2 * (x2 - IntPoly([1])) * (x2 - IntPoly([3])) + x2 * p
        kernel_calls.clear()
        assert degree_pattern(f, p) == generic_pattern(f, p), p
        assert kernel_calls == []


def test_ddf_and_half_degree_kernel_leave_their_input_unchanged():
    # the kernel's Euclid consumes each distinct-degree group in place, so no
    # group may be the caller's list; g = f1 mod 11 (n = 7) stays one group
    g = gf._monic(gf.reduce_polynomial(s_polynomial(3, 7), 11), 11)
    assert g == [1, 3, 7, 1]
    pattern = gf._half_degree_pattern(g, 11)
    assert g == [1, 3, 7, 1]
    assert gf._half_degree_pattern(g, 11) == pattern
    for h, p in (([1, 3, 7, 1], 5), ([4, 1], 5), (list(g), 11)):
        before = list(h)
        groups = gf._ddf(h, p)
        assert all(group is not h for group, _ in groups)
        for group, _ in groups:
            group.clear()
        assert h == before, (h, p)


def _long_division_rem(a, b, p):
    """a mod b by schoolbook long division: the leading term of a cancelled
    by a multiple of b, one degree at a time."""
    a = gf._trim([c % p for c in a])
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c, shift = a[-1] * inv % p, len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        gf._trim(a)
    return a


def _long_division_gcd(a, b, p):
    a, b = gf._trim([c % p for c in a]), list(b)
    while b:
        a, b = b, _long_division_rem(a, b, p)
    return [c * pow(a[-1], -1, p) % p for c in a]


@pytest.mark.parametrize("p", [2, 3, 13, 10007])
def test_remainder_loop_matches_long_division(p):
    # _rem, _gcd and _gcd_degree share one remainder loop: each against long
    # division, by a constant divisor and by a sparse one shaped like
    # census._trace_field_modulus (every odd coefficient zero)
    rng = random.Random(p)
    for _ in range(300):
        a = gf._trim([rng.randrange(p) for _ in range(rng.randrange(14))])
        half = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, p)]
        sparse = [c for h in half for c in (h, 0)][:-1]
        for b in ([rng.randrange(1, p)], sparse):
            before = list(a)
            assert gf._rem(a, b, p) == _long_division_rem(a, b, p), (a, b, p)
            gcd = _long_division_gcd(a, b, p)
            assert gf._gcd(a, b, p) == gcd, (a, b, p)
            assert gf._gcd_degree(list(a), list(b), p) == len(gcd) - 1, (a, b, p)
            assert a == before


@pytest.fixture
def euclid_calls(monkeypatch):
    """Names of the Euclid routines called, in order."""
    calls = []
    for name in ("_gcd", "_gcd_degree"):
        real = getattr(gf, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(gf, name, counted)
    return calls


@pytest.fixture
def frobenius_maps(monkeypatch):
    """A one-element list: the number of packed Frobenius maps applied."""
    count = [0]
    real = gf._PackedModulus.frobenius_map

    def counted(self, h, rows):
        count[0] += 1
        return real(self, h, rows)

    monkeypatch.setattr(gf._PackedModulus, "frobenius_map", counted)
    return count


def test_half_degree_kernel_euclid_count(kernel_calls, euclid_calls, frobenius_maps):
    # f1 for n = 11 is irreducible of degree 5 mod 3: the distinct-degree
    # split proves it with one Frobenius map and one gcd, and the square count
    # of its one factor is the character of its norm, with no a_i step.  Mod
    # 23 it splits: x^p = x ends the distinct-degree split with no map, and
    # the square count of the five linear factors is one gcd on a_1
    f1, f2 = s_polynomial(3, 11), doubled(s_polynomial(3, 11))
    for p, factors, maps in ((3, (5,), 1), (23, (1,) * 5, 0)):
        assert factor_pattern(reduce_and_factor(f1, p)) == factors
        pattern = factor_pattern(reduce_and_factor(f2, p))
        kernel_calls.clear()
        euclid_calls.clear()
        frobenius_maps[0] = 0
        assert degree_pattern(f2, p) == pattern
        assert kernel_calls == [p]
        assert euclid_calls == ["_gcd_degree"], p
        assert frobenius_maps[0] == maps, p


def test_half_degree_kernel_norm_rule(kernel_calls):
    # an irreducible h of degree e >= 2: h(x^2) is two factors of degree e
    # iff the norm (-1)^e h(0) of a root of h is a square mod p, else one of
    # degree 2e.  The sign matters for odd e when p = 3 mod 4
    rng = random.Random(73)
    seen = set()
    for p in (3, 5, 7, 101, 65521, P64):
        for e in range(2, 10):
            for _ in range(4):
                h = random_irreducible(p, e, rng)
                f = even_lift(h)
                expected = generic_pattern(f, p)
                assert degree_pattern(f, p) == expected, (h, p)
                square = pow((-1) ** e * h[0], (p - 1) // 2, p) == 1
                assert expected == ((e, e) if square else (2 * e,)), (h, p)
                seen.add((p % 4, e % 2, square))
    assert len(kernel_calls) == 6 * 8 * 4
    assert seen == {(r, e, square) for r in (1, 3) for e in (0, 1) for square in (False, True)}


def test_half_degree_kernel_linear_class_takes_the_gcd(kernel_calls, euclid_calls,
                                                       frobenius_maps):
    # g = (y - c) h with h irreducible of degree e >= 2: the class of h reads
    # its norm with no a_i step, and the linear class still takes one gcd on
    # a_1, so every linear factor of g(x^2) comes from a_1 alone
    rng = random.Random(71)
    seen = set()
    for p in (3, 5, 7, 101, 65521):
        for e in range(2, 6):
            for _ in range(4):
                c = rng.randrange(1, p)
                h = list(random_irreducible(p, e, rng))
                g = gf._mul([-c % p, 1], h, p)
                f = even_lift(g)
                expected = generic_pattern(f, p)
                euclid_calls.clear()
                frobenius_maps[0] = 0
                gf._ddf(g, p)
                ddf_calls, ddf_maps = list(euclid_calls), frobenius_maps[0]
                kernel_calls.clear()
                euclid_calls.clear()
                frobenius_maps[0] = 0
                assert degree_pattern(f, p) == expected, (g, p)
                assert kernel_calls == [p]
                assert euclid_calls == ddf_calls + ["_gcd_degree"], (g, p)
                assert frobenius_maps[0] == ddf_maps, (g, p)
                seen.add((pow(c, (p - 1) // 2, p) == 1,
                          pow((-1) ** e * h[0], (p - 1) // 2, p) == 1))
    assert seen == {(a, b) for a in (False, True) for b in (False, True)}


def loop_ddf(f, p):
    """The distinct-degree split as one gcd per degree, with no early exit:
    the reference."""
    if len(f) <= 2:
        return [(list(f), 1)] if len(f) == 2 else []
    out = []
    ring = gf._PackedModulus(f, p)
    rows = ring.frobenius()
    h = rows[1]
    i = 1
    while True:
        g = gf._gcd(gf._sub(ring.unpack(h), [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, i))
            f = gf._quo(f, g, p)
        i += 1
        if 2 * i > len(f) - 1:
            break
        h = ring.frobenius_map(h, rows)
    if len(f) > 1:
        out.append((list(f), len(f) - 1))
    return out


def squarefree_product(p, degrees, rng):
    """A product of distinct random monic irreducibles of the given degrees,
    or None when F_p has too few of some degree."""
    factors = set()
    for e in sorted(set(degrees)):
        k = degrees.count(e)
        if gauss_count(p, e) < k:
            return None
        chosen = set()
        while len(chosen) < k:
            chosen.add(random_irreducible(p, e, rng))
        factors |= chosen
    f = [1]
    for g in sorted(factors):
        f = gf._mul(f, list(g), p)
    return f


def test_ddf_exits_match_the_gcd_loop(euclid_calls):
    # x^p = x ends a fully split f with no gcd, one gcd proves f irreducible,
    # x^(p^e) = x ends an equal-degree f after one gcd per proper divisor of
    # e, and on mixed degrees that reach no exit the gcd loop runs as in the
    # reference
    rng = random.Random(59)
    seen = set()
    for p in (2, 3, 5, 101, 65521, P64):
        for d in range(1, 19):
            cases = [("irreducible", [d])]
            if d > 1:
                cases.append(("split", [1] * d))
            cases += [("equal", [e] * (d // e)) for e in range(2, d) if d % e == 0]
            for _ in range(20 if d > 2 else 0):
                parts = []
                while sum(parts) < d:
                    parts.append(rng.randrange(1, d - sum(parts) + 1))
                top = max(parts)
                if len(set(parts)) > 1 and not (all(top % e == 0 for e in parts)
                                                and parts.count(top) > 1):
                    cases.append(("mixed", sorted(parts)))
                    break
            for kind, degrees in cases:
                f = squarefree_product(p, degrees, rng)
                if f is None:
                    continue
                euclid_calls.clear()
                expected = loop_ddf(f, p)
                reference_calls = list(euclid_calls)
                euclid_calls.clear()
                assert gf._ddf(f, p) == expected, (p, d, kind, f)
                e = math.lcm(*degrees)  # the first i with x^(p^i) = x
                if d == 1 or kind == "split":
                    exit_calls = []
                elif kind == "irreducible":
                    exit_calls = ["_gcd_degree"]
                elif 2 * e <= d:  # one gcd per proper divisor of e
                    exit_calls = ["_gcd"] * sum(e % i == 0 for i in range(1, e))
                    kind += " at x^(p^e) = x"
                else:
                    exit_calls = ["_gcd_degree"] + reference_calls
                assert euclid_calls == exit_calls, (p, d, kind, f)
                seen.add(kind)
    assert seen == {"irreducible", "split", "equal at x^(p^e) = x", "mixed",
                    "mixed at x^(p^e) = x"}


def test_series_mu_matches_the_long_division():
    # MU = floor(x^(2d)/f), from the power series 1/rev(f), against _quo
    for mod, p in {(tuple(mod), p) for _, _, mod, p in kernel_cases()}:
        ring = gf._PackedModulus(list(mod), p)
        d = ring.d
        assert ring._mu == ring.pack(gf._quo([0] * (2 * d) + [1], list(mod), p)), (mod, p)


def fresh_layout(d, p):
    """(w, K, mask, low, quotient mask, p in each slot) of a ring of degree d
    mod p, slot by slot: the reference for the memoized layout."""
    v = (d * p * p).bit_length()
    k = v + p.bit_length()
    w = v + (-(-(1 << k) // p)).bit_length()
    slots = [j * w for j in range(2 * d)]
    return (w, k, (1 << w) - 1, (1 << d * w) - 1,
            sum(((1 << w - k) - 1) << s for s in slots), sum(p << s for s in slots[:d]))


def test_memoized_layout_matches_a_fresh_computation(monkeypatch):
    # the layout depends on p only through (w, K): the primes on either side
    # of a power of two can share d and w but not K, so a memo that ignored K
    # would hand the second the first one's quotient mask
    primes = [2, 3, 5, 499, 65521, 2**61 - 1, P64]
    below_above = [(max(q for q in primes_upto(1 << b) if q < 1 << b),
                    next(q for q in range((1 << b) + 1, 1 << b + 1) if is_prime(q)))
                   for b in range(3, 17)]
    monkeypatch.setattr(gf, "_LAYOUTS", {})
    shared = set()
    for d in range(1, 19):
        rings = [(p, gf._PackedModulus([1] * d + [1], p)) for p in primes]
        for low, high in below_above:
            if fresh_layout(d, low)[0] == fresh_layout(d, high)[0]:
                shared.add(d)
                rings += [(p, gf._PackedModulus([1] * d + [1], p)) for p in (low, high)]
        for p, ring in rings:
            assert (ring.w, ring._k, ring.mask, ring.low, ring._qm, ring._p_slots) \
                == fresh_layout(d, p), (d, p)
    assert len(shared) > 10


def test_integer_series_mu_matches_the_loop():
    # MU over Z, reduced mod p, against the loop mod p and the long division
    # for every census modulus g, up to p = 2^64 - 59
    for m in (3, 4, 6):
        for n in range(7, 61):
            g = s_polynomial(m, n)
            series = gf._half_modulus(doubled(g))[1]
            assert series == tuple(gf._series_mu(g.coeffs)), (m, n)
            for p in (3, 5, 13, 65521, P63, P64):
                mod = [c % p for c in g.coeffs]
                ring = gf._PackedModulus(mod, p, series)
                loop = gf._PackedModulus(mod, p)
                quotient = ring.pack(gf._quo([0] * (2 * ring.d) + [1], mod, p))
                assert ring._mu == loop._mu == quotient, (m, n, p)


def test_non_monic_modulus_takes_the_loop(monkeypatch, kernel_calls):
    # g with leading coefficient 2 or -1 over Z is monic only once reduced,
    # so its ring takes the series loop mod p
    series_given = []
    real = gf._PackedModulus.__init__

    def spy(self, f, p, series=None):
        series_given.append(series)
        real(self, f, p, series)

    monkeypatch.setattr(gf._PackedModulus, "__init__", spy)
    g = s_polynomial(3, 11)
    for lead in (2, -1):
        f = doubled(g * IntPoly([lead]))
        assert gf._half_modulus(f)[1] is None
        for p in (3, 13, 43, 101):
            series_given.clear()
            kernel_calls.clear()
            assert degree_pattern(f, p) == generic_pattern(f, p), (lead, p)
            assert kernel_calls == [p] and series_given[0] is None, (lead, p)
    series_given.clear()
    degree_pattern(doubled(g), 13)
    assert series_given == [gf._half_modulus(doubled(g))[1]]


def test_pattern_census_pays_per_prime_only_its_arithmetic(monkeypatch, kernel_calls):
    # one ring per kernel prime, the integer series computed once for the
    # type, and on n = 7 (deg g = 3, so no Frobenius map) no row past x^p
    from macbeath import density

    rings, series_over_z, rows_built = [0], [0], [0]
    ring_init, series_mu, frobenius = (gf._PackedModulus.__init__, gf._series_mu,
                                       gf._PackedModulus.frobenius)

    def counted_init(self, *args):
        rings[0] += 1
        ring_init(self, *args)

    def counted_series(f, p=0):
        series_over_z[0] += not p
        return series_mu(f, p)

    def counted_rows(self):
        rows_built[0] += 1
        return frobenius(self)

    counted_kernel = gf._half_degree_pattern

    def kernel_rings(g, p, series=None):
        before = rings[0]
        pattern = counted_kernel(g, p, series)
        assert rings[0] == before + 1, p
        return pattern

    monkeypatch.setattr(gf._PackedModulus, "__init__", counted_init)
    monkeypatch.setattr(gf, "_series_mu", counted_series)
    monkeypatch.setattr(gf._PackedModulus, "frobenius", counted_rows)
    monkeypatch.setattr(gf, "_half_degree_pattern", kernel_rings)
    gf._half_modulus.cache_clear()
    gf._integer_series.cache_clear()  # the series cache behind it
    try:
        census = density.pattern_census(3, 11, 3000, workers=1)
        assert series_over_z == [1]
        assert census.skipped == (2, 11) and census.total == len(kernel_calls)
        kernel_calls.clear()
        rows_built[0] = 0
        census = density.pattern_census(3, 7, 3000, workers=1)
        assert rows_built == [0] and census.total == len(kernel_calls) > 400
    finally:
        gf._half_modulus.cache_clear()
        gf._integer_series.cache_clear()


def test_half_degree_route_keeps_the_reduction_errors():
    # the route is chosen before f is reduced, and its errors are
    # reduce_polynomial's, in its order: a zero reduction, then a dead lead
    zero = r"^polynomial reduces to zero mod p$"
    lead = r"^leading coefficient vanishes mod p; normalize first$"
    for p in (3, 5, 13, 101):
        for f in (IntPoly(), IntPoly([p, 0, 2 * p]), IntPoly([p, 0, -p, 0, p])):
            with pytest.raises(ValueError, match=zero):
                degree_pattern(f, p)
        # g = p y^2 + y + 1: disc g = 1 - 4p and g(0) = 1 are units mod p;
        # the odd f beside it takes the generic route
        assert gf._half_modulus(IntPoly([1, 0, 1, 0, p]))[0] % p
        for f in (IntPoly([1, 0, 1, 0, p]), IntPoly([1, 0, 1, 0, 3 * p]),
                  IntPoly([1, 1, 1, 0, p])):
            with pytest.raises(ValueError, match=lead):
                degree_pattern(f, p)


def test_discriminant_computed_once_per_polynomial(monkeypatch):
    # the squarefree tests read disc g for the kernel and disc f for the
    # factorization; with f2 = f1(x^2) both are disc f1, computed once
    seen = []

    def spy(f):
        seen.append(f)
        return discriminant(f)

    monkeypatch.setattr(gf, "discriminant", spy)
    gf._discriminant.cache_clear()
    gf._half_modulus.cache_clear()
    try:
        f1 = s_polynomial(3, 13)
        for p in primes_upto(2000)[1:]:
            degree_pattern(doubled(f1), p)
            reduce_and_factor(f1, p)
        assert seen == [f1]
    finally:
        gf._discriminant.cache_clear()
        gf._half_modulus.cache_clear()


def test_one_packed_ring_for_the_top_level_split(monkeypatch):
    # f1 for n = 19 has three cubic factors mod 7 (d = 3): the distinct-degree
    # split finds one degree class, and its equal-degree split reuses the ring
    moduli = []
    real = gf._PackedModulus.__init__

    def counted(self, f, p, series=None):
        moduli.append(gf._monic(list(f), p))
        real(self, f, p, series)

    monkeypatch.setattr(gf._PackedModulus, "__init__", counted)
    f1 = s_polynomial(3, 19)
    fl = reduce_and_factor(f1, 7)
    assert fl.factors == (((3, 5, 4, 1), 1), ((3, 6, 1, 1), 1), ((4, 5, 6, 1), 1))
    assert moduli.count(gf._monic(gf.reduce_polynomial(f1, 7), 7)) == 1


def recursive_edf(f, d, p, rng):
    """The equal-degree split with a ring of its own per part, recursing on
    both halves of each split: the route before the one-ring split, the
    reference."""
    n = len(f) - 1
    if n == d:
        return [f]
    ring = gf._PackedModulus(f, p)
    while True:
        a = gf._trim([rng.randrange(p) for _ in range(n)])
        if len(a) <= (1 if p > 2 else 0):
            continue
        if p == 2:
            t = cur = ring.pack(a)
            for _ in range(d - 1):
                cur = ring.reduce(cur * cur)
                t ^= cur
            g = gf._gcd(ring.unpack(t), f, p)
        else:
            g = gf._gcd(a, f, p)
            if len(g) <= 1:
                b = ring.pow(ring.frobenius_sum_power(ring.pack(a), d), (p - 1) // 2)
                g = gf._gcd(gf._sub(ring.unpack(b), [1], p), f, p)
        if 1 < len(g) < len(f):
            return recursive_edf(g, d, p, rng) + recursive_edf(gf._quo(f, g, p), d, p, rng)


@pytest.fixture
def constructed(monkeypatch):
    """Counts of the packed rings built and the splitting PRNGs seeded."""
    counts = {"_PackedModulus": 0, "Random": 0}
    real_ring, real_random = gf._PackedModulus.__init__, random.Random.__init__

    def ring_init(self, *args):
        counts["_PackedModulus"] += 1
        real_ring(self, *args)

    def random_init(self, *args):
        counts["Random"] += 1
        real_random(self, *args)

    monkeypatch.setattr(gf._PackedModulus, "__init__", ring_init)
    monkeypatch.setattr(random.Random, "__init__", random_init)
    return counts


def test_one_ring_edf_matches_the_recursive_split(constructed):
    # k = 2..6 distinct irreducibles of degree d; the split handed the ring
    # of f builds no other, whatever the number of parts
    rng = random.Random(67)
    tried = 0
    for p in (2, 3, 101, 65521):
        for d in range(1, 7):
            for k in range(2, 7):
                f = squarefree_product(p, [d] * k, rng)
                if f is None:
                    continue
                expected = sorted(recursive_edf(f, d, p, random.Random(k)))
                ring = gf._PackedModulus(f, p)
                constructed["_PackedModulus"] = 0
                assert sorted(gf._edf(list(f), d, p, random.Random(k), ring)) == expected
                assert constructed["_PackedModulus"] == 0, (p, d, k)
                tried += 1
    assert tried == 98  # every (p, d, k) with k irreducibles of degree d


def test_irreducible_input_seeds_no_prng(constructed):
    # the PRNG is seeded only when a degree class holds more than one factor:
    # f1 for n = 19 is irreducible of degree 9 mod 2 and 3, and splits into
    # three cubics mod 7
    f1 = s_polynomial(3, 19)
    for p in (2, 3):
        constructed["Random"] = 0
        assert factor_pattern(reduce_and_factor(f1, p)) == (9,)
        assert constructed["Random"] == 0, p
    constructed["Random"] = 0
    assert factor_pattern(reduce_and_factor(f1, 7)) == (3, 3, 3)
    assert constructed["Random"] == 1


# ---------------------------------------------------------------------------
# packed field elements, the odd-degree norm root and the EDF exponent split

P61 = 2**61 - 1


def list_add(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return trim([(x + y) % p for x, y in zip(a, b)])


def list_neg(a, p):
    return trim([-x % p for x in a])


def list_mulmod(a, b, mod, p):
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    prod = [c % p for c in prod]
    inv = pow(mod[-1], -1, p)
    for top in range(len(prod) - 1, len(mod) - 2, -1):
        c = prod[top] * inv % p
        for j, m in enumerate(mod):
            prod[top - len(mod) + 1 + j] = (prod[top - len(mod) + 1 + j] - c * m) % p
    return trim(prod[:len(mod) - 1])


def list_powmod(a, exp, mod, p):
    result, base = [1], a
    while exp:
        if exp & 1:
            result = list_mulmod(result, base, mod, p)
        base = list_mulmod(base, base, mod, p)
        exp >>= 1
    return result


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def test_packed_elements_match_schoolbook_coefficient_lists():
    rng = random.Random(41)
    for p in (2, 3, 5, 13, 499, 65521, P61):
        for e in range(1, 10):
            ctx = FieldCtx(p, random_irreducible(p, e, rng), e)
            mod = list(ctx.modulus)
            for _ in range(6):
                la, lb = ([rng.randrange(p) for _ in range(e)] for _ in range(2))
                la[rng.randrange(e)] = rng.choice((0, p - 1))  # edge slot values
                la, lb = trim(la), trim(lb)
                a, b = ctx.value(la), ctx.value(lb)
                assert list(ctx.coeffs(a)) == la and list(ctx.coeffs(b)) == lb
                assert list(ctx.coeffs(ctx.add(a, b))) == list_add(la, lb, p)
                assert list(ctx.coeffs(ctx.sub(a, b))) == list_add(la, list_neg(lb, p), p)
                assert list(ctx.coeffs(ctx.sub(0, a))) == list_neg(la, p)
                assert list(ctx.coeffs(ctx.mul(a, b))) == list_mulmod(la, lb, mod, p)
                exp = rng.randrange(p**e)
                assert list(ctx.coeffs(ctx.pow(a, exp))) == list_powmod(la, exp, mod, p)
                assert not ctx.sub(a, a) and ctx.add(a, ctx.sub(0, a)) == ctx.value(0)
                # equality and hashing follow the coefficients, not the context object
                twin = FieldCtx(p, ctx.modulus, e).value(la)
                assert twin == a and hash(twin) == hash(a)
                assert (a == b) == (la == lb)
            assert ctx.value(p + 3) == ctx.value([3]) and len(ctx.coeffs(ctx.value(3))) <= 1


def tonelli_shanks(ctx, a):
    """A root of the square a of F_q = ctx, q = p^e, by Tonelli-Shanks on
    field values: the route even degrees took before the descent."""
    q = ctx.p**ctx.degree
    big_q, s = q - 1, 0
    while big_q % 2 == 0:
        big_q //= 2
        s += 1
    # in a field of even degree every prime-field constant is a square, so
    # the walk starts at x (index p) there instead of at the constant 2
    index = ctx.p if ctx.degree % 2 == 0 else 2
    while True:
        z = ctx.element_at(index)
        if z and gf._euler_sign(ctx, z) == -1:
            break
        index += 1
    c = ctx.pow(z, big_q)
    w = ctx.pow(a, (big_q - 1) // 2)
    r = ctx.mul(a, w)  # a^((Q+1)/2)
    t = ctx.mul(r, w)  # a^Q
    m = s
    one = ctx.value(1)
    while t != one:
        i, temp = 0, t
        while temp != one:
            temp = ctx.mul(temp, temp)
            i += 1
            assert i < m, "Tonelli-Shanks walked past the 2-part order"
        b = ctx.pow(c, 1 << (m - i - 1))
        r = ctx.mul(r, b)
        t = ctx.mul(ctx.mul(t, b), b)
        c = ctx.mul(b, b)
        m = i
    return r


def reference_sqrt(ctx, a):
    """The exponent / Tonelli-Shanks root: a^((q+1)/4) or the 2-part walk."""
    q = ctx.p**ctx.degree
    if not a:
        return a
    if ctx.pow(a, (q - 1) // 2) != ctx.value(1):
        return None
    r = ctx.pow(a, (q + 1) // 4) if q % 4 == 3 else tonelli_shanks(ctx, a)
    assert ctx.mul(r, r) == a
    return min(r, ctx.sub(0, r), key=ctx.coeffs)


def test_odd_degree_norm_root_matches_exponent_route():
    rng = random.Random(43)
    for p in (3, 5, 13, 499, 65521):
        for e in (1, 3, 5, 7, 9):
            ctx = FieldCtx(p, find_irreducible(p, e), e)
            seen = {1: 0, -1: 0}
            for trial in range(12):
                a = ctx.value([rng.randrange(p) for _ in range(e)])
                if trial == 0:
                    a = ctx.value(0)
                elif trial == 1:
                    a = ctx.mul(a, a)  # a square, whatever the draw
                root = sqrt_in_field(ctx, a)
                assert root == reference_sqrt(ctx, a), (p, e, a)
                if a:
                    seen[1 if root is not None else -1] += 1
            assert seen[1] and seen[-1], (p, e)  # squares and non-squares


def sqrt_cases(ctx, rng):
    """(kind, a) for a field F_q, q = p^e: random elements, squares, prime-field
    constants, non-squares of F_q, and elements of each subfield F_{p^k} of
    the descent's chain k = e/2, e/4, ... (traces from F_q)."""
    p, e = ctx.p, ctx.degree

    def draw():
        return ctx.value([rng.randrange(p) for _ in range(e)])

    cases = [("random", draw()) for _ in range(3)]
    cases += [("square", ctx.pow(draw(), 2)), ("constant", ctx.value(rng.randrange(1, p)))]
    cases.append(("constant", ctx.value(next(c for c in range(2, p)
                                             if pow(c, (p - 1) // 2, p) == p - 1))))
    cases.append(("non-square", next(a for a in iter(draw, None)
                                     if a and gf._euler_sign(ctx, a) == -1)))
    k = e
    while k % 2 == 0:
        k //= 2
        for _ in range(2):
            b = draw()
            cases.append((f"subfield {k}", functools.reduce(
                ctx.add, (ctx.pow(b, p ** (k * i)) for i in range(1, e // k)), b)))
    return cases


def test_descent_sqrt_matches_tonelli_shanks():
    # every root equals Tonelli-Shanks's after the +-r choice; None comes
    # exactly for the non-squares of F_q, and the subfield elements cover
    # both branches of the descent in F_Q: a root there and sqrt(a/beta) * iota
    rng = random.Random(61)
    fields = [(p, e) for p in (3, 5, 13, 101, 401, 65521, 2**31 - 1) for e in range(1, 11)]
    fields += [(P64, e) for e in range(1, 5)]
    seen = set()
    for p, e in fields:
        ctx = FieldCtx(p, random_irreducible(p, e, rng), e)
        for kind, a in sqrt_cases(ctx, rng):
            root = sqrt_in_field(ctx, a)
            assert root == reference_sqrt(ctx, a), (p, e, kind, a)
            assert (root is None) == (a != 0 and gf._euler_sign(ctx, a) == -1)
            if kind.startswith("subfield"):
                k = int(kind.split()[1])
                half = ctx.pow(a, (p**k - 1) // 2)  # the character of a in F_{p^k}
                kind += " square" if half == ctx.value(1) else " non-square"
            seen.add((kind, root is None))
    assert {("subfield 1 square", False), ("subfield 1 non-square", False),
            ("subfield 2 square", False), ("subfield 2 non-square", False),
            ("subfield 5 non-square", False), ("non-square", True),
            ("random", True), ("random", False)} <= seen, seen


def test_sqrt_returns_the_smaller_root_by_coefficients():
    # the root is chosen by its lowest nonzero slot; it must be the one min
    # takes of the roots +-b of b*b by coefficient tuples, also when b's
    # lowest slots are zero
    rng = random.Random(67)
    fields = [(p, e) for p in (3, 5, 13, 499, 65521) for e in range(1, 11)]
    fields += [(P64, e) for e in range(1, 5)]
    for p, e in fields:
        ctx = FieldCtx(p, random_irreducible(p, e, rng), e)
        for sparse in (False, True) * 4:
            b = ctx.value([0 if sparse and rng.random() < 0.6 else rng.randrange(p)
                           for _ in range(e)])
            assert sqrt_in_field(ctx, ctx.mul(b, b)) == min(b, ctx.sub(0, b), key=ctx.coeffs), (
                p, e, b)


def test_linear_group_split_builds_no_frobenius_rows(monkeypatch):
    # (x - 1)(x - 2)(x^2 + 2) mod 101: the distinct-degree split takes x^p
    # mod f, and the equal-degree split of the two linear factors, in a ring
    # of its own, only its (p - 1)/2 power: no x^p for rows it never reads
    calls = []
    real = gf._PackedModulus.pow

    def counted(self, a, exp):
        calls.append((self.d, exp))
        return real(self, a, exp)

    monkeypatch.setattr(gf._PackedModulus, "pow", counted)
    x = IntPoly([0, 1])
    f = (x - IntPoly([1])) * (x - IntPoly([2])) * (x * x + IntPoly([2]))
    assert factor_pattern(reduce_and_factor(f, 101)) == (1, 1, 2)
    assert calls == [(4, 101), (2, 50)]


def test_frobenius_sum_power_matches_plain_power():
    rng = random.Random(47)
    for p in (3, 13, 499):
        for d in (2, 3, 9):
            ring = gf._PackedModulus(list(find_irreducible(p, d)), p)
            a = ring.pack(trim([rng.randrange(p) for _ in range(d)]))
            for terms, step in ((1, 1), (2, 1), (d, 1), (3, 2), (4, 3)):
                exp = sum(p ** (i * step) for i in range(terms))
                assert ring.frobenius_sum_power(a, terms, step) == ring.pow(a, exp)


def test_factors_match_sympy_on_extension_primes():
    # irreducible factors themselves, not only their degrees: on d > 1 primes
    # f1 splits into several factors of degree d, which the EDF separates
    if gf_pow_mod is None:
        pytest.skip("sympy is not installed")
    from macbeath.census import field_data
    from macbeath.errors import Inadmissible

    split = 0
    for n in range(7, 20):
        f1 = s_polynomial(3, n)
        coeffs = [int(c) for c in f1.coeffs[::-1]]
        for p in primes_upto(600):
            try:
                if field_data(3, n, p).d == 1:
                    continue
            except Inadmissible:
                continue
            got = reduce_and_factor(f1, p)
            _, factors = gf_factor([c % p for c in coeffs], p, ZZ)
            expected = sorted((tuple(int(c) for c in g[::-1]), m) for g, m in factors)
            assert sorted(got.factors) == expected, (n, p)
            split += len(expected) > 1
    assert split > 250  # records with more than one factor: the EDF ran
