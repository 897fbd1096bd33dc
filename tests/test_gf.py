import random

import pytest

from irreducibles import find_irreducible, random_irreducible
from macbeath import gf
from macbeath.gf import (
    FieldCtx,
    chi,
    degree_pattern,
    is_irreducible,
    reduce_and_factor,
    sqrt_in_field,
)
from macbeath.intpoly import IntPoly, discriminant, doubled, s_polynomial
from macbeath.numkit import is_prime, primes_upto


F1_37 = s_polynomial(3, 7)
F2_37 = doubled(F1_37)


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
        assert pat == reduce_and_factor(f, p).pattern()


def test_constant_input_has_no_factors():
    for p in (2, 3, 7, 13):
        assert degree_pattern(IntPoly([5]), p) == ()
        fl = reduce_and_factor(IntPoly([5]), p)
        assert fl.factors == () and fl.lead == 5 % p and fl.squarefree
        assert fl.pattern() == ()
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
    ctx = FieldCtx(5, [-2, 0, 1])  # F_25 as F_5[x]/(x^2-2)
    x = ctx.gen()
    assert (x * x) == ctx.elem(2)
    f41 = FieldCtx(41, [0, 1])
    assert f41.elem(2) * f41.elem(21) == f41.one()
    with pytest.raises(ValueError, match="negative exponent"):
        x ** -1


def test_frobenius_fixes_exactly_the_prime_field():
    ctx = FieldCtx(3, find_irreducible(3, 3))
    fixed = [i for i in range(27) if (e := ctx.element_at(i)).frobenius() == e]
    assert len(fixed) == 3
    # and a^(p^e) = a for everything
    assert all(ctx.element_at(i) ** 27 == ctx.element_at(i) for i in range(27))


def test_element_min_poly():
    ctx = FieldCtx(2, [1, 1, 0, 1])  # F_8 = F_2[x]/(x^3+x+1)
    x = ctx.gen()
    assert x.min_poly() == (1, 1, 0, 1)
    assert ctx.one().min_poly() == (1, 1)  # y - 1 = y + 1 over F_2


def test_chi_prime_field_examples():
    f13 = FieldCtx(13, [0, 1])
    assert chi(f13.elem(4)) == 1
    assert chi(f13.elem(6)) == -1
    assert chi(f13.zero()) == 0


def test_chi_characteristic_two():
    ctx = FieldCtx(2, [1, 1, 0, 1], ambient_d=3)
    assert all(chi(ctx.element_at(i)) == 1 for i in range(1, 8))


def test_chi_ambient_parity_rule():
    # a non-square of F_19 becomes a square in the ambient F_19^2
    f19 = FieldCtx(19, [0, 1])
    nonsquare = next(a for a in range(2, 19) if chi(f19.elem(a)) == -1)
    ambient = FieldCtx(19, [0, 1], ambient_d=2)
    assert chi(ambient.elem(nonsquare)) == 1
    # odd ambient index keeps the subfield verdict
    ambient3 = FieldCtx(19, [0, 1], ambient_d=3)
    assert chi(ambient3.elem(nonsquare)) == -1


def brute_square_table(ctx):
    q = ctx.order
    squares = set()
    for i in range(q):
        b = ctx.element_at(i)
        squares.add((b * b).coeffs)
    return squares


def test_chi_against_exhaustive_squares_small_fields():
    for q in (3, 5, 9, 25, 8, 27, 49, 121, 128):
        p = next(pp for pp in primes_upto(q) if q % pp == 0 and is_prime(pp))
        e = 0
        qq = q
        while qq > 1:
            qq //= p
            e += 1
        ctx = FieldCtx(p, find_irreducible(p, e))
        squares = brute_square_table(ctx)
        for i in range(q):
            a = ctx.element_at(i)
            expected = 0 if a.is_zero() else (1 if a.coeffs in squares else -1)
            if p == 2:
                expected = 0 if a.is_zero() else 1
            assert chi(a) == expected


def test_chi_multiplicative_all_fields():
    rng = random.Random(17)
    fields = 0
    for p in primes_upto(2000):
        e = 1
        while p**e <= 2000:
            ctx = FieldCtx(p, [0, 1] if e == 1 else find_irreducible(p, e))
            q = p**e
            for _ in range(1000):
                a = ctx.element_at(rng.randrange(q))
                b = ctx.element_at(rng.randrange(q))
                assert chi(a * b) == chi(a) * chi(b)
            fields += 1
            e += 1
    assert fields == 333


def test_sqrt_examples():
    f13 = FieldCtx(13, [0, 1])
    assert sqrt_in_field(f13.elem(4)) == f13.elem(2)
    assert sqrt_in_field(f13.elem(6)) is None
    f41 = FieldCtx(41, [0, 1])
    assert sqrt_in_field(f41.elem(5)) == f41.elem(13)


def test_sqrt_in_extension_fields():
    for p, e in ((3, 2), (5, 3), (7, 2), (2, 4), (13, 2)):
        ctx = FieldCtx(p, find_irreducible(p, e))
        hits = 0
        for i in range(ctx.order):
            a = ctx.element_at(i)
            r = sqrt_in_field(a)
            if r is not None:
                assert r * r == a
                hits += 1
        expected = ctx.order if p == 2 else (ctx.order - 1) // 2 + 1
        assert hits == expected


def test_sqrt_ambient_square_may_have_no_represented_root():
    f19 = FieldCtx(19, [0, 1], ambient_d=2)
    nonsquare = next(a for a in range(2, 19)
                     if sqrt_in_field(FieldCtx(19, [0, 1]).elem(a)) is None)
    elem = f19.elem(nonsquare)
    assert chi(elem) == 1
    assert sqrt_in_field(elem) is None


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
        FieldCtx(10, [0, 1])
    with pytest.raises(ValueError):
        FieldCtx(3, [2, 0, 1])  # x^2+2 = (x+1)(x+2) mod 3
    with pytest.raises(ValueError):
        FieldCtx(3, [1, 0, 1], ambient_d=3)  # 2 does not divide 3
    with pytest.raises(ValueError):
        FieldCtx(5, [2])  # degree 0


def test_mixed_context_arithmetic_rejected():
    a = FieldCtx(5, [0, 1]).elem(2)
    b = FieldCtx(7, [0, 1]).elem(2)
    with pytest.raises(ValueError):
        _ = a + b


def test_find_irreducible():
    g = find_irreducible(2, 8)
    assert is_irreducible(list(g), 2)
    assert len(g) == 9
    assert find_irreducible(13, 1) == (0, 1)


# ---------------------------------------------------------------------------
# the packed F_p[x]/(f) kernel against schoolbook arithmetic and sympy

try:
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_pow_mod
except ImportError:  # sympy is a test-only reference
    gf_pow_mod = None

P63 = 2**63 - 25  # the largest prime below 2^63


def schoolbook_pow_mod(base, exp, mod, p):
    result = [1]
    base = gf._rem(base, mod, p)
    while exp:
        if exp & 1:
            result = gf._rem(gf._mul(result, base, p), mod, p)
        base = gf._rem(gf._mul(base, base, p), mod, p)
        exp >>= 1
    return result


def sympy_pow_mod(base, exp, mod, p):
    out = gf_pow_mod(base[::-1], exp, mod[::-1], p, ZZ)
    return [int(c) % p for c in out[::-1]]


def kernel_cases():
    rng = random.Random(23)
    cases = []
    for p in (2, 3, 5, 101, 65521, P63):
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
        assert gf._pow_mod(base, exp, mod, p) == schoolbook_pow_mod(base, exp, mod, p), \
            (base, exp, mod, p)


def test_packed_pow_mod_matches_sympy():
    if gf_pow_mod is None:
        pytest.skip("sympy is not installed")
    for base, exp, mod, p in kernel_cases():
        assert gf._pow_mod(base, exp, mod, p) == sympy_pow_mod(base, exp, mod, p), \
            (base, exp, mod, p)


def test_packed_pow_mod_edge_values():
    assert gf._pow_mod([5], 0, [3, 1], 7) == [1]
    assert gf._pow_mod([0, 1], 0, [3, 0, 1], 7) == [1]
    # a non-monic modulus gives the remainder mod its monic multiple
    assert gf._pow_mod([0, 1], 9, [6, 0, 2], 7) == gf._pow_mod([0, 1], 9, [3, 0, 1], 7)
    with pytest.raises(ValueError):
        gf._pow_mod([1], 3, [4], 7)


def test_frobenius_is_identity_after_e_steps():
    # x^(p^e) = x in F_p[x]/(g) for g irreducible of degree e
    for p, e in ((2, 1), (2, 18), (3, 1), (3, 18), (P63, 1), (P63, 2), (P63, 3)):
        g = list(find_irreducible(p, e))
        x = gf._rem([0, 1], g, p)
        assert gf._pow_mod([0, 1], p**e, g, p) == x
        if e > 1:
            assert gf._pow_mod([0, 1], p, g, p) != x


def test_packed_field_mul_matches_schoolbook():
    rng = random.Random(29)
    for p, e in ((2, 1), (2, 18), (3, 5), (13, 18), (499, 4), (P63, 1), (P63, 3)):
        ctx = FieldCtx.trusted(p, find_irreducible(p, e), e)
        mod = list(ctx.modulus)
        for _ in range(30):
            a = ctx.elem([rng.randrange(p) for _ in range(e)])
            b = ctx.elem([rng.randrange(p) for _ in range(e)])
            expected = gf._rem(gf._mul(list(a.coeffs), list(b.coeffs), p), mod, p)
            assert list((a * b).coeffs) == expected
            assert (a**3).coeffs == (a * a * a).coeffs


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """The primes on which degree_pattern took the half-degree kernel."""
    calls = []
    real = gf._half_degree_pattern

    def counted(g, p):
        calls.append(p)
        return real(g, p)

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
        f = IntPoly([c for b in g for c in (b, 0)][:-1])
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
        assert degree_pattern(f, p) == reduce_and_factor(f, p).pattern(), (f, p)
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

    for module, name in ((gf, "chi"), (gf, "_euler_sign"), (numkit, "lucas_v"),
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


def test_half_degree_kernel_euclid_count(kernel_calls, euclid_calls):
    # f1 for n = 11 is irreducible of degree 5 mod 3: the distinct-degree
    # split runs floor(5/2) gcds and the square count one more
    f1 = s_polynomial(3, 11)
    assert reduce_and_factor(f1, 3).pattern() == (5,)
    euclid_calls.clear()
    assert degree_pattern(doubled(f1), 3) == (10,)
    assert kernel_calls == [3]
    assert euclid_calls == ["_gcd", "_gcd", "_gcd_degree"]


def test_discriminant_computed_once_per_polynomial(monkeypatch):
    # the squarefree tests read disc g for the kernel and disc f for the
    # factorization; with f2 = f1(x^2) both are disc f1, computed once
    seen = []

    def spy(f):
        seen.append(f)
        return discriminant(f)

    monkeypatch.setattr(gf, "discriminant", spy)
    gf._discriminant.cache_clear()
    gf._half_discriminant.cache_clear()
    try:
        f1 = s_polynomial(3, 13)
        for p in primes_upto(2000)[1:]:
            degree_pattern(doubled(f1), p)
            reduce_and_factor(f1, p)
        assert seen == [f1]
    finally:
        gf._discriminant.cache_clear()
        gf._half_discriminant.cache_clear()


def test_one_packed_ring_for_the_top_level_split(monkeypatch):
    # f1 for n = 19 has three cubic factors mod 7 (d = 3): the distinct-degree
    # split finds one degree class, and its equal-degree split reuses the ring
    moduli = []
    real = gf._PackedModulus.__init__

    def counted(self, f, p):
        moduli.append(gf._monic(list(f), p))
        real(self, f, p)

    monkeypatch.setattr(gf._PackedModulus, "__init__", counted)
    f1 = s_polynomial(3, 19)
    fl = reduce_and_factor(f1, 7)
    assert fl.factors == (((3, 5, 4, 1), 1), ((3, 6, 1, 1), 1), ((4, 5, 6, 1), 1))
    assert moduli.count(gf._monic(gf.reduce_polynomial(f1, 7), 7)) == 1


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
            ctx = FieldCtx.trusted(p, random_irreducible(p, e, rng), e)
            mod = list(ctx.modulus)
            for _ in range(6):
                la, lb = ([rng.randrange(p) for _ in range(e)] for _ in range(2))
                la[rng.randrange(e)] = rng.choice((0, p - 1))  # edge slot values
                la, lb = trim(la), trim(lb)
                a, b = ctx.elem(la), ctx.elem(lb)
                assert list(a.coeffs) == la and list(b.coeffs) == lb
                assert list((a + b).coeffs) == list_add(la, lb, p)
                assert list((a - b).coeffs) == list_add(la, list_neg(lb, p), p)
                assert list((-a).coeffs) == list_neg(la, p)
                assert list((a * b).coeffs) == list_mulmod(la, lb, mod, p)
                exp = rng.randrange(p**e)
                assert list((a**exp).coeffs) == list_powmod(la, exp, mod, p)
                assert (a - a).is_zero() and a + (-a) == ctx.zero()
                # equality and hashing follow the coefficients, not the object
                twin = FieldCtx.trusted(p, ctx.modulus, e).elem(la)
                assert twin == a and hash(twin) == hash(a)
                assert (a == b) == (la == lb)
            assert ctx.elem(p + 3) == ctx.elem([3]) and ctx.elem(3).is_constant()


def reference_sqrt(a):
    """The exponent / Tonelli-Shanks root: a^((q+1)/4) or the 2-part walk."""
    ctx = a.ctx
    q = ctx.order
    if a.is_zero():
        return a
    if a ** ((q - 1) // 2) != ctx.one():
        return None
    if q % 4 == 3:
        r = a ** ((q + 1) // 4)
    else:
        big_q, s = q - 1, 0
        while big_q % 2 == 0:
            big_q, s = big_q // 2, s + 1
        index = 2
        while ctx.element_at(index) ** ((q - 1) // 2) == ctx.one():
            index += 1
        c, r, t, m = (ctx.element_at(index) ** big_q, a ** ((big_q + 1) // 2),
                      a ** big_q, s)
        while t != ctx.one():
            i, temp = 0, t
            while temp != ctx.one():
                temp, i = temp * temp, i + 1
            b = c ** (1 << (m - i - 1))
            r, c = r * b, b * b
            t, m = t * c, i
    assert r * r == a
    return min(r, -r, key=lambda x: x.coeffs)


def test_odd_degree_norm_root_matches_exponent_route():
    rng = random.Random(43)
    for p in (3, 5, 13, 499, 65521):
        for e in (1, 3, 5, 7, 9):
            ctx = FieldCtx.trusted(p, find_irreducible(p, e), e)
            seen = {1: 0, -1: 0}
            for trial in range(12):
                a = ctx.elem([rng.randrange(p) for _ in range(e)])
                if trial == 0:
                    a = ctx.zero()
                elif trial == 1:
                    a = a * a  # a square, whatever the draw
                root = sqrt_in_field(a)
                assert root == reference_sqrt(a), (p, e, a)
                if not a.is_zero():
                    seen[1 if root is not None else -1] += 1
            assert seen[1] and seen[-1], (p, e)  # squares and non-squares


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
