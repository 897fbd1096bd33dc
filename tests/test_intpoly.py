import random
from fractions import Fraction

import mpmath
import pytest

from macbeath.errors import Inadmissible, IntegrityError
from macbeath.intpoly import (
    IntPoly,
    chebyshev_combination,
    discriminant,
    doubled,
    psi,
    psi_at_one,
    resultant,
    s_polynomial,
    vieta_lucas,
)
from macbeath.numkit import divisors, euler_phi


def P(*ascending):
    return IntPoly(ascending)


def test_intpoly_basic_arithmetic():
    f = P(1, 2)  # 1 + 2x
    g = P(0, 0, 3)  # 3x^2
    assert (f + g).coeffs == (1, 2, 3)
    assert (f * g).coeffs == (0, 0, 3, 6)
    assert (f - f) == IntPoly.zero()
    assert (f * f * f).coeffs == (1, 6, 12, 8)
    assert P(0, 0, 1).compose(P(1, 1)).coeffs == (1, 2, 1)  # (x+1)^2
    assert f(10) == 21
    assert P(1, 0, -1).derivative().coeffs == (0, -2)
    assert str(P(1, 3, -4, 1)) == "x^3 - 4*x^2 + 3*x + 1"


def test_exact_div_detects_remainder():
    f = P(1, 0, 1)
    with pytest.raises(IntegrityError):
        f.exact_div(P(1, 1))
    assert P(-4, 0, 1).exact_div(P(2, 1)) == P(-2, 1)


def test_vieta_lucas_base_and_examples():
    assert vieta_lucas(0).coeffs == (2,)
    assert vieta_lucas(1).coeffs == (0, 1)
    assert vieta_lucas(2).coeffs == (-2, 0, 1)
    assert vieta_lucas(5).coeffs == (0, 5, 0, -5, 0, 1)


def test_vieta_lucas_cosine_identity():
    mpmath.mp.dps = 40
    for m in range(12):
        for k in range(1, 8):
            theta = mpmath.mpf(k) / 17 * mpmath.pi
            lhs = vieta_lucas(m)(2 * mpmath.cos(theta))
            assert abs(lhs - 2 * mpmath.cos(m * theta)) < mpmath.mpf("1e-30")


def test_psi_known_polynomials():
    assert psi(1) == P(-2, 1)
    assert psi(2) == P(2, 1)
    assert psi(3) == P(1, 1)
    assert psi(4) == P(0, 1)
    assert psi(5) == P(-1, 1, 1)
    assert psi(6) == P(-1, 1)
    assert psi(7) == P(-1, -2, 1, 1)
    assert psi(8) == P(-2, 0, 1)
    assert psi(9) == P(1, -3, 0, 1)
    assert psi(10) == P(-1, -1, 1)
    assert psi(11) == P(1, 3, -3, -4, 1, 1)
    assert psi(12) == P(-3, 0, 1)
    assert psi(13) == P(-1, 3, 6, -4, -5, 1, 1)
    assert psi(14) == P(1, -2, -1, 1)
    assert psi(15) == P(1, 4, -4, -1, 1)
    assert psi(16) == P(2, 0, -4, 0, 1)
    assert psi(17) == P(1, -4, -10, 10, 15, -6, -7, 1, 1)
    assert psi(18) == P(-1, -3, 0, 1)
    assert psi(19) == P(1, 5, -10, -20, 15, 21, -7, -8, 1, 1)


def test_psi_degree_and_monic():
    for n in range(1, 61):
        f = psi(n)
        assert f.is_monic()
        assert f.degree == (1 if n <= 2 else euler_phi(n) // 2)


def test_psi_divisor_product_identity():
    for n in range(1, 61):
        prod = IntPoly.const(1)
        for e in divisors(n):
            prod = prod * psi(e)
        assert prod == chebyshev_combination(n)


def test_psi_vanishes_at_its_root():
    mpmath.mp.dps = 50
    for n in range(1, 61):
        root = 2 * mpmath.cos(2 * mpmath.pi / n)
        assert abs(psi(n)(root)) < mpmath.mpf("1e-9")


def test_psi_cap():
    with pytest.raises(ValueError, match="n must be <= 200"):
        psi(1000)


def test_psi_at_one_table_values():
    table = {7: -1, 8: -1, 9: -1, 10: -1, 11: -1, 12: -2, 13: 1,
             14: -1, 15: 1, 16: -1, 17: 1, 18: -3, 19: -1}
    for n, value in table.items():
        res = psi_at_one(n)
        assert res.direct == value
        assert res.mobius == Fraction(value)
        assert res.degenerate == (n % 6 == 0)


def test_psi_at_one_cross_check_wide_range():
    for n in range(3, 121):
        res = psi_at_one(n)
        assert res.mobius == Fraction(res.direct)
        assert res.direct == psi(n)(1)


def test_s_polynomial_known():
    assert s_polynomial(3, 7) == P(1, 3, -4, 1)
    assert s_polynomial(4, 5) == P(-1, -1, 1)
    assert s_polynomial(3, 8) == P(-1, -2, 1)
    assert s_polynomial(3, 9) == P(1, 0, -3, 1)


def test_s_polynomial_symmetric_functions_for_3_7():
    f1 = s_polynomial(3, 7)
    e1, e2, e3 = -f1.coeffs[2], f1.coeffs[1], -f1.coeffs[0]
    assert (e1, e2, e3) == (4, 3, -1)


def test_s_polynomial_degree_and_nonzero_discriminant():
    for m in (3, 4, 6):
        for n in range(4, 61):
            if (m - 2) * (n - 2) <= 4:
                continue
            f1 = s_polynomial(m, n)
            assert f1.is_monic()
            assert f1.degree == euler_phi(n) // 2
            assert discriminant(f1) != 0


def test_s_polynomial_rejects_unsupported_m():
    with pytest.raises(Inadmissible):
        s_polynomial(5, 7)
    with pytest.raises(Inadmissible):
        s_polynomial(7, 3)
    with pytest.raises(Inadmissible):
        s_polynomial(3, 6)


def test_doubled():
    assert doubled(s_polynomial(3, 7)) == P(1, 0, 3, 0, -4, 0, 1)
    assert doubled(P(5,)) == P(5,)
    assert doubled(s_polynomial(4, 5)) == P(-1, 0, -1, 0, 1)
    f2 = doubled(s_polynomial(3, 9))
    assert f2.degree == 6
    assert all(c == 0 for c in f2.coeffs[1::2])


def test_discriminant_values():
    assert discriminant(s_polynomial(3, 7)) == 49
    assert discriminant(P(-2, 0, 1)) == 8
    assert discriminant(P(-1, 1, 1)) == 5
    assert discriminant(P(1, 2, 1)) == 0  # (x+1)^2


def test_discriminant_of_3_7_is_a_pure_power_of_7():
    d = discriminant(s_polynomial(3, 7))
    while d % 7 == 0:
        d //= 7
    assert d == 1


def test_resultant_of_coprime_constants():
    assert resultant(P(2,), P(0, 1)) == 2
    assert resultant(P(1, 1), P(-1, 1)) == -2  # res(x+1, x-1) = (x+1) at 1, negated
    assert resultant(P(-2,), P(1, 0, 1)) == 4 and type(resultant(P(3,), P(5,))) is int


def test_resultant_and_discriminant_match_sympy():
    # the subresultant sequence against the definition (the determinant of
    # the Sylvester matrix, which fixes the sign when deg f < deg g) on
    # non-monic inputs with content and with common factors
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester
    x = sympy.Symbol("x")

    def poly(f):
        return sympy.Poly(list(reversed(f.coeffs)), x)

    rng = random.Random(43)
    for _ in range(80):
        a, b = (P(*[rng.randrange(-20, 21) for _ in range(rng.randrange(1, 9))],
                  rng.choice((-6, -1, 1, 4))) for _ in range(2))
        if rng.random() < 0.3:
            common = P(rng.randrange(-3, 4), rng.choice((1, 2)))
            a, b = a * common, b * common * 3
        sylvester_det = sylvester(poly(a).as_expr(), poly(b).as_expr(), x).det()
        assert resultant(a, b) == int(sylvester_det), (a, b)
        if a.degree >= 1:
            assert discriminant(a) == int(sympy.discriminant(poly(a))), a
    for m, n in ((3, 19), (4, 41), (6, 35)):
        f2 = doubled(s_polynomial(m, n))
        assert discriminant(f2) == int(sympy.discriminant(poly(f2))), (m, n)
