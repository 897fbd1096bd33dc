import refmath
from check_pattern_census import N7_DENSITIES


def test_primes_upto():
    assert refmath.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert refmath.primes_upto(1) == []


def test_signed_order_and_phi():
    assert refmath.signed_order(13, 7) == 1      # 13 = -1 mod 7
    assert refmath.signed_order(2, 7) == 3
    assert refmath.signed_order(3, 16) == 4      # 3^4 = 81 = 1 mod 16
    assert [refmath.phi(n) for n in (7, 8, 9, 16, 19)] == [6, 4, 6, 8, 18]


def test_split_class_params_match_worked_examples():
    # p = 13 = -1 mod 7 takes the F_{p^2} route, p = 43 = 1 mod 7 the F_p route
    assert refmath.split_class_params(7, 13) == [4, 6, 7]
    assert refmath.split_class_params(7, 43) == [25, 29, 36]
    assert refmath.split_k(7, 13) == 1
    assert refmath.split_k(7, 43) == 2


def test_split_class_params_even_n():
    # n = 8 uses N = 16; both routes give phi(8)/2 = 2 distinct s-values
    for p in (17, 31, 47, 79):
        values = refmath.split_class_params(8, p)
        assert values is not None and len(values) == 2
        for s in values:  # each is a root of f1 = x^2 - 2x - 1 mod p
            assert (s * s - 2 * s - 1) % p == 0


def test_f1_from_sympy_has_the_split_roots():
    f1 = refmath.sympy_f1(7)
    assert f1 == [1, 3, -4, 1]
    for s in refmath.split_class_params(7, 43):
        assert sum(c * s**i for i, c in enumerate(f1)) % 43 == 0
    assert refmath.sympy_discriminant(f1) == 49


def test_wreath_patterns():
    assert refmath.wreath_patterns(7) == set(N7_DENSITIES)
    assert (10,) in refmath.wreath_patterns(11)
    assert all(sum(p) == 10 for p in refmath.wreath_patterns(11))


def test_sympy_pattern_and_poly_mulmod():
    f2 = refmath.doubled(refmath.sympy_f1(7))
    assert refmath.sympy_pattern(f2, 13) == (1, 1, 2, 2)  # k = 1 at p = 13
    # x * x = x^2 = -1 mod (x^2 + 1)
    assert refmath.poly_mulmod([0, 1], [0, 1], [1, 0, 1], 7) == [6]
