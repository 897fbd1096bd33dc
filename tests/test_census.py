import json
from fractions import Fraction

import pytest

from macbeath import census as census_module
from macbeath import gf, numkit
from macbeath.census import (
    cps_discriminant,
    field_data,
    map_census,
    matrix_oracle,
    record_from_json,
    record_to_csv_rows,
    record_to_dict,
    route_product,
)
from macbeath.errors import BadReduction, Error, Inadmissible, IntegrityError
from macbeath.intpoly import IntPoly, s_polynomial
from macbeath.numkit import primes_upto


def s_values(record):
    return sorted(tuple(c.s.coeffs) for c in record.classes)


def record_to_json(record):
    return json.dumps(record_to_dict(record), sort_keys=True)


def hurwitz_genus(m, n, q):
    """The genus from |PSL(2,q)| = 4mn/(mn-2m-2n) * (g-1), as a Fraction."""
    order = q * (q * q - 1) // (1 if q % 2 == 0 else 2)
    return 1 + Fraction(order * (m * n - 2 * m - 2 * n), 4 * m * n)


def test_field_data_examples():
    assert field_data(3, 7, 13).d == 1 and field_data(3, 7, 13).q == 13
    fd = field_data(3, 7, 2)
    assert (fd.d, fd.q) == (3, 8)
    fd = field_data(4, 5, 7)
    assert (fd.d, fd.q) == (2, 49)
    fd = field_data(3, 14, 3)
    assert (fd.d, fd.q) == (3, 27)
    assert fd.n_modulus == 28


def test_field_data_errors():
    with pytest.raises(Inadmissible):
        field_data(3, 7, 7)  # p divides n
    with pytest.raises(Inadmissible):
        field_data(3, 8, 2)  # p divides 2n
    with pytest.raises(Inadmissible):
        field_data(4, 5, 2)  # no order-4 elements in char 2
    with pytest.raises(Inadmissible):
        field_data(6, 7, 3)  # no order-6 elements in char 3
    with pytest.raises(Inadmissible):
        field_data(3, 6, 5)  # not hyperbolic
    for p in (-13, 0, 1, 15, (1 << 64) + 13):
        with pytest.raises(Inadmissible, match="not a prime below 2"):
            field_data(3, 7, p)


def test_census_3_7_13():
    r = map_census(3, 7, 13)
    assert (r.k, r.l) == (1, 2)
    assert s_values(r) == [(4,), (6,), (7,)]
    inner = [c for c in r.classes if c.regularity == "inner"]
    assert len(inner) == 1 and inner[0].s.coeffs == (4,)
    assert r.genus == 14
    # classes are ordered by least root
    assert [c.s.coeffs for c in r.classes] == [(4,), (6,), (7,)]


def test_census_3_7_43():
    r = map_census(3, 7, 43)
    assert r.k == 2
    assert s_values(r) == [(25,), (29,), (36,)]
    outer = [c for c in r.classes if c.regularity == "outer"]
    assert outer[0].s.coeffs == (29,)


def test_census_3_9_19_outer_class():
    r = map_census(3, 9, 19)
    assert (r.k, r.l) == (2, 1)
    outer = [c for c in r.classes if c.regularity == "outer"]
    assert outer[0].s.coeffs == (13,)


def test_census_3_13_3_all_outer():
    r = map_census(3, 13, 3)
    assert (r.field.d, r.field.q) == (3, 27)
    assert len(r.classes) == 2 and r.k == 0
    assert all(c.e == 3 for c in r.classes)


def test_census_3_8_31():
    r = map_census(3, 8, 31)
    assert (r.k, r.l) == (1, 1)
    assert s_values(r) == [(9,), (24,)]  # 24 = -7 mod 31


def test_census_bad_reduction():
    with pytest.raises(BadReduction):
        map_census(3, 7, 7)


def test_census_char2_everything_inner():
    r = map_census(3, 7, 2)
    assert (r.field.q, r.genus, r.k, r.l) == (8, 7, 1, 0)
    assert r.classes[0].chi == 1
    assert r.classes[0].t is not None  # every element of F_8 has a square root


def test_census_t_repr_squares_back():
    for (m, n, p) in [(3, 7, 13), (3, 9, 17), (4, 5, 31), (3, 13, 5)]:
        r = map_census(m, n, p)
        shift = {3: 3, 4: 2, 6: 1}[m]
        for c in r.classes:
            if c.t is None:
                continue
            ctx = c.t.ctx
            assert c.t * c.t == ctx.elem(shift) - ctx.gen()


def test_census_count_flag_for_folded_even_case():
    # (3,8,7): d=2 but f1 splits into linears; factor count 2 exceeds phi(n)/2d=1
    r = map_census(3, 8, 7)
    assert r.field.d == 2
    assert len(r.classes) == 2
    assert r.closed_form_count == 1
    assert r.count_flag
    # all classes are ambient squares since d/e is even
    assert r.k == 2
    # normal case: no flag
    assert not map_census(3, 7, 13).count_flag


def test_parity_examples():
    v = map_census(3, 7, 13).parity
    assert v.applicable and v.predicted == "even" and v.observed == "even" and v.consistent
    v = map_census(3, 12, 23).parity
    assert v.applicable and v.predicted == "odd" and v.consistent
    v = map_census(3, 9, 19).parity
    assert v.applicable and v.predicted == "odd" and v.consistent
    # d even: the theorem is silent
    v = map_census(3, 13, 5).parity
    assert not v.applicable and v.predicted is None and v.consistent is None
    # m = 4: not the theorem's setting
    assert not map_census(4, 5, 31).parity.applicable


def test_cps_discriminant():
    ctx = gf.FieldCtx(13, [0, 1])
    t = ctx.elem(5)
    val, character = cps_discriminant(t, ctx.zero(), ctx.one())
    assert val == ctx.elem(3) - t * t
    assert character == gf.chi(val)
    val, _ = cps_discriminant(ctx.zero(), ctx.zero(), ctx.zero())
    assert val == ctx.elem(4)
    # with w^2 = 2 adjoined: (t, 0, w) evaluates to 2 - t^2
    ext = gf.FieldCtx(5, [-2, 0, 1])
    w = ext.gen()
    t5 = ext.elem(3)
    val, _ = cps_discriminant(t5, ext.zero(), w)
    assert val == ext.elem(2) - t5 * t5


def test_cps_discriminant_mixed_contexts():
    a = gf.FieldCtx(13, [0, 1]).elem(1)
    b = gf.FieldCtx(11, [0, 1]).elem(1)
    with pytest.raises(ValueError):
        cps_discriminant(a, a, b)


def test_matrix_oracle_3_7_13():
    r = map_census(3, 7, 13)
    verdicts = {}
    for c in r.classes:
        w = matrix_oracle(7, 13, c, r.field.d)
        verdicts[c.s.coeffs] = (w.verdict, w.degenerate)
    assert verdicts[(4,)][0] == "inner"
    assert verdicts[(6,)][0] == "outer"
    # at least one degenerate beta = 0 branch occurs here (s=4: -s = 9 = 3^2)
    assert verdicts[(4,)][1] is True


def test_matrix_oracle_rejects_char2():
    r = map_census(3, 7, 2)
    with pytest.raises(Inadmissible):
        matrix_oracle(7, 2, r.classes[0], r.field.d)


def test_matrix_oracle_agrees_on_extension_fields():
    r = map_census(3, 7, 5)  # d = 3, one class over F_125
    assert len(r.classes) == 1
    w = matrix_oracle(7, 5, r.classes[0], r.field.d)
    assert w.verdict == r.classes[0].regularity == "inner"  # 5 = 1 mod 4
    r = map_census(3, 7, 3)  # 3 = -1 mod 4: outer
    w = matrix_oracle(7, 3, r.classes[0], r.field.d)
    assert w.verdict == "outer"


def test_matrix_oracle_extension_branch():
    # (3,8,7): d=2 but the s-values live in F_7, and 3-s is a non-square
    # there, so the trace field F_49 must be adjoined via T^2 = 3 - s
    r = map_census(3, 8, 7)
    assert r.field.d == 2 and all(c.e == 1 for c in r.classes)
    for c in r.classes:
        w = matrix_oracle(8, 7, c, r.field.d)
        assert w.verdict == c.regularity == "inner"
        assert len(w.field_modulus) - 1 == 2  # worked in the quadratic extension


def test_census_m6():
    # no tabulated records for m=6; check internal consistency instead
    from macbeath.gf import degree_pattern
    from macbeath.intpoly import doubled, s_polynomial
    assert s_polynomial(6, 7).coeffs == (-1, -1, 2, 1)
    r = map_census(6, 7, 13)
    assert (r.field.d, r.field.q, r.genus) == (1, 13, 105)
    assert (r.k, r.l) == (1, 2)
    assert s_values(r) == [(2,), (4,), (5,)]
    # inner count agrees with the linear factors of f1(x^2)
    f2 = doubled(s_polynomial(6, 7))
    for p in primes_upto(150):
        try:
            rec = map_census(6, 7, p)
        except (BadReduction, Inadmissible):
            continue
        if rec.field.d == 1:
            assert degree_pattern(f2, p).count(1) == 2 * rec.k


def test_route_product_m4_and_m6():
    from macbeath.census import route_product
    for m, n_values in ((4, (5, 7, 8)), (6, (7, 8, 9))):
        for n in n_values:
            for p in primes_upto(80):
                try:
                    left, right = route_product(m, n, p)
                except (BadReduction, Inadmissible):
                    continue
                assert left == right, (m, n, p)


def test_genus_integral_for_admissible_types():
    for m, n_range in ((3, range(7, 21)), (4, range(5, 13)), (6, range(4, 11))):
        for n in n_range:
            if (m - 2) * (n - 2) <= 4:
                continue
            for p in primes_upto(500):
                try:
                    fd = field_data(m, n, p)
                except Inadmissible:
                    continue
                assert hurwitz_genus(m, n, fd.q).denominator == 1, (m, n, p)


def test_route_product_small():
    for n in (7, 8, 9, 10, 12):
        for p in primes_upto(40):
            try:
                left, right = route_product(3, n, p)
            except (Inadmissible, BadReduction):
                continue
            assert left == right, (n, p)


def test_json_round_trip():
    for args in [(3, 7, 13), (3, 13, 5), (4, 5, 7), (3, 8, 7)]:
        r = map_census(*args)
        assert record_from_json(record_to_json(r)) == r
        # bit-stable serialization
        assert record_to_json(r) == record_to_json(map_census(*args))
    # records without trace representatives round-trip too
    r = map_census(3, 11, 23, traces=False)
    assert all(c.t is None for c in r.classes)
    assert record_from_json(record_to_json(r)) == r


def test_record_from_json_rejects_a_reducible_factor_and_a_composite_p():
    data = json.loads(record_to_json(map_census(3, 7, 11)))
    data["classes"][0]["factor"] = [1, 3, 3, 1]  # (x + 1)^3
    with pytest.raises(ValueError, match="not irreducible"):
        record_from_json(json.dumps(data))
    data = json.loads(record_to_json(map_census(3, 7, 13)))
    data["p"] = 15
    with pytest.raises(Inadmissible, match="not a prime"):
        record_from_json(json.dumps(data))


def test_csv_rows():
    r = map_census(3, 7, 13)
    rows = record_to_csv_rows(r)
    assert len(rows) == 3
    assert rows[0][:3] == (3, 7, 13)
    assert {row[13] for row in rows} == {"inner", "outer"}


# ---------------------------------------------------------------------------
# split-prime (Lucas ladder) route against the factorization route


def _outcome(m, n, p, traces, split_route):
    try:
        return census_module._map_census(m, n, p, traces, split_route)
    except Error as exc:
        return (type(exc).__name__, str(exc))


def _without_traces(record):
    data = json.loads(record_to_json(record))
    for c in data["classes"]:
        c["t"] = None
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("m, bound", [(3, 5000), (4, 2000), (6, 2000)])
def test_split_route_matches_factorization_route(m, bound):
    shift = census_module._T_SQUARE_SHIFT[m]
    checked = 0
    primes = primes_upto(bound)
    for n in range(4, 41):
        if (m - 2) * (n - 2) <= 4:
            continue
        n_mod = n if n % 2 else 2 * n
        for p in primes:
            if p % n_mod not in (1, n_mod - 1) and n_mod % p:
                continue  # d > 1: no split route
            try:
                if field_data(m, n, p).d != 1:
                    continue  # d > 1 takes the factorization route itself
            except Inadmissible:
                pass  # p | N, or no order-m rotations: both routes must fail alike
            ref = _outcome(m, n, p, False, False)
            got = _outcome(m, n, p, False, True)
            got_traced = _outcome(m, n, p, True, True)
            if not isinstance(ref, census_module.CensusRecord):
                assert got == got_traced == ref, (m, n, p)
                continue
            assert record_to_json(got) == record_to_json(ref), (m, n, p)
            # with traces on only t may change: each t is the smaller root of
            # shift - s, and every tenth prime is compared whole
            assert _without_traces(got_traced) == record_to_json(ref), (m, n, p)
            for c in got_traced.classes:
                (t,) = c.t.coeffs or (0,)
                assert (t * t + c.s.coeffs[0] - shift) % p == 0 and 2 * t <= p
            if checked % 10 == 0:
                ref_traced = _outcome(m, n, p, True, False)
                assert record_to_json(got_traced) == record_to_json(ref_traced), (m, n, p)
            checked += 1
    assert checked > 400


def test_split_route_errors_match_on_bad_p():
    for p in (-13, 0, 1, 15, 91, 1 << 64, (1 << 64) + 13):
        for split_route in (True, False):
            with pytest.raises(Inadmissible, match="not a prime below 2"):
                census_module._map_census(3, 7, p, False, split_route)
    # bad (m, n) is reported before p is looked at, as by the factorization route
    for split_route in (True, False):
        with pytest.raises(Inadmissible, match="m=5 is unsupported"):
            census_module._map_census(5, 7, 15, False, split_route)
        with pytest.raises(Inadmissible, match="not hyperbolic"):
            census_module._map_census(3, 6, 15, False, split_route)


def test_split_route_never_factors(monkeypatch):
    def no_factoring(*args):
        raise AssertionError("reduce_and_factor called on a split prime")

    monkeypatch.setattr(gf, "reduce_and_factor", no_factoring)
    r = map_census(3, 7, 13)
    assert [c.s.coeffs for c in r.classes] == [(4,), (6,), (7,)]
    with pytest.raises(AssertionError):
        map_census(3, 7, 2)  # d = 3 keeps the factorization route


def test_extension_square_roots_skip_prime_field_walk(monkeypatch):
    calls = []
    original = gf.FieldCtx.element_at

    def counting(self, index):
        calls.append(index)
        return original(self, index)

    monkeypatch.setattr(gf.FieldCtx, "element_at", counting)
    r = map_census(3, 13, 18013)
    assert r.field.d == 2 and all(c.t is not None for c in r.classes)
    assert len(calls) < 100


def test_split_route_builds_classes_from_integers(monkeypatch):
    calls = {"_rem": 0, "elem": 0, "is_prime": 0, "FieldCtx": 0, "chi": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for n, p, warm in ((7, 29, 13), (19, 37, 113)):
        map_census(3, n, warm)  # fill the per-n caches first
        monkeypatch.setattr(gf, "_rem", counted("_rem", gf._rem))
        monkeypatch.setattr(gf.FieldCtx, "elem", counted("elem", gf.FieldCtx.elem))
        # the normalizing constructor: the split route's moduli are reduced
        monkeypatch.setattr(gf.FieldCtx, "__init__", counted("FieldCtx", gf.FieldCtx.__init__))
        # the characters come from the residues, not from field elements
        monkeypatch.setattr(gf, "chi", counted("chi", gf.chi))
        is_prime = counted("is_prime", numkit.is_prime)
        for module in (numkit, census_module, gf):
            monkeypatch.setattr(module, "is_prime", is_prime)
        for traces in (False, True):
            calls.update(dict.fromkeys(calls, 0))
            record = map_census(3, n, p, traces=traces)
            assert record.field.d == 1 and len(record.classes) > 1
            assert calls == {"_rem": 0, "elem": 0, "is_prime": 1, "FieldCtx": 0,
                             "chi": 0}, \
                (n, p, traces)
        monkeypatch.undo()


def test_s_zero_is_reported_alike_by_both_routes(monkeypatch):
    # no split prime in the sweeps above has s = 0, so chi is forced to 0:
    # the factorization route reads it from gf.chi, the split route from
    # the residue
    monkeypatch.setattr(gf, "chi", lambda s: 0)
    monkeypatch.setattr(census_module, "_chi_of_integer", lambda value, p, d: 0)
    for split_route in (True, False):
        with pytest.raises(BadReduction, match=r"^s = 0 occurs for \(3,7,13\); "
                                               r"no generating triple has t\^2 = 3$"):
            census_module._map_census(3, 7, 13, True, split_route)


def _list_product_mod_p(roots, p):
    """prod (x - s) mod p, one coefficient list per factor: the reference."""
    product = [1]
    for s in roots:
        product = [(a - s * b) % p for a, b in zip([0] + product, product + [0])]
    return product


def _is_split(m, n, p):
    try:
        return field_data(m, n, p).d == 1
    except Inadmissible:
        return False


@pytest.mark.parametrize("m", [3, 4, 6])
def test_packed_product_matches_the_list_product(m, monkeypatch):
    # every product the split route certifies, on every split prime below 2e4
    seen = []
    packed = census_module._product_mod_p

    def recorded(roots, p):
        seen.append((list(roots), p, packed(roots, p)))
        return seen[-1][2]

    monkeypatch.setattr(census_module, "_product_mod_p", recorded)
    primes = primes_upto(20000)
    for n in range(7, 20):
        split = [p for p in primes if _is_split(m, n, p)]
        f1 = s_polynomial(m, n).coeffs
        seen.clear()
        for p in split:
            map_census(m, n, p, traces=False)
        assert [p for _, p, _ in seen] == split and len(split) > 50, (m, n)
        for roots, p, got in seen:
            assert len(roots) == len(f1) - 1
            assert got == _list_product_mod_p(roots, p) == [c % p for c in f1], \
                (m, n, p)


def test_packed_product_at_the_carry_bound():
    # r = 99 roots at a split prime above 2^60; s = 0 puts every p - s at p,
    # the largest slot values the width has to hold
    n_mod = 199
    p = next(q for q in range((1 << 60) // n_mod * n_mod + 1, 1 << 61, n_mod)
             if numkit.is_prime(q))
    record = map_census(3, 199, p, traces=False)
    roots = [c.s.coeffs[0] for c in record.classes]
    assert len(roots) == 99 and p > 1 << 60
    f1 = [c % p for c in s_polynomial(3, 199).coeffs]
    assert census_module._product_mod_p(roots, p) == _list_product_mod_p(roots, p) == f1
    assert census_module._product_mod_p([0] * 99, p) == [0] * 99 + [1]
    assert census_module._product_mod_p([1] * 99, p) == _list_product_mod_p([1] * 99, p)


def test_split_route_checks_still_fire(monkeypatch):
    f1 = s_polynomial(3, 7)
    monkeypatch.setattr(census_module, "s_polynomial",
                        lambda m, n: IntPoly([f1.coeffs[0] + 1, *f1.coeffs[1:]]))
    with pytest.raises(IntegrityError, match=r"^split-route s-values do not multiply "
                                             r"out to f1 mod 13$"):
        map_census(3, 7, 13)
    monkeypatch.undo()
    # a repeated s_j that got past the product is a bad reduction
    n_mod, exponents, indices = census_module._split_plan(7)
    monkeypatch.setattr(census_module, "_split_plan",
                        lambda n: (n_mod, exponents, indices[:1] + indices))
    monkeypatch.setattr(census_module, "_product_mod_p",
                        lambda roots, p: [c % p for c in f1.coeffs])
    with pytest.raises(BadReduction,
                       match=r"^f1 for type \{3,7\} is not squarefree mod 13$"):
        map_census(3, 7, 13)


def test_chi_shortcut_cache_matches_formula():
    primes = primes_upto(400)
    for n in range(7, 100, 2):
        for r in (1, 3, 5, 7):
            for p in [q for q in primes if q % 8 == r][:3]:
                assert (census_module._chi_shortcut(n, p % 8)
                        == census_module._chi_shortcut.__wrapped__(n, p)), (n, p)


@pytest.mark.parametrize("m, bound", [(3, 5000), (4, 2000), (6, 2000)])
def test_census_genus_matches_the_hurwitz_formula(m, bound):
    # the records of the route-equivalence sweep above: split primes, p | N
    checked = 0
    primes = primes_upto(bound)
    for n in range(4, 41):
        if (m - 2) * (n - 2) <= 4:
            continue
        n_mod = n if n % 2 else 2 * n
        for p in primes:
            if p % n_mod not in (1, n_mod - 1) and n_mod % p:
                continue
            record = _outcome(m, n, p, False, True)
            if not isinstance(record, census_module.CensusRecord):
                continue
            assert record.genus == hurwitz_genus(m, n, record.field.q), (m, n, p)
            checked += 1
    assert checked > 400


def six_product_proportional(A, B):
    """Rank <= 1 of the 2 x 4 matrix (A; B): every 2 x 2 minor vanishes."""
    return all(A[i] * B[j] == A[j] * B[i] for i in range(4) for j in range(i + 1, 4))


def test_pivot_proportionality_matches_all_six_products():
    import random

    from irreducibles import random_irreducible

    rng = random.Random(53)
    for p, e in ((3, 1), (3, 4), (5, 3), (13, 2), (499, 3), (65521, 2)):
        ctx = gf.FieldCtx.trusted(p, random_irreducible(p, e, rng), e)

        def draw(zero_share=0.0):
            return tuple(ctx.zero() if rng.random() < zero_share
                         else ctx.elem([rng.randrange(p) for _ in range(e)])
                         for _ in range(4))

        zero = (ctx.zero(),) * 4
        seen = {True: 0, False: 0}
        for _ in range(60):
            A, B = draw(rng.choice((0.0, 0.5))), draw(rng.choice((0.0, 0.5)))
            scale = ctx.elem([rng.randrange(p) for _ in range(e)])
            cases = [(A, B), (A, zero), (zero, B), (zero, zero),
                     (A, tuple(scale * a for a in A)),      # rank 1
                     (tuple(scale * b for b in B), B)]
            if not A[0].is_zero():
                # rank 2 only in the entries after the pivot
                cases.append((A, tuple(scale * a for a in A[:3]) + (A[3] + ctx.one(),)))
            for X, Y in cases:
                expected = six_product_proportional(X, Y)
                assert census_module._proportional(X, Y) == expected, (p, e, X, Y)
                seen[expected] += 1
        assert seen[True] and seen[False]
