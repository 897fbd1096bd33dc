import contextlib
import json
from fractions import Fraction

import pytest

from macbeath import census as census_module
from macbeath import density, gf, numkit
from macbeath.census import (
    field_data,
    map_census,
    matrix_oracle,
    record_from_json,
    record_to_csv_rows,
    record_to_dict,
    route_product,
)
from macbeath.errors import BadReduction, Error, Inadmissible, IntegrityError
from macbeath.intpoly import IntPoly, psi, s_polynomial
from macbeath.numkit import primes_upto


def s_values(record):
    return sorted(tuple(c.field.coeffs(c.s)) for c in record.classes)


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
    assert len(inner) == 1 and inner[0].field.coeffs(inner[0].s) == (4,)
    assert r.genus == 14
    # classes are ordered by least root
    assert [c.field.coeffs(c.s) for c in r.classes] == [(4,), (6,), (7,)]


def test_census_3_7_43():
    r = map_census(3, 7, 43)
    assert r.k == 2
    assert s_values(r) == [(25,), (29,), (36,)]
    outer = [c for c in r.classes if c.regularity == "outer"]
    assert outer[0].field.coeffs(outer[0].s) == (29,)


def test_census_3_9_19_outer_class():
    r = map_census(3, 9, 19)
    assert (r.k, r.l) == (2, 1)
    outer = [c for c in r.classes if c.regularity == "outer"]
    assert outer[0].field.coeffs(outer[0].s) == (13,)


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
            ctx = c.field
            assert ctx.mul(c.t, c.t) == ctx.sub(ctx.value(shift), ctx.gen())


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


def cps_discriminant(ctx, a, b, c):
    """-D = 4 + abc - a^2 - b^2 - c^2 for a triple of rotation traces, values
    of ctx: the hypermap is inner regular iff -D is a square in the ambient field."""
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    return sub(sub(sub(add(ctx.value(4), mul(mul(a, b), c)), mul(a, a)), mul(b, b)), mul(c, c))


def test_cps_discriminant():
    ctx = gf.FieldCtx.checked(13, [0, 1])
    t = ctx.value(5)
    assert (cps_discriminant(ctx, t, ctx.value(0), ctx.value(1))
            == ctx.sub(ctx.value(3), ctx.mul(t, t)))
    assert cps_discriminant(ctx, ctx.value(0), ctx.value(0), ctx.value(0)) == ctx.value(4)
    # with w^2 = 2 adjoined: (t, 0, w) evaluates to 2 - t^2
    ext = gf.FieldCtx.checked(5, [-2, 0, 1])
    w = ext.gen()
    t5 = ext.value(3)
    assert cps_discriminant(ext, t5, ext.value(0), w) == ext.sub(ext.value(2), ext.mul(t5, t5))
    # the census reads -D off s: for the traces (1, t, 0) of the order-3
    # rotation, a class's t and an involution, -D = 3 - t^2 = s, and the
    # class is inner regular iff -D is an ambient square
    checked = set()
    for p in primes_upto(60)[1:]:
        if p == 7:
            continue  # p | N: f1 is not squarefree
        record = map_census(3, 7, p)
        for c in record.classes:
            if c.t is not None:
                ctx = c.field
                minus_d = cps_discriminant(ctx, ctx.value(1), c.t, ctx.value(0))
                assert minus_d == c.s and gf.chi(ctx, minus_d) == c.chi, (p, c.factor)
                checked.add((record.field.d, c.regularity))
    assert checked == {(d, r) for d in (1, 3) for r in ("inner", "outer")}


def test_matrix_oracle_3_7_13():
    r = map_census(3, 7, 13)
    verdicts = {}
    for c in r.classes:
        w = matrix_oracle(c)
        verdicts[c.field.coeffs(c.s)] = (w.verdict, w.degenerate)
    assert verdicts[(4,)][0] == "inner"
    assert verdicts[(6,)][0] == "outer"
    # at least one degenerate beta = 0 branch occurs here (s=4: -s = 9 = 3^2)
    assert verdicts[(4,)][1] is True


def test_matrix_oracle_rejects_char2():
    r = map_census(3, 7, 2)
    with pytest.raises(Inadmissible):
        matrix_oracle(r.classes[0])


def test_matrix_oracle_agrees_on_extension_fields():
    r = map_census(3, 7, 5)  # d = 3, one class over F_125
    assert len(r.classes) == 1
    w = matrix_oracle(r.classes[0])
    assert w.verdict == r.classes[0].regularity == "inner"  # 5 = 1 mod 4
    r = map_census(3, 7, 3)  # 3 = -1 mod 4: outer
    w = matrix_oracle(r.classes[0])
    assert w.verdict == "outer"


def test_matrix_oracle_extension_branch():
    # (3,8,7): d=2 but the s-values live in F_7, and 3-s is a non-square
    # there, so the trace field F_49 must be adjoined via T^2 = 3 - s
    r = map_census(3, 8, 7)
    assert r.field.d == 2 and all(c.e == 1 for c in r.classes)
    for c in r.classes:
        w = matrix_oracle(c)
        assert w.verdict == c.regularity == "inner"
        assert len(w.field_modulus) - 1 == 2  # worked in the quadratic extension


def test_matrix_oracle_works_in_the_field_of_its_class(monkeypatch):
    # a class whose trace lies in its own field builds no context at all;
    # any other builds one, the quadratic extension of its field that holds t
    built = []
    init = gf.FieldCtx.__init__
    monkeypatch.setattr(gf.FieldCtx, "__init__", lambda ctx, p, modulus, d, ring=None:
                        built.append(modulus) or init(ctx, p, modulus, d, ring))
    seen = {True: 0, False: 0}
    for n, p in ((7, 13), (7, 43), (7, 5), (9, 19), (13, 5), (8, 7)):
        for c in map_census(3, n, p).classes:
            built.clear()
            witness = matrix_oracle(c)
            assert witness.verdict == c.regularity
            if c.t is not None:
                assert built == [] and witness.field_modulus == c.factor, (n, p)
            else:
                assert built == [witness.field_modulus], (n, p)
                assert len(witness.field_modulus) - 1 == 2 * c.e
            seen[c.t is not None] += 1
    assert seen[True] >= 5 and seen[False] >= 2, seen


def test_oracle_roots_each_discriminant_once_and_takes_the_euclidean_verdict(monkeypatch):
    # r and 1 - r give the same discriminant t^2 - 4(r^2 - r + 1), and no
    # other pair does, so the search, which skips a candidate whose partner
    # it has tried, roots each discriminant at most once.  chi(det w) takes
    # the Euclidean resultant, never the closed form that the norm of a
    # linear element (chi(s) among them) takes, even where det w is linear,
    # as every element of a quadratic field is
    roots, norms = [], []
    sqrt, norm = gf.sqrt_in_field, gf._norm
    monkeypatch.setattr(gf, "sqrt_in_field", lambda ctx, v: roots.append(v) or sqrt(ctx, v))
    monkeypatch.setattr(gf, "_norm", lambda ctx, v, resultant=False:
                        norms.append((v, resultant)) or norm(ctx, v, resultant))
    searched = linear = 0
    for n in (7, 8, 9, 11, 13):
        for p in primes_upto(200)[2:]:
            try:
                classes = map_census(3, n, p, traces=False).classes
            except (BadReduction, Inadmissible):
                continue
            for c in classes:
                roots.clear()
                norms.clear()
                witness = matrix_oracle(c)
                tried = roots[1:]  # after t = sqrt(3 - s)
                assert len(set(tried)) == len(tried), (n, p, c.factor)
                searched += len(tried) > 2
                K = gf.FieldCtx(p, witness.field_modulus, c.field.ambient_d)
                if K.ambient_d // K.degree % 2:  # else chi is 1, with no norm
                    det_w = K.value(list(witness.det_w))
                    assert [v for v, resultant in norms if resultant] == [det_w], (n, p)
                    linear += K.degree > 1 and len(witness.det_w) == 2
    assert searched > 40 and linear > 20, (searched, linear)


def test_trace_field_modulus_matches_the_integer_composition():
    # the trace field's modulus, built mod p by Horner's rule, against
    # (-1)^e h(3 - T^2) composed over Z and then reduced
    import random

    rng = random.Random(71)
    three_minus_square = IntPoly([3, 0, -1])
    for p in (3, 5, 7, 499, 65521):
        for e in range(1, 10):
            for h in ((p - 1,) * e + (1,), *(tuple(rng.randrange(p) for _ in range(e)) + (1,)
                                           for _ in range(4))):
                composed = IntPoly(h).compose(three_minus_square)
                if e % 2:
                    composed = -composed
                expected = tuple(c % p for c in composed.coeffs)
                assert census_module._trace_field_modulus(h, p) == expected, (p, h)


def test_class_fields_start_from_the_factorizations_x_power_p(monkeypatch):
    # x^p mod a factor h of f1 is (x^p mod f1) mod h: a d > 1 classify takes
    # x^p by a power once, in f1's ring, and an oracle once more only in a
    # trace field it adjoins, one whose square roots take a Frobenius map; no
    # class field computes its own
    import contextlib
    import io

    from macbeath.cli import main

    powered = []
    real = gf._PackedModulus.pow

    def counted(ring, a, exp):
        if (a, exp) == (1 << ring.w, ring.p):
            powered.append(ring)
        return real(ring, a, exp)

    monkeypatch.setattr(gf._PackedModulus, "pow", counted)
    seen, trace_fields_powered = set(), 0
    for n, p in ((19, 7), (13, 5), (16, 3), (9, 7), (7, 5), (8, 7), (11, 3), (16, 7)):
        record = map_census(3, n, p)
        f1_ring = gf._PackedModulus(gf._monic(gf.reduce_polynomial(s_polynomial(3, n), p), p), p)
        adjoined = [gf._PackedModulus(list(census_module._trace_field_modulus(c.factor, p)), p)
                    for c in record.classes if c.t is None]
        for command in ("classify", "oracle"):
            powered.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--n", str(n), "--p", str(p), "--format", "json"]) == 0
            assert powered[:1] == [f1_ring], (command, n, p)
            rest = powered[1:]
            assert command == "oracle" or not rest, (n, p)
            assert all(rest.count(ring) <= adjoined.count(ring) for ring in rest), (n, p)
            trace_fields_powered += len(rest)
        seen.add((record.classes[0].e > 1, len(record.classes) > 1, bool(adjoined)))
    assert {(True, True, False), (True, False, True), (True, True, True)} <= seen, seen
    assert trace_fields_powered > 0


def test_seeded_class_rows_equal_fresh_ones():
    # every class field of degree > 1 on the d > 1 primes below 500 for the
    # n of the extension benchmark: its x^p and every Frobenius row, whether
    # the field is the factorization's own ring (one class) or a ring seeded
    # from its x^p, equal those of a ring that computed its own
    checked = {True: 0, False: 0}
    for n in (7, 8, 9, 11, 13, 16, 19):
        N = numkit.trace_modulus(n)
        for p in primes_upto(500)[1:]:
            if N % p == 0 or p % N in (1, N - 1):
                continue
            try:
                classes = map_census(3, n, p, traces=False).classes
            except BadReduction:
                continue
            for c in classes:
                if c.e > 1:
                    ring, fresh = c.field.ring, gf._PackedModulus(list(c.factor), p)
                    assert ring == fresh and ring._frobenius[1] == fresh.x_power_p(), \
                        (n, p, c.factor)
                    x = 1 << ring.w  # a map builds every row: x^(p^e) = x in F_{p^e}
                    assert ring.frobenius_map(x, c.e) == fresh.frobenius_map(x, c.e) == x
                    assert ring._frobenius == fresh._frobenius, (n, p, c.factor)
                    checked[len(classes) == 1] += 1
    assert checked[True] > 350 and checked[False] > 200, checked


def test_a_one_class_field_is_the_factorizations_ring(monkeypatch):
    # a d > 1 prime where f1 mod p is irreducible builds one ring, the
    # factorization's, which takes x^p by a power and is the class field:
    # nothing is seeded.  k classes of degree e > 1 build 1 + k rings, each
    # class field seeded from f1's x^p and none powered
    events = []
    init, power, x_power_p = (gf._PackedModulus.__init__, gf._PackedModulus.pow,
                              gf._PackedModulus.x_power_p)

    def counted_init(ring, f, p, series=None):
        events.append(("ring", len(f) - 1))
        init(ring, f, p, series)

    def counted_pow(ring, a, exp):
        if (a, exp) == (1 << ring.w, ring.p):
            events.append(("power", ring.d))
        return power(ring, a, exp)

    def counted_x_power_p(ring, xp=None):
        if xp is not None:
            events.append(("seed", ring.d))
        return x_power_p(ring, xp)

    monkeypatch.setattr(gf._PackedModulus, "__init__", counted_init)
    monkeypatch.setattr(gf._PackedModulus, "pow", counted_pow)
    monkeypatch.setattr(gf._PackedModulus, "x_power_p", counted_x_power_p)
    seen = {}
    for n in range(7, 20):
        N = numkit.trace_modulus(n)
        degree = s_polynomial(3, n).degree
        for p in primes_upto(500)[1:]:
            if N % p == 0 or p % N in (1, N - 1):
                continue
            for traces in (True, False):
                events.clear()
                try:
                    classes = map_census(3, n, p, traces=traces).classes
                except BadReduction:
                    continue
                k, e = len(classes), classes[0].e
                expected = [("ring", degree), ("power", degree)]
                if k > 1 and e > 1:
                    expected += [("ring", e), ("seed", e)] * k
                assert events == expected, (n, p, traces)
                seen[k == 1, e > 1] = seen.get((k == 1, e > 1), 0) + 1
    assert seen[True, True] > 1000 and seen[False, True] > 250 and seen[False, False] > 200, seen


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


def test_route_product_takes_its_fields_from_the_trace_factorization(monkeypatch):
    # the oracle suite's route items: each Psi_N factor's field comes from
    # FactorList.field, so a lone factor is the factorization's ring and the
    # only x^p by a power is that of the distinct-degree split; f1 is never
    # factored, and its conjugates come from the Frobenius rows
    rings, powers, factored = [], [], []
    init, power, factor = gf._PackedModulus.__init__, gf._PackedModulus.pow, gf.reduce_and_factor

    def counted_init(ring, f, p, series=None):
        rings.append(len(f) - 1)
        init(ring, f, p, series)

    def counted_pow(ring, a, exp):
        if exp >= ring.p:
            powers.append(exp)
        return power(ring, a, exp)

    def counted_factor(f, p):
        factored.append(f)
        return factor(f, p)

    monkeypatch.setattr(gf._PackedModulus, "__init__", counted_init)
    monkeypatch.setattr(gf._PackedModulus, "pow", counted_pow)
    monkeypatch.setattr(gf, "reduce_and_factor", counted_factor)
    cases, per_case = 0, {}
    for n in range(7, 17):
        for p in primes_upto(500):
            start, start_factored = len(rings), len(factored)
            try:
                left, right = route_product(3, n, p)
            except (BadReduction, Inadmissible):
                continue
            assert left == right, (n, p)
            assert factored[start_factored:] == [psi(numkit.trace_modulus(n))], (n, p)
            per_case[n, p] = len(rings) - start
            cases += 1
    assert cases == 936
    assert len(rings) <= 1524 and len(powers) <= cases, (len(rings), len(powers))
    assert [per_case[pair] for pair in ((7, 5), (9, 7), (11, 3))] == [1, 1, 1]


def test_route_product_checks_its_characteristic_polynomials_stay_in_f_p(monkeypatch):
    # a Frobenius map that returns its input makes every conjugate s itself:
    # (X - s)^3 for the cubic Psi_7 mod 5 has coefficients outside F_5
    monkeypatch.setattr(gf._PackedModulus, "frobenius_map", lambda ring, h, times=1: h)
    with pytest.raises(IntegrityError, match="characteristic polynomial coefficients "
                                             "left the prime field"):
        route_product(3, 7, 5)


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
    with pytest.raises(ValueError, match="differ from the recomputed census"):
        record_from_json(json.dumps(data))
    data = json.loads(record_to_json(map_census(3, 7, 13)))
    data["p"] = 15
    with pytest.raises(Inadmissible, match="not a prime"):
        record_from_json(json.dumps(data))


def test_record_from_json_recomputes_a_forged_verdict():
    # the inner class relabelled outer, with k and l to match: the loader
    # never reads a verdict, so it returns the true record
    true = map_census(3, 7, 13)
    data = json.loads(record_to_json(true))
    inner = next(c for c in data["classes"] if c["regularity"] == "inner")
    inner.update(chi=-1, regularity="outer")
    data.update(k=0, l=3)
    record = record_from_json(json.dumps(data))
    assert record == true and (record.k, record.l) == (1, 2)
    assert record_to_dict(record) != data


@pytest.mark.parametrize("key, value", [("d", 2), ("q", "169"), ("factor", [0, 1])])
def test_record_from_json_rejects_other_field_data_or_factors(key, value):
    data = json.loads(record_to_json(map_census(3, 7, 13)))
    if key == "factor":
        data["classes"][0]["factor"] = value
    else:
        data[key] = value
    with pytest.raises(ValueError, match="differ from the recomputed census"):
        record_from_json(json.dumps(data))


def test_csv_rows():
    r = map_census(3, 7, 13)
    rows = record_to_csv_rows(r)
    assert len(rows) == 3
    assert rows[0][:3] == (3, 7, 13)
    assert {row[13] for row in rows} == {"inner", "outer"}


# ---------------------------------------------------------------------------
# split-prime (Lucas ladder) route against the factorization route


@contextlib.contextmanager
def _factorization_route():
    """The census with the ladder giving no witness, as it gives none off the
    split primes: the factorization route on every p, the reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census_module, "_ladder", lambda mt, p: None)
        yield


_ROUTES = (contextlib.nullcontext, _factorization_route)  # the census's own, the reference


def _outcome(m, n, p, traces, route=contextlib.nullcontext):
    with route():
        try:
            return map_census(m, n, p, traces=traces)
        except Error as exc:
            return (type(exc).__name__, str(exc))


_ERROR_PREFIX = {"BadReduction": "bad-reduction", "Inadmissible": "inadmissible"}


def _summary_matches(m, n, p, ref):
    """The sweep's per-prime summary (the d = 1 witness and its checker) agrees
    with a factorization-route record, or with its error type and text."""
    got = density._summarize(m, n, p)
    if isinstance(ref, census_module.CensusRecord):
        assert isinstance(got, density.PrimeSummary), (m, n, p, got)
        assert (got.k, got.l, got.d, got.q, got.genus) == \
            (ref.k, ref.l, ref.field.d, ref.field.q, ref.genus), (m, n, p)
    else:
        kind, text = ref
        assert got == (p, f"{_ERROR_PREFIX[kind]}: {text}"), (m, n, p)


def _without_traces(record):
    data = json.loads(record_to_json(record))
    for c in data["classes"]:
        c["t"] = None
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("m, bound", [(3, 5000), (4, 2000), (6, 2000)])
def test_split_route_matches_factorization_route(m, bound):
    checked = 0
    primes = primes_upto(bound)
    for n in range(4, 41):
        if (m - 2) * (n - 2) <= 4:
            continue
        shift = census_module.map_type(m, n).shift
        n_mod = n if n % 2 else 2 * n
        for p in primes:
            if p % n_mod not in (1, n_mod - 1) and n_mod % p:
                continue  # d > 1: no split route
            try:
                if field_data(m, n, p).d != 1:
                    continue  # d > 1 takes the factorization route itself
            except Inadmissible:
                pass  # p | N, or no order-m rotations: both routes must fail alike
            ref = _outcome(m, n, p, False, _factorization_route)
            got = _outcome(m, n, p, False)
            got_traced = _outcome(m, n, p, True)
            _summary_matches(m, n, p, ref)
            if not isinstance(ref, census_module.CensusRecord):
                assert got == got_traced == ref, (m, n, p)
                continue
            assert record_to_json(got) == record_to_json(ref), (m, n, p)
            # with traces on only t may change: each t is the smaller root of
            # shift - s, and every tenth prime is compared whole
            assert _without_traces(got_traced) == record_to_json(ref), (m, n, p)
            for c in got_traced.classes:
                (t,) = c.field.coeffs(c.t) or (0,)
                assert (t * t + c.field.coeffs(c.s)[0] - shift) % p == 0 and 2 * t <= p
            if checked % 10 == 0:
                ref_traced = _outcome(m, n, p, True, _factorization_route)
                assert record_to_json(got_traced) == record_to_json(ref_traced), (m, n, p)
            checked += 1
    assert checked > 400


@pytest.mark.parametrize("p", [18446744073709531777, 18446744073709532281,
                               18446744073709551557])
def test_split_route_matches_factorization_route_at_64_bits(p):
    # the first two are = 1 mod 7 (the F_p* branch), the last = -1 mod 7 (the
    # norm-one torus); all three are = 1 or -1 mod 3, so d = 1 for m = 3
    assert census_module._ladder(census_module.map_type(3, 7), p) is not None
    for traces in (False, True):
        got = map_census(3, 7, p, traces=traces)
        with _factorization_route():
            ref = map_census(3, 7, p, traces=traces)
        assert record_to_json(got) == record_to_json(ref)
    _summary_matches(3, 7, p, ref)


def test_split_route_errors_match_on_bad_p():
    # 43 * 71, 55 = 5 * 11, 5 * 17 * 29 and 2^64 + 13 (a prime) are = +-1 mod 7
    # and mod 3.  The ladder gives None on 43 * 71 (its Euler value at w = 2
    # proves it composite), on 55 = -1 mod 7 (the Euler value of c^2 - 4 at
    # c = 3 is 25, neither 0 nor +-1) and on 2^64 + 13 (out of range); the
    # Carmichael number 2465 = 5 * 17 * 29 = 1 mod 7 passes the Euler step at
    # w = 2 and gets a witness.  Both routes' prime check, and summary's,
    # reject every p here with one message.
    type_37 = census_module.map_type(3, 7)
    assert census_module._ladder(type_37, 5 * 17 * 29) is not None
    for p in (-13, 0, 1, 15, 55, 91, 43 * 71, 5 * 17 * 29, 1 << 64, (1 << 64) + 13):
        for route in _ROUTES:
            with route(), pytest.raises(Inadmissible, match="not a prime below 2"):
                map_census(3, 7, p, traces=False)
        _summary_matches(3, 7, p, ("Inadmissible", f"p={p} is not a prime below 2^64"))
    assert census_module._ladder(type_37, 43 * 71) is None
    assert pow(3 * 3 - 4, 27, 55) == 25 and census_module._ladder(type_37, 55) is None
    assert census_module._ladder(type_37, (1 << 64) + 13) is None
    for m, n, p in ((3, 7, 7), (4, 7, 2), (6, 7, 3), (6, 7, 2), (4, 9, 17)):
        _summary_matches(m, n, p, _outcome(m, n, p, False, _factorization_route))
    # bad (m, n) is reported before p is looked at, as by the factorization route
    for route in _ROUTES:
        with route(), pytest.raises(Inadmissible, match="m=5 is unsupported"):
            map_census(5, 7, 15, traces=False)
        with route(), pytest.raises(Inadmissible, match="not hyperbolic"):
            map_census(3, 6, 15, traces=False)


_BAD_TYPES = {
    (5, 7): "m=5 is unsupported: the order-5 trace square is irrational",
    (2, 9): "m=2 is unsupported: the order-2 trace square is irrational",
    (3, 6): "type {3,6} is not hyperbolic",
    (4, 4): "type {4,4} is not hyperbolic",
    (6, 3): "type {6,3} is not hyperbolic",
}


@pytest.mark.parametrize("m, n", sorted(_BAD_TYPES))
def test_every_public_entry_point_rejects_a_bad_type_before_reading_p(m, n):
    # None for p (and for the stream, the bound and the witness) fails on
    # any use, so each call shows that map_type's check came first
    calls = {
        "map_census": lambda: map_census(m, n, None),
        "summary": lambda: census_module.summary(m, n, None),
        "field_data": lambda: field_data(m, n, None),
        "check_witness": lambda: census_module.check_witness(m, n, None, None),
        "route_product": lambda: route_product(m, n, None),
        "default_stream": lambda: density.default_stream(m, n, first=None, bound=None),
        "sweep": lambda: density.sweep(m, n, None, workers=1),
        "pattern_census": lambda: density.pattern_census(m, n, None, workers=1),
        "galois_model": lambda: density.galois_model(m, n),
        "negative_root_count": lambda: density.negative_root_count(n, m),
    }
    for name, call in calls.items():
        with pytest.raises(Inadmissible) as caught:
            call()
        assert str(caught.value) == _BAD_TYPES[m, n], name


def test_split_route_never_factors(monkeypatch):
    def no_factoring(*args):
        raise AssertionError("reduce_and_factor called on a split prime")

    monkeypatch.setattr(gf, "reduce_and_factor", no_factoring)
    r = map_census(3, 7, 13)
    assert [c.field.coeffs(c.s) for c in r.classes] == [(4,), (6,), (7,)]
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
    calls = {"_rem": 0, "value": 0, "is_prime": 0, "FieldCtx": 0, "checked": 0,
             "_PackedModulus": 0, "chi": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for n, p, warm in ((7, 29, 13), (19, 37, 113)):
        map_census(3, n, warm)  # fill the per-n caches first
        monkeypatch.setattr(gf, "_rem", counted("_rem", gf._rem))
        monkeypatch.setattr(gf.FieldCtx, "value", counted("value", gf.FieldCtx.value))
        # one degree-1 context per class from its reduced modulus: no checks
        # and no packed ring
        monkeypatch.setattr(gf.FieldCtx, "__init__", counted("FieldCtx", gf.FieldCtx.__init__))
        monkeypatch.setattr(gf.FieldCtx, "checked",
                            staticmethod(counted("checked", gf.FieldCtx.checked)))
        monkeypatch.setattr(gf._PackedModulus, "__init__",
                            counted("_PackedModulus", gf._PackedModulus.__init__))
        # the characters come from the residues, not from field elements
        monkeypatch.setattr(gf, "chi", counted("chi", gf.chi))
        is_prime = counted("is_prime", numkit.is_prime)
        for module in (numkit, census_module, gf):
            monkeypatch.setattr(module, "is_prime", is_prime)
        for traces in (False, True):
            calls.update(dict.fromkeys(calls, 0))
            record = map_census(3, n, p, traces=traces)
            assert record.field.d == 1 and len(record.classes) > 1
            assert calls == {"_rem": 0, "value": 0, "is_prime": 1,
                             "FieldCtx": len(record.classes), "checked": 0,
                             "_PackedModulus": 0, "chi": 0}, \
                (n, p, traces)
        monkeypatch.undo()


def test_s_zero_is_reported_alike_by_both_routes(monkeypatch):
    # no split prime in the sweeps above has s = 0, so chi is forced to 0:
    # the factorization route reads it from gf.chi, the split route from
    # the residue
    monkeypatch.setattr(gf, "chi", lambda ctx, s: 0)
    monkeypatch.setattr(census_module, "_characters", lambda values, p: [0] * len(values))
    for route in _ROUTES:
        with route(), pytest.raises(BadReduction, match=r"^s = 0 occurs for \(3,7,13\); "
                                                        r"no generating triple has t\^2 = 3$"):
            map_census(3, 7, 13)


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
    roots = [c.field.coeffs(c.s)[0] for c in record.classes]
    assert len(roots) == 99 and p > 1 << 60
    f1 = [c % p for c in s_polynomial(3, 199).coeffs]
    assert census_module._product_mod_p(roots, p) == _list_product_mod_p(roots, p) == f1
    assert census_module._product_mod_p([0] * 99, p) == [0] * 99 + [1]
    assert census_module._product_mod_p([1] * 99, p) == _list_product_mod_p([1] * 99, p)


def test_split_route_checks_still_fire(monkeypatch):
    # the type's record with one constant altered, in every census lookup
    real = census_module.map_type(3, 7)
    f1 = real.f1
    monkeypatch.setattr(census_module, "map_type", lambda m, n: real._replace(
        f1=IntPoly([f1.coeffs[0] + 1, *f1.coeffs[1:]])))
    with pytest.raises(IntegrityError, match=r"^split-route s-values do not multiply "
                                             r"out to f1 mod 13$"):
        map_census(3, 7, 13)
    monkeypatch.undo()
    # a repeated s_j that got past the product is a bad reduction
    monkeypatch.setattr(census_module, "map_type",
                        lambda m, n: real._replace(indices=real.indices[:1] + real.indices))
    monkeypatch.setattr(census_module, "_product_mod_p",
                        lambda roots, p: [c % p for c in f1.coeffs])
    with pytest.raises(BadReduction,
                       match=r"^f1 for type \{3,7\} is not squarefree mod 13$"):
        map_census(3, 7, 13)


def test_check_witness_rejects_a_bad_witness():
    m, n, p = 3, 7, 13
    good, _ = census_module._ladder(census_module.map_type(m, n), p)
    assert good == [6, 4, 7]  # j = 1, 2, 3: the ladder's order, not sorted
    checked = census_module.check_witness(m, n, p, good)
    record = map_census(m, n, p)
    assert checked == (record.field, record.k, record.l, record.genus,
                       [-1, 1, -1], record.parity)  # chi of 6, 4, 7 mod 13
    assert census_module.summary(m, n, p)[:5] == \
        (record.field, record.k, record.l, record.genus, record.parity)
    assert tuple(census_module.summary(m, n, p, traces=True)[5]) == record.classes
    product = r"^split-route s-values do not multiply out to f1 mod 13$"
    for bad in ([6, 4, 8], [6, 6, 7], [0, 4, 7], [6, 4], [6, 4, 7, 1]):
        with pytest.raises(IntegrityError, match=product):
            census_module.check_witness(m, n, p, bad)
    with pytest.raises(Inadmissible, match=r"^p=15 is not a prime below 2\^64$"):
        census_module.check_witness(m, n, 15, good)
    # for m = 4, p = 13 splits f1 (13 = -1 mod 7), whose roots are the m = 3
    # ones minus 1, but not the order-4 rotations (13 = 5 mod 8): d = 2
    assert census_module._ladder(census_module.map_type(4, 7), 13) is None
    with pytest.raises(Inadmissible, match=r"^p=13 is not a split prime for type "
                                           r"\{4,7\} \(d=2\)$"):
        census_module.check_witness(4, 7, 13, [s - 1 for s in good])
    with pytest.raises(Inadmissible, match="not a split prime"):
        census_module.check_witness(3, 7, 5, [])  # d = 3


def test_checker_accepts_the_factorization_routes_witness():
    # the census hands the checker only the ladder's witness, but it checks
    # any d = 1 witness: the s-values of the factorization route's classes
    # pass it, and altering one of them fails its product check
    checked = 0
    for m in (3, 4, 6):
        for n in range(7, 20):
            for p in primes_upto(500):
                if not _is_split(m, n, p):
                    continue
                ref = _outcome(m, n, p, False, _factorization_route)
                if not isinstance(ref, census_module.CensusRecord):
                    continue  # a bad reduction: no witness to check
                witness = [c.s for c in ref.classes]
                assert census_module.check_witness(m, n, p, witness) == \
                    (ref.field, ref.k, ref.l, ref.genus, [c.chi for c in ref.classes],
                     ref.parity), (m, n, p)
                i = p % len(witness)
                witness[i] = (witness[i] + 1) % p
                with pytest.raises(IntegrityError, match="do not multiply out"):
                    census_module.check_witness(m, n, p, witness)
                checked += 1
    assert checked > 450


def test_check_witness_reports_repeated_and_zero_values(monkeypatch):
    # values that pass the product check but repeat, or vanish, are the
    # split route's bad reductions
    m, n, p = 3, 7, 13
    f1 = [c % p for c in s_polynomial(m, n).coeffs]
    monkeypatch.setattr(census_module, "_product_mod_p", lambda roots, p: f1)
    with pytest.raises(BadReduction, match=r"^f1 for type \{3,7\} is not squarefree mod 13$"):
        census_module.check_witness(m, n, p, [7, 7, 6])
    with pytest.raises(BadReduction, match=r"^s = 0 occurs for \(3,7,13\)"):
        census_module.check_witness(m, n, p, [0, 4, 6])


def test_chi_shortcut_cache_matches_formula():
    # the type's table by p mod 8 is the formula at p, and both are the
    # character of Psi_n(1) mod p wherever that is nonzero
    checked = 0
    for n in range(7, 100, 2):
        mt = census_module.map_type(3, n)
        for p in primes_upto(2000)[1:]:
            assert mt.chi_shortcut[p % 8] == census_module._chi_shortcut(n, p), (n, p)
            character = census_module._characters((mt.psi_one,), p)[0]
            if character:
                assert mt.chi_shortcut[p % 8] == character, (n, p)
                checked += 1
    assert checked == 14194


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
            record = _outcome(m, n, p, False)
            if not isinstance(record, census_module.CensusRecord):
                continue
            assert record.genus == hurwitz_genus(m, n, record.field.q), (m, n, p)
            checked += 1
    assert checked > 400


def six_product_proportional(ctx, A, B):
    """Rank <= 1 of the 2 x 4 matrix (A; B) of values of ctx: every 2 x 2
    minor vanishes."""
    return all(ctx.mul(A[i], B[j]) == ctx.mul(A[j], B[i])
               for i in range(4) for j in range(i + 1, 4))


def test_pivot_proportionality_matches_all_six_products():
    import random

    from irreducibles import random_irreducible

    rng = random.Random(53)
    for p, e in ((3, 1), (3, 4), (5, 3), (13, 2), (499, 3), (65521, 2)):
        ctx = gf.FieldCtx(p, random_irreducible(p, e, rng), e)

        def draw(zero_share=0.0):
            return tuple(ctx.value(0) if rng.random() < zero_share
                         else ctx.value([rng.randrange(p) for _ in range(e)])
                         for _ in range(4))

        zero = (ctx.value(0),) * 4
        seen = {True: 0, False: 0}
        for _ in range(60):
            A, B = draw(rng.choice((0.0, 0.5))), draw(rng.choice((0.0, 0.5)))
            scale = ctx.value([rng.randrange(p) for _ in range(e)])
            cases = [(A, B), (A, zero), (zero, B), (zero, zero),
                     (A, tuple(ctx.mul(scale, a) for a in A)),      # rank 1
                     (tuple(ctx.mul(scale, b) for b in B), B)]
            if A[0]:
                # rank 2 only in the entries after the pivot
                cases.append((A, tuple(ctx.mul(scale, a) for a in A[:3])
                              + (ctx.add(A[3], ctx.value(1)),)))
            for X, Y in cases:
                # the oracle's call, on the field's values
                expected = six_product_proportional(ctx, X, Y)
                assert census_module._proportional(ctx, X, Y) == expected, (p, e, X, Y)
                seen[expected] += 1
        assert seen[True] and seen[False]
