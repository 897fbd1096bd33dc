"""The result records: immutable tuples with fixed field order."""

import pickle

import pytest

from macbeath import census, density, gf, intpoly, numkit, verify
from macbeath.intpoly import s_polynomial

# field order of every record, as the records have always declared it
FIELDS = {
    census.FieldData: ("m", "n", "p", "n_modulus", "m_modulus", "d", "q"),
    census.TraceClass: ("factor", "e", "s", "chi", "regularity", "t", "field"),
    census.ParityVerdict: ("applicable", "predicted", "observed", "consistent"),
    census.CensusRecord: ("m", "n", "p", "field", "genus", "classes", "k", "l",
                          "parity", "closed_form_count", "count_flag"),
    census.OracleWitness: ("verdict", "degenerate", "field_modulus", "x_matrix",
                           "alpha", "beta", "det_w"),
    density.PrimeSummary: ("p", "residue", "k", "l", "d", "q", "genus"),
    density.SigmaTally: ("m", "n", "stream", "total", "counts", "split",
                         "frequencies", "predicted", "max_abs_deviation", "skipped"),
    density.SweepResult: ("m", "n", "records", "tally"),
    density.GaloisModel: ("m", "n", "r", "structure", "negative_roots"),
    density.PatternCensus: ("m", "n", "bound", "total", "counts", "frequencies",
                            "predicted", "max_abs_deviation", "skipped",
                            "bridge_checked", "bridge_violations"),
    gf.FactorList: ("p", "lead", "factors", "squarefree", "ring"),
    intpoly.PsiOne: ("n", "direct", "mobius", "degenerate"),
    numkit.PrimeStream: ("modulus", "residues", "first", "bound"),
    verify.Check: ("name", "ok", "expected", "actual"),
    verify.SuiteReport: ("suite", "checks", "elapsed"),
}


@pytest.fixture(scope="module")
def instances():
    record = census.map_census(3, 7, 13)
    result = density.sweep(3, 7, density.default_stream(3, 7, first=20), workers=1)
    report = verify.table1()
    found = [
        record.field, record.classes[0], record.parity, record,
        census.matrix_oracle(record.classes[0]),
        result.records[0], result.tally, result, density.galois_model(3, 7),
        density.pattern_census(3, 7, 200, workers=1),
        gf.reduce_and_factor(s_polynomial(3, 7), 13),
        intpoly.psi_at_one(7), result.tally.stream, report.checks[0], report,
    ]
    return {type(x): x for x in found}


def test_every_record_has_an_instance(instances):
    assert set(instances) == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_field_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls, instances):
    record = instances[cls]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_repr_names_the_fields(instances):
    assert repr(instances[census.FieldData]) == (
        "FieldData(m=3, n=7, p=13, n_modulus=7, m_modulus=3, d=1, q=13)")
    assert repr(instances[numkit.PrimeStream]) == (
        "PrimeStream(modulus=7, residues=frozenset({1, 6}), first=20, bound=None)")


def test_factor_list_is_squarefree_by_default():
    assert gf.FactorList(13, 1, ()).squarefree is True


@pytest.mark.parametrize("args, kwargs, message", [
    ((0, frozenset({1})), {"first": 3}, "positive"),
    ((7, frozenset()), {"first": 3}, "nonempty"),
    ((7, frozenset({7})), {"first": 3}, "not coprime"),
    ((7, frozenset({1})), {}, "exactly one"),
    ((7, frozenset({1})), {"first": 3, "bound": 100}, "exactly one"),
])
def test_prime_stream_validates(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        numkit.PrimeStream(*args, **kwargs)


def test_pool_records_survive_pickling(instances):
    for cls in (density.PrimeSummary, census.CensusRecord):
        record = instances[cls]
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record
