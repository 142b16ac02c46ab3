"""The contract of the public record types, each checked on live instances.

Every record is immutable (assigning or deleting a field raises
AttributeError), the validating ones reject bad input with fixed error
texts, and two records of one type with equal fields compare equal and, where
the type is hashable, hash equal.  A record is not a tuple: it equals neither
the tuple of its fields nor a record of another type, it cannot be iterated,
and a missing, extra or unknown field is a TypeError.
"""

import copy
import re

import pytest

from conftest import root_datum, unit, variable

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.dynkin import SerreRelation
from liealg.invariants import InvariantSuite
from liealg.forms import KillingMetric


def _cartan(n: int) -> L.CartanMatrix:
    return L.cartan_matrix(root_datum(AlgebraFamily.SL, n + 1))


def _check(n: int) -> L.Check:
    return L.Check.of("axioms", f"check {n}", n % 2 == 0, f"detail {n}")


# (type, field names, hashable, instance factory); the factory gives records
# with different fields for n = 2 and n = 3.
RECORDS = [
    (L.Check, ("suite", "name", "status", "detail"), True, _check),
    (L.CheckReport, ("results",), True, lambda n: L.CheckReport((_check(n), _check(n + 1)))),
    (AlgebraSpec, ("family", "rank"), True, lambda n: AlgebraSpec(AlgebraFamily.SP, n)),
    (L.AlgebraRealization, ("spec", "basis"), True,
     lambda n: L.build(AlgebraSpec(AlgebraFamily.SL, n))),
    (L.EdgeMatrix, ("dim", "edges"), True, lambda n: unit(n, 1, n)),
    (L.MultiPoly, ("nvars", "terms"), True, lambda n: variable(n, n - 1)),
    (L.RootDatum,
     ("realization", "roots", "root_vectors", "positive_roots", "fundamental_roots",
      "coroots", "partners", "fundamental_coroots", "fundamental_weights"),
     False, lambda n: root_datum(AlgebraFamily.SO_ODD, n)),
    (KillingMetric, ("gram", "sigma", "trace"), True,
     lambda n: root_datum(AlgebraFamily.SP, n).killing_metric),
    (L.CartanMatrix, ("entries",), True, _cartan),
    (L.DynkinDiagram, ("cartan",), True, lambda n: L.build_diagram(_cartan(n))),
    (SerreRelation, ("word", "target", "coefficient"), True,
     lambda n: L.serre_presentation(_cartan(2)).relations[n]),
    (L.SerrePresentation, ("cartan", "relations"), True,
     lambda n: L.serre_presentation(_cartan(n))),
    (L.InvariantSuite, ("family", "nvars", "polys"), True,
     lambda n: L.build_suite(AlgebraFamily.SO_EVEN, n)),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls,fields,hashable,make", RECORDS, ids=IDS)
def test_the_annotations_name_the_fields_in_order(cls, fields, hashable, make):
    # Each record names its fields twice, in its __slots__ and in bare annotations; the
    # two lists must not drift apart.
    assert tuple(cls.__annotations__) == fields
    assert cls._names == fields


@pytest.mark.parametrize("cls,fields,hashable,make", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, hashable, make):
    record = make(2)
    assert type(record) is cls
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 0


@pytest.mark.parametrize("cls,fields,hashable,make", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(cls, fields, hashable, make):
    record, other = make(2), make(3)
    twin = cls(**{field: copy.deepcopy(getattr(record, field)) for field in fields})
    assert twin is not record
    assert twin == record and not twin != record
    assert copy.deepcopy(record) == record
    assert other != record
    if hashable:
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


def _built(cls, values: tuple):
    """A record of ``cls`` with these fields, or None where ``cls`` rejects them."""
    try:
        return cls(*values)
    except (TypeError, ValueError, AttributeError):
        return None


@pytest.mark.parametrize("cls,fields,hashable,make", RECORDS, ids=IDS)
def test_a_record_is_not_a_tuple(cls, fields, hashable, make):
    record = make(2)
    values = tuple(getattr(record, field) for field in fields)
    assert record != values and values != record
    with pytest.raises(TypeError):
        iter(record)
    with pytest.raises(TypeError):
        len(record)


@pytest.mark.parametrize("cls,fields,hashable,make", RECORDS, ids=IDS)
def test_a_record_equals_no_record_of_another_type(cls, fields, hashable, make):
    record = make(2)
    values = tuple(getattr(record, field) for field in fields)
    for other_cls, other_fields, *_ in RECORDS:
        if other_cls is not cls and len(other_fields) == len(fields):
            other = _built(other_cls, values)
            if other is not None:
                assert tuple(getattr(other, field) for field in other_fields) == values
                assert other != record and record != other


def test_records_with_equal_fields_differ_by_type():
    suite = L.build_suite(AlgebraFamily.SP, 2)
    metric = KillingMetric(suite.family, suite.nvars, suite.polys)
    assert metric != suite and suite != metric


@pytest.mark.parametrize("cls,fields,hashable,make", RECORDS, ids=IDS)
def test_a_missing_extra_or_unknown_field_is_a_type_error(cls, fields, hashable, make):
    values = tuple(getattr(make(2), field) for field in fields)
    named = dict(zip(fields, values))
    bad_calls = [
        ((), {}),  # every field missing
        ((), dict(list(named.items())[1:])),  # the first field missing
        ((*values, values[0]), {}),  # one value too many
        (values, {"not_a_field": 0}),  # an unknown field
        ((), {**named, "not_a_field": 0}),
        (values, {fields[0]: values[0]}),  # a field given twice
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        if "__init__" not in vars(cls):
            # The generic constructor names the record's fields.
            assert all(field in str(info.value) for field in fields), str(info.value)


def test_the_generic_constructor_text():
    def text(*args, **kwargs) -> str:
        with pytest.raises(TypeError) as info:
            KillingMetric(*args, **kwargs)
        return str(info.value)

    fields = "KillingMetric takes the fields (gram, sigma, trace); got"
    assert text(()) == f"{fields} 1 by position and [] by keyword"
    assert text((), 2, 1, 3) == f"{fields} 4 by position and [] by keyword"
    assert text((), sigma=2, size=1) == f"{fields} 1 by position and ['sigma', 'size'] by keyword"
    assert text((), 2, 1, gram=()) == f"{fields} 3 by position and ['gram'] by keyword"
    assert KillingMetric(trace=1, sigma=2, gram=()) == KillingMetric((), 2, 1)


def test_a_check_report_stores_its_checks_as_a_tuple():
    checks = [_check(2), _check(3)]
    report = L.CheckReport(checks)
    assert report.results == tuple(checks)
    assert report == L.CheckReport(tuple(checks))
    assert hash(L.CheckReport([])) == hash(L.CheckReport(()))


def _raises(text: str):
    return pytest.raises(ValueError, match=f"^{re.escape(text)}$")


def test_check_status_text():
    with _raises("check status must be pass, fail or skip, got 'ok'"):
        L.Check("axioms", "name", "ok", "detail")


@pytest.mark.parametrize("family,n", [(AlgebraFamily.SL, 1), (AlgebraFamily.SP, 0),
                                      (AlgebraFamily.SO_EVEN, 1), (AlgebraFamily.SO_ODD, 0)])
def test_spec_minimum_text(family, n):
    with _raises(f"{family.cli_name} requires n >= {n + 1}, got {n}"):
        AlgebraSpec(family, n)


@pytest.mark.parametrize("entries,text", [
    ((), "Cartan matrix must be square and nonempty"),
    (((2, -1), (-1,)), "Cartan matrix must be square and nonempty"),
    (((2, 0), (0, 1)), "Cartan matrix diagonal entries must equal 2"),
    (((2, -4), (-1, 2)), "off-diagonal Cartan entry -4 outside {0,-1,-2,-3}"),
    (((2, 1), (-1, 2)), "off-diagonal Cartan entry 1 outside {0,-1,-2,-3}"),
    (((2, -1), (0, 2)), "Cartan entries A_ij and A_ji must vanish together"),
])
def test_cartan_matrix_rule_texts(entries, text):
    with _raises(text):
        L.CartanMatrix(entries)


@pytest.mark.parametrize("nvars,terms,text", [
    (2, {(1,): 1}, "bad exponent vector (1,) for 2 variables"),
    (2, {(1, -1): 1}, "bad exponent vector (1, -1) for 2 variables"),
    (0, {}, "polynomial needs a positive number of variables"),
    (-1, {}, "polynomial needs a positive number of variables"),
])
def test_multipoly_texts(nvars, terms, text):
    with _raises(text):
        L.MultiPoly(nvars, terms)
