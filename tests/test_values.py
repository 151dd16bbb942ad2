"""Value types: immutable, compared and hashed by field values, validated on every build.

And the package surface they are published on.
"""

import copy
import json
import math
import pickle
import types

import pytest

import powfree
from powfree import (
    BoundCertificate,
    CountSeries,
    FjAudit,
    FjAuditRow,
    PowfreeError,
    ReportRow,
    Threshold,
    ValidationError,
    ViolationWitness,
    certify,
    conjecture_report,
    count_free,
    fj_audit,
)
from powfree.cli import main


def _samples():
    series = count_free(10, Threshold.dejean(3), 6)
    audit = fj_audit(3, Threshold.dejean(3), 4)
    return [
        Threshold(3, 2, True),
        ViolationWitness(start=0, period=1, length=2),
        series,
        certify(10, 3, False, series),
        audit.rows[0],
        audit,
        conjecture_report([3], [5], max_length=4)[0],
    ]


SAMPLES = _samples()
TYPES = (Threshold, ViolationWitness, CountSeries, BoundCertificate, FjAuditRow, FjAudit, ReportRow)


def _fields(value):
    return {name: getattr(value, name) for name in type(value)._fields}


def test_samples_cover_the_seven_types():
    assert tuple(type(v) for v in SAMPLES) == TYPES


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
class TestValue:
    def test_fields_cannot_be_assigned_or_deleted(self, value):
        for name in (*type(value)._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")

    def test_equal_values_hash_equal(self, value):
        twin = type(value)(**_fields(value))
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert len({value, twin}) == 1

    def test_never_equal_to_a_tuple_or_another_type(self, value):
        fields = tuple(_fields(value).values())
        assert value != fields and fields != value
        other = type("Other", (type(value),), {"__slots__": ()})(*fields)
        assert other != value and value != other

    def test_pickle_and_deepcopy_round_trip(self, value):
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      copy.copy(value)):
            assert type(again) is type(value) and again == value
            assert _fields(again) == _fields(value)

    def test_replace_keeps_the_other_fields(self, value):
        assert value.replace() == value
        name = type(value)._fields[-1]
        assert _fields(value.replace(**{name: getattr(value, name)})) == _fields(value)
        with pytest.raises(TypeError):
            value.replace(no_such_field=1)

    def test_repr_lists_the_fields_in_order(self, value):
        fields = ", ".join(f"{name}={v!r}" for name, v in _fields(value).items())
        assert repr(value) == f"{type(value).__name__}({fields})"


def test_a_certificate_stores_the_integers_certify_prints(capsys):
    cert = SAMPLES[3]
    numbers = ("x_witness_num", "x_witness_den", "condition_margin_num", "condition_margin_den")
    assert BoundCertificate._fields == ("k", "threshold", *numbers, "verified_up_to",
                                        "series_digest")
    assert main(["certify", "--k", "10", "--n", "3", "--max-len", "6", "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {name: str(getattr(cert, name)) for name in numbers} == \
        {name: doc[name] for name in numbers}
    # Each rational is its reduced pair, den > 0; the certificate has no second form of it.
    for num, den in ((cert.x_witness_num, cert.x_witness_den),
                     (cert.condition_margin_num, cert.condition_margin_den)):
        assert den > 0 and math.gcd(num, den) == 1
    assert not hasattr(cert, "x_witness") and not hasattr(cert, "condition_margin")
    for name in numbers:
        with pytest.raises(AttributeError):
            setattr(cert, name, 2)


def test_threshold_repr_round_trips_through_eval():
    for t in (Threshold(3, 2), Threshold(7, 5, True), Threshold(2)):
        assert eval(repr(t), {"Threshold": Threshold}) == t
    assert repr(Threshold(6, 4)) == "Threshold(num=3, den=2, strict=False)"


def test_replace_validates_and_normalises_again():
    series = count_free(2, Threshold(2), 2)
    with pytest.raises(ValueError, match="unknown method"):
        series.replace(method="guess")
    t = Threshold(3, 2).replace(num=6, den=4)
    assert (t.num, t.den) == (3, 2) and t == Threshold(3, 2)
    with pytest.raises(ValueError):
        Threshold(3, 2).replace(den=3)
    assert series.replace(counts=[1, 2, 2]).counts == (1, 2, 2)


def test_invalid_fields_raise_a_validation_error():
    # A ValueError for library callers; a usage error (exit 2) on the command line.
    with pytest.raises(ValidationError, match="threshold must exceed 1") as info:
        Threshold(1)
    assert isinstance(info.value, ValueError) and isinstance(info.value, PowfreeError)


def test_fields_bind_positionally_by_keyword_and_by_default():
    assert Threshold(3) == Threshold(num=3) == Threshold(3, 1, False)
    assert Threshold(3, strict=True) == Threshold(3, 1, True)
    assert CountSeries(3, Threshold(2), (1,), "canonical").tail_max is None
    with pytest.raises(TypeError, match="missing field 'length'"):
        ViolationWitness(0, 1)
    with pytest.raises(TypeError, match="takes 3 fields"):
        Threshold(3, 2, True, 0)
    with pytest.raises(TypeError, match="repeated"):
        Threshold(3, num=3)
    with pytest.raises(TypeError, match="unexpected"):
        Threshold(3, beta=2)


def test_values_are_unordered():
    with pytest.raises(TypeError):
        Threshold(3, 2) < Threshold(2)


def test_the_package_republishes_each_module_all():
    """Every name of each module's __all__, once, but cache's CacheEntry; nothing else."""
    from powfree import analyze, bounds, cache, counting, errors, words

    owners = {name: module for module in (analyze, bounds, cache, counting, errors, words)
              for name in module.__all__ if name != "CacheEntry"}
    assert sorted(powfree.__all__) == sorted([*owners, "__version__"])
    for name, module in owners.items():
        assert getattr(powfree, name) is getattr(module, name)
    public = {name for name in dir(powfree) if not name.startswith("_")
              and not isinstance(getattr(powfree, name), types.ModuleType)}
    assert public == set(owners)
