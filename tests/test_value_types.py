"""The package's nine value types behave as records: construction by
position or keyword, validation with fixed messages, equality only between
objects of one class, equal hashes for equal frozen objects, a fixed repr,
and pickling and deep copies that give back an equal object.
``RealizationReport`` and ``FitResult`` are mutable and unhashable."""

import copy
import pickle
from fractions import Fraction

import pytest

from biquadrlc.biquad import CanonicalBiquad, GeneralBiquad, PoleSquaredForm
from biquadrlc.network import Leaf, Parallel, Series
from biquadrlc.realize import ConditionRecord, RealizationClass, RealizationReport
from biquadrlc.verify import FitResult

HALF = Fraction(1, 2)
R, L = Leaf("R", HALF), Leaf("L", 2)


def _report():
    return RealizationReport(
        CanonicalBiquad(1, 1, 3),
        RealizationClass.FOUR_ELEMENT,
        None,
        None,
        [ConditionRecord("pr", "0", True)],
        Series((R, L)),
        None,
        128,
    )


# (class, positional arguments, keyword arguments, repr)
FROZEN = [
    (CanonicalBiquad, (1, HALF, 3), {"k": 1, "z": HALF, "p": 3},
     "CanonicalBiquad(k=1, z=Fraction(1, 2), p=3)"),
    (GeneralBiquad, (1, 2, 0, 1, 0, 3), dict(A=1, B=2, C=0, D=1, E=0, F=3),
     "GeneralBiquad(A=1, B=2, C=0, D=1, E=0, F=3)"),
    (PoleSquaredForm, (0, 1, HALF, 2), dict(alpha=0, beta=1, gamma=HALF, p=2),
     "PoleSquaredForm(alpha=0, beta=1, gamma=Fraction(1, 2), p=2)"),
    (Leaf, ("R", HALF), {"kind": "R", "value": HALF}, "Leaf(kind='R', value=Fraction(1, 2))"),
    (Series, ((R, L),), {"children": (R, L)},
     "Series(children=(Leaf(kind='R', value=Fraction(1, 2)), Leaf(kind='L', value=2)))"),
    (Parallel, ((R, L),), {"children": (R, L)},
     "Parallel(children=(Leaf(kind='R', value=Fraction(1, 2)), Leaf(kind='L', value=2)))"),
    (ConditionRecord, ("pr", "0", True), dict(name="pr", value="0", passed=True),
     "ConditionRecord(name='pr', value='0', passed=True)"),
]
MUTABLE = [
    (FitResult, (True, {"R1": 0.5}, 0.0, 7), dict(success=True, values={"R1": 0.5}, residual=0.0, iterations=7),
     "FitResult(success=True, values={'R1': 0.5}, residual=0.0, iterations=7)"),
    (RealizationReport, (CanonicalBiquad(1, 1, 3), RealizationClass.FOUR_ELEMENT, None, None,
                         [ConditionRecord("pr", "0", True)], Series((R, L)), None, 128),
     dict(target=CanonicalBiquad(1, 1, 3), klass=RealizationClass.FOUR_ELEMENT, config=None, transform=None,
          conditions=[ConditionRecord("pr", "0", True)], network=Series((R, L)), residual=None, precision_bits=128),
     "RealizationReport(target=CanonicalBiquad(k=1, z=1, p=3), klass=<RealizationClass.FOUR_ELEMENT: "
     "'FourElement'>, config=None, transform=None, conditions=[ConditionRecord(name='pr', value='0', "
     "passed=True)], network=Series(children=(Leaf(kind='R', value=Fraction(1, 2)), Leaf(kind='L', "
     "value=2))), residual=None, precision_bits=128)"),
]
ALL = FROZEN + MUTABLE
IDS = [case[0].__name__ for case in ALL]


@pytest.mark.parametrize("cls, args, kwargs, text", ALL, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    for name, value in kwargs.items():
        assert getattr(a, name) == value


def test_positional_patterns_match_the_fields_in_order():
    match Series((R, Leaf("C"))):
        case Series((Leaf("R", value), Leaf(kind, None))):
            assert (value, kind) == (HALF, "C")
        case _:
            pytest.fail("no match")
    match CanonicalBiquad(1, HALF, 3):
        case Parallel(_) | Series(_):
            pytest.fail("matched another class")
        case CanonicalBiquad(k, z, p):
            assert (k, z, p) == (1, HALF, 3)
        case _:
            pytest.fail("no match")


def test_leaf_value_defaults_to_none():
    assert Leaf("C") == Leaf("C", None) == Leaf(kind="C")
    assert Leaf("C").value is None
    assert repr(Leaf(None)) == "Leaf(kind=None, value=None)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CanonicalBiquad(0, 1, 2), "k must be strictly positive"),
        (lambda: CanonicalBiquad(1, -1, 2), "z must be strictly positive"),
        (lambda: CanonicalBiquad(1, 1, 0), "p must be strictly positive"),
        (lambda: CanonicalBiquad(1, 2, 2), "p != z is required (otherwise Z is a resistor)"),
        (lambda: GeneralBiquad(1, 1, 1, 1, -1, 1), "E must be nonnegative"),
        (lambda: GeneralBiquad(0, 0, 0, 1, 1, 1), "numerator is identically zero"),
        (lambda: GeneralBiquad(1, 1, 1, 0, 0, 0), "denominator is identically zero"),
        (lambda: PoleSquaredForm(-1, 1, 1, 1), "alpha must be nonnegative"),
        (lambda: PoleSquaredForm(1, -1, 1, 1), "beta must be nonnegative"),
        (lambda: PoleSquaredForm(1, 1, -1, 1), "gamma must be nonnegative"),
        (lambda: PoleSquaredForm(1, 1, 1, 0), "p must be strictly positive"),
        (lambda: PoleSquaredForm(0, 0, 0, 1), "numerator is identically zero"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("cls, args, kwargs, text", FROZEN, ids=IDS[: len(FROZEN)])
def test_frozen_fields_cannot_be_set_or_deleted(cls, args, kwargs, text):
    obj = cls(*args)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert obj == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text", FROZEN, ids=IDS[: len(FROZEN)])
def test_equal_frozen_objects_hash_equal(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equality_holds_only_within_one_class():
    children = (R, L)
    assert Series(children) != Parallel(children)
    assert Series(children) == Series(tuple(children))
    assert Leaf("R", 1) != ("R", 1)
    assert ("R", 1) != Leaf("R", 1)
    assert Leaf("R", 1) != Leaf("R", 2) and Leaf("R", 1) != Leaf("L", 1)
    assert CanonicalBiquad(1, 2, 3) != PoleSquaredForm(1, 2, 3, 4)
    assert ConditionRecord("pr", "0", True) != ("pr", "0", True)
    assert FitResult(True, {}, 0.0, 1) != (True, {}, 0.0, 1)


@pytest.mark.parametrize("cls, args, kwargs, text", MUTABLE, ids=IDS[len(FROZEN):])
def test_reports_stay_mutable_and_unhashable(cls, args, kwargs, text):
    obj = cls(*args)
    with pytest.raises(TypeError):
        hash(obj)
    name, value = next(iter(kwargs.items()))
    setattr(obj, name, "changed")
    assert getattr(obj, name) == "changed" and obj != cls(*args)
    setattr(obj, name, value)
    assert obj == cls(*args)
    # unhashable as a type, not only through a list or dict field
    with pytest.raises(TypeError):
        hash(cls(*(tuple(arg) if isinstance(arg, (list, dict)) else arg for arg in args)))


def test_a_report_field_can_be_reassigned():
    report = _report()
    report.klass = RealizationClass.FIVE_ELEMENT
    report.conditions.append(ConditionRecord("extra", "1", False))
    assert report.klass is RealizationClass.FIVE_ELEMENT
    assert report.to_json()["class"] == "FiveElement"
    assert len(report.conditions) == 2


@pytest.mark.parametrize("cls, args, kwargs, text", ALL, ids=IDS)
@pytest.mark.parametrize("roundtrip", [
    pytest.param(lambda obj: pickle.loads(pickle.dumps(obj)), id="pickle"),
    pytest.param(lambda obj: pickle.loads(pickle.dumps(obj, protocol=0)), id="pickle0"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(copy.copy, id="copy"),
])
def test_pickle_and_copy_give_an_equal_object(cls, args, kwargs, text, roundtrip):
    obj = cls(*args)
    again = roundtrip(obj)
    assert type(again) is cls and again == obj and repr(again) == text
