"""``basis.record`` against ``dataclasses.dataclass(frozen=True)`` as the oracle, for every record class."""

import copy
import dataclasses
import importlib
import inspect
import pickle

import pytest

from cvb.basis import DomainMap, SampleSet1D, record
from cvb.fit1d import ChebModel1D, FitConfig, FitReport, cvb_approximate
from cvb.fit2d import ChebModel2D, SampleSet2D
from cvb.orthogonalize import OrthoSet, orthogonalize
from cvb.rectify import CalibrationMeta, CalibrationModel, WarpSpec
from cvb.synthetic import DistortionParams

MODULES = [importlib.import_module(f"cvb.{name}")
           for name in ("basis", "cli", "fit1d", "fit2d", "orthogonalize", "ppm", "rectify", "synthetic")]
RECORDS = sorted({value for module in MODULES for value in vars(module).values()
                  if isinstance(value, type) and "_record_values" in vars(value)}, key=lambda cls: cls.__qualname__)

# what ``record`` puts in a class body, and the class's own attribute slots, left out of the twin's body
INSTALLED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__match_args__",
             "_record_defaults", "_record_values", "__dict__", "__weakref__"}

_, REPORT = cvb_approximate(SampleSet1D(x=[-1.0, 0.0, 1.0], y=[0.0, 1.0, 4.0]), FitConfig(max_terms=3))
SURFACE = ChebModel2D(coeffs={(1, 0): 2.0, (0, 0): 1.0}, xmap=DomainMap(0, 1), degree_bound=3)
META = CalibrationMeta(epsilon=0.5, degree_bound=3)

# keyword arguments of two unequal instances of each record class
EXAMPLES = {
    DomainMap: ({"lo": -2.0, "hi": 3}, {"lo": 0, "hi": 1.5}),
    SampleSet1D: ({"x": [-1.0, 0.0, 1.0], "y": [0.0, 1.0, 4.0]}, {"x": [0.5], "y": [2.0]}),
    FitConfig: ({"epsilon": 0.1, "max_terms": 5, "extra_sweeps": 1}, {}),
    FitReport: (vars(REPORT), {**vars(REPORT), "trace": (), "skipped": (1,)}),
    ChebModel1D: ({"coeffs": [1.0, 2.0], "xmap": DomainMap(0, 2)}, {"coeffs": [3.0]}),
    SampleSet2D: ({"x": [0.0, 0.5], "y": [0.0, 0.5], "z": [1.0, 2.0]}, {"x": [0.1], "y": [0.2], "z": [0.3]}),
    ChebModel2D: (vars(SURFACE), {"coeffs": {}}),
    OrthoSet: (vars(orthogonalize([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]])), vars(orthogonalize([[1.0, 2.0]]))),
    CalibrationMeta: (vars(META), {"epsilon": 0.25, "degree_bound": 3, "stats": {"fwd_x": REPORT}}),
    CalibrationModel: (dict.fromkeys(("fwd_x", "fwd_y", "inv_u", "inv_v"), SURFACE) | {"meta": META},
                       dict.fromkeys(("fwd_x", "fwd_y", "inv_u", "inv_v"), ChebModel2D({})) | {"meta": META}),
    WarpSpec: ({"width": 4, "height": 3, "window": [0, 1, 0, 2]},
               {"width": 1, "height": 1, "window": (-1, 1, -1, 1)}),
    DistortionParams: ({}, {"rotation": 0.0, "pincushion": -0.02, "center": (10.0, 20.0), "scale": 2.0,
                            "image_size": (20, 40)}),
}

# keyword arguments that each class's __post_init__ refuses
REFUSED = {
    DomainMap: {"lo": 1.0, "hi": 1.0},
    SampleSet1D: {"x": [0.0, 0.0], "y": [1.0, 2.0]},
    FitConfig: {"epsilon": -1.0},
    ChebModel1D: {"coeffs": []},
    SampleSet2D: {"x": [0.0, 0.0], "y": [0.5, 0.5], "z": [1.0, 2.0]},
    ChebModel2D: {"coeffs": {(2, 2): 1.0}, "degree_bound": 3},
    WarpSpec: {"width": 0, "height": 1, "window": (0, 1, 0, 1)},
    DistortionParams: {"scale": 0.0},
}


def twin(cls):
    """The oracle: ``cls``'s own class body, made a frozen dataclass."""
    body = {name: value for name, value in vars(cls).items() if name not in INSTALLED}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def outcome(call):
    """What ``call()`` gives: ("value", result), or ("raises", exception type, message)."""
    try:
        return "value", call()
    except Exception as exc:  # the oracle's exception is the expected outcome
        return "raises", type(exc), str(exc)


def raised(call):
    """The type of the exception ``call()`` raises, or None."""
    result = outcome(call)
    return result[1] if result[0] == "raises" else None


def fields(instance):
    return [getattr(instance, name) for name in type(instance).__match_args__]


def test_every_record_class_has_examples():
    assert RECORDS == sorted(EXAMPLES, key=lambda cls: cls.__qualname__)
    assert len(RECORDS) == 12


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestAgainstDataclass:
    def test_repr_eq_and_hash(self, cls):
        results = []
        for side in (cls, twin(cls)):
            a, a2, b = side(**EXAMPLES[cls][0]), side(**EXAMPLES[cls][0]), side(**EXAMPLES[cls][1])
            c = copy.copy(a)  # a with b's last field, the others the same objects
            object.__setattr__(c, side.__match_args__[-1], fields(b)[-1])
            results.append([outcome(call) for call in (
                lambda: repr(a), lambda: repr(b), lambda: a == a, lambda: a == a2, lambda: a == b, lambda: a != b,
                lambda: a == c, lambda: a == fields(a), lambda: a.__eq__(object()), lambda: hash(a), lambda: hash(b),
                lambda: hash(c))])
        assert results[0] == results[1]

    def test_match_args_and_signature(self, cls, field_signature):
        oracle = twin(cls)
        assert cls.__match_args__ == oracle.__match_args__
        assert field_signature(cls) == inspect.signature(oracle)

    def test_positional_and_keyword_arguments_agree(self, cls):
        a = cls(**EXAMPLES[cls][0])
        assert repr(cls(*fields(a))) == repr(a)

    def test_missing_unexpected_and_repeated_arguments_raise_type_error(self, cls):
        results = []
        for side in (cls, twin(cls)):
            a = side(**EXAMPLES[cls][0])
            first = side.__match_args__[0]
            calls = (lambda: side(), lambda: side(*fields(a), None), lambda: side(**EXAMPLES[cls][0], no_such_field=1),
                     lambda: side(fields(a)[0], **{first: fields(a)[0]}))
            results.append([raised(call) for call in calls])
        assert results[0] == results[1]
        assert results[0][1:] == [TypeError] * 3  # and the first, where a field has no default

    def test_assignment_and_deletion_raise_attribute_error(self, cls):
        for side in (cls, twin(cls)):
            a = side(**EXAMPLES[cls][0])
            for name in (*side.__match_args__, "no_such_field"):
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
                with pytest.raises(AttributeError):
                    delattr(a, name)
            assert repr(a) == repr(side(**EXAMPLES[cls][0]))

    @pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_round_trips_keep_type_fields_and_freezing(self, cls, round_trip):
        a = cls(**EXAMPLES[cls][0])
        b = round_trip(a)
        assert type(b) is cls and repr(b) == repr(a) and list(vars(b)) == list(cls.__match_args__)
        with pytest.raises(AttributeError):
            setattr(b, cls.__match_args__[0], None)

    def test_post_init_refuses_what_it_refused(self, cls):
        if cls not in REFUSED:
            assert "__post_init__" not in vars(cls)
            return
        refused = [outcome(lambda: side(**REFUSED[cls])) for side in (cls, twin(cls))]
        assert refused[0] == refused[1] and refused[0][:2] == ("raises", ValueError)


@record
class Pair:
    left: int
    right: tuple = (1, 2)


@record
class Couple:  # Pair's fields, in another class
    left: int
    right: tuple = (1, 2)


def test_a_record_reads_its_defaults_from_the_class_body():
    assert repr(Pair(0)) == "Pair(left=0, right=(1, 2))" and Pair(0).right is Pair.right
    assert Pair(left=1, right=()) == Pair(1, ()) and hash(Pair(1, ())) == hash((1, ()))


def test_a_record_equals_no_record_of_another_class():
    assert Pair(1, ()) != Couple(1, ()) and not Pair(1, ()) == Couple(1, ())


def test_a_record_needs_two_fields():
    with pytest.raises(TypeError, match="two or more fields"):
        record(type("Single", (), {"__annotations__": {"only": "int"}}))
