"""The public value types: construction, immutability, equality, hash, repr,
pickling and validation, and that importing rqit generates no code."""

import copy
import importlib.util
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rqit import (
    AccelerationParam,
    AngleResult,
    DenseOperator,
    FidelityEstimate,
    FidelityResult,
    FockCutoff,
    MetricValue,
    NegativityResult,
    OrthogonalityParam,
    ProtocolKit,
    SchmidtDecomposition,
)
from rqit.channel import DEFAULT_TRUNCATION_TOL

_A = np.array([0.1, 0.2, 0.3])
_B = np.eye(3)
_C = np.eye(2)

# class: its field names and one set of values, in field order.
VALUES = {
    NegativityResult: (("xi", "r", "log_negativity"), (0.3, 0.6, 0.6455522566968334)),
    AngleResult: (("xi", "r", "theta"), (0.3, 0.85, 0.25)),
    FidelityResult: (("xi", "r", "fidelity_mc", "std_err", "fidelity_exact"), (0.3, 0.6, 0.9, 1e-4, 0.91)),
    FidelityEstimate: (("mean", "std_error", "samples", "seed"), (0.9, 1e-4, 1000, 7)),
    SchmidtDecomposition: (("lambdas", "alice_basis", "rob_basis"), (_A[:2], _C, _C)),
    ProtocolKit: (("povms", "local_ops"), ((_C, _C), (_C,))),
    MetricValue: (("point", "chart", "tensor"), (_A, "bloch", _B)),
    AccelerationParam: (("r",), (0.6,)),
    OrthogonalityParam: (("xi",), (0.3,)),
    FockCutoff: (("n_max", "tol"), (24, 1e-9)),
    DenseOperator: (("entries", "space_tag"), (_C, (2,))),
}
CLASSES = list(VALUES)
HASHABLE = [NegativityResult, AngleResult, FidelityResult, FidelityEstimate,
            AccelerationParam, OrthogonalityParam, FockCutoff]
HOLDS_ARRAYS = [SchmidtDecomposition, ProtocolKit, MetricValue]


def make(cls):
    return cls(*VALUES[cls][1])


def same_fields(a, b):
    for name in VALUES[type(a)][0]:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, tuple):
            assert len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        else:
            assert np.array_equal(x, y) and type(x) is type(y)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, values = VALUES[cls]
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    same_fields(by_position, by_keyword)
    for name, value in zip(names, values):
        if not isinstance(value, np.ndarray):
            assert getattr(by_position, name) == value


def test_fock_cutoff_default_tol():
    assert FockCutoff(24).tol == DEFAULT_TRUNCATION_TOL
    assert FockCutoff(n_max=24) == FockCutoff(24, DEFAULT_TRUNCATION_TOL)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = make(cls)
    for name in VALUES[cls][0]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    a, b = make(cls), make(cls)
    assert a == b and not a != b and hash(a) == hash(b)
    names, values = VALUES[cls]
    other = cls(*values[:-1], values[-1] / 2)
    assert a != other


@pytest.mark.parametrize("cls", HOLDS_ARRAYS, ids=lambda c: c.__name__)
def test_records_of_arrays_compare_by_fields_and_are_unhashable(cls):
    assert make(cls) == make(cls)  # the same array objects
    with pytest.raises(TypeError):
        hash(make(cls))


def test_parameters_of_different_kinds_differ():
    assert AccelerationParam(0.3) != OrthogonalityParam(0.3)
    assert AccelerationParam(0.3) != (0.3,)


def test_dense_operator_compares_by_identity():
    a, b = make(DenseOperator), make(DenseOperator)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    names, values = VALUES[cls]
    text = ", ".join(f"{k}={v!r}" for k, v in zip(names, values))
    assert repr(make(cls)) == f"{cls.__name__}({text})"


def test_repr_text():
    assert repr(NegativityResult(0.3, 0.6, 0.6455522566968334)) == (
        "NegativityResult(xi=0.3, r=0.6, log_negativity=0.6455522566968334)"
    )
    assert repr(FockCutoff(24)) == "FockCutoff(n_max=24, tol=1e-12)"
    assert repr(AccelerationParam(0.6)) == "AccelerationParam(r=0.6)"
    assert repr(OrthogonalityParam(0.3)) == "OrthogonalityParam(xi=0.3)"
    assert repr(DenseOperator(np.eye(2))) == (
        "DenseOperator(entries=array([[1., 0.],\n       [0., 1.]]), space_tag=(2,))"
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("how", ["pickle", "copy"])
def test_round_trip(cls, how):
    obj = make(cls)
    back = pickle.loads(pickle.dumps(obj)) if how == "pickle" else copy.copy(obj)
    assert type(back) is cls
    same_fields(obj, back)
    if cls in HASHABLE:
        assert back == obj and hash(back) == hash(obj)
    name = VALUES[cls][0][0]
    with pytest.raises(AttributeError):
        setattr(back, name, 1)


def test_dense_operator_round_trip_stays_read_only():
    back = pickle.loads(pickle.dumps(DenseOperator(np.eye(2), (2,))))
    assert back.space_tag == (2,) and back.entries.dtype == float
    assert not back.entries.flags.writeable


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AccelerationParam(-0.1), "squeezing parameter must be >= 0, got -0.1"),
        (lambda: OrthogonalityParam(1.0), "xi must lie in [0, 1), got 1.0"),
        (lambda: FockCutoff(0), "n_max must be a positive integer, got 0"),
        (lambda: FockCutoff(5, tol=1), "tol must lie in (0, 1), got 1"),
        (lambda: FockCutoff(5, tol=1e-322),
         "tol must be >= the smallest normal double 2.2250738585072014e-308, got 1e-322"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("n_max", [24.5, 24.0, True, "24", None])
def test_fock_cutoff_rejects_a_non_integer(n_max):
    with pytest.raises(ValueError, match="n_max must be a positive integer"):
        FockCutoff(n_max)


def test_fock_cutoff_stores_a_numpy_integer_as_int():
    cut = FockCutoff(np.int64(24))
    assert type(cut.n_max) is int and cut == FockCutoff(24)
    assert repr(cut) == "FockCutoff(n_max=24, tol=1e-12)"


def test_results_unpack_in_field_order():
    xi, r, value = NegativityResult(0.3, 0.6, 0.5)
    assert (xi, r, value) == (0.3, 0.6, 0.5)


def test_import_generates_no_dataclass():
    code = (
        "import sys, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import rqit, rqit.cli\n"
        "made = [f'{m.__name__}.{k}' for m in list(sys.modules.values())\n"
        "        if m.__name__.split('.')[0] == 'rqit'\n"
        "        for k, v in vars(m).items() if hasattr(v, '__dataclass_fields__')]\n"
        "print(made, before or 'dataclasses' not in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[] True"


def test_every_traced_name_resolves():
    # the benchmark's tracer looks each traced function up with getattr, so a name moved
    # out of its module would stop every traced run; tracer.py imports only the stdlib
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for qual in tracer.FUNCTIONS:
        module, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"rqit.{module}"), name, None)), qual
