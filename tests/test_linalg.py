import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_hermitian, random_density, random_hermitian
from rqit.errors import NotPSDError
from rqit.linalg import (
    DenseOperator,
    matrix_sqrt,
    partial_transpose,
    trace_norm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
BELL = 0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex)


def test_operator_validation():
    with pytest.raises(ValueError):
        DenseOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DenseOperator(np.eye(4), space_tag=(3, 2))
    op = DenseOperator(np.eye(6), space_tag=(2, 3))
    assert op.dim == 6 and op.space_tag == (2, 3)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5  # stored read-only


def test_constructor_copies_its_input():
    m = np.eye(3)
    op = DenseOperator(m)
    assert m.flags.writeable and not op.entries.flags.writeable
    m[0, 0] = 5.0
    assert op.entries[0, 0] == 1.0 and not np.shares_memory(m, op.entries)


def test_operator_dtype_follows_input():
    assert DenseOperator(np.eye(2, dtype=int)).entries.dtype == np.float64
    assert DenseOperator(SX).entries.dtype == np.complex128
    real_bell = DenseOperator(BELL.real, space_tag=(2, 2))
    assert real_bell.entries.dtype == np.float64
    for op in (partial_transpose(real_bell, 0), matrix_sqrt(real_bell)):
        assert op.entries.dtype == np.float64
    complex_bell = DenseOperator(BELL, space_tag=(2, 2))
    assert trace_norm(partial_transpose(real_bell, 0)) == trace_norm(partial_transpose(complex_bell, 0))


def test_partial_transpose_bad_index():
    bell = DenseOperator(BELL, space_tag=(2, 2))
    for k in (2, -1):
        with pytest.raises(IndexError):
            partial_transpose(bell, k)


def test_partial_transpose_bell_negative_eigenvalue():
    pt = partial_transpose(DenseOperator(BELL, space_tag=(2, 2)), 0)
    w = np.linalg.eigvalsh(pt.entries)
    np.testing.assert_allclose(sorted(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution():
    rng = np.random.default_rng(5)
    m = random_density(rng, 6)
    op = DenseOperator(m, space_tag=(2, 3))
    twice = partial_transpose(partial_transpose(op, 1), 1)
    np.testing.assert_array_equal(twice.entries, op.entries)


def test_partial_transpose_product_state_spectrum():
    rng = np.random.default_rng(7)
    joint = DenseOperator(np.kron(random_density(rng, 2), random_density(rng, 2)), space_tag=(2, 2))
    w0 = np.linalg.eigvalsh(joint.entries)
    w1 = np.linalg.eigvalsh(partial_transpose(joint, 0).entries)
    np.testing.assert_allclose(w0, w1, atol=1e-12)


def test_matrix_sqrt_diagonal():
    np.testing.assert_allclose(matrix_sqrt(DenseOperator(np.eye(3))).entries, np.eye(3))
    out = matrix_sqrt(DenseOperator(np.diag([4.0, 9.0])))
    np.testing.assert_allclose(out.entries, np.diag([2.0, 3.0]), atol=1e-14)


def test_matrix_sqrt_round_trip():
    rng = np.random.default_rng(11)
    for d in (2, 5, 9):
        a = random_density(rng, d) * 3.0
        root = matrix_sqrt(DenseOperator(a)).entries
        np.testing.assert_allclose(root @ root, a, atol=1e-9)


def test_matrix_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        matrix_sqrt(DenseOperator(np.diag([1.0, -1e-6])))
    # clamp region passes
    out = matrix_sqrt(DenseOperator(np.diag([1.0, -5e-11])))
    assert out.entries[1, 1] == 0


def test_trace_norm_values():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 4)
    assert abs(trace_norm(DenseOperator(rho)) - 1.0) < 1e-12
    assert abs(trace_norm(DenseOperator(np.diag([1.0, -1.0]))) - 2.0) < 1e-15
    pt = partial_transpose(DenseOperator(BELL, space_tag=(2, 2)), 0)
    assert abs(trace_norm(pt) - 2.0) < 1e-12


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
def test_eigh_reconstructs(seed, d):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, d)
    w, v = np.linalg.eigh(a)
    np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_norm_equals_trace_for_psd(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 5, trace=rng.uniform(0.1, 2.0))
    op = DenseOperator(rho)
    assert abs(trace_norm(op) - op.trace().real) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_transpose_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 6)
    op = DenseOperator(rho, space_tag=(3, 2))
    pt = partial_transpose(op, rng.integers(0, 2))
    assert abs(pt.trace() - op.trace()) < 1e-12
    assert is_hermitian(pt)
