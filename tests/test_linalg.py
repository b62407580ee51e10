"""Kernels: eigendecomposition, svd gauge, trace distance, partial trace."""

from __future__ import annotations

import numpy as np
import pytest

from dlgibbs.errors import (
    BadDimensionFactorization,
    DimensionMismatch,
    NotHermitian,
    SupportOutOfRange,
)
from dlgibbs.linalg import (
    _RECON_TOL,
    accumulate,
    devectorize,
    hermitian_eigendecompose,
    partial_trace,
    real_if_exact,
    schatten1_distance,
    singular_value_decompose,
    spectral_norm,
    vectorize,
)


def test_eigendecompose_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eig = hermitian_eigendecompose(x)
    assert np.abs(eig.eigenvalues - np.array([-1.0, 1.0])).max() < 1e-12
    recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.abs(recon - x).max() < 1e-12


def test_eigendecompose_random_hermitian():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    a = a + a.conj().T
    eig = hermitian_eigendecompose(a)
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.abs(recon - a).max() < 1e-10


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eigendecompose(np.zeros((2, 3)))


def test_svd_descending_and_gauge():
    a = np.array([[0.0, -3.0], [2.0, 0.0]], dtype=complex)
    svd = singular_value_decompose(a)
    assert np.abs(svd.s - np.array([3.0, 2.0])).max() < 1e-12
    for j in range(2):
        col = svd.u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        pivot = col[nz[0]]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0
    recon = (svd.u * svd.s) @ svd.vh
    assert np.abs(recon - a).max() < 1e-12


def test_svd_gauge_deterministic_on_complex_input():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    s1 = singular_value_decompose(a)
    s2 = singular_value_decompose(a.copy())
    assert np.array_equal(s1.u, s2.u) and np.array_equal(s1.vh, s2.vh)
    pivots = []
    for j in range(5):
        col = s1.u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.linalg.norm(col))
        pivots.append(col[nz[0]])
    assert max(abs(p.imag) for p in pivots) < 1e-12
    assert min(p.real for p in pivots) > 0


def test_svd_keeps_real_input_real_with_a_sign_gauge():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 4))
    s1 = singular_value_decompose(a)
    s2 = singular_value_decompose(a.copy())
    assert s1.u.dtype == np.float64 and s1.vh.dtype == np.float64
    assert np.array_equal(s1.u, s2.u) and np.array_equal(s1.vh, s2.vh)
    for j in range(4):
        col = s1.u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.linalg.norm(col))
        assert col[nz[0]] > 0
    # -a has the same singular vectors up to sign, and the gauge picks the
    # same U, so the sign lands on Vh.
    flipped = singular_value_decompose(-a)
    assert np.abs(flipped.u[:, :4] - s1.u[:, :4]).max() < 1e-12
    assert np.abs(flipped.vh + s1.vh).max() < 1e-12
    recon = (s1.u[:, :4] * s1.s) @ s1.vh
    assert np.linalg.norm(recon - a) <= _RECON_TOL * np.linalg.norm(a)


def test_real_if_exact_demotes_only_exactly_real_data():
    tiny = np.array([[1.0, 1e-300j], [-1e-300j, 1.0]])
    assert real_if_exact(tiny) is tiny
    cplx = np.array([[0, -1j], [1j, 0]])
    assert real_if_exact(cplx) is cplx
    for dtype in (int, bool, np.float32):
        out = real_if_exact(np.eye(3, dtype=dtype))
        assert out.dtype == np.float64
        assert np.array_equal(out, np.eye(3))
    # The real part of a complex array is a strided view; the result is not.
    zero_imag = np.arange(12.0).reshape(3, 4) + 0j
    out = real_if_exact(zero_imag)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, zero_imag.real)
    real = np.arange(6.0).reshape(2, 3)
    assert real_if_exact(real) is real


def test_accumulate_promotes_only_when_needed():
    a = np.ones((2, 2))
    total = accumulate(None, a)
    assert total is not a and total.dtype == np.float64
    same = accumulate(total, a)
    assert same is total and np.array_equal(total, 2 * a)
    wider = accumulate(total, 1j * a)
    assert wider.dtype == np.complex128
    assert np.array_equal(wider, (2 + 1j) * a)


def test_schatten1_distance_orthogonal_states():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert abs(schatten1_distance(a, b) - 2.0) < 1e-14
    assert schatten1_distance(a, a) == 0.0


def test_schatten1_matches_eigenvalue_sum():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    b = rng.normal(size=(6, 6))
    b = b + b.T
    expected = float(np.abs(np.linalg.eigvalsh(a - b)).sum())
    assert abs(schatten1_distance(a, b) - expected) < 1e-10


def test_vectorize_convention():
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    v = vectorize(e01)
    assert np.array_equal(v, np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(devectorize(v), e01)
    with pytest.raises(DimensionMismatch):
        devectorize(np.zeros(3))


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a @ a.conj().T
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = b @ b.conj().T
    rho = np.kron(a, b)
    left = partial_trace(rho, [0], (2, 3))
    assert np.abs(left - a * np.trace(b)).max() < 1e-12
    right = partial_trace(rho, [1], (2, 3))
    assert np.abs(right - b * np.trace(a)).max() < 1e-12


def test_partial_trace_maximally_entangled():
    n = 2
    d = 2**n
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1.0
    psi /= np.sqrt(d)
    rho = np.outer(psi, psi.conj())
    reduced = partial_trace(rho, [0, 1], (2, 2, 2, 2))
    assert np.abs(reduced - np.eye(d) / d).max() < 1e-12


def test_partial_trace_validation():
    rho = np.eye(4) / 4
    with pytest.raises(BadDimensionFactorization):
        partial_trace(rho, [0], (2, 3))
    with pytest.raises(SupportOutOfRange):
        partial_trace(rho, [2], (2, 2))


def test_spectral_norm():
    assert abs(spectral_norm(np.diag([3.0, -4.0])) - 4.0) < 1e-14
