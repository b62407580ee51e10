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
    devectorize,
    hermitian_eigendecompose,
    partial_trace,
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
