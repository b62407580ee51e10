"""Kernels: eigendecomposition, svd gauge, trace distance, partial trace."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dlgibbs.cli import main
from dlgibbs.errors import (
    BadDimensionFactorization,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    SupportOutOfRange,
)
from dlgibbs.kms import KmsForm, Superoperator, coherent_spectrum, cptp_check
from dlgibbs.linalg import (
    _RECON_TOL,
    gauge_singular_vectors,
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    norm_exceeds,
    partial_trace,
    real_if_exact,
    schatten1_distance,
    singular_value_decompose,
    spectral_norm,
    symmetric_eigenvalues,
    vectorize,
)
from dlgibbs.parent import TermStack
from reference import gauge_reference


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


@pytest.mark.parametrize("side", [4, 8, 16])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_diagonal_input_is_its_own_eigendecomposition(monkeypatch, side, dtype):
    # Ties and signed zeros: the diagonal stable-sorted and the matching
    # columns of the identity, in the dtype eigh gives, with no LAPACK call.
    rng = np.random.default_rng(side)
    diag = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=side)
    a = np.diag(diag).astype(dtype)
    order = sorted(range(side), key=lambda i: diag[i])
    want_w = diag[order]
    want_v = np.eye(side, dtype=np.linalg.eigh(a)[1].dtype)[:, order]

    def no_eigh(*args, **kwargs):
        raise AssertionError("a diagonal input took an eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    eig = hermitian_eigendecompose(a)
    assert eig.eigenvalues.dtype == want_w.dtype and eig.eigenvectors.dtype == want_v.dtype
    assert eig.eigenvalues.tobytes() == want_w.tobytes()
    assert eig.eigenvectors.tobytes() == want_v.tobytes()
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.diag([1.0, 2.0 + 1.0j]))


def test_stacks_decompose_matrix_by_matrix():
    # A stack is one stacked LAPACK call, matrix by matrix, each checked
    # against its own norm; a stack of one matrix is that matrix.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 6, 6))
    a = a + a.transpose(0, 2, 1)
    eig = hermitian_eigendecompose(a)
    for k in range(3):
        w, v = np.linalg.eigh(a[k])
        assert eig.eigenvalues[k].tobytes() == w.tobytes()
        assert eig.eigenvectors[k].tobytes() == v.tobytes()
        assert hermitian_eigenvalues(a)[k].tobytes() == np.linalg.eigvalsh(a[k]).tobytes()
    one = hermitian_eigendecompose(a[:1])
    assert one.eigenvectors.tobytes() == hermitian_eigendecompose(a[0]).eigenvectors.tobytes()
    a[1, 0, 1] += 1.0
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(a)
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues(np.zeros((2, 2, 3)))


def test_eigenvalues_share_the_eigendecompose_checks():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    a = a + a.conj().T
    w = hermitian_eigenvalues(a)
    assert np.abs(w - hermitian_eigendecompose(a).eigenvalues).max() < 1e-12
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_every_eigenvalue_call_raises_no_convergence(monkeypatch):
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    rho = np.eye(2) / 2
    calls = [
        lambda: cptp_check(Superoperator(np.eye(4), "heisenberg", 2)),
        lambda: TermStack(-np.eye(4)[None, None], (0, 1), KmsForm(rho), np.zeros(1), None).eigenvalues,
        lambda: schatten1_distance(rho, rho),
        lambda: coherent_spectrum(-np.eye(4)),
    ]
    for call in calls:
        with pytest.raises(NoConvergence, match="eigvalsh failed to converge"):
            call()


def test_every_svd_call_raises_no_convergence(monkeypatch):
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    # ||a||_F = sqrt(2) and sqrt(min(shape)) = sqrt(2), so a bound of 1.2
    # lies between ||a||_F / sqrt(2) and ||a||_F: only the SVD decides.
    a = np.eye(2)
    calls = [
        lambda: spectral_norm(a),
        lambda: norm_exceeds(a, 1.2),
        lambda: singular_value_decompose(a),
    ]
    for call in calls:
        with pytest.raises(NoConvergence, match="svd failed to converge"):
            call()


def test_a_failed_two_norm_exits_2_from_the_cli(monkeypatch, tmp_path, capsys):
    # Each dl_qsvt transition takes a 2-norm; a failed one is a typed error,
    # so the run exits 2 rather than with a traceback.
    real = np.linalg.svd

    def fail_norm_only(a, *args, compute_uv=True, **kwargs):
        if not compute_uv:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_norm_only)
    cfg = Path(__file__).resolve().parent.parent / "configs" / "anneal.cfg"
    assert main(["anneal", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "NoConvergence: svd failed to converge" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nan_and_inf_raise_typed_errors(bad):
    a = np.array([[bad, 1.0], [1.0, 2.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotHermitian):
            hermitian_eigendecompose(a)
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues(a)
        with pytest.raises(NoConvergence):
            singular_value_decompose(a)


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


@pytest.mark.parametrize("shape", [(5, 5), (6, 4), (4, 6)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_vectorized_gauge_is_bitwise_the_column_loop(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    if dtype is complex:
        a = a + 1j * rng.normal(size=shape)
    a[:, 1] = 0.0  # a zero column of the input
    u, _, vh = np.linalg.svd(a)
    # A zero column of U is left alone; one whose leading entries are below
    # 1e-12 of its norm is gauged by its first significant entry.
    u[:, -1] = 0.0
    u[:2, 0] = 1e-14 * u[:2, 0]
    got_u, got_vh = u.copy(), vh.copy()
    want_u, want_vh = u.copy(), vh.copy()
    gauge_singular_vectors(got_u, got_vh)
    gauge_reference(want_u, want_vh)
    assert got_u.tobytes() == want_u.tobytes()
    assert got_vh.tobytes() == want_vh.tobytes()
    assert not np.array_equal(got_u, u)
    # singular_value_decompose gauges exactly as the loop does; an input
    # with no zero row or column takes one whole SVD.
    a[:, 1] = 1.0
    svd = singular_value_decompose(a)
    u, s, vh = np.linalg.svd(a)
    gauge_reference(u, vh)
    assert svd.u.tobytes() == u.tobytes() and svd.vh.tobytes() == vh.tobytes()
    assert svd.s.tobytes() == s.tobytes()


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


PROPERTY = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def direct_sums(draw, hermitian: bool, largest: int = 4, count: int = 6) -> np.ndarray:
    """A random direct sum, its rows and columns permuted.

    1 to count blocks have 0 to largest rows and columns, or 1 to largest
    and are Hermitian for Hermitian input; an empty side makes zero rows
    or columns, a zero 1 x 1 block a zero row and column of a Hermitian
    matrix, and a repeated block values repeated across blocks.  For
    Hermitian input a single block, or one much larger than the others,
    falls under the whole-matrix rule.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    side = st.integers(1 if hermitian else 0, largest)
    shapes = draw(st.lists(st.tuples(side, side), min_size=1, max_size=count))
    blocks = []
    for p, q in shapes:
        q = p if hermitian else q
        b = rng.normal(size=(p, q)).astype(dtype)
        if dtype is np.complex128:
            b += 1j * rng.normal(size=(p, q))
        blocks.append(0.5 * (b + b.conj().T) if hermitian else b)
    if draw(st.booleans()):
        blocks.append(blocks[0].copy())
    if hermitian and draw(st.booleans()):
        blocks.append(np.zeros((1, 1), dtype))
    m, n = (sum(b.shape[k] for b in blocks) for k in (0, 1))
    assume(m > 0 and n > 0)
    a = np.zeros((m, n), dtype)
    i = j = 0
    for b in blocks:
        a[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    rows = rng.permutation(m)
    return a[np.ix_(rows, rows if hermitian else rng.permutation(n))]


@PROPERTY
@given(direct_sums(hermitian=True, largest=15, count=15))
def test_hermitian_calls_take_one_whole_call_on_direct_sums(a):
    # Sides 1 to 241: the Hermitian calls decompose the whole matrix, as
    # numpy does, whatever its zero pattern; a diagonal one is its own
    # decomposition.
    assert symmetric_eigenvalues(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    assert hermitian_eigenvalues(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        return
    eig = hermitian_eigendecompose(a)
    w, v = np.linalg.eigh(a)
    assert eig.eigenvalues.tobytes() == w.tobytes()
    assert eig.eigenvectors.tobytes() == v.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_svd_gauges_and_checks_each_whole_matrix(monkeypatch, dtype):
    # A stack is one stacked SVD of its whole matrices, zero rows included,
    # each gauged as the column loop gauges it and checked against its own
    # norm.
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 5, 4)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=a.shape)
    a[1, 2] = 0.0
    a[2] *= 1e3
    svd = singular_value_decompose(a)
    assert svd.u.shape == (3, 5, 5) and svd.s.shape == (3, 4) and svd.vh.shape == (3, 4, 4)
    for k in range(3):
        u, s, vh = np.linalg.svd(a[k])
        gauge_reference(u, vh)
        assert svd.u[k].tobytes() == u.tobytes() and svd.vh[k].tobytes() == vh.tobytes()
        assert svd.s[k].tobytes() == s.tobytes()
    real_svd = np.linalg.svd

    def perturbed(x, *args, **kwargs):
        u, s, vh = real_svd(x, *args, **kwargs)
        s = s.copy()
        s[0, 0] += 1e-6
        return u, s, vh

    # Matrix 0's residual, 1e-6, is below the tolerance of the large
    # matrix 2 but not of its own norm.
    monkeypatch.setattr(np.linalg, "svd", perturbed)
    with pytest.raises(NoConvergence):
        singular_value_decompose(a)


@PROPERTY
@given(direct_sums(hermitian=False))
def test_svd_runs_on_the_nonzero_rows_and_columns(a):
    svd = singular_value_decompose(a)
    assert spectral_norm(a) == float(np.linalg.svd(a, compute_uv=False).max())
    m, n = a.shape
    rows, cols = np.flatnonzero(a.any(axis=1)), np.flatnonzero(a.any(axis=0))
    p, q = rows.size, cols.size
    u, s, vh = np.linalg.svd(a[np.ix_(rows, cols)])
    k = s.size
    # U: the submatrix's singular vectors on its rows, then, in row order,
    # each zero row's basis vector, with the submatrix's other left
    # singular vectors at its first row.  Vh: the submatrix's right singular
    # vectors on its columns, then the zero columns' basis rows.
    want_u = np.zeros((m, m), u.dtype)
    want_u[np.ix_(rows, range(k))] = u[:, :k]
    slot = k
    for i in range(m):
        if i not in rows:
            want_u[i, slot] = 1.0
            slot += 1
        elif i == rows[0]:
            want_u[np.ix_(rows, range(slot, slot + p - k))] = u[:, k:]
            slot += p - k
    want_vh = np.zeros((n, n), vh.dtype)
    want_vh[np.ix_(range(q), cols)] = vh
    for slot, j in enumerate(np.setdiff1d(np.arange(n), cols), start=q):
        want_vh[slot, j] = 1.0
    gauge_reference(want_u, want_vh)
    assert svd.u.dtype == svd.vh.dtype == a.dtype
    assert svd.u.tobytes() == want_u.tobytes() and svd.vh.tobytes() == want_vh.tobytes()
    assert svd.s.shape == (min(m, n),) and svd.s[:k].tobytes() == s.tobytes()
    assert np.all(svd.s[k:] == 0.0)
    assert np.linalg.norm(svd.u.conj().T @ svd.u - np.eye(m)) <= _RECON_TOL
    assert np.linalg.norm(svd.vh @ svd.vh.conj().T - np.eye(n)) <= _RECON_TOL
