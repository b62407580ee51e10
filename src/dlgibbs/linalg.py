"""Dense linear algebra kernels with pinned conventions.

Thin wrappers over numpy that fix the conventions the rest of the
package relies on: eigenvalues ascending, singular values descending with a
deterministic sign gauge, trace distance with diameter 2, and a partial
trace that validates its factorization.  All checks raise typed errors
from :mod:`dlgibbs.errors` instead of letting numpy failures propagate
raw.  The wrappers keep the dtype of their input, so exactly-real data
run the real LAPACK and BLAS routines; real_if_exact is the one place
where complex data become real.

Every eigen- and singular-value decomposition of the package runs here,
and only here is it decided what a decomposition runs on.

singular_value_decompose takes one SVD of the submatrix on a matrix's
nonzero rows and columns (of a itself when none is zero), pads s with
exact zeros, and completes U and Vh with standard basis vectors; the rule
reads the exact zero pattern, with no tolerance.  With k the submatrix's
number of singular values, U's columns past k are the zero rows' basis
vectors in row order, with the submatrix's other left singular vectors at
the slot of its first row, and Vh's rows past k are the submatrix's other
right singular vectors, then the zero columns' basis rows in column order.
That fixes how the null spaces of U and Vh pair, which even-degree
projectors read (projector.ProjectorResult).

Every call also takes a stack (..., p, q), as one stacked LAPACK call
with each matrix checked against its own norm: the sectors of
hamiltonians.Sectors come as stacks, so the mix's sums, kernels and
rounds, every parent spectrum of a diagonal-H model and the dl_qsvt
anneal's ground clusters, term bases, DL operators and transitions are
decomposed sector by sector, and the anneal's parent terms at all its
temperatures in one call (a leading temperature axis).  partial_trace
and frobenius_norms take such stacks too, matrix by matrix.  A stack's
SVD is of its whole matrices.  An exactly diagonal matrix is its own
eigendecomposition, with no LAPACK call: the diagonal stable-sorted and
the matching columns of the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionFactorization,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    SupportOutOfRange,
)
from .tolerances import GAUGE_PIVOT, HERMITIAN_INPUT_TOL
from .tolerances import NORM_SLACK as _NORM_SLACK, RECONSTRUCTION_TOL as _RECON_TOL

@dataclass(frozen=True)
class HermitianEig:
    """Eigen-decomposition a = V diag(w) V† with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class Svd:
    """Decomposition a = U diag(s) Vh with s descending.

    U and Vh have the input's dtype.  Gauge: the first entry of each
    column of U whose magnitude exceeds GAUGE_PIVOT times the column norm is made
    real and nonnegative, by a unit phase for complex input and by a sign
    flip for real input (the compensating factor is absorbed into the
    matching row of Vh), so repeated runs on identical input are
    bit-identical.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """a as a float64 array when it is exactly real, else unchanged.

    Complex input is demoted only when every imaginary part is exactly
    zero; there is no tolerance, so an imaginary part of 1e-300 keeps the
    array complex.  A demoted array is a C-contiguous copy of a.real (not
    the strided view); integer and boolean input becomes float64, and
    float64 input is returned as it is.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return a if a.imag.any() else np.ascontiguousarray(a.real, dtype=float)
    return np.asarray(a, dtype=float)


def _as_square(a: np.ndarray, what: str, stack: bool = False) -> np.ndarray:
    """a as an array, checked square; with stack, a stack (..., p, p) of square matrices."""
    a = np.asarray(a)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    return a


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """||a||_F of a matrix, or of each matrix of a stack (..., p, q), as np.linalg.norm computes it.

    np.linalg.norm sums the squares of a matrix in its memory order by one
    BLAS dot product (two for complex data, real and imaginary parts); here
    every matrix of the stack takes that same dot product, as one stacked
    row-times-column product, so each norm is np.linalg.norm's bit for bit.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        return np.linalg.norm(a)
    if a.strides[-2] < a.strides[-1]:
        a = np.swapaxes(a, -1, -2)
    flat = a.reshape(a.shape[:-2] + (1, -1))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    squares = sum(p @ np.swapaxes(p, -1, -2) for p in parts)
    return np.sqrt(squares[..., 0, 0])


def _frobenius(a: np.ndarray):
    """||a||_F of a matrix, or the array of them over a stack's last two axes."""
    return np.linalg.norm(a) if a.ndim == 2 else np.linalg.norm(a, axis=(-2, -1))


def _adjoint(a: np.ndarray) -> np.ndarray:
    """a dagger of a matrix or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _hermitian_input(a: np.ndarray):
    """(a made exactly Hermitian, max(1, ||a||_F), ||a - a†||_F), or NotHermitian.

    On a stack (..., p, p) each matrix is checked against its own norm, and
    scale and residual are arrays over the stack.  An input whose residuals
    are all exactly 0.0 already equals its symmetrization, so it is returned
    as it is, without a copy.
    """
    scale = np.maximum(1.0, _frobenius(a))
    res = _frobenius(a - _adjoint(a))
    if not np.all(res <= HERMITIAN_INPUT_TOL * scale):
        bad = np.argmax(res - HERMITIAN_INPUT_TOL * scale)
        worst, at = np.ravel(res)[bad], np.ravel(scale)[bad]
        raise NotHermitian(
            f"hermiticity residual {worst:.3e} exceeds {HERMITIAN_INPUT_TOL:.1e} * {at:.3e}"
        )
    return (a if not np.any(res) else 0.5 * (a + _adjoint(a))), scale, res


def symmetric_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian matrix, or of each matrix of a stack.

    No input check (hermitian_eigenvalues is the checked call) and no copy
    but eigvalsh's own; a LinAlgError raises NoConvergence.
    """
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigvalsh failed to converge: {exc}") from exc


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack, checked as hermitian_eigendecompose checks."""
    sym, _, _ = _hermitian_input(_as_square(a, "hermitian_eigenvalues input", stack=True))
    return symmetric_eigenvalues(sym)


def hermitian_eigendecompose(a: np.ndarray) -> HermitianEig:
    """Eigen-decomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects inputs whose anti-Hermitian part exceeds HERMITIAN_INPUT_TOL
    relative to max(1, ||a||_F); verifies the reconstruction V diag(w) V† afterwards.
    An exactly diagonal matrix is its own decomposition: the diagonal
    stable-sorted and the matching columns of the identity, in the dtype
    eigh gives.  A stack (..., p, p) is decomposed matrix by matrix in one
    stacked eigh, with w (..., p) and V (..., p, p).
    """
    a = _as_square(a, "hermitian_eigendecompose input", stack=True)
    sym, scale, res = _hermitian_input(a)
    if a.ndim == 2 and _is_diagonal(sym):
        return _diagonal_eig(sym)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed to converge: {exc}") from exc
    recon = _frobenius((v * w[..., None, :]) @ _adjoint(v) - a)
    if not np.all(recon <= np.maximum(_RECON_TOL * scale, res)):
        raise NoConvergence(f"eigh reconstruction residual {np.max(recon):.3e}")
    return HermitianEig(eigenvalues=w, eigenvectors=v)


def hermitian_eigendecompose_each(a: np.ndarray) -> HermitianEig:
    """Each matrix of a stack (..., p, p) decomposed as hermitian_eigendecompose would alone.

    The exactly diagonal ones by the diagonal rule, the others in one
    stacked eigh; when the stack holds both, matrix by matrix.  A matrix is
    a stack of none.
    """
    a = _as_square(a, "hermitian_eigendecompose input", stack=True)
    if a.ndim == 2:
        return hermitian_eigendecompose(a)
    sym, _, _ = _hermitian_input(a)
    diagonal = _is_diagonal(sym)
    if np.all(diagonal):
        return _diagonal_eig(sym)
    if not np.any(diagonal):
        return hermitian_eigendecompose(a)
    eigs = [hermitian_eigendecompose(m) for m in a.reshape((-1,) + a.shape[-2:])]
    return HermitianEig(
        np.stack([e.eigenvalues for e in eigs]).reshape(a.shape[:-1]),
        np.stack([e.eigenvectors for e in eigs]).reshape(a.shape),
    )


def _is_diagonal(sym: np.ndarray):
    """Whether each matrix of sym is exactly zero off its diagonal."""
    if sym.ndim == 2:
        return np.count_nonzero(sym) == np.count_nonzero(np.diagonal(sym))
    diagonal = np.diagonal(sym, axis1=-2, axis2=-1)
    return np.count_nonzero(sym, axis=(-2, -1)) == np.count_nonzero(diagonal, axis=-1)


def _diagonal_eig(sym: np.ndarray) -> HermitianEig:
    """The decomposition of each exactly diagonal matrix of sym: its diagonal
    stable-sorted and the matching columns of the identity, in eigh's dtype."""
    w = np.diagonal(sym, axis1=-2, axis2=-1).real
    order = np.argsort(w, axis=-1, kind="stable")
    eye = np.eye(sym.shape[-1], dtype=np.result_type(sym.dtype, np.float32))
    return HermitianEig(np.take_along_axis(w, order, -1), np.moveaxis(eye[:, order], 0, -2))


def gauge_singular_vectors(u: np.ndarray, vh: np.ndarray) -> None:
    """Apply the Svd gauge to the pairs (column j of u, row j of vh), in place.

    For each of the first min(u.shape[-1], vh.shape[-2]) columns, the first
    entry whose magnitude exceeds GAUGE_PIVOT times the column norm is made real
    and nonnegative by the conjugate of its phase, and the row of vh takes
    the phase, so u diag(s) vh is unchanged.  A column with no such entry
    (a zero column) takes phase 1, so its values and its row's do not change.
    One broadcast pass over the whole block, or over every matrix of a
    stack (..., p, q) at once.
    """
    k = min(u.shape[-1], vh.shape[-2])
    cols = u[..., :k]
    significant = np.abs(cols) > GAUGE_PIVOT * np.linalg.norm(cols, axis=-2, keepdims=True)
    first = significant.argmax(axis=-2)[..., None, :]
    pivot = np.where(
        significant.any(axis=-2), np.take_along_axis(cols, first, axis=-2)[..., 0, :], 1.0
    )
    # hypot is what abs of one complex scalar computes; np.abs over a complex
    # array may round differently, and the gauge must not depend on that.
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    u[..., :k] *= phase.conjugate()[..., None, :]
    vh[..., :k, :] *= phase[..., :, None]


def singular_value_decompose(a: np.ndarray) -> Svd:
    """SVD with descending singular values and the deterministic U gauge.

    One SVD of a's nonzero rows and columns (of a itself when none is
    zero), completed to square U and Vh as the module docstring lays out.
    A stack (..., m, n) is one stacked SVD of its whole matrices, each
    gauged and checked against its own norm, with U (..., m, m), s
    (..., min(m, n)) and Vh (..., n, n).
    """
    a = np.asarray(a)
    if a.ndim < 2:
        raise DimensionMismatch(f"svd input must be a matrix or a stack, got shape {a.shape}")
    whole = a.ndim > 2
    if not whole:
        m, n = a.shape
        row_nz, col_nz = a.any(axis=1), a.any(axis=0)
        rows, cols = np.flatnonzero(row_nz), np.flatnonzero(col_nz)
        whole = rows.size == m and cols.size == n
    sub = a if whole else a[np.ix_(rows, cols)]
    try:
        u, s, vh = np.linalg.svd(sub)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd failed to converge: {exc}") from exc
    k = s.shape[-1]
    if not whole:
        p, q = rows.size, cols.size
        # Past k, U holds the basis vectors of the `first` zero rows before
        # the first nonzero one, the submatrix's other left singular vectors,
        # then the later zero rows' basis vectors.
        first = rows[0] if p else 0
        zero_slots = np.arange(k, k + m - p)
        zero_slots[first:] += p - k
        full_u = np.zeros((m, m), dtype=u.dtype)
        full_u[np.ix_(rows, np.r_[:k, k + first : first + p])] = u
        full_u[np.flatnonzero(~row_nz), zero_slots] = 1.0
        full_vh = np.zeros((n, n), dtype=vh.dtype)
        full_vh[:q, cols] = vh
        full_vh[np.arange(q, n), np.flatnonzero(~col_nz)] = 1.0
        u, vh = full_u, full_vh
        s = np.concatenate([s, np.zeros(min(m, n) - k)])
    gauge_singular_vectors(u, vh)
    if whole:
        recon = _frobenius((u[..., :k] * s[..., None, :]) @ vh[..., :k, :] - a)
    else:
        recon = float(np.linalg.norm((u[rows, :k] * s[:k]) @ vh[:k, cols] - sub))
    if not np.all(recon <= _RECON_TOL * np.maximum(1.0, _frobenius(a))):
        raise NoConvergence(f"svd reconstruction residual {np.max(recon):.3e}")
    return Svd(u=u, s=s, vh=vh)


def spectral_norm(a: np.ndarray, entries: bool = False) -> float | np.ndarray:
    """Largest singular value of a, or over a stack's matrices, from one SVD of each whole matrix.

    With entries, the largest of each entry a[j] of a stack (B, ..., p, q),
    (B,), from the same one stacked SVD.
    """
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(a.shape[0]) if entries else 0.0
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd failed to converge: {exc}") from exc
    return s.reshape(a.shape[0], -1).max(axis=-1) if entries else float(s.max())


def norm_exceeds(a: np.ndarray, bound: float) -> bool:
    """Whether spectral_norm(a) > bound, with an SVD only when needed.

    ||a||_2 <= ||a||_F <= sqrt(min(shape)) ||a||_2, so the Frobenius norm
    decides the comparison unless bound lies between ||a||_F / sqrt(min(shape))
    and ||a||_F; only then is the largest singular value computed.  On a
    stack (..., p, q) the norms are the largest over its matrices.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0 > bound
    fro = float(np.max(_frobenius(a)))
    if fro < bound * (1.0 - _NORM_SLACK):
        return False
    if fro > bound * math.sqrt(min(a.shape[-2:])) * (1.0 + _NORM_SLACK):
        return True
    return spectral_norm(a) > bound


def schatten1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_1 for Hermitian a, b (diameter 2 on density matrices)."""
    a = _as_square(a, "schatten1_distance first argument")
    b = _as_square(b, "schatten1_distance second argument")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.abs(hermitian_eigenvalues(a - b)).sum())


def vectorize(x: np.ndarray) -> np.ndarray:
    """Row-major vec: |i><j| maps to |i> tensor |j|>."""
    x = _as_square(x, "vectorize input")
    return x.reshape(-1)


def partial_trace(
    rho: np.ndarray, keep: tuple[int, ...] | list[int], dims: tuple[int, ...] | list[int]
) -> np.ndarray:
    """Trace out all tensor factors not listed in keep.

    dims gives the dimension of every factor in order; the result acts on
    the kept factors in ascending index order.  A stack (..., d, d) is
    traced matrix by matrix.
    """
    rho = _as_square(rho, "partial_trace input", stack=True)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise BadDimensionFactorization(f"factor dims must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != rho.shape[-1]:
        raise BadDimensionFactorization(
            f"dims {dims} multiply to {total}, matrix has dimension {rho.shape[-1]}"
        )
    keep = sorted(set(int(q) for q in keep))
    if any(q < 0 or q >= len(dims) for q in keep):
        raise SupportOutOfRange(f"keep indices {keep} for {len(dims)} factors")
    n = len(dims)
    lead = rho.shape[:-2]
    t = rho.reshape(lead + dims + dims)
    traced = [q for q in range(n) if q not in keep]
    for q in sorted(traced, reverse=True):
        first = len(lead) + q
        t = np.trace(t, axis1=first, axis2=first + (t.ndim - len(lead)) // 2)
    d_keep = int(np.prod([dims[q] for q in keep])) if keep else 1
    return t.reshape(lead + (d_keep, d_keep))
