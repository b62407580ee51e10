"""Dense linear algebra kernels with pinned conventions.

Thin wrappers over numpy that fix the conventions the rest of the
package relies on: eigenvalues ascending, singular values descending with a
deterministic sign gauge, trace distance with diameter 2, and a partial
trace that validates its factorization.  All checks raise typed errors
from :mod:`dlgibbs.errors` instead of letting numpy failures propagate
raw.  The wrappers keep the dtype of their input, so exactly-real data
run the real LAPACK and BLAS routines; real_if_exact is the one place
where complex data become real.
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


def accumulate(total: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """total + x, written into total unless the sum needs a wider dtype.

    A total of None starts the sum with a copy of x, so a sum of real
    arrays stays real and turns complex at the first complex term.
    """
    if total is None:
        return np.array(x)
    if np.result_type(total, x) != total.dtype:
        return total + x
    total += x
    return total


def _as_square(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    return a


def hermiticity_residual(a: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part ||a - a†||_F."""
    a = np.asarray(a)
    return float(np.linalg.norm(a - a.conj().T))


def _hermitian_input(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(a made exactly Hermitian, max(1, ||a||_F), ||a - a†||_F), or NotHermitian.

    An input whose residual is exactly 0.0 already equals its
    symmetrization, so it is returned as it is, without a copy.
    """
    scale = max(1.0, float(np.linalg.norm(a)))
    res = hermiticity_residual(a)
    if res > HERMITIAN_INPUT_TOL * scale:
        raise NotHermitian(
            f"hermiticity residual {res:.3e} exceeds {HERMITIAN_INPUT_TOL:.1e} * {scale:.3e}"
        )
    return (a if res == 0.0 else 0.5 * (a + a.conj().T)), scale, res


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, checked as hermitian_eigendecompose checks."""
    sym, _, _ = _hermitian_input(_as_square(a, "hermitian_eigenvalues input"))
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigvalsh failed to converge: {exc}") from exc


def hermitian_eigendecompose(a: np.ndarray) -> HermitianEig:
    """Eigen-decomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects inputs whose anti-Hermitian part exceeds HERMITIAN_INPUT_TOL
    relative to max(1, ||a||_F); verifies the reconstruction V diag(w) V† afterwards.
    """
    a = _as_square(a, "hermitian_eigendecompose input")
    sym, scale, res = _hermitian_input(a)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed to converge: {exc}") from exc
    recon = float(np.linalg.norm((v * w) @ v.conj().T - a))
    if recon > max(_RECON_TOL * scale, res):
        raise NoConvergence(f"eigh reconstruction residual {recon:.3e}")
    return HermitianEig(eigenvalues=w, eigenvectors=v)


def gauge_singular_vectors(u: np.ndarray, vh: np.ndarray) -> None:
    """Apply the Svd gauge to the pairs (column j of u, row j of vh), in place.

    For each of the first min(u.shape[1], vh.shape[0]) columns, the first
    entry whose magnitude exceeds GAUGE_PIVOT times the column norm is made real
    and nonnegative by the conjugate of its phase, and the row of vh takes
    the phase, so u diag(s) vh is unchanged.  A column with no such entry
    (a zero column) takes phase 1, so its values and its row's do not change.
    One broadcast pass over the whole block.
    """
    k = min(u.shape[1], vh.shape[0])
    cols = u[:, :k]
    significant = np.abs(cols) > GAUGE_PIVOT * np.linalg.norm(cols, axis=0)
    pivot = np.where(
        significant.any(axis=0), cols[significant.argmax(axis=0), np.arange(k)], 1.0
    )
    # hypot is what abs of one complex scalar computes; np.abs over a complex
    # array may round differently, and the gauge must not depend on that.
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    u[:, :k] *= phase.conjugate()
    vh[:k] *= phase[:, None]


def singular_value_decompose(a: np.ndarray) -> Svd:
    """SVD with descending singular values and the deterministic U gauge."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"svd input must be a matrix, got shape {a.shape}")
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd failed to converge: {exc}") from exc
    gauge_singular_vectors(u, vh)
    k = min(u.shape[1], vh.shape[0])
    recon = float(np.linalg.norm((u[:, :k] * s[:k]) @ vh[:k, :] - a))
    if recon > _RECON_TOL * max(1.0, float(np.linalg.norm(a))):
        raise NoConvergence(f"svd reconstruction residual {recon:.3e}")
    return Svd(u=u, s=s, vh=vh)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).max())


def norm_exceeds(a: np.ndarray, bound: float) -> bool:
    """Whether spectral_norm(a) > bound, with an SVD only when needed.

    ||a||_2 <= ||a||_F <= sqrt(min(shape)) ||a||_2, so the Frobenius norm
    decides the comparison unless bound lies between ||a||_F / sqrt(min(shape))
    and ||a||_F; only then is the largest singular value computed.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0 > bound
    fro = float(np.linalg.norm(a))
    if fro < bound * (1.0 - _NORM_SLACK):
        return False
    if fro > bound * math.sqrt(min(a.shape)) * (1.0 + _NORM_SLACK):
        return True
    return spectral_norm(a) > bound


def schatten1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_1 for Hermitian a, b (diameter 2 on density matrices)."""
    a = _as_square(a, "schatten1_distance first argument")
    b = _as_square(b, "schatten1_distance second argument")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    res = hermiticity_residual(diff)
    if res > HERMITIAN_INPUT_TOL * scale:
        raise NotHermitian(
            f"difference is not Hermitian (residual {res:.3e})"
        )
    w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(np.abs(w).sum())


def vectorize(x: np.ndarray) -> np.ndarray:
    """Row-major vec: |i><j| maps to |i> tensor |j|>."""
    x = _as_square(x, "vectorize input")
    return x.reshape(-1)


def partial_trace(
    rho: np.ndarray, keep: tuple[int, ...] | list[int], dims: tuple[int, ...] | list[int]
) -> np.ndarray:
    """Trace out all tensor factors not listed in keep.

    dims gives the dimension of every factor in order; the result acts on
    the kept factors in ascending index order.
    """
    rho = _as_square(rho, "partial_trace input")
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise BadDimensionFactorization(f"factor dims must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != rho.shape[0]:
        raise BadDimensionFactorization(
            f"dims {dims} multiply to {total}, matrix has dimension {rho.shape[0]}"
        )
    keep = sorted(set(int(q) for q in keep))
    if any(q < 0 or q >= len(dims) for q in keep):
        raise SupportOutOfRange(f"keep indices {keep} for {len(dims)} factors")
    n = len(dims)
    t = rho.reshape(dims + dims)
    traced = [q for q in range(n) if q not in keep]
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    d_keep = int(np.prod([dims[q] for q in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)
