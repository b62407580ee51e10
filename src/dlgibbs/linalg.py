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
and only here is it decided what a decomposition runs on.  Both rules
below read the exact zero pattern, with no tolerance.

singular_value_decompose takes one SVD of the submatrix on a's nonzero
rows and columns (of a itself when none is zero), pads s with exact
zeros, and completes U and Vh with standard basis vectors.  With k the
submatrix's number of singular values, U's columns past k are the zero
rows' basis vectors in row order, with the submatrix's other left singular
vectors at the slot of its first row, and Vh's rows past k are the
submatrix's other right singular vectors, then the zero columns' basis
rows in column order.  That fixes how the null spaces of U and Vh pair,
which even-degree projectors read (projector.ProjectorResult).  The DL
core of a diagonal-H model, R_1 x 4^n, is nonzero on 2^(n-1) rows and
2^n columns only, so its SVD runs on that part.

For Hermitian input, direct_sum_labels labels the connected components of
the matrix's exact nonzero pattern, one graph on the indices.  When the
largest component has at most half the indices, the matrix is, up to a
permutation, a direct sum of the components' blocks, and
hermitian_eigendecompose and symmetric_eigenvalues decompose the blocks
instead, equal sides in one stacked LAPACK call.  Eigenvalue-only calls
look for blocks only above side _WHOLE_SIDE = 64, as finding them costs
~150 us: on permuted direct sums of 2^n blocks of side 2^n, with one BLAS
thread, a whole eigvalsh took 16 / 167 / 3066 us and the blocks 111 / 150
/ 511 us at sides 16 / 64 / 256.  Eigenvector calls split at every size,
as their blocks set the eigenvectors' zero patterns, which the dl_qsvt
padding reads.  Any other input, and every spectral_norm, takes the
whole-matrix call.  The pattern's edges are read once, at 16 bytes per
nonzero, no more than the boolean pattern itself at density at most 1/16;
every matrix of side 256 or more that splits in the experiments is
sparser than that.  Every off-block entry is 0, and the spectrum of a
direct sum is the union of its blocks' spectra.  The results keep the
whole-matrix conventions (ascending eigenvalues by a stable sort), and
every check runs on the blocks, where the off-block residual is exactly 0.
Values a whole-matrix call rounds to ~1e-17 on a structurally zero
direction come out exactly 0.

The Hermitian calls also take a stack (..., p, p), as one stacked LAPACK
call with each matrix checked against its own norm, and a stack of one
matrix as that matrix; the sectors of hamiltonians.Sectors come as
stacks, so the mix's sums, kernels and rounds and every parent spectrum of
a diagonal-H model never reach the block path.  What still does: the
dl_qsvt anneal's projector input (its 4^n ground cluster and each term's
eigh in projector.dl_operator), the local Choi matrices and parent-term
spectra of side 4^|S| <= 64, and the one-sector case of models whose
terms leave their sectors.  An exactly diagonal matrix is its own
eigendecomposition, with no LAPACK call: the diagonal stable-sorted and
the matching columns of the identity, bitwise what the block path's 1 x 1
blocks give: 22-25 us against the block path's 65-67 us at sides 4 to 16
(timeit, one BLAS thread), the input check included.
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

# Largest side whose eigenvalues are one whole eigvalsh: a speed rule, not a cut.
_WHOLE_SIDE = 64


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


def direct_sum_labels(pattern: np.ndarray) -> np.ndarray | None:
    """Labels of the connected components of a square boolean pattern, or None.

    The graph has one node per index, with an edge wherever pattern or its
    transpose is nonzero; the labels are numbered 0, 1, ... by the
    component's smallest index.  None when some component has more than
    half the indices (at once when more than half of the pattern is
    nonzero, which no such split allows), or there are fewer than 2.

    Every node starts labelled by itself; each round gives both ends of
    every edge the smaller of their labels and then follows labels to
    their roots, until a round changes nothing, when each label is its
    component's smallest node, or until one label holds more than half the
    nodes.  The edges are read once, as two int64 index arrays, 16 bytes
    per nonzero: no more than the boolean pattern at density at most 1/16.
    """
    d = pattern.shape[0]
    nnz = int(np.count_nonzero(pattern))
    if d < 2 or 2 * nnz > d * d:
        return None
    # Flat indices split by divmod: 2-d np.nonzero is several times slower.
    i, j = np.divmod(np.flatnonzero(pattern), d)
    label = np.arange(d)
    while True:
        before = label.copy()
        np.minimum.at(label, i, label[j])
        np.minimum.at(label, j, label[i])
        while not np.array_equal(root := label[label], label):
            label = root
        # Each label's nodes lie in one component, so a label already
        # holding more than half the nodes decides the rule.
        if 2 * np.bincount(label).max() > d:
            return None
        if np.array_equal(label, before):
            break
    return (np.cumsum(label == np.arange(d)) - 1)[label]


class _Blocks:
    """Where each block of a direct sum sits, from direct_sum_labels.

    Block c has side[c] indices, index[start[c]:][:side[c]], ascending.
    """

    def __init__(self, labels: np.ndarray):
        self.side = np.bincount(labels)
        self.index = np.argsort(labels, kind="stable")
        self.start = np.cumsum(self.side) - self.side

    def stacks(self, a: np.ndarray):
        """(members, index, stack) per block side.

        members lists the blocks of that side in order, index is their
        (B, p) index array, and stack the (B, p, p) array of a's entries
        there.
        """
        for p in np.unique(self.side):
            members = np.flatnonzero(self.side == p)
            idx = self.index[self.start[members, None] + np.arange(p)]
            yield members, idx, a[idx[:, :, None], idx[:, None, :]]


def _block_eigh(
    sym: np.ndarray, blocks: _Blocks, a: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """(ascending w, V, reconstruction residual) of sym from its blocks.

    With a given, V is scattered into a d x d array and the residual is
    ||V diag(w) V† - a||_F, summed over the blocks of a in quadrature
    (blocks of a's pattern, so every entry of a outside them is 0);
    without a, only the eigenvalues are computed, V is None and the
    residual 0.0.  Ties between blocks keep block order.
    """
    d = sym.shape[0]
    w_cat = np.empty(d)
    parts = []
    for members, idx, stack in blocks.stacks(sym):
        if a is None:
            w, v = np.linalg.eigvalsh(stack), None
        else:
            w, v = np.linalg.eigh(stack)
        pos = blocks.start[members, None] + np.arange(idx.shape[1])
        w_cat[pos] = w
        parts.append((idx, pos, w, v))
    order = np.argsort(w_cat, kind="stable")
    if a is None:
        return w_cat[order], None, 0.0
    col = np.empty(d, dtype=np.intp)
    col[order] = np.arange(d)
    vecs = np.zeros((d, d), dtype=parts[0][3].dtype)
    recon = 0.0
    for idx, pos, w, v in parts:
        vecs[idx[:, :, None], col[pos][:, None, :]] = v
        blk = a[idx[:, :, None], idx[:, None, :]]
        recon += float(np.linalg.norm((v * w[:, None, :]) @ v.conj().transpose(0, 2, 1) - blk)) ** 2
    return w_cat[order], vecs, math.sqrt(recon)


def _direct_sum(pattern: np.ndarray) -> _Blocks | None:
    """The blocks of pattern's components, or None (direct_sum_labels).

    For Hermitian input a, the blocks of a's pattern also split
    0.5 (a + a†), whose pattern lies inside that of a and its transpose.
    """
    labels = direct_sum_labels(pattern)
    return None if labels is None else _Blocks(labels)


def symmetric_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian matrix, block by block above _WHOLE_SIDE.

    No input check (hermitian_eigenvalues is the checked call) and no copy
    beyond the pattern and the blocks; a LinAlgError raises NoConvergence.
    A stack (..., p, p) of matrices is one stacked eigvalsh, whose rows are
    each matrix's eigenvalues, except that a stack of one matrix is that
    matrix.
    """
    if sym.ndim == 3 and sym.shape[0] == 1:
        return symmetric_eigenvalues(sym[0])[None]
    split = sym.ndim == 2 and sym.shape[0] > _WHOLE_SIDE
    blocks = _direct_sum(sym != 0) if split else None
    try:
        if blocks is None:
            return np.linalg.eigvalsh(sym)
        return _block_eigh(sym, blocks)[0]
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
    On a direct sum each eigenvector is supported on one block.  An exactly
    diagonal input is its own decomposition: the diagonal stable-sorted and
    the matching columns of the identity, in the dtype eigh gives.  A stack
    (..., p, p) is decomposed matrix by matrix in one stacked eigh, with
    w (..., p) and V (..., p, p), except that a stack of one matrix is that
    matrix.
    """
    a = _as_square(a, "hermitian_eigendecompose input", stack=True)
    if a.ndim == 3 and a.shape[0] == 1:
        eig = hermitian_eigendecompose(a[0])
        return HermitianEig(eig.eigenvalues[None], eig.eigenvectors[None])
    sym, scale, res = _hermitian_input(a)
    if a.ndim == 2 and np.count_nonzero(sym) == np.count_nonzero(np.diagonal(sym)):
        w = np.diagonal(sym).real
        order = np.argsort(w, kind="stable")
        eye = np.eye(a.shape[0], dtype=np.result_type(sym.dtype, np.float32))
        return HermitianEig(w[order], eye[:, order])
    blocks = _direct_sum(a != 0) if a.ndim == 2 else None
    try:
        if blocks is None:
            w, v = np.linalg.eigh(sym)
        else:
            w, v, recon = _block_eigh(sym, blocks, a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed to converge: {exc}") from exc
    if blocks is None:
        recon = _frobenius((v * w[..., None, :]) @ _adjoint(v) - a)
    if not np.all(recon <= np.maximum(_RECON_TOL * scale, res)):
        raise NoConvergence(f"eigh reconstruction residual {np.max(recon):.3e}")
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
    """SVD with descending singular values and the deterministic U gauge.

    One SVD of a's nonzero rows and columns (of a itself when none is
    zero), completed to square U and Vh as the module docstring lays out.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"svd input must be a matrix, got shape {a.shape}")
    m, n = a.shape
    row_nz, col_nz = a.any(axis=1), a.any(axis=0)
    rows, cols = np.flatnonzero(row_nz), np.flatnonzero(col_nz)
    whole = rows.size == m and cols.size == n
    sub = a if whole else a[np.ix_(rows, cols)]
    try:
        u, s, vh = np.linalg.svd(sub)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd failed to converge: {exc}") from exc
    k = s.size
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
    recon = float(np.linalg.norm((u[rows, :k] * s[:k]) @ vh[:k, cols] - sub))
    if not recon <= _RECON_TOL * max(1.0, float(np.linalg.norm(a))):
        raise NoConvergence(f"svd reconstruction residual {recon:.3e}")
    return Svd(u=u, s=s, vh=vh)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a, or over a stack's matrices, from one SVD of each whole matrix.

    A direct sum is not split.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    try:
        return float(np.linalg.svd(a, compute_uv=False).max())
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd failed to converge: {exc}") from exc


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
