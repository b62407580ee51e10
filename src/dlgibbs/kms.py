"""KMS form, detailed balance, and Lindbladian superoperators.

For a full-rank state sigma the KMS inner product

    <X, Y>_sigma = Tr[X' s Y s],       s = sigma^{1/2}, X' = X dagger,

is the Hilbert-Schmidt product of G(X) and G(Y), with the quarter-power
conjugation G(X) = sigma^{1/4} X sigma^{1/4}.  A
Heisenberg-picture generator L satisfies sigma-detailed balance exactly
when its coherent form

    h = G L G^{-1}

is Hermitian as a matrix on vectorized operators.  Everything downstream
leans on this: h is then negative semidefinite for a dissipative generator,
its kernel is the fixed-point space conjugated by G, the stationary channel
of a single term is P = G^{-1} Pi_0 G with Pi_0 the kernel projector of h,
and gaps of h are the mixing quantities.

The terms' coherent forms are derived once, in parent.coherent_terms,
and checked detailed balanced there by parent_terms, which yields each as
the exactly Hermitian (h + h dagger)/2, held by sector with its
eigendecomposition.  stationary_channel takes that eigendecomposition, and
coherent_spectrum the sum of the held terms (hamiltonians.sector_sum), as
they are.

Vectorization is row-major, vec(|i><j|) = |i> tensor |j>, so the map
X -> A X B has matrix kron(A, B^T) and the Heisenberg Lindbladian

    L(X) = i[G_c, X] + sum_j ( L_j' X L_j - (1/2){L_j' L_j, X} )

has matrix sum_j [ kron(L_j', L_j^T) - (1/2) kron(L_j' L_j, I)
- (1/2) kron(I, (L_j' L_j)^T) ] + i kron(G_c, I) - i kron(I, G_c^T).

Dtype rule: an array is float64 when its data are exactly real and
complex128 otherwise.  LocalOperator, KmsForm and Superoperator demote
their input with linalg.real_if_exact, and nothing downstream casts to
complex, so a model whose generator and state are exactly real runs every
eigendecomposition, SVD and product in real arithmetic, while complex
models (random_ff_projectors) take the same code in complex arithmetic.
zz_chain, field_chain and commuting_projectors are real with any of the
x, y, z couplings: a y jump L = iR is complex, but kron(L', L^T) =
kron(R^T, R^T) and L'L = R^T R are exactly real.

Temperature stacks.  KmsForm, Superoperator, term_superoperator,
coherent_form and the kron kernels also take stacks with leading axes, one
entry per temperature of an anneal (jumps.model_terms): a stack of states
(..., d, d), or of Gibbs weights at an array of beta, holds each entry's
spectrum, and every product is then one stacked product whose entry j is
computed as the single-temperature call computes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParams,
    DegenerateGap,
    DimensionMismatch,
    OverflowDetected,
    PositiveEigenvalue,
    SingularSigma,
)
from .hamiltonians import (
    LocalHamiltonian, LocalOperator, _padded_columns, embed, sector_eigenvectors,
)
from .linalg import (
    HermitianEig,
    _adjoint,
    hermitian_eigendecompose_each,
    real_if_exact,
    spectral_norm,
    symmetric_eigenvalues,
)
from .tolerances import CPTP_TOL, KERNEL_CUT, POSITIVE_EIGENVALUE_CUT, PROBE_NORM_FLOOR
from .tolerances import MIN_STATE_WEIGHT as _MIN_EIG

_PICTURES = ("heisenberg", "schrodinger", "kms")


@dataclass(frozen=True)
class Superoperator:
    """Matrix acting on vectorized operators, tagged with its picture.

    mat is float64 when its entries are exactly real, complex128 otherwise;
    apply demotes its operand by the same rule.  mat may be a stack
    (..., d^2, d^2) of superoperators; apply and adjoint take one matrix.
    """

    mat: np.ndarray
    picture: str
    dim: int

    def __post_init__(self) -> None:
        mat = real_if_exact(self.mat)
        object.__setattr__(self, "mat", mat)
        if self.picture not in _PICTURES:
            raise BadParams(f"unknown picture {self.picture!r}")
        d2 = self.dim * self.dim
        if mat.ndim < 2 or mat.shape[-2:] != (d2, d2):
            raise DimensionMismatch(
                f"superoperator shape {mat.shape} does not match dim {self.dim}"
            )

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = real_if_exact(x)
        if x.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"operand shape {x.shape} does not match dim {self.dim}"
            )
        return (self.mat @ x.reshape(-1)).reshape(self.dim, self.dim)

    def adjoint(self) -> "Superoperator":
        """Hilbert-Schmidt adjoint; swaps Heisenberg and Schrodinger."""
        flip = {"heisenberg": "schrodinger", "schrodinger": "heisenberg", "kms": "kms"}
        return Superoperator(
            mat=self.mat.conj().T, picture=flip[self.picture], dim=self.dim
        )


@dataclass(frozen=True)
class LindbladTerm:
    """One local dissipative term: jump operators plus an optional coherent part."""

    jumps: tuple[LocalOperator, ...]
    coherent: LocalOperator | None
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "jumps", tuple(self.jumps))
        object.__setattr__(self, "support", tuple(int(q) for q in self.support))
        if not self.jumps and self.coherent is None:
            raise BadParams("a Lindblad term needs at least one jump or coherent part")


class KmsForm:
    """Cached spectral data of a full-rank stationary state.

    KmsForm(sigma) Hermitian-validates and diagonalizes sigma.  KmsForm.gibbs
    takes the Gibbs weights on H's own eigenvectors and no eigendecomposition
    of sigma, so sigma^{+-1/4} keep H's accuracy at small weights.  Either
    way the weights are trace-normalized, and the smallest must exceed
    tolerances.MIN_STATE_WEIGHT (1e-14), else SingularSigma: a Gibbs state
    whose beta * spread exceeds about 32 (ln 1e14) is refused.  An exactly
    real sigma or H gives real eigenvectors and powers.

    A stack of states (..., d, d), or the Gibbs states at an array of beta,
    gives a stack of forms: each state is decomposed as it would be alone
    (linalg.hermitian_eigendecompose_each), every check holds for each, and
    form[j] is entry j, sharing the stack's arrays.
    """

    def __init__(self, sigma: np.ndarray):
        eig = hermitian_eigendecompose_each(real_if_exact(sigma))
        self._set_spectrum(eig.eigenvalues, eig.eigenvectors)

    @classmethod
    def gibbs(cls, ham: LocalHamiltonian, beta: float | np.ndarray) -> KmsForm:
        """The form of exp(-beta H)/Z: _gibbs_weights on ham.eig, then the same checks."""
        form = cls.__new__(cls)
        form._set_spectrum(*_gibbs_weights(ham.eig, beta))
        return form

    def _set_spectrum(self, w: np.ndarray, v: np.ndarray) -> None:
        tr = np.real(w.sum(axis=-1))
        if np.any(tr <= 0):
            raise SingularSigma(f"state trace {_first(tr, tr <= 0):.3e} is not positive")
        w = w / tr[..., None]
        low = w.min(axis=-1)
        if np.any(low <= _MIN_EIG):
            raise SingularSigma(
                f"smallest eigenvalue {_first(low, low <= _MIN_EIG):.3e} after normalization is "
                f"at or below {_MIN_EIG:.1e}"
            )
        self.dim = v.shape[-1]
        self.eigenvalues = w
        self.eigenvectors = v
        self.sigma = self._power(1.0)

    @property
    def sigma_min(self) -> float:
        """The smallest weight (over every entry of a stack)."""
        return float(self.eigenvalues.min())

    def _power(self, p: float) -> np.ndarray:
        v = self.eigenvectors
        return v @ _diagonal(self.eigenvalues**p) @ _adjoint(v)

    @cached_property
    def sqrt(self) -> np.ndarray:
        return self._power(0.5)

    @cached_property
    def quarter(self) -> np.ndarray:
        return self._power(0.25)

    @cached_property
    def inv_quarter(self) -> np.ndarray:
        return self._power(-0.25)

    def __getitem__(self, j) -> KmsForm:
        """Entry j of a stack of forms, with views of its arrays and of the powers taken so far."""
        form = KmsForm.__new__(KmsForm)
        form.dim = self.dim
        v = self.eigenvectors
        form.eigenvectors = v if v.ndim < self.eigenvalues.ndim + 1 else v[j]
        for name in ("eigenvalues", "sigma", "sqrt", "quarter", "inv_quarter"):
            if name in vars(self):
                setattr(form, name, getattr(self, name)[j])
        return form


def _diagonal(w: np.ndarray) -> np.ndarray:
    """np.diag of a vector, or of each vector of a stack (..., d)."""
    if w.ndim == 1:
        return np.diag(w)
    out = np.zeros(w.shape + w.shape[-1:], dtype=w.dtype)
    i = np.arange(w.shape[-1])
    out[..., i, i] = w
    return out


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first of values where bad holds, in the stack's order."""
    return float(np.ravel(values)[np.flatnonzero(np.ravel(bad))[0]])


def _kron_conj_apply(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """kron(a, a.conj()) @ m for a d x d matrix a and d^2 rows of m.

    Applies a to the first tensor leg of the rows and a.conj() to the
    second, O(d^3 * cols) instead of the O(d^4 * cols) of the dense kron.
    With a = sigma^{1/4} this is Gamma^{1/2}, the matrix of
    X -> sigma^{1/4} X sigma^{1/4} on vectorized operators.  Stacks of a
    (..., d, d) and of m (..., d^2, cols) are applied entry by entry.
    """
    d = a.shape[-1]
    legs = a @ m.reshape(m.shape[:-2] + (d, -1))
    lead = legs.shape[:-2]
    legs = legs.reshape(lead + (d, d, -1))
    return np.matmul(a.conj()[..., None, :, :], legs).reshape(lead + (d * d, -1))


def _gibbs_weights(eig: HermitianEig, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-beta (E - E_0)) / Z, V) from H = V diag(E) V dagger, computed shift-stably.

    Rejects beta < 0 and beta * (spectral spread) > 80, beyond which the
    smallest weight underflows any usable stationary-state threshold.  An
    array of beta gives the weights (..., d), one row per beta, on the one V.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < 0):
        raise BadParams(f"inverse temperature must be >= 0, got {_first(beta, beta < 0)}")
    w = eig.eigenvalues
    spread = float(w[-1] - w[0])
    if np.any(beta * spread > 80.0):
        raise OverflowDetected(
            f"beta * spread = {float(np.max(beta)) * spread:.2f} exceeds 80; the Gibbs "
            "weights would underflow double precision"
        )
    ew = np.exp(-beta[..., None] * (w - w[0]))
    ew /= ew.sum(axis=-1, keepdims=True)
    return ew, eig.eigenvectors


def term_superoperator(term: LindbladTerm, n: int) -> Superoperator:
    """Heisenberg-picture matrix of one embedded Lindblad term.

    Real unless a jump is complex or a coherent part (the i terms) is
    present.  A term whose operators are stacks (..., d, d) gives the stack
    of its superoperators.
    """
    d = 2**n
    dtype = np.result_type(float, *(j.op for j in term.jumps))
    if term.coherent is not None:
        dtype = np.dtype(complex)
    lead = term.jumps[0].op.shape[:-2]
    ident = np.eye(d, dtype=dtype)
    mat = np.zeros(lead + (d * d, d * d), dtype=dtype)
    for j in term.jumps:
        lj = embed(j, n)
        ljd = _adjoint(lj)
        ldl = ljd @ lj
        mat += _kron(ljd, np.swapaxes(lj, -1, -2))
        mat -= _half(_kron(ldl, ident))
        mat -= _half(_kron(ident, np.swapaxes(ldl, -1, -2)))
    if term.coherent is not None:
        g = embed(term.coherent, n)
        mat += 1j * _kron(g, ident)
        mat -= 1j * _kron(ident, np.swapaxes(g, -1, -2))
    return Superoperator(mat=mat, picture="heisenberg", dim=d)


def _half(a: np.ndarray) -> np.ndarray:
    """0.5 * a, written into a."""
    a *= 0.5
    return a


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two square matrices by one broadcast multiply.

    np.kron forms the same products a_ij b_kl, so the result is bitwise
    equal; only its set-up is skipped.  Stacks (..., p, p) and (..., q, q)
    are multiplied entry by entry.
    """
    d = a.shape[-1] * b.shape[-1]
    products = a[..., :, None, :, None] * b[..., None, :, None, :]
    return products.reshape(products.shape[:-4] + (d, d))


def coherent_form(lind: Superoperator, kms: KmsForm) -> Superoperator:
    """h = Gamma^{1/2} L Gamma^{-1/2}; Hermitian iff L is sigma-detailed-balanced."""
    if lind.picture != "heisenberg":
        raise BadParams(f"coherent_form expects a Heisenberg generator, got {lind.picture}")
    if lind.dim != kms.dim:
        raise DimensionMismatch(f"generator dim {lind.dim} vs state dim {kms.dim}")
    # Gamma^{-1/2} is Hermitian, so M Gamma^{-1/2} = (Gamma^{-1/2} M dagger) dagger.
    left, dim = _kron_conj_apply(kms.quarter, lind.mat), lind.dim
    del lind  # so an L passed unnamed is freed before the second product
    mat = _adjoint(_kron_conj_apply(kms.inv_quarter, _adjoint(left)))
    return Superoperator(mat=mat, picture="kms", dim=dim)


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary of a generator's coherent form."""

    eigenvalues: np.ndarray
    gap: float
    kernel_dim: int
    db_residual: float
    dl_residual_energy: float


def probe_vector(kernel_vecs: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to the orthonormal columns given.

    The normalized all-ones vector with its kernel component removed; a
    seeded random vector stands in when that component is everything.
    """
    d2 = kernel_vecs.shape[0]
    psi = np.ones(d2) / np.sqrt(d2)
    if kernel_vecs.size:
        psi = psi - kernel_vecs @ (kernel_vecs.conj().T @ psi)
    nrm = np.linalg.norm(psi)
    if nrm < PROBE_NORM_FLOOR:
        rng = np.random.default_rng(7)
        psi = rng.normal(size=d2) + 1j * rng.normal(size=d2)
        if kernel_vecs.size:
            psi = psi - kernel_vecs @ (kernel_vecs.conj().T @ psi)
        nrm = np.linalg.norm(psi)
    return psi / nrm


def coherent_spectrum(h: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Descending eigenvalues of h, gap and kernel_dim.

    h must be exactly Hermitian, as a sum of parent terms is: eigvalsh
    reads only its lower triangle, so nothing here would show a defect.
    It is a matrix or the stack of a sum's sectors (hamiltonians.sector_sum),
    whose spectrum is the union of theirs.  The only other array of h's size
    is eigvalsh's working copy.  An eigenvalue above
    POSITIVE_EIGENVALUE_CUT * max(1, ||h||) raises PositiveEigenvalue, the
    rule stationary_channel applies to each term.  The kernel cut is
    KERNEL_CUT * max(1, ||h||), and gap is lambda_1 - lambda_2, or exactly
    0.0 when kernel_dim >= 2, where that difference is rounding noise.
    """
    w = symmetric_eigenvalues(h)
    if w.ndim > 1:
        w = np.sort(w, axis=None, kind="stable")
    w = w[::-1]
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] > POSITIVE_EIGENVALUE_CUT * scale:
        raise PositiveEigenvalue(f"parent has positive eigenvalue {w[0]:.3e}")
    kernel_dim = int((np.abs(w) <= KERNEL_CUT * scale).sum())
    gap = float(w[0] - w[1]) if len(w) > 1 and kernel_dim < 2 else 0.0
    return w, gap, kernel_dim


@dataclass(frozen=True)
class TermKernel:
    """Kernel of one term's coherent form h and its Heisenberg pullback.

    basis holds orthonormal columns V spanning the kernel, so Pi_0 = V V
    dagger, by the blocks of h's eigendecomposition, (count, p, r), each
    block's zero-padded (a zero column changes no V V dagger, no V dagger z
    and no commutator norm); channel is P = Gamma^{-1/2} Pi_0 Gamma^{1/2}.
    h_norm is ||h|| and gap the smallest |eigenvalue| of h above the kernel
    cut (inf when the kernel is everything); rounding of order
    eps * h_norm / gap tilts the kernel basis (Davis-Kahan).
    """

    basis: np.ndarray
    channel: Superoperator
    h_norm: float
    gap: float


def stationary_channel(eig: HermitianEig, kms: KmsForm) -> TermKernel:
    """Kernel basis of one term, its projector pulled back to the Heisenberg picture.

    P = Gamma^{-1/2} Pi_0 Gamma^{1/2}, with Pi_0 the orthogonal projector
    onto the kernel of h, the term's Hermitian coherent form on its doubled
    legs S + (S + n) against kms.  eig is h's eigendecomposition by local
    sector, as a stack (count, p) of eigenvalues and (count, p, p) of
    eigenvectors: one entry of a parent term's (parent.TermStack.eig, the
    term's .state being kms), whose blocks are its 2^|S| sectors when h is
    held by sector, and h itself, one block, otherwise.  The basis stays by
    block; only P places it whole.  ||h|| is read off the eigenvalues.
    Requires every eigenvalue at most POSITIVE_EIGENVALUE_CUT * max(1, ||h||)
    (PositiveEigenvalue otherwise); kernel membership uses the relative
    cutoff KERNEL_CUT * max(1, ||h||).
    """
    w = eig.eigenvalues
    h_norm = float(np.abs(w).max())
    scale = max(1.0, h_norm)
    if w.max() > POSITIVE_EIGENVALUE_CUT * scale:
        raise PositiveEigenvalue(
            f"coherent form has eigenvalue {w.max():.3e} above zero"
        )
    kernel_cut = KERNEL_CUT * scale
    sel = np.abs(w) <= kernel_cut
    if not sel.any():
        raise DegenerateGap(
            f"no kernel eigenvalue within {kernel_cut:.1e} (largest is {w.max():.3e})"
        )
    vk = sector_eigenvectors(eig.eigenvectors, sel)
    # Gamma^{1/2} is Hermitian, so Pi_0 Gamma^{1/2} = V (Gamma^{1/2} V) dagger.
    left = _kron_conj_apply(kms.inv_quarter, vk)
    mat = left @ _kron_conj_apply(kms.quarter, vk).conj().T
    return TermKernel(
        _padded_columns(eig.eigenvectors, sel),
        Superoperator(mat, "heisenberg", kms.dim),
        h_norm,
        float(np.abs(w[~sel]).min()) if not sel.all() else float("inf"),
    )


@dataclass(frozen=True)
class CptpReport:
    """Complete positivity / trace preservation diagnostics of a channel."""

    choi_min_eig: float
    tp_residual: float
    cp: bool
    tp: bool


def choi_matrix(schrodinger_mat: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix C[(k,i),(l,j)] = S[(k,l),(i,j)] of a Schrodinger map."""
    s = np.asarray(schrodinger_mat)
    if s.shape != (d * d, d * d):
        raise DimensionMismatch(f"superoperator shape {s.shape} for dim {d}")
    return s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def cptp_check(channel: Superoperator) -> CptpReport:
    """Report Choi positivity and trace preservation of a Heisenberg channel.

    Never raises on a failed check; a channel in another picture raises
    BadParams.
    """
    if channel.picture != "heisenberg":
        raise BadParams(f"cptp_check expects a Heisenberg channel, got {channel.picture}")
    heis_mat = channel.mat
    s_mat = heis_mat.conj().T
    d = channel.dim
    choi = choi_matrix(s_mat, d)
    wmin = float(symmetric_eigenvalues(0.5 * (choi + choi.conj().T)).min())
    ident = np.eye(d, dtype=heis_mat.dtype)
    tp_res = float(
        np.linalg.norm((heis_mat @ ident.reshape(-1)).reshape(d, d) - ident)
    )
    # Both tolerances scale with max(1, ||S||) >= 1; the norm is only
    # needed when a residual exceeds the bare tolerance.
    cp = wmin >= -CPTP_TOL
    tp = tp_res <= CPTP_TOL
    if not (cp and tp):
        scale = max(1.0, spectral_norm(s_mat))
        cp = wmin >= -CPTP_TOL * scale
        tp = tp_res <= CPTP_TOL * scale
    return CptpReport(choi_min_eig=wmin, tp_residual=tp_res, cp=cp, tp=tp)
