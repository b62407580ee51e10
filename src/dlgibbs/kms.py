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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BadParams,
    DegenerateGap,
    DimensionMismatch,
    NotDetailedBalanced,
    OverflowDetected,
    PositiveEigenvalue,
    SingularSigma,
)
from .hamiltonians import LocalOperator, embed
from .linalg import (
    accumulate,
    hermitian_eigendecompose,
    norm_exceeds,
    real_if_exact,
    spectral_norm,
)

_PICTURES = ("heisenberg", "schrodinger", "kms")

# Largest ||h - h dagger|| of a coherent form h that counts as detailed balance.
DETAILED_BALANCE_TOL = 1e-8


@dataclass(frozen=True)
class Superoperator:
    """Matrix acting on vectorized operators, tagged with its picture.

    mat is float64 when its entries are exactly real, complex128 otherwise;
    apply demotes its operand by the same rule.
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
        if mat.shape != (d2, d2):
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

    @cached_property
    def hermiticity_residual(self) -> float:
        """||M - M dagger||_2; for a coherent form, the detailed-balance defect."""
        return spectral_norm(self.mat - self.mat.conj().T)


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

    The input is Hermitian-validated and trace-normalized; the smallest
    eigenvalue after normalization must exceed min_eig (default 1e-14).
    An exactly real sigma is demoted to float64, so its eigenvectors and
    powers are real as well.
    Note the tension with large beta * ||H||: at beta * spread = 80 the
    smallest Gibbs weight is ~1e-35, far below the default threshold, so
    high-beta studies must loosen min_eig deliberately.
    """

    def __init__(self, sigma: np.ndarray, min_eig: float = 1e-14):
        sigma = real_if_exact(sigma)
        eig = hermitian_eigendecompose(sigma)
        tr = float(np.real(eig.eigenvalues.sum()))
        if tr <= 0:
            raise SingularSigma(f"state trace {tr:.3e} is not positive")
        w = eig.eigenvalues / tr
        if w.min() <= min_eig:
            raise SingularSigma(
                f"smallest eigenvalue {w.min():.3e} after normalization is "
                f"at or below {min_eig:.1e}"
            )
        self.dim = sigma.shape[0]
        self.eigenvalues = w
        self.eigenvectors = eig.eigenvectors
        self.sigma = eig.eigenvectors @ np.diag(w) @ eig.eigenvectors.conj().T
        self.sigma_min = float(w.min())

    def _power(self, p: float) -> np.ndarray:
        v = self.eigenvectors
        return v @ np.diag(self.eigenvalues**p) @ v.conj().T

    @cached_property
    def sqrt(self) -> np.ndarray:
        return self._power(0.5)

    @cached_property
    def quarter(self) -> np.ndarray:
        return self._power(0.25)

    @cached_property
    def inv_quarter(self) -> np.ndarray:
        return self._power(-0.25)


def _kron_conj_apply(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """kron(a, a.conj()) @ m for a d x d matrix a and d^2 rows of m.

    Applies a to the first tensor leg of the rows and a.conj() to the
    second, O(d^3 * cols) instead of the O(d^4 * cols) of the dense kron.
    With a = sigma^{1/4} this is Gamma^{1/2}, the matrix of
    X -> sigma^{1/4} X sigma^{1/4} on vectorized operators.
    """
    d = a.shape[0]
    legs = (a @ m.reshape(d, -1)).reshape(d, d, -1)
    return np.matmul(a.conj(), legs).reshape(d * d, -1)


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta h) / Tr exp(-beta h), computed shift-stably.

    Rejects beta < 0 and beta * (spectral spread) > 80, beyond which the
    smallest weight underflows any usable stationary-state threshold.
    """
    if beta < 0:
        raise BadParams(f"inverse temperature must be >= 0, got {beta}")
    eig = hermitian_eigendecompose(h)
    w = eig.eigenvalues
    spread = float(w[-1] - w[0])
    if beta * spread > 80.0:
        raise OverflowDetected(
            f"beta * spread = {beta * spread:.2f} exceeds 80; the Gibbs "
            "weights would underflow double precision"
        )
    ew = np.exp(-beta * (w - w[0]))
    ew /= ew.sum()
    v = eig.eigenvectors
    return v @ np.diag(ew) @ v.conj().T


def term_superoperator(term: LindbladTerm, n: int) -> Superoperator:
    """Heisenberg-picture matrix of one embedded Lindblad term.

    Real unless a jump is complex or a coherent part (the i terms) is
    present.
    """
    d = 2**n
    dtype = np.result_type(float, *(j.op for j in term.jumps))
    if term.coherent is not None:
        dtype = np.dtype(complex)
    ident = np.eye(d, dtype=dtype)
    mat = np.zeros((d * d, d * d), dtype=dtype)
    for j in term.jumps:
        lj = embed(j, n)
        ljd = lj.conj().T
        ldl = ljd @ lj
        mat += np.kron(ljd, lj.T)
        mat -= 0.5 * np.kron(ldl, ident)
        mat -= 0.5 * np.kron(ident, ldl.T)
    if term.coherent is not None:
        g = embed(term.coherent, n)
        mat += 1j * np.kron(g, ident)
        mat -= 1j * np.kron(ident, g.T)
    return Superoperator(mat=mat, picture="heisenberg", dim=d)


def lindblad_superoperator(terms: Sequence[LindbladTerm], n: int) -> Superoperator:
    """Heisenberg-picture matrix of a sum of local Lindblad terms.

    A test reference; no pipeline path calls it.
    """
    if not terms:
        raise BadParams("need at least one Lindblad term")
    mat = None
    for t in terms:
        mat = accumulate(mat, term_superoperator(t, n).mat)
    return Superoperator(mat=mat, picture="heisenberg", dim=2**n)


def coherent_form(lind: Superoperator, kms: KmsForm) -> Superoperator:
    """h = Gamma^{1/2} L Gamma^{-1/2}; Hermitian iff L is sigma-detailed-balanced."""
    if lind.picture != "heisenberg":
        raise BadParams(f"coherent_form expects a Heisenberg generator, got {lind.picture}")
    if lind.dim != kms.dim:
        raise DimensionMismatch(f"generator dim {lind.dim} vs state dim {kms.dim}")
    # Gamma^{-1/2} is Hermitian, so M Gamma^{-1/2} = (Gamma^{-1/2} M dagger) dagger.
    left = _kron_conj_apply(kms.quarter, lind.mat)
    mat = _kron_conj_apply(kms.inv_quarter, left.conj().T).conj().T
    return Superoperator(mat=mat, picture="kms", dim=lind.dim)


def db_residual(lind: Superoperator, kms: KmsForm) -> float:
    """Operator-norm defect of detailed balance, ||h - h dagger||.

    A test reference; no pipeline path calls it.
    """
    return coherent_form(lind, kms).hermiticity_residual


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
    if nrm < 1e-12:
        rng = np.random.default_rng(7)
        psi = rng.normal(size=d2) + 1j * rng.normal(size=d2)
        if kernel_vecs.size:
            psi = psi - kernel_vecs @ (kernel_vecs.conj().T @ psi)
        nrm = np.linalg.norm(psi)
    return psi / nrm


def spectral_report(
    lind: Superoperator, kms: KmsForm, tol: float = 1e-9
) -> SpectralReport:
    """Eigenvalues (descending) of the coherent form, with gap and kernel size.

    gap is lambda_1 - lambda_2 of the descending spectrum, and exactly 0.0
    when the kernel has dimension >= 2, where that difference is rounding
    noise.  kernel_dim counts eigenvalues within tol * max(1, ||h||) of
    zero.  db_residual is
    the defect ||h - h dagger|| (detailed balance is exactly hermiticity of
    the coherent form); dl_residual_energy probes the energy of
    probe_vector off the kernel.

    A test reference; no pipeline path calls it (see coherent_spectrum).
    """
    h = lind if lind.picture == "kms" else coherent_form(lind, kms)
    h_sym = 0.5 * (h.mat + h.mat.conj().T)
    eig = hermitian_eigendecompose(h_sym)
    w = eig.eigenvalues[::-1].copy()
    v = eig.eigenvectors[:, ::-1]
    scale = max(1.0, float(np.abs(w).max()))
    kernel = np.abs(w) <= tol * scale
    kernel_dim = int(kernel.sum())
    gap = float(w[0] - w[1]) if len(w) > 1 and kernel_dim < 2 else 0.0
    psi = probe_vector(v[:, :kernel_dim])
    energy = float(np.real(psi.conj() @ (-h_sym) @ psi))
    return SpectralReport(
        eigenvalues=w,
        gap=gap,
        kernel_dim=kernel_dim,
        db_residual=h.hermiticity_residual,
        dl_residual_energy=energy,
    )


def coherent_spectrum(h: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Descending eigenvalues of (h + h dagger)/2, gap and kernel_dim.

    spectral_report's rules: the kernel cut is 1e-9 * max(1, ||h||), and
    gap is lambda_1 - lambda_2, or exactly 0.0 when kernel_dim >= 2.
    """
    h_sym = h + h.conj().T
    h_sym *= 0.5
    w = np.linalg.eigvalsh(h_sym)[::-1]
    kernel_dim = int((np.abs(w) <= 1e-9 * max(1.0, float(np.abs(w).max()))).sum())
    gap = float(w[0] - w[1]) if len(w) > 1 and kernel_dim < 2 else 0.0
    return w, gap, kernel_dim


@dataclass(frozen=True)
class TermKernel:
    """Kernel of one term's coherent form h and its Heisenberg pullback.

    basis holds orthonormal columns V spanning the kernel, so Pi_0 = V V
    dagger; channel is P = Gamma^{-1/2} Pi_0 Gamma^{1/2}; h_norm is ||h||
    and db_residual the Frobenius bound ||h - h dagger||_F on the
    detailed-balance defect.  gap is the smallest |eigenvalue| of h above
    the kernel cut (inf when the kernel is everything); rounding of order
    eps * h_norm / gap tilts the kernel basis (Davis-Kahan).
    """

    basis: np.ndarray
    channel: Superoperator
    h_norm: float
    db_residual: float
    gap: float


def stationary_channel(
    term: Superoperator, kms: KmsForm, tol: float = 1e-8
) -> TermKernel:
    """Kernel basis of one term, its projector pulled back to the Heisenberg picture.

    P = Gamma^{-1/2} Pi_0 Gamma^{1/2}, with Pi_0 the orthogonal projector
    onto the kernel of the term's coherent form h; term is the Heisenberg
    generator or, when the caller already holds it, h.  ||h|| is read off
    the eigenvalues of the symmetrized h.  Requires ||h - h dagger|| <=
    tol * max(1, ||h||) (NotDetailedBalanced otherwise, decided by
    norm_exceeds) and h nonpositive within the same bound
    (PositiveEigenvalue otherwise); kernel membership uses the relative
    cutoff 1e-9 * max(1, ||h||).
    """
    h = coherent_form(term, kms) if term.picture == "heisenberg" else term
    h_sym = 0.5 * (h.mat + h.mat.conj().T)
    eig = hermitian_eigendecompose(h_sym)
    w = eig.eigenvalues
    h_norm = float(np.abs(w).max())
    scale = max(1.0, h_norm)
    anti = h.mat - h.mat.conj().T
    if norm_exceeds(anti, tol * scale):
        raise NotDetailedBalanced(
            f"coherent form deviates from Hermitian by {spectral_norm(anti):.3e} "
            f"(tolerance {tol:.1e} * {scale:.3e})"
        )
    if w[-1] > tol * scale:
        raise PositiveEigenvalue(
            f"coherent form has eigenvalue {w[-1]:.3e} above zero"
        )
    kernel_cut = 1e-9 * scale
    sel = np.abs(w) <= kernel_cut
    if not sel.any():
        raise DegenerateGap(
            f"no kernel eigenvalue within {kernel_cut:.1e} (largest is {w[-1]:.3e})"
        )
    vk = eig.eigenvectors[:, sel]
    # Gamma^{1/2} is Hermitian, so Pi_0 Gamma^{1/2} = V (Gamma^{1/2} V) dagger.
    left = _kron_conj_apply(kms.inv_quarter, vk)
    mat = left @ _kron_conj_apply(kms.quarter, vk).conj().T
    return TermKernel(
        vk,
        Superoperator(mat, "heisenberg", term.dim),
        h_norm,
        float(np.linalg.norm(anti)),
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


def cptp_check(channel: Superoperator, tol: float = 1e-9) -> CptpReport:
    """Report Choi positivity and trace preservation; never raises on failure."""
    if channel.picture == "heisenberg":
        s_mat = channel.mat.conj().T
        heis_mat = channel.mat
    elif channel.picture == "schrodinger":
        s_mat = channel.mat
        heis_mat = channel.mat.conj().T
    else:
        raise BadParams("cptp_check needs a Heisenberg or Schrodinger channel")
    d = channel.dim
    choi = choi_matrix(s_mat, d)
    wmin = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    ident = np.eye(d, dtype=heis_mat.dtype)
    tp_res = float(
        np.linalg.norm((heis_mat @ ident.reshape(-1)).reshape(d, d) - ident)
    )
    # Both tolerances scale with max(1, ||S||) >= 1; the norm is only
    # needed when a residual exceeds the bare tolerance.
    cp = wmin >= -tol
    tp = tp_res <= tol
    if not (cp and tp):
        scale = max(1.0, spectral_norm(s_mat))
        cp = wmin >= -tol * scale
        tp = tp_res <= tol * scale
    return CptpReport(choi_min_eig=wmin, tp_residual=tp_res, cp=cp, tp=tp)
