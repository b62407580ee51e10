"""Parent Hamiltonian of a detailed-balanced Lindbladian on the doubled
register.

Row-major vectorization v(X) = sum_ij X_ij |i>|j> turns the map
X -> A X B^dag into the matrix A (x) B^*.  Conjugating the Heisenberg
generator L by Gamma^{1/2}(X) = sigma^{1/4} X sigma^{1/4} therefore
yields, term by term, the doubled-register matrix

    H^a = Q [ i G^a (x) I - i I (x) (G^a)^T + (L^a)^dag (x) (L^a)^T
              - (1/2) (L^a)^dag L^a (x) I - (1/2) I (x) (L^a)^T (L^a)^* ] Q^{-1},

with Q = sigma^{1/4} (x) (sigma^T)^{1/4}.  Detailed balance makes each
H^a Hermitian and negative semidefinite, and every H^a annihilates the
vectorized square root v(sqrt(sigma)): the sum H = sum_a H^a is a
frustration-free Hamiltonian whose unique top (zero-energy) eigenstate
is the purified Gibbs state, and whose spectrum equals that of the KMS
coherent form, so gap(H) = gap(L).

For commuting H the Bohr components of each coupling are exact
eigenoperators, the quarter-power dressing acts by scalars, and H^a is
supported on the dressed coupling support copied to both halves of the
register; verify_parent checks this locality explicitly and skips it
(with a warning) for non-commuting input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParams,
    NotDetailedBalanced,
    PositiveEigenvalue,
    PositivityFailure,
)
from .hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    assemble,
    commutation_degree,
    embed,
    support_overlap_degree,
)
from .kms import (
    DETAILED_BALANCE_TOL,
    KmsForm,
    LindbladTerm,
    coherent_form,
    coherent_spectrum,
    gibbs_state,
    term_superoperator,
)
from .linalg import (
    hermitian_eigendecompose,
    hermiticity_residual,
    norm_exceeds,
    partial_trace,
    spectral_norm,
    vectorize,
)

__all__ = [
    "ParentHamiltonian",
    "ParentReport",
    "ParentTerm",
    "ProjectorInput",
    "build_parent",
    "parent_projector_input",
    "purified_gibbs",
    "verify_parent",
]


@dataclass(frozen=True)
class ParentTerm:
    """One per-coupling block of the parent Hamiltonian."""

    mat: np.ndarray
    support: tuple[int, ...]

    @cached_property
    def norm(self) -> float:
        """||H^a||_2, computed on first read."""
        return spectral_norm(self.mat)


@dataclass(frozen=True)
class ParentHamiltonian:
    """Doubled-register Hamiltonian with the purified Gibbs ground state.

    gap and kernel_dim are full's (kms.coherent_spectrum), so the generator's.
    """

    full: np.ndarray
    terms: tuple[ParentTerm, ...]
    ground: np.ndarray
    n: int
    gap: float
    kernel_dim: int

    @property
    def m(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class ParentReport:
    """Frustration, hermiticity, locality and degree diagnostics.

    hermiticity_residuals are ||H^a - H^a†||_F, an upper bound on the
    spectral norm of each term's anti-Hermitian part.
    """

    frustration_residuals: tuple[float, ...]
    max_frustration: float
    hermiticity_residuals: tuple[float, ...]
    locality_residuals: tuple[float, ...] | None
    parent_degree: int
    locality_checked: bool
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class ProjectorInput:
    """Negated, normalized, locally extracted parent ready for projection."""

    ham: LocalHamiltonian
    scales: tuple[float, ...]


def _doubled_support(support: tuple[int, ...], n: int) -> tuple[int, ...]:
    base = sorted(support)
    return tuple(base + [q + n for q in base])


def build_parent(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
    beta: float | None = None,
) -> ParentHamiltonian:
    """Assemble H = sum_a H^a, with H^a the KMS coherent form of term a.

    coherent_form(term_superoperator(t, n), kms) is the module display:
    term_superoperator builds the bracket and the conjugation by
    Gamma^{1/2} is the Q sandwich.  Each term is built once.  A term's
    coherent form, or their sum, that deviates from Hermitian by more than
    DETAILED_BALANCE_TOL raises NotDetailedBalanced; a positive eigenvalue
    of the assembled parent raises PositiveEigenvalue.
    """
    if not terms:
        raise BadParams("need at least one term")
    d = kms.dim
    n = int(round(np.log2(d)))
    if 2**n != d:
        raise BadParams(f"state dimension {d} is not a power of 2")
    parent_terms: list[ParentTerm] = []
    raw = np.zeros((d * d, d * d), dtype=complex)
    for idx, t in enumerate(terms):
        form = coherent_form(term_superoperator(t, n), kms).mat
        _check_detailed_balance(form - form.conj().T, f"term {idx}", beta)
        raw += form
        h_a = 0.5 * (form + form.conj().T)
        parent_terms.append(ParentTerm(mat=h_a, support=_doubled_support(t.support, n)))
    _check_detailed_balance(raw - raw.conj().T, "the sum of the terms", beta)
    # The coherent form is linear, so full = sum_a H^a; raw is dropped
    # before the spectrum, which needs three more 4^n x 4^n arrays.
    full = 0.5 * (raw + raw.conj().T)
    del raw
    w, gap, kernel_dim = coherent_spectrum(full)
    top = float(w[0])
    if top > 1e-8 and top > 1e-8 * max(1.0, float(np.abs(w).max())):
        raise PositiveEigenvalue(f"parent has positive eigenvalue {top:.3e}")
    ground = vectorize(kms.sqrt)
    ground = ground / np.linalg.norm(ground)
    return ParentHamiltonian(
        full, tuple(parent_terms), ground, n, gap=gap, kernel_dim=kernel_dim
    )


def _check_detailed_balance(anti: np.ndarray, what: str, beta: float | None) -> None:
    """Raise NotDetailedBalanced when ||h - h dagger|| = ||anti|| is too large."""
    if norm_exceeds(anti, DETAILED_BALANCE_TOL):
        raise NotDetailedBalanced(
            f"{what} has detailed-balance defect {spectral_norm(anti):.3e} "
            f"at beta = {beta} (tolerance {DETAILED_BALANCE_TOL:.1e})"
        )


def purified_gibbs(ham: LocalHamiltonian | np.ndarray, beta: float) -> np.ndarray:
    """Normalized v(sqrt(sigma_beta)) on the doubled register."""
    h = assemble(ham) if isinstance(ham, LocalHamiltonian) else np.asarray(ham)
    sigma = gibbs_state(h, beta)
    eig = hermitian_eigendecompose(sigma)
    root = (eig.eigenvectors * np.sqrt(np.clip(eig.eigenvalues, 0.0, None))) @ (
        eig.eigenvectors.conj().T
    )
    psi = vectorize(root)
    return psi / np.linalg.norm(psi)


def _local_block(
    mat: np.ndarray, support: tuple[int, ...], nq: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best local representative on support and the off-support remainder."""
    comp = 2 ** (nq - len(support))
    block = partial_trace(mat, keep=list(support), dims=[2] * nq) / comp
    return block, mat - embed(LocalOperator(block, support), nq)


def verify_parent(ph: ParentHamiltonian, ham: LocalHamiltonian) -> ParentReport:
    """Report-only diagnostics: frustration, hermiticity, locality, degree."""
    frus = tuple(
        float(np.linalg.norm(t.mat @ ph.ground)) for t in ph.terms
    )
    herm = tuple(hermiticity_residual(t.mat) for t in ph.terms)
    warns: list[str] = []
    commuting = commutation_degree(ham) == 0
    locality: tuple[float, ...] | None = None
    if commuting:
        locality = tuple(
            spectral_norm(_local_block(t.mat, t.support, 2 * ph.n)[1])
            for t in ph.terms
        )
    else:
        msg = "Hamiltonian terms do not commute; locality checks skipped"
        warnings.warn(msg)
        warns.append(msg)
    return ParentReport(
        frustration_residuals=frus,
        max_frustration=max(frus),
        hermiticity_residuals=herm,
        locality_residuals=locality,
        parent_degree=support_overlap_degree([t.support for t in ph.terms]),
        locality_checked=commuting,
        warnings=tuple(warns),
    )


def parent_projector_input(ph: ParentHamiltonian, tol: float = 1e-9) -> ProjectorInput:
    """Negate, normalize and localize parent terms for the DL projector.

    Each term is read through its block, the normalized partial trace onto
    its doubled dressed support: -block must be positive semidefinite
    (PositivityFailure otherwise) and H^a exactly local (BadParams
    otherwise).  Terms are divided by max(1, ||block||), recorded in scales;
    the partial trace is unital and completely positive, so ||block|| <=
    ||H^a||.
    """
    nq = 2 * ph.n
    locals_: list[LocalOperator] = []
    scales: list[float] = []
    for idx, t in enumerate(ph.terms):
        block, off = _local_block(t.mat, t.support, nq)
        w = np.linalg.eigvalsh(block)
        scale = max(1.0, float(np.abs(w).max()))
        if norm_exceeds(off, tol * scale):
            raise BadParams(
                f"parent term {idx} is not local on its dressed support "
                f"(residual {spectral_norm(off):.3e}); projection input undefined"
            )
        del off
        # -block / scale has eigenvalues -w / scale and norm at most 1.
        min_eig = -float(w[-1]) / scale
        if min_eig < -1e-10:
            raise PositivityFailure(
                f"negated parent term {idx} has eigenvalue {min_eig:.3e} < 0"
            )
        neg = -block / scale
        locals_.append(LocalOperator(0.5 * (neg + neg.conj().T), t.support))
        scales.append(scale)
    return ProjectorInput(
        ham=LocalHamiltonian(n=nq, terms=tuple(locals_)), scales=tuple(scales)
    )
