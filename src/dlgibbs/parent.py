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
register.  build_parent takes each H^a from sampler.coherent_terms, the
h_m the round channel is built from, held on that doubled support; a term
that is not local there raises NotLocal when it is built, and the worst
relative residual of that check is its locality residual.  For
non-commuting H every term is on the whole doubled register and has none.

build_parent's checks are decided by bounds where a bound can decide, with
the rounding slack of linalg.norm_exceeds, and by the dense 4^n spectrum of
the sum only otherwise:

- Detailed balance of the sum: ||sum_a anti_a|| <= sum_a ||anti_a||_F, the
  terms' db_residuals; the assembled sum is checked only when they reach
  DETAILED_BALANCE_TOL.
- PositiveEigenvalue: lambda_max(sum_a H^a) <= sum_a max(0, lambda_max(H^a))
  (Weyl), read off each local term's eigenvalues; the spectrum of the sum
  is taken only when that bound exceeds POSITIVE_EIGENVALUE_CUT, and
  always for non-commuting H, whose terms are as large as the sum.
- gap and kernel_dim of the sum are computed on their first read.  A
  dl_qsvt anneal reads neither: its fixed-point dimension is the ground
  cluster of parent_projector_input, the rank its DL operator projects onto.
"""

from __future__ import annotations

import math
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
    add_embedded,
    apply_local,
    support_overlap_degree,
)
from .kms import (
    KmsForm,
    LindbladTerm,
    _gibbs_weights,
    coherent_spectrum,
)
from .linalg import norm_exceeds, spectral_norm, symmetric_eigenvalues, vectorize
from .sampler import coherent_terms
from .tolerances import (
    DETAILED_BALANCE_TOL, NORM_SLACK, PARENT_TERM_PSD_TOL, POSITIVE_EIGENVALUE_CUT,
)

__all__ = [
    "ParentHamiltonian",
    "ParentReport",
    "ParentTerm",
    "build_parent",
    "parent_projector_input",
    "purified_gibbs",
    "verify_parent",
]


@dataclass(frozen=True)
class ParentTerm:
    """One per-coupling block H^a = mat tensor I, mat on the legs in support.

    db_residual is ||h_a - h_a dagger||_F of the coherent form mat
    symmetrizes; locality_residual is sampler.coherent_terms' locality.
    """

    mat: np.ndarray
    support: tuple[int, ...]
    db_residual: float
    locality_residual: float | None

    @cached_property
    def norm(self) -> float:
        """||H^a||_2 = max |eigenvalue| of the Hermitian mat."""
        return float(np.abs(self.eigenvalues).max())

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of mat, computed on first read."""
        return symmetric_eigenvalues(self.mat)


@dataclass(frozen=True)
class ParentHamiltonian:
    """Doubled-register Hamiltonian with the purified Gibbs ground state.

    gap and kernel_dim are those of sum_a H^a by kms.coherent_spectrum's
    rules, so the generator's.  The sum is assembled and diagonalized on
    the first read of either, unless build_parent already took its spectrum;
    a dl_qsvt anneal reads the kernel off parent_projector_input instead.
    """

    terms: tuple[ParentTerm, ...]
    ground: np.ndarray
    n: int

    @property
    def m(self) -> int:
        return len(self.terms)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, float, int]:
        """coherent_spectrum of sum_a H^a, each term added on its legs."""
        total = None
        for t in self.terms:
            total = add_embedded(total, LocalOperator(t.mat, t.support), 2 * self.n)
        return coherent_spectrum(total)

    @property
    def gap(self) -> float:
        return self._spectrum[1]

    @property
    def kernel_dim(self) -> int:
        return self._spectrum[2]


@dataclass(frozen=True)
class ParentReport:
    """Frustration, locality and degree diagnostics.

    A term's hermiticity residual is its db_residual, kept on the term.
    """

    frustration_residuals: tuple[float, ...]
    max_frustration: float
    locality_residuals: tuple[float, ...] | None
    parent_degree: int
    locality_checked: bool


def build_parent(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
    ham: LocalHamiltonian,
    beta: float | None = None,
) -> ParentHamiltonian:
    """Assemble H = sum_a H^a, with H^a the KMS coherent form of term a.

    Each coherent form comes from sampler.coherent_terms, on its doubled
    support; H^a is its symmetrization there.  A term's coherent form, or
    their sum, that deviates from Hermitian by more than
    DETAILED_BALANCE_TOL raises NotDetailedBalanced; a positive eigenvalue
    of the parent raises PositiveEigenvalue.  The sum is checked as a 4^n
    matrix only when the terms' bounds cannot decide (module docstring), so
    for commuting H no 4^n spectrum is taken here; the whole-register
    defects of non-commuting H are summed into one array as they come.
    """
    nq = 2 * ham.n
    parent_terms: list[ParentTerm] = []
    whole = None
    local_anti: list[LocalOperator] = []
    for idx, (h, legs, _, locality) in enumerate(coherent_terms(terms, kms, ham)):
        form = h.mat
        anti = form - form.conj().T
        _check_detailed_balance(anti, f"term {idx}", beta)
        if len(legs) == nq:
            whole = add_embedded(whole, LocalOperator(anti, legs), nq)
        else:
            local_anti.append(LocalOperator(anti, legs))
        herm = 0.5 * (form + form.conj().T)
        parent_terms.append(ParentTerm(herm, legs, float(np.linalg.norm(anti)), locality))
    del anti
    # ||sum_a anti_a|| <= sum_a ||anti_a||_F, each term's db_residual.
    if sum(t.db_residual for t in parent_terms) >= DETAILED_BALANCE_TOL * (1.0 - NORM_SLACK):
        for op in local_anti:
            whole = add_embedded(whole, op, nq)
        _check_detailed_balance(whole, "the sum of the terms", beta)
    del whole, local_anti
    ground = vectorize(kms.sqrt)
    ground = ground / np.linalg.norm(ground)
    ph = ParentHamiltonian(tuple(parent_terms), ground, ham.n)
    cut = POSITIVE_EIGENVALUE_CUT
    if _top_bound(ph.terms) > cut:
        w = ph._spectrum[0]
        top = float(w[0])
        if top > cut and top > cut * max(1.0, float(np.abs(w).max())):
            raise PositiveEigenvalue(f"parent has positive eigenvalue {top:.3e}")
    return ph


def _top_bound(terms: tuple[ParentTerm, ...]) -> float:
    """An upper bound on the top eigenvalue of sum_a H^a as eigvalsh computes it.

    lambda_max(sum_a H^a) <= sum_a max(0, lambda_max(H^a)), plus the
    rounding slack of norm_exceeds relative to sum_a ||H^a|| >= ||sum_a H^a||,
    all read off the terms' eigenvalues.  Terms of non-commuting H are on
    the whole register, where a term's spectrum costs what the sum's does,
    so there the bound is inf.
    """
    if any(t.locality_residual is None for t in terms):
        return math.inf
    tau = sum(max(0.0, float(t.eigenvalues[-1])) for t in terms)
    return tau + NORM_SLACK * max(1.0, sum(t.norm for t in terms))


def _check_detailed_balance(anti: np.ndarray, what: str, beta: float | None) -> None:
    """Raise NotDetailedBalanced when ||h - h dagger|| = ||anti|| is too large."""
    if norm_exceeds(anti, DETAILED_BALANCE_TOL):
        raise NotDetailedBalanced(
            f"{what} has detailed-balance defect {spectral_norm(anti):.3e} "
            f"at beta = {beta} (tolerance {DETAILED_BALANCE_TOL:.1e})"
        )


def purified_gibbs(ham: LocalHamiltonian, beta: float) -> np.ndarray:
    """Normalized v(sqrt(sigma_beta)) on the doubled register, from ham.eig's Gibbs weights."""
    w, v = _gibbs_weights(ham.eig, beta)
    psi = vectorize(v @ np.diag(np.sqrt(w)) @ v.conj().T)
    return psi / np.linalg.norm(psi)


def _frustration(term: ParentTerm, ground: np.ndarray) -> float:
    """||H^a ground||, with mat applied to ground's legs in support."""
    return float(np.linalg.norm(apply_local(term.mat, term.support, ground)))


def verify_parent(ph: ParentHamiltonian) -> ParentReport:
    """Report-only diagnostics: frustration, locality, degree.

    Locality residuals are the ones build_parent measured.
    """
    frus = tuple(_frustration(t, ph.ground) for t in ph.terms)
    locality = tuple(t.locality_residual for t in ph.terms)
    if None in locality:
        warnings.warn("Hamiltonian terms do not commute; locality checks skipped")
        locality = None
    return ParentReport(
        frustration_residuals=frus,
        max_frustration=max(frus),
        locality_residuals=locality,
        parent_degree=support_overlap_degree([t.support for t in ph.terms]),
        locality_checked=locality is not None,
    )


def parent_projector_input(ph: ParentHamiltonian) -> LocalHamiltonian:
    """The negated, normalized local parent terms -H^a / max(1, ||H^a||).

    Each H^a is held on its doubled dressed support; -H^a must be positive
    semidefinite (PositivityFailure otherwise), and ||H^a|| is read off the
    term's eigenvalues.  The result is frustration-free with kernel
    ker sum_a H^a, so its ground cluster's dimension is ph.kernel_dim.  A
    parent of non-commuting H has no local terms (BadParams).
    """
    locals_: list[LocalOperator] = []
    for idx, t in enumerate(ph.terms):
        if t.locality_residual is None:
            msg = f"parent term {idx} is not local: the Hamiltonian terms do not commute"
            raise BadParams(msg)
        scale = max(1.0, t.norm)
        # -H^a / scale has eigenvalues -w / scale, w = t.eigenvalues, and
        # norm at most 1.
        min_eig = -float(t.eigenvalues[-1]) / scale
        if min_eig < -PARENT_TERM_PSD_TOL:
            raise PositivityFailure(
                f"negated parent term {idx} has eigenvalue {min_eig:.3e} < 0"
            )
        locals_.append(LocalOperator(-t.mat / scale, t.support))
    return LocalHamiltonian(n=2 * ph.n, terms=tuple(locals_))
