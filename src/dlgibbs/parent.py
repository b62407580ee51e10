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
register.  coherent_terms derives each term's coherent form h_a once, held
on that doubled support; a term that is not local there raises NotLocal
when it is built, and the worst relative residual of that check is its
locality residual.  For non-commuting H every term is on the whole doubled
register and has none.  H^a = (h_a + h_a dagger)/2 is exactly Hermitian,
and so is their sum.  Every experiment reads its terms off parent_terms:
build_parent keeps them, and the mix's round channel
(sampler.compose_dl_channel) takes the kernel of each H^a as it comes and
its gap and kernel_dim from the spectrum of their sum.

A parent term has one type, TermStack, at any number of temperatures: one
beta is a stack of one.  Each term is split by sector once, when it is
built (_held): a local term that is exactly zero outside its local
sectors, as every term of a diagonal H with Pauli couplings is, is held
as its 2^k blocks of side 2^k (hamiltonians.sector_blocks), and any other
term whole, as one block.  Its spectrum has two derivations, both on those
blocks: eigenvalues, one stacked eigvalsh, and eig, one stacked eigh.
Every reader takes the blocks and these, and no reader rebuilds a term
whole but verify_parent's frustration residual.

The checks are decided by bounds where a bound can decide, with the
rounding slack of linalg.norm_exceeds, and by the spectrum of the sum only
otherwise.  That spectrum is of the held terms' sum (hamiltonians.sector_sum):
for a diagonal H with Pauli couplings the 2^n sectors of side 2^n in one
stacked eigvalsh, with no 4^n x 4^n array; otherwise the one sector of
side 4^n.  Each local term's eigenvalues bound the sum's and scale the
dl_qsvt anneal's parent_projector_input, a hamiltonians.SectorHamiltonian
that holds each term by its blocks, whose ground cluster is summed by
sector too and whose DL operator reads each term's eigenvectors (eig),
which the mix's stationary channels read as well.

- Detailed balance of the sum: ||sum_a anti_a|| <= sum_a ||anti_a||_F, the
  terms' db_residuals; the assembled sum is checked only when they reach
  DETAILED_BALANCE_TOL.
- PositiveEigenvalue: lambda_max(sum_a H^a) <= sum_a max(0, lambda_max(H^a))
  (Weyl), read off each local term's eigenvalues; build_parent takes the
  spectrum of the sum only when that bound exceeds POSITIVE_EIGENVALUE_CUT,
  and always for non-commuting H, whose terms are as large as the sum.
  The mix takes that spectrum for its gap anyway, so it reads no bound.
- gap and kernel_dim of the sum are computed on their first read.  A
  dl_qsvt anneal reads neither: its fixed-point dimension is the ground
  cluster of parent_projector_input, the rank its DL operator projects onto.

Every function here also takes a temperature stack: terms whose operators
are (B, d, d) (jumps.model_terms at B weight profiles) and a KmsForm of B
states.  parent_terms then yields stacks of B, each check is made at every
temperature, and build_parent's result holds the stacks; ph[j] is
temperature j's parent, whose terms are stacks of one, views of the
stacks.  The readers of a whole parent (gap, kernel_dim, verify_parent and
parent_projector_input without an entry) read a parent of one temperature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    NotDetailedBalanced,
    NotLocal,
    PositivityFailure,
    StackDisagreement,
)
from .hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    SectorHamiltonian,
    _embed,
    add_embedded,
    apply_local,
    embed,
    sector_blocks,
    sector_sum,
    sector_unsplit,
    support_overlap_degree,
)
from .kms import (
    KmsForm,
    LindbladTerm,
    Superoperator,
    _first,
    _gibbs_weights,
    coherent_form,
    coherent_spectrum,
    term_superoperator,
)
from .linalg import (
    HermitianEig, _adjoint, frobenius_norms, hermitian_eigendecompose, norm_exceeds,
    partial_trace, spectral_norm,
    symmetric_eigenvalues, vectorize,
)
from .tolerances import (
    DETAILED_BALANCE_TOL, LOCALITY_TOL, NORM_SLACK, PARENT_TERM_PSD_TOL,
    POSITIVE_EIGENVALUE_CUT,
)

__all__ = [
    "ParentHamiltonian",
    "ParentReport",
    "build_parent",
    "parent_projector_input",
    "purified_gibbs",
    "verify_parent",
]


@dataclass(frozen=True)
class TermStack:
    """One parent term H^a at every temperature of a stack, as parent_terms yields it.

    held is the term by sector, (B, 2^k, 2^k, 2^k) with one set of blocks
    per temperature (sector_blocks), when it is local and every
    temperature's matrix is exactly zero outside its local sectors: 8^k
    entries each instead of the matrix's 16^k.  Otherwise, and for a term
    of non-commuting H, it is the matrices themselves, each one block,
    (B, 1, D, D).  One beta is a stack of one, B = 1.  H^a acts as its
    matrix tensor I on the legs in support.  state is the KMS form the term
    was built against (the marginal of sigma on its sites): stacked on a
    temperature stack, the form itself at one beta.  db_residual holds
    ||h_a - h_a dagger||_F of the coherent form H^a symmetrizes and
    locality_residual coherent_terms' locality, one value per temperature.
    eigenvalues and eig are one stacked call on held for every temperature,
    and term[j] is temperature j's stack of one, of views.
    """

    held: np.ndarray
    support: tuple[int, ...]
    state: KmsForm
    db_residual: np.ndarray
    locality_residual: np.ndarray | None

    def __getitem__(self, j: int) -> TermStack:
        """Entry j as a stack of one, of views."""
        entry = slice(j, j + 1)
        local = self.locality_residual
        return TermStack(
            self.held[entry],
            self.support,
            self.state[j] if self.state.eigenvalues.ndim > 1 else self.state,
            self.db_residual[entry],
            None if local is None else local[entry],
        )

    @cached_property
    def eig(self) -> HermitianEig:
        """Each temperature's eigendecomposition by local sector, in one stacked eigh."""
        return hermitian_eigendecompose(self.held)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Each temperature's ascending eigenvalues, (B, D), from one stacked eigvalsh."""
        if self.held.shape[1] == 1:
            return symmetric_eigenvalues(self.held[:, 0])
        return _block_eigenvalues(self.held)

    @property
    def norms(self) -> np.ndarray:
        """Each temperature's ||H^a||_2 = max |eigenvalue|, (B,)."""
        return np.abs(self.eigenvalues).max(axis=-1)


def _block_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the matrix, or each entry of a stack, with these sector blocks."""
    w = symmetric_eigenvalues(blocks)
    return np.sort(w.reshape(w.shape[:-2] + (-1,)), axis=-1)


@dataclass(frozen=True)
class ParentHamiltonian:
    """Doubled-register Hamiltonian with the purified Gibbs ground state.

    gap and kernel_dim are those of sum_a H^a, an exactly Hermitian sum of
    exactly Hermitian terms, by kms.coherent_spectrum's rules, so the
    generator's.  The sum is assembled and diagonalized on the first read
    of either, unless build_parent already took its spectrum; a dl_qsvt
    anneal reads the kernel off parent_projector_input instead.  A parent
    built on a temperature stack holds stacked terms and grounds (..., 4^n);
    ph[j] is the parent at entry j, whose terms are stacks of one, views of
    the stacks, and gap and kernel_dim are read there (BadParams on the
    stack).
    """

    terms: tuple[TermStack, ...]
    ground: np.ndarray
    n: int

    @property
    def m(self) -> int:
        return len(self.terms)

    def __getitem__(self, j: int) -> ParentHamiltonian:
        """The parent at entry j of a stack; one whose spectrum build_parent took is kept."""
        if j in self._checked:
            return self._checked[j]
        return ParentHamiltonian(tuple(t[j] for t in self.terms), self.ground[j], self.n)

    @cached_property
    def _checked(self) -> dict[int, ParentHamiltonian]:
        return {}

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, float, int]:
        """coherent_spectrum of sum_a H^a, summed from the held blocks (sector_sum)."""
        _one_temperature(self, "gap and kernel_dim")
        _, total = sector_sum(((t.held[0], t.support) for t in self.terms), self.n)
        return coherent_spectrum(total)

    @property
    def gap(self) -> float:
        return self._spectrum[1]

    @property
    def kernel_dim(self) -> int:
        return self._spectrum[2]


def _one_temperature(ph: ParentHamiltonian, what: str) -> None:
    """BadParams unless ph is a parent of one temperature, naming ph[j] otherwise."""
    if ph.ground.ndim > 1:
        raise BadParams(
            f"{what}: this parent holds a temperature stack of {ph.ground.shape[0]} "
            "entries; read entry j as ph[j]"
        )


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


def _restrict(
    term: LindbladTerm,
    idx: int,
    sites: tuple[int, ...],
    n: int,
    kms: KmsForm,
    local_kms: KmsForm,
) -> tuple[LindbladTerm, np.ndarray]:
    """term on the register of its sites, which are not the whole register.

    Each jump and the coherent part become their normalized partial traces
    onto sites.  Each must equal its partial trace tensor I, and so must
    its modular conjugates sigma^{+-1/4} K sigma^{-+1/4} against those of
    local_kms, the marginal of sigma on sites: the term's coherent form
    is built from exactly these products, so it then equals the local
    coherent form tensor I.  NotLocal names the term otherwise.  Returns
    the restricted term and the worst residual relative to max(1, ||K||).
    On a temperature stack every product, trace and residual is taken for
    every entry at once, and the residual is one per entry.
    """
    k = len(sites)
    q, iq = kms.quarter, kms.inv_quarter
    lq, liq = local_kms.quarter, local_kms.inv_quarter
    relatives: list[np.ndarray] = []

    def local(op: LocalOperator, what: str) -> LocalOperator:
        full = embed(op, n)
        part = partial_trace(full, sites, (2,) * n) / 2 ** (n - k)
        pairs = (
            (what, full, part),
            (f"{what} as sigma^{{1/4}} K sigma^{{-1/4}}", q @ full @ iq, lq @ part @ liq),
            (f"{what} as sigma^{{-1/4}} K sigma^{{1/4}}", iq @ full @ q, liq @ part @ lq),
        )
        for label, got, want in pairs:
            residual = frobenius_norms(got - _embed(want, sites, n))
            relative = residual / np.maximum(1.0, frobenius_norms(got))
            if np.any(relative > LOCALITY_TOL):
                raise NotLocal(
                    f"term {idx}: {label} is not the identity off sites {sites} "
                    f"(residual {_first(residual, relative > LOCALITY_TOL):.3e})"
                )
            relatives.append(relative)
        return LocalOperator(part, tuple(range(k)))

    restricted = LindbladTerm(
        jumps=tuple(local(j, f"jump {i}") for i, j in enumerate(term.jumps)),
        coherent=None if term.coherent is None else local(term.coherent, "coherent part"),
        support=tuple(range(k)),
    )
    return restricted, np.max(relatives, axis=0)


def coherent_terms(
    terms: Iterable[LindbladTerm],
    kms: KmsForm,
    ham: LocalHamiltonian,
) -> Iterator[tuple[Superoperator, tuple[int, ...], KmsForm, np.ndarray | None]]:
    """Each term's coherent form h_m, built once, in term order.

    The package's one call of term_superoperator and coherent_form.  ham
    is the Hamiltonian the terms and sigma come from.  When its terms
    commute (ham.commuting) each term is built on its dressed support S
    (_restrict) against the marginal of sigma there; otherwise, and when S
    is the whole register, on the whole register with kms.  Yields
    (h_m, legs, state, locality): h_m acts as h_m tensor I on legs
    S u (S + n), state is the KMS form it was built against and locality
    _restrict's worst relative residual (0.0 when S is the whole
    register, None for non-commuting H).  Terms and kms may be temperature
    stacks (jumps.model_terms, KmsForm.gibbs at an array of beta): every
    form, marginal and residual is then a stack, one entry per temperature.
    terms may be an iterator, consumed one term at a time.
    """
    n = int(round(np.log2(kms.dim)))
    if 2**n != kms.dim:
        raise DimensionMismatch(f"state dimension {kms.dim} is not a power of 2")
    if ham.n != n:
        raise DimensionMismatch(f"Hamiltonian on {ham.n} qubits, state on {n}")
    whole = tuple(range(n))
    local = ham.commuting
    marginals = {whole: kms}
    idx = -1
    for idx, t in enumerate(terms):
        sites = tuple(sorted(t.support)) if local else whole
        if sites not in marginals:
            marginals[sites] = KmsForm(partial_trace(kms.sigma, sites, (2,) * n))
        site_kms = marginals[sites]
        locality = np.zeros(kms.eigenvalues.shape[:-1]) if local else None
        if sites != whole:
            t, locality = _restrict(t, idx, sites, n, kms, site_kms)
        legs = sites + tuple(q + n for q in sites)
        # Unnamed, so only the caller holds h_m when the next one is built.
        yield coherent_form(term_superoperator(t, len(sites)), site_kms), legs, site_kms, locality
    if idx < 0:
        raise BadParams("need at least one term")


def parent_terms(
    terms: Iterable[LindbladTerm],
    kms: KmsForm,
    ham: LocalHamiltonian,
    beta: float | np.ndarray | None = None,
) -> Iterator[TermStack]:
    """Each H^a, the symmetrization of coherent_terms' h_a, in term order.

    An h_a, or their sum (checked after the last term, by the bound of the
    module docstring first), that deviates from Hermitian by more than
    DETAILED_BALANCE_TOL raises NotDetailedBalanced, whose message names
    beta when one is given.  Only the h_a - h_a dagger are kept, so a
    caller that drops each H^a holds one whole-register term at a time.
    Each H^a is a TermStack, a stack of one at one beta, whose
    h_a - h_a dagger is kept whole.  On a temperature stack beta holds one
    value per entry, each entry is checked, and the first failing entry is
    named; the sum of each entry whose bound does not decide is assembled
    one entry at a time.  A stack of local terms whose entries disagree on
    splitting by sector raises StackDisagreement.
    """
    nq = 2 * ham.n
    whole = None
    local_anti: list[tuple[np.ndarray, bool, tuple[int, ...]]] = []
    db_bound = 0.0
    idx = 0  # not enumerate, whose result tuple keeps h_a while the next is built
    for h, legs, state, locality in coherent_terms(terms, kms, ham):
        anti = h.mat - _adjoint(h.mat)
        db_residual = frobenius_norms(anti)
        _check_detailed_balance(anti, db_residual, f"term {idx}", beta)
        db_bound = db_bound + db_residual
        if len(legs) == nq:
            whole = add_embedded(whole, LocalOperator(anti, legs), nq)
        else:
            # A stack is kept by sector when it splits, 8^k entries, not 16^k.
            blocks = sector_blocks(anti) if anti.ndim > 2 else None
            local_anti.append((anti if blocks is None else blocks, blocks is not None, legs))
        del anti
        herm = 0.5 * (h.mat + _adjoint(h.mat))
        del h
        if herm.ndim == 2:  # one beta, a stack of one
            herm, db_residual = herm[None], np.reshape(db_residual, 1)
            locality = None if locality is None else np.reshape(locality, 1)
        yield TermStack(_held(herm, locality is not None), legs, state, db_residual, locality)
        del herm  # so only the caller holds H^a when the next one is built
        idx += 1
    # ||sum_a anti_a|| <= sum_a ||anti_a||_F, each term's db_residual.
    for j in np.flatnonzero(np.ravel(db_bound >= DETAILED_BALANCE_TOL * (1.0 - NORM_SLACK))):
        total = None if whole is None else _entries(whole)[j]
        for anti, split, legs in local_anti:
            if split:
                anti = sector_unsplit(anti.reshape((-1,) + anti.shape[-3:])[j])
            else:
                anti = _entries(anti)[j]
            total = add_embedded(total, LocalOperator(anti, legs), nq)
        _check_detailed_balance(
            total, frobenius_norms(total), "the sum of the terms", _entry(beta, j)
        )


def build_parent(
    terms: Iterable[LindbladTerm],
    kms: KmsForm,
    ham: LocalHamiltonian,
    beta: float | np.ndarray | None = None,
) -> ParentHamiltonian:
    """Assemble H = sum_a H^a from parent_terms, keeping the terms.

    A positive eigenvalue of the sum raises PositiveEigenvalue
    (coherent_spectrum); its spectrum is taken here only when the terms'
    bound cannot decide (module docstring), so for commuting H it is not.
    On a temperature stack (terms and kms stacked, beta one value per
    entry) the result holds the stacks, and each entry's sum is checked
    in order; ph[j] is entry j's parent.
    """
    stacks = tuple(parent_terms(terms, kms, ham, beta))
    # The ground after the terms, so neither is held while the terms are built.
    ground = kms.sqrt.reshape(kms.sqrt.shape[:-2] + (-1,))
    ground = ground / frobenius_norms(ground[..., None, :])[..., None]
    ph = ParentHamiltonian(stacks, ground, ham.n)
    entries = ground.size // ground.shape[-1]
    over = np.broadcast_to(_top_bound(ph.terms) > POSITIVE_EIGENVALUE_CUT, (entries,))
    for j in np.flatnonzero(over):
        step = ph if ground.ndim == 1 else ph._checked.setdefault(j, ph[j])
        step._spectrum  # refuses a positive eigenvalue
    return ph


def _top_bound(terms: tuple[TermStack, ...]) -> float | np.ndarray:
    """An upper bound on the top eigenvalue of sum_a H^a as eigvalsh computes it.

    lambda_max(sum_a H^a) <= sum_a max(0, lambda_max(H^a)), plus the
    rounding slack of norm_exceeds relative to sum_a ||H^a|| >= ||sum_a H^a||,
    all read off the terms' eigenvalues, one bound per entry of a stack.
    Terms of non-commuting H are on the whole register, where a term's
    spectrum costs what the sum's does, so there the bound is inf.
    """
    if any(t.locality_residual is None for t in terms):
        return math.inf
    tau = sum(np.maximum(0.0, t.eigenvalues[..., -1]) for t in terms)
    norms = sum(t.norms for t in terms)
    return tau + NORM_SLACK * np.maximum(1.0, norms)


def _check_detailed_balance(
    anti: np.ndarray, fro: np.ndarray, what: str, beta: float | np.ndarray | None
) -> None:
    """Raise NotDetailedBalanced when ||h - h dagger|| = ||anti|| is too large.

    fro holds ||anti||_F, which decides below the tolerance as norm_exceeds
    would; on a stack the first entry found too large is named.  The
    message names beta only when the caller gave one.
    """
    for j in np.flatnonzero(np.ravel(fro >= DETAILED_BALANCE_TOL * (1.0 - NORM_SLACK))):
        a = _entries(anti)[j]
        if norm_exceeds(a, DETAILED_BALANCE_TOL):
            b = _entry(beta, j)
            at = "" if b is None else f" at beta = {b}"
            raise NotDetailedBalanced(
                f"{what} has detailed-balance defect {spectral_norm(a):.3e}"
                f"{at} (tolerance {DETAILED_BALANCE_TOL:.1e})"
            )


def _held(herm: np.ndarray, local: bool) -> np.ndarray:
    """TermStack.held of a stack of matrices (B, D, D), the term's one split by sector.

    StackDisagreement when some of a local term's temperatures split by
    sector and others do not, which one stacked call cannot hold; a stack
    of one is split once.
    """
    blocks = sector_blocks(herm) if local else None
    if blocks is not None:
        return blocks
    if local and len(herm) > 1 and any(sector_blocks(m) is not None for m in herm):
        raise StackDisagreement("the temperatures disagree on the sectors of a term")
    return herm[:, None]


def _entries(a: np.ndarray) -> np.ndarray:
    """A matrix or a stack of them as a stack (entries, p, q), entry j in the stack's order."""
    return a.reshape((-1,) + a.shape[-2:])


def _entry(beta: float | np.ndarray | None, j: int) -> float | None:
    """The beta of entry j: beta itself when it is one value."""
    if beta is None or np.ndim(beta) == 0:
        return beta
    return float(np.ravel(beta)[j])


def purified_gibbs(ham: LocalHamiltonian, beta: float) -> np.ndarray:
    """Normalized v(sqrt(sigma_beta)) on the doubled register, from ham.eig's Gibbs weights."""
    w, v = _gibbs_weights(ham.eig, beta)
    psi = vectorize(v @ np.diag(np.sqrt(w)) @ v.conj().T)
    return psi / np.linalg.norm(psi)


def _frustration(term: TermStack, ground: np.ndarray) -> float:
    """||H^a ground||, with the term made whole (sector_unsplit) on ground's legs in support."""
    return float(np.linalg.norm(apply_local(sector_unsplit(term.held[0]), term.support, ground)))


def verify_parent(ph: ParentHamiltonian) -> ParentReport:
    """Report-only diagnostics of a parent of one temperature: frustration, locality, degree.

    Locality residuals are the ones build_parent measured.
    """
    _one_temperature(ph, "verify_parent")
    frus = tuple(_frustration(t, ph.ground) for t in ph.terms)
    locality = tuple(
        None if t.locality_residual is None else float(t.locality_residual[0]) for t in ph.terms
    )
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


def parent_projector_input(ph: ParentHamiltonian, j: int | None = None) -> SectorHamiltonian:
    """The negated, normalized local parent terms -H^a / max(1, ||H^a||), a stack of one.

    ph is a parent of one temperature, or, with j, a parent built on a
    temperature stack, whose entry j is taken (BadParams without j).  Each
    H^a is held on its doubled dressed support as the term holds it
    (TermStack.held), by local sector where it splits, so no term is made
    whole and split again.  -H^a must be positive semidefinite
    (PositivityFailure otherwise, the first term in order), and ||H^a|| is
    read off the term's eigenvalues.  Each term's eigendecomposition is
    H^a's by local sector (TermStack.eig), its eigenvalues scaled by
    -1 / max(1, ||H^a||).  The result is frustration-free with kernel
    ker sum_a H^a, so its ground cluster's dimension is ph.kernel_dim.  A
    parent of non-commuting H has no local terms (BadParams).
    """
    if j is None:
        _one_temperature(ph, "parent_projector_input without j")
        j = 0
    supports: list[tuple[int, ...]] = []
    blocks: list[np.ndarray] = []
    eigs: list[HermitianEig] = []
    for idx, t in enumerate(ph.terms):
        if t.locality_residual is None:
            msg = f"parent term {idx} is not local: the Hamiltonian terms do not commute"
            raise BadParams(msg)
        w = t.eigenvalues[j]
        scale = max(1.0, float(t.norms[j]))
        # -H^a / scale has eigenvalues -w / scale and norm at most 1.
        min_eig = -float(w[-1]) / scale
        if min_eig < -PARENT_TERM_PSD_TOL:
            raise PositivityFailure(
                f"negated parent term {idx} has eigenvalue {min_eig:.3e} < 0"
            )
        supports.append(t.support)
        blocks.append((-t.held[j] / scale)[None])
        eig = t.eig
        eigs.append(HermitianEig((-eig.eigenvalues[j] / scale)[None], eig.eigenvectors[j][None]))
    return SectorHamiltonian(2 * ph.n, supports, blocks, eigs)
