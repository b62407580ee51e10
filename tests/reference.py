"""Dense references the tests compare the pipeline against.

These are the whole-register computations the package no longer runs: the
ground space of an assembled Hamiltonian from a full eigendecomposition,
the frustration check on its ground vectors, the dense parent
Hamiltonian summed from its local terms, the dense route of the parent
terms (each rebuilt whole and split again), the dense projector of a
ProjectorResult, the transition from the SVD of a dense product of two
projectors, and the boost coefficients from scipy.special's erfcinv and
ive.  Beside them are the dense Gibbs state of an assembled H, the summed
Lindbladian of a term list, the detailed-balance defect and spectral
report of its coherent form, the per-cluster Bohr split with the jump and
coherent operators weighed on it, and the per-column singular-vector
gauge.  They are kept here, and not in dlgibbs, because only tests read
them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import math

import numpy as np
from numpy.polynomial import chebyshev
from scipy.special import erfcinv, ive

from dlgibbs.anneal import _check_overlap
from dlgibbs.errors import BadParams, DegenerateGapWarning, RankAmbiguous
from dlgibbs.hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    Sectors,
    _pair_degree,
    add_embedded,
    assemble,
    embed,
    lift_basis,
    sweep_projectors,
)
from dlgibbs.jumps import WeightProfile
from dlgibbs.kms import (
    KmsForm,
    LindbladTerm,
    SpectralReport,
    Superoperator,
    _gibbs_weights,
    coherent_form,
    probe_vector,
    term_superoperator,
)
from dlgibbs.linalg import (
    Svd,
    hermitian_eigendecompose,
    norm_exceeds,
    schatten1_distance,
    singular_value_decompose,
    spectral_norm,
)
from dlgibbs.parent import ParentHamiltonian
from dlgibbs.projector import ProjectorResult
from dlgibbs.tolerances import (
    BOHR_SPLIT,
    COMMUTATOR_CUT,
    FRUSTRATION_CUT,
    GAUGE_PIVOT,
    GROUND_CLUSTER_WIDTH,
    KERNEL_CUT,
    TERM_GROUND_WIDTH,
)


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta h) / Tr exp(-beta h) of a dense Hermitian h, with _gibbs_weights' guards."""
    ew, v = _gibbs_weights(hermitian_eigendecompose(h), beta)
    return v @ np.diag(ew) @ v.conj().T


def bohr_reference(
    a: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Independent per-cluster Bohr split: one dense component per frequency.

    Frequencies w = E - E' are clustered by walking the sorted values and
    cutting at gaps above BOHR_SPLIT max(1, ||h||); each cluster is selected
    with a mask widened by half that width and rotated back on its own.
    Clusters on which a has no nonzero entry are dropped.
    """
    a = np.asarray(a, dtype=complex)
    evals, v = np.linalg.eigh(h)
    tol = BOHR_SPLIT * max(1.0, spectral_norm(h))
    a_tilde = v.conj().T @ a @ v
    w_mat = evals[None, :] - evals[:, None]
    vals = np.sort(w_mat.ravel())
    edges = []
    start = prev = vals[0]
    for x in vals[1:]:
        if x - prev > tol:
            edges.append((start, prev))
            start = x
        prev = x
    edges.append((start, prev))
    freqs, comps = [], []
    for lo, hi in edges:
        mask = (w_mat >= lo - 0.5 * tol) & (w_mat <= hi + 0.5 * tol)
        block = np.where(mask, a_tilde, 0.0)
        if not np.any(np.abs(block) > 0):
            continue
        freqs.append(float(0.5 * (lo + hi)))
        comps.append(v @ block @ v.conj().T)
    return np.array(freqs), comps


def reference_jump(a: np.ndarray, h: np.ndarray, w: WeightProfile) -> np.ndarray:
    """sum_nu w_hat(nu) A_{-nu} over the per-cluster Bohr split."""
    freqs, comps = bohr_reference(a, h)
    return sum(w.jump_weight(-f) * c for f, c in zip(freqs, comps))


def reference_coherent(jump: np.ndarray, h: np.ndarray, w: WeightProfile) -> np.ndarray:
    """sum_nu g_hat(nu) (L'L)_{-nu} over the per-cluster Bohr split."""
    freqs, comps = bohr_reference(jump.conj().T @ jump, h)
    return sum(w.coherent_weight(-f) * c for f, c in zip(freqs, comps))


def gauge_reference(u: np.ndarray, vh: np.ndarray) -> None:
    """The per-column loop linalg.gauge_singular_vectors replaces, in place.

    Each nonzero column of u is turned so that its first entry above
    GAUGE_PIVOT of the column's norm is real and positive; the matching
    row of vh takes the inverse phase.
    """
    for j in range(min(u.shape[1], vh.shape[0])):
        col = u[:, j]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        nz = np.flatnonzero(np.abs(col) > GAUGE_PIVOT * norm)
        if nz.size == 0:
            continue
        pivot = col[nz[0]]
        phase = pivot / abs(pivot)
        u[:, j] *= phase.conjugate()
        vh[j, :] *= phase


def lindblad_superoperator(terms: list[LindbladTerm], n: int) -> Superoperator:
    """Heisenberg-picture matrix of a sum of local Lindblad terms."""
    if not terms:
        raise BadParams("need at least one Lindblad term")
    mat = sum(term_superoperator(t, n).mat for t in terms)
    return Superoperator(mat=mat, picture="heisenberg", dim=2**n)


def hermiticity_residual(op: Superoperator) -> float:
    """||M - M dagger||_2; for a coherent form, the detailed-balance defect."""
    return spectral_norm(op.mat - op.mat.conj().T)


def db_residual(lind: Superoperator, kms: KmsForm) -> float:
    """Operator-norm defect of detailed balance, ||h - h dagger||."""
    return hermiticity_residual(coherent_form(lind, kms))


def spectral_report(lind: Superoperator, kms: KmsForm) -> SpectralReport:
    """Eigenvalues (descending) of the coherent form, with gap and kernel size.

    gap is lambda_1 - lambda_2 of the descending spectrum, and exactly 0.0
    when the kernel has dimension >= 2, where that difference is rounding
    noise.  kernel_dim counts eigenvalues within KERNEL_CUT * max(1, ||h||)
    of zero.  db_residual is the defect ||h - h dagger|| (detailed balance
    is exactly hermiticity of the coherent form); dl_residual_energy probes
    the energy of probe_vector off the kernel.  kms.coherent_spectrum
    applies the same rules.
    """
    h = lind if lind.picture == "kms" else coherent_form(lind, kms)
    h_sym = 0.5 * (h.mat + h.mat.conj().T)
    eig = hermitian_eigendecompose(h_sym)
    w = eig.eigenvalues[::-1].copy()
    v = eig.eigenvectors[:, ::-1]
    scale = max(1.0, float(np.abs(w).max()))
    kernel = np.abs(w) <= KERNEL_CUT * scale
    kernel_dim = int(kernel.sum())
    gap = float(w[0] - w[1]) if len(w) > 1 and kernel_dim < 2 else 0.0
    psi = probe_vector(v[:, :kernel_dim])
    energy = float(np.real(psi.conj() @ (-h_sym) @ psi))
    return SpectralReport(
        eigenvalues=w,
        gap=gap,
        kernel_dim=kernel_dim,
        db_residual=hermiticity_residual(h),
        dl_residual_energy=energy,
    )


@dataclass(frozen=True)
class GroundSpace:
    """Ground cluster of a Hermitian matrix, kept as its orthonormal vectors."""

    vectors: np.ndarray
    dimension: int
    energy: float
    gap: float
    degenerate: bool
    frustration_residual: float = 0.0

    @cached_property
    def projector(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


def ground_space(h: np.ndarray | LocalHamiltonian) -> GroundSpace:
    """Project onto the lowest eigenvalue cluster of h.

    The ground cluster collects eigenvalues within GROUND_CLUSTER_WIDTH *
    max(1, ||h||) of
    the minimum, with ||h|| read off the eigenvalues; a gap below ten times
    that width triggers a DegenerateGapWarning because the cluster boundary
    is then ambiguous.  For a LocalHamiltonian input the frustration
    residual max_a ||P H_a|| = max_a ||V_r^dag H_a|| over the r ground
    vectors is reported as well; it vanishes exactly when the ground space
    sits inside the kernel of every (positive) term.
    """
    embedded: list[np.ndarray] | None = None
    if isinstance(h, LocalHamiltonian):
        # Summed in assemble's order, so h is bitwise assemble(ham).
        embedded = [embed(t, h.n) for t in h.terms]
        zero = np.zeros((2**h.n, 2**h.n), dtype=np.result_type(float, *embedded))
        h = sum(embedded, zero)
    eig = hermitian_eigendecompose(h)
    w, v = eig.eigenvalues, eig.eigenvectors
    scale = max(1.0, float(np.abs(w).max()))
    width = GROUND_CLUSTER_WIDTH * scale
    dim = int(np.sum(w - w[0] <= width))
    ground = v[:, :dim].copy()  # a view would keep all d x d of v alive
    gap = float(w[dim] - w[0]) if dim < len(w) else float("inf")
    degenerate = gap < 10 * width
    if degenerate:
        warnings.warn(
            f"ground cluster of dimension {dim} has gap {gap:.3e} within "
            f"10x the cluster width {width:.3e}",
            DegenerateGapWarning,
        )
    residual = 0.0
    if embedded:
        ground_h = ground.conj().T
        residual = max(spectral_norm(ground_h @ t) for t in embedded)
    return GroundSpace(
        vectors=ground,
        dimension=dim,
        energy=float(w[0]),
        gap=gap,
        degenerate=degenerate,
        frustration_residual=residual,
    )


def frustration_check(ham: LocalHamiltonian) -> tuple[bool, GroundSpace]:
    """Ground space of ham and whether it annihilates every term.

    Terms are expected in the zoo normalization (positive semidefinite with
    kernel); a term with negative eigenvalues reads as frustrated even when
    it shares its minimizer with the total.  The residual is compared with
    FRUSTRATION_CUT * max(1, ||H||); since that scale is at least 1, a
    residual within FRUSTRATION_CUT passes without assembling ||H||.
    """
    gs = ground_space(ham)
    res = abs(gs.frustration_residual)
    ff = res <= FRUSTRATION_CUT or res <= FRUSTRATION_CUT * spectral_norm(assemble(ham))
    return ff, gs


def parent_matrix(ph: ParentHamiltonian) -> np.ndarray:
    """The 4^n x 4^n parent sum_a H^a, each term rebuilt whole and added on its doubled support."""
    total = None
    for t in ph.terms:
        total = add_embedded(total, LocalOperator(term_matrix(t), t.support), 2 * ph.n)
    return total


# The dense route of the parent terms, the reference for the blocks a
# parent.TermStack holds: each term is rebuilt whole, and each reader splits
# it again, its eigenvalues and kernel by the term's sectors, the parent's
# sum and a projector input's ground cluster by the sectors of the sum.
# tests/test_dense_route.py compares the two routes bit for bit.


def term_matrix(t, j: int = 0) -> np.ndarray:
    """Entry j of a parent term stack (parent.TermStack) rebuilt whole from its held blocks."""
    held = t.held[j]
    if held.shape[0] == 1:
        return held[0]
    k = held.shape[0].bit_length() - 1
    idx = Sectors(k, True).index
    out = np.zeros((4**k, 4**k), dtype=held.dtype)
    out[idx[:, :, None], idx[:, None, :]] = held
    return out


def whole_terms(ham) -> tuple[LocalOperator, ...]:
    """A Hamiltonian's terms as whole local matrices, for dense references.

    A projector input of one step (a SectorHamiltonian) has each term made
    whole from its held blocks (sector_unsplit); a LocalHamiltonian's terms
    are returned as they are.
    """
    from dlgibbs.hamiltonians import SectorHamiltonian, sector_unsplit

    if not isinstance(ham, SectorHamiltonian):
        return ham.terms
    return tuple(
        LocalOperator(sector_unsplit(b[0]), legs) for b, legs in zip(ham.blocks, ham.supports)
    )


def whole_columns(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal columns held by sector, (count, p, r) zero-padded, placed whole.

    Block t of 2^k goes to the rows of sector t (Sectors(k, True).index),
    its nonzero columns in order, block after block; a stack of one is its
    block's nonzero columns.
    """
    count, side, _ = blocks.shape
    rows = np.arange(side)[None] if count == 1 else Sectors(count.bit_length() - 1, True).index
    cols = []
    for t in range(count):
        for c in np.flatnonzero(blocks[t].any(axis=0)):
            col = np.zeros(count * side, dtype=blocks.dtype)
            col[rows[t]] = blocks[t, :, c]
            cols.append(col)
    return np.stack(cols, axis=1) if cols else np.zeros((count * side, 0), blocks.dtype)


def split_columns(v: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns v on doubled legs S + (S + n), by sector: (2^k, 2^k, r), or None.

    Every column of v must be exactly zero outside one sector t (None
    otherwise); block t holds those columns, in order, on that sector's
    indices, followed by zero columns up to the most any sector has.  The
    split kms.stationary_channel's basis is checked against.
    """
    k = int(v.shape[0]).bit_length() // 2
    rows = Sectors(k, True).index
    blocks = v[rows]
    nonzero = blocks.any(axis=1)
    if not np.all(nonzero.sum(axis=0) == 1):
        return None
    sector = nonzero.argmax(axis=0)
    counts = np.bincount(sector, minlength=rows.shape[0])
    out = np.zeros(rows.shape + (int(counts.max(initial=0)),), dtype=v.dtype)
    for t in range(rows.shape[0]):
        cols = np.flatnonzero(sector == t)
        out[t, :, : cols.size] = blocks[t][:, cols]
    return out


def split_term(mat: np.ndarray, legs: tuple[int, ...], sectors: Sectors) -> np.ndarray | None:
    """A whole matrix on doubled legs as sectors hold it: its blocks by local sector, or None.

    Labelled, the blocks of sector_blocks (None when mat leaves its
    sectors); unlabelled, mat itself as one block.
    """
    from dlgibbs.hamiltonians import sector_blocks

    if not sectors.labelled:
        return mat[None]
    sites = legs[: len(legs) // 2]
    return sector_blocks(mat) if legs == sites + tuple(q + sectors.n for q in sites) else None


def dense_sector_sum(terms, n: int) -> tuple[Sectors, np.ndarray]:
    """The sum of whole matrices on doubled legs, each split again (split_term).

    Labelled when every matrix splits; at the first that does not, the sum
    so far is written into the one sector and the rest are added there.
    """
    sectors, total = Sectors(n, True), None
    for mat, legs in terms:
        blocks = split_term(mat, legs, sectors)
        if blocks is None:
            sectors = Sectors(n, False)
            if total is not None:
                rows = Sectors(n, True).index
                whole = np.zeros((1, 4**n, 4**n), dtype=total.dtype)
                whole[0][rows[:, :, None], rows[:, None, :]] = total
                total = whole
            blocks = split_term(mat, legs, sectors)
        if total is None:
            total = np.zeros((sectors.count,) + (2**sectors.width,) * 2, dtype=blocks.dtype)
        total = sectors.add(total, blocks, sectors.qubits(legs))
    return sectors, total


def sector_eigh(mat: np.ndarray):
    """A whole matrix's eigendecomposition by local sector: of its blocks when it splits, or whole."""
    from dlgibbs.hamiltonians import sector_blocks

    blocks = sector_blocks(mat)
    return hermitian_eigendecompose(mat[None] if blocks is None else blocks)


def term_eigenvalues(mat: np.ndarray, local: bool) -> np.ndarray:
    """Ascending eigenvalues of a whole parent term: of its sector blocks when local and split."""
    from dlgibbs.hamiltonians import sector_blocks
    from dlgibbs.linalg import symmetric_eigenvalues

    blocks = sector_blocks(mat) if local else None
    if blocks is None:
        return symmetric_eigenvalues(mat)
    return np.sort(symmetric_eigenvalues(blocks).reshape(-1))


def dense_parent_spectrum(ph: ParentHamiltonian) -> tuple[np.ndarray, float, int]:
    """coherent_spectrum of a parent of one temperature, its terms rebuilt whole, split and summed."""
    from dlgibbs.kms import coherent_spectrum

    _, total = dense_sector_sum(((term_matrix(t), t.support) for t in ph.terms), ph.n)
    return coherent_spectrum(total)


def dense_route_channel(terms, kms: KmsForm, ham: LocalHamiltonian):
    """The mix's kernel bases, channels, gap and kernel_dim with each parent term made whole.

    Each H^a is rebuilt whole, its kernel taken by sector_eigh of that
    matrix and its sum by dense_sector_sum: (bases, channels, gap,
    kernel_dim).  Each basis is whole on its legs (whole_columns), as
    DlChannel.kernel_bases reads.
    """
    from dlgibbs.kms import coherent_spectrum, stationary_channel
    from dlgibbs.parent import parent_terms

    bases, channels, mats = [], [], []
    for t in parent_terms(terms, kms, ham):
        mat = term_matrix(t)
        k = stationary_channel(sector_eigh(mat), t.state)
        bases.append(whole_columns(k.basis))
        channels.append(k.channel.mat)
        mats.append((mat, t.support))
    _, gap, kernel_dim = coherent_spectrum(dense_sector_sum(mats, ham.n)[1])
    return bases, channels, gap, kernel_dim


def projector_noncommutation_degree(
    bases: list[np.ndarray] | tuple[np.ndarray, ...],
    legs: list[tuple[int, ...]] | tuple[tuple[int, ...], ...],
) -> int:
    """noncommutation_degree of the projectors V V dagger onto orthonormal bases.

    The whole-register counterpart of hamiltonians.sector_noncommutation_degree:
    an overlapping pair is compared on the union of its qubits, each basis
    lifted there by the identity (lift_basis), by
    ||[P, Q]|| = ||X (V_b dagger - X dagger V_a dagger)||, X = V_a dagger V_b,
    decided by norm_exceeds against COMMUTATOR_CUT, with no sectors.
    """
    def exceeds(a: int, b: int, pair: tuple) -> bool:
        la, lb, width = pair
        va = lift_basis(bases[a], la, range(width))
        vb = lift_basis(bases[b], lb, range(width))
        adj_a = va.conj().T
        x = adj_a @ vb
        return norm_exceeds(x @ (vb.conj().T - x.conj().T @ adj_a), COMMUTATOR_CUT)

    return _pair_degree(len(bases), legs, exceeds)


def swept_distances(ch, rho0: np.ndarray, kms: KmsForm, k_max: int) -> np.ndarray:
    """iterate's trace distances from rounds swept term by term over the whole vector.

    Each round applies every Pi_m = V_m V_m dagger to its legs of the
    4^n-entry KMS-picture vector (sweep_projectors), with no sectors and
    no composite, and each distance is its own eigvalsh.
    """
    d = kms.dim
    dists = [schatten1_distance(rho0, kms.sigma)]
    z = (kms.inv_quarter @ rho0 @ kms.inv_quarter).reshape(-1)
    for _ in range(k_max):
        z = sweep_projectors(ch.kernel_bases, ch.legs, z)
        rho = kms.quarter @ z.reshape(d, d) @ kms.quarter
        dists.append(schatten1_distance(0.5 * (rho + rho.conj().T), kms.sigma))
    return np.array(dists)


def dense_stack(blocks: np.ndarray, sectors: Sectors | None, fill: float = 0.0) -> np.ndarray:
    """The 4^n x 4^n matrix whose sectors are a stack's blocks; a matrix (no sectors) as it is.

    A stack of one entry (1, count, p, p) is its entry.  On a held subset
    of sectors every other sector holds fill times the identity.
    """
    if sectors is None:
        return blocks
    if blocks.ndim == 4:
        (blocks,) = blocks
    out = np.zeros((4**sectors.n,) * 2, dtype=blocks.dtype)
    if sectors.held is not None:
        np.fill_diagonal(out, fill)
    idx = sectors.index
    out[idx[:, :, None], idx[:, None, :]] = blocks
    return out


def _dense_values(values: np.ndarray, sectors: Sectors | None, fill: float = 0.0) -> np.ndarray:
    """Per-sector values (count, side) at their sectors' indices, in vec order; fill off held ones."""
    if sectors is None:
        return values
    if values.ndim == 3:
        (values,) = values
    out = np.full(4**sectors.n, float(fill))
    out[sectors.index] = values
    return out


def dense_svd(svd: Svd, sectors: Sectors | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, s, Vh) of a matrix whose sectors' SVDs are svd, with D = U diag(s) Vh.

    Singular vector j of sector s sits at the index of that sector's basis
    vector j, so s is not sorted.  A sector a held subset leaves out is
    the zero matrix, whose SVD is U = Vh = I and s = 0.
    """
    u, vh = dense_stack(svd.u, sectors, 1.0), dense_stack(svd.vh, sectors, 1.0)
    return u, _dense_values(svd.s, sectors), vh


def dense_projector(res: ProjectorResult) -> np.ndarray:
    """The d x d projector U diag(p_s) V^dag of a ProjectorResult, its sectors made whole.

    A sector the held subset leaves out holds p(0) I (ProjectorResult.p_zero).
    """
    u, _, vh = dense_svd(res.svd, res.sectors)
    p_zero = 0.0 if getattr(res, "p_zero", None) is None else float(np.ravel(res.p_zero)[0])
    return (u * _dense_values(res.p_s, res.sectors, p_zero)) @ vh


def dense_dl(ham: LocalHamiltonian) -> np.ndarray:
    """The product of the embedded ground projectors P_1 ... P_m, formed densely.

    Each P is read off one eigh of its whole term, by the TERM_GROUND_WIDTH
    rule, with no sectors.
    """
    out = np.eye(2**ham.n)
    for t in whole_terms(ham):
        w, v = np.linalg.eigh(t.op)
        dim = int(np.sum(w - w[0] <= TERM_GROUND_WIDTH * max(1.0, float(np.abs(w).max()))))
        e = v[:, :dim]
        out = out @ embed(LocalOperator(e @ e.conj().T, t.support), ham.n)
    return out


def dense_input_dl(pin) -> np.ndarray:
    """The product of a projector input's embedded ground projectors, formed densely.

    Each P = V V^dag is read off the term's eigendecomposition by local
    sector (pin.eigs, a stack of one), by the TERM_GROUND_WIDTH rule, its
    vectors placed in the whole term (sector_eigenvectors): so P, and the
    product, are exactly zero off the sectors the blocks keep.
    """
    from dlgibbs.hamiltonians import sector_eigenvectors

    out = np.eye(2**pin.n)
    for legs, eig in zip(pin.supports, pin.eigs):
        w, v = eig.eigenvalues[0], eig.eigenvectors[0]
        ground = w - w.min() <= TERM_GROUND_WIDTH * max(1.0, float(np.abs(w).max()))
        e = sector_eigenvectors(v, ground)
        out = out @ embed(LocalOperator(e @ e.conj().T, legs), pin.n)
    return out


@dataclass(frozen=True)
class DenseAnneal:
    """What a dense dl_qsvt anneal reports: ell, tally, errors and the final state."""

    projector_degree: int
    tally: int
    transition_errors: tuple[float, ...]
    state_error: float
    success_probability: float


def dense_dl_qsvt_anneal(
    ham: LocalHamiltonian,
    couplings: list[LocalOperator],
    w: WeightProfile,
    sched,
    delta: float,
) -> DenseAnneal:
    """anneal.run_annealing's dl_qsvt mode on whole 4^n x 4^n matrices.

    Each step's projector input is taken as a plain LocalHamiltonian, so its
    ground cluster and certified gamma* come from the assembled sum; its DL
    operator is the dense product (dense_dl), whose SVD gives the projector
    U p(S) V^dag, and each transition is dense_transition of two such
    projectors, its error the 2-norm of O_tilde - b a^dag.  The budgets,
    degrees and boost coefficients are the package's.
    """
    from dlgibbs.anneal import boost_coefficients, error_budget
    from dlgibbs.jumps import build_model
    from dlgibbs.parent import build_parent, parent_projector_input
    from dlgibbs.projector import certified_bound, chebyshev_poly, degree_for_error

    targets, pins = [], []
    for beta in sched.betas.tolist():
        terms = build_model(ham, couplings, replace(w, beta=beta))
        ph = build_parent(terms, KmsForm.gibbs(ham, beta), ham, beta=beta)
        pin = parent_projector_input(ph)
        pins.append(LocalHamiltonian(n=pin.n, terms=whole_terms(pin)))
        targets.append(ph.ground)
    k = sched.steps
    floor = min(abs(np.vdot(targets[j - 1], targets[j])) for j in range(1, k + 1))
    budgets = error_budget(k, floor, delta)
    ell = max(
        degree_for_error(certified_bound(pin)[0], budgets.projector_error) for pin in pins
    )
    coefficients = boost_coefficients(floor, budgets.epsilon, budgets.degree)
    projectors = []
    for pin in pins:
        u, s, vh = np.linalg.svd(dense_dl(pin))
        projectors.append((u * chebyshev_poly(certified_bound(pin)[0], ell)(s)) @ vh)
    state, errors = targets[0], []
    for j in range(1, k + 1):
        o = dense_transition(projectors[j - 1], projectors[j], floor, coefficients)
        errors.append(spectral_norm(o - np.outer(targets[j], targets[j - 1].conj())))
        state = o @ state
    return DenseAnneal(
        projector_degree=ell,
        tally=k * (ell * pins[0].m + budgets.degree),
        transition_errors=tuple(errors),
        state_error=float(np.linalg.norm(state - targets[-1])),
        success_probability=float(np.real(np.vdot(state, state))),
    )


def dense_transition(
    pa: np.ndarray, pb: np.ndarray, b: float, coefficients: np.ndarray | None = None
) -> np.ndarray:
    """Transition operator O_tilde ~ |psi_b><psi_a| from projectors Pa, Pb.

    Takes the singular value decomposition of Pb @ Pa, checks its top
    singular value against the overlap floor b, and either divides the
    dominant singular value to 1 (the oracle, without coefficients) or
    applies the odd boost polynomial with these Chebyshev coefficients to
    every singular value (as anneal.transition does).  Both variants have
    operator norm at most 1.  The product u1 vh1 of the dominant
    singular vectors is gauge independent when the top singular value is
    simple, which the RankAmbiguous check enforces.
    """
    pa = np.asarray(pa)
    pb = np.asarray(pb)
    if pa.shape != pb.shape or pa.ndim != 2 or pa.shape[0] != pa.shape[1]:
        raise BadParams(f"projector shapes {pa.shape} and {pb.shape} do not match")
    svd = singular_value_decompose(pb @ pa)
    s = svd.s
    _check_overlap(s[0], b)
    if len(s) > 1 and s[1] > s[0] / 10:
        raise RankAmbiguous(
            f"second singular value {s[1]:.3e} is within a factor 10 of the "
            f"first {s[0]:.3e}"
        )
    if coefficients is None:
        return np.outer(svd.u[:, 0], svd.vh[0, :])
    boosted = chebyshev.chebval(np.clip(s, 0.0, 1.0), coefficients)
    return (svd.u * boosted) @ svd.vh


def scipy_boost_coefficients(b: float, epsilon: float, degree: int) -> np.ndarray:
    """anneal.boost_coefficients with erfcinv and e^{-z} I_j(z) from scipy.special."""
    k = float(erfcinv(epsilon / 2.0)) / b
    z = 0.5 * k * k
    pref = 2.0 * k / math.sqrt(math.pi)
    coeffs = np.zeros(degree + 1)
    coeffs[1] += pref * float(ive(0, z))
    jmax = (degree + 1) // 2
    for j in range(1, jmax + 1):
        w = pref * float(ive(j, z)) * (-1.0) ** j
        if 2 * j + 1 <= degree:
            coeffs[2 * j + 1] += w / (2 * j + 1)
        coeffs[2 * j - 1] -= w / (2 * j - 1)
    coeffs[0::2] = 0.0
    grid = np.linspace(-1.0, 1.0, 8001)
    sup = float(np.abs(chebyshev.chebval(grid, coeffs)).max())
    if sup > 1.0:
        coeffs = coeffs / sup
    return coeffs


# The dl_qsvt anneal one step at a time, on every sector of the doubled
# register: each step's projector input rebuilt dense from its parent's
# terms and split again, its DL operator, singular gap and projector, then
# the transition to the previous step's projector.  anneal.run_annealing
# runs the same arithmetic on a temperature stack and on D's support sectors
# only; the equivalence tests compare the two bit for bit.


@dataclass(frozen=True)
class StepInput(LocalHamiltonian):
    """One step's projector input: the dense terms -H^a / max(1, ||H^a||) and their eigensystems."""

    eigs: tuple = ()

    @cached_property
    def sectors(self) -> Sectors:
        return Sectors(self.n // 2, all(e.eigenvalues.shape[0] > 1 for e in self.eigs))

    @cached_property
    def cluster(self):
        from dlgibbs.hamiltonians import _cluster_of
        from dlgibbs.linalg import hermitian_eigenvalues

        _, total = dense_sector_sum(((t.op, t.support) for t in self.terms), self.n // 2)
        return _cluster_of(np.sort(hermitian_eigenvalues(total), axis=None))


def step_input(ph: ParentHamiltonian) -> StepInput:
    """The projector input of one step's parent, its terms rebuilt whole and decomposed again."""
    from dlgibbs.errors import PositivityFailure
    from dlgibbs.linalg import HermitianEig
    from dlgibbs.tolerances import PARENT_TERM_PSD_TOL

    terms, eigs = [], []
    for idx, t in enumerate(ph.terms):
        if t.locality_residual is None:
            raise BadParams(f"parent term {idx} is not local: the Hamiltonian terms do not commute")
        mat = term_matrix(t)
        w = term_eigenvalues(mat, True)
        scale = max(1.0, float(np.abs(w).max()))
        min_eig = -float(w[-1]) / scale
        if min_eig < -PARENT_TERM_PSD_TOL:
            raise PositivityFailure(f"negated parent term {idx} has eigenvalue {min_eig:.3e} < 0")
        terms.append(LocalOperator(-mat / scale, t.support))
        eig = sector_eigh(mat)
        eigs.append(HermitianEig(-eig.eigenvalues / scale, eig.eigenvectors))
    return StepInput(n=2 * ph.n, terms=tuple(terms), eigs=tuple(eigs))


def _step_columns(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    sector, col = np.nonzero(keep)
    slot = (np.cumsum(keep, axis=-1) - 1)[sector, col]
    out = np.zeros(u.shape[:-1] + (int(keep.sum(axis=-1).max()),), dtype=u.dtype)
    out[sector, :, slot] = u[sector, :, col]
    return out


@dataclass(frozen=True)
class StepDl:
    """One step's DL operator by sector: its stacked SVD and the mask of its top r values."""

    svd: Svd
    top: np.ndarray
    m: int


def step_dl(ham: StepInput) -> StepDl:
    """The DL operator of one step's input on every sector, with its checks."""
    from dlgibbs.errors import DegenerateGap, FrustrationDetected
    from dlgibbs.hamiltonians import sector_eigenvectors
    from dlgibbs.tolerances import IDEMPOTENCE_TOL, UNIT_SINGULAR_SLACK

    sectors, cluster = ham.sectors, ham.cluster
    parts = []
    for t, eig in zip(ham.terms, ham.eigs):
        w = eig.eigenvalues
        ground = w - w.min() <= TERM_GROUND_WIDTH * max(1.0, float(np.abs(w).max()))
        if sectors.labelled or w.shape[0] == 1:
            v = _step_columns(eig.eigenvectors, ground)
        else:
            v = sector_eigenvectors(eig.eigenvectors, ground)[None]
        p = v @ np.swapaxes(v.conj(), -1, -2)
        tol = IDEMPOTENCE_TOL
        if norm_exceeds(p @ p - p, tol) or norm_exceeds(p - np.swapaxes(p.conj(), -1, -2), tol):
            raise BadParams("term ground projector failed the idempotence check")
        parts.append((sectors.qubits(t.support), p))
    d = sectors.identity(np.result_type(float, *(p for _, p in parts)))
    for qubits, p in reversed(parts):
        d = sectors.apply(d, qubits, p)
    svd = singular_value_decompose(d)
    s = svd.s
    top = np.zeros(s.size, dtype=bool)
    top[np.argsort(-s, axis=None, kind="stable")[: cluster.dimension]] = True
    top = top.reshape(s.shape)
    u_r = _step_columns(svd.u, top)
    actions = [
        sectors.apply(u_r, sectors.qubits(t.support), split_term(t.op, t.support, sectors))
        for t in ham.terms
    ]
    bound = FRUSTRATION_CUT * max(1.0, cluster.norm)
    if abs(cluster.energy) > bound or any(norm_exceeds(y, bound) for y in actions):
        raise FrustrationDetected(
            "ground space is not annihilated by every term (residual "
            f"{max(map(spectral_norm, actions)):.3e}, ground energy {cluster.energy:.3e})"
        )
    s_r = float(s[top].min())
    if s_r < 1.0 - UNIT_SINGULAR_SLACK:
        raise DegenerateGap(
            f"singular value s_r={s_r:.6e} of the DL operator is below "
            f"1 - {UNIT_SINGULAR_SLACK:.1e}; its top block does not span the "
            f"{cluster.dimension}-dimensional ground space"
        )
    return StepDl(svd=svd, top=top, m=ham.m)


def step_certified_bound(ham: StepInput) -> tuple[float, float]:
    """certified_bound of one step's input: (gamma*, bound) from its cluster gap and degree."""
    from dlgibbs.errors import DegenerateGap
    from dlgibbs.hamiltonians import interaction_degree
    from dlgibbs.tolerances import GAMMA_STAR_MARGIN, MIN_CERTIFIED_GAP

    gap = ham.cluster.gap
    if not np.isfinite(gap) or gap <= MIN_CERTIFIED_GAP:
        raise DegenerateGap(f"Hamiltonian gap {gap:.3e} too small to certify")
    g = interaction_degree(ham)
    if g == 0:
        return 1.0 - GAMMA_STAR_MARGIN, 0.0
    bound = 1.0 / math.sqrt(gap / g**2 + 1.0)
    return 1.0 - bound, bound


def step_singular_gap(dl: StepDl, ham: StepInput) -> float:
    """The certified gamma* of one step, checked against its observed s_{r+1}."""
    from dlgibbs.errors import DegenerateGap
    from dlgibbs.tolerances import SINGULAR_BOUND_SLACK

    gamma_star, bound = step_certified_bound(ham)
    s = dl.svd.s
    s_next = float(s[~dl.top].max()) if ham.cluster.dimension < s.size else 0.0
    if s_next > bound + SINGULAR_BOUND_SLACK:
        raise DegenerateGap(
            f"singular value s_{{r+1}}={s_next:.6e} exceeds the certified "
            f"bound {bound:.6e}"
        )
    return gamma_star


@dataclass(frozen=True)
class StepProjector:
    """One step's projector U p(S) V^dag by sector, its error, and its sectors."""

    svd: Svd
    p_s: np.ndarray
    error: float
    sectors: Sectors

    @cached_property
    def blocks(self) -> np.ndarray:
        return (self.svd.u * self.p_s[..., None, :]) @ self.svd.vh


def step_projector(dl: StepDl, poly, sectors: Sectors) -> StepProjector:
    p_s = poly(dl.svd.s)
    return StepProjector(
        svd=dl.svd, p_s=p_s, error=float(np.abs(p_s - dl.top).max()), sectors=sectors
    )


def step_transition(pa, pb, a, b, state, coefficients, floor):
    """One transition on every sector: the SVD of P_b P_a, boosted, and its error."""
    sectors = pa.sectors
    core = singular_value_decompose(pb.blocks @ pa.blocks)
    s = np.sort(core.s, axis=None)[::-1]
    _check_overlap(s[0], floor)
    if len(s) > 1 and s[1] > s[0] / 10:
        raise RankAmbiguous(
            f"second singular value {s[1]:.3e} is within a factor 10 of the "
            f"first {s[0]:.3e}"
        )
    f = chebyshev.chebval(np.clip(core.s, 0.0, 1.0), coefficients)
    o = (core.u * f[..., None, :]) @ core.vh
    a_s, b_s, y = (sectors.gather(z) for z in (a, b, state))
    err = spectral_norm(o - b_s[..., :, None] * a_s[..., None, :].conj())
    return sectors.scatter((o @ y[..., None])[..., 0]), err


def stepwise_dl_qsvt_anneal(ham, couplings, w, sched, delta, step=step_transition):
    """run_annealing in dl_qsvt mode, one step at a time on every sector.

    Pass 1 is the package's (anneal._step_parents); each step's projector
    input is step_input of its parent.  Pass 2 builds step j's DL operator,
    gamma* check and projector, then runs step(previous, current, ...),
    step_transition or a dense stand-in, in the order DL_0, DL_1, T_1, ...
    """
    from dlgibbs.anneal import (
        AnnealingRun, QueryTally, StepRecord, _step_parents, boost_coefficients, error_budget,
    )
    from dlgibbs.errors import IrreducibilityWarning
    from dlgibbs.projector import chebyshev_poly, degree_for_error

    if not ham.commuting:
        raise BadParams(
            "dl_qsvt projector synthesis needs mutually commuting Hamiltonian "
            "terms; the parent terms are not local otherwise"
        )
    k_steps, betas = sched.steps, sched.betas
    targets, pins = [], []
    parents = _step_parents(ham, couplings, w, betas)
    for beta_j in betas.tolist():
        stack, entry = next(parents)
        ph = stack[entry]
        del stack
        pins.append(step_input(ph))
        kernel_dim = pins[-1].cluster.dimension
        if kernel_dim > 1:
            warnings.warn(
                f"generator at beta = {beta_j:.6g} has fixed-point dimension "
                f"{kernel_dim}; the purified path is not unique",
                IrreducibilityWarning,
            )
        targets.append(ph.ground)
        del ph
    del parents
    m_terms = len(couplings)
    if len({pin.sectors for pin in pins}) > 1:
        raise BadParams("the steps' projector inputs are not held on the same sectors")
    overlaps = [float(np.abs(np.vdot(targets[j - 1], targets[j]))) for j in range(1, k_steps + 1)]
    b_floor = min(overlaps)
    budgets = error_budget(k_steps, b_floor, delta)
    step_bound = delta / (2.0 * k_steps)
    ell = max(
        degree_for_error(step_certified_bound(pin)[0], budgets.projector_error) for pin in pins
    )
    coefficients = boost_coefficients(b_floor, budgets.epsilon, budgets.degree)
    dim = targets[0].shape[0]
    state = targets[0].copy()
    records = []
    prev = None
    for j in range(k_steps + 1):
        dl = step_dl(pins[j])
        gamma_star = step_singular_gap(dl, pins[j])
        res = step_projector(dl, chebyshev_poly(gamma_star, ell), pins[j].sectors)
        if j > 0:
            a, b = targets[j - 1], targets[j]
            state, err = step(prev, res, a, b, state, coefficients, b_floor)
            records.append(
                StepRecord(
                    index=j, beta=float(betas[j]), overlap=overlaps[j - 1],
                    transition_error=err, error_bound=step_bound, projector_error=res.error,
                    queries=ell * m_terms + budgets.degree,
                )
            )
        prev = res
    success = float(np.real(np.vdot(state, state)))
    state_error = float(np.linalg.norm(state - targets[-1]))
    norm = math.sqrt(success) if success > 0 else 1.0
    final_state = state / norm
    return AnnealingRun(
        budgets=budgets,
        records=tuple(records),
        final_state=final_state.reshape(dim),
        final_fidelity=float(np.abs(np.vdot(final_state, targets[-1]))),
        success_probability=success,
        state_error=state_error,
        min_overlap=b_floor,
        projector_degree=ell,
        m_terms=m_terms,
        tally=QueryTally(
            projector=k_steps * ell * m_terms, transition=k_steps * budgets.degree
        ),
    )
