"""Detectability-lemma channel: compose, iterate, and bound mixing.

Each detailed-balanced term contributes a stationary channel
P_m = G^{-1} Pi_m G (Heisenberg picture), with Pi_m the orthogonal kernel
projector of the term's coherent form and G the quarter-power conjugation.
The round channel is the ordered product of the P_m; in the KMS picture it
is literally the product of orthogonal projectors Pi_m, so one round
contracts the component orthogonal to the common kernel by at least

    q = 1 / sqrt(gap / g^2 + 1),

where gap is the spectral gap of the full generator and g the
non-commutation degree of the Pi_m.  Iterating from rho_0 then obeys

    || rho_k - sigma ||_1 <= q^k / sqrt(sigma_min).

The comparison Hamiltonian H_L = sum_m (I - Pi_m) is positive
semidefinite; its gap above the common kernel upper-bounds the generator
gap and drives the projector bounds downstream; it is read off the same
channel.  Its factors are the kernels of the parent's terms, derived
once and checked detailed balanced alone and summed in parent.parent_terms:
compose_dl_channel takes the orthonormal kernel basis V_m of each
(Pi_m = V_m V_m dagger) as it comes and P_m from V_m, and checks P_m CPTP.

The channel is local when the Hamiltonian is.  For commuting H each term
is built on its dressed support S (Kastoryano & Brandao): its jumps,
coherent part and the marginal Tr_{S^c} sigma live on S, and h_m, V_m and
P_m on the doubled support S u (S + n) of the vectorized register, with
4^|S| rows, so h_m acts as h_m^loc tensor I.  For non-commuting H the
support is the whole register.  The channel is kept as the V_m with their
doubled supports, each by local sector as its term holds h_m
(kms.TermKernel.basis), and the round is composed from them sector by
sector (hamiltonians.Sectors).  Every commuting model shipped has a
diagonal H and Pauli couplings, so each h_m keeps s = i xor j of |i>|j>,
and each V_m is held by its sectors: the round is the 2^n per-sector composites
R_s = Pi_{m,s} ... Pi_{1,s} of side 2^n, 8^n entries, g is decided sector
by sector on the support graph, and the generator's spectrum, the
parent's, is that of the 2^n sectors of sum_m h_m^loc tensor I.  Other
models run the same code on one sector of side 4^n, a round of 16^n
entries, which the reach of non-commuting models (n <= 5) bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParams, DimensionMismatch, DlGibbsError, IrreducibilityWarning
# perfbench/selftest.py reads noncommutation_degree from this module.
from .hamiltonians import (  # noqa: F401
    LocalHamiltonian,
    Sectors,
    noncommutation_degree,
    sector_bases,
    sector_eigenvectors,
    sector_noncommutation_degree,
    sector_sum,
)
from .kms import (
    KmsForm,
    LindbladTerm,
    SpectralReport,
    coherent_spectrum,
    cptp_check,
    probe_vector,
    stationary_channel,
)
from .linalg import (
    HermitianEig,
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    norm_exceeds,
    real_if_exact,
    symmetric_eigenvalues,
)
from .parent import parent_terms
from .tolerances import (
    CONTRACTION_SLACK, DENSITY_MATRIX_TOL, GAP_ORDER_SLACK, KERNEL_CUT, OPEN_GAP_FLOOR,
    PROJECTED_PROBE_FLOOR, STATIONARITY_TOL, UNIT_FACTOR_SLACK, VACUOUS_NORM2,
    ZERO_ROUND_NORM2,
)


@dataclass(frozen=True)
class DlChannel:
    """Ordered product of the m per-term stationary channels on n qubits.

    The channel is its kernel bases: bases holds each term's orthonormal
    kernel basis V_m by local sector (kms.TermKernel.basis) on the tensor
    legs listed in legs[m] (the doubled support S u (S + n) of the 2n-leg
    vectorized register), so the KMS projector is Pi_m = V_m V_m dagger
    tensor I and one Schrodinger round is Gamma^{1/2} Pi_m ... Pi_1
    Gamma^{-1/2}.  gap and kernel_dim describe the coherent form of the full
    generator; max_factor_norm is the largest ||h_m|| and db_residual the
    largest Frobenius bound ||h_m - h_m dagger||_F over the terms' coherent
    forms.  The round by sector, g, the non-commutation degree of the Pi_m,
    q, the one-round contraction factor they certify, and kernel_bases,
    each V_m whole (for tests), are computed on first read.
    """

    m: int
    n: int
    bases: tuple[np.ndarray, ...]
    legs: tuple[tuple[int, ...], ...]
    gap: float
    kernel_dim: int
    max_factor_norm: float
    db_residual: float

    @cached_property
    def sectors(self) -> tuple[Sectors, tuple[tuple[np.ndarray, tuple[int, ...]], ...]]:
        """The kernel bases as the round's sectors hold them (hamiltonians.sector_bases)."""
        return sector_bases(self.bases, self.legs, self.n)

    @cached_property
    def kernel_bases(self) -> tuple[np.ndarray, ...]:
        """Each V_m whole on its legs, every column in its sector's rows (sector_eigenvectors)."""
        return tuple(sector_eigenvectors(v, v.any(axis=-2)) for v in self.bases)

    @cached_property
    def round(self) -> np.ndarray:
        """R_s = Pi_{m,s} ... Pi_{1,s} in each sector s, a stack: the Schrodinger KMS-picture round."""
        sectors, parts = self.sectors
        r = sectors.identity(np.result_type(float, *self.bases))
        for v, qubits in parts:
            r = sectors.apply(r, qubits, v @ np.swapaxes(v.conj(), -1, -2))
        return r

    @cached_property
    def g(self) -> int:
        return sector_noncommutation_degree(*self.sectors)

    @cached_property
    def q(self) -> float:
        return _contraction_factor(self.gap, self.g)


@dataclass(frozen=True)
class MixingTrace:
    """Distance-to-stationarity trace with the contraction bound."""

    ks: np.ndarray
    trace_distances: np.ndarray
    bounds: np.ndarray
    channel_applications: np.ndarray
    sigma_min: float
    gap: float
    g: int
    q: float
    kernel_dim: int


@dataclass(frozen=True)
class ContractionReport:
    """Worst observed one-round contraction over centered observables."""

    max_ratio: float
    stationarity_residual: float
    vacuous_trials: int
    passed: bool
    g: int
    q: float


def compose_dl_channel(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
    ham: LocalHamiltonian,
) -> DlChannel:
    """Build the round channel in one pass over the parent's terms.

    The Heisenberg round is the product P_1 ... P_m in term order, so in
    the Schrodinger picture the first term's factor acts on the state
    first.  Each parent term H^a (parent_terms, a stack of one held by
    sector) gives its stationary channel P_m from its eigendecomposition
    (TermStack.eig), which is checked CPTP and dropped, and its held blocks
    are added into the parent's sum (sector_sum) before the next is built;
    only V_m, ||H^a|| and db_residual are kept.  gap and kernel_dim are the
    sum's, the parent's.
    """
    kept = []

    def summands():
        for t in parent_terms(terms, kms, ham):  # not enumerate, which would keep t
            k = stationary_channel(HermitianEig(t.eig.eigenvalues[0], t.eig.eigenvectors[0]), t.state)
            rep = cptp_check(k.channel)
            if not (rep.cp and rep.tp):
                raise DlGibbsError(
                    f"stationary channel for term {len(kept)} is not CPTP: "
                    f"choi_min_eig={rep.choi_min_eig:.3e} tp_residual={rep.tp_residual:.3e}; "
                    f"kernel gap gap_m={k.gap:.3e}, so rounding tilts its kernel by "
                    f"about eps*||h_m||/gap_m={np.finfo(float).eps * k.h_norm / k.gap:.3e}"
                )
            kept.append((k.basis, t.support, k.h_norm, float(t.db_residual[0])))
            del k  # free P_m before the sum reads H^a
            yield t.held[0], t.support
            del t  # free H^a before the next term's is built

    _, total = sector_sum(summands(), ham.n)
    _, gap, kernel_dim = coherent_spectrum(total)
    bases, legs, h_norms, db_residuals = zip(*kept)
    return DlChannel(
        m=len(terms),
        n=ham.n,
        bases=bases,
        legs=legs,
        gap=gap,
        kernel_dim=kernel_dim,
        max_factor_norm=max(h_norms),
        db_residual=max(db_residuals),
    )


def _contraction_factor(gap: float, g: int) -> float:
    if g == 0:
        return 0.0 if gap > OPEN_GAP_FLOOR else 1.0
    return 1.0 / np.sqrt(gap / g**2 + 1.0)


def iterate(
    channel: DlChannel,
    rho0: np.ndarray,
    kms: KmsForm,
    k_max: int,
) -> MixingTrace:
    """Apply the round channel k_max times, recording distance and bound.

    rho_0 is mapped once to the KMS picture, x = sigma^{-1/4} rho_0
    sigma^{-1/4}, whose every sector is moved by the round (DlChannel.round)
    k_max times, one stacked product each, and each iterate is mapped back
    as rho_k = sigma^{1/4} x_k sigma^{1/4}.  The k_max + 1 trace distances
    are read off one stacked eigvalsh.
    channel_applications counts factor applications cumulatively (k times
    the number of terms).  A stationary space of dimension above one emits
    IrreducibilityWarning; the bound then degrades to the constant
    1 / sqrt(sigma_min) and observed distances may exceed it, which the
    mix experiment lists among its violations rather than hiding.
    """
    rho0 = real_if_exact(rho0)
    if rho0.shape != (kms.dim, kms.dim):
        raise DimensionMismatch(f"state shape {rho0.shape} vs dim {kms.dim}")
    if norm_exceeds(rho0 - rho0.conj().T, DENSITY_MATRIX_TOL):
        raise BadParams("initial state is not Hermitian")
    if abs(np.trace(rho0) - 1.0) > DENSITY_MATRIX_TOL:
        raise BadParams(f"initial state trace {np.trace(rho0):.6f} is not 1")
    if float(symmetric_eigenvalues(0.5 * (rho0 + rho0.conj().T)).min()) < -DENSITY_MATRIX_TOL:
        raise BadParams("initial state has a negative eigenvalue")
    if k_max < 0:
        raise BadParams(f"k_max must be >= 0, got {k_max}")
    q = channel.q
    if channel.kernel_dim > 1:
        warnings.warn(
            f"stationary space has dimension {channel.kernel_dim}; the distance "
            "bound is constant and convergence to sigma is not guaranteed",
            IrreducibilityWarning,
        )
    sectors, _ = channel.sectors
    r = channel.round
    ks = np.arange(k_max + 1)
    diffs = [rho0 - kms.sigma]
    z = sectors.gather((kms.inv_quarter @ rho0 @ kms.inv_quarter).reshape(-1))
    for _ in range(k_max):
        z = np.matmul(r, z[:, :, None])[:, :, 0]
        rho = kms.quarter @ sectors.scatter(z).reshape(kms.dim, kms.dim) @ kms.quarter
        diffs.append(0.5 * (rho + rho.conj().T) - kms.sigma)
    dists = np.abs(hermitian_eigenvalues(np.stack(diffs))).sum(axis=-1)
    bounds = q**ks.astype(float) / np.sqrt(kms.sigma_min)
    return MixingTrace(
        ks=ks,
        trace_distances=dists,
        bounds=bounds,
        channel_applications=ks * channel.m,
        sigma_min=kms.sigma_min,
        gap=channel.gap,
        g=channel.g,
        q=q,
        kernel_dim=channel.kernel_dim,
    )


def contraction_check(
    channel: DlChannel, kms: KmsForm, trials: int = 100, seed: int = 0
) -> ContractionReport:
    """Probe the one-round KMS-norm contraction on centered observables.

    Each trial draws a random Hermitian X, centers it by subtracting
    Tr[sigma X] I, applies the round channel in the Heisenberg picture and
    records

        ||Phi(X)||_sigma^2 (gap / g^2 + 1) / ||X||_sigma^2,

    which is at most 1 when the certified contraction holds.  The report
    also carries the worst |Tr[sigma Phi(X)]| (stationarity of centered
    observables) and counts trials discarded because X was proportional to
    the identity.  With z = vec(sigma^{1/4} X sigma^{1/4}), ||X||_sigma =
    ||z||, ||Phi(X)||_sigma = ||y|| and Tr[sigma Phi(X)] =
    <vec(sigma^{1/2}), y> for y = Pi_1 ... Pi_m z, the adjoint of the
    round in each sector.
    """
    if trials < 1:
        raise BadParams(f"trials must be >= 1, got {trials}")
    d = kms.dim
    q = channel.q
    sectors, _ = channel.sectors
    heisenberg = np.swapaxes(channel.round.conj(), -1, -2)
    sqrt_vec = sectors.gather(kms.sqrt.reshape(-1))
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_stat = 0.0
    vacuous = 0
    for _ in range(trials):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = 0.5 * (b + b.conj().T)
        x = x - np.real(np.trace(kms.sigma @ x)) * np.eye(d)
        z = sectors.gather((kms.quarter @ x @ kms.quarter).reshape(-1))
        x_norm2 = float(np.vdot(z, z).real)
        if x_norm2 < VACUOUS_NORM2:
            vacuous += 1
            continue
        y = np.matmul(heisenberg, z[:, :, None])[:, :, 0]
        y_norm2 = float(np.vdot(y, y).real)
        worst_stat = max(worst_stat, float(abs(np.vdot(sqrt_vec, y))))
        if q == 0.0:
            ratio = 0.0 if y_norm2 <= ZERO_ROUND_NORM2 * x_norm2 else float("inf")
        else:
            ratio = y_norm2 / (q * q * x_norm2)
        worst = max(worst, ratio)
    return ContractionReport(
        max_ratio=worst,
        stationarity_residual=worst_stat,
        vacuous_trials=vacuous,
        passed=worst <= 1.0 + CONTRACTION_SLACK and worst_stat <= STATIONARITY_TOL,
        g=channel.g,
        q=q,
    )


def superop_hamiltonian(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
    ham: LocalHamiltonian,
) -> SpectralReport:
    """Spectral report of H_L = sum_m (I - Pi_m) over the term projectors.

    The kernel bases of the Pi_m, the generator gap and kernel dimension,
    the largest factor norm and the detailed-balance bound are read off
    the channel compose_dl_channel builds, so a factor that is not CPTP
    raises its error here too.  The gap field holds the smallest eigenvalue
    above the kernel cluster (the quantity that upper-bounds the generator
    gap); db_residual is the worst per-term Frobenius bound
    ||h_m - h_m dagger||_F on the detailed-balance defect;
    dl_residual_energy is the Rayleigh quotient of the normalized
    product-projected probe vector, whose norm obeys
    ||prod Pi_m psi||^2 <= 1 / (e_phi / g^2 + 1), with psi the
    probe_vector off the common kernel.

    H_L is summed and decomposed by sector, the channel's (DlChannel.sectors),
    and the probe is projected by the round.

    Asserts gap(H_L) >= gap(L) - GAP_ORDER_SLACK whenever every coherent-form
    factor has spectral norm at most 1 (which is the hypothesis that makes the
    ordering a theorem: -h = sum -h_m <= max_m ||h_m|| H_L).  With larger
    factors a reversed ordering is possible and only triggers a warning.
    Also asserts a one-dimensional common kernel when the generator is
    irreducible.
    """
    ch = compose_dl_channel(terms, kms, ham)
    sectors, parts = ch.sectors
    h_l = ch.m * sectors.identity(np.result_type(float, *ch.bases))
    for v, qubits in parts:
        h_l = sectors.add(h_l, -(v @ np.swapaxes(v.conj(), -1, -2)), qubits)
    eig = hermitian_eigendecompose(h_l)
    order = np.argsort(eig.eigenvalues, axis=None, kind="stable")
    w = eig.eigenvalues.reshape(-1)[order]
    scale = max(1.0, float(np.abs(w).max()))
    kernel_dim = int(np.sum(np.abs(w) <= KERNEL_CUT * scale))
    if kernel_dim == 0:
        raise BadParams("term projectors share no common kernel vector")
    gap = float(w[kernel_dim]) if kernel_dim < len(w) else 0.0
    sector, col = np.divmod(order[:kernel_dim], h_l.shape[-1])
    kernel = np.zeros((kms.dim**2, kernel_dim), dtype=eig.eigenvectors.dtype)
    kernel[sectors.index[sector], np.arange(kernel_dim)[:, None]] = eig.eigenvectors[sector, :, col]
    psi = sectors.gather(probe_vector(kernel))
    phi = np.matmul(ch.round, psi[:, :, None])
    phi_norm = np.linalg.norm(phi)
    if phi_norm < PROJECTED_PROBE_FLOOR:
        energy = gap
    else:
        phi_hat = phi / phi_norm
        energy = float(np.real(np.vdot(phi_hat, h_l @ phi_hat)))
    if ch.kernel_dim == 1 and kernel_dim != 1:
        raise DlGibbsError(
            f"generator is irreducible but the term projectors share a "
            f"{kernel_dim}-dimensional kernel"
        )
    if gap < ch.gap - GAP_ORDER_SLACK:
        msg = (
            f"gap(H_L)={gap:.6e} below generator gap {ch.gap:.6e}; "
            f"max coherent-form factor norm {ch.max_factor_norm:.3f}"
        )
        if ch.max_factor_norm <= 1.0 + UNIT_FACTOR_SLACK:
            raise DlGibbsError(msg)
        warnings.warn(msg + " (ordering only guaranteed for unit-norm factors)")
    return SpectralReport(
        eigenvalues=w[::-1].copy(),
        gap=gap,
        kernel_dim=kernel_dim,
        db_residual=ch.db_residual,
        dl_residual_energy=energy,
    )
