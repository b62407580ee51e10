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
channel.  compose_dl_channel is the one pass over the terms: it derives
each coherent form h_m once, the orthonormal kernel basis V_m of h_m
(Pi_m = V_m V_m dagger) and P_m from V_m, checks P_m CPTP and multiplies
it into the composite, so at most one factor is held at a time.  The
generator's coherent form is the sum of the h_m, and g is read off the
V_m.  No dense Pi_m is formed outside H_L.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimensionMismatch, DlGibbsError, IrreducibilityWarning
# perfbench/selftest.py reads noncommutation_degree from this module.
from .hamiltonians import (  # noqa: F401
    noncommutation_degree,
    projector_noncommutation_degree,
)
from .kms import (
    KmsForm,
    LindbladTerm,
    SpectralReport,
    Superoperator,
    coherent_form,
    coherent_spectrum,
    cptp_check,
    kms_inner_product,
    probe_vector,
    stationary_channel,
    term_superoperator,
)
from .linalg import accumulate, norm_exceeds, real_if_exact, schatten1_distance


@dataclass(frozen=True)
class DlChannel:
    """Ordered product of the m per-term stationary channels.

    Only the composite and m are kept of the product; the factors P_m are
    dropped once multiplied in.  kernel_bases holds each term's orthonormal
    kernel basis V_m, so the KMS projector is Pi_m = V_m V_m dagger.  gap
    and kernel_dim describe the coherent form of the full generator, g is
    the non-commutation degree of the Pi_m and q the one-round contraction
    factor they certify; max_factor_norm is the largest ||h_m|| and
    db_residual the largest Frobenius bound ||h_m - h_m dagger||_F over the
    terms' coherent forms.  All are computed once, at composition.
    """

    m: int
    composite: Superoperator
    kernel_bases: tuple[np.ndarray, ...]
    gap: float
    kernel_dim: int
    g: int
    q: float
    max_factor_norm: float
    db_residual: float


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
    warnings: tuple[str, ...] = ()

    @property
    def violations(self) -> np.ndarray:
        return np.flatnonzero(self.trace_distances > self.bounds + 1e-9)


@dataclass(frozen=True)
class ContractionReport:
    """Worst observed one-round contraction over centered observables."""

    max_ratio: float
    bound: float
    stationarity_residual: float
    trials: int
    vacuous_trials: int
    passed: bool
    g: int
    q: float


def compose_dl_channel(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
) -> DlChannel:
    """Build the round channel in one pass over the terms.

    The composite's Heisenberg matrix is the product in term order, so its
    Schrodinger adjoint applies the first term's factor to the state first.
    Each term's coherent form h_m gives its stationary channel P_m, which
    is checked CPTP and multiplied into the composite at once; only V_m,
    ||h_m|| and the detailed-balance bound are kept.  The generator
    spectrum comes from the sum of the h_m (the coherent form is linear)
    and g from the kernel bases.  The channel invariants are computed here,
    once, for iterate, contraction_check and superop_hamiltonian.
    """
    if not terms:
        raise BadParams("need at least one term to compose a channel")
    n = int(round(np.log2(kms.dim)))
    if 2**n != kms.dim:
        raise DimensionMismatch(f"state dimension {kms.dim} is not a power of 2")
    composite = generator = None
    bases = []
    h_norms = []
    db_residuals = []
    for idx, t in enumerate(terms):
        h = coherent_form(term_superoperator(t, n), kms)
        k = stationary_channel(h, kms)
        rep = cptp_check(k.channel)
        if not (rep.cp and rep.tp):
            raise DlGibbsError(
                f"stationary channel for term {idx} is not CPTP: "
                f"choi_min_eig={rep.choi_min_eig:.3e} tp_residual={rep.tp_residual:.3e}"
            )
        composite = k.channel.mat if composite is None else composite @ k.channel.mat
        generator = accumulate(generator, h.mat)
        bases.append(k.basis)
        h_norms.append(k.h_norm)
        db_residuals.append(k.db_residual)
        del h, k  # free h_m and P_m before the next term's are built
    _, gap, kernel_dim = coherent_spectrum(generator)
    g = projector_noncommutation_degree(bases)
    return DlChannel(
        m=len(terms),
        composite=Superoperator(mat=composite, picture="heisenberg", dim=kms.dim),
        kernel_bases=tuple(bases),
        gap=gap,
        kernel_dim=kernel_dim,
        g=g,
        q=_contraction_factor(gap, g),
        max_factor_norm=max(h_norms),
        db_residual=max(db_residuals),
    )


def _contraction_factor(gap: float, g: int, tol: float = 1e-9) -> float:
    if g == 0:
        return 0.0 if gap > tol else 1.0
    return 1.0 / np.sqrt(gap / g**2 + 1.0)


def iterate(
    channel: DlChannel,
    rho0: np.ndarray,
    kms: KmsForm,
    k_max: int,
) -> MixingTrace:
    """Apply the round channel k_max times, recording distance and bound.

    channel_applications counts factor applications cumulatively (k times
    the number of terms).  A stationary space of dimension above one emits
    IrreducibilityWarning; the bound then degrades to the constant
    1 / sqrt(sigma_min) and observed distances may exceed it, which the
    violations property reports rather than hides.
    """
    rho0 = real_if_exact(rho0)
    if rho0.shape != (kms.dim, kms.dim):
        raise DimensionMismatch(f"state shape {rho0.shape} vs dim {kms.dim}")
    if norm_exceeds(rho0 - rho0.conj().T, 1e-10):
        raise BadParams("initial state is not Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise BadParams(f"initial state trace {np.trace(rho0):.6f} is not 1")
    if float(np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min()) < -1e-10:
        raise BadParams("initial state has a negative eigenvalue")
    if k_max < 0:
        raise BadParams(f"k_max must be >= 0, got {k_max}")
    q = channel.q
    warns: list[str] = []
    if channel.kernel_dim > 1:
        msg = (
            f"stationary space has dimension {channel.kernel_dim}; the distance "
            "bound is constant and convergence to sigma is not guaranteed"
        )
        warnings.warn(msg, IrreducibilityWarning)
        warns.append(msg)
    schro = channel.composite.adjoint()
    ks = np.arange(k_max + 1)
    dists = np.empty(k_max + 1)
    rho = rho0.copy()
    for k in range(k_max + 1):
        if k > 0:
            rho = schro.apply(rho)
            rho = 0.5 * (rho + rho.conj().T)
        dists[k] = schatten1_distance(rho, kms.sigma)
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
        warnings=tuple(warns),
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
    the identity.
    """
    if trials < 1:
        raise BadParams(f"trials must be >= 1, got {trials}")
    d = kms.dim
    q = channel.q
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_stat = 0.0
    vacuous = 0
    for _ in range(trials):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = 0.5 * (b + b.conj().T)
        x = x - np.real(np.trace(kms.sigma @ x)) * np.eye(d)
        x_norm2 = float(np.real(kms_inner_product(x, x, kms)))
        if x_norm2 < 1e-24:
            vacuous += 1
            continue
        y = channel.composite.apply(x)
        y_norm2 = float(np.real(kms_inner_product(y, y, kms)))
        worst_stat = max(worst_stat, abs(complex(np.trace(kms.sigma @ y))))
        if q == 0.0:
            ratio = 0.0 if y_norm2 <= 1e-24 * x_norm2 else float("inf")
        else:
            ratio = y_norm2 / (q * q * x_norm2)
        worst = max(worst, ratio)
    return ContractionReport(
        max_ratio=worst,
        bound=1.0,
        stationarity_residual=worst_stat,
        trials=trials,
        vacuous_trials=vacuous,
        passed=worst <= 1.0 + 1e-8 and worst_stat <= 1e-10,
        g=channel.g,
        q=q,
    )


def superop_hamiltonian(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
    tol: float = 1e-9,
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

    Asserts gap(H_L) >= gap(L) - 1e-8 whenever every coherent-form factor
    has spectral norm at most 1 (which is the hypothesis that makes the
    ordering a theorem: -h = sum -h_m <= max_m ||h_m|| H_L).  With larger
    factors a reversed ordering is possible and only triggers a warning.
    Also asserts a one-dimensional common kernel when the generator is
    irreducible.
    """
    ch = compose_dl_channel(terms, kms)
    d2 = kms.dim**2
    h_l = np.zeros((d2, d2), dtype=np.result_type(float, *ch.kernel_bases))
    for basis in ch.kernel_bases:
        h_l += np.eye(d2) - basis @ basis.conj().T
    h_l = 0.5 * (h_l + h_l.conj().T)
    w, v = np.linalg.eigh(h_l)
    scale = max(1.0, float(np.abs(w).max()))
    kernel_dim = int(np.sum(np.abs(w) <= tol * scale))
    if kernel_dim == 0:
        raise BadParams("term projectors share no common kernel vector")
    gap = float(w[kernel_dim]) if kernel_dim < len(w) else 0.0
    phi = probe_vector(v[:, :kernel_dim])
    for basis in ch.kernel_bases:
        phi = basis @ (basis.conj().T @ phi)
    phi_norm = np.linalg.norm(phi)
    if phi_norm < 1e-14:
        energy = gap
    else:
        phi_hat = phi / phi_norm
        energy = float(np.real(phi_hat.conj() @ h_l @ phi_hat))
    if ch.kernel_dim == 1 and kernel_dim != 1:
        raise DlGibbsError(
            f"generator is irreducible but the term projectors share a "
            f"{kernel_dim}-dimensional kernel"
        )
    if gap < ch.gap - 1e-8:
        msg = (
            f"gap(H_L)={gap:.6e} below generator gap {ch.gap:.6e}; "
            f"max coherent-form factor norm {ch.max_factor_norm:.3f}"
        )
        if ch.max_factor_norm <= 1.0 + 1e-9:
            raise DlGibbsError(msg)
        warnings.warn(msg + " (ordering only guaranteed for unit-norm factors)")
    return SpectralReport(
        eigenvalues=w[::-1].copy(),
        gap=gap,
        kernel_dim=kernel_dim,
        db_residual=ch.db_residual,
        dl_residual_energy=energy,
    )
