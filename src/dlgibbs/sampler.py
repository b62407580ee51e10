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
gap and drives the projector bounds downstream.  One kernel pass over the
terms derives each coherent form h_m once, the orthonormal kernel basis V_m
of h_m (Pi_m = V_m V_m dagger), P_m from V_m, and the generator's coherent
form as the sum of the h_m; the channel step then checks and composes the
P_m and reads g off the V_m.  No dense Pi_m is formed outside H_L.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

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
    TermKernel,
    coherent_form,
    coherent_spectrum,
    cptp_check,
    kms_inner_product,
    probe_vector,
    stationary_channel,
    term_superoperator,
)
from .linalg import norm_exceeds, schatten1_distance


@dataclass(frozen=True)
class DlChannel:
    """Ordered product of per-term stationary channels.

    kernel_bases holds each term's orthonormal kernel basis V_m, so the KMS
    projector is Pi_m = V_m V_m dagger.  gap and kernel_dim describe the
    coherent form of the full generator, g is the non-commutation degree of
    the Pi_m and q the one-round contraction factor they certify;
    max_factor_norm is the largest ||h_m|| and db_residual the largest
    Frobenius bound ||h_m - h_m dagger||_F over the terms' coherent forms.
    All are computed once, at composition.
    """

    factors: tuple[Superoperator, ...]
    composite: Superoperator
    kernel_bases: tuple[np.ndarray, ...]
    gap: float
    kernel_dim: int
    g: int
    q: float
    max_factor_norm: float
    db_residual: float

    @property
    def m(self) -> int:
        return len(self.factors)


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


def _kernel_pass(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...], kms: KmsForm
) -> tuple[list[TermKernel], float, int]:
    """Each term's kernel and pullback, and the generator's gap and kernel_dim.

    The generator spectrum is that of the sum of the terms' coherent forms
    (the coherent form is linear).
    """
    if not terms:
        raise BadParams("need at least one term to compose a channel")
    n = int(round(np.log2(kms.dim)))
    if 2**n != kms.dim:
        raise DimensionMismatch(f"state dimension {kms.dim} is not a power of 2")
    kernels = []
    generator = np.zeros((kms.dim**2, kms.dim**2), dtype=complex)
    for t in terms:
        h = coherent_form(term_superoperator(t, n), kms)
        kernels.append(stationary_channel(h, kms))
        generator += h.mat
    _, gap, kernel_dim = coherent_spectrum(generator)
    return kernels, gap, kernel_dim


def compose_dl_channel(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
) -> DlChannel:
    """Build the round channel from per-term stationary channels.

    The composite's Heisenberg matrix is the product in term order, so its
    Schrodinger adjoint applies the first term's factor to the state first.
    After the kernel pass, each factor is checked CPTP, the factors are
    multiplied and g is read off the kernel bases.  The channel invariants
    are computed here, once, for iterate and contraction_check.
    """
    kernels, gap, kernel_dim = _kernel_pass(terms, kms)
    for idx, k in enumerate(kernels):
        rep = cptp_check(k.channel)
        if not (rep.cp and rep.tp):
            raise DlGibbsError(
                f"stationary channel for term {idx} is not CPTP: "
                f"choi_min_eig={rep.choi_min_eig:.3e} tp_residual={rep.tp_residual:.3e}"
            )
    factors = tuple(k.channel for k in kernels)
    bases = tuple(k.basis for k in kernels)
    mat = reduce(np.matmul, (p.mat for p in factors))
    composite = Superoperator(mat=mat, picture="heisenberg", dim=kms.dim)
    g = projector_noncommutation_degree(bases)
    return DlChannel(
        factors=factors,
        composite=composite,
        kernel_bases=bases,
        gap=gap,
        kernel_dim=kernel_dim,
        g=g,
        q=_contraction_factor(gap, g),
        max_factor_norm=max(k.h_norm for k in kernels),
        db_residual=max(k.db_residual for k in kernels),
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
    tol: float = 1e-9,
) -> MixingTrace:
    """Apply the round channel k_max times, recording distance and bound.

    channel_applications counts factor applications cumulatively (k times
    the number of terms).  A stationary space of dimension above one emits
    IrreducibilityWarning; the bound then degrades to the constant
    1 / sqrt(sigma_min) and observed distances may exceed it, which the
    violations property reports rather than hides.
    """
    rho0 = np.asarray(rho0, dtype=complex)
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
    the factor norms and the detailed-balance bounds all come from the
    kernel pass that compose_dl_channel also runs; no channel is checked
    or composed and g is not computed.  The gap field holds the smallest eigenvalue
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
    kernels, l_gap, l_kernel_dim = _kernel_pass(terms, kms)
    max_factor_norm = max(k.h_norm for k in kernels)
    d2 = kms.dim**2
    h_l = np.zeros((d2, d2), dtype=complex)
    for k in kernels:
        h_l += np.eye(d2) - k.basis @ k.basis.conj().T
    h_l = 0.5 * (h_l + h_l.conj().T)
    w, v = np.linalg.eigh(h_l)
    scale = max(1.0, float(np.abs(w).max()))
    kernel_dim = int(np.sum(np.abs(w) <= tol * scale))
    if kernel_dim == 0:
        raise BadParams("term projectors share no common kernel vector")
    gap = float(w[kernel_dim]) if kernel_dim < len(w) else 0.0
    phi = probe_vector(v[:, :kernel_dim])
    for k in kernels:
        phi = k.basis @ (k.basis.conj().T @ phi)
    phi_norm = np.linalg.norm(phi)
    if phi_norm < 1e-14:
        energy = gap
    else:
        phi_hat = phi / phi_norm
        energy = float(np.real(phi_hat.conj() @ h_l @ phi_hat))
    if l_kernel_dim == 1 and kernel_dim != 1:
        raise DlGibbsError(
            f"generator is irreducible but the term projectors share a "
            f"{kernel_dim}-dimensional kernel"
        )
    if gap < l_gap - 1e-8:
        msg = (
            f"gap(H_L)={gap:.6e} below generator gap {l_gap:.6e}; "
            f"max coherent-form factor norm {max_factor_norm:.3f}"
        )
        if max_factor_norm <= 1.0 + 1e-9:
            raise DlGibbsError(msg)
        warnings.warn(msg + " (ordering only guaranteed for unit-norm factors)")
    return SpectralReport(
        eigenvalues=w[::-1].copy(),
        gap=gap,
        kernel_dim=kernel_dim,
        db_residual=max(k.db_residual for k in kernels),
        dl_residual_energy=energy,
    )
