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
(Pi_m = V_m V_m dagger) and P_m from V_m, and checks P_m CPTP.

The channel is local when the Hamiltonian is.  For commuting H each term
is built on its dressed support S (Kastoryano & Brandao): its jumps,
coherent part and the marginal Tr_{S^c} sigma live on S, and h_m, V_m and
P_m on the doubled support S u (S + n) of the vectorized register, with
4^|S| rows, so h_m acts as h_m^loc tensor I.  For non-commuting H the
support is the whole register.  The channel is kept as the V_m with their
doubled supports: one round is a KMS-picture sweep that applies each
Pi_m = V_m V_m dagger to its tensor legs of z, so no composite and no dense
Pi_m outside H_L is formed, and g is read off the support graph.  The
generator's coherent form is the sum of the h_m^loc tensor I.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    DlGibbsError,
    IrreducibilityWarning,
    NotLocal,
)
# perfbench/selftest.py reads noncommutation_degree from this module.
from .hamiltonians import (  # noqa: F401
    LocalHamiltonian,
    LocalOperator,
    add_embedded,
    commutation_degree,
    embed,
    noncommutation_degree,
    projector_noncommutation_degree,
)
from .kms import (
    KmsForm,
    LindbladTerm,
    SpectralReport,
    coherent_form,
    coherent_spectrum,
    cptp_check,
    probe_vector,
    stationary_channel,
    term_superoperator,
)
from .linalg import (
    norm_exceeds,
    partial_trace,
    real_if_exact,
    schatten1_distance,
)

# Largest relative Frobenius residual with which an operator counts as the
# identity off a term's support.  Rounding leaves about 1e-15.
LOCALITY_TOL = 1e-10


@dataclass(frozen=True)
class DlChannel:
    """Ordered product of the m per-term stationary channels.

    The channel is its kernel bases: kernel_bases holds each term's
    orthonormal kernel basis V_m on the tensor legs listed in legs[m] (the
    doubled support S u (S + n) of the 2n-leg vectorized register), so the
    KMS projector is Pi_m = V_m V_m dagger tensor I and one Schrodinger
    round is Gamma^{1/2} Pi_m ... Pi_1 Gamma^{-1/2}.  gap and kernel_dim
    describe the coherent form of the full generator; max_factor_norm is
    the largest ||h_m|| and db_residual the largest Frobenius bound
    ||h_m - h_m dagger||_F over the terms' coherent forms.  g, the
    non-commutation degree of the Pi_m, and q, the one-round contraction
    factor they certify, are computed on first read.
    """

    m: int
    kernel_bases: tuple[np.ndarray, ...]
    legs: tuple[tuple[int, ...], ...]
    gap: float
    kernel_dim: int
    max_factor_norm: float
    db_residual: float

    @cached_property
    def g(self) -> int:
        return projector_noncommutation_degree(self.kernel_bases, legs=self.legs)

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
    warnings: tuple[str, ...] = ()


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


def _restrict(
    term: LindbladTerm,
    idx: int,
    sites: tuple[int, ...],
    n: int,
    kms: KmsForm,
    local_kms: KmsForm,
) -> LindbladTerm:
    """term on the register of its sites, which are not the whole register.

    Each jump and the coherent part become their normalized partial traces
    onto sites.  Each must equal its partial trace tensor I, and so must
    its modular conjugates sigma^{+-1/4} K sigma^{-+1/4} against those of
    local_kms, the marginal of sigma on sites: the term's coherent form
    is built from exactly these products, so it then equals the local
    coherent form tensor I.  NotLocal names the term otherwise.
    """
    k = len(sites)
    q, iq = kms.quarter, kms.inv_quarter
    lq, liq = local_kms.quarter, local_kms.inv_quarter

    def local(op: LocalOperator, what: str) -> LocalOperator:
        full = embed(op, n)
        part = partial_trace(full, sites, (2,) * n) / 2 ** (n - k)
        pairs = (
            (what, full, part),
            (f"{what} as sigma^{{1/4}} K sigma^{{-1/4}}", q @ full @ iq, lq @ part @ liq),
            (f"{what} as sigma^{{-1/4}} K sigma^{{1/4}}", iq @ full @ q, liq @ part @ lq),
        )
        for label, got, want in pairs:
            residual = float(np.linalg.norm(got - embed(LocalOperator(want, sites), n)))
            if residual > LOCALITY_TOL * max(1.0, float(np.linalg.norm(got))):
                raise NotLocal(
                    f"term {idx}: {label} is not the identity off sites {sites} "
                    f"(residual {residual:.3e})"
                )
        return LocalOperator(part, tuple(range(k)))

    return LindbladTerm(
        jumps=tuple(local(j, f"jump {i}") for i, j in enumerate(term.jumps)),
        coherent=None if term.coherent is None else local(term.coherent, "coherent part"),
        support=tuple(range(k)),
    )


def compose_dl_channel(
    terms: list[LindbladTerm] | tuple[LindbladTerm, ...],
    kms: KmsForm,
    ham: LocalHamiltonian,
) -> DlChannel:
    """Build the round channel in one pass over the terms.

    The Heisenberg round is the product P_1 ... P_m in term order, so in
    the Schrodinger picture the first term's factor acts on the state
    first.  Each term's coherent form h_m gives its stationary channel
    P_m, which is checked CPTP and dropped; only V_m, ||h_m|| and the
    detailed-balance bound are kept.  The generator spectrum comes from
    the sum of the h_m (the coherent form is linear).

    ham is the Hamiltonian the terms and sigma come from.  When its terms
    commute (commutation_degree 0) each term is built on its dressed
    support (_restrict), with the marginal of sigma there as its KMS
    state; otherwise, and for a term whose support is the whole register,
    on the whole register with kms itself.
    """
    if not terms:
        raise BadParams("need at least one term to compose a channel")
    n = int(round(np.log2(kms.dim)))
    if 2**n != kms.dim:
        raise DimensionMismatch(f"state dimension {kms.dim} is not a power of 2")
    if ham.n != n:
        raise DimensionMismatch(f"Hamiltonian on {ham.n} qubits, state on {n}")
    whole = tuple(range(n))
    local = commutation_degree(ham) == 0
    marginals = {whole: kms}
    generator = None
    bases = []
    legs = []
    h_norms = []
    db_residuals = []
    for idx, t in enumerate(terms):
        sites = tuple(sorted(t.support)) if local else whole
        if sites not in marginals:
            marginals[sites] = KmsForm(partial_trace(kms.sigma, sites, (2,) * n))
        site_kms = marginals[sites]
        if sites != whole:
            t = _restrict(t, idx, sites, n, kms, site_kms)
        h = coherent_form(term_superoperator(t, len(sites)), site_kms)
        k = stationary_channel(h, site_kms)
        rep = cptp_check(k.channel)
        if not (rep.cp and rep.tp):
            raise DlGibbsError(
                f"stationary channel for term {idx} is not CPTP: "
                f"choi_min_eig={rep.choi_min_eig:.3e} tp_residual={rep.tp_residual:.3e}; "
                f"kernel gap gap_m={k.gap:.3e}, so rounding tilts its kernel by "
                f"about eps*||h_m||/gap_m={np.finfo(float).eps * k.h_norm / k.gap:.3e}"
            )
        doubled = sites + tuple(q + n for q in sites)
        lifted = LocalOperator(h.mat, doubled)
        if generator is None:
            generator = embed(lifted, 2 * n)
        else:
            generator = add_embedded(generator, lifted, 2 * n)
        bases.append(k.basis)
        legs.append(doubled)
        h_norms.append(k.h_norm)
        db_residuals.append(k.db_residual)
        del h, k, lifted  # free h_m and P_m before the next term's are built
    _, gap, kernel_dim = coherent_spectrum(generator)
    return DlChannel(
        m=len(terms),
        kernel_bases=tuple(bases),
        legs=tuple(legs),
        gap=gap,
        kernel_dim=kernel_dim,
        max_factor_norm=max(h_norms),
        db_residual=max(db_residuals),
    )


def _contraction_factor(gap: float, g: int, tol: float = 1e-9) -> float:
    if g == 0:
        return 0.0 if gap > tol else 1.0
    return 1.0 / np.sqrt(gap / g**2 + 1.0)


def _sweep(
    bases: tuple[np.ndarray, ...], legs: tuple[tuple[int, ...], ...], z: np.ndarray
) -> np.ndarray:
    """Pi_m ... Pi_1 z with Pi = V V dagger on its legs of z, tensor I elsewhere.

    z is the vectorized register, one axis of size 2 per leg; each Pi acts
    on its legs moved to the front.  When the legs are the whole register
    this is z -> V (V dagger z).  Reversed bases and legs give
    Pi_1 ... Pi_m z.
    """
    n_legs = z.size.bit_length() - 1
    shape = (2,) * n_legs
    for v, lg in zip(bases, legs):
        order = list(lg) + [a for a in range(n_legs) if a not in lg]
        back = [0] * n_legs
        for i, a in enumerate(order):
            back[a] = i
        t = z.reshape(shape).transpose(order).reshape(v.shape[0], -1)
        t = v @ (v.conj().T @ t)
        z = t.reshape(shape).transpose(back).reshape(-1)
    return z


def iterate(
    channel: DlChannel,
    rho0: np.ndarray,
    kms: KmsForm,
    k_max: int,
) -> MixingTrace:
    """Apply the round channel k_max times, recording distance and bound.

    rho_0 is mapped once to the KMS picture, x = sigma^{-1/4} rho_0
    sigma^{-1/4}, swept k_max times through the Pi_m, and each iterate is
    mapped back as rho_k = sigma^{1/4} x_k sigma^{1/4}.
    channel_applications counts factor applications cumulatively (k times
    the number of terms).  A stationary space of dimension above one emits
    IrreducibilityWarning; the bound then degrades to the constant
    1 / sqrt(sigma_min) and observed distances may exceed it, which the
    mix experiment lists among its violations rather than hiding.
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
    d = kms.dim
    ks = np.arange(k_max + 1)
    dists = np.empty(k_max + 1)
    dists[0] = schatten1_distance(rho0, kms.sigma)
    z = (kms.inv_quarter @ rho0 @ kms.inv_quarter).reshape(-1)
    for k in range(1, k_max + 1):
        z = _sweep(channel.kernel_bases, channel.legs, z)
        rho = kms.quarter @ z.reshape(d, d) @ kms.quarter
        dists[k] = schatten1_distance(0.5 * (rho + rho.conj().T), kms.sigma)
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
    the identity.  With z = vec(sigma^{1/4} X sigma^{1/4}), ||X||_sigma =
    ||z||, ||Phi(X)||_sigma = ||y|| and Tr[sigma Phi(X)] =
    <vec(sigma^{1/2}), y> for y = Pi_1 ... Pi_m z.
    """
    if trials < 1:
        raise BadParams(f"trials must be >= 1, got {trials}")
    d = kms.dim
    q = channel.q
    heisenberg = (channel.kernel_bases[::-1], channel.legs[::-1])
    sqrt_vec = kms.sqrt.reshape(-1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_stat = 0.0
    vacuous = 0
    for _ in range(trials):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = 0.5 * (b + b.conj().T)
        x = x - np.real(np.trace(kms.sigma @ x)) * np.eye(d)
        z = (kms.quarter @ x @ kms.quarter).reshape(-1)
        x_norm2 = float(np.vdot(z, z).real)
        if x_norm2 < 1e-24:
            vacuous += 1
            continue
        y = _sweep(*heisenberg, z)
        y_norm2 = float(np.vdot(y, y).real)
        worst_stat = max(worst_stat, float(abs(np.vdot(sqrt_vec, y))))
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
    ham: LocalHamiltonian,
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
    ch = compose_dl_channel(terms, kms, ham)
    d2 = kms.dim**2
    h_l = ch.m * np.eye(d2, dtype=np.result_type(float, *ch.kernel_bases))
    for basis, legs in zip(ch.kernel_bases, ch.legs):
        h_l = add_embedded(h_l, LocalOperator(-(basis @ basis.conj().T), legs), 2 * ham.n)
    h_l = 0.5 * (h_l + h_l.conj().T)
    w, v = np.linalg.eigh(h_l)
    scale = max(1.0, float(np.abs(w).max()))
    kernel_dim = int(np.sum(np.abs(w) <= tol * scale))
    if kernel_dim == 0:
        raise BadParams("term projectors share no common kernel vector")
    gap = float(w[kernel_dim]) if kernel_dim < len(w) else 0.0
    phi = _sweep(ch.kernel_bases, ch.legs, probe_vector(v[:, :kernel_dim]))
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
