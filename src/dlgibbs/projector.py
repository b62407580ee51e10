"""Ground-space projection of frustration-free Hamiltonians via the
detectability-lemma operator and Chebyshev singular-value transformation.

For H = sum_m H_m frustration-free with per-term ground projectors P_m,
the operator DL(H) = prod_m P_m has singular values

    s_1 = ... = s_r = 1,   s_{r+1} <= 1 / sqrt(gap / g^2 + 1),

where r is the ground-space dimension, gap the spectral gap of H and g
the interaction degree.  Writing gamma* = 1 - 1/sqrt(gap/g^2 + 1), the
degree-l rescaled Chebyshev polynomial

    p(x) = T_l(x / (1 - gamma*)) / T_l(1 / (1 - gamma*))

satisfies p(1) = 1 and |p(x)| <= 2 exp(-l sqrt(gamma*)) for
|x| <= 1 - gamma*, so the singular-value transform U p(S) V^dag of
DL(H) = U S V^dag approximates the true ground projector U_1 V_1^dag
to within 2 exp(-l sqrt(gamma*)); the actual error, max_i |p(s_i) - [i < r]|,
is read off the singular values.  Inverting the bound gives the degree
schedule l = ceil(ln(2/eps) / sqrt(gamma*)), whose sqrt(gamma*)
dependence is the quadratic speedup this module certifies empirically.

DL(H) is never formed as a dense product: it equals B_1 C, with B_1 the
isometry onto the range of the first factor and C an R_1 x d core built by
applying the other factors to B_1's columns on their tensor legs, and its
SVD is read off C's (dl_operator).  The dl_qsvt anneal's projector input,
a hamiltonians.SectorHamiltonian on the doubled register, is decomposed by
sector instead: every term keeps s = i xor j, so DL(H) is the direct sum of
its sectors' products D_s, composed and decomposed as one stack, and so is
each projector U_s p(S_s) V_s^dag.

Evaluation of p uses cosh(l arccosh y) in log space for |y| > 1, which
stays finite for degrees far beyond the overflow point of T_l itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadEps,
    BadGamma,
    BadParams,
    DegenerateGap,
    FrustrationDetected,
    InsufficientSpread,
)
from .hamiltonians import (
    GroundCluster,
    LocalHamiltonian,
    SectorHamiltonian,
    Sectors,
    apply_local,
    interaction_degree,
    lift_basis,
    sector_eigenvectors,
    sweep_projectors,
)
from .linalg import (
    Svd,
    gauge_singular_vectors,
    hermitian_eigendecompose,
    norm_exceeds,
    singular_value_decompose,
    spectral_norm,
)
from .tolerances import (
    DECADE_SLACK, FRUSTRATION_CUT, GAMMA_STAR_MARGIN, IDEMPOTENCE_TOL, MIN_CERTIFIED_GAP,
    SINGULAR_BOUND_SLACK, TERM_GROUND_WIDTH, UNIT_SINGULAR_SLACK,
)


@dataclass(frozen=True)
class DlOperator:
    """Ordered product of m per-term ground projectors, kept as its SVD.

    Only the SVD and m are kept of the product.  ground_dimension is the
    dimension of the ground cluster of the Hamiltonian the factors came
    from (its ham.cluster, which also holds the gap); the top
    ground_dimension singular vectors span that ground space, and their
    singular values are within UNIT_SINGULAR_SLACK of 1.  svd is square: its columns of
    U past R_1, the rank of the first factor, span that factor's kernel,
    with singular value exactly 0.  D fixes its null spaces but not how
    the columns of U there pair with the rows of Vh; that pairing is the
    one dl_operator builds, and only even polynomials read it
    (ProjectorResult).  On sectors (a SectorHamiltonian's), svd is the
    stack of the sectors' SVDs, U (count, p, p), s (count, p) and Vh, and
    the top singular vectors are the ground_dimension largest over all
    sectors (top).
    """

    m: int
    svd: Svd
    ground_dimension: int
    sectors: Sectors | None = None

    @cached_property
    def top(self) -> np.ndarray:
        """Where the ground_dimension largest singular values sit, over all sectors.

        One descending order of every singular value, ties kept in flat
        order, so on a single SVD the top is its first ground_dimension.
        """
        s = self.svd.s
        top = np.zeros(s.size, dtype=bool)
        top[np.argsort(-s, axis=None, kind="stable")[: self.ground_dimension]] = True
        return top.reshape(s.shape)


@dataclass(frozen=True)
class ProjectorPoly:
    """Rescaled Chebyshev polynomial p(x) = T_l(x/(1-g*)) / T_l(1/(1-g*))."""

    degree: int
    gamma_star: float

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        y = np.atleast_1d(arr) / (1.0 - self.gamma_star)
        log_norm = _log_cosh(self.degree * math.acosh(1.0 / (1.0 - self.gamma_star)))
        out = np.empty_like(y)
        inner = np.abs(y) <= 1.0
        out[inner] = np.cos(self.degree * np.arccos(y[inner])) * math.exp(-log_norm)
        outer = ~inner
        ay = np.abs(y[outer])
        vals = np.exp(_log_cosh(self.degree * np.arccosh(ay)) - log_norm)
        sign = np.where(y[outer] < 0, (-1.0) ** self.degree, 1.0)
        out[outer] = sign * vals
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SingularGap:
    """Certified singular gap of a DL operator and its observed s_{r+1}."""

    gamma_star: float
    r: int
    gamma: float
    g: int
    s_next: float
    bound: float


@dataclass(frozen=True)
class ProjectorResult:
    """Polynomial projector approximation with its certified error bound.

    The projector is U diag(p_s) V^dag over svd, kept as its factors, and
    on sectors also as the stack of the sectors' U_s p(S_s) V_s^dag
    (blocks), 8^n entries; error is ||U p(S) V^dag - U_1 V_1^dag||, read
    off the singular values of every sector.  For even degree p(0) != 0, so
    the projector holds p(0) U_0 V_0^dag over bases U_0, V_0 of the null
    spaces of D, which pair as DlOperator.svd pairs them; D itself does not
    fix that pairing.  |p(0)| is at most error, so another pairing moves
    the projector by at most 2 error in norm (on the zz_chain n = 4 anneals
    a random rotation of each sector's U_0 moved the results by ~1e-13
    relative).
    """

    svd: Svd
    p_s: np.ndarray
    error: float
    bound: float
    queries: int
    sectors: Sectors | None = None

    @cached_property
    def blocks(self) -> np.ndarray:
        """U p(S) V^dag of each sector, a stack (or the one matrix), on first read."""
        return (self.svd.u * self.p_s[..., None, :]) @ self.svd.vh


@dataclass(frozen=True)
class PlantedSpectrum:
    """Synthetic singular spectrum with a planted gap below the top block."""

    gamma_star: float
    singular_values: np.ndarray
    r: int


def _log_cosh(t: np.ndarray | float) -> np.ndarray | float:
    at = np.abs(t)
    return at + np.log1p(np.exp(-2.0 * at)) - math.log(2.0)


def dl_operator(ham: LocalHamiltonian) -> DlOperator:
    """SVD of the product P_1 ... P_m of per-term ground projectors, in term order.

    Each P_m = E_m E_m dagger tensor I comes from the local eigenvectors
    E_m of its term.  With B_1 = E_1 tensor I, the d x R_1 isometry onto
    the range of P_1, the product is D = B_1 C for the R_1 x d core
    C = (P_m ... P_2 B_1) dagger, formed by applying P_2, ..., P_m to the
    columns of B_1 on their tensor legs; no factor is embedded and no
    d x d product is formed.  C = U_C S_C V dagger gives D's SVD with
    U = [B_1 U_C | B_1 perp], where B_1 perp = E_1 perp tensor I spans the
    kernel of P_1, and S padded with d - R_1 zeros.  B_1 is an isometry,
    so C's reconstruction check and Frobenius scale are D's.

    r = ground_dimension and ||H|| come from one eigvalsh of H, kept on
    ham (ham.cluster).  FrustrationDetected fires when |w_0| or some
    ||H_a U_r||, U_r the top r columns of U and H_a applied on its legs,
    exceeds FRUSTRATION_CUT max(1, ||H||); DegenerateGap unless
    s_r >= 1 - UNIT_SINGULAR_SLACK.  Past both, U_r lies in every term's
    lowest eigenspace (||D U_r|| = 1) at energy 0, so every term is positive
    semidefinite and U_r spans the common kernel, H's ground space.  A
    frustrated H has no common kernel
    at energy 0, so the residual or w_0 is off zero; a term with negative
    eigenvalues reads as frustrated even when it shares its minimizer.
    """
    if ham.m == 0:
        raise BadParams("need at least one term")
    if isinstance(ham, SectorHamiltonian):
        return _dl_by_sector(ham)
    cluster = ham.cluster
    r = cluster.dimension
    first = None
    bases, legs = [], []
    for t in ham.terms:
        eig = hermitian_eigendecompose(t.op)
        w = eig.eigenvalues
        scale = max(1.0, float(np.abs(w).max()))
        dim = int(np.sum(w - w[0] <= TERM_GROUND_WIDTH * scale))
        e = eig.eigenvectors[:, :dim]
        p = e @ e.conj().T
        # ||(p (x) I)^2 - p (x) I|| = ||p^2 - p||, so p is checked on its legs.
        tol = IDEMPOTENCE_TOL
        if norm_exceeds(p @ p - p, tol) or norm_exceeds(p - p.conj().T, tol):
            raise BadParams("term ground projector failed the idempotence check")
        if first is None:
            first = (eig.eigenvectors, dim, t.support)
        else:
            bases.append(e)
            legs.append(t.support)
    vectors, dim, support = first
    n = ham.n
    # [E_1 | E_1 perp] tensor I, columns ordered (eigenvector, rest), so the
    # first r1 columns are B_1 and the others B_1 perp; U is written into it.
    u = lift_basis(vectors, support, range(n)).astype(
        np.result_type(vectors, *bases), copy=False
    )
    r1 = dim * 2 ** (n - len(support))
    core = singular_value_decompose(sweep_projectors(bases, legs, u[:, :r1]).conj().T)
    u[:, :r1] = u[:, :r1] @ core.u
    s = np.zeros(u.shape[0])
    s[:r1] = core.s
    vh = core.vh
    gauge_singular_vectors(u, vh)
    _check_ground(cluster, [apply_local(t.op, t.support, u[:, :r]) for t in ham.terms], s[r - 1])
    return DlOperator(m=ham.m, svd=Svd(u=u, s=s, vh=vh), ground_dimension=r)


def _check_ground(cluster: GroundCluster, actions: list[np.ndarray], s_r: float) -> None:
    """FrustrationDetected or DegenerateGap, as dl_operator lays out.

    actions are the terms applied to the top r singular vectors (each a
    matrix, or a stack whose norm is the largest of its matrices') and s_r
    the r-th largest singular value, r = cluster.dimension.
    """
    bound = FRUSTRATION_CUT * max(1.0, cluster.norm)
    if abs(cluster.energy) > bound or any(norm_exceeds(y, bound) for y in actions):
        raise FrustrationDetected(
            "ground space is not annihilated by every term (residual "
            f"{max(map(spectral_norm, actions)):.3e}, ground energy {cluster.energy:.3e})"
        )
    if s_r < 1.0 - UNIT_SINGULAR_SLACK:
        raise DegenerateGap(
            f"singular value s_r={s_r:.6e} of the DL operator is below "
            f"1 - {UNIT_SINGULAR_SLACK:.1e}; its top block does not span the "
            f"{cluster.dimension}-dimensional ground space"
        )


def _dl_by_sector(ham: SectorHamiltonian) -> DlOperator:
    """dl_operator of a doubled-register input, D_s = Pi_{1,s} ... Pi_{M,s} in each sector s.

    Each term's ground basis is read off its eigendecomposition by local
    sector (ham.eigs): the eigenvectors within TERM_GROUND_WIDTH * max(1, ||H_a||)
    of its lowest eigenvalue over all its sectors, each local sector's
    zero-padded to the most any has, or placed in the whole term when ham
    is on the one sector.  Each P = V V dagger passes the idempotence check
    as a stack, and D_s is composed of them on the identity of each sector
    by Sectors.apply and decomposed in one stacked SVD, so nothing has more
    than 8^n entries when ham is labelled.  r, s_r and the frustration
    residuals ||H_a U_r|| read the top r singular values over all sectors
    (DlOperator.top); every U_r column lies in one sector and each H_a keeps
    the sectors, so ||H_a U_r|| is the largest of the sectors' norms.
    """
    sectors, cluster = ham.sectors, ham.cluster
    parts = []
    for t, eig in zip(ham.terms, ham.eigs):
        w = eig.eigenvalues
        ground = w - w.min() <= TERM_GROUND_WIDTH * max(1.0, float(np.abs(w).max()))
        if sectors.labelled or w.shape[0] == 1:
            v = _columns(eig.eigenvectors, ground)
        else:
            v = sector_eigenvectors(eig, ground)[None]
        p = v @ np.swapaxes(v.conj(), -1, -2)
        tol = IDEMPOTENCE_TOL
        if norm_exceeds(p @ p - p, tol) or norm_exceeds(p - np.swapaxes(p.conj(), -1, -2), tol):
            raise BadParams("term ground projector failed the idempotence check")
        parts.append((sectors.qubits(t.support), p))
    d = sectors.identity(np.result_type(float, *(p for _, p in parts)))
    for qubits, p in reversed(parts):
        d = sectors.apply(d, qubits, p)
    dl = DlOperator(
        m=ham.m, svd=singular_value_decompose(d), ground_dimension=cluster.dimension,
        sectors=sectors,
    )
    u_r = _columns(dl.svd.u, dl.top)
    actions = [
        sectors.apply(u_r, sectors.qubits(t.support), sectors.split(t.op, t.support))
        for t in ham.terms
    ]
    _check_ground(cluster, actions, float(dl.svd.s[dl.top].min()))
    return dl


def _columns(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The columns of each matrix of a stack u where keep holds, zero-padded to the most any has."""
    sector, col = np.nonzero(keep)
    slot = (np.cumsum(keep, axis=-1) - 1)[sector, col]
    out = np.zeros(u.shape[:-1] + (int(keep.sum(axis=-1).max()),), dtype=u.dtype)
    out[sector, :, slot] = u[sector, :, col]
    return out


def certified_bound(ham: LocalHamiltonian) -> tuple[float, float]:
    """(gamma*, bound): the certified s_{r+1} <= bound = 1 / sqrt(gap / g^2 + 1).

    gamma* = 1 - bound needs only H's ground cluster (ham.cluster) and its
    interaction degree g, not the DL operator; DegenerateGap unless the gap
    exceeds MIN_CERTIFIED_GAP.  A degree-0 (mutually disjoint) term set
    drives the bound to 0 and the certified gamma* to 1; it is capped
    GAMMA_STAR_MARGIN below 1 so a polynomial can still be requested.
    """
    gap = ham.cluster.gap
    if not np.isfinite(gap) or gap <= MIN_CERTIFIED_GAP:
        raise DegenerateGap(f"Hamiltonian gap {gap:.3e} too small to certify")
    g = interaction_degree(ham)
    if g == 0:
        return 1.0 - GAMMA_STAR_MARGIN, 0.0
    bound = 1.0 / math.sqrt(gap / g**2 + 1.0)
    return 1.0 - bound, bound


def singular_gap(dl: DlOperator, ham: LocalHamiltonian) -> SingularGap:
    """Certified gamma* from (gap, degree), checked against the observed s_{r+1}.

    dl must have been built from ham; gamma* and the bound come from
    certified_bound(ham) and the ground-space dimension r from dl.
    Asserts the singular bound s_{r+1} <= 1 / sqrt(gap / g^2 + 1) + SINGULAR_BOUND_SLACK.
    """
    gamma_star, bound = certified_bound(ham)
    r = dl.ground_dimension
    s = dl.svd.s
    s_next = float(s[~dl.top].max()) if r < s.size else 0.0
    if s_next > bound + SINGULAR_BOUND_SLACK:
        raise DegenerateGap(
            f"singular value s_{{r+1}}={s_next:.6e} exceeds the certified "
            f"bound {bound:.6e}"
        )
    return SingularGap(
        gamma_star=gamma_star,
        r=r,
        gamma=ham.cluster.gap,
        g=interaction_degree(ham),
        s_next=s_next,
        bound=bound,
    )


def chebyshev_poly(gamma_star: float, degree: int) -> ProjectorPoly:
    """Degree-l rescaled Chebyshev projector polynomial."""
    if not (0.0 < gamma_star < 1.0):
        raise BadGamma(f"gamma* must lie in (0, 1), got {gamma_star}")
    if degree < 1:
        raise BadParams(f"degree must be >= 1, got {degree}")
    return ProjectorPoly(degree=int(degree), gamma_star=float(gamma_star))


def approximate_projector(dl: DlOperator, poly: ProjectorPoly) -> ProjectorResult:
    """Singular-value transform U p(S) V^dag against the exact U_1 V_1^dag.

    The top r = dl.ground_dimension singular vectors define the exact
    projector.  U and V are square unitaries, so the error norm
    ||U (p(S) - E_r) V^dag|| is max_i |p(s_i) - [i < r]|, with E_r the
    diagonal projector on the first r indices.  queries counts factor
    applications l times M.
    """
    svd = dl.svd
    p_s = poly(svd.s)
    err = float(np.abs(p_s - dl.top).max())
    bound = 2.0 * math.exp(-poly.degree * math.sqrt(poly.gamma_star))
    return ProjectorResult(
        svd=svd,
        p_s=p_s,
        error=err,
        bound=bound,
        queries=poly.degree * dl.m,
        sectors=dl.sectors,
    )


def degree_for_error(gamma_star: float, eps: float) -> int:
    """Smallest l with 2 exp(-l sqrt(gamma*)) <= eps, floored at 1."""
    if not (0.0 < gamma_star <= 1.0):
        raise BadGamma(f"gamma* must lie in (0, 1], got {gamma_star}")
    if eps <= 0.0:
        raise BadEps(f"eps must be positive, got {eps}")
    return max(1, math.ceil(math.log(2.0 / eps) / math.sqrt(gamma_star)))


def planted_spectrum(
    gamma_star: float, dim: int = 24, r: int = 2, seed: int = 0
) -> PlantedSpectrum:
    """Synthetic spectrum: r values at 1, the rest at or below 1 - gamma*."""
    if not (0.0 < gamma_star < 1.0):
        raise BadGamma(f"gamma* must lie in (0, 1), got {gamma_star}")
    if dim < r + 1 or r < 1:
        raise BadParams(f"need dim > r >= 1, got dim={dim} r={r}")
    rng = np.random.default_rng(seed)
    tail = rng.uniform(0.0, 1.0 - gamma_star, size=dim - r - 1)
    s = np.concatenate([np.ones(r), [1.0 - gamma_star], np.sort(tail)[::-1]])
    return PlantedSpectrum(gamma_star=float(gamma_star), singular_values=s, r=r)


def _min_degree(spec: PlantedSpectrum, eps: float, max_degree: int = 4000) -> int:
    top = spec.singular_values >= 1.0 - UNIT_SINGULAR_SLACK
    tail = spec.singular_values[~top]
    for ell in range(1, max_degree + 1):
        p = chebyshev_poly(spec.gamma_star, ell)
        err = float(np.abs(p(tail)).max()) if tail.size else 0.0
        if err <= eps:
            return ell
    raise BadParams(f"no degree up to {max_degree} reaches error {eps}")


def speedup_slope(instances: list[PlantedSpectrum], eps: float) -> float:
    """Fitted exponent of minimal degree against 1/gamma*.

    Requires at least four instances whose gamma* values span a decade;
    the expected slope for the Chebyshev schedule is 1/2.
    """
    if eps <= 0.0:
        raise BadEps(f"eps must be positive, got {eps}")
    if len(instances) < 4:
        raise InsufficientSpread(f"need >= 4 instances, got {len(instances)}")
    gammas = np.array([inst.gamma_star for inst in instances], dtype=float)
    if gammas.max() / gammas.min() < 10.0 - DECADE_SLACK:
        raise InsufficientSpread(
            f"gamma* range [{gammas.min():.4g}, {gammas.max():.4g}] spans "
            "less than one decade"
        )
    ells = np.array([_min_degree(inst, eps) for inst in instances], dtype=float)
    slope, _ = np.polyfit(np.log(1.0 / gammas), np.log(ells), 1)
    return float(slope)
