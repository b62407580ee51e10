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
    LocalHamiltonian,
    embed,
    frustration_check,
    interaction_degree,
)
from .linalg import (
    Svd,
    hermitian_eigendecompose,
    norm_exceeds,
    singular_value_decompose,
)


@dataclass(frozen=True)
class DlOperator:
    """Ordered product of m per-term ground projectors, kept as its SVD.

    Only the SVD and m are kept of the product.  ground_dimension and
    ground_gap describe the ground space of the Hamiltonian the factors came
    from, as found by its frustration check; the top ground_dimension
    singular values are within 1e-8 of 1.
    """

    m: int
    svd: Svd
    ground_dimension: int
    ground_gap: float


@dataclass(frozen=True)
class ProjectorPoly:
    """Rescaled Chebyshev polynomial p(x) = T_l(x/(1-g*)) / T_l(1/(1-g*))."""

    degree: int
    gamma_star: float

    @property
    def parity(self) -> int:
        return self.degree % 2

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
    """Certified and empirical singular gap of a DL operator."""

    gamma_star: float
    r: int
    gamma: float
    g: int
    s_next: float
    empirical_gap: float
    bound: float


@dataclass(frozen=True)
class ProjectorResult:
    """Polynomial projector approximation with its certified error bound.

    error is ||U p(S) V^dag - U_1 V_1^dag||, read off the singular values;
    the dense approximation is formed only when approx is read.
    """

    svd: Svd
    p_s: np.ndarray
    error: float
    bound: float
    queries: int
    ancilla_estimate: int
    degree: int
    r: int

    @cached_property
    def approx(self) -> np.ndarray:
        return (self.svd.u * self.p_s) @ self.svd.vh


@dataclass(frozen=True)
class PlantedSpectrum:
    """Synthetic singular spectrum with a planted gap below the top block."""

    gamma_star: float
    singular_values: np.ndarray
    r: int


def _log_cosh(t: np.ndarray | float) -> np.ndarray | float:
    at = np.abs(t)
    return at + np.log1p(np.exp(-2.0 * at)) - math.log(2.0)


def dl_operator(ham: LocalHamiltonian, tol: float = 1e-9) -> DlOperator:
    """Product of embedded per-term ground projectors, in term order.

    Refuses Hamiltonians that are not frustration-free: without a shared
    per-term kernel the product no longer relates to the ground space.
    Each embedded factor is multiplied into the composite as soon as it is
    made; none is kept, and of the composite only its SVD is.  Raises
    DegenerateGap unless the top r = ground_dimension singular values lie
    within 1e-8 of 1.
    """
    if ham.m == 0:
        raise BadParams("need at least one term")
    ff, gs = frustration_check(ham)
    if not ff:
        raise FrustrationDetected(
            "ground space is not annihilated by every term "
            f"(residual {gs.frustration_residual:.3e})"
        )
    r, gap = gs.dimension, gs.gap
    comp = None
    for t in ham.terms:
        eig = hermitian_eigendecompose(t.op)
        w = eig.eigenvalues
        scale = max(1.0, float(np.abs(w).max()))
        dim = int(np.sum(w - w[0] <= tol * scale))
        p = eig.eigenvectors[:, :dim] @ eig.eigenvectors[:, :dim].conj().T
        # ||(p (x) I)^2 - p (x) I|| = ||p^2 - p||, so p is checked before embed.
        if norm_exceeds(p @ p - p, 1e-10) or norm_exceeds(p - p.conj().T, 1e-10):
            raise BadParams("term ground projector failed the idempotence check")
        factor = embed(type(t)(p, t.support), ham.n)
        comp = factor if comp is None else comp @ factor
    # The SVD's workspace sets the peak memory, so neither the ground
    # vectors nor the last factor is held through it.
    del gs, factor
    svd = singular_value_decompose(comp)
    if svd.s[r - 1] < 1.0 - 1e-8:
        raise DegenerateGap(
            f"singular value s_r={svd.s[r - 1]:.6e} of the DL operator is below "
            f"1 - 1e-8; its top block does not span the {r}-dimensional ground space"
        )
    return DlOperator(m=ham.m, svd=svd, ground_dimension=r, ground_gap=gap)


def singular_gap(dl: DlOperator, ham: LocalHamiltonian, tol: float = 1e-8) -> SingularGap:
    """Certified gamma* from (gap, degree) plus the empirical 1 - s_{r+1}.

    The gap and the ground-space dimension r come from dl, which must have
    been built from ham; ham supplies the interaction degree g.  Asserts
    the singular bound s_{r+1} <= 1 / sqrt(gap / g^2 + 1) + 1e-9.
    A degree-0 (mutually disjoint) term set drives the bound to 0 and the
    certified gamma* to 1; it is capped just below 1 so a polynomial can
    still be requested.
    """
    gap = dl.ground_gap
    if not np.isfinite(gap) or gap <= tol:
        raise DegenerateGap(f"Hamiltonian gap {gap:.3e} too small to certify")
    g = interaction_degree(ham)
    if g == 0:
        bound = 0.0
        gamma_star = 1.0 - 1e-12
    else:
        bound = 1.0 / math.sqrt(gap / g**2 + 1.0)
        gamma_star = 1.0 - bound
    r = dl.ground_dimension
    s = dl.svd.s
    s_next = float(s[r]) if r < s.size else 0.0
    if s_next > bound + 1e-9:
        raise DegenerateGap(
            f"singular value s_{{r+1}}={s_next:.6e} exceeds the certified "
            f"bound {bound:.6e}"
        )
    return SingularGap(
        gamma_star=gamma_star,
        r=r,
        gamma=gap,
        g=g,
        s_next=s_next,
        empirical_gap=1.0 - s_next,
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
    r = dl.ground_dimension
    p_s = poly(svd.s)
    err = float(np.abs(p_s - (np.arange(p_s.size) < r)).max())
    bound = 2.0 * math.exp(-poly.degree * math.sqrt(poly.gamma_star))
    return ProjectorResult(
        svd=svd,
        p_s=p_s,
        error=err,
        bound=bound,
        queries=poly.degree * dl.m,
        ancilla_estimate=math.ceil(math.log2(dl.m)) + 1 if dl.m > 1 else 1,
        degree=poly.degree,
        r=r,
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
    top = spec.singular_values >= 1.0 - 1e-8
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
    if gammas.max() / gammas.min() < 10.0 - 1e-12:
        raise InsufficientSpread(
            f"gamma* range [{gammas.min():.4g}, {gammas.max():.4g}] spans "
            "less than one decade"
        )
    ells = np.array([_min_degree(inst, eps) for inst in instances], dtype=float)
    slope, _ = np.polyfit(np.log(1.0 / gammas), np.log(ells), 1)
    return float(slope)
