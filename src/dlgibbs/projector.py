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
SVD is read off C's (dl_operator).  The dl_qsvt anneal's projector inputs,
a hamiltonians.SectorHamiltonian on the doubled register with one entry
per step of a temperature stack, are decomposed by sector instead: every
term keeps s = i xor j, so DL(H) is the direct sum of its sectors' products
D_s.  Only D's support sectors, where some factor's blocks are nonzero at
some step, are composed and decomposed, every step's as one stack, and so
is each projector U_s p(S_s) V_s^dag; on every other sector D_s = 0, its
singular values are 0 and its projector p(0) I.  On such a stack
dl_operator, singular_gap and approximate_projector give one result per
entry, and each entry's failed check is kept (DlOperator.failures,
SingularGap.failures) for the caller to raise in its order.

Evaluation of p uses cosh(l arccosh y) in log space for |y| > 1, which
stays finite for degrees far beyond the overflow point of T_l itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    BadEps,
    BadGamma,
    BadParams,
    DegenerateGap,
    DlGibbsError,
    FrustrationDetected,
    InsufficientSpread,
)
from .hamiltonians import (
    GroundCluster,
    LocalHamiltonian,
    SectorHamiltonian,
    Sectors,
    _padded_columns,
    _restricted_labels,
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
    stack of the held sectors' SVDs at each entry, U (B, count, p, p), s
    (B, count, p) and Vh; ground_dimension holds one r per entry, the top
    singular vectors are each entry's r largest over all sectors (top), and
    failures holds the error each entry's checks raise, None where they
    pass, for the caller to raise in its order (check).  D is exactly zero
    on every sector the held subset leaves out.
    """

    m: int
    svd: Svd
    ground_dimension: int | np.ndarray
    sectors: Sectors | None = None
    failures: tuple[DlGibbsError | None, ...] = ()

    @cached_property
    def top(self) -> np.ndarray:
        """Where the ground_dimension largest singular values sit, over all sectors.

        One descending order of every singular value of an entry, ties kept
        in flat order, so on a single SVD the top is its first
        ground_dimension.
        """
        r = np.asarray(self.ground_dimension)
        s = self.svd.s.reshape(r.shape + (-1,))
        order = np.argsort(-s, axis=-1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(s.shape[-1]), axis=-1)
        return (rank < r[..., None]).reshape(self.svd.s.shape)

    def check(self, j: int = 0) -> None:
        """Raise the error entry j's checks found, if any."""
        if self.failures and self.failures[j] is not None:
            raise self.failures[j]


@dataclass(frozen=True)
class ProjectorPoly:
    """Rescaled Chebyshev polynomial p(x) = T_l(x/(1-g*)) / T_l(1/(1-g*)).

    gamma_star may hold one value per entry of a stack (B,): x then has the
    entries as its leading axis, and entry j is evaluated with its own
    gamma*, its normalization taken in the scalar arithmetic of one gamma*.
    """

    degree: int
    gamma_star: float | np.ndarray

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        g = self.gamma_star
        if np.ndim(g) == 0:
            log_norm = _log_cosh(self.degree * math.acosh(1.0 / (1.0 - g)))
            inv_norm = math.exp(-log_norm)
            y = np.atleast_1d(arr) / (1.0 - g)

            def per_entry(value, where: np.ndarray):
                return value
        else:
            lead = g.shape + (1,) * (arr.ndim - g.ndim)
            logs = [_log_cosh(self.degree * math.acosh(1.0 / (1.0 - v))) for v in g.tolist()]
            log_norm = np.reshape(logs, lead)
            inv_norm = np.reshape([math.exp(-v) for v in logs], lead)
            y = arr / (1.0 - g).reshape(lead)

            def per_entry(value, where: np.ndarray):
                """Each entry's value, gathered where the mask holds."""
                return np.broadcast_to(value, y.shape)[where]

        out = np.empty_like(y)
        inner = np.abs(y) <= 1.0
        out[inner] = np.cos(self.degree * np.arccos(y[inner])) * per_entry(inv_norm, inner)
        outer = ~inner
        ay = np.abs(y[outer])
        vals = np.exp(_log_cosh(self.degree * np.arccosh(ay)) - per_entry(log_norm, outer))
        sign = np.where(y[outer] < 0, (-1.0) ** self.degree, 1.0)
        out[outer] = sign * vals
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SingularGap:
    """Certified singular gap of a DL operator and its observed s_{r+1}.

    On a stack every field but g holds one value per entry, and failures
    the DegenerateGap each entry raises, None where it passes.
    """

    gamma_star: float | np.ndarray
    r: int | np.ndarray
    gamma: float | np.ndarray
    g: int
    s_next: float | np.ndarray
    bound: float | np.ndarray
    failures: tuple[DlGibbsError | None, ...] = ()


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
    relative).  On a stack of entries (a DlOperator on a SectorHamiltonian)
    error and bound hold one value per entry, and p_zero holds each entry's
    p(0): on every sector the held subset leaves out, where D = 0 and the
    SVD of the zero matrix has U = V = I, the projector is p(0) I, and the
    error reads |p(0)| there.  res[a:b] is the entries a to b.
    """

    svd: Svd
    p_s: np.ndarray
    error: float | np.ndarray
    bound: float | np.ndarray
    queries: int
    sectors: Sectors | None = None
    p_zero: np.ndarray | None = None

    @cached_property
    def blocks(self) -> np.ndarray:
        """U p(S) V^dag of each sector, a stack (or the one matrix), on first read."""
        return (self.svd.u * self.p_s[..., None, :]) @ self.svd.vh

    def __getitem__(self, entries: slice) -> ProjectorResult:
        """The entries of a stack in the slice, sharing blocks once they are read."""
        svd = Svd(self.svd.u[entries], self.svd.s[entries], self.svd.vh[entries])
        part = ProjectorResult(
            svd, self.p_s[entries], self.error[entries], self.bound[entries], self.queries,
            self.sectors, None if self.p_zero is None else self.p_zero[entries],
        )
        if "blocks" in self.__dict__:
            part.__dict__["blocks"] = self.blocks[entries]
        return part


@dataclass(frozen=True)
class PlantedSpectrum:
    """Synthetic singular spectrum with a planted gap below the top block."""

    gamma_star: float
    singular_values: np.ndarray
    r: int


def _log_cosh(t: np.ndarray | float) -> np.ndarray | float:
    at = np.abs(t)
    return at + np.log1p(np.exp(-2.0 * at)) - math.log(2.0)


def dl_operator(ham: LocalHamiltonian | SectorHamiltonian) -> DlOperator:
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
    eigenvalues reads as frustrated even when it shares its minimizer.  On
    a SectorHamiltonian (_dl_by_sector) each entry's check errors are kept
    in DlOperator.failures instead of raised.
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


def _dl_by_sector(ham: SectorHamiltonian, everywhere: bool = False) -> DlOperator:
    """dl_operator of a doubled-register input, D_s = Pi_{1,s} ... Pi_{M,s} in each sector s.

    Each term's ground basis is read off its eigendecomposition by local
    sector (ham.eigs): at each entry, the eigenvectors within
    TERM_GROUND_WIDTH * max(1, ||H_a||) of its lowest eigenvalue over all
    its sectors, each local sector's zero-padded to the most any entry's
    has, or placed in the whole term when ham is on the one sector.  Each
    P = V V dagger passes the idempotence check as a stack, and D_s is
    composed of them on the identity of each sector by Sectors.apply and
    decomposed in one stacked SVD for every entry.

    Labelled, D_s is composed on D's support sectors only: sector s is held
    when at some entry, for every term a, the local sector that s's labels
    on S_a select holds a ground eigenvalue.  At every other entry and
    sector some factor's block is zero, so D_s is exactly 0 there, with no
    tolerance; everywhere holds all 2^n sectors.  r, s_r and the
    frustration residuals ||H_a U_r|| read each entry's top r singular
    values over all sectors (DlOperator.top); every U_r column lies in one
    sector and each H_a keeps the sectors, so ||H_a U_r|| is the largest of
    the sectors' norms.  An entry whose checks may fail by the stack's
    Frobenius norms is checked again alone, as _check_ground checks one
    input, and on every sector when its top reaches past the held ones;
    its error goes into DlOperator.failures, in the order of one input's
    checks: idempotence, frustration, s_r.
    """
    full, clusters, entries, n = ham.sectors, ham.clusters, ham.entries, ham.n // 2
    parts, local = [], []
    idempotent = np.ones(entries, dtype=bool)
    tol = IDEMPOTENCE_TOL
    for legs, eig in zip(ham.supports, ham.eigs):
        w = eig.eigenvalues
        flat = w.reshape(entries, -1)
        width = TERM_GROUND_WIDTH * np.maximum(1.0, np.abs(flat).max(axis=-1))
        ground = w - flat.min(axis=-1)[:, None, None] <= width[:, None, None]
        if full.labelled or w.shape[1] == 1:
            v = _padded_columns(eig.eigenvectors, ground)
        else:
            v = _padded([
                sector_eigenvectors(eig.eigenvectors[j], ground[j])
                for j in range(entries)
            ])[:, None]
        p = v @ np.swapaxes(v.conj(), -1, -2)
        square, adjoint = p @ p - p, p - np.swapaxes(p.conj(), -1, -2)
        if norm_exceeds(square, tol) or norm_exceeds(adjoint, tol):
            idempotent &= [
                not (norm_exceeds(square[j], tol) or norm_exceeds(adjoint[j], tol))
                for j in range(entries)
            ]
        parts.append((full.qubits(legs), p))
        local.append(ground.any(axis=-1))
    sectors = full
    if full.labelled:
        alive = np.ones((entries, 2**n), dtype=bool)
        for (qubits, _), keep in zip(parts, local):
            alive &= keep[:, _restricted_labels(qubits, n)]
        alive = alive.any(axis=0)
        if everywhere or not alive.any():
            alive[:] = True
        sectors = Sectors(n, True, tuple(np.flatnonzero(alive).tolist()))
    d = sectors.identity(np.result_type(float, *(p for _, p in parts)), (entries,))
    for qubits, p in reversed(parts):
        d = sectors.apply(d, qubits, p)
    dl = DlOperator(
        m=ham.m,
        svd=singular_value_decompose(d),
        ground_dimension=np.array([c.dimension for c in clusters]),
        sectors=sectors,
    )
    del d
    top, s = dl.top, dl.svd.s
    s_r = np.where(top, s, np.inf).reshape(entries, -1).min(axis=-1)
    held = [ham.term_blocks(a) for a in range(ham.m)]
    u_r = _padded_columns(dl.svd.u, top)
    fro = np.zeros(entries)
    for (qubits, _), blocks in zip(parts, held):
        action = sectors.apply(u_r, qubits, blocks)
        fro = np.maximum(fro, np.linalg.norm(action, axis=(-2, -1)).max(axis=-1))
    del u_r
    # An entry's top reaches a sector left out, where every singular value is 0.
    reaches = (top.reshape(entries, -1).sum(axis=-1) < dl.ground_dimension) | (s_r == 0.0)
    reaches &= sectors.count < full.count
    failures: list[DlGibbsError | None] = []
    for j, cluster in enumerate(clusters):
        bound = FRUSTRATION_CUT * max(1.0, cluster.norm)
        failure = None
        if not idempotent[j]:
            failure = BadParams("term ground projector failed the idempotence check")
        elif reaches[j]:
            failure = _dl_by_sector(ham[j], everywhere=True).failures[0]
        # U_r is padded to the widest entry here, which can move a Frobenius
        # norm by rounding: any residual within a factor 2 of the cut is
        # decided again on the entry alone, as one input would be.
        elif (
            abs(cluster.energy) > bound
            or fro[j] > 0.5 * bound
            or s_r[j] < 1.0 - UNIT_SINGULAR_SLACK
        ):
            u = _padded_columns(dl.svd.u[j], top[j])[None]
            actions = [
                sectors.apply(u, qubits, blocks[j : j + 1])[0]
                for (qubits, _), blocks in zip(parts, held)
            ]
            try:
                _check_ground(cluster, actions, float(s_r[j]))
            except (FrustrationDetected, DegenerateGap) as exc:
                failure = exc
        failures.append(failure)
    return replace(dl, failures=tuple(failures))


def _padded(mats: list[np.ndarray]) -> np.ndarray:
    """Matrices of one row count as a stack, each zero-padded to the most columns any has."""
    cols = max(m.shape[1] for m in mats)
    out = np.zeros((len(mats), mats[0].shape[0], cols), dtype=mats[0].dtype)
    for j, m in enumerate(mats):
        out[j, :, : m.shape[1]] = m
    return out


def certified_bound(ham: LocalHamiltonian | SectorHamiltonian) -> tuple[float, float]:
    """(gamma*, bound): the certified s_{r+1} <= bound = 1 / sqrt(gap / g^2 + 1).

    gamma* = 1 - bound needs only H's ground cluster (ham.cluster) and its
    interaction degree g, not the DL operator; DegenerateGap unless the gap
    exceeds MIN_CERTIFIED_GAP.  A degree-0 (mutually disjoint) term set
    drives the bound to 0 and the certified gamma* to 1; it is capped
    GAMMA_STAR_MARGIN below 1 so a polynomial can still be requested.
    """
    return _certified(ham.cluster.gap, interaction_degree(ham))


def _certified(gap: float, g: int) -> tuple[float, float]:
    """certified_bound of a Hamiltonian with this gap and interaction degree."""
    if not np.isfinite(gap) or gap <= MIN_CERTIFIED_GAP:
        raise DegenerateGap(f"Hamiltonian gap {gap:.3e} too small to certify")
    if g == 0:
        return 1.0 - GAMMA_STAR_MARGIN, 0.0
    bound = 1.0 / math.sqrt(gap / g**2 + 1.0)
    return 1.0 - bound, bound


def singular_gap(dl: DlOperator, ham: LocalHamiltonian | SectorHamiltonian) -> SingularGap:
    """Certified gamma* from (gap, degree), checked against the observed s_{r+1}.

    dl must have been built from ham; gamma* and the bound come from
    certified_bound(ham) and the ground-space dimension r from dl.
    Asserts the singular bound s_{r+1} <= 1 / sqrt(gap / g^2 + 1) + SINGULAR_BOUND_SLACK.
    On a SectorHamiltonian every entry is checked against its own cluster,
    s_{r+1} the largest value outside its top over all sectors (0 on the
    sectors the held subset leaves out), and the errors are kept in
    SingularGap.failures.
    """
    if not isinstance(ham, SectorHamiltonian):
        gamma_star, bound = certified_bound(ham)
        s = dl.svd.s
        s_next = float(s[~dl.top].max()) if dl.ground_dimension < s.size else 0.0
        _check_next(s_next, bound)
        return SingularGap(gamma_star, dl.ground_dimension, ham.cluster.gap,
                           interaction_degree(ham), s_next, bound)
    g = interaction_degree(ham)
    entries = ham.entries
    rest = np.where(dl.top, -np.inf, dl.svd.s).reshape(entries, -1).max(axis=-1)
    s_next = np.maximum(rest, 0.0)
    gamma_star, bound, failures = np.empty(entries), np.empty(entries), []
    for j, cluster in enumerate(ham.clusters):
        try:
            gamma_star[j], bound[j] = _certified(cluster.gap, g)
            _check_next(float(s_next[j]), float(bound[j]))
        except DegenerateGap as exc:
            gamma_star[j] = bound[j] = 0.5
            failures.append(exc)
        else:
            failures.append(None)
    gaps = np.array([c.gap for c in ham.clusters])
    return SingularGap(gamma_star, dl.ground_dimension, gaps, g, s_next, bound, tuple(failures))


def _check_next(s_next: float, bound: float) -> None:
    if s_next > bound + SINGULAR_BOUND_SLACK:
        raise DegenerateGap(
            f"singular value s_{{r+1}}={s_next:.6e} exceeds the certified "
            f"bound {bound:.6e}"
        )


def chebyshev_poly(gamma_star: float | np.ndarray, degree: int) -> ProjectorPoly:
    """Degree-l rescaled Chebyshev projector polynomial, one gamma* or one per entry of a stack."""
    g = np.asarray(gamma_star, dtype=float)
    if not np.all((0.0 < g) & (g < 1.0)):
        raise BadGamma(f"gamma* must lie in (0, 1), got {gamma_star}")
    if degree < 1:
        raise BadParams(f"degree must be >= 1, got {degree}")
    return ProjectorPoly(degree=int(degree), gamma_star=float(g) if g.ndim == 0 else g)


def approximate_projector(dl: DlOperator, poly: ProjectorPoly) -> ProjectorResult:
    """Singular-value transform U p(S) V^dag against the exact U_1 V_1^dag.

    The top r = dl.ground_dimension singular vectors define the exact
    projector.  U and V are square unitaries, so the error norm
    ||U (p(S) - E_r) V^dag|| is max_i |p(s_i) - [i < r]|, with E_r the
    diagonal projector on the first r indices.  queries counts factor
    applications l times M.  On a stack (dl of a SectorHamiltonian, poly
    with one gamma* per entry) error and bound are per entry, and on the
    sectors the held subset leaves out, where s = 0, p(0) enters the error
    (ProjectorResult.p_zero).
    """
    svd = dl.svd
    p_s = poly(svd.s)
    if not dl.failures:
        err = float(np.abs(p_s - dl.top).max())
        bound = 2.0 * math.exp(-poly.degree * math.sqrt(poly.gamma_star))
        return ProjectorResult(svd, p_s, err, bound, poly.degree * dl.m, dl.sectors)
    entries = len(dl.failures)
    err = np.abs(p_s - dl.top).reshape(entries, -1).max(axis=-1)
    p_zero = None
    if dl.sectors.labelled and dl.sectors.count < 2**dl.sectors.n:
        p_zero = poly(np.zeros(entries))
        err = np.maximum(err, np.abs(p_zero))
    bound = np.array([
        2.0 * math.exp(-poly.degree * math.sqrt(g))
        for g in np.broadcast_to(poly.gamma_star, (entries,)).tolist()
    ])
    return ProjectorResult(svd, p_s, err, bound, poly.degree * dl.m, dl.sectors, p_zero)


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
