"""Temperature-path preparation of purified Gibbs states.

The purification of sigma_beta = exp(-beta H)/Z is the doubled-register
vector |psi_beta> = vec(sqrt(sigma_beta)), which is automatically unit
norm and satisfies the closed-form overlap

    <psi_a | psi_b> = Tr[sqrt(sigma_a) sqrt(sigma_b)] > 0,
    1 - <psi_beta | psi_{beta+dbeta}>^2 = O(dbeta^2 ||H||^2),

so a uniform schedule beta_0 = 0 < beta_1 < ... < beta_K = beta with
K = ceil(alpha beta ||H||) steps keeps every consecutive overlap above a
constant b with b^2 = 1 - O(1/alpha^2).  Starting from |psi_0>, the
maximally entangled state, each step applies a transition operator

    O_tilde_j ~ |psi_{beta_j}><psi_{beta_{j-1}}|

obtained by boosting the dominant singular value of P_j P_{j-1}, the
product of (approximate) rank-one projectors onto consecutive purified
states.  The boost is either an oracle (divide out the top singular
value) or an explicit odd polynomial p with |p| <= 1 on [-1, 1] and
p >= 1 - eps on [b, 1], built from the Chebyshev series of erf(kx) with
k chosen so erf(kb) = 1 - eps/2; degree ceil(c_b log(1/eps) / b)
suffices.  With per-step budgets

    eps = delta/(4K),   sqrt(mu) <= delta/(16 sqrt(3) l K),

where mu caps the squared projector synthesis error and l is the boost
degree, each transition satisfies ||O_tilde - O|| <= 4 l sqrt(3 mu) +
eps <= delta/(2K), the unnormalized product psi_tilde = prod_j
O_tilde_j |psi_0> lands within delta/2 of |psi_beta>, and the success
probability p = ||psi_tilde||^2 is at least (1 - delta/2)^2 >= 1 -
delta.  Projectors are synthesized either exactly (from the known
ground vector of the parent Hamiltonian at each beta_j) or through the
detectability-lemma projector pipeline run on the negated, normalized
parent terms; the latter costs ell * M singular-value queries per step
for M dissipative terms and projector degree ell, giving the countable
total K (ell M + l).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (
    BadAlpha,
    BadInputs,
    BadParams,
    IrreducibilityWarning,
    OverflowDetected,
    OverlapTooSmall,
    RankAmbiguous,
    UnknownKind,
)
from .hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    assemble,
    commutation_degree,
)
from .jumps import WeightProfile, build_model
from .kms import KmsForm, gibbs_state
from .linalg import singular_value_decompose, spectral_norm
from .parent import build_parent, parent_projector_input, purified_gibbs
from .projector import (
    approximate_projector,
    chebyshev_poly,
    degree_for_error,
    dl_operator,
    singular_gap,
)

# Degree constant of the erf-based boost polynomial: with degree
# l = ceil(C_BOOST * ln(1/eps) / b) the truncated, renormalized series
# stays within eps of 1 on [b, 1].  Calibrated against dense grids of
# (b, eps) in the tests; 2.5 leaves roughly a factor-2 margin.
C_BOOST = 2.5

_BACKENDS = ("oracle", "polynomial")
_MODES = ("exact", "dl_qsvt")


@dataclass(frozen=True)
class Schedule:
    """Uniform inverse-temperature path 0 = beta_0 < ... < beta_K."""

    beta_final: float
    steps: int
    alpha: float
    betas: np.ndarray

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", betas)
        if self.steps < 1 or betas.shape != (self.steps + 1,):
            raise BadParams(
                f"schedule with {self.steps} steps needs {self.steps + 1} "
                f"temperatures, got shape {betas.shape}"
            )
        if betas[0] != 0.0:
            raise BadParams(f"schedule must start at beta = 0, got {betas[0]}")
        if abs(betas[-1] - self.beta_final) > 1e-12 * max(1.0, self.beta_final):
            raise BadParams(
                f"schedule ends at {betas[-1]}, expected {self.beta_final}"
            )
        if np.any(np.diff(betas) < 0):
            raise BadParams("schedule temperatures must be non-decreasing")
        if self.beta_final > 0 and np.any(np.diff(betas) <= 0):
            raise BadParams("schedule temperatures must be strictly increasing")


def make_schedule(beta: float, norm_h: float, alpha: float = 2.0) -> Schedule:
    """Uniform schedule with K = max(1, ceil(alpha * beta * norm_h)) steps."""
    if alpha <= 1:
        raise BadAlpha(f"spacing constant must exceed 1, got {alpha}")
    if beta < 0:
        raise BadParams(f"inverse temperature must be >= 0, got {beta}")
    if norm_h < 0:
        raise BadParams(f"norm bound must be >= 0, got {norm_h}")
    k = max(1, math.ceil(alpha * beta * norm_h))
    return Schedule(
        beta_final=float(beta),
        steps=k,
        alpha=float(alpha),
        betas=np.linspace(0.0, float(beta), k + 1),
    )


def overlap(ham: LocalHamiltonian | np.ndarray, beta: float, dbeta: float) -> float:
    """Exact overlap |<psi_beta | psi_{beta+dbeta}>| of purified Gibbs states."""
    if dbeta < 0:
        raise BadParams(f"temperature increment must be >= 0, got {dbeta}")
    if dbeta == 0:
        return 1.0
    a = purified_gibbs(ham, beta)
    b = purified_gibbs(ham, beta + dbeta)
    return float(np.abs(np.vdot(a, b)))


def boost_coefficients(b: float, epsilon: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the odd erf-based boosting polynomial.

    The result p satisfies |p| <= 1 on [-1, 1] (enforced by a sup-norm
    rescale on a dense grid), p(-x) = -p(x), and p(x) >= 1 - epsilon on
    [b, 1] provided degree >= C_BOOST * ln(1/epsilon) / b.
    """
    if not 0 < b <= 1:
        raise BadInputs(f"overlap floor must lie in (0, 1], got {b}")
    if not 0 < epsilon < 1:
        raise BadInputs(f"boost accuracy must lie in (0, 1), got {epsilon}")
    if degree < 1:
        raise BadInputs(f"boost degree must be >= 1, got {degree}")
    # Imported here: scipy.special costs more than half of `import dlgibbs`,
    # and only this function needs it.
    from scipy.special import erfcinv, ive

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


def boost_degree(b: float, epsilon: float) -> int:
    """Default boost degree ceil(C_BOOST * ln(1/epsilon) / b)."""
    if not 0 < b <= 1:
        raise BadInputs(f"overlap floor must lie in (0, 1], got {b}")
    if not 0 < epsilon < 1:
        raise BadInputs(f"boost accuracy must lie in (0, 1), got {epsilon}")
    return max(1, math.ceil(C_BOOST * math.log(1.0 / epsilon) / b))


@dataclass(frozen=True)
class TransitionBackend:
    """How transition operators boost the dominant singular value.

    kind "oracle" divides out the top singular value exactly; kind
    "polynomial" applies the odd erf-based boost of the given degree to
    all singular values.  b is the overlap floor the boost is built
    for and epsilon the per-step accuracy.
    """

    kind: str
    b: float
    epsilon: float
    degree: int = 0
    coefficients: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _BACKENDS:
            raise UnknownKind(f"unknown transition backend {self.kind!r}")
        if not 0 < self.b <= 1:
            raise BadInputs(f"overlap floor must lie in (0, 1], got {self.b}")
        if self.kind == "polynomial" and (
            self.coefficients is None or self.degree < 1
        ):
            raise BadInputs("polynomial backend needs a degree and coefficients")


def transition_backend(
    kind: str,
    b: float,
    epsilon: float = 0.0,
    degree: int | None = None,
) -> TransitionBackend:
    """Build a transition backend, deriving the polynomial degree if absent."""
    if kind == "oracle":
        return TransitionBackend(kind="oracle", b=b, epsilon=float(epsilon))
    if kind != "polynomial":
        raise UnknownKind(f"unknown transition backend {kind!r}")
    l = boost_degree(b, epsilon) if degree is None else int(degree)
    coeffs = boost_coefficients(b, epsilon, l)
    return TransitionBackend(
        kind="polynomial",
        b=b,
        epsilon=float(epsilon),
        degree=l,
        coefficients=coeffs,
    )


def transition(
    pa: np.ndarray, pb: np.ndarray, backend: TransitionBackend
) -> np.ndarray:
    """Transition operator O_tilde ~ |psi_b><psi_a| from projectors Pa, Pb.

    Takes the singular value decomposition of Pb @ Pa and either divides
    the dominant singular value to 1 (oracle) or applies the odd boost
    polynomial to every singular value (polynomial).  Both variants have
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
    if s[0] < backend.b / 2:
        raise OverlapTooSmall(
            f"dominant singular value {s[0]:.3e} is below half the overlap "
            f"floor {backend.b:.3e}"
        )
    if len(s) > 1 and s[1] > s[0] / 10:
        raise RankAmbiguous(
            f"second singular value {s[1]:.3e} is within a factor 10 of the "
            f"first {s[0]:.3e}"
        )
    if backend.kind == "oracle":
        return np.outer(svd.u[:, 0], svd.vh[0, :])
    boosted = chebyshev.chebval(np.clip(s, 0.0, 1.0), backend.coefficients)
    return (svd.u * boosted) @ svd.vh


@dataclass(frozen=True)
class ErrorBudget:
    """Per-step budgets for a target total error delta over K steps."""

    epsilon: float
    mu: float
    degree: int

    @property
    def projector_error(self) -> float:
        """Allowed spectral error sqrt(mu) of each synthesized projector."""
        return math.sqrt(self.mu)


def error_budget(k_steps: int, b: float, delta: float) -> ErrorBudget:
    """Budgets eps = delta/(4K), l = ceil(C_BOOST ln(4K/delta)/b), mu.

    mu = (delta / (16 sqrt(3) l K))^2 makes the per-step transition
    error 4 l sqrt(3 mu) + eps at most delta/(2K).
    """
    if k_steps < 1:
        raise BadInputs(f"step count must be >= 1, got {k_steps}")
    if not 0 < b <= 1:
        raise BadInputs(f"overlap floor must lie in (0, 1], got {b}")
    if not 0 < delta < 1:
        raise BadInputs(f"error target must lie in (0, 1), got {delta}")
    eps = delta / (4.0 * k_steps)
    l = max(1, math.ceil(C_BOOST * math.log(4.0 * k_steps / delta) / b))
    mu = (delta / (16.0 * math.sqrt(3.0) * l * k_steps)) ** 2
    return ErrorBudget(epsilon=eps, mu=mu, degree=l)


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one annealing step beta_{j-1} -> beta_j."""

    index: int
    beta: float
    overlap: float
    transition_error: float
    error_bound: float
    projector_error: float
    queries: int


@dataclass(frozen=True)
class QueryTally:
    """Countable cost proxy: projector and transition singular-value queries."""

    projector: int
    transition: int

    @property
    def total(self) -> int:
        return self.projector + self.transition


@dataclass(frozen=True)
class AnnealingRun:
    """Full record of a temperature-path preparation."""

    schedule: Schedule
    mode: str
    delta: float
    budgets: ErrorBudget
    records: tuple[StepRecord, ...]
    final_state: np.ndarray
    final_fidelity: float
    success_probability: float
    state_error: float
    min_overlap: float
    projector_degree: int
    m_terms: int
    tally: QueryTally
    warnings: tuple[str, ...]


def run_annealing(
    ham: LocalHamiltonian,
    couplings: list[LocalOperator] | tuple[LocalOperator, ...],
    w: WeightProfile,
    sched: Schedule,
    delta: float,
    projector_mode: str = "exact",
) -> AnnealingRun:
    """Prepare the purified Gibbs state along a uniform temperature path.

    At every scheduled beta_j the dissipative model is rebuilt with the
    weight profile's beta replaced by beta_j, and one build_parent checks
    it for detailed balance; its purified fixed point is targeted by a rank-one
    projector: exactly (mode "exact", oracle transitions, no query
    cost) or through the parent-Hamiltonian detectability-lemma
    pipeline at uniform polynomial degree (mode "dl_qsvt", boosted
    polynomial transitions).  The initial projector at beta = 0 is part
    of the setup and never counted: the walk starts in the exactly
    preparable maximally entangled state.  Queries tally to
    K * (ell * M + l) in dl_qsvt mode.
    """
    if projector_mode not in _MODES:
        raise UnknownKind(f"unknown projector mode {projector_mode!r}")
    if not 0 < delta < 1:
        raise BadParams(f"error target must lie in (0, 1), got {delta}")
    if projector_mode == "dl_qsvt" and commutation_degree(ham) != 0:
        raise BadParams(
            "dl_qsvt projector synthesis needs mutually commuting Hamiltonian "
            "terms; the parent terms are not local otherwise"
        )
    h_mat = assemble(ham)
    norm_h = spectral_norm(h_mat)
    if sched.beta_final * norm_h > 40.0:
        raise OverflowDetected(
            f"beta * ||H|| = {sched.beta_final * norm_h:.2f} exceeds 40; the "
            "smallest Gibbs weight would underflow double precision"
        )
    k_steps = sched.steps
    betas = sched.betas

    notes: list[str] = []
    dl_steps = []
    for beta_j in betas.tolist():
        terms = build_model(ham, couplings, replace(w, beta=beta_j))
        ph = build_parent(terms, KmsForm(gibbs_state(h_mat, beta_j)), beta=beta_j)
        if ph.kernel_dim > 1:
            msg = (
                f"generator at beta = {beta_j:.6g} has fixed-point dimension "
                f"{ph.kernel_dim}; the purified path is not unique"
            )
            warnings.warn(msg, IrreducibilityWarning)
            notes.append(msg)
        if projector_mode == "dl_qsvt":
            pin = parent_projector_input(ph)
            dl = dl_operator(pin.ham)
            dl_steps.append((dl, singular_gap(dl, pin.ham)))
        # Drop this step's 4^n x 4^n parent before the next one is built.
        del ph
    m_terms = len(terms)

    targets = [purified_gibbs(h_mat, float(b)) for b in betas]
    overlaps = [
        float(np.abs(np.vdot(targets[j - 1], targets[j])))
        for j in range(1, k_steps + 1)
    ]
    b_floor = min(overlaps)
    budgets = error_budget(k_steps, b_floor, delta)
    step_bound = delta / (2.0 * k_steps)

    projector_errors = [0.0] * (k_steps + 1)
    ell = 0
    if projector_mode == "exact":
        projectors = [np.outer(t, t.conj()) for t in targets]
        backend = transition_backend("oracle", b_floor, epsilon=budgets.epsilon)
    else:
        target_err = budgets.projector_error
        ell = max(degree_for_error(sg.gamma_star, target_err) for _, sg in dl_steps)
        projectors = []
        for j, (dl, sg) in enumerate(dl_steps):
            res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
            projectors.append(res.approx)
            projector_errors[j] = res.error
        # The transitions read only the dense projectors, so every step's
        # DL SVD is released before they run.
        del dl_steps, dl, sg, res
        backend = transition_backend(
            "polynomial",
            b_floor,
            epsilon=budgets.epsilon,
            degree=budgets.degree,
        )

    dim = targets[0].shape[0]
    state = targets[0].copy()
    records = []
    proj_queries = 0
    trans_queries = 0
    for j in range(1, k_steps + 1):
        o_tilde = transition(projectors[j - 1], projectors[j], backend)
        exact_op = np.outer(targets[j], targets[j - 1].conj())
        err = spectral_norm(o_tilde - exact_op)
        state = o_tilde @ state
        step_queries = 0
        if projector_mode == "dl_qsvt":
            step_queries = ell * m_terms + budgets.degree
            proj_queries += ell * m_terms
            trans_queries += budgets.degree
        records.append(
            StepRecord(
                index=j,
                beta=float(betas[j]),
                overlap=overlaps[j - 1],
                transition_error=err,
                error_bound=step_bound,
                projector_error=projector_errors[j],
                queries=step_queries,
            )
        )

    success = float(np.real(np.vdot(state, state)))
    state_error = float(np.linalg.norm(state - targets[-1]))
    norm = math.sqrt(success) if success > 0 else 1.0
    final_state = state / norm
    fidelity = float(np.abs(np.vdot(final_state, targets[-1])))
    return AnnealingRun(
        schedule=sched,
        mode=projector_mode,
        delta=float(delta),
        budgets=budgets,
        records=tuple(records),
        final_state=final_state.reshape(dim),
        final_fidelity=fidelity,
        success_probability=success,
        state_error=state_error,
        min_overlap=b_floor,
        projector_degree=ell,
        m_terms=m_terms,
        tally=QueryTally(projector=proj_queries, transition=trans_queries),
        warnings=tuple(notes),
    )
