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
states.  With exact rank-one projectors the boost divides out the top
singular value, |<psi_j|psi_{j-1}>|, in closed form.  Otherwise it is an
explicit odd polynomial p (boost_coefficients) with |p| <= 1 on [-1, 1]
and p >= 1 - eps on [b, 1], built from the Chebyshev series of erf(kx)
with k chosen so erf(kb) = 1 - eps/2; degree ceil(c_b log(1/eps) / b)
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
total K (ell M + l).  Every parent term of a diagonal H with Pauli
couplings keeps s = i xor j of the doubled register |i>|j>, and so do the
projector input's ground cluster, its DL operator, p(DL) and every product
P_b P_a: each is held as the stack of its 2^n sectors of side 2^n
(hamiltonians.Sectors), 8^n entries, and decomposed in one stacked call,
and no 4^n x 4^n array is formed.  When the terms leave their sectors
(a commuting H that is not diagonal), every step runs the same code on the
one sector of side 4^n.

run_annealing takes two passes.  The first builds every step's parent, for
its target and its local projector input; the overlaps fix the budgets,
each input's ground cluster gives the step's fixed-point dimension, and
each input's certified gamma* (projector.certified_bound, read off that
cluster and the interaction degree, not the DL operator) fixes the
uniform projector degree ell.  For commuting H the K + 1 parents differ
only in beta, so the first pass builds them as one temperature stack:
each coupling's rotation, jump, restriction, coherent form and term
eigensystems once per run, with the temperatures as a leading axis
(jumps.model_terms, parent.TermStack).  Non-commuting H, whose terms are
on the whole register, is built one temperature at a time.  The second
pass builds step j's DL operator and projector and then runs transition
j, so at most the factors of steps j - 1 and j are alive.  The boost
coefficients need erfcinv, by Newton's method on math.erfc, and the scaled
Bessel values e^{-z} I_j(z), from one real FFT of e^{z (cos t - 1)}; no
scipy module is loaded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (
    BadAlpha,
    BadInputs,
    BadParams,
    DlGibbsError,
    IrreducibilityWarning,
    OverflowDetected,
    OverlapTooSmall,
    RankAmbiguous,
    StackDisagreement,
    UnknownKind,
)
from .hamiltonians import LocalHamiltonian, LocalOperator
from .jumps import WeightProfile, model_terms
from .kms import KmsForm
from .linalg import singular_value_decompose, spectral_norm
from .parent import ParentHamiltonian, build_parent, parent_projector_input, purified_gibbs
from .projector import (
    ProjectorResult,
    approximate_projector,
    certified_bound,
    chebyshev_poly,
    degree_for_error,
    dl_operator,
    singular_gap,
)
from .tolerances import SCHEDULE_END_TOL

# Degree constant of the erf-based boost polynomial: with degree
# l = ceil(C_BOOST * ln(1/eps) / b) the truncated, renormalized series
# stays within eps of 1 on [b, 1].  Calibrated against dense grids of
# (b, eps) in the tests; 2.5 leaves roughly a factor-2 margin.
C_BOOST = 2.5

_MODES = ("exact", "dl_qsvt")


@dataclass(frozen=True)
class Schedule:
    """Uniform inverse-temperature path 0 = beta_0 < ... < beta_K."""

    beta_final: float
    steps: int
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
        if abs(betas[-1] - self.beta_final) > SCHEDULE_END_TOL * max(1.0, self.beta_final):
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
        betas=np.linspace(0.0, float(beta), k + 1),
    )


def overlap(ham: LocalHamiltonian, beta: float, dbeta: float) -> float:
    """Exact overlap |<psi_beta | psi_{beta+dbeta}>| of purified Gibbs states."""
    if dbeta < 0:
        raise BadParams(f"temperature increment must be >= 0, got {dbeta}")
    if dbeta == 0:
        return 1.0
    a = purified_gibbs(ham, beta)
    b = purified_gibbs(ham, beta + dbeta)
    return float(np.abs(np.vdot(a, b)))


def _erfcinv(y: float) -> float:
    """The x > 0 with erfc(x) = y, for 0 < y < 1, by Newton's method on math.erfc.

    erfc is convex and decreasing on x >= 0, so Newton steps from x = 0,
    left of the root, increase monotonically towards it; the iteration
    stops at the first step that no longer moves x up.
    """
    x, prev = 0.0, -1.0
    while x > prev:
        prev = x
        x += (math.erfc(x) - y) * (0.5 * math.sqrt(math.pi)) * math.exp(x * x)
    return prev


def _scaled_bessel_i(jmax: int, z: float) -> np.ndarray:
    """e^{-z} I_j(z) for j = 0 ... jmax, from one real FFT.

    By Jacobi-Anger, e^{z (cos t - 1)} = sum_j e^{-z} I_|j|(z) e^{i j t}, so
    bin j of the N-point DFT of its samples, divided by N, is e^{-z} I_j(z)
    plus the aliases at |j + l N|, l != 0.  cos t - 1 is taken as
    -2 sin^2(t/2), which keeps the exponent's relative accuracy near t = 0.
    e^{-z} I_nu(z) <= exp(-z phi(nu/z)) with phi(t) = t asinh t -
    sqrt(1 + t^2) + 1, and with N - jmax >= 10 sqrt(z) + 32 every alias is
    below e^{-50}.
    """
    n = 2 * jmax + math.ceil(10.0 * math.sqrt(z)) + 32
    half = np.pi * np.arange(n) / n
    samples = np.exp(-2.0 * z * np.sin(half) ** 2)
    return np.fft.rfft(samples).real[: jmax + 1] / n


def boost_coefficients(b: float, epsilon: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the odd erf-based boosting polynomial.

    The result p satisfies |p| <= 1 on [-1, 1] (enforced by a sup-norm
    rescale on a dense grid), p(-x) = -p(x), and p(x) >= 1 - epsilon on
    [b, 1] provided degree >= C_BOOST * ln(1/epsilon) / b.  p is the
    truncated Chebyshev series of erf(k x), erf(k b) = 1 - epsilon/2, whose
    coefficients are the scaled Bessel values e^{-z} I_j(z), z = k^2 / 2.
    """
    if not 0 < b <= 1:
        raise BadInputs(f"overlap floor must lie in (0, 1], got {b}")
    if not 0 < epsilon < 1:
        raise BadInputs(f"boost accuracy must lie in (0, 1), got {epsilon}")
    if degree < 1:
        raise BadInputs(f"boost degree must be >= 1, got {degree}")
    k = _erfcinv(epsilon / 2.0) / b
    z = 0.5 * k * k
    pref = 2.0 * k / math.sqrt(math.pi)
    jmax = (degree + 1) // 2
    ive = _scaled_bessel_i(jmax, z)
    coeffs = np.zeros(degree + 1)
    coeffs[1] += pref * float(ive[0])
    for j in range(1, jmax + 1):
        w = pref * float(ive[j]) * (-1.0) ** j
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


def _check_overlap(s0: float, b: float) -> None:
    """OverlapTooSmall when the dominant singular value s0 is below b / 2."""
    if s0 < b / 2:
        raise OverlapTooSmall(
            f"dominant singular value {s0:.3e} is below half the overlap "
            f"floor {b:.3e}"
        )


def transition(
    pa: ProjectorResult,
    pb: ProjectorResult,
    a: np.ndarray,
    b: np.ndarray,
    state: np.ndarray,
    coefficients: np.ndarray,
    floor: float,
) -> tuple[np.ndarray, float]:
    """Apply O_tilde ~ |b><a| to state; return it and ||O_tilde - b a^dag||.

    O_tilde applies the odd boost polynomial f, given by its Chebyshev
    coefficients (boost_coefficients for the overlap floor), to every
    singular value of P_b P_a.  Both projectors are held by the same sectors
    (ProjectorResult.sectors), each sector s as P_s = U_s p(S_s) V_s^dag
    (ProjectorResult.blocks), so M_s = P_{b,s} P_{a,s} is one stacked
    product and X_s S_s Y_s^dag one stacked SVD, and O_tilde_s =
    X_s f(S_s) Y_s^dag.  OverlapTooSmall (below floor / 2) and
    RankAmbiguous read the top two singular values over all sectors, as
    for the dense product.  The state moves in every sector.  The targets
    a and b lie in one common sector (sector 0 for a diagonal H, where
    vec(sqrt(sigma)) is diagonal; the whole register on one sector), so
    b a^dag is block diagonal and the error is the largest spectral norm
    over the stack O_tilde_s - b_s a_s^dag.
    """
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
    """Budgets eps = delta/(4K), l = boost_degree(b, eps), mu.

    mu = (delta / (16 sqrt(3) l K))^2 makes the per-step transition
    error 4 l sqrt(3 mu) + eps at most delta/(2K).
    """
    if k_steps < 1:
        raise BadInputs(f"step count must be >= 1, got {k_steps}")
    if not 0 < delta < 1:
        raise BadInputs(f"error target must lie in (0, 1), got {delta}")
    eps = delta / (4.0 * k_steps)
    l = boost_degree(b, eps)
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


def _step_parents(
    ham: LocalHamiltonian,
    couplings: Sequence[LocalOperator],
    w: WeightProfile,
    betas: np.ndarray,
) -> Iterator[ParentHamiltonian]:
    """The parent of the model at each beta of betas, in order.

    For commuting H the parents are built as one temperature stack: each
    coupling's rotation, weighted jump, restriction, coherent form and
    term eigensystems are computed once for every temperature
    (model_terms, build_parent), and each parent is a view of the stacks.
    Non-commuting H, whose terms are on the whole register, is built one
    temperature at a time, and so is a stack that raises or whose
    temperatures disagree on how a term is held (StackDisagreement): each
    error is then raised at the temperature, and the term, where a build
    of that temperature alone raises it, and a step's parent is not built
    before every earlier step has been read.
    """
    profiles = [replace(w, beta=beta) for beta in betas.tolist()]
    if ham.commuting and len(profiles) > 1:
        try:
            stacked = _parent(ham, couplings, profiles)
        except (DlGibbsError, StackDisagreement):
            pass
        else:
            yield from (stacked[j] for j in range(len(profiles)))
            return
    for profile in profiles:
        yield _parent(ham, couplings, [profile])[0]


def _parent(
    ham: LocalHamiltonian, couplings: Sequence[LocalOperator], profiles: list[WeightProfile]
) -> ParentHamiltonian:
    """build_parent on the temperature stack of profiles."""
    betas = np.array([p.beta for p in profiles])
    terms = model_terms(ham, couplings, profiles)
    return build_parent(terms, KmsForm.gibbs(ham, betas), ham, beta=betas)


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
    it for detailed balance and positivity; its ground vector, the purified
    fixed point vec(sqrt(sigma_j)), is targeted by a rank-one projector:
    exactly (mode "exact", transitions in closed form, no query cost) or
    through the parent-Hamiltonian detectability-lemma pipeline at uniform
    polynomial degree (mode "dl_qsvt", boosted polynomial transitions).
    The initial projector at beta = 0 is part of the setup and never
    counted: the walk starts in the exactly preparable maximally entangled
    state.  Queries tally to K * (ell * M + l) in dl_qsvt mode.  ||H|| and
    every sigma_j are read off ham.eig.

    The run takes two passes.  The first builds every parent and keeps its
    ground vector and, in dl_qsvt mode, its local projector input (pin),
    built right after the parent; the targets' overlaps give the budgets,
    and the pins' certified gamma* give ell.  For commuting H the parents
    are one temperature stack (_step_parents), held until the last pin is
    built: each local term by sector at every temperature, its eigenvalues
    and its sector eigendecompositions, which the pins keep.  Each step's
    parent is a view of the stack, rebuilt dense for that step and dropped
    after it, and each step's ground cluster is summed for that step alone.
    Non-commuting H is built one temperature at a time, so at most one
    step's 4^n x 4^n terms are alive.  Errors and warnings come in the
    order of a build one temperature at a time: beta first, then term.  An
    IrreducibilityWarning
    reports a fixed-point dimension above 1.  In dl_qsvt mode that is the
    dimension of the pin's ground cluster, which certified_bound reads
    anyway: the rank its DL operator projects onto, so no 4^n spectrum is
    taken.  Exact mode reads ph.kernel_dim, one spectrum per step, which
    non-commuting H needs.  The second pass builds step j's DL operator
    and projector from its pin and then runs transition j, so
    at most two steps' DL factors are alive.  A FrustrationDetected or
    DegenerateGap from step j's DL operator therefore fires after every
    parent has been built and transition j - 1 has run.  The pins are held
    by sector, the same at every step (BadParams otherwise), so the
    transitions read matching stacks.
    """
    if projector_mode not in _MODES:
        raise UnknownKind(f"unknown projector mode {projector_mode!r}")
    if not 0 < delta < 1:
        raise BadParams(f"error target must lie in (0, 1), got {delta}")
    if projector_mode == "dl_qsvt" and not ham.commuting:
        raise BadParams(
            "dl_qsvt projector synthesis needs mutually commuting Hamiltonian "
            "terms; the parent terms are not local otherwise"
        )
    norm_h = float(np.abs(ham.eig.eigenvalues).max())
    if sched.beta_final * norm_h > 40.0:
        raise OverflowDetected(
            f"beta * ||H|| = {sched.beta_final * norm_h:.2f} exceeds 40; the "
            "smallest Gibbs weight would underflow double precision"
        )
    k_steps = sched.steps
    betas = sched.betas

    # Pass 1: every step's parent, for its target and, in dl_qsvt mode, its
    # local projector input; the certified gamma* of each needs only that.
    targets = []
    pins = []
    parents = _step_parents(ham, couplings, w, betas)
    for beta_j in betas.tolist():
        ph = next(parents)
        if projector_mode == "dl_qsvt":
            pins.append(parent_projector_input(ph))
            kernel_dim = pins[-1].cluster.dimension
        else:
            kernel_dim = ph.kernel_dim
        if kernel_dim > 1:
            warnings.warn(
                f"generator at beta = {beta_j:.6g} has fixed-point dimension "
                f"{kernel_dim}; the purified path is not unique",
                IrreducibilityWarning,
            )
        targets.append(ph.ground)
        # Drop this step's parent terms (4^n x 4^n each for non-commuting H)
        # before the next ones are built.
        del ph
    del parents  # and with it the temperature stacks the pins do not hold
    m_terms = len(couplings)
    if len({pin.sectors for pin in pins}) > 1:
        # The transitions multiply one step's sector stacks by the next's.
        raise BadParams("the steps' projector inputs are not held on the same sectors")

    overlaps = [
        float(np.abs(np.vdot(targets[j - 1], targets[j])))
        for j in range(1, k_steps + 1)
    ]
    b_floor = min(overlaps)
    budgets = error_budget(k_steps, b_floor, delta)
    step_bound = delta / (2.0 * k_steps)

    ell = transition_queries = 0
    if projector_mode == "dl_qsvt":
        target_err = budgets.projector_error
        ell = max(
            degree_for_error(certified_bound(pin)[0], target_err) for pin in pins
        )
        coefficients = boost_coefficients(b_floor, budgets.epsilon, budgets.degree)
        transition_queries = budgets.degree

    # Pass 2: step j's projector, then transition j.  Step j's DL factors
    # are built after transition j - 1 and dropped after transition j + 1,
    # so at most two steps' factors are alive.
    dim = targets[0].shape[0]
    state = targets[0].copy()
    records = []
    prev = res = None
    for j in range(k_steps + 1):
        if projector_mode == "dl_qsvt":
            dl = dl_operator(pins[j])
            sg = singular_gap(dl, pins[j])
            res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
        if j > 0:
            a, b = targets[j - 1], targets[j]
            if projector_mode == "exact":
                # Both projectors are rank one: P_b P_a = <b|a> b a dagger, so
                # s_0 = |<b|a>| and s_1 = 0 (RankAmbiguous cannot fire), and
                # dividing out s_0 leaves the phase of <b|a> times b a dagger.
                ba = np.vdot(b, a)
                _check_overlap(abs(ba), b_floor)
                phase = ba / abs(ba)
                err = float(abs(phase - 1.0))  # ||(phase - 1) b a dagger||
                state = (phase * np.vdot(a, state)) * b
            else:
                state, err = transition(prev, res, a, b, state, coefficients, b_floor)
            records.append(
                StepRecord(
                    index=j,
                    beta=float(betas[j]),
                    overlap=overlaps[j - 1],
                    transition_error=err,
                    error_bound=step_bound,
                    projector_error=0.0 if res is None else res.error,
                    queries=ell * m_terms + transition_queries,
                )
            )
        prev = res

    success = float(np.real(np.vdot(state, state)))
    state_error = float(np.linalg.norm(state - targets[-1]))
    norm = math.sqrt(success) if success > 0 else 1.0
    final_state = state / norm
    fidelity = float(np.abs(np.vdot(final_state, targets[-1])))
    return AnnealingRun(
        budgets=budgets,
        records=tuple(records),
        final_state=final_state.reshape(dim),
        final_fidelity=fidelity,
        success_probability=success,
        state_error=state_error,
        min_overlap=b_floor,
        projector_degree=ell,
        m_terms=m_terms,
        tally=QueryTally(
            projector=k_steps * ell * m_terms, transition=k_steps * transition_queries
        ),
    )
