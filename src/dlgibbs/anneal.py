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
P_b P_a: each is held as a stack of sectors of side 2^n
(hamiltonians.Sectors) and decomposed in one stacked call, and no 4^n x
4^n array is formed.  When the terms leave their sectors (a commuting H
that is not diagonal), every step runs the same code on the one sector of
side 4^n.

run_annealing takes two passes.  The first builds every step's parent, for
its target and its local projector input; the overlaps fix the budgets,
each input's ground cluster gives the step's fixed-point dimension, and
each input's certified gamma* (projector.certified_bound, read off that
cluster and the interaction degree, not the DL operator) fixes the
uniform projector degree ell.  For commuting H the K + 1 parents differ
only in beta, so the first pass builds them as one temperature stack:
each coupling's rotation, jump, restriction, coherent form and term
eigensystems once per run, with the temperatures as a leading axis
(jumps.model_terms, parent.TermStack).  The projector inputs are read off
the stack's sector blocks, and each step's all-sector ground cluster is
summed for that step alone.  Non-commuting H, whose terms are on the whole
register, is built one temperature at a time.

The second pass, on sectors, is one stacked call each for all K + 1 steps:
the DL operators, their gap checks and projectors (projector._dl_by_sector
on the stack of inputs), then the K transitions as one stack of pairs,
followed by a walk of the state through them.  Only D's support sectors
are composed and decomposed: sector 0 alone on the shipped models with
couplings xz or xyz, and with the reducible couplings x a second sector
past beta = 0 (every sector at beta = 0).  Every other sector, where D is
exactly zero, enters through the closed forms of the zero matrix's SVD.  The checks of
every step are made on the stack and raised in the order of a walk one
step at a time: DL_0, DL_1, T_1, ..., DL_K, T_K.  On the one sector, and
when a stacked LAPACK call itself fails, the steps run one at a time
through the same functions, step j's DL operator and projector and then
transition j, so at most two steps' 4^n x 4^n factors are alive.  The
boost coefficients need erfcinv, by Newton's method on math.erfc, and the
scaled Bessel values e^{-z} I_j(z), from one real FFT of e^{z (cos t -
1)}; no scipy module is loaded.
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
    NoConvergence,
    OverflowDetected,
    OverlapTooSmall,
    RankAmbiguous,
    StackDisagreement,
    UnknownKind,
)
from .hamiltonians import LocalHamiltonian, LocalOperator, SectorHamiltonian
from .jumps import WeightProfile, model_terms
from .kms import KmsForm
from .linalg import singular_value_decompose, spectral_norm
from .parent import ParentHamiltonian, build_parent, parent_projector_input, purified_gibbs
from .projector import (
    ProjectorResult,
    _dl_by_sector,
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
) -> tuple[np.ndarray, np.ndarray, tuple[DlGibbsError | None, ...]]:
    """Apply O_tilde_j ~ |b_j><a_j| for each pair j in turn to state.

    Pair j is entry j of the projector stacks pa and pb and the targets a
    and b, (P, 4^n).  O_tilde applies the odd boost polynomial f, given by
    its Chebyshev coefficients (boost_coefficients for the overlap floor),
    to every singular value of P_b P_a.  Both projectors are held by the
    same sectors (ProjectorResult.sectors), each sector s as P_s = U_s
    p(S_s) V_s^dag (ProjectorResult.blocks), so M_s = P_{b,s} P_{a,s} of
    every pair is one stacked product and X_s S_s Y_s^dag one stacked SVD,
    and O_tilde_s = X_s f(S_s) Y_s^dag.  On every sector a held subset
    leaves out, P_a and P_b are p_a(0) I and p_b(0) I (ProjectorResult), so
    M_s = c I with c = p_b(0) p_a(0): its singular values are |c|, side
    times per sector, and O_tilde_s - b_s a_s^dag has norm |f(|c|)|.
    OverlapTooSmall (below floor / 2) and RankAmbiguous read each pair's
    top two singular values over all sectors, as for the dense product;
    they are returned as that pair's failure, for the caller to raise in
    its order.  The targets lie in one common sector (sector 0 for a
    diagonal H, where vec(sqrt(sigma)) is diagonal; the whole register on
    one sector), so b a^dag is block diagonal and each pair's error is the
    largest spectral norm over its stack O_tilde_s - b_s a_s^dag, all pairs
    in one stacked SVD.  The state starts in the targets' sector, so it is
    zero on every sector left out and stays so; on the held ones it moves
    by each pair's O_tilde_s in turn.  Returns the state after the last
    pair, the errors (P,) and the failures.
    """
    sectors = pa.sectors
    core = singular_value_decompose(pb.blocks @ pa.blocks)
    pairs = core.s.shape[0]
    s = np.sort(core.s.reshape(pairs, -1), axis=-1)[:, ::-1][:, :2]
    f = chebyshev.chebval(np.clip(core.s, 0.0, 1.0), coefficients)
    o = (core.u * f[..., None, :]) @ core.vh
    a_s, b_s = sectors.gather(a), sectors.gather(b)
    err = spectral_norm(o - b_s[..., :, None] * a_s[..., None, :].conj(), entries=True)
    if pa.p_zero is not None:
        c = np.abs(pb.p_zero * pa.p_zero)
        s = np.sort(np.concatenate([s, np.stack([c, c], axis=-1)], axis=-1), axis=-1)[:, ::-1]
        err = np.maximum(err, np.abs(chebyshev.chebval(np.clip(c, 0.0, 1.0), coefficients)))
    failures: list[DlGibbsError | None] = []
    for s0, s1 in s[:, :2].tolist():
        try:
            _check_overlap(s0, floor)
            if s1 > s0 / 10:
                raise RankAmbiguous(
                    f"second singular value {s1:.3e} is within a factor 10 of the "
                    f"first {s0:.3e}"
                )
        except (OverlapTooSmall, RankAmbiguous) as exc:
            failures.append(exc)
        else:
            failures.append(None)
    y = sectors.gather(state)
    for o_j in o:
        y = (o_j @ y[..., None])[..., 0]
    return sectors.scatter(y), err, tuple(failures)


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
) -> Iterator[tuple[ParentHamiltonian, int]]:
    """(parent, entry) of the model at each beta of betas, in order: ph[entry] is that step's.

    For commuting H the parents are built as one temperature stack: each
    coupling's rotation, weighted jump, restriction, coherent form and
    term eigensystems are computed once for every temperature
    (model_terms, build_parent), and step j is entry j of it.
    Non-commuting H, whose terms are on the whole register, is built one
    temperature at a time, a stack of one per step, and so is a stack that
    raises or whose temperatures disagree on how a term is held
    (StackDisagreement): each error is then raised at the temperature, and
    the term, where a build of that temperature alone raises it, and a
    step's parent is not built before every earlier step has been read.
    """
    for stack, entries in _parent_stacks(ham, couplings, w, betas):
        for j in range(entries):
            yield stack, j
        del stack  # before the next stack is built


def _parent_stacks(
    ham: LocalHamiltonian,
    couplings: Sequence[LocalOperator],
    w: WeightProfile,
    betas: np.ndarray,
) -> Iterator[tuple[ParentHamiltonian, int]]:
    """_step_parents' stacks, each once with its number of entries."""
    profiles = [replace(w, beta=beta) for beta in betas.tolist()]
    if ham.commuting and len(profiles) > 1:
        try:
            stacked = _parent(ham, couplings, profiles)
        except (DlGibbsError, StackDisagreement):
            pass
        else:
            # Handed over from a list, so this frame does not hold the stack
            # while its steps are read.
            held = [stacked]
            del stacked
            yield held.pop(), len(profiles)
            return
    for profile in profiles:
        yield _parent(ham, couplings, [profile]), 1


def _step_inputs(
    ham: LocalHamiltonian,
    couplings: Sequence[LocalOperator],
    w: WeightProfile,
    betas: np.ndarray,
) -> Iterator[tuple[np.ndarray, SectorHamiltonian]]:
    """(target, projector input) of each step, in order, from _step_parents' stacks.

    Every entry's input is built as soon as its stack is, and the stack is
    dropped before the first is yielded, so a temperature stack is not held
    beside the inputs of its steps.  An input that raises (PositivityFailure)
    is raised after every earlier step's input has been yielded.
    """
    for stack, entries in _parent_stacks(ham, couplings, w, betas):
        ground, steps, failure = stack.ground, [], None
        try:
            for j in range(entries):
                steps.append(parent_projector_input(stack, j))
        except DlGibbsError as exc:
            failure = exc
        del stack
        yield from zip(ground, steps)
        if failure is not None:
            raise failure


def _parent(
    ham: LocalHamiltonian, couplings: Sequence[LocalOperator], profiles: list[WeightProfile]
) -> ParentHamiltonian:
    """build_parent on the temperature stack of profiles."""
    betas = np.array([p.beta for p in profiles])
    terms = model_terms(ham, couplings, profiles)
    return build_parent(terms, KmsForm.gibbs(ham, betas), ham, beta=betas)


def _projectors(
    pins: SectorHamiltonian, ell: int, everywhere: bool = False
) -> tuple[ProjectorResult, list[DlGibbsError | None]]:
    """Each entry's degree-ell projector, and the first error of its checks (None if none).

    One stacked call each: the DL operator (on every sector with
    everywhere), its singular-gap check and the projector.
    """
    dl = _dl_by_sector(pins, everywhere) if everywhere else dl_operator(pins)
    sg = singular_gap(dl, pins)
    res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
    return res, [d if d is not None else g for d, g in zip(dl.failures, sg.failures)]


def _dl_qsvt_steps(
    pins: list[SectorHamiltonian],
    targets: list[np.ndarray],
    ell: int,
    coefficients: np.ndarray,
    floor: float,
) -> tuple[list[float], list[float], np.ndarray]:
    """Pass 2 of a dl_qsvt run: each step's projector error, each transition's, and the final state.

    Labelled, every step's DL operator, gap check and projector are one
    stacked call on D's support sectors (_stacked_steps); on the one sector,
    or when a stacked LAPACK call itself fails (NoConvergence), the steps
    run one at a time (_single_steps).  Either way a failing check raises
    in the order of a walk one step at a time: DL_0, DL_1, T_1, ..., DL_K,
    T_K.
    """
    if pins[0].sectors.labelled:
        try:
            return _stacked_steps(pins, targets, ell, coefficients, floor)
        except NoConvergence:
            pass
    return _single_steps(pins, targets, ell, coefficients, floor)


def _stacked_steps(
    pins: list[SectorHamiltonian],
    targets: list[np.ndarray],
    ell: int,
    coefficients: np.ndarray,
    floor: float,
) -> tuple[list[float], list[float], np.ndarray]:
    """_dl_qsvt_steps with every step one entry of one stack, and every transition one pair.

    The transitions run between the steps before the first failing one,
    and the failures are raised in walk order once all are known.
    """
    res, failures = _projectors(SectorHamiltonian.stack(pins), ell)
    first = next((j for j, f in enumerate(failures) if f is not None), len(pins))
    pairs = max(0, min(first, len(pins)) - 1)
    state, errors, broken = targets[0].copy(), np.zeros(0), ()
    if pairs:
        a, b = np.stack(targets[:pairs]), np.stack(targets[1 : pairs + 1])
        res.blocks  # once for both ends of every pair
        state, errors, broken = transition(
            res[:pairs], res[1 : pairs + 1], a, b, state, coefficients, floor
        )
    for j in range(len(pins)):
        if failures[j] is not None:
            raise failures[j]
        if j and broken[j - 1] is not None:
            raise broken[j - 1]
    return res.error.tolist(), errors.tolist(), state


def _single_steps(
    pins: list[SectorHamiltonian],
    targets: list[np.ndarray],
    ell: int,
    coefficients: np.ndarray,
    floor: float,
) -> tuple[list[float], list[float], np.ndarray]:
    """_dl_qsvt_steps one step at a time: step j's projector, then transition j.

    Each step is a stack of one, on every sector when labelled, so the
    steps' sectors match; step j's factors are built after transition
    j - 1 and dropped after transition j + 1, so at most two steps' factors
    are alive.
    """
    labelled = pins[0].sectors.labelled
    projector_errors, transition_errors = [], []
    state = targets[0].copy()
    prev = None
    for j, pin in enumerate(pins):
        res, failures = _projectors(pin, ell, everywhere=labelled)
        if failures[0] is not None:
            raise failures[0]
        projector_errors.append(float(res.error[0]))
        if j:
            state, err, broken = transition(
                prev, res, targets[j - 1][None], targets[j][None], state, coefficients, floor
            )
            if broken[0] is not None:
                raise broken[0]
            transition_errors.append(float(err[0]))
        prev = res
    return projector_errors, transition_errors, state


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
    ground vector and, in dl_qsvt mode, its local projector input (pin);
    the targets' overlaps give the budgets, and the pins' certified gamma*
    give ell.  For commuting H the parents are one temperature stack
    (_step_parents), and in dl_qsvt mode every step's pin is read off its
    sector blocks as soon as the stack is built, before the stack is
    dropped (_step_inputs): each term's blocks -H^a / max(1, ||H^a||) and
    scaled eigendecompositions, 8^k entries per step and term.  Each step's
    all-sector ground cluster is then summed for that step alone, at most
    one 8^n sum at a time.  Non-commuting H is built one temperature at a
    time, so at most one step's 4^n x 4^n terms are alive.  Errors and
    warnings come in the order of a build one temperature at a time: beta
    first, then term, and a step's PositivityFailure after every earlier
    step's warnings.  An IrreducibilityWarning reports a fixed-point
    dimension above 1.  In dl_qsvt mode that is the dimension of the pin's
    ground cluster, which certified_bound reads anyway: the rank its DL
    operator projects onto, so no 4^n spectrum is taken.  Exact mode reads
    ph.kernel_dim, one spectrum per step of the sum of its terms' held
    blocks, which non-commuting H needs.

    The second pass (_dl_qsvt_steps) holds, when the pins are labelled, the
    K + 1 steps' DL factors and projectors at once as stacks on D's support
    sectors, (K + 1, support, 2^n, 2^n), and the K transitions as one stack
    of pairs: one DL SVD, one transition SVD and one error-norm SVD per run.
    A FrustrationDetected or DegenerateGap of step j is raised after
    transitions 1 ... j - 1 have been checked, and a failing transition j
    before any failure of step j + 1.  On the one sector the steps run one
    at a time, so at most two steps' DL factors are alive there.  The pins
    are held by sector, the same at every step (BadParams otherwise), so
    the transitions read matching stacks.
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
    if projector_mode == "dl_qsvt":
        steps = _step_inputs(ham, couplings, w, betas)
    else:
        steps = _step_parents(ham, couplings, w, betas)
    for beta_j in betas.tolist():
        if projector_mode == "dl_qsvt":
            target, step = next(steps)
            pins.append(step)
            kernel_dim = step.cluster.dimension
        else:
            ph, entry = next(steps)
            step = ph[entry]
            del ph
            target, kernel_dim = step.ground, step.kernel_dim
        if kernel_dim > 1:
            warnings.warn(
                f"generator at beta = {beta_j:.6g} has fixed-point dimension "
                f"{kernel_dim}; the purified path is not unique",
                IrreducibilityWarning,
            )
        targets.append(target)
        # Drop this step's parent (4^n x 4^n terms for non-commuting H)
        # before the next one is built.
        del step
    del steps
    m_terms = len(couplings)
    if len({pin.sectors for pin in pins}) > 1:
        # The transitions multiply one step's sector stacks by the next's.
        raise BadParams("the steps' projector inputs are not held on the same sectors")

    overlaps = [
        float(np.abs(np.vdot(targets[j - 1], targets[j])))
        for j in range(1, k_steps + 1)
    ]
    b_floor = min(1.0, min(overlaps))  # <= 1 (Cauchy-Schwarz) but may round above it
    budgets = error_budget(k_steps, b_floor, delta)
    step_bound = delta / (2.0 * k_steps)

    # Pass 2: the transitions, each of its projectors built from its pin.
    dim = targets[0].shape[0]
    if projector_mode == "exact":
        ell = transition_queries = 0
        projector_errors = [0.0] * (k_steps + 1)
        transition_errors = []
        state = targets[0].copy()
        for j in range(1, k_steps + 1):
            a, b = targets[j - 1], targets[j]
            # Both projectors are rank one: P_b P_a = <b|a> b a dagger, so
            # s_0 = |<b|a>| and s_1 = 0 (RankAmbiguous cannot fire), and
            # dividing out s_0 leaves the phase of <b|a> times b a dagger.
            ba = np.vdot(b, a)
            _check_overlap(abs(ba), b_floor)
            phase = ba / abs(ba)
            transition_errors.append(float(abs(phase - 1.0)))  # ||(phase - 1) b a dagger||
            state = (phase * np.vdot(a, state)) * b
    else:
        target_err = budgets.projector_error
        ell = max(
            degree_for_error(certified_bound(pin)[0], target_err) for pin in pins
        )
        coefficients = boost_coefficients(b_floor, budgets.epsilon, budgets.degree)
        transition_queries = budgets.degree
        projector_errors, transition_errors, state = _dl_qsvt_steps(
            pins, targets, ell, coefficients, b_floor
        )
    records = [
        StepRecord(
            index=j,
            beta=float(betas[j]),
            overlap=overlaps[j - 1],
            transition_error=transition_errors[j - 1],
            error_bound=step_bound,
            projector_error=projector_errors[j],
            queries=ell * m_terms + transition_queries,
        )
        for j in range(1, k_steps + 1)
    ]

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
