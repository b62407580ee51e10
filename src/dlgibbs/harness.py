"""Experiment orchestration: CSV/JSON artifacts and resource formulas.

Each experiment builds its model from a validated configuration, runs
the corresponding pipeline, and writes two artifacts: a CSV whose first
line is a comment carrying the artifact version and the canonical
config hash, and a JSON summary with a versioned schema.  Outputs are
deterministic functions of (config, seed): no timestamps, floats
rendered with 17 significant digits, files written atomically.  Each
runner returns one Check per certified inequality it asserts, and the
violations are the texts of the checks that fail.  They never raise by
default; they are recorded in the summary and surfaced through the exit
code (0 clean, 1 violations), while strict mode escalates them to errors.

The estimate experiment evaluates the two closed-form cost displays.
Cyclic mixing to accuracy eps in trace distance costs

    k = (g^2 / gap) * ln(1 / (sigma_min * eps))

rounds, each round applying M term channels, for a gate-level total of
M * k * ln^c(k * M / eps) with a user-chosen compilation exponent c.
Temperature-path preparation to fidelity error delta costs

    (M * beta * ||H|| / sqrt(gap)) * ln^2(beta * ||H|| / delta)
        * ln^c((M / sqrt(gap)) * beta * ||H|| / delta)

with K = ceil(alpha * beta * ||H||) steps and ceil(log2 M) + 1
resettable ancillas.  Logarithm arguments are floored at e so every log
factor is at least 1, and the prefactors are kept exact: a vanishing
coupling degree g reports a verbatim zero, and doubling M exactly
doubles each prefactor.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .anneal import make_schedule, overlap, run_annealing
from .config import ExperimentConfig, config_hash
from .errors import BadInputs, DlGibbsError
from .hamiltonians import make_instance, standard_couplings
from .jumps import WeightProfile, build_model
from .kms import KmsForm
from .parent import build_parent, verify_parent
from .projector import (
    approximate_projector,
    chebyshev_poly,
    degree_for_error,
    dl_operator,
    singular_gap,
)
from .sampler import compose_dl_channel, iterate
from .tolerances import MIX_VIOLATION_SLACK, PARENT_FRUSTRATION_CUT, VIOLATION_SLACK

ARTIFACT_VERSION = "0.1.0"
SCHEMA_VERSION = 1
# Range of the overlap deficit's log-log slope; 2 is the quadratic law.
SLOPE_WINDOW = (1.8, 2.2)


@dataclass(frozen=True)
class Check:
    """One certified inequality: an observed value against its bound.

    A ceiling fails when observed > ceiling + slack.  A floor fails when
    observed < floor, the floor already including its slack.  A check with
    both fails unless floor <= observed <= ceiling, so a NaN fails only
    such a window.  text is the violation line when the check fails.
    """

    text: str
    observed: float
    ceiling: float | None = None
    slack: float = 0.0
    floor: float | None = None

    @property
    def failed(self) -> bool:
        if self.floor is None:
            return self.observed > self.ceiling + self.slack
        if self.ceiling is None:
            return self.observed < self.floor
        return not self.floor <= self.observed <= self.ceiling


@dataclass(frozen=True)
class ResourceEstimate:
    """Closed-form cost expressions evaluated at user inputs."""

    m_terms: int
    g: float
    gap: float
    sigma_min: float
    eps: float
    beta: float
    norm_h: float
    delta: float
    c: float
    alpha: float
    mixing_k: float
    mixing_prefactor: float
    mixing_log_factor: float
    mixing_total: float
    anneal_steps: int
    anneal_prefactor: float
    anneal_log_sq: float
    anneal_log_c: float
    anneal_total: float
    ancilla: int


def _log_floor(x: float) -> float:
    """ln of the argument floored at e, so the factor is at least 1."""
    return math.log(max(x, math.e))


def resource_estimate(
    m_terms: int,
    g: float,
    gap: float,
    sigma_min: float,
    eps: float,
    beta: float,
    norm_h: float,
    delta: float,
    c: float = 1.44,
    alpha: float = 2.0,
) -> ResourceEstimate:
    """Evaluate both cost formulas; prefactors exact, log factors floored."""
    if m_terms < 1:
        raise BadInputs(f"term count must be >= 1, got {m_terms}")
    if gap <= 0:
        raise BadInputs(f"spectral gap must be > 0, got {gap}")
    if not 0 < sigma_min <= 1:
        raise BadInputs(f"smallest Gibbs weight must lie in (0, 1], got {sigma_min}")
    if not 0 < eps < 1:
        raise BadInputs(f"mixing accuracy must lie in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise BadInputs(f"preparation error must lie in (0, 1), got {delta}")
    if g < 0 or beta < 0 or norm_h < 0:
        raise BadInputs("degree, beta and norm bound must be >= 0")
    if alpha <= 1:
        raise BadInputs(f"spacing constant must exceed 1, got {alpha}")

    k = (g * g / gap) * math.log(1.0 / (sigma_min * eps))
    k = max(k, 0.0)
    mixing_prefactor = m_terms * k
    mixing_log = _log_floor(k * m_terms / eps) ** c
    mixing_total = mixing_prefactor * mixing_log

    bh = beta * norm_h
    steps = max(1, math.ceil(alpha * bh))
    anneal_prefactor = m_terms * bh / math.sqrt(gap)
    anneal_log_sq = _log_floor(bh / delta) ** 2
    anneal_log_c = _log_floor((m_terms / math.sqrt(gap)) * bh / delta) ** c
    anneal_total = anneal_prefactor * anneal_log_sq * anneal_log_c

    return ResourceEstimate(
        m_terms=m_terms,
        g=float(g),
        gap=float(gap),
        sigma_min=float(sigma_min),
        eps=float(eps),
        beta=float(beta),
        norm_h=float(norm_h),
        delta=float(delta),
        c=float(c),
        alpha=float(alpha),
        mixing_k=k,
        mixing_prefactor=mixing_prefactor,
        mixing_log_factor=mixing_log,
        mixing_total=mixing_total,
        anneal_steps=steps,
        anneal_prefactor=anneal_prefactor,
        anneal_log_sq=anneal_log_sq,
        anneal_log_c=anneal_log_c,
        anneal_total=anneal_total,
        ancilla=math.ceil(math.log2(m_terms)) + 1,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Artifacts and status of one experiment run."""

    exit_code: int
    csv_path: Path
    summary_path: Path
    violations: tuple[str, ...]
    warnings: tuple[str, ...]
    results: dict


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _instance_id(cfg: ExperimentConfig) -> str:
    return f"{cfg.model.kind}-n{cfg.model.n}-s{cfg.model.seed}"


def _build_common(cfg: ExperimentConfig, beta: float):
    ham = make_instance(cfg.model.kind, cfg.model.n, cfg.model.seed)
    couplings = standard_couplings(cfg.model.n, cfg.model.couplings)
    return ham, couplings, WeightProfile(kind=cfg.weights.kind, beta=float(beta))


def _run_mix(cfg: ExperimentConfig):
    beta = float(cfg.run["beta"])
    k_max = int(cfg.run["k_max"])
    ham, couplings, w = _build_common(cfg, beta)
    kms = KmsForm.gibbs(ham, beta)  # its beta guard first: the jump weights can overflow
    terms = build_model(ham, couplings, w)
    channel = compose_dl_channel(terms, kms, ham)
    dim = 2**ham.n
    rho0 = np.zeros((dim, dim))
    rho0[0, 0] = 1.0
    trace = iterate(channel, rho0, kms, k_max)
    columns = ["k", "trace_distance", "bound", "channel_applications"]
    rows = [
        (int(k), float(d), float(b), int(a))
        for k, d, b, a in zip(
            trace.ks, trace.trace_distances, trace.bounds, trace.channel_applications
        )
    ]
    text = "mix: trace distance {:.3e} exceeds bound {:.3e} at k={}"
    checks = [Check(text.format(d, b, k), d, b, MIX_VIOLATION_SLACK) for k, d, b, _ in rows]
    results = {
        "instance": _instance_id(cfg),
        "beta": beta,
        "m_terms": channel.m,
        "sigma_min": trace.sigma_min,
        "gap": trace.gap,
        "g": trace.g,
        "contraction_factor": trace.q,
        "kernel_dim": trace.kernel_dim,
        "final_trace_distance": float(trace.trace_distances[-1]),
        "channel_applications": int(trace.channel_applications[-1]),
    }
    return columns, rows, results, checks


def _run_project(cfg: ExperimentConfig):
    eps = float(cfg.run["eps"])
    ell_min = int(cfg.run["ell_min"])
    ell_max = int(cfg.run["ell_max"])
    if ell_min < 1 or ell_max < ell_min:
        raise BadInputs(
            f"polynomial degree range [{ell_min}, {ell_max}] is not valid"
        )
    ham = make_instance(cfg.model.kind, cfg.model.n, cfg.model.seed)
    dl = dl_operator(ham)
    sg = singular_gap(dl, ham)
    instance = _instance_id(cfg)
    columns = ["instance_id", "gamma", "g", "gamma_star", "ell", "error", "bound", "queries"]
    head = (instance, float(sg.gamma), int(sg.g), float(sg.gamma_star))
    rows, checks = [], []
    for ell in range(ell_min, ell_max + 1):
        res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
        error, bound = float(res.error), float(res.bound)
        rows.append(head + (ell, error, bound, int(res.queries)))
        text = f"project: error {error:.3e} exceeds bound {bound:.3e} at ell={ell}"
        checks.append(Check(text, error, bound, VIOLATION_SLACK))
    results = {
        "instance": instance,
        "gamma": sg.gamma,
        "g": sg.g,
        "gamma_star": sg.gamma_star,
        "rank": sg.r,
        "s_next": sg.s_next,
        "s_next_bound": sg.bound,
        "ell_for_eps": degree_for_error(sg.gamma_star, eps),
        "eps": eps,
    }
    return columns, rows, results, checks


def _run_parent(cfg: ExperimentConfig):
    beta = float(cfg.run["beta"])
    ham, couplings, w = _build_common(cfg, beta)
    kms = KmsForm.gibbs(ham, beta)  # its beta guard first: the jump weights can overflow
    terms = build_model(ham, couplings, w)
    ph = build_parent(terms, kms, ham, beta=beta)
    rep = verify_parent(ph)
    columns = [
        "term_id",
        "norm",
        "support_size",
        "frustration_residual",
        "hermiticity_residual",
        "locality_residual",
    ]
    rows = []
    for a, term in enumerate(ph.terms):
        loc = (
            float(rep.locality_residuals[a])
            if rep.locality_residuals is not None
            else float("nan")
        )
        rows.append(
            (
                int(a),
                float(term.norms[0]),
                len(term.support),
                float(rep.frustration_residuals[a]),
                float(term.db_residual[0]),
                loc,
            )
        )
    text = (
        f"parent: frustration residual {rep.max_frustration:.3e} "
        f"exceeds {PARENT_FRUSTRATION_CUT:.1e}"
    )
    checks = [Check(text, rep.max_frustration, PARENT_FRUSTRATION_CUT)]
    results = {
        "instance": _instance_id(cfg),
        "beta": beta,
        "m_terms": ph.m,
        "max_frustration": rep.max_frustration,
        "parent_degree": rep.parent_degree,
        "locality_checked": rep.locality_checked,
    }
    return columns, rows, results, checks


def _run_anneal(cfg: ExperimentConfig):
    beta = float(cfg.run["beta"])
    delta = float(cfg.run["delta"])
    alpha = float(cfg.run["alpha"])
    mode = str(cfg.run["mode"])
    ham, couplings, w = _build_common(cfg, beta)
    sched = make_schedule(beta, float(np.abs(ham.eig.eigenvalues).max()), alpha)
    run = run_annealing(ham, couplings, w, sched, delta, mode)
    columns = ["j", "beta_j", "overlap", "transition_error_bound", "cumulative_queries"]
    rows, checks = [], []
    cumulative = 0
    for rec in run.records:
        cumulative += rec.queries
        bound = float(rec.error_bound)
        rows.append((int(rec.index), float(rec.beta), float(rec.overlap), bound, int(cumulative)))
        text = (
            f"anneal: transition error {rec.transition_error:.3e} exceeds "
            f"budget {bound:.3e} at step {rec.index}"
        )
        checks.append(Check(text, rec.transition_error, bound, VIOLATION_SLACK))
    # With eps = delta/2 >= ||psi~ - psi|| (the state-error check) and ||psi|| = 1:
    # Re<psi~, psi> >= 1 - eps and ||psi~|| <= 1 + eps, so the fidelity
    # |<psi~, psi>| / ||psi~|| is at least (1 - eps) / (1 + eps) >= 1 - delta.
    eps = delta / 2
    floor = (1.0 - eps) ** 2 - VIOLATION_SLACK
    fidelity_floor = (1.0 - eps) / (1.0 + eps) - VIOLATION_SLACK
    state, p, fid = run.state_error, run.success_probability, run.final_fidelity
    checks += [
        Check(
            f"anneal: accumulated state error {state:.3e} exceeds delta/2 = {eps:.3e}",
            state, eps, VIOLATION_SLACK,
        ),
        Check(
            f"anneal: success probability {p:.6f} is below (1 - delta/2)^2 = {floor:.6f}",
            p, floor=floor,
        ),
        Check(
            f"anneal: fidelity {fid:.6f} is below {fidelity_floor:.6f}", fid, floor=fidelity_floor
        ),
    ]
    results = {
        "instance": _instance_id(cfg),
        "mode": mode,
        "K": sched.steps,
        "final_fidelity": run.final_fidelity,
        "success_probability": run.success_probability,
        "state_error": run.state_error,
        "min_overlap": run.min_overlap,
        "budgets": {
            "epsilon": run.budgets.epsilon,
            "mu": run.budgets.mu,
            "boost_degree": run.budgets.degree,
        },
        "projector_degree": run.projector_degree,
        "m_terms": run.m_terms,
        "queries": {
            "projector": run.tally.projector,
            "transition": run.tally.transition,
            "total": run.tally.total,
        },
    }
    return columns, rows, results, checks


def _run_overlap(cfg: ExperimentConfig):
    beta = float(cfg.run["beta"])
    dbetas = [float(x) for x in cfg.run["dbetas"]]
    if not dbetas or any(x <= 0 for x in dbetas):
        raise BadInputs("overlap experiment needs positive temperature increments")
    ham = make_instance(cfg.model.kind, cfg.model.n, cfg.model.seed)
    columns = ["dbeta", "overlap", "one_minus_overlap_sq"]
    rows = []
    for db in sorted(dbetas, reverse=True):
        o = overlap(ham, beta, db)
        rows.append((float(db), float(o), float(1.0 - o * o)))
    checks = []
    slope = None
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[2] for r in rows])
    if len(rows) >= 2 and np.all(ys > 0):
        slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
        low, high = SLOPE_WINDOW
        text = f"overlap: deficit slope {slope:.4f} is outside [{low}, {high}]"
        checks.append(Check(text, slope, high, floor=low))
    results = {
        "instance": _instance_id(cfg),
        "beta": beta,
        "slope": slope,
        "min_overlap": min(r[1] for r in rows),
    }
    return columns, rows, results, checks


def _run_estimate(cfg: ExperimentConfig):
    est = resource_estimate(
        m_terms=int(cfg.run["m_terms"]),
        g=float(cfg.run["g"]),
        gap=float(cfg.run["gap"]),
        sigma_min=float(cfg.run["sigma_min"]),
        eps=float(cfg.run["eps"]),
        beta=float(cfg.run["beta"]),
        norm_h=float(cfg.run["norm_h"]),
        delta=float(cfg.run["delta"]),
        c=float(cfg.run["c"]),
        alpha=float(cfg.run["alpha"]),
    )
    columns = ["quantity", "value"]
    table = asdict(est)
    rows = [(key, table[key]) for key in sorted(table)]
    results = dict(table)
    return columns, rows, results, []


_RUNNERS = {
    "mix": _run_mix,
    "project": _run_project,
    "parent": _run_parent,
    "anneal": _run_anneal,
    "overlap": _run_overlap,
    "estimate": _run_estimate,
}


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path = ".",
    seed: int | None = None,
    strict: bool = False,
) -> ExperimentResult:
    """Run one experiment and write its CSV and JSON summary.

    seed overrides the model seed from the config.  Exit code 0 means
    every asserted bound held; 1 means violations were recorded (the
    artifacts are still written).  In strict mode violations raise
    DlGibbsError after the artifacts are written.
    """
    if seed is not None:
        cfg = replace(cfg, model=replace(cfg.model, seed=int(seed)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns, rows, results, checks = _RUNNERS[cfg.experiment](cfg)
    violations = [check.text for check in checks if check.failed]
    notes = sorted({str(w.message) for w in caught})

    header = (
        f"# dlgibbs v{ARTIFACT_VERSION} config={digest} experiment={cfg.experiment}"
    )
    lines = [header, ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    csv_path = out / cfg.output.csv
    _atomic_write(csv_path, "\n".join(lines) + "\n")

    summary = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "experiment": cfg.experiment,
        "config_hash": digest,
        "results": results,
        "violations": list(violations),
        "warnings": notes,
    }
    summary_path = out / cfg.output.summary
    _atomic_write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")

    if strict and violations:
        raise DlGibbsError(
            f"{cfg.experiment}: {len(violations)} bound violation(s): "
            + "; ".join(violations)
        )
    return ExperimentResult(
        exit_code=1 if violations else 0,
        csv_path=csv_path,
        summary_path=summary_path,
        violations=tuple(violations),
        warnings=tuple(notes),
        results=results,
    )
