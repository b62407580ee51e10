"""The four benchmark workloads: inputs, one operation each, output check.

Each workload draws its inputs from a fixed pool generated from
``POOL_SEED``; ``reference.json`` holds, for every pool input, the outputs
recorded at the commit named in it.  A run's ``--seed`` fixes the order in
which a process takes pool inputs, without replacement, so no two
operations in one process see the same input and a cross-call memo cannot
make a warm operation look faster than a user's one-shot run.

Why these four (each stresses a different layer; see NOTES.md for the
layer-to-metric table):

* ``mix-chain4``: the dense 4^n superoperator path.  Its time goes to the
  ``kms`` stationary channels, ``sampler`` composition and
  ``hamiltonians.noncommutation_degree``; no ``projector``/``parent`` work.
  Couplings ``xz`` make the generator irreducible (g = 2, kernel_dim = 1),
  so the contraction is exercised, not the reducible-model warning path.
* ``project-ff8``: the 2^n Hilbert-space detectability-lemma path, all
  ``projector`` and ``linalg``; it skips ``kms``/``sampler``/``jumps``/
  ``parent`` and is the predicted no-change control for superoperator work.
* ``anneal-qsvt4``: the same layers used differently: K + 1 small models
  rebuilt (``jumps``, ``kms.spectral_report``), ``parent.build_parent`` and
  one DL projector per step on the 8-qubit doubled register.  beta in
  (5/6, 1] keeps K = ceil(2 * beta * ||H||) = 6.  A gain paid for with
  per-call set-up shows here.
* ``model-ff6``: the library call ``build_model`` on a non-commuting n = 6
  model, the only workload where ``jumps`` Bohr weighting dominates.

Not measured: ``mix`` on ``random_ff_projectors`` at n = 4 (couplings x,
beta 0.5) exits 2 on model seeds 0-5 with "stationary channel for term 0 is
not CPTP" (seed 0: Choi minimum eigenvalue -4.8e-9, TP residual 2.4e-8
against the 1e-9 tolerance); n <= 3 passes.  That is a correctness defect
of the program, not a workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

POOL_SEED = 20260417
REL_TOL = 1e-6
ABS_TOL = 1e-10

# CSV columns that hold integers (compared exactly); other columns are
# floats (compared within tolerance) except instance_id, a string.
INT_COLUMNS = {"k", "channel_applications", "g", "ell", "queries", "j", "cumulative_queries"}
STR_COLUMNS = {"instance_id"}


# Pool size per workload: more inputs than a run takes even when an
# operation gets several times faster (a run stops early once its pool is
# used up).
WORKLOADS = {"mix-chain4": 64, "project-ff8": 64, "anneal-qsvt4": 32, "model-ff6": 32}


def _unit_betas(rng: random.Random, lo: float, hi: float, count: int, open_lo: bool) -> list[float]:
    out: list[float] = []
    while len(out) < count:
        beta = round(rng.uniform(lo, hi), 6)
        if (open_lo and beta <= lo) or beta in out:
            continue
        out.append(beta)
    return out


def pool(name: str) -> list[dict]:
    """The fixed input pool of a workload, independent of the run seed."""
    size = WORKLOADS[name]
    rng = random.Random(f"{POOL_SEED}:{name}")
    if name == "mix-chain4":
        return [{"beta": b} for b in _unit_betas(rng, 0.4, 0.6, size, False)]
    if name == "anneal-qsvt4":
        return [{"beta": b} for b in _unit_betas(rng, 5 / 6, 1.0, size, True)]
    seeds = rng.sample(range(2**31), size)
    return [{"model_seed": s} for s in seeds]


def order(name: str, seed: int) -> list[int]:
    """Pool indices in the order a run with this seed takes them."""
    return random.Random(f"{name}:{seed}").sample(range(WORKLOADS[name]), WORKLOADS[name])


def config_text(name: str, inp: dict) -> str:
    """The dlgibbs config of an experiment workload's input."""
    if name == "mix-chain4":
        return (
            "experiment = mix\n[model]\nkind = zz_chain\nn = 4\nseed = 0\ncouplings = xz\n"
            f"[run]\nbeta = {inp['beta']!r}\nk_max = 50\n"
        )
    if name == "project-ff8":
        return (
            "experiment = project\n[model]\nkind = random_ff_projectors\nn = 8\n"
            f"seed = {inp['model_seed']}\n[run]\neps = 1e-06\nell_min = 1\nell_max = 40\n"
        )
    if name == "anneal-qsvt4":
        return (
            "experiment = anneal\n[model]\nkind = zz_chain\nn = 4\ncouplings = xz\n"
            f"[run]\nbeta = {inp['beta']!r}\ndelta = 0.05\nalpha = 2.0\nmode = dl_qsvt\n"
        )
    raise KeyError(f"{name} is not a CLI workload")


MODEL_N = 6
MODEL_BETA = 0.5


def setup(name: str, inp: dict) -> None:
    """What every invocation pays before the work: import and input validation."""
    import dlgibbs

    if name == "model-ff6":
        dlgibbs.standard_couplings(MODEL_N, "x")
        dlgibbs.WeightProfile(kind="davies_kms", beta=MODEL_BETA)
    else:
        dlgibbs.parse_config(config_text(name, inp))


# -- operations --------------------------------------------------------


class Operations:
    """Runs one workload's operations with files under work_dir."""

    def __init__(self, name: str, work_dir: Path):
        self.name = name
        self.work_dir = work_dir
        self.experiment = None if name == "model-ff6" else name.split("-")[0]

    def prepare(self, index: int, inp: dict) -> list:
        """Untimed: write the input's config; return the operation's arguments."""
        if self.experiment is None:
            return [inp["model_seed"]]
        cfg = self.work_dir / f"op{index}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(config_text(self.name, inp))
        return [cfg, self.work_dir / f"op{index}"]

    def run(self, *args) -> dict:
        """One operation; returns the observed outputs the check compares."""
        if self.experiment is None:
            return _build_model_op(*args)
        return self._cli_op(*args)

    def _cli_op(self, cfg: Path, out: Path) -> dict:
        from dlgibbs import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([self.experiment, "--config", str(cfg), "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise OperationFailed(f"exit {code}: {stderr.getvalue().strip()[-500:]}")
        summary = json.loads((out / f"{self.experiment}.json").read_text())
        lines = (out / f"{self.experiment}.csv").read_text().splitlines()
        columns = lines[1].split(",")
        rows = [[_cell(c, v) for c, v in zip(columns, line.split(","))] for line in lines[2:]]
        return {
            "results": summary["results"],
            "violations": summary["violations"],
            "warnings": summary["warnings"],
            "columns": columns,
            "rows": rows,
        }


class OperationFailed(Exception):
    """An operation exited non-zero."""


def _cell(column: str, text: str):
    if column in INT_COLUMNS:
        return int(text)
    if column in STR_COLUMNS:
        return text
    return float(text)


def _sketch(mat) -> list[float]:
    """Frobenius norm and four fixed bilinear forms u_k^dag A v_k of a matrix."""
    import numpy as np

    rng = np.random.default_rng(0)
    d = mat.shape[0]
    u = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
    v = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    forms = np.einsum("ki,ij,kj->k", u.conj(), mat, v)
    return [float(np.linalg.norm(mat))] + [float(x) for f in forms for x in (f.real, f.imag)]


def _build_model_op(model_seed: int) -> dict:
    import dlgibbs

    ham = dlgibbs.make_instance("random_ff_projectors", MODEL_N, model_seed)
    terms = dlgibbs.build_model(
        ham,
        dlgibbs.standard_couplings(MODEL_N, "x"),
        dlgibbs.WeightProfile(kind="davies_kms", beta=MODEL_BETA),
    )
    return {
        "terms": [
            {
                "support": list(t.support),
                "jumps": [_sketch(j.op) for j in t.jumps],
                "coherent": None if t.coherent is None else _sketch(t.coherent.op),
            }
            for t in terms
        ]
    }


# -- output check ------------------------------------------------------


def mismatches(ref, obs, path: str = "") -> list[str]:
    """Differences of obs from ref: ints, strings, None exactly, floats within
    ABS_TOL + REL_TOL * |ref|.  Keys obs has beyond ref are ignored."""
    if isinstance(ref, dict):
        if not isinstance(obs, dict):
            return [f"{path}: expected a mapping, got {obs!r}"]
        out = []
        for key, val in ref.items():
            if key not in obs:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(val, obs[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return [f"{path}: expected {len(ref)} entries, got {obs!r:.80}"]
        return [m for i, (r, o) in enumerate(zip(ref, obs)) for m in mismatches(r, o, f"{path}[{i}]")]
    if isinstance(ref, float):
        if isinstance(obs, bool) or not isinstance(obs, (int, float)):
            return [f"{path}: expected a number, got {obs!r}"]
        if math.isnan(ref) and math.isnan(obs):
            return []
        if not abs(obs - ref) <= ABS_TOL + REL_TOL * abs(ref):
            return [f"{path}: {obs!r} differs from reference {ref!r}"]
        return []
    if type(obs) is not type(ref) or obs != ref:
        return [f"{path}: {obs!r} differs from reference {ref!r}"]
    return []


def check(ref: dict, obs: dict) -> list[str]:
    """Reasons an operation's outputs are wrong; empty when they are right."""
    problems = []
    if obs.get("violations"):
        problems.append(f"violations recorded: {obs['violations']}")
    return problems + mismatches(ref, obs)


def load_reference(path: Path) -> dict:
    """reference.json, validated against the pools generated here."""
    ref = json.loads(path.read_text())
    for name in WORKLOADS:
        if ref["workloads"][name]["inputs"] != pool(name):
            raise SystemExit(f"error: {path.name} was recorded for other {name} inputs")
    return ref
