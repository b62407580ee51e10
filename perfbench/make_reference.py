"""Record reference outputs for every pool input of every workload.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json.  Run it only at a commit whose outputs are
trusted: run.py fails every operation whose outputs differ from this file.
Each input must exit 0 with no violations and keep its workload's cost
shape (mix: g = 2 and kernel_dim = 1; anneal: K = 6); the script stops
otherwise.  Floats are stored to 12 significant digits, far inside the
check's relative tolerance.  Inputs are recorded in parallel, one worker
process per available CPU.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor

import environment
import workloads

SHAPE = {
    "mix-chain4": {"g": 2, "kernel_dim": 1},
    "anneal-qsvt4": {"K": 6},
}


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


WORK_DIR = environment.ROOT / ".perfbench" / "reference-work"


def record_one(name: str, index: int) -> dict:
    ops = workloads.Operations(name, WORK_DIR / name)
    inp = workloads.pool(name)[index]
    obs = ops.run(*ops.prepare(index, inp))
    if obs.get("violations"):
        raise RuntimeError(f"{name} input {inp}: violations {obs['violations']}")
    for key, want in SHAPE.get(name, {}).items():
        if obs["results"][key] != want:
            raise RuntimeError(f"{name} input {inp}: {key} = {obs['results'][key]}, want {want}")
    return _rounded(obs)


def main() -> int:
    environment.pin_threads()
    environment.use_source_tree()
    env = environment.record()
    out = {
        "git_commit": env["git_commit"],
        "src_sha256": env["src_sha256"],
        "recorded_with": {k: env[k] for k in ("python", "numpy", "scipy", "blas", "machine")},
        "rel_tol": workloads.REL_TOL,
        "abs_tol": workloads.ABS_TOL,
        "workloads": {},
    }
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=environment.nproc(), mp_context=ctx) as pool:
        for name, size in workloads.WORKLOADS.items():
            futures = [pool.submit(record_one, name, i) for i in range(size)]
            out["workloads"][name] = {
                "inputs": workloads.pool(name),
                "outputs": [f.result() for f in futures],
            }
            print(f"{name}: {size} inputs recorded", file=sys.stderr)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    (environment.ROOT / "perfbench" / "reference.json").write_text(dump(out))
    return 0


def dump(ref: dict) -> str:
    """reference.json text: one line per pool input, so a diff shows which changed."""
    compact = {"separators": (",", ":")}
    head = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in ref.items() if k != "workloads")
    blocks = []
    for name, rec in ref["workloads"].items():
        inputs = json.dumps(rec["inputs"], **compact)
        outputs = ",\n".join(json.dumps(o, **compact) for o in rec["outputs"])
        blocks.append(f'{json.dumps(name)}: {{"inputs": {inputs}, "outputs": [\n{outputs}\n]}}')
    return "{" + head + ',\n"workloads": {\n' + ",\n".join(blocks) + "\n}}\n"


if __name__ == "__main__":
    sys.exit(main())
