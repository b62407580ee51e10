"""Self-tests of the benchmark itself (not of dlgibbs).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

They check that the output check rejects perturbed results, that inputs
follow from the seed, that per-layer self times add up to an operation's
wall time within the tracing overhead, and that the benchmark refuses to run
without the sources.  Runs in about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment

if "numpy" not in sys.modules:
    environment.pin_threads()
environment.use_source_tree()

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, span_cost  # noqa: E402

HERE = Path(__file__).resolve().parent
SCRATCH = environment.ROOT / ".perfbench" / "selftest"


def _reference() -> dict:
    return workloads.load_reference(HERE / "reference.json")["workloads"]


def _first_float_path(obj, path=()):
    if isinstance(obj, float) and abs(obj) >= 1e-3:
        return path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        found = _first_float_path(val, path + (key,))
        if found is not None:
            return found
    return None


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def test_check_accepts_reference_and_rejects_perturbations():
    for name, ref in _reference().items():
        good = ref["outputs"][0]
        assert workloads.check(good, copy.deepcopy(good)) == [], name
        path = _first_float_path(good)
        value = good
        for key in path:
            value = value[key]
        bad = copy.deepcopy(good)
        _set(bad, path, value * (1 + 1e-4))
        assert workloads.check(good, bad), f"{name}: float perturbation accepted"
        if name == "model-ff6":
            bad = copy.deepcopy(good)
            bad["terms"][0]["support"][0] += 1
            assert workloads.check(good, bad), "support change accepted"
            bad = copy.deepcopy(good)
            bad["terms"].pop()
            assert workloads.check(good, bad), "missing term accepted"
            continue
        for key in ("g", "K", "kernel_dim", "rank", "projector_degree", "channel_applications"):
            if key in good["results"]:
                bad = copy.deepcopy(good)
                bad["results"][key] += 1
                assert workloads.check(good, bad), f"{name}: {key} + 1 accepted"
                bad["results"][key] = float(good["results"][key])
                assert workloads.check(good, bad), f"{name}: int {key} as float accepted"
        bad = copy.deepcopy(good)
        bad["rows"].pop()
        assert workloads.check(good, bad), f"{name}: missing row accepted"
        bad = copy.deepcopy(good)
        bad["violations"] = ["bound exceeded"]
        assert workloads.check(good, bad), f"{name}: violation accepted"


def test_check_rejects_perturbed_live_result():
    name = "project-ff8"
    ref = _reference()[name]
    ops = workloads.Operations(name, SCRATCH / "live")
    obs = ops.run(*ops.prepare(0, ref["inputs"][0]))
    assert workloads.check(ref["outputs"][0], obs) == []
    obs["rows"][-1][5] *= 1.001  # error column at the largest degree
    assert workloads.check(ref["outputs"][0], obs)
    obs = ops.run(*ops.prepare(1, ref["inputs"][1]))
    assert workloads.check(ref["outputs"][0], obs), "another input's outputs accepted"


def test_inputs_follow_the_seed():
    for name, size in workloads.WORKLOADS.items():
        inputs = workloads.pool(name)
        assert len({json.dumps(i) for i in inputs}) == size, f"{name}: repeated input"
        assert workloads.order(name, 7) == workloads.order(name, 7)
        assert workloads.order(name, 7) != workloads.order(name, 8)
        assert sorted(workloads.order(name, 7)) == list(range(size))
    assert all(0.4 <= i["beta"] <= 0.6 for i in workloads.pool("mix-chain4"))
    assert all(5 / 6 < i["beta"] <= 1.0 for i in workloads.pool("anneal-qsvt4"))


def test_self_times_of_nested_spans():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "inner")

    def outer():
        time.sleep(0.02)
        inner()
        inner()

    tracer.run_op(0, tracer.wrap(outer, "outer"))
    totals = tracer.op_totals(0)
    assert totals["inner.calls"] == 2 and totals["outer.calls"] == 1
    assert abs(totals["outer.self_s"] - 0.02) < 0.005
    assert abs(totals["inner.s"] - 0.02) < 0.005
    assert abs(totals["op.s"] - sum(v for k, v in totals.items() if k.endswith(".self_s"))) < 1e-9


def test_self_times_sum_to_wall_time_within_overhead():
    """One project-ff8 input, timed untraced and traced in alternation.

    Outside a timed run the same input may repeat, so the pairs differ only
    by the tracer.  The self times of a traced operation must sum to the
    untraced wall time of the same input, give or take the tracing overhead
    (spans times the calibrated cost of one span) and 25 %: single pairs on
    a shared 2-vCPU VM differed by up to 25 % either way, and the median of
    five pairs by up to 11 %.
    """
    name = "project-ff8"
    pairs = 5
    session = run.Session(name, seed=0, work_dir=SCRATCH / "trace")
    session.queue = [0] * (2 * pairs + 1)
    session.op()  # warm-up
    import dlgibbs.hamiltonians
    import dlgibbs.sampler
    import numpy as np

    svd = np.linalg.svd
    tracer = Tracer()
    untraced, self_sums = [], []
    for op_id in range(pairs):
        untraced.append(session.op())
        tracer.install()
        try:
            traced = session.op(lambda fn, *a: tracer.run_op(op_id, fn, *a))
        finally:
            tracer.uninstall()
        totals = tracer.op_totals(op_id)
        self_sums.append(sum(v for k, v in totals.items() if k.endswith(".self_s")))
        assert 0 <= traced - self_sums[-1] < 0.005, (traced, self_sums[-1])
    assert session.failed == 0
    assert dlgibbs.sampler.noncommutation_degree is dlgibbs.hamiltonians.noncommutation_degree
    assert np.linalg.svd is svd, "numpy.linalg left patched"
    assert totals["projector.dl_operator.calls"] == 1
    assert totals["linalg.decomp.calls"] > 0

    overhead = len(tracer.spans) / pairs * span_cost()
    plain = statistics.median(untraced)
    assert overhead < 0.05 * plain, (overhead, plain)
    rel = statistics.median((t - u) / u for t, u in zip(self_sums, untraced))
    assert abs(rel) <= overhead / plain + 0.25, (self_sums, untraced, overhead)


def test_span_cost_is_positive_and_small():
    cost = span_cost()
    assert 0 < cost < 1e-4, cost


def test_refuses_to_run_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(environment.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix-chain4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for test_name, fn in list(globals().items()):
        if test_name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test_name}: {exc}")
            else:
                print(f"ok   {test_name}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    sys.exit(1 if failed else 0)
