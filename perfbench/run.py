"""dlgibbs benchmark: one workload, one fresh process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mix-chain4 --seed 1 --seconds 12 --trace 0

--trace 0 measures the end-to-end metrics (setup_s, run_s, peak_rss_mb,
success_rate) with tracing off.  --trace 1 measures the per-layer metrics:
it alternates untraced and traced operations and reports, per traced
operation, the busy time, self time and call count of each layer, plus the
tracing overhead (spans per operation times the cost of one span, measured
in this process).  Every operation's outputs are checked against
reference.json.  Informational lines (the environment record, per-operation
times) come first; the last line of standard output is the result object.
The result, together with the environment record, is also written to
.perfbench/result-<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import environment
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# At least two samples per run; in a traced run, one untraced and one traced.
MIN_STEPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(name: str, inp: dict) -> list[float]:
    """Wall time of fresh processes that import dlgibbs and validate the input."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, json.dumps(inp)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
    return times


class Session:
    """Takes pool inputs in seed order, runs and checks each operation."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        ref = workloads.load_reference(HERE / "reference.json")["workloads"][name]
        self.inputs, self.outputs = ref["inputs"], ref["outputs"]
        self.queue = workloads.order(name, seed)
        self.ops = workloads.Operations(name, work_dir)
        self.attempted = 0
        self.failed = 0

    def exhausted(self) -> bool:
        return not self.queue

    def next_input(self) -> dict:
        return self.inputs[self.queue[0]]

    def op(self, call=None) -> float:
        """Run the next operation through call(fn, *args); return its wall time.

        The timed region covers the operation and the check of its outputs.
        """
        idx = self.queue.pop(0)
        args = self.ops.prepare(self.attempted, self.inputs[idx])
        call = call or (lambda fn, *a: fn(*a))
        self.attempted += 1
        start = time.perf_counter()
        try:
            problems = call(self._checked, idx, *args)
        except Exception as exc:  # any raise fails the operation; the run goes on
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        if problems:
            self.failed += 1
            print(f"FAILED {self.name} input {idx}: {'; '.join(problems)[:2000]}", file=sys.stderr)
        return wall

    def _checked(self, idx: int, *args) -> list[str]:
        return workloads.check(self.outputs[idx], self.ops.run(*args))


def timed_loop(session: Session, seconds: float, step) -> None:
    """Call step() MIN_STEPS times, then while the next call is expected to end
    within `seconds` (judged by the median step so far) and inputs remain."""
    start = time.perf_counter()
    durations = []
    while not session.exhausted():
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_STEPS and elapsed + statistics.median(durations) > seconds:
            break


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(session: Session, seconds: float, setup_times: list[float]) -> dict:
    walls: list[float] = []
    timed_loop(session, seconds, lambda: walls.append(session.op()))
    print(f"info: run_s samples {json.dumps([round(w, 4) for w in walls])}")
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "run_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": metric(1.0 - session.failed / session.attempted, "ratio"),
    }


def run_traced(session: Session, seconds: float, spans_path: Path, layer_metrics: dict[str, str]) -> dict:
    from spans import Tracer, span_cost

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []

    def traced_op() -> float:
        op_id = len(traced)  # the traced wall times and span op ids share indices
        tracer.install()
        try:
            return session.op(lambda fn, *a: tracer.run_op(op_id, fn, *a))
        finally:
            tracer.uninstall()

    def step() -> None:
        if len(plain) <= len(traced):
            plain.append(session.op())
        else:
            traced.append(traced_op())

    timed_loop(session, seconds, step)
    tracer.dump(spans_path)
    print(f"info: untraced samples {json.dumps([round(w, 4) for w in plain])}")
    print(f"info: traced samples {json.dumps([round(w, 4) for w in traced])}; spans in {spans_path}")

    per_op = [tracer.op_totals(op_id) for op_id in range(len(traced))]
    values = {
        key: sum(t.get(key, 0.0) for t in per_op) / len(per_op)
        for key in {k for t in per_op for k in t}
    }
    spans_per_op = len(tracer.spans) / len(traced)
    cost = span_cost()
    values["trace.run_s"] = statistics.median(traced)
    values["trace.overhead_s"] = spans_per_op * cost
    print(f"info: {spans_per_op:.0f} spans per traced op at {cost * 1e6:.3f} us each; "
          f"traced minus untraced median {values['trace.run_s'] - statistics.median(plain):+.4f} s "
          f"(different inputs, so mostly machine noise)")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in layer_metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    environment.pin_threads()
    environment.use_source_tree()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((environment.ROOT / "BENCHMARK.json").read_text())
    layer_metrics = {m["name"]: m["unit"] for m in spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    env = environment.record()
    print("info: environment " + json.dumps(env, sort_keys=True))
    print(f"info: workload {args.workload}: {why[args.workload]}")

    out_dir = environment.ROOT / ".perfbench"
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    session = Session(args.workload, args.seed, work_dir)
    try:
        setup_times = [] if args.trace else measure_setup(args.workload, session.next_input())
        session.op()  # warm-up: not a sample, but checked
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            metrics = run_traced(session, args.seconds, spans_path, layer_metrics)
        else:
            print(f"info: setup_s samples {json.dumps([round(t, 4) for t in setup_times])}")
            metrics = run_untraced(session, args.seconds, setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"info: fail_rate {session.failed}/{session.attempted} = {session.failed / session.attempted:.4f} (ratio)")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"environment": env, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
