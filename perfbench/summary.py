"""Run every workload once and print its end-to-end metrics as a table.

    python3 perfbench/summary.py [--seed 1]

Each workload runs in its own fresh process (perfbench/run.py --trace 0) for
the run_seconds that BENCHMARK.json sets.
fail_rate is failed / attempted operations, the complement of success_rate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"{'workload':14s} {'setup_s (s)':>12s} {'run_s (s)':>10s} {'peak_rss_mb (MB)':>17s} {'fail_rate':>10s}")
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"{name:14s} failed: {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        fail_rate = res["failed"] / res["attempted"]
        print(f"{name:14s} {m['setup_s']:12.4f} {m['run_s']:10.4f} {m['peak_rss_mb']:17.1f} {fail_rate:10.4f}")
        status |= res["failed"] > 0
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
