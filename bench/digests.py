"""Print the SHA-256 of every artifact the shipped and golden configs write.

Usage, from the root of a checkout:

    python3 bench/digests.py                     # every config below
    python3 bench/digests.py configs/mix.cfg     # only the configs named
    python3 bench/digests.py --root ../other     # another checkout's code and configs

The configs are every configs/*.cfg and every tests/golden/n4 and n5
config.  Each runs through `python -m dlgibbs.cli` on the checkout's src/,
in a fresh process with one BLAS thread, into an empty directory, and every
file it writes is hashed: one line `<sha256>  <config>:<artifact>` each,
sorted by config and artifact.  Two checkouts write byte-identical
artifacts exactly when the outputs of

    python3 bench/digests.py --root A > a.txt
    python3 bench/digests.py --root B > b.txt

have an empty diff.  A config that exits 2 (a refused run) prints
`error  <config>: <message>` in place of its artifacts and makes the script
exit 1 once every config has run.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# One BLAS thread, so a dot product sums in one fixed order.
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_configs(root: Path) -> list[Path]:
    configs = sorted((root / "configs").glob("*.cfg"))
    for size in ("n4", "n5"):
        configs += sorted((root / "tests" / "golden" / size).glob("*.cfg"))
    return configs


def experiment_of(cfg: Path) -> str:
    """The experiment a config declares, read off its `experiment = ...` line."""
    match = re.search(r"^\s*experiment\s*=\s*(\w+)", cfg.read_text(), re.MULTILINE)
    if match is None:
        raise SystemExit(f"error: {cfg} declares no experiment")
    return match.group(1)


def digests(root: Path, cfg: Path) -> tuple[list[str], str | None]:
    """(one line per artifact, or the error of a refused run) of one config."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{name: "1" for name in THREADS})
    label = cfg.relative_to(root) if cfg.is_relative_to(root) else cfg
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "dlgibbs.cli", experiment_of(cfg), "--config", str(cfg),
               "--out", out]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode == 2:
            return [], f"error  {label}: {proc.stderr.strip()}"
        lines = [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}:{path.name}"
            for path in sorted(Path(out).iterdir())
        ]
    return lines, None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("configs", nargs="*", type=Path, help="configs to run (default: all)")
    p.add_argument("--root", type=Path, default=HERE, help="checkout whose src/ runs")
    args = p.parse_args(argv)
    root = args.root.resolve()
    configs = [c.resolve() for c in args.configs] or default_configs(root)
    lines, failed = [], False
    for cfg in configs:
        found, error = digests(root, cfg)
        lines += found if error is None else [error]
        failed |= error is not None
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
