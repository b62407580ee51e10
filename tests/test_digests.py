"""bench/digests.py, the one command behind "every artifact is byte-identical".

It runs a config through the CLI in a fresh process and prints the SHA-256
of each artifact; on configs/estimate.cfg that takes a fraction of a second.
"""

from __future__ import annotations

import ast
import hashlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "digests.py"


def test_digests_hash_each_artifact_of_a_config(tmp_path):
    cfg = ROOT / "configs" / "estimate.cfg"
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(cfg)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert [line.split("  ")[1] for line in out] == [
        "configs/estimate.cfg:estimate.csv",
        "configs/estimate.cfg:estimate.json",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in out)
    # The hashes are of the files the CLI writes for that config.
    from dlgibbs.config import parse_config
    from dlgibbs.harness import run_experiment

    res = run_experiment(parse_config(cfg.read_text()), out_dir=tmp_path)
    want = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (res.csv_path, res.summary_path)]
    assert [line.split("  ")[0] for line in out] == want


def test_digests_use_the_standard_library_only():
    tree = ast.parse(SCRIPT.read_text())
    names = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import)
             for a in n.names}
    names |= {n.module.split(".")[0] for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) and n.level == 0}
    assert names - {"__future__"} <= set(sys.stdlib_module_names)
