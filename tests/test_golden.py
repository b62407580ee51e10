"""The shipped configs reproduce their recorded artifacts.

tests/golden holds the CSV and JSON summary of every configs/*.cfg,
tests/golden/n4 the configs and artifacts of two n = 4 runs (a zz_chain
mix and a dl_qsvt anneal) that reach the 4^n paths at a size the shipped
configs do not, and tests/golden/n5 those of a zz_chain mix at n = 5,
recorded on the whole-register channel and rerun on the local one.  Each
config is rerun and compared cell by cell: the header line, column names,
keys, integers, strings and lists must match exactly, and floats must agree
within 1e-12 + 1e-9 |ref|.  The float tolerance absorbs BLAS builds that
pick a different kernel (and so a different rounding) on another CPU; on
one machine the artifacts are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dlgibbs.config import parse_config
from dlgibbs.harness import run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = [
    pytest.param(p, GOLDEN, id=p.stem) for p in sorted((ROOT / "configs").glob("*.cfg"))
] + [
    pytest.param(p, GOLDEN / size, id=f"{size}-{p.stem}")
    for size in ("n4", "n5")
    for p in sorted((GOLDEN / size).glob("*.cfg"))
]


def _close(got: float, ref: float) -> bool:
    return got == ref or abs(got - ref) <= 1e-12 + 1e-9 * abs(ref)


def _number(text: str) -> int | float | None:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def _csv_cells_match(got: str, ref: str) -> bool:
    g, r = _number(got), _number(ref)
    if isinstance(g, int) and isinstance(r, int):
        return g == r
    if g is None or r is None:
        return got == ref
    # A float column may print an exact zero as "0".
    return _close(float(g), float(r))


def _compare_csv(got: str, ref: str) -> None:
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    assert got_lines[:2] == ref_lines[:2], "header or column names differ"
    assert len(got_lines) == len(ref_lines), "row count differs"
    for lineno, (g, r) in enumerate(zip(got_lines[2:], ref_lines[2:]), start=3):
        g_cells, r_cells = g.split(","), r.split(",")
        assert len(g_cells) == len(r_cells), f"line {lineno}: cell count differs"
        for col, (gc, rc) in enumerate(zip(g_cells, r_cells)):
            assert _csv_cells_match(gc, rc), f"line {lineno} col {col}: {gc} vs {rc}"


def _compare_json(got, ref, path: str = "$") -> None:
    if isinstance(ref, dict):
        assert isinstance(got, dict), path
        assert sorted(got) == sorted(ref), f"{path}: keys differ"
        for key in ref:
            _compare_json(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, float) and isinstance(got, float):
        assert _close(got, ref), f"{path}: {got!r} vs {ref!r}"
    else:
        assert type(got) is type(ref) and got == ref, f"{path}: {got!r} vs {ref!r}"


@pytest.mark.parametrize("cfg_path,golden", CONFIGS)
def test_shipped_config_reproduces_golden_artifacts(cfg_path, golden, tmp_path):
    cfg = parse_config(cfg_path.read_text())
    res = run_experiment(cfg, out_dir=tmp_path)
    _compare_csv(res.csv_path.read_text(), (golden / cfg.output.csv).read_text())
    _compare_json(
        json.loads(res.summary_path.read_text()),
        json.loads((golden / cfg.output.summary).read_text()),
    )

