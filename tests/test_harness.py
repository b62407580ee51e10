from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlgibbs.cli import main
from dlgibbs.config import parse_config
from dlgibbs.errors import BadInputs, DlGibbsError
from dlgibbs.harness import resource_estimate, run_experiment

MIX_CFG = """
experiment = mix

[model]
kind = zz_chain
n = 3
couplings = x

[run]
beta = 0.5
k_max = 30
"""

ANNEAL_CFG = """
experiment = anneal

[model]
kind = zz_chain
n = 2
couplings = xz

[run]
beta = 1.0
delta = 0.05
"""


def _read_csv(path):
    lines = path.read_text().splitlines()
    header, columns = lines[0], lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, columns, rows


def test_mix_experiment_artifacts(tmp_path):
    cfg = parse_config(MIX_CFG)
    res = run_experiment(cfg, tmp_path)
    assert res.exit_code == 0
    assert res.violations == ()
    header, columns, rows = _read_csv(res.csv_path)
    assert header.startswith("# dlgibbs v0.1.0 config=")
    assert "experiment=mix" in header
    assert columns == ["k", "trace_distance", "bound", "channel_applications"]
    assert len(rows) == 31
    m = res.results["m_terms"]
    for row in rows:
        assert int(row[3]) == int(row[0]) * m
        assert float(row[1]) <= float(row[2]) + 1e-8
    summary = json.loads(res.summary_path.read_text())
    assert summary["schema_version"] == 1
    assert summary["experiment"] == "mix"
    assert summary["violations"] == []


def test_identical_config_gives_byte_identical_artifacts(tmp_path):
    cfg = parse_config(MIX_CFG)
    a = run_experiment(cfg, tmp_path / "a")
    b = run_experiment(cfg, tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.summary_path.read_bytes() == b.summary_path.read_bytes()


def test_seed_override_changes_instance(tmp_path):
    text = """
experiment = project

[model]
kind = random_ff_projectors
n = 4
seed = 7

[run]
eps = 1e-6
ell_max = 5
"""
    cfg = parse_config(text)
    base = run_experiment(cfg, tmp_path / "base")
    moved = run_experiment(cfg, tmp_path / "moved", seed=8)
    assert base.results["instance"] == "random_ff_projectors-n4-s7"
    assert moved.results["instance"] == "random_ff_projectors-n4-s8"
    assert base.results["gamma_star"] != moved.results["gamma_star"]
    assert base.exit_code == 0 and moved.exit_code == 0


def test_project_experiment_rows_respect_bound(tmp_path):
    text = """
experiment = project

[model]
kind = commuting_projectors
n = 5

[run]
eps = 1e-6
ell_min = 1
ell_max = 12
"""
    res = run_experiment(parse_config(text), tmp_path)
    assert res.exit_code == 0
    _, columns, rows = _read_csv(res.csv_path)
    assert columns == [
        "instance_id", "gamma", "g", "gamma_star", "ell", "error", "bound", "queries",
    ]
    from dlgibbs.hamiltonians import make_instance

    m = len(make_instance("commuting_projectors", 5).terms)
    for row in rows:
        assert float(row[5]) <= float(row[6]) + 1e-9
        assert int(row[7]) == int(row[4]) * m
    assert res.results["ell_for_eps"] >= 1


def test_parent_experiment(tmp_path):
    text = """
experiment = parent

[model]
kind = zz_chain
n = 3
couplings = x

[run]
beta = 0.5
"""
    res = run_experiment(parse_config(text), tmp_path)
    assert res.exit_code == 0
    assert res.results["max_frustration"] <= 1e-9
    assert res.results["locality_checked"] is True
    assert res.results["parent_degree"] >= 1


def test_anneal_experiment_summary(tmp_path):
    res = run_experiment(parse_config(ANNEAL_CFG), tmp_path)
    assert res.exit_code == 0
    summary = json.loads(res.summary_path.read_text())
    out = summary["results"]
    assert out["final_fidelity"] >= 0.95
    assert out["success_probability"] >= 0.95
    assert out["K"] == 2
    assert set(out["budgets"]) == {"epsilon", "mu", "boost_degree"}
    _, columns, rows = _read_csv(res.csv_path)
    assert columns == [
        "j", "beta_j", "overlap", "transition_error_bound", "cumulative_queries",
    ]
    assert len(rows) == out["K"]


def test_overlap_experiment_slope(tmp_path):
    text = """
experiment = overlap

[model]
kind = zz_chain
n = 3

[run]
beta = 0.5
dbetas = [0.2, 0.1, 0.05, 0.025]
"""
    res = run_experiment(parse_config(text), tmp_path)
    assert res.exit_code == 0
    assert 1.8 <= res.results["slope"] <= 2.2


def test_overlap_violation_sets_exit_code(tmp_path):
    text = """
experiment = overlap

[model]
kind = zz_chain
n = 2

[run]
beta = 0.0
dbetas = [16.0, 8.0]
"""
    cfg = parse_config(text)
    res = run_experiment(cfg, tmp_path)
    assert res.exit_code == 1
    assert any("slope" in v for v in res.violations)
    with pytest.raises(DlGibbsError):
        run_experiment(cfg, tmp_path, strict=True)


def test_estimate_formula_values(tmp_path):
    est = resource_estimate(
        m_terms=1, g=0.0, gap=1.0, sigma_min=0.5, eps=0.1,
        beta=0.0, norm_h=0.0, delta=0.1, c=1.0,
    )
    assert est.mixing_k == 0.0
    assert est.mixing_total == 0.0
    assert est.anneal_total == 0.0
    assert est.ancilla == 1
    assert est.anneal_steps == 1

    single = resource_estimate(
        m_terms=2, g=2.0, gap=0.5, sigma_min=0.01, eps=1e-3,
        beta=1.0, norm_h=2.0, delta=0.05, c=1.0,
    )
    want_k = (4.0 / 0.5) * math.log(1.0 / (0.01 * 1e-3))
    assert single.mixing_k == pytest.approx(want_k)
    assert single.mixing_prefactor == pytest.approx(2 * want_k)
    doubled = resource_estimate(
        m_terms=4, g=2.0, gap=0.5, sigma_min=0.01, eps=1e-3,
        beta=1.0, norm_h=2.0, delta=0.05, c=1.0,
    )
    assert doubled.mixing_prefactor == pytest.approx(2 * single.mixing_prefactor)
    assert doubled.anneal_prefactor == pytest.approx(2 * single.anneal_prefactor)
    assert doubled.ancilla == 3


def test_estimate_monotonicity_grid():
    base = dict(
        m_terms=2, g=2.0, gap=0.5, sigma_min=0.05, eps=1e-3,
        beta=1.0, norm_h=2.0, delta=0.05,
    )
    totals_m = [
        resource_estimate(**{**base, "m_terms": m}).mixing_total for m in (1, 2, 4, 8)
    ]
    assert all(a < b for a, b in zip(totals_m, totals_m[1:]))
    totals_gap = [
        resource_estimate(**{**base, "gap": gp}).mixing_total
        for gp in (1.0, 0.5, 0.25, 0.125)
    ]
    assert all(a < b for a, b in zip(totals_gap, totals_gap[1:]))
    totals_eps = [
        resource_estimate(**{**base, "eps": e}).mixing_total
        for e in (1e-1, 1e-2, 1e-4, 1e-8)
    ]
    assert all(a < b for a, b in zip(totals_eps, totals_eps[1:]))
    anneal_gap = [
        resource_estimate(**{**base, "gap": gp}).anneal_total
        for gp in (1.0, 0.5, 0.25)
    ]
    assert all(a < b for a, b in zip(anneal_gap, anneal_gap[1:]))


def test_estimate_rejects_bad_inputs():
    good = dict(
        m_terms=2, g=2.0, gap=0.5, sigma_min=0.05, eps=1e-3,
        beta=1.0, norm_h=2.0, delta=0.05,
    )
    for key, val in (
        ("m_terms", 0), ("gap", 0.0), ("sigma_min", 0.0), ("sigma_min", 1.5),
        ("eps", 0.0), ("eps", 1.0), ("delta", 0.0), ("g", -1.0), ("alpha", 1.0),
    ):
        with pytest.raises(BadInputs):
            resource_estimate(**{**good, key: val})


def test_estimate_experiment_artifact(tmp_path):
    text = """
experiment = estimate

[run]
m_terms = 3
g = 2.0
gap = 0.5
sigma_min = 0.01
eps = 1e-3
beta = 1.0
norm_h = 2.0
delta = 0.05
"""
    res = run_experiment(parse_config(text), tmp_path)
    assert res.exit_code == 0
    _, columns, rows = _read_csv(res.csv_path)
    assert columns == ["quantity", "value"]
    table = {row[0]: row[1] for row in rows}
    assert float(table["mixing_total"]) > 0
    assert int(table["ancilla"]) == 3


def test_cli_roundtrip(tmp_path):
    cfg_path = tmp_path / "mix.cfg"
    cfg_path.write_text(MIX_CFG)
    out = tmp_path / "out"
    assert main(["mix", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "mix.csv").exists()
    assert (out / "mix.json").exists()


def test_cli_subcommand_must_match_config(tmp_path, capsys):
    cfg_path = tmp_path / "mix.cfg"
    cfg_path.write_text(MIX_CFG)
    code = main(["anneal", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "declares experiment" in capsys.readouterr().err


def test_cli_reports_parse_errors(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("experiment = mix\nnonsense line\n")
    assert main(["mix", "--config", str(cfg_path)]) == 2
    assert "ParseError" in capsys.readouterr().err
    assert main(["mix", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_cli_violation_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "overlap.cfg"
    cfg_path.write_text(
        """
experiment = overlap

[model]
kind = zz_chain
n = 2

[run]
beta = 0.0
dbetas = [16.0, 8.0]
"""
    )
    code = main(["overlap", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "violation:" in captured.err
    code = main(
        ["overlap", "--config", str(cfg_path), "--out", str(tmp_path), "--strict"]
    )
    assert code == 2


FF_MIX_CFG = """
experiment = mix

[model]
kind = random_ff_projectors
n = {n}
seed = {seed}
couplings = x

[run]
beta = 0.5
k_max = 50
"""


def test_cli_mix_not_cptp_names_the_kernel_gap(tmp_path, capsys):
    # On this non-commuting model the first term's coherent form has
    # eigenvalues just above the kernel cut, so rounding tilts its kernel
    # basis by about eps * ||h_m|| / gap_m and the Choi check fails.  The
    # raise condition is unchanged; the message names gap_m and that ratio.
    cfg_path = tmp_path / "ff4.cfg"
    cfg_path.write_text(FF_MIX_CFG.format(n=4, seed=0))
    assert main(["mix", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "stationary channel for term 0 is not CPTP" in err
    assert "gap_m=" in err and "eps*||h_m||/gap_m=" in err
    cfg_path = tmp_path / "ff3.cfg"
    cfg_path.write_text(FF_MIX_CFG.format(n=3, seed=2))
    assert main(["mix", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "project.cfg"
    cfg_path.write_text(
        """
experiment = project

[model]
kind = random_ff_projectors
n = 4
seed = 7

[run]
eps = 1e-6
ell_max = 3
"""
    )
    out = tmp_path / "out"
    assert main(
        ["project", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]
    ) == 0
    rows = (out / "project.csv").read_text().splitlines()[2:]
    assert rows[0].startswith("random_ff_projectors-n4-s9,")


def test_cli_import_loads_no_scipy():
    # scipy.special is imported where the anneal boost polynomial needs it;
    # `import dlgibbs.cli` alone pays for numpy only.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import sys, dlgibbs.cli; "
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
