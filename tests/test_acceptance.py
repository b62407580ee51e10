"""Acceptance suite: thirteen end-to-end guarantees at their shipped tolerances.

Each test covers one acceptance item.  The test name states the guarantee and
the asserts carry the exact thresholds, so `pytest -v tests/test_acceptance.py`
reads as the acceptance report: one pass/fail line per item.
"""

from __future__ import annotations

import math
import time
import warnings
from pathlib import Path

import numpy as np

from dlgibbs.anneal import make_schedule, overlap, run_annealing
from dlgibbs.config import parse_config
from dlgibbs.errors import IrreducibilityWarning
from dlgibbs.hamiltonians import (
    PAULI_Z,
    LocalHamiltonian,
    LocalOperator,
    assemble,
    make_instance,
    standard_couplings,
)
from dlgibbs.harness import run_experiment
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, coherent_form
from dlgibbs.linalg import partial_trace, schatten1_distance, spectral_norm
from dlgibbs.parent import build_parent, purified_gibbs, verify_parent
from dlgibbs.projector import (
    approximate_projector,
    chebyshev_poly,
    dl_operator,
    planted_spectrum,
    singular_gap,
    speedup_slope,
)
from dlgibbs.sampler import (
    compose_dl_channel,
    contraction_check,
    iterate,
    superop_hamiltonian,
)
from reference import (
    db_residual,
    gibbs_state,
    ground_space,
    lindblad_superoperator,
    parent_matrix,
    spectral_report,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BETAS = (0.0, 0.5, 1.0)
FF_INSTANCES = [("commuting_projectors", 5, 0)] + [
    ("random_ff_projectors", n, seed) for n in (4, 5, 6) for seed in (0, 1, 2)
]


def _zoo() -> list[tuple[str, LocalHamiltonian]]:
    single_z = LocalHamiltonian(
        n=1, terms=(LocalOperator(PAULI_Z.astype(complex), (0,)),)
    )
    return [
        ("single_z", single_z),
        ("zz_chain_2", make_instance("zz_chain", 2)),
        ("zz_chain_3", make_instance("zz_chain", 3)),
        ("field_chain_3", make_instance("field_chain", 3)),
    ]


def _davies(ham: LocalHamiltonian, beta: float, kinds: str = "x"):
    w = WeightProfile(kind="davies_kms", beta=beta)
    terms = build_model(ham, standard_couplings(ham.n, kinds), w)
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    return terms, kms


def test_criterion_01_detailed_balance_and_stationarity_on_model_zoo():
    # Every Davies model in the zoo is detailed-balanced to 1e-8 and
    # annihilates its Gibbs state to 1e-9 in trace norm, within 10 seconds.
    start = time.monotonic()
    for name, ham in _zoo():
        for beta in BETAS:
            terms, kms = _davies(ham, beta)
            lind = lindblad_superoperator(terms, ham.n)
            res = db_residual(lind, kms)
            assert res <= 1e-8, f"{name} beta={beta}: db residual {res:.3e}"
            sigma_dot = lind.adjoint().apply(kms.sigma)
            stat = schatten1_distance(sigma_dot, np.zeros_like(sigma_dot))
            assert stat <= 1e-9, f"{name} beta={beta}: stationarity {stat:.3e}"
    assert time.monotonic() - start < 10.0


def test_criterion_02_mixing_distance_stays_within_contraction_bound():
    # ZZ chain n=3 at beta=0.5: from |000> and five seeded random states,
    # every trace distance up to k=200 respects
    # (gap/g^2 + 1)^(-k/2) / sqrt(sigma_min) + 1e-8.
    start = time.monotonic()
    ham = make_instance("zz_chain", 3)
    terms, kms = _davies(ham, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityWarning)
        channel = compose_dl_channel(terms, kms, ham)
        states = [np.zeros((8, 8), dtype=complex)]
        states[0][0, 0] = 1.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = a @ a.conj().T
            rho /= np.real(np.trace(rho))
            states.append(0.5 * (rho + rho.conj().T))
        for i, rho0 in enumerate(states):
            trace = iterate(channel, rho0, kms, k_max=200)
            g2 = max(trace.g, 1) ** 2
            bound = (trace.gap / g2 + 1.0) ** (-trace.ks / 2.0)
            bound = bound / np.sqrt(trace.sigma_min)
            worst = float((trace.trace_distances - bound).max())
            assert np.all(trace.trace_distances <= bound + 1e-8), (
                f"state {i}: distance exceeds bound by {worst:.3e}"
            )
            assert np.abs(trace.bounds - bound).max() < 1e-12
    assert time.monotonic() - start < 30.0


def test_criterion_03_one_round_contraction_on_centered_observables():
    # 100 seeded centered observables: ||Phi(X)||_sigma^2 (gap/g^2 + 1) never
    # exceeds ||X||_sigma^2 beyond 1e-8, and |Tr[sigma Phi(X)]| stays <= 1e-10.
    start = time.monotonic()
    ham = make_instance("zz_chain", 3)
    for kinds in ("x", "xz"):
        terms, kms = _davies(ham, 0.5, kinds)
        channel = compose_dl_channel(terms, kms, ham)
        report = contraction_check(channel, kms, trials=100, seed=0)
        assert report.max_ratio <= 1.0 + 1e-8, (
            f"couplings {kinds}: worst ratio {report.max_ratio:.12f}"
        )
        assert report.stationarity_residual <= 1e-10, (
            f"couplings {kinds}: stationarity {report.stationarity_residual:.3e}"
        )
        assert report.passed
    assert time.monotonic() - start < 30.0


def test_criterion_04_superop_hamiltonian_gap_dominates_generator_gap():
    # gap(H_L) >= gap(L) - 1e-8 on every zoo model at every beta.
    for name, ham in _zoo():
        for beta in BETAS:
            terms, kms = _davies(ham, beta)
            hl_rep = superop_hamiltonian(terms, kms, ham)
            l_rep = spectral_report(lindblad_superoperator(terms, ham.n), kms)
            assert hl_rep.gap >= l_rep.gap - 1e-8, (
                f"{name} beta={beta}: gap(H_L)={hl_rep.gap:.6e} below "
                f"gap(L)={l_rep.gap:.6e}"
            )


def test_criterion_05_dl_singular_values_top_block_and_certified_gap():
    # Top r singular values of the DL product equal 1 to 1e-10 and the next
    # obeys s_{r+1} <= 1/sqrt(gap/g^2 + 1) + 1e-9 on the frustration-free set.
    for kind, n, seed in FF_INSTANCES:
        ham = make_instance(kind, n, seed)
        dl = dl_operator(ham)
        sg = singular_gap(dl, ham)
        s = dl.svd.s
        top_err = float(np.abs(s[: sg.r] - 1.0).max())
        assert top_err <= 1e-10, f"{kind} n={n} seed={seed}: top block {top_err:.3e}"
        if sg.g == 0:
            cert = 0.0
        else:
            cert = 1.0 / math.sqrt(sg.gamma / sg.g**2 + 1.0)
        assert sg.s_next <= cert + 1e-9, (
            f"{kind} n={n} seed={seed}: s_(r+1)={sg.s_next:.6e} > {cert:.6e}"
        )


def test_criterion_06_truncated_svd_recovers_ground_projector():
    # U_1 V_1^dag from the top singular block matches the Hamiltonian ground
    # projector to 1e-9 on the frustration-free set.
    for kind, n, seed in FF_INSTANCES:
        ham = make_instance(kind, n, seed)
        dl = dl_operator(ham)
        gs = ground_space(ham)
        svd = dl.svd
        u1v1 = svd.u[:, : gs.dimension] @ svd.vh[: gs.dimension]
        err = spectral_norm(u1v1 - gs.projector)
        assert err <= 1e-9, f"{kind} n={n} seed={seed}: projector error {err:.3e}"


def test_criterion_07_chebyshev_projector_error_within_certified_bound():
    # For every degree 1..40 the polynomial projector error stays within
    # 2 exp(-ell sqrt(gamma*)) + 1e-9 at the certified gamma*.
    start = time.monotonic()
    for kind, n, seed in FF_INSTANCES:
        ham = make_instance(kind, n, seed)
        dl = dl_operator(ham)
        sg = singular_gap(dl, ham)
        for ell in range(1, 41):
            res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
            bound = 2.0 * math.exp(-ell * math.sqrt(sg.gamma_star))
            assert res.error <= bound + 1e-9, (
                f"{kind} n={n} seed={seed} ell={ell}: "
                f"error {res.error:.3e} over bound {bound:.3e}"
            )
    assert time.monotonic() - start < 60.0


def test_criterion_08_projector_degree_scales_as_inverse_sqrt_gap():
    # The minimal degree reaching error 1e-6, fitted against log(1/gamma*)
    # over planted gaps spanning [0.05, 0.5], has slope in [0.4, 0.6].
    instances = [
        planted_spectrum(g, seed=i) for i, g in enumerate([0.5, 0.25, 0.1, 0.05])
    ]
    slope = speedup_slope(instances, 1e-6)
    assert 0.4 <= slope <= 0.6, f"fitted degree exponent {slope:.4f}"


def test_criterion_09_parent_hamiltonian_certificates():
    # Per-term frustration <= 1e-9, parent spectrum matches the coherent form
    # to 1e-9, the purified ground state reduces to sigma_beta to 1e-10, and
    # commuting models keep every parent term local to 1e-9.
    for name, ham in _zoo():
        for beta in BETAS:
            terms, kms = _davies(ham, beta)
            ph = build_parent(terms, kms, ham, beta=beta)
            rep = verify_parent(ph)
            assert rep.max_frustration <= 1e-9, (
                f"{name} beta={beta}: frustration {rep.max_frustration:.3e}"
            )
            form = coherent_form(lindblad_superoperator(terms, ham.n), kms)
            w_parent = np.sort(np.linalg.eigvalsh(parent_matrix(ph)))
            w_form = np.sort(
                np.linalg.eigvalsh(0.5 * (form.mat + form.mat.conj().T))
            )
            spec_err = float(np.abs(w_parent - w_form).max())
            assert spec_err <= 1e-9, f"{name} beta={beta}: spectrum {spec_err:.3e}"
            psi = purified_gibbs(ham, beta)
            rho = partial_trace(
                np.outer(psi, psi.conj()),
                keep=list(range(ham.n)),
                dims=[2] * (2 * ham.n),
            )
            ptrace_err = float(np.abs(rho - kms.sigma).max())
            assert ptrace_err <= 1e-10, (
                f"{name} beta={beta}: reduced state {ptrace_err:.3e}"
            )
            assert rep.locality_checked and rep.locality_residuals is not None
            assert max(rep.locality_residuals) <= 1e-9, (
                f"{name} beta={beta}: locality {max(rep.locality_residuals):.3e}"
            )


def test_criterion_10_overlap_deficit_quadratic_in_step_size():
    # log-log fit of 1 - overlap^2 against dbeta in {0.2, 0.1, 0.05, 0.025}
    # on the ZZ chain n=3 at beta=0.5 has slope 2 +/- 0.2.
    ham = make_instance("zz_chain", 3)
    dbetas = np.array([0.2, 0.1, 0.05, 0.025])
    deficits = np.array([1.0 - overlap(ham, 0.5, db) ** 2 for db in dbetas])
    slope = float(np.polyfit(np.log(dbetas), np.log(deficits), 1)[0])
    assert 1.8 <= slope <= 2.2, f"overlap deficit slope {slope:.4f}"


def test_criterion_11_annealing_reaches_target_fidelity_and_success():
    # ZZ chain n=2 annealed to beta=1 with delta=0.05: exact projectors give
    # fidelity and success probability >= 0.95; the polynomial pipeline stays
    # within 1 - delta - 0.01.  Both runs finish inside two minutes.
    start = time.monotonic()
    ham = make_instance("zz_chain", 2)
    couplings = standard_couplings(2, "xz")
    w = WeightProfile(kind="davies_kms", beta=1.0)
    delta = 0.05
    sched = make_schedule(1.0, spectral_norm(assemble(ham)), alpha=2.0)
    exact = run_annealing(ham, couplings, w, sched, delta, "exact")
    assert exact.final_fidelity >= 0.95, f"exact fidelity {exact.final_fidelity:.4f}"
    assert exact.success_probability >= 0.95, (
        f"exact success {exact.success_probability:.4f}"
    )
    poly = run_annealing(ham, couplings, w, sched, delta, "dl_qsvt")
    assert poly.final_fidelity >= 1.0 - delta - 0.01, (
        f"polynomial fidelity {poly.final_fidelity:.4f}"
    )
    assert time.monotonic() - start < 120.0


def test_criterion_12_query_accounting_matches_closed_forms():
    # Mixing applies exactly k*M factors, the projector exactly ell*M, and a
    # K-step anneal exactly K*(ell*M + l), as reported by the counters.
    ham = make_instance("zz_chain", 3)
    terms, kms = _davies(ham, 0.5, "xz")
    channel = compose_dl_channel(terms, kms, ham)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    trace = iterate(channel, rho0, kms, k_max=25)
    assert np.array_equal(trace.channel_applications, trace.ks * channel.m)

    ff = make_instance("random_ff_projectors", 4, seed=1)
    dl = dl_operator(ff)
    sg = singular_gap(dl, ff)
    for ell in (1, 7, 23):
        res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
        assert res.queries == ell * dl.m

    ham2 = make_instance("zz_chain", 2)
    w = WeightProfile(kind="davies_kms", beta=1.0)
    sched = make_schedule(1.0, spectral_norm(assemble(ham2)), alpha=2.0)
    run = run_annealing(ham2, standard_couplings(2, "xz"), w, sched, 0.05, "dl_qsvt")
    assert run.tally.projector == sched.steps * run.projector_degree * run.m_terms
    assert run.tally.transition == sched.steps * run.budgets.degree
    assert run.tally.total == sched.steps * (
        run.projector_degree * run.m_terms + run.budgets.degree
    )


def test_criterion_13_reruns_produce_byte_identical_artifacts(tmp_path):
    # Running every shipped config twice with the same seed yields
    # byte-identical CSV and summary artifacts.
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) == 6, f"expected 6 shipped configs, found {len(paths)}"
    for cfg_path in paths:
        cfg = parse_config(cfg_path.read_text())
        out_a = tmp_path / (cfg.experiment + "_a")
        out_b = tmp_path / (cfg.experiment + "_b")
        out_a.mkdir()
        out_b.mkdir()
        res_a = run_experiment(cfg, out_dir=str(out_a))
        res_b = run_experiment(cfg, out_dir=str(out_b))
        assert res_a.exit_code == 0, f"{cfg_path.name}: {res_a.violations}"
        csv_a = Path(res_a.csv_path).read_bytes()
        csv_b = Path(res_b.csv_path).read_bytes()
        assert csv_a == csv_b, f"{cfg_path.name}: CSV differs between reruns"
        sum_a = Path(res_a.summary_path).read_bytes()
        sum_b = Path(res_b.summary_path).read_bytes()
        assert sum_a == sum_b, f"{cfg_path.name}: summary differs between reruns"
