from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from dlgibbs.anneal import (
    Schedule,
    boost_coefficients,
    boost_degree,
    error_budget,
    make_schedule,
    overlap,
    run_annealing,
    transition,
    transition_backend,
)
from dlgibbs.errors import (
    BadAlpha,
    BadInputs,
    BadParams,
    IrreducibilityWarning,
    NotDetailedBalanced,
    OverflowDetected,
    OverlapTooSmall,
    RankAmbiguous,
    UnknownKind,
)
from dlgibbs.hamiltonians import (
    PAULI_X,
    PAULI_Z,
    LocalHamiltonian,
    LocalOperator,
    assemble,
    make_instance,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile
from dlgibbs.kms import LindbladTerm
from dlgibbs.linalg import spectral_norm
from dlgibbs.parent import purified_gibbs


def test_schedule_formula():
    sched = make_schedule(1.0, 3.0, alpha=2.0)
    assert sched.steps == 6
    assert np.abs(sched.betas - np.linspace(0.0, 1.0, 7)).max() < 1e-15


def test_schedule_beta_zero_is_degenerate():
    sched = make_schedule(0.0, 5.0, alpha=2.0)
    assert sched.steps == 1
    assert np.abs(sched.betas).max() == 0.0


def test_schedule_rejects_bad_alpha():
    with pytest.raises(BadAlpha):
        make_schedule(1.0, 3.0, alpha=1.0)
    with pytest.raises(BadAlpha):
        make_schedule(1.0, 3.0, alpha=0.5)


def test_schedule_validates_path():
    with pytest.raises(BadParams):
        Schedule(beta_final=1.0, steps=2, alpha=2.0, betas=np.array([0.1, 0.5, 1.0]))
    with pytest.raises(BadParams):
        Schedule(beta_final=1.0, steps=2, alpha=2.0, betas=np.array([0.0, 0.6, 0.5]))
    with pytest.raises(BadParams):
        Schedule(beta_final=1.0, steps=2, alpha=2.0, betas=np.array([0.0, 1.0]))


def test_overlap_trivial_and_closed_form():
    ham = LocalHamiltonian(1, (LocalOperator(PAULI_Z, (0,)),))
    assert overlap(ham, 0.3, 0.0) == 1.0
    got = overlap(ham, 0.0, 0.1)
    want = np.cosh(0.05) / np.sqrt(np.cosh(0.1))
    assert abs(got - want) < 1e-14
    with pytest.raises(BadParams):
        overlap(ham, 0.3, -0.1)


def test_overlap_quadratic_scaling():
    ham = make_instance("zz_chain", 3)
    dbs = np.array([0.2, 0.1, 0.05, 0.025])
    ys = np.array([1.0 - overlap(ham, 0.5, db) ** 2 for db in dbs])
    slope = np.polyfit(np.log(dbs), np.log(ys), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_schedule_overlap_floor_scales_with_alpha():
    ham = make_instance("zz_chain", 3)
    nh = spectral_norm(assemble(ham))
    deficits = {}
    for alpha in (2.0, 4.0):
        sched = make_schedule(1.0, nh, alpha)
        bs = [
            overlap(ham, sched.betas[j - 1], sched.betas[j] - sched.betas[j - 1])
            for j in range(1, sched.steps + 1)
        ]
        bmin = min(bs)
        assert 1.0 - bmin**2 <= 1.0 / alpha**2
        deficits[alpha] = 1.0 - bmin**2
    ratio = deficits[2.0] / deficits[4.0]
    assert 3.0 <= ratio <= 5.0


def test_error_budget_values():
    bud = error_budget(1, 1.0, 0.4)
    assert abs(bud.epsilon - 0.1) < 1e-15
    assert bud.degree == math.ceil(2.5 * math.log(4 / 0.4))
    want_mu = (0.4 / (16.0 * math.sqrt(3.0) * bud.degree)) ** 2
    assert abs(bud.mu - want_mu) < 1e-20
    assert abs(bud.projector_error - math.sqrt(want_mu)) < 1e-18


def test_error_budget_doubling_k_halves_epsilon():
    a = error_budget(3, 0.9, 0.2)
    b = error_budget(6, 0.9, 0.2)
    assert b.epsilon == a.epsilon / 2


def test_error_budget_satisfies_composition_bound():
    for k in (1, 2, 5, 17):
        for b in (0.3, 0.7, 0.99, 1.0):
            for delta in (0.4, 0.05, 0.003):
                bud = error_budget(k, b, delta)
                lhs = 4 * bud.degree * math.sqrt(3 * bud.mu) + bud.epsilon
                assert lhs <= delta / (2 * k) + 1e-15


def test_error_budget_rejects_bad_inputs():
    with pytest.raises(BadInputs):
        error_budget(0, 0.9, 0.1)
    with pytest.raises(BadInputs):
        error_budget(2, 0.0, 0.1)
    with pytest.raises(BadInputs):
        error_budget(2, 1.5, 0.1)
    with pytest.raises(BadInputs):
        error_budget(2, 0.9, 0.0)
    with pytest.raises(BadInputs):
        error_budget(2, 0.9, 1.0)


def test_boost_polynomial_contract():
    xs = np.linspace(-1.0, 1.0, 4001)
    for b in (0.2, 0.5, 0.9):
        for eps in (1e-2, 1e-4, 1e-6):
            degree = boost_degree(b, eps)
            coeffs = boost_coefficients(b, eps, degree)
            assert np.abs(coeffs[0::2]).max() == 0.0
            vals = chebyshev.chebval(xs, coeffs)
            assert np.abs(vals).max() <= 1.0 + 1e-12
            seg = vals[xs >= b]
            assert (1.0 - seg).max() <= eps


def test_boost_rejects_bad_inputs():
    with pytest.raises(BadInputs):
        boost_coefficients(0.0, 1e-3, 10)
    with pytest.raises(BadInputs):
        boost_coefficients(0.5, 0.0, 10)
    with pytest.raises(BadInputs):
        boost_coefficients(0.5, 1e-3, 0)
    with pytest.raises(BadInputs):
        boost_degree(1.2, 1e-3)


def test_transition_fixed_point():
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    oracle = transition_backend("oracle", b=1.0)
    assert spectral_norm(transition(p0, p0, oracle) - p0) < 1e-14
    poly = transition_backend("polynomial", b=1.0, epsilon=1e-8)
    assert spectral_norm(transition(p0, p0, poly) - p0) <= 1e-8


def test_transition_matches_rotated_closed_form():
    theta = np.pi / 6
    pa = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    vb = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    pb = np.outer(vb, vb.conj())
    want = np.outer(vb, np.array([1.0, 0.0]).conj())
    oracle = transition(pa, pb, transition_backend("oracle", b=0.8))
    assert spectral_norm(oracle - want) < 1e-14
    eps = 1e-6
    poly = transition(pa, pb, transition_backend("polynomial", b=0.8, epsilon=eps))
    assert spectral_norm(poly - want) <= eps


def test_transition_backends_agree_on_rank_one_inputs():
    rng = np.random.default_rng(11)
    eps = 1e-5
    for _ in range(5):
        va = rng.normal(size=6) + 1j * rng.normal(size=6)
        va /= np.linalg.norm(va)
        vb = va + 0.3 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        vb /= np.linalg.norm(vb)
        if abs(np.vdot(va, vb)) < 0.6:
            continue
        pa = np.outer(va, va.conj())
        pb = np.outer(vb, vb.conj())
        o1 = transition(pa, pb, transition_backend("oracle", b=0.5))
        o2 = transition(pa, pb, transition_backend("polynomial", b=0.5, epsilon=eps))
        assert spectral_norm(o1 - o2) <= eps + 1e-9


def test_transition_norm_is_bounded():
    rng = np.random.default_rng(3)
    va = rng.normal(size=5)
    va /= np.linalg.norm(va)
    vb = 0.8 * va + 0.6 * np.eye(5)[1]
    vb /= np.linalg.norm(vb)
    pa = np.outer(va, va)
    pb = np.outer(vb, vb)
    for kind, kw in (("oracle", {}), ("polynomial", {"epsilon": 1e-4})):
        o = transition(pa, pb, transition_backend(kind, b=0.4, **kw))
        assert spectral_norm(o) <= 1.0 + 1e-12


def test_transition_rejects_degenerate_inputs():
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    backend = transition_backend("oracle", b=0.9)
    with pytest.raises(OverlapTooSmall):
        transition(p0, p1, backend)
    ident = np.eye(2, dtype=complex)
    with pytest.raises(RankAmbiguous):
        transition(ident, ident, backend)
    with pytest.raises(UnknownKind):
        transition_backend("magic", b=0.9)
    with pytest.raises(BadParams):
        transition(p0, np.eye(3, dtype=complex), backend)


def _zz2_setup():
    ham = make_instance("zz_chain", 2)
    couplings = standard_couplings(2, "xz")
    w = WeightProfile(kind="davies_kms", beta=1.0)
    nh = spectral_norm(assemble(ham))
    return ham, couplings, w, nh


def test_run_annealing_exact_reaches_target():
    ham, couplings, w, nh = _zz2_setup()
    delta = 0.05
    sched = make_schedule(1.0, nh, alpha=2.0)
    run = run_annealing(ham, couplings, w, sched, delta, "exact")
    assert run.final_fidelity >= 1.0 - delta
    assert run.success_probability >= 1.0 - delta
    assert run.state_error <= delta / 2 + 1e-9
    assert run.success_probability >= (1.0 - delta / 2) ** 2 - 1e-9
    for rec in run.records:
        assert rec.transition_error <= rec.error_bound + 1e-9
        assert rec.error_bound == pytest.approx(delta / (2 * sched.steps))
    assert run.tally.total == 0
    assert run.projector_degree == 0


@pytest.mark.parametrize(
    "kind,n,kinds,beta", [("zz_chain", 3, "xz", 0.9), ("random_ff_projectors", 3, "xz", 0.5)]
)
def test_exact_anneal_closed_form_matches_the_svd_transitions(kind, n, kinds, beta):
    # The dense reference: each oracle transition from the SVD of the
    # rank-one product P_j P_{j-1}, and its error as a 2-norm.
    ham = make_instance(kind, n)
    h = assemble(ham)
    sched = make_schedule(beta, spectral_norm(h))
    run = run_annealing(
        ham, standard_couplings(n, kinds), WeightProfile(beta=beta), sched, 0.1, "exact"
    )
    targets = [purified_gibbs(ham, float(b)) for b in sched.betas]
    backend = transition_backend("oracle", run.min_overlap)
    state = targets[0]
    for j, rec in enumerate(run.records, start=1):
        a, b = targets[j - 1], targets[j]
        o_tilde = transition(np.outer(a, a.conj()), np.outer(b, b.conj()), backend)
        err = spectral_norm(o_tilde - np.outer(b, a.conj()))
        assert abs(rec.transition_error - err) <= 1e-12
        state = o_tilde @ state
    assert abs(run.success_probability - np.vdot(state, state).real) <= 1e-12
    assert abs(run.state_error - np.linalg.norm(state - targets[-1])) <= 1e-12
    assert np.abs(run.final_state - state / np.linalg.norm(state)).max() <= 1e-12


def test_run_annealing_dl_qsvt_reaches_target():
    ham, couplings, w, nh = _zz2_setup()
    delta = 0.05
    sched = make_schedule(1.0, nh, alpha=2.0)
    run = run_annealing(ham, couplings, w, sched, delta, "dl_qsvt")
    assert run.final_fidelity >= 1.0 - delta - 0.01
    assert run.success_probability >= (1.0 - delta / 2) ** 2 - 1e-9
    assert run.state_error <= delta / 2 + 1e-9
    for rec in run.records:
        assert rec.transition_error <= delta / (2 * sched.steps) + 1e-9
        assert rec.projector_error <= run.budgets.projector_error + 1e-9
    want = sched.steps * (run.projector_degree * run.m_terms + run.budgets.degree)
    assert run.tally.total == want
    assert run.tally.projector == sched.steps * run.projector_degree * run.m_terms
    assert run.tally.transition == sched.steps * run.budgets.degree


def test_run_annealing_beta_zero_returns_maximally_entangled():
    ham, couplings, w, _ = _zz2_setup()
    sched = make_schedule(0.0, 2.0)
    run = run_annealing(ham, couplings, w, sched, 0.05, "exact")
    me = np.zeros(16)
    me[[0, 5, 10, 15]] = 0.5
    assert abs(abs(np.vdot(run.final_state, me)) - 1.0) < 1e-12
    assert run.final_fidelity == pytest.approx(1.0)


def test_run_annealing_warns_on_reducible_generator():
    ham = make_instance("zz_chain", 2)
    couplings = standard_couplings(2, "x")
    w = WeightProfile(kind="davies_kms", beta=1.0)
    sched = make_schedule(0.5, 1.0, alpha=2.0)
    with pytest.warns(IrreducibilityWarning):
        run = run_annealing(ham, couplings, w, sched, 0.1, "exact")
    assert run.warnings
    assert run.final_fidelity >= 0.9


def test_run_annealing_rejects_generator_without_detailed_balance(monkeypatch):
    import dlgibbs.anneal as anneal

    ham, couplings, w, nh = _zz2_setup()
    sched = make_schedule(0.5, nh, alpha=2.0)
    for mode in ("exact", "dl_qsvt"):
        run = run_annealing(ham, couplings, w, sched, 0.1, mode)
        assert run.final_fidelity >= 0.9
    real_build_model = anneal.build_model

    def with_random_coherent_part(*args, **kwargs):
        # A Hamiltonian part i[G, X] with G not commuting with sigma breaks
        # detailed balance; at beta = 0 its coherent form is anti-Hermitian.
        terms = real_build_model(*args, **kwargs)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        t0 = terms[0]
        g = LocalOperator(0.5 * (a + a.conj().T), t0.jumps[0].support)
        return [LindbladTerm(t0.jumps, g, t0.support), *terms[1:]]

    monkeypatch.setattr(anneal, "build_model", with_random_coherent_part)
    for mode in ("exact", "dl_qsvt"):
        with pytest.raises(NotDetailedBalanced, match=r"term 0 .* beta = 0\.0"):
            run_annealing(ham, couplings, w, sched, 0.1, mode)


def test_run_annealing_validates_inputs():
    ham, couplings, w, nh = _zz2_setup()
    sched = make_schedule(0.5, nh, alpha=2.0)
    with pytest.raises(BadParams):
        run_annealing(ham, couplings, w, sched, 0.0, "exact")
    with pytest.raises(UnknownKind):
        run_annealing(ham, couplings, w, sched, 0.05, "qsvt")
    hot = make_schedule(50.0, nh, alpha=2.0)
    with pytest.raises(OverflowDetected):
        run_annealing(ham, couplings, w, hot, 0.05, "exact")


def test_run_annealing_dl_qsvt_requires_commuting_terms():
    ham = LocalHamiltonian(
        2,
        (
            LocalOperator(0.5 * (np.eye(2) - PAULI_X), (0,)),
            LocalOperator(np.kron(PAULI_Z, PAULI_Z) * 0.5 + 0.5 * np.eye(4), (0, 1)),
        ),
    )
    couplings = standard_couplings(2, "xz")
    w = WeightProfile(kind="davies_kms", beta=1.0)
    sched = make_schedule(0.4, 2.0, alpha=2.0)
    with pytest.raises(BadParams):
        run_annealing(ham, couplings, w, sched, 0.1, "dl_qsvt")


def test_run_annealing_dl_qsvt_three_sites():
    ham = make_instance("zz_chain", 3)
    couplings = standard_couplings(3, "xz")
    w = WeightProfile(kind="davies_kms", beta=1.0)
    nh = spectral_norm(assemble(ham))
    delta = 0.1
    sched = make_schedule(0.5, nh, alpha=2.0)
    run = run_annealing(ham, couplings, w, sched, delta, "dl_qsvt")
    assert run.final_fidelity >= 1.0 - delta - 0.01
    assert run.success_probability >= 1.0 - delta
    assert run.tally.total == sched.steps * (
        run.projector_degree * run.m_terms + run.budgets.degree
    )
