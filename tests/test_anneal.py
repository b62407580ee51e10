from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import dlgibbs.anneal
import dlgibbs.parent
import dlgibbs.projector
from scipy.special import erfcinv, ive

from dlgibbs.anneal import (
    C_BOOST,
    Schedule,
    _erfcinv,
    _scaled_bessel_i,
    boost_coefficients,
    boost_degree,
    error_budget,
    make_schedule,
    overlap,
    run_annealing,
    transition,
)
from dlgibbs.errors import (
    BadAlpha,
    BadInputs,
    BadParams,
    DegenerateGap,
    DlGibbsError,
    FrustrationDetected,
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
    Sectors,
    assemble,
    make_instance,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile
from dlgibbs.kms import LindbladTerm
from dlgibbs.linalg import Svd, spectral_norm
from dlgibbs.parent import purified_gibbs
from dlgibbs.projector import ProjectorResult, dl_operator
import reference
from reference import (
    dense_dl,
    dense_projector,
    dense_transition,
    whole_terms,
    scipy_boost_coefficients,
    stepwise_dl_qsvt_anneal,
)


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
        Schedule(beta_final=1.0, steps=2, betas=np.array([0.1, 0.5, 1.0]))
    with pytest.raises(BadParams):
        Schedule(beta_final=1.0, steps=2, betas=np.array([0.0, 0.6, 0.5]))
    with pytest.raises(BadParams):
        Schedule(beta_final=1.0, steps=2, betas=np.array([0.0, 1.0]))


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


@pytest.mark.parametrize("k_steps", [1, 2, 6, 17])
def test_error_budget_degree_is_the_boost_degree(k_steps):
    # The budget's degree is boost_degree at its own eps = delta / (4K), and
    # that equals the closed form ceil(C_BOOST ln(4K / delta) / b) on a grid.
    for b in (0.3, 0.7, 0.99, 1.0):
        for delta in (0.4, 0.05, 0.003):
            bud = error_budget(k_steps, b, delta)
            assert bud.degree == boost_degree(b, bud.epsilon)
            closed = max(1, math.ceil(C_BOOST * math.log(4.0 * k_steps / delta) / b))
            assert bud.degree == closed


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


# b over [0.02, 1] and epsilon over [1e-12, 1e-1], at half, all and one past
# the default degree: z = erfcinv(epsilon/2)^2 / (2 b^2) runs from 0.96 to
# about 3e4, and the degree up to 3455.
_BOOST_GRID = [
    (b, eps, degree)
    for b in (0.02, 0.07, 0.25, 0.6, 1.0)
    for eps in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1)
    for l in (boost_degree(b, eps),)
    for degree in sorted({max(1, l // 2), l, l + 1})
]


def test_boost_coefficients_match_the_scipy_reference():
    # Every coefficient within 1e-15 of the prefactor 2k/sqrt(pi), which
    # bounds the series' coefficients.
    for b, eps, degree in _BOOST_GRID:
        got = boost_coefficients(b, eps, degree)
        want = scipy_boost_coefficients(b, eps, degree)
        pref = 2.0 * float(erfcinv(eps / 2.0)) / b / math.sqrt(math.pi)
        assert got.shape == want.shape and np.abs(got[0::2]).max() == 0.0
        err = float(np.abs(got - want).max())
        assert err <= 1e-15 * pref, (b, eps, degree, err / pref)


def test_erfcinv_matches_scipy_within_four_ulp():
    for y in np.geomspace(5e-13, 0.05, 400):
        want = float(erfcinv(y))
        assert abs(_erfcinv(float(y)) - want) <= 4 * np.spacing(want), y


def test_scaled_bessel_values_match_scipy():
    # Every e^{-z} I_j(z) up to jmax agrees in absolute terms, from z near 0
    # to the largest z of the boost grid, where the exponent of
    # e^{z (cos t - 1)} must keep its relative accuracy near t = 0.
    for z in (1e-3, 0.96, 12.5, 400.0, 3.0e4):
        jmax = 40 + int(5 * math.sqrt(z))
        got = _scaled_bessel_i(jmax, z)
        want = ive(np.arange(jmax + 1), z)
        assert np.abs(got - want).max() <= 1e-16 + 1e-15 * want[0], z


def _boost(b, eps):
    """The boost coefficients at the default degree, as run_annealing builds them."""
    return boost_coefficients(b, eps, boost_degree(b, eps))


def test_transition_fixed_point():
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert spectral_norm(dense_transition(p0, p0, 1.0) - p0) < 1e-14
    poly = _boost(1.0, 1e-8)
    assert spectral_norm(dense_transition(p0, p0, 1.0, poly) - p0) <= 1e-8


def test_transition_matches_rotated_closed_form():
    theta = np.pi / 6
    pa = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    vb = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    pb = np.outer(vb, vb.conj())
    want = np.outer(vb, np.array([1.0, 0.0]).conj())
    oracle = dense_transition(pa, pb, 0.8)
    assert spectral_norm(oracle - want) < 1e-14
    eps = 1e-6
    poly = dense_transition(pa, pb, 0.8, _boost(0.8, eps))
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
        o1 = dense_transition(pa, pb, 0.5)
        o2 = dense_transition(pa, pb, 0.5, _boost(0.5, eps))
        assert spectral_norm(o1 - o2) <= eps + 1e-9


def test_transition_norm_is_bounded():
    rng = np.random.default_rng(3)
    va = rng.normal(size=5)
    va /= np.linalg.norm(va)
    vb = 0.8 * va + 0.6 * np.eye(5)[1]
    vb /= np.linalg.norm(vb)
    pa = np.outer(va, va)
    pb = np.outer(vb, vb)
    for coefficients in (None, _boost(0.4, 1e-4)):
        o = dense_transition(pa, pb, 0.4, coefficients)
        assert spectral_norm(o) <= 1.0 + 1e-12


def test_transition_rejects_degenerate_inputs():
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(OverlapTooSmall):
        dense_transition(p0, p1, 0.9)
    ident = np.eye(2, dtype=complex)
    with pytest.raises(RankAmbiguous):
        dense_transition(ident, ident, 0.9)
    with pytest.raises(BadParams):
        dense_transition(p0, np.eye(3, dtype=complex), 0.9)


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
    state = targets[0]
    for j, rec in enumerate(run.records, start=1):
        a, b = targets[j - 1], targets[j]
        o_tilde = dense_transition(np.outer(a, a.conj()), np.outer(b, b.conj()), run.min_overlap)
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
    with pytest.warns(IrreducibilityWarning, match="fixed-point dimension"):
        run = run_annealing(ham, couplings, w, sched, 0.1, "exact")
    assert run.final_fidelity >= 0.9


def test_run_annealing_rejects_generator_without_detailed_balance(monkeypatch):
    import dlgibbs.anneal as anneal

    ham, couplings, w, nh = _zz2_setup()
    sched = make_schedule(0.5, nh, alpha=2.0)
    for mode in ("exact", "dl_qsvt"):
        run = run_annealing(ham, couplings, w, sched, 0.1, mode)
        assert run.final_fidelity >= 0.9
    real_model_terms = anneal.model_terms

    def with_random_coherent_part(*args, **kwargs):
        # A Hamiltonian part i[G, X] with G not commuting with sigma breaks
        # detailed balance; at beta = 0 its coherent form is anti-Hermitian.
        # The terms are stacks, one matrix per temperature, and G is the
        # same at every one.
        terms = list(real_model_terms(*args, **kwargs))
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        t0 = terms[0]
        stack = np.broadcast_to(0.5 * (a + a.conj().T), t0.jumps[0].op.shape).copy()
        g = LocalOperator(stack, t0.jumps[0].support)
        return [LindbladTerm(t0.jumps, g, t0.support), *terms[1:]]

    monkeypatch.setattr(anneal, "model_terms", with_random_coherent_part)
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


def _frustrated(pin):
    """pin with its first term shifted by 1e-3 I: ground energy 1e-3, not 0."""
    blocks, eig = pin.blocks[0], pin.eigs[0]
    shifted = blocks + 1e-3 * np.eye(blocks.shape[-1])
    eig = replace(eig, eigenvalues=eig.eigenvalues + 1e-3)
    return replace(pin, blocks=(shifted,) + pin.blocks[1:], eigs=(eig,) + pin.eigs[1:])


@pytest.mark.parametrize("check", ["frustration", "top block"])
def test_dl_qsvt_anneal_raises_a_last_step_dl_failure_after_the_earlier_transitions(
    monkeypatch, check
):
    # Every step's projector is one entry of one stack and the transitions
    # one stack of pairs, but a failing DL check of the last step fires
    # after transitions 1 .. K - 1 have been built and checked, with the
    # error dl_operator finds on that step's input built alone.
    ham = make_instance("zz_chain", 3)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    k = sched.steps
    real_pin = dlgibbs.anneal.parent_projector_input
    real_svd = dlgibbs.projector.singular_value_decompose
    real_transition = dlgibbs.anneal.transition
    pins, transitions = [], []

    def lowered(a):
        # s_r = 1 - 2e-8 in the last entry, below the 1 - 1e-8 the top block
        # must reach.
        svd = real_svd(a)
        s = svd.s.copy()
        last = s[-1]
        last[np.unravel_index(last.argmax(), last.shape)] = 1.0 - 2e-8
        return Svd(u=svd.u, s=s, vh=svd.vh)

    def tracked_pin(ph, entry=None):
        pin = real_pin(ph, entry)
        if len(pins) == k and check == "frustration":
            pin = _frustrated(pin)
        pins.append(pin)
        return pin

    def tracked_transition(pa, *args):
        transitions.append((len(pins), pa.svd.s.shape[0]))
        return real_transition(pa, *args)

    monkeypatch.setattr(dlgibbs.anneal, "parent_projector_input", tracked_pin)
    if check == "top block":
        monkeypatch.setattr(dlgibbs.projector, "singular_value_decompose", lowered)
    monkeypatch.setattr(dlgibbs.anneal, "transition", tracked_transition)
    error = FrustrationDetected if check == "frustration" else DegenerateGap
    with pytest.raises(error) as raised:
        run_annealing(
            ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt"
        )
    assert k >= 2 and transitions == [(k + 1, k - 1)]
    with pytest.raises(error) as direct:
        dl_operator(pins[-1]).check()
    assert str(raised.value) == str(direct.value)


def _error(fn, *args):
    try:
        fn(*args)
    except DlGibbsError as exc:
        return type(exc), str(exc)
    return None


def test_dl_qsvt_anneal_raises_a_failing_transition_before_the_next_dl_failure(monkeypatch):
    # Transition 1 fails (its top two singular values are made equal), and
    # so does the DL check of step 2: the walk DL_0, DL_1, T_1, DL_2 meets
    # the transition's RankAmbiguous first, as the reference one step at a
    # time does with the same two failures.
    ham = make_instance("zz_chain", 3)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    args = (ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=0.5), sched, 0.1)
    assert sched.steps >= 2
    real_pin = dlgibbs.anneal.parent_projector_input
    real_svd = dlgibbs.anneal.singular_value_decompose
    pins = []

    def tracked_pin(ph, entry=None):
        pin = real_pin(ph, entry)
        pins.append(_frustrated(pin) if len(pins) == 2 else pin)
        return pins[-1]

    def ambiguous(a):
        # The first pair's second singular value raised to its first.
        svd = real_svd(a)
        s = svd.s.copy()
        order = np.argsort(-s[0], axis=None)
        s[0].flat[order[1]] = s[0].flat[order[0]]
        return Svd(u=svd.u, s=s, vh=svd.vh)

    def one_ambiguous(a):
        svd = ambiguous(a[None])
        return Svd(u=svd.u[0], s=svd.s[0], vh=svd.vh[0])

    def reference_step(pa, pb, *rest):
        with monkeypatch.context() as m:
            m.setattr(reference, "singular_value_decompose", one_ambiguous)
            return reference.step_transition(pa, pb, *rest)

    monkeypatch.setattr(dlgibbs.anneal, "parent_projector_input", tracked_pin)
    monkeypatch.setattr(dlgibbs.anneal, "singular_value_decompose", ambiguous)
    got = _error(run_annealing, *args, "dl_qsvt")
    assert got is not None and got[0] is RankAmbiguous
    assert _error(dl_operator(pins[2]).check) is not None
    want = _error(stepwise_dl_qsvt_anneal, *args, reference_step)
    assert got == want


def _dense_step(pa, pb, a, b, state, coefficients, floor):
    """transition's reference: the SVD of the dense product P_b P_a and a d x d norm."""
    o_tilde = dense_transition(dense_projector(pa), dense_projector(pb), floor, coefficients)
    return o_tilde @ state, spectral_norm(o_tilde - np.outer(b, a.conj()))


def _dense_anneal(monkeypatch, *args):
    """The anneal one step at a time (reference), each transition from dense projectors."""
    return stepwise_dl_qsvt_anneal(*args[:5], step=_dense_step)


def test_dl_qsvt_sector_stacks_hold_the_rank_of_the_dense_dl(monkeypatch):
    # The DL operators of zz_chain n = 4 (xz) at all K + 1 steps are one
    # stack on D's support: sector 0 alone of the 16, of side 16, decomposed
    # in one stacked SVD.  Each step's singular values above 1e-12 number
    # those of its dense product: 8, and 1 at beta = 0.  The K transitions
    # decompose one stack of the same sector.
    ham = make_instance("zz_chain", 4)
    sched = make_schedule(0.9, spectral_norm(assemble(ham)))
    k = sched.steps
    ranks, dense_ranks, cores, held = [], [], [], []
    real_dl = dlgibbs.anneal.dl_operator
    real_svd = dlgibbs.anneal.singular_value_decompose

    def tracked_dl(pins):
        dl = real_dl(pins)
        for j in range(pins.entries):
            ranks.append(int(np.count_nonzero(dl.svd.s[j] > 1e-12)))
            plain = LocalHamiltonian(n=pins.n, terms=whole_terms(pins[j]))
            dense_s = np.linalg.svd(dense_dl(plain), compute_uv=False)
            dense_ranks.append(int(np.count_nonzero(dense_s > 1e-12)))
        assert dl.svd.u.shape == dl.svd.vh.shape == (k + 1, 1, 16, 16)
        held.append(dl.sectors.held)
        return dl

    def tracked_svd(a):
        cores.append(a.shape)
        return real_svd(a)

    monkeypatch.setattr(dlgibbs.anneal, "dl_operator", tracked_dl)
    monkeypatch.setattr(dlgibbs.anneal, "singular_value_decompose", tracked_svd)
    run_annealing(
        ham, standard_couplings(4, "xz"), WeightProfile(beta=0.9), sched, 0.05, "dl_qsvt"
    )
    assert k == 6 and sched.betas[0] == 0.0
    assert ranks == dense_ranks == [1] + [8] * k
    assert held == [(0,)]
    assert cores == [(k, 1, 16, 16)]


# (kind, n, beta, delta, parity of the projector degree ell)
_PARITY_CASES = [
    ("zz_chain", 2, 1.0, 0.1, 1),
    ("zz_chain", 2, 1.0, 0.08, 0),
    ("zz_chain", 3, 0.9, 0.09, 1),
    ("zz_chain", 3, 0.9, 0.1, 0),
    ("zz_chain", 4, 0.9, 0.05, 1),
    ("zz_chain", 4, 0.9, 0.1, 0),
    ("commuting_projectors", 3, 0.5, 0.1, 1),
    ("commuting_projectors", 3, 0.5, 0.09, 0),
]


@pytest.mark.parametrize("kind,n,beta,delta,parity", _PARITY_CASES)
def test_sector_transitions_match_the_dense_product(monkeypatch, kind, n, beta, delta, parity):
    ham = make_instance(kind, n)
    sched = make_schedule(beta, spectral_norm(assemble(ham)))
    args = (ham, standard_couplings(n, "xz"), WeightProfile(beta=beta), sched, delta, "dl_qsvt")
    run = run_annealing(*args)
    ref = _dense_anneal(monkeypatch, *args)
    assert run.projector_degree == ref.projector_degree
    assert run.projector_degree % 2 == parity
    for got, want in zip(run.records, ref.records, strict=True):
        assert abs(got.transition_error - want.transition_error) <= 1e-10 * want.transition_error
    assert np.linalg.norm(run.final_state - ref.final_state) <= 1e-10
    for key in ("state_error", "success_probability", "final_fidelity"):
        assert abs(getattr(run, key) - getattr(ref, key)) <= 1e-10 * getattr(ref, key), key


def _one_pair(pa, pb, a, b, state, coefficients, floor):
    """transition on the single pair (pa, pb): its state and error, or its failure raised."""
    def entry(p):
        svd = Svd(u=p.svd.u[None], s=p.svd.s[None], vh=p.svd.vh[None])
        return ProjectorResult(svd, p.p_s[None], np.zeros(1), np.zeros(1), 0, p.sectors)

    state, err, failures = transition(entry(pa), entry(pb), a[None], b[None], state, coefficients, floor)
    if failures[0] is not None:
        raise failures[0]
    return state, float(err[0])


def _unitary_with_first_column(rng, first):
    d = first.size
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    z[:, 0] = first
    q, r = np.linalg.qr(z)
    # q's first column is first up to the phase of r[0, 0]; undo it.
    return q * (np.conj(r[0, 0]) / abs(r[0, 0]))


def _synthetic_projector(rng, sectors, target, rank, c):
    """A ProjectorResult P ~ |target><target| on complex factors, by sector.

    target lies in sector 0, or in the one sector; there the first columns
    of U and V are its block and the first entry of p_s is 1.  Every sector
    has rank nonzero singular values, where the other entries of p_s are
    small and of both signs, and p_s is c past them.
    """
    blocks = sectors.gather(target)
    count, side = blocks.shape
    u = np.empty((count, side, side), dtype=complex)
    vh = np.empty_like(u)
    s = np.zeros((count, side))
    p_s = np.full((count, side), c)
    for k in range(count):
        first = blocks[0] if k == 0 else _unit(rng, side)
        u[k] = _unitary_with_first_column(rng, first)
        vh[k] = _unitary_with_first_column(rng, first).conj().T
        s[k, :rank] = np.sort(rng.uniform(0.01, 0.9, rank))[::-1]
        p_s[k, :rank] = rng.uniform(-0.05, 0.05, rank)
    s[0, 0] = p_s[0, 0] = 1.0
    return ProjectorResult(
        svd=Svd(u=u, s=s, vh=vh), p_s=p_s, error=0.0, bound=0.0, queries=0, sectors=sectors
    )


def _unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _in_sector_zero(rng, sectors):
    """A unit vector on the doubled register of sectors.n qubits, in sector 0 only."""
    blocks = np.zeros((sectors.count, 2**sectors.width), dtype=complex)
    blocks[0] = _unit(rng, blocks.shape[1])
    return sectors.scatter(blocks)


def _synthetic_pair(seed, labelled, ra, rb, ca, cb, mix=0.5):
    sectors = Sectors(2, labelled)
    rng = np.random.default_rng(seed)
    a = _in_sector_zero(rng, sectors)
    b = a + mix * _in_sector_zero(rng, sectors)
    b /= np.linalg.norm(b)
    pa = _synthetic_projector(rng, sectors, a, ra, ca)
    pb = _synthetic_projector(rng, sectors, b, rb, cb)
    return pa, pb, a, b, _unit(rng, 16)


# (labelled, R_a, R_b, c_a, c_b) on two qubits, d = 16: the 4 sectors of
# side 4, or the one sector of side 16.  c = 0 (odd degree), c != 0 of both
# signs (even degree), a c large enough that f(c_a c_b) sets the error, and
# ranks that fill a sector, where nothing is padded.
_SYNTHETIC_CASES = [
    (True, 2, 3, 0.0, 0.0),
    (True, 2, 3, 0.02, -0.03),
    (True, 3, 2, 0.25, -0.3),
    (True, 4, 4, 0.0, 0.0),
    (False, 5, 4, 0.0, 0.0),
    (False, 5, 4, 0.02, -0.03),
    (False, 5, 4, 0.25, -0.3),
    (False, 6, 9, 0.02, -0.03),
    (False, 10, 9, 0.02, 0.04),
    (False, 16, 16, 0.0, 0.0),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("labelled,ra,rb,ca,cb", _SYNTHETIC_CASES)
def test_sector_transition_matches_the_dense_product_on_complex_factors(
    seed, labelled, ra, rb, ca, cb
):
    pa, pb, a, b, state = _synthetic_pair(seed, labelled, ra, rb, ca, cb)
    boost = (_boost(0.4, 1e-4), 0.4)
    got_state, got_err = _one_pair(pa, pb, a, b, state, *boost)
    want_state, want_err = _dense_step(pa, pb, a, b, state, *boost)
    assert abs(got_err - want_err) <= 1e-10 * want_err
    assert np.linalg.norm(got_state - want_state) <= 1e-10 * np.linalg.norm(want_state)
    # The transition applied to a itself lands near b.
    got_a, _ = _one_pair(pa, pb, a, b, a, *boost)
    assert np.linalg.norm(got_a - _dense_step(pa, pb, a, b, a, *boost)[0]) <= 1e-10


def _raised(fn, *args):
    try:
        fn(*args)
    except (OverlapTooSmall, RankAmbiguous) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("labelled", [True, False])
def test_sector_transition_raises_where_the_dense_product_does(seed, labelled):
    boost = (_boost(0.4, 1e-4), 0.4)
    sectors = Sectors(2, labelled)
    # b orthogonal to a: the top singular value is below half the floor.
    rng = np.random.default_rng(seed)
    a = _in_sector_zero(rng, sectors)
    b = _in_sector_zero(rng, sectors)
    b -= np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    pa = _synthetic_projector(rng, sectors, a, 3, 0.02)
    pb = _synthetic_projector(rng, sectors, b, 2, 0.02)
    want = _raised(_dense_step, pa, pb, a, b, a, *boost)
    assert want is not None and want[0] is OverlapTooSmall
    assert _raised(_one_pair, pa, pb, a, b, a, *boost) == want
    # A second singular value of P_a as large as the first: rank ambiguous.
    pa, pb, a, b, _ = _synthetic_pair(seed, labelled, 3, 2, 0.0, 0.0)
    p_s = pa.p_s.copy()
    p_s[0, 1] = 1.0
    pa = replace(pa, p_s=p_s)
    pb = replace(pb, p_s=np.where(pb.p_s != 0, 1.0, 0.0))
    want = _raised(_dense_step, pa, pb, a, b, a, *boost)
    assert want is not None and want[0] is RankAmbiguous
    assert _raised(_one_pair, pa, pb, a, b, a, *boost) == want
    # Paddings with |c_a c_b| well above a tenth of the top value: the
    # second singular value of P_b P_a is too, and both routes are rank
    # ambiguous.
    pa, pb, a, b, _ = _synthetic_pair(seed, labelled, 3, 2, 0.5, -0.5)
    want = _raised(_dense_step, pa, pb, a, b, a, *boost)
    assert want is not None and want[0] is RankAmbiguous
    assert _raised(_one_pair, pa, pb, a, b, a, *boost) == want


def test_reducible_anneal_is_rank_ambiguous_on_both_routes(monkeypatch):
    # zz_chain couplings x keep the generator reducible: the parents' ground
    # spaces are two-dimensional, so P_j P_{j-1} has two top singular values.
    ham = make_instance("zz_chain", 2)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    args = (ham, standard_couplings(2, "x"), WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityWarning)
        with pytest.raises(RankAmbiguous) as got:
            run_annealing(*args)
        with pytest.raises(RankAmbiguous) as want:
            _dense_anneal(monkeypatch, *args)
    assert str(got.value) == str(want.value)


# The IrreducibilityWarnings of the zz_chain n = 2, couplings x anneal at
# beta = 0.5: K = 1, with fixed-point dimension 4 at beta = 0 and 2 at 0.5.
_REDUCIBLE_WARNINGS = [
    f"generator at beta = {b} has fixed-point dimension {k}; the purified "
    "path is not unique"
    for b, k in (("0", 4), ("0.5", 2))
]


def _irreducibility(rec):
    return [str(r.message) for r in rec if r.category is IrreducibilityWarning]


def test_reducible_dl_qsvt_anneal_reads_no_parent_spectrum(monkeypatch):
    # Each step's fixed-point dimension is its projector input's ground
    # cluster, the rank the DL operator projects onto: no parent's 4^n
    # spectrum is taken, and both IrreducibilityWarnings fire before the
    # transition's RankAmbiguous, with the messages the dense count gives.
    ham = make_instance("zz_chain", 2)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    spectra = []
    real = dlgibbs.parent.coherent_spectrum

    def tracked(h):
        spectra.append(h.shape)
        return real(h)

    monkeypatch.setattr(dlgibbs.parent, "coherent_spectrum", tracked)
    args = (ham, standard_couplings(2, "x"), WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt")
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with pytest.raises(RankAmbiguous, match="within a factor 10 of the first"):
            run_annealing(*args)
    assert spectra == []
    assert _irreducibility(rec) == _REDUCIBLE_WARNINGS


def test_reducible_anneal_warns_the_same_in_both_modes():
    # exact mode counts each parent's kernel from its 4^n spectrum, dl_qsvt
    # mode from its projector input's ground cluster; the two agree.  exact
    # completes, and dl_qsvt then stops at the transition's RankAmbiguous.
    ham = make_instance("zz_chain", 2)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    args = (ham, standard_couplings(2, "x"), WeightProfile(beta=0.5), sched, 0.1)
    with warnings.catch_warnings(record=True) as exact:
        warnings.simplefilter("always")
        run_annealing(*args, "exact")
    with warnings.catch_warnings(record=True) as dl_qsvt:
        warnings.simplefilter("always")
        with pytest.raises(RankAmbiguous):
            run_annealing(*args, "dl_qsvt")
    assert _irreducibility(exact) == _irreducibility(dl_qsvt) == _REDUCIBLE_WARNINGS
