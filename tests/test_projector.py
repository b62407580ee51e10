"""DL operator, Chebyshev projector polynomials, degree schedules."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest

import dlgibbs.anneal
import dlgibbs.projector
from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.errors import (
    BadEps,
    BadGamma,
    BadParams,
    DegenerateGap,
    DegenerateGapWarning,
    FrustrationDetected,
    InsufficientSpread,
)
from dlgibbs.hamiltonians import (
    PAULI,
    LocalHamiltonian,
    LocalOperator,
    assemble,
    embed,
    make_instance,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm
from dlgibbs.linalg import Svd, spectral_norm
from dlgibbs.parent import build_parent, parent_projector_input
from dlgibbs.projector import (
    approximate_projector,
    chebyshev_poly,
    degree_for_error,
    dl_operator,
    planted_spectrum,
    singular_gap,
    speedup_slope,
)
from reference import (
    dense_dl, dense_projector, dense_svd, frustration_check, gibbs_state, ground_space,
    whole_terms,
)

FF_INSTANCES = [("commuting_projectors", 5, 0)] + [
    ("random_ff_projectors", n, seed) for n in (4, 5, 6) for seed in (0, 1, 2)
]


def test_degree_one_poly_is_identity():
    p = chebyshev_poly(0.3, 1)
    xs = np.linspace(-1.0, 1.0, 21)
    assert np.abs(p(xs) - xs).max() < 1e-14


def test_poly_value_golden():
    p = chebyshev_poly(0.5, 2)
    assert abs(p(0.5) - 1.0 / 7.0) < 1e-14


def test_poly_normalization_and_bounds():
    for gamma_star, ell in [(0.5, 10), (0.1, 25), (0.02, 60)]:
        p = chebyshev_poly(gamma_star, ell)
        assert abs(p(1.0) - 1.0) < 1e-12
        xs = np.linspace(-1.0, 1.0, 1001)
        assert np.abs(p(xs)).max() <= 1.0 + 1e-12
        mid = np.linspace(-1.0 + gamma_star, 1.0 - gamma_star, 1001)
        assert np.abs(p(mid)).max() <= 2.0 * np.exp(-ell * np.sqrt(gamma_star)) + 1e-12


def test_poly_is_stable_at_high_degree():
    p = chebyshev_poly(0.5, 800)
    assert abs(p(1.0) - 1.0) < 1e-12
    assert abs(p(0.3)) < 1e-100 or p(0.3) == 0.0
    assert np.isfinite(p(np.linspace(-1, 1, 101))).all()


def test_poly_parity_matches_degree():
    xs = np.linspace(0.1, 0.9, 9)
    podd = chebyshev_poly(0.4, 7)
    assert np.abs(podd(-xs) + podd(xs)).max() < 1e-12
    peven = chebyshev_poly(0.4, 8)
    assert np.abs(peven(-xs) - peven(xs)).max() < 1e-12


def test_poly_validation():
    with pytest.raises(BadGamma):
        chebyshev_poly(0.0, 3)
    with pytest.raises(BadGamma):
        chebyshev_poly(1.0, 3)
    with pytest.raises(BadParams):
        chebyshev_poly(0.5, 0)


def test_degree_for_error_examples():
    assert degree_for_error(1.0, 2.0 / np.e) == 1
    assert degree_for_error(0.25, 1e-6) == 30
    assert degree_for_error(0.5, 5.0) == 1
    with pytest.raises(BadGamma):
        degree_for_error(0.0, 0.1)
    with pytest.raises(BadEps):
        degree_for_error(0.5, 0.0)


def test_dl_operator_commuting_is_exact_projector():
    ham = make_instance("commuting_projectors", 5, seed=0)
    dl = dl_operator(ham)
    c = (dl.svd.u * dl.svd.s) @ dl.svd.vh
    assert np.abs(c @ c - c).max() < 1e-10
    assert np.abs(c - ground_space(ham).projector).max() < 1e-10


def test_dl_operator_single_term_equals_factor():
    term = 0.5 * (np.eye(4, dtype=complex) - np.kron(PAULI["z"], PAULI["z"]))
    ham = LocalHamiltonian(n=2, terms=(LocalOperator(term, (0, 1)),))
    dl = dl_operator(ham)
    assert dl.m == 1
    ground = 0.5 * (np.eye(4) + np.kron(PAULI["z"], PAULI["z"]))
    factor = embed(LocalOperator(ground, (0, 1)), ham.n)
    assert np.abs((dl.svd.u * dl.svd.s) @ dl.svd.vh - factor).max() < 1e-12


def test_dl_operator_refuses_frustrated_input():
    x = 0.5 * (np.eye(2, dtype=complex) - PAULI["x"])
    z = 0.5 * (np.eye(2, dtype=complex) - PAULI["z"])
    ham = LocalHamiltonian(n=1, terms=(LocalOperator(x, (0,)), LocalOperator(z, (0,))))
    with pytest.raises(FrustrationDetected):
        dl_operator(ham)


def test_top_singular_block_is_exactly_one():
    for kind, n, seed in FF_INSTANCES:
        ham = make_instance(kind, n, seed=seed)
        dl = dl_operator(ham)
        r = ground_space(ham).dimension
        s = dl.svd.s
        assert np.abs(s[:r] - 1.0).max() < 1e-10
        assert s[r] < 1.0 - 1e-6


def test_singular_gap_certified_bound_holds():
    for kind, n, seed in FF_INSTANCES:
        ham = make_instance(kind, n, seed=seed)
        dl = dl_operator(ham)
        sg = singular_gap(dl, ham)
        assert sg.s_next <= sg.bound + 1e-9
        assert 1.0 - sg.s_next >= sg.gamma_star - 1e-9
        assert 0.0 < sg.gamma_star < 1.0


def test_singular_gap_formula_limit():
    # Disjoint terms have degree 0, driving the certified bound to zero.
    term = 0.5 * (np.eye(2, dtype=complex) - PAULI["z"])
    ham = LocalHamiltonian(
        n=2, terms=(LocalOperator(term, (0,)), LocalOperator(term, (1,)))
    )
    sg = singular_gap(dl_operator(ham), ham)
    assert sg.g == 0
    assert sg.bound == 0.0
    assert sg.s_next < 1e-12
    assert sg.gamma_star > 1.0 - 1e-9


def test_exact_projector_matches_ground_space():
    for kind, n, seed in FF_INSTANCES:
        ham = make_instance(kind, n, seed=seed)
        dl = dl_operator(ham)
        sg = singular_gap(dl, ham)
        r = dl.ground_dimension
        exact = dl.svd.u[:, :r] @ dl.svd.vh[:r]
        assert np.abs(exact - ground_space(ham).projector).max() < 1e-9
        assert r == sg.r


def test_closed_form_error_matches_dense_norm():
    # The dense reference the closed form replaces: the spectral norm of
    # U p(S) V^dag - U_1 V_1^dag.
    for kind, n, seed in FF_INSTANCES:
        ham = make_instance(kind, n, seed=seed)
        dl = dl_operator(ham)
        sg = singular_gap(dl, ham)
        u, vh = dl.svd.u, dl.svd.vh
        exact = u[:, : sg.r] @ vh[: sg.r]
        for ell in range(1, 41):
            poly = chebyshev_poly(sg.gamma_star, ell)
            res = approximate_projector(dl, poly)
            approx = (u * poly(dl.svd.s)) @ vh
            assert np.array_equal(dense_projector(res), approx)
            dense = spectral_norm(approx - exact)
            assert abs(res.error - dense) <= 1e-13 + 1e-12 * res.error, (kind, n, seed, ell)


@pytest.mark.parametrize("top,raises", [(1.0 - 0.5e-8, False), (1.0 - 2e-8, True)])
def test_dl_operator_rejects_a_top_block_below_one(monkeypatch, top, raises):
    # The zoo instances pass the check (test_top_singular_block_is_exactly_one);
    # here s_r is moved to either side of 1 - 1e-8.
    ham = make_instance("random_ff_projectors", 4, seed=0)
    r = ground_space(ham).dimension
    real = dlgibbs.projector.singular_value_decompose

    def lowered(a):
        svd = real(a)
        s = svd.s.copy()
        s[r - 1] = top
        return Svd(u=svd.u, s=s, vh=svd.vh)

    monkeypatch.setattr(dlgibbs.projector, "singular_value_decompose", lowered)
    if raises:
        with pytest.raises(DegenerateGap, match="top block"):
            dl_operator(ham)
    else:
        assert dl_operator(ham).svd.s[r - 1] == top


def test_error_bound_dominance_over_degree_sweep():
    for kind, n, seed in [("commuting_projectors", 5, 0), ("random_ff_projectors", 4, 7)]:
        ham = make_instance(kind, n, seed=seed)
        dl = dl_operator(ham)
        sg = singular_gap(dl, ham)
        for ell in range(1, 61):
            res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
            assert res.error <= res.bound + 1e-9
            assert res.queries == ell * ham.m


def test_commuting_odd_degree_is_exact():
    ham = make_instance("commuting_projectors", 5, seed=0)
    dl = dl_operator(ham)
    sg = singular_gap(dl, ham)
    for ell in (1, 3, 9):
        res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, ell))
        assert res.error <= 1e-10
    # Even degrees leave p(0) nonzero; the bound still dominates.
    res = approximate_projector(dl, chebyshev_poly(sg.gamma_star, 8))
    assert res.error > 1e-10
    assert res.error <= res.bound + 1e-9


def test_query_accounting():
    ham = make_instance("random_ff_projectors", 4, seed=7)
    dl = dl_operator(ham)
    res = approximate_projector(dl, chebyshev_poly(0.3, 11))
    assert res.queries == 11 * 3


def test_planted_spectrum_shape():
    spec = planted_spectrum(0.25, dim=12, r=3, seed=5)
    s = spec.singular_values
    assert s.shape == (12,)
    assert np.abs(s[:3] - 1.0).max() == 0.0
    assert abs(s[3] - 0.75) < 1e-12
    assert np.all(s[3:] <= 0.75 + 1e-12)
    assert np.all(np.diff(s) <= 1e-12)


def test_speedup_slope_on_planted_family():
    insts = [
        planted_spectrum(g, seed=i) for i, g in enumerate([0.5, 0.25, 0.1, 0.05])
    ]
    slope = speedup_slope(insts, 1e-6)
    assert 0.4 <= slope <= 0.6
    s8 = speedup_slope(insts, 1e-8)
    s4 = speedup_slope(insts, 1e-4)
    assert abs(s8 - s4) <= 0.1


def test_speedup_slope_requires_spread():
    with pytest.raises(InsufficientSpread):
        speedup_slope([planted_spectrum(0.3)], 1e-6)
    narrow = [planted_spectrum(g, seed=i) for i, g in enumerate([0.4, 0.3, 0.2, 0.1])]
    with pytest.raises(InsufficientSpread):
        speedup_slope(narrow, 1e-6)


def test_singular_gap_requires_gapped_input():
    term = 0.5 * (np.eye(2, dtype=complex) - PAULI["z"])
    ham = LocalHamiltonian(
        n=2, terms=(LocalOperator(1e-4 * term, (0,)), LocalOperator(term, (1,)))
    )
    # At the shipped cut the finite-gap branch cannot fire: ground_cluster's
    # gap exceeds its width, which is at least MIN_CERTIFIED_GAP.  A cut
    # above this H's gap of 1e-4 reaches it.
    with patch.object(dlgibbs.projector, "MIN_CERTIFIED_GAP", 1e-3):
        with pytest.raises(DegenerateGap):
            singular_gap(dl_operator(ham), ham)


def _anneal_parent_inputs():
    """Every step's parent projector input of a zz_chain n = 3 xz anneal."""
    ham = make_instance("zz_chain", 3)
    h = assemble(ham)
    w = WeightProfile(beta=0.5)
    out = []
    for beta in make_schedule(0.5, spectral_norm(h)).betas.tolist():
        terms = build_model(ham, standard_couplings(ham.n, "xz"), replace(w, beta=beta))
        ph = build_parent(terms, KmsForm(gibbs_state(h, beta)), ham, beta=beta)
        out.append((f"anneal-parent-beta{beta:.4g}", parent_projector_input(ph)))
    return out


def _anneal_parent_input():
    return _anneal_parent_inputs()[-1][1]


def _single_term():
    zz = 0.5 * (np.eye(4) - np.kron(PAULI["z"], PAULI["z"]))
    return LocalHamiltonian(n=3, terms=(LocalOperator(zz, (2, 0)),))


DENSE_PARITY = {
    "zz_chain-4": lambda: make_instance("zz_chain", 4),
    "field_chain-4": lambda: make_instance("field_chain", 4),
    "commuting_projectors-5": lambda: make_instance("commuting_projectors", 5, seed=0),
    "random_ff_projectors-5-s0": lambda: make_instance("random_ff_projectors", 5, seed=0),
    "random_ff_projectors-4-s3": lambda: make_instance("random_ff_projectors", 4, seed=3),
    "anneal-parent-zz_chain-3-xz": _anneal_parent_input,
    "single-term": _single_term,
}


@pytest.mark.parametrize("case", sorted(DENSE_PARITY))
def test_dl_operator_matches_the_dense_product(case):
    # A projector input of the anneal is decomposed by sector: its sectors'
    # factors, made whole, are the dense product's.
    ham = DENSE_PARITY[case]()
    dense = dense_dl(ham)
    dl = dl_operator(ham)
    assert (dl.sectors is not None) == case.startswith("anneal")
    u, s, vh = dense_svd(dl.svd, dl.sectors)
    d = dense.shape[0]
    assert u.shape == vh.shape == (d, d) and s.shape == (d,)
    assert np.abs((u * s) @ vh - dense).max() < 1e-12
    assert np.abs(np.sort(s)[::-1] - np.linalg.svd(dense, compute_uv=False)).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12
    assert np.abs(vh @ vh.conj().T - np.eye(d)).max() < 1e-12
    # Odd polynomials vanish at 0, so U p(S) V^dag is a function of D alone.
    sg = singular_gap(dl, ham)
    du, ds, dvh = np.linalg.svd(dense)
    for ell in (1, 3, 9):
        poly = chebyshev_poly(sg.gamma_star, ell)
        res = approximate_projector(dl, poly)
        assert np.abs(dense_projector(res) - (du * poly(ds)) @ dvh).max() < 1e-12, ell


def _near_degenerate():
    # A frustration-free field whose gap 5e-8 lies within ten cluster widths.
    fld = 0.5 * (np.eye(2) - PAULI["z"])
    return LocalHamiltonian(
        n=2, terms=(LocalOperator(5e-8 * fld, (0,)), LocalOperator(fld, (1,)))
    )


GROUND_PARITY = (
    [
        (f"{kind}-{n}", make_instance(kind, n))
        for kind in ("zz_chain", "field_chain", "commuting_projectors")
        for n in (2, 3, 4, 5)
    ]
    + [
        (f"random_ff_projectors-{n}-s{seed}", make_instance("random_ff_projectors", n, seed))
        for n in (4, 5)
        for seed in (0, 1, 2)
    ]
    + _anneal_parent_inputs()
    + [("near-degenerate", _near_degenerate())]
)


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [type(c.message) for c in caught]


@pytest.mark.parametrize("ham", [h for _, h in GROUND_PARITY], ids=[c for c, _ in GROUND_PARITY])
def test_dl_operator_ground_cluster_matches_the_dense_ground_space(ham):
    # A projector input holds its terms by sector; the dense reference reads
    # them whole.
    plain = LocalHamiltonian(n=ham.n, terms=whole_terms(ham))
    (ff, gs), dense_warned = _with_warnings(frustration_check, plain)
    dl, warned = _with_warnings(dl_operator, ham)
    assert ff
    assert dl.ground_dimension == gs.dimension
    norm_h = spectral_norm(assemble(plain))
    if math.isinf(gs.gap):
        assert ham.cluster.gap == gs.gap
    else:
        assert abs(ham.cluster.gap - gs.gap) <= 1e-12 * max(1.0, norm_h)
    assert (DegenerateGapWarning in warned) == (DegenerateGapWarning in dense_warned)


def _frustrated_pair():
    x = 0.5 * (np.eye(2) - PAULI["x"])
    z = 0.5 * (np.eye(2) - PAULI["z"])
    return LocalHamiltonian(n=1, terms=(LocalOperator(x, (0,)), LocalOperator(z, (0,))))


def _frustrated_chain():
    # (I - ZZ)/2 keeps |00>, |11>; the x fields keep only |++>, outside that span.
    zz = 0.5 * (np.eye(4) - np.kron(PAULI["z"], PAULI["z"]))
    x = 0.5 * (np.eye(2) - PAULI["x"])
    return LocalHamiltonian(
        n=2,
        terms=(LocalOperator(zz, (0, 1)), LocalOperator(x, (0,)), LocalOperator(x, (1,))),
    )


def _negative_shared_minimizer():
    # Both terms have their lowest eigenvalue -1 at |00>, and so does H at |000>.
    low = np.diag([-1.0, 0.0, 0.0, 0.0])
    return LocalHamiltonian(n=3, terms=(LocalOperator(low, (0, 1)), LocalOperator(low, (1, 2))))


def _cancelling_terms():
    # H = 0, so w_0 = 0; the residual alone shows that -|0><0| does not
    # annihilate the ground space.
    zero = np.diag([1.0, 0.0])
    return LocalHamiltonian(
        n=1, terms=(LocalOperator(-zero, (0,)), LocalOperator(zero, (0,)))
    )


def _negative_ground_outside_the_top_block():
    # H = diag(0, -1): w_0 = -1 at |1>, while D's top singular vector |0>
    # lies in the kernel of both terms, so w_0 alone shows the frustration.
    up, down = np.diag([0.0, 1.0]), np.diag([0.0, -2.0])
    return LocalHamiltonian(n=1, terms=(LocalOperator(up, (0,)), LocalOperator(down, (0,))))


FRUSTRATED = {
    "cancelling-terms": _cancelling_terms,
    "negative-ground-outside-the-top-block": _negative_ground_outside_the_top_block,
    "one-qubit-x-z": _frustrated_pair,
    "two-site-zz-x-chain": _frustrated_chain,
    "negative-shared-minimizer": _negative_shared_minimizer,
}


@pytest.mark.parametrize("case", sorted(FRUSTRATED))
def test_dl_operator_refuses_what_the_dense_check_refuses(case):
    ham = FRUSTRATED[case]()
    ff, _ = frustration_check(ham)
    assert not ff
    with pytest.raises(FrustrationDetected, match="not annihilated by every term"):
        dl_operator(ham)


def test_even_degree_projector_ignores_the_null_space_pairing(monkeypatch):
    # For even l, p(0) != 0 and U p(S) V^dag holds p(0) U_0 V_0^dag, where
    # U_0, V_0 span the null spaces of D, whose pairing D does not fix.
    # Each sector has its own.
    # Rotating U_0 by a random orthogonal matrix changes the anneal's
    # results far below the projector error.
    ham = make_instance("zz_chain", 4)
    beta = 0.95
    couplings = standard_couplings(ham.n, "xz")
    sched = make_schedule(beta, spectral_norm(assemble(ham)))
    w = WeightProfile(beta=beta)
    base = run_annealing(ham, couplings, w, sched, 0.05, "dl_qsvt")
    assert base.projector_degree % 2 == 0
    real_dl = dlgibbs.anneal.dl_operator
    rng = np.random.default_rng(0)
    rotated = []

    def rotated_dl(pins):
        dl = real_dl(pins)
        # Each step's and sector's numerically zero singular values.
        u = dl.svd.u.copy()
        for j, step in enumerate(dl.svd.s):
            sizes = []
            for k, s in enumerate(step):
                null = np.flatnonzero(s <= 1e-12)
                q, _ = np.linalg.qr(rng.normal(size=(null.size, null.size)))
                u[j, k][:, null] = u[j, k][:, null] @ q
                sizes.append(null.size)
            rotated.append(max(sizes))
        return replace(dl, svd=Svd(u=u, s=dl.svd.s, vh=dl.svd.vh))

    monkeypatch.setattr(dlgibbs.anneal, "dl_operator", rotated_dl)
    run = run_annealing(ham, couplings, w, sched, 0.05, "dl_qsvt")
    assert len(rotated) == len(sched.betas) and min(rotated) > 1
    for name in ("state_error", "success_probability", "final_fidelity"):
        got, want = getattr(run, name), getattr(base, name)
        assert abs(got - want) <= 1e-10 * abs(want), name
