"""Pass 2 of the dl_qsvt anneal on a temperature stack against one step at a time.

run_annealing builds every step's DL operator, gap check and projector as
one stack on D's support sectors, and every transition as one stack of
pairs (anneal._stacked_steps).  The reference, tests/reference.py's
stepwise_dl_qsvt_anneal, runs each step alone on every sector, in the order
DL_0, DL_1, T_1, ..., DL_K, T_K.  Records, states and every reported number
are compared bit for bit: each stacked product, SVD and norm runs matrix by
matrix, the left-out sectors' singular values, projector blocks and
transition norms are the closed forms of the zero matrix's SVD (U = V = I),
and a failing check raises the reference's type and text.
"""

from __future__ import annotations

import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dlgibbs.anneal import _step_parents, make_schedule, run_annealing
from dlgibbs.errors import DlGibbsError
from dlgibbs.hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    SectorHamiltonian,
    Sectors,
    make_instance,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile
from dlgibbs.parent import parent_projector_input
from dlgibbs.projector import dl_operator
import reference
from reference import dense_input_dl, stepwise_dl_qsvt_anneal

KINDS = ("zz_chain", "field_chain", "commuting_projectors")

# Every kind, n = 2 ... 5, couplings x, xz and xyz, beta in {0.25, 0.5, 1, 2}
# (n = 5 only to beta = 1), delta alternating 0.1 and 0.09 so that both
# parities of the projector degree ell occur.
GRID = [
    (kind, n, couplings, beta, 0.1 if i % 2 else 0.09)
    for i, (kind, n, couplings, beta) in enumerate(
        itertools.product(KINDS, (2, 3, 4, 5), ("x", "xz", "xyz"), (0.25, 0.5, 1.0, 2.0))
    )
    if n < 5 or beta <= 1.0
]


def _outcome(fn, *args):
    """(result or (error type, text), [(warning category, text)]) of fn(*args)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except DlGibbsError as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def _args(kind, n, couplings, beta, delta):
    ham = make_instance(kind, n)
    sched = make_schedule(beta, float(np.abs(ham.eig.eigenvalues).max()))
    return ham, standard_couplings(n, couplings), WeightProfile(beta=beta), sched, delta


def test_stacked_pass_two_is_the_stepwise_anneal_bit_for_bit():
    parities, raised = set(), 0
    for case in GRID:
        args = _args(*case)
        got, got_warned = _outcome(run_annealing, *args, "dl_qsvt")
        want, want_warned = _outcome(stepwise_dl_qsvt_anneal, *args)
        assert got_warned == want_warned, case
        if isinstance(want, tuple):
            assert got == want, case
            raised += 1
            continue
        assert got.records == want.records, case
        assert got.projector_degree == want.projector_degree, case
        assert got.tally == want.tally and got.budgets == want.budgets, case
        assert got.final_state.dtype == want.final_state.dtype, case
        assert np.array_equal(got.final_state, want.final_state), case
        for key in ("state_error", "final_fidelity", "success_probability", "min_overlap"):
            assert getattr(got, key) == getattr(want, key), (case, key)
        parities.add(got.projector_degree % 2)
    # The grid reaches both parities of ell, and refusals (the reducible
    # couplings x are rank ambiguous) as well as completed runs.
    assert parities == {0, 1}
    assert 0 < raised < len(GRID)


@pytest.mark.parametrize(
    "kind,n,couplings,beta",
    [c[:4] for c in GRID if c[1] <= 4 and c[3] <= 1.0],
)
def test_held_sectors_are_exactly_the_nonzero_sectors_of_the_dense_dl(kind, n, couplings, beta):
    # Each step's input alone holds exactly the sectors where its dense DL
    # product (the embedded ground projectors of its terms' sector
    # eigenvectors, multiplied whole) is nonzero, and the stack of every step
    # the union of them; every other sector of every step's dense product is
    # exactly 0.0.
    ham, cp, w, sched, _ = _args(kind, n, couplings, beta, 0.1)
    whole = Sectors(n, True).index
    pins, union = [], set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stack, j in _step_parents(ham, cp, w, sched.betas):
            pin = parent_projector_input(stack, j)
            pins.append(pin)
            dense = dense_input_dl(pin)
            blocks = dense[whole[:, :, None], whole[:, None, :]]
            nonzero = {s for s in range(2**n) if np.any(blocks[s])}
            assert set(dl_operator(pin).sectors.held) == nonzero
            union |= nonzero
        held = dl_operator(SectorHamiltonian.stack(pins)).sectors.held
    assert set(held) == union
    assert held == tuple(sorted(held))


@pytest.mark.parametrize(
    "kind,couplings,held",
    [("zz_chain", "x", (0, 15)), ("commuting_projectors", "x", (0, 12)), ("zz_chain", "xz", (0,))],
)
def test_held_sectors_of_one_step(kind, couplings, held):
    # Past beta = 0 the reducible couplings x keep a second sector: the
    # global flip of zz_chain, and sector 12 of commuting_projectors seed 0,
    # at n = 4.  With xz only sector 0 is held.
    ham, cp, w, sched, _ = _args(kind, 4, couplings, 0.5, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stack, j = list(_step_parents(ham, cp, w, sched.betas))[1]
        assert dl_operator(parent_projector_input(stack, j)).sectors.held == held


def test_dl_qsvt_anneal_does_not_stack_the_all_sector_cluster_over_temperatures():
    # zz_chain n = 6 (xz), beta = 0.25, K = 3: the parent commit of this
    # change peaked at 24,881,670 traced bytes, this one at 6,796,230.  A run
    # that held every step's all-sector ground-cluster sum at once,
    # (K + 1) x 8^n float64 entries, would exceed the bound by itself.
    n = 6
    args = _args("zz_chain", n, "xz", 0.25, 0.05)
    run_annealing(*args, "dl_qsvt")  # so the peak counts no cache the first run fills
    tracemalloc.start()
    try:
        run = run_annealing(*args, "dl_qsvt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = args[3].steps + 1
    assert steps == 4 and run.success_probability >= 1.0 - 0.05
    assert peak < steps * 8**n * 8


def test_a_stacked_lapack_failure_reruns_the_steps_one_at_a_time(monkeypatch):
    # A stacked SVD that fails to converge (NoConvergence, here forced on
    # every stack of more than one step) reruns pass 2 one step at a time
    # on every sector, with the reference's result bit for bit and no
    # warning emitted twice.
    import dlgibbs.projector
    from dlgibbs.errors import NoConvergence

    real_svd = dlgibbs.projector.singular_value_decompose
    shapes = []

    def failing(a):
        shapes.append(a.shape)
        if a.shape[0] > 1:
            raise NoConvergence("svd failed to converge: forced")
        return real_svd(a)

    args = _args("zz_chain", 3, "xyz", 0.9, 0.09)
    want, want_warned = _outcome(stepwise_dl_qsvt_anneal, *args)
    monkeypatch.setattr(dlgibbs.projector, "singular_value_decompose", failing)
    got, got_warned = _outcome(run_annealing, *args, "dl_qsvt")
    steps = args[3].steps + 1
    assert shapes == [(steps, 1, 8, 8)] + [(1, 8, 8, 8)] * steps
    assert got_warned == want_warned
    assert got.records == want.records
    assert np.array_equal(got.final_state, want.final_state)
    assert got.state_error == want.state_error


@pytest.mark.parametrize("dimension", [3, 9, 20])
def test_a_top_reaching_past_the_held_sectors_fails_as_on_every_sector(dimension):
    # A ground cluster claimed larger than D's rank on its support sectors
    # (zz_chain n = 3 xz holds sector 0 alone, 8 singular values) puts left
    # out sectors' zeros in the top: the step is checked again on every
    # sector, and fails with the reference's type and text.
    ham, cp, w, sched, _ = _args("zz_chain", 3, "xz", 0.5, 0.1)
    stack, j = list(_step_parents(ham, cp, w, sched.betas))[1]
    pin, ref = parent_projector_input(stack, j), reference.step_input(stack[j])
    claimed = replace(pin.cluster, dimension=dimension)
    pin.__dict__["clusters"] = (claimed,)
    ref.__dict__["cluster"] = claimed
    assert dl_operator(pin).sectors.held == (0,)
    assert _outcome(dl_operator(pin).check)[0] == _outcome(reference.step_dl, ref)[0]
    assert _outcome(dl_operator(pin).check)[0] is not None


def _rotated_zz_chain(n: int) -> LocalHamiltonian:
    """zz_chain with every site rotated by one real u: commuting, not diagonal."""
    c, s = np.cos(0.3), np.sin(0.3)
    uu = np.kron(*[np.array([[c, -s], [s, c]])] * 2)
    terms = make_instance("zz_chain", n).terms
    return LocalHamiltonian(n, tuple(LocalOperator(uu @ t.op @ uu.T, t.support) for t in terms))


@pytest.mark.parametrize("n,couplings", [(2, "xz"), (2, "xyz"), (3, "xz"), (3, "xyz")])
def test_the_one_sector_walk_is_the_stepwise_anneal_bit_for_bit(n, couplings):
    # A commuting H that is not diagonal keeps no sectors: its steps run one
    # at a time on the one sector of side 4^n, through the stacked functions
    # on stacks of one step, with the reference's result bit for bit.
    ham = _rotated_zz_chain(n)
    sched = make_schedule(0.5, float(np.abs(ham.eig.eigenvalues).max()))
    args = (ham, standard_couplings(n, couplings), WeightProfile(beta=0.5), sched, 0.1)
    got, got_warned = _outcome(run_annealing, *args, "dl_qsvt")
    want, want_warned = _outcome(stepwise_dl_qsvt_anneal, *args)
    assert got_warned == want_warned
    assert got.records == want.records
    assert np.array_equal(got.final_state, want.final_state)
    assert got.state_error == want.state_error
