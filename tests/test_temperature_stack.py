"""Pass 1 of the anneal on a temperature stack against one temperature at a time.

run_annealing builds the parents of its K + 1 temperatures as one stack
(anneal._step_parents): each coupling's jump, restriction, coherent form
and term eigensystem is computed once per run, for every temperature.
The references are the single-temperature calls at each scheduled beta:
build_model, build_parent and parent_projector_input.  Every number is
compared bit for bit: stacked products, eigh and eigvalsh run matrix by
matrix, and each Frobenius norm is taken in np.linalg.norm's order
(linalg.frobenius_norms).
"""

from __future__ import annotations

import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dlgibbs.anneal
from dlgibbs.anneal import Schedule, _step_parents, make_schedule, run_annealing
from dlgibbs.errors import (
    DegenerateGapWarning,
    DlGibbsError,
    IrreducibilityWarning,
    NotDetailedBalanced,
    StackDisagreement,
)
from dlgibbs.hamiltonians import LocalOperator, make_instance, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, LindbladTerm
from dlgibbs.parent import build_parent, parent_projector_input
from reference import term_matrix
from test_properties import PROPERTY

COMMUTING = ["zz_chain", "field_chain", "commuting_projectors"]


def _schedule(beta: float, steps: int) -> Schedule:
    return Schedule(beta, steps, np.linspace(0.0, beta, steps + 1))


def _single(ham, couplings, w, beta):
    """The parent at one temperature, by the single-temperature calls."""
    terms = build_model(ham, couplings, replace(w, beta=beta))
    return build_parent(terms, KmsForm.gibbs(ham, beta), ham, beta=beta)


def _assert_same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _assert_same_parent(got, want) -> None:
    _assert_same(got.ground, want.ground)
    assert len(got.terms) == len(want.terms)
    for g, t in zip(got.terms, want.terms):
        _assert_same(g.held, t.held)
        _assert_same(term_matrix(g), term_matrix(t))
        assert g.support == t.support
        _assert_same(g.db_residual, t.db_residual)
        if t.locality_residual is None:
            assert g.locality_residual is None
        else:
            _assert_same(g.locality_residual, t.locality_residual)
        _assert_same(g.eigenvalues, t.eigenvalues)


@settings(PROPERTY, max_examples=12)
@given(
    st.sampled_from(COMMUTING),
    st.integers(2, 4),
    st.sampled_from(["x", "xz", "xyz"]),
    st.sampled_from([0.4, 0.9]),
    st.integers(1, 5),
)
@example("zz_chain", 4, "xz", 2.0, 12)
@example("field_chain", 2, "xyz", 0.9, 10)
@example("commuting_projectors", 3, "xyz", 0.5, 3)
def test_stacked_pass_one_is_the_single_temperature_build(kind, n, couplings, beta, steps):
    # Each step of the stack, beta_0 = 0 included, against the parent and
    # projector input built at that beta alone: terms, residuals, term
    # spectra, the input's term eigensystems, its ground cluster and the
    # target are equal bit for bit.
    ham = make_instance(kind, n)
    cp = standard_couplings(n, couplings)
    w = WeightProfile(beta=beta)
    sched = _schedule(beta, steps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGapWarning)
        stacked = list(_step_parents(ham, cp, w, sched.betas))
        for b, (stack, j) in zip(sched.betas.tolist(), stacked, strict=True):
            # The steps are read off one stack of every temperature.
            got = stack[j]
            assert all(
                s.held.shape[0] == steps + 1 and np.shares_memory(t.held, s.held)
                for s, t in zip(stack.terms, got.terms, strict=True)
            )
            want = _single(ham, cp, w, b)
            _assert_same_parent(got, want)
            got_pin, want_pin = parent_projector_input(stack, j), parent_projector_input(want)
            for g, t in zip(got_pin.eigs, want_pin.eigs, strict=True):
                _assert_same(g.eigenvalues, t.eigenvalues)
                _assert_same(g.eigenvectors, t.eigenvectors)
            for g, t in zip(got_pin.blocks, want_pin.blocks, strict=True):
                _assert_same(g, t)
            assert got_pin.cluster == want_pin.cluster


def test_noncommuting_anneal_builds_one_temperature_at_a_time():
    # Terms of non-commuting H are on the whole register, so every step is
    # a stack of one temperature, equal to the single-temperature build.
    ham = make_instance("random_ff_projectors", 3, seed=2)
    cp = standard_couplings(ham.n, "xz")
    w = WeightProfile(beta=1.5)
    sched = make_schedule(1.5, float(np.abs(ham.eig.eigenvalues).max()))
    assert not ham.commuting and sched.steps > 2
    for b, (stack, j) in zip(
        sched.betas.tolist(), _step_parents(ham, cp, w, sched.betas), strict=True
    ):
        got = stack[j]
        assert all(
            s.held.shape[0] == 1 and np.shares_memory(t.held, s.held)
            for s, t in zip(stack.terms, got.terms, strict=True)
        )
        want = _single(ham, cp, w, b)
        _assert_same_parent(got, want)
        assert got.kernel_dim == want.kernel_dim and got.gap == want.gap
    run = run_annealing(ham, cp, w, sched, 0.05, "exact")
    assert run.final_fidelity >= 0.95


def _break_detailed_balance(monkeypatch, at: dict[int, int]) -> None:
    """Give term m a random coherent part at temperature index at[m] only.

    i[G, X] with G not commuting with sigma breaks detailed balance at that
    temperature; the part is zero at the others.
    """
    real = dlgibbs.anneal.model_terms

    def model_terms(ham, couplings, profiles):
        rng = np.random.default_rng(0)
        for m, term in enumerate(real(ham, couplings, profiles)):
            op = term.jumps[0].op
            stack = np.zeros(op.shape, dtype=complex)
            for j in range(op.shape[0]):
                betas = [p.beta for p in profiles]
                if m in at and betas[j] == at[m]:
                    a = rng.normal(size=op.shape[1:]) + 1j * rng.normal(size=op.shape[1:])
                    stack[j] = 0.5 * (a + a.conj().T)
            if stack.any():
                term = LindbladTerm(term.jumps, LocalOperator(stack, term.jumps[0].support), term.support)
            yield term

    monkeypatch.setattr(dlgibbs.anneal, "model_terms", model_terms)


@pytest.mark.parametrize("mode", ["exact", "dl_qsvt"])
def test_the_lowest_failing_temperature_is_reported(monkeypatch, mode):
    # Term 1 fails at beta_1 and term 0 at beta_2.  One temperature at a
    # time, beta_1 is built first and its term 1 raises; the stack meets
    # term 0 first, so it is rebuilt one temperature at a time to report
    # the same error.
    ham = make_instance("zz_chain", 2)
    sched = _schedule(0.6, 3)
    b1, b2 = sched.betas[1], sched.betas[2]
    _break_detailed_balance(monkeypatch, {0: b2, 1: b1})
    at = re.escape(f"beta = {float(b1)} ")
    with pytest.raises(NotDetailedBalanced, match=rf"term 1 .* {at}"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityWarning)
        run_annealing(ham, standard_couplings(2, "x"), WeightProfile(beta=0.6), sched, 0.1, mode)


def test_a_stack_refused_is_built_one_temperature_at_a_time(monkeypatch):
    # A stack whose temperatures disagree on how a term is held is built
    # one temperature at a time, with the same result.
    ham = make_instance("zz_chain", 3)
    cp = standard_couplings(3, "xz")
    w = WeightProfile(beta=0.5)
    sched = make_schedule(0.5, float(np.abs(ham.eig.eigenvalues).max()))
    want = run_annealing(ham, cp, w, sched, 0.1, "dl_qsvt")
    real = dlgibbs.anneal.model_terms

    def refusing(ham, couplings, profiles):
        if len(profiles) > 1:
            raise StackDisagreement("refused")
        return real(ham, couplings, profiles)

    monkeypatch.setattr(dlgibbs.anneal, "model_terms", refusing)
    got = run_annealing(ham, cp, w, sched, 0.1, "dl_qsvt")
    assert got.state_error == want.state_error
    assert [r.transition_error for r in got.records] == [r.transition_error for r in want.records]


def test_warnings_come_in_ascending_beta_as_one_temperature_at_a_time():
    # z couplings leave every basis state fixed: each step warns, in order
    # of beta, with the text and dimension of its own projector input,
    # before pass 2 refuses the run.
    ham = make_instance("zz_chain", 3)
    cp = standard_couplings(3, "z")
    w = WeightProfile(beta=0.9)
    sched = make_schedule(0.9, float(np.abs(ham.eig.eigenvalues).max()))
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        for b in sched.betas.tolist():
            dim = parent_projector_input(_single(ham, cp, w, b)).cluster.dimension
            if dim > 1:
                warnings.warn(
                    f"generator at beta = {b:.6g} has fixed-point dimension {dim}; "
                    "the purified path is not unique",
                    IrreducibilityWarning,
                )
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        with pytest.raises(DlGibbsError):
            run_annealing(ham, cp, w, sched, 0.1, "dl_qsvt")
    assert len(want) == sched.steps + 1
    assert [(r.category, str(r.message)) for r in got] == [
        (r.category, str(r.message)) for r in want
    ]


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_noncommuting_exact_anneal_holds_one_step_of_whole_register_terms():
    # Stacked over its 7 temperatures, the 6 whole-register terms of this
    # model alone would take 7 * 6 * 4^6 * 16 bytes, 2.75 MB.  One
    # temperature at a time the run stays within three steps' worth.
    ham = make_instance("random_ff_projectors", 3, seed=2)
    cp = standard_couplings(ham.n, "xz")
    sched = make_schedule(1.5, float(np.abs(ham.eig.eigenvalues).max()))
    ham.eig, ham.bohr, ham.commuting
    step_terms = len(cp) * (4**ham.n) ** 2 * 16
    peak = _peak(lambda: run_annealing(ham, cp, WeightProfile(beta=1.5), sched, 0.05, "exact"))
    assert sched.steps == 6 and peak < 3 * step_terms


def test_stacked_dl_qsvt_anneal_peaks_no_higher_than_one_temperature_at_a_time(monkeypatch):
    # zz_chain n = 5: the stack holds the terms of every temperature by
    # sector, 8^k entries each; one temperature at a time, as the anneal ran
    # before its parents were stacked, holds each step's dense terms.
    n = 5
    ham = make_instance("zz_chain", n)
    cp = standard_couplings(n, "xz")
    sched = make_schedule(0.25, float(np.abs(ham.eig.eigenvalues).max()))
    args = (ham, cp, WeightProfile(beta=0.25), sched, 0.05, "dl_qsvt")
    run_annealing(*args)  # so neither peak counts the caches the first run fills
    stacked = _peak(lambda: run_annealing(*args))
    real = dlgibbs.anneal.model_terms

    def one_at_a_time(ham, couplings, profiles):
        if len(profiles) > 1:
            raise StackDisagreement("one temperature at a time")
        return real(ham, couplings, profiles)

    monkeypatch.setattr(dlgibbs.anneal, "model_terms", one_at_a_time)
    single = _peak(lambda: run_annealing(*args))
    assert stacked <= single
