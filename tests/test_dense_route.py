"""Parent terms held by sector against the dense route, bit for bit.

A parent term is split by sector once, when it is built (parent.TermStack),
and every reader takes its held blocks and their spectra.  tests/reference.py
keeps the dense route this replaced: each H^a rebuilt whole (term_matrix),
its spectrum and kernel taken by splitting that matrix again, and the
parent's sum split again term by term (dense_sector_sum).  On a fixed grid,
at one beta and on a temperature stack of K + 1 = 4, every result is
compared bit for bit: gap, kernel_dim, each term's eigenvalues, the mix's
kernel bases and stationary channels, and the exact and dl_qsvt anneal
records.  No shipped config runs the exact anneal, so this is its golden.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

import dlgibbs.sampler
from dlgibbs.anneal import Schedule, run_annealing
from dlgibbs.errors import DlGibbsError
from dlgibbs.hamiltonians import make_instance, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model, model_terms
from dlgibbs.kms import KmsForm
from dlgibbs.parent import ParentHamiltonian, build_parent
from dlgibbs.sampler import compose_dl_channel
from reference import (
    dense_parent_spectrum,
    dense_route_channel,
    stepwise_dl_qsvt_anneal,
    term_eigenvalues,
    term_matrix,
)
from test_pass_two_stack import _rotated_zz_chain

BETA = 0.5

# Every commuting kind at n = 2 ... 4 with couplings x, xz and xyz; a
# commuting H that is not diagonal, whose terms are held whole on the one
# sector; and a non-commuting H, whose terms are on the whole register.
CASES = [
    (kind, n, couplings)
    for kind, n, couplings in itertools.product(
        ("zz_chain", "field_chain", "commuting_projectors"), (2, 3, 4), ("x", "xz", "xyz")
    )
] + [("rotated_zz_chain", 3, "xz"), ("random_ff_projectors", 3, "xz")]


def _ham(kind, n):
    return _rotated_zz_chain(n) if kind == "rotated_zz_chain" else make_instance(kind, n)


def _outcome(fn, *args):
    """(result or (error type, text), [(warning category, text)]) of fn(*args)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except DlGibbsError as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _assert_parent_is_dense(ph: ParentHamiltonian) -> None:
    """A parent of one temperature: each term's eigenvalues, and the sum's spectrum."""
    for t in ph.terms:
        want = term_eigenvalues(term_matrix(t), t.locality_residual is not None)
        assert _same(t.eigenvalues[0], want)
    w, gap, kernel_dim = dense_parent_spectrum(ph)
    assert _same(ph._spectrum[0], w)
    assert (ph.gap, ph.kernel_dim) == (gap, kernel_dim)


@pytest.mark.parametrize("kind,n,couplings", CASES)
def test_parent_is_the_dense_route(kind, n, couplings):
    ham = _ham(kind, n)
    cp = standard_couplings(n, couplings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        terms = build_model(ham, cp, WeightProfile(beta=BETA))
        _assert_parent_is_dense(build_parent(terms, KmsForm.gibbs(ham, BETA), ham, beta=BETA))
        # beta > 0 throughout: at beta = 0 a coherent part vanishes, which
        # the stack of a non-diagonal H then disagrees on.
        betas = BETA * np.array([0.25, 0.5, 0.75, 1.0])
        stacked = model_terms(ham, cp, [WeightProfile(beta=b) for b in betas.tolist()])
        ph = build_parent(stacked, KmsForm.gibbs(ham, betas), ham, beta=betas)
        for j in range(len(betas)):
            _assert_parent_is_dense(ph[j])


@pytest.mark.parametrize("kind,n,couplings", CASES)
def test_mix_channel_is_the_dense_route(monkeypatch, kind, n, couplings):
    ham = _ham(kind, n)
    terms = build_model(ham, standard_couplings(n, couplings), WeightProfile(beta=BETA))
    kms = KmsForm.gibbs(ham, BETA)
    channels = []
    real = dlgibbs.sampler.stationary_channel

    def kept(*args):
        kernel = real(*args)
        channels.append(kernel.channel.mat)
        return kernel

    monkeypatch.setattr(dlgibbs.sampler, "stationary_channel", kept)
    got, got_warned = _outcome(compose_dl_channel, terms, kms, ham)
    monkeypatch.undo()
    want, want_warned = _outcome(dense_route_channel, terms, kms, ham)
    assert got_warned == want_warned
    if isinstance(got, tuple):  # refused: the same error on both routes
        assert got == want
        return
    bases, want_channels, gap, kernel_dim = want
    assert len(got.kernel_bases) == len(bases) == len(channels) == len(want_channels)
    assert all(_same(g, w) for g, w in zip(got.kernel_bases, bases))
    assert all(_same(g, w) for g, w in zip(channels, want_channels))
    assert (got.gap, got.kernel_dim) == (gap, kernel_dim)


def _assert_same_run(got, want) -> None:
    assert got[1] == want[1]
    got, want = got[0], want[0]
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.records == want.records
    assert got.projector_degree == want.projector_degree
    assert got.tally == want.tally and got.budgets == want.budgets
    assert _same(got.final_state, want.final_state)
    for key in ("state_error", "final_fidelity", "success_probability", "min_overlap"):
        assert getattr(got, key) == getattr(want, key), key


@pytest.mark.parametrize("kind,n,couplings", CASES)
def test_anneals_are_the_dense_route(monkeypatch, kind, n, couplings):
    ham = _ham(kind, n)
    args = (
        ham, standard_couplings(n, couplings), WeightProfile(beta=BETA),
        Schedule(BETA, 3, np.linspace(0.0, BETA, 4)), 0.1,
    )
    # dl_qsvt: the stepwise reference rebuilds each step's projector input
    # from its parent's terms made whole (reference.step_input).
    want = _outcome(stepwise_dl_qsvt_anneal, *args)
    _assert_same_run(_outcome(run_annealing, *args, "dl_qsvt"), want)
    # exact: each step's kernel_dim read off the dense route instead.
    got = _outcome(run_annealing, *args, "exact")
    monkeypatch.setattr(ParentHamiltonian, "_spectrum", property(dense_parent_spectrum))
    _assert_same_run(got, _outcome(run_annealing, *args, "exact"))
