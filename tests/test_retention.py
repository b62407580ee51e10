"""The DL products keep their count, not their factors.

compose_dl_channel checks each channel factor CPTP and drops it, keeping
only the kernel bases; dl_operator embeds no ground projector at all, but
applies each to the columns of the first factor's range on its tensor
legs.  Weak references show what is still held: no earlier channel factor
while the next one is made.  Of its R_1 x d core, dl_operator keeps only
the SVD, so no dl_qsvt anneal step holds a core once its DL operator is
built, and run_annealing releases every step's SVD once the step's
projector is built.
"""

from __future__ import annotations

import weakref

import pytest

import dlgibbs.anneal
import dlgibbs.hamiltonians
import dlgibbs.projector
import dlgibbs.sampler
from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.hamiltonians import assemble, make_instance, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, gibbs_state
from dlgibbs.linalg import spectral_norm
from dlgibbs.projector import dl_operator
from dlgibbs.sampler import compose_dl_channel


def test_compose_dl_channel_holds_no_earlier_factor(monkeypatch):
    ham = make_instance("zz_chain", 3)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    real = dlgibbs.sampler.stationary_channel
    refs: list[weakref.ref] = []
    alive_at_each_call: list[int] = []

    def tracked(*args, **kwargs):
        kernel = real(*args, **kwargs)
        alive_at_each_call.append(sum(r() is not None for r in refs))
        refs.append(weakref.ref(kernel.channel.mat))
        return kernel

    monkeypatch.setattr(dlgibbs.sampler, "stationary_channel", tracked)
    ch = compose_dl_channel(terms, kms, ham)
    assert ch.m == len(terms) == len(refs) == 6
    assert alive_at_each_call == [0] * len(terms)


@pytest.mark.parametrize(
    "kind,n,seed", [("commuting_projectors", 4, 0), ("random_ff_projectors", 4, 1)]
)
def test_dl_operator_keeps_no_embedded_factor(monkeypatch, kind, n, seed):
    ham = make_instance(kind, n, seed=seed)
    assert ham.m >= 2
    real = dlgibbs.hamiltonians.add_embedded
    embedded: list[object] = []

    def tracked(total, op, *args, **kwargs):
        embedded.append(op)
        return real(total, op, *args, **kwargs)

    monkeypatch.setattr(dlgibbs.hamiltonians, "add_embedded", tracked)
    dl = dl_operator(ham)
    assert dl.m == ham.m
    # Only the sum H whose eigenvalues dl_operator reads lifts operators to
    # the register, and only the Hamiltonian's own terms; no ground
    # projector is ever embedded.
    assert not hasattr(dlgibbs.projector, "embed")
    assert embedded and all(any(op is t for t in ham.terms) for op in embedded)


def test_dl_qsvt_anneal_step_keeps_no_composite(monkeypatch):
    ham = make_instance("zz_chain", 2)
    sched = make_schedule(1.0, spectral_norm(assemble(ham)))
    real_svd = dlgibbs.projector.singular_value_decompose
    real_dl = dlgibbs.anneal.dl_operator
    real_transition = dlgibbs.anneal.transition
    refs: list[weakref.ref] = []
    after_dl: list[tuple[int, int]] = []
    alive_at_transition: list[int] = []

    def alive():
        return sum(r() is not None for r in refs)

    def tracked_svd(a):
        # The R_1 x 4^n core, never a 4^n x 4^n composite.
        assert a.shape[1] == 4**ham.n and a.shape[0] < 4**ham.n
        refs.append(weakref.ref(a))
        return real_svd(a)

    def tracked_dl(*args, **kwargs):
        before = len(refs)
        dl = real_dl(*args, **kwargs)
        after_dl.append((len(refs) - before, alive()))
        return dl

    def tracked_transition(*args, **kwargs):
        alive_at_transition.append(alive())
        return real_transition(*args, **kwargs)

    monkeypatch.setattr(dlgibbs.projector, "singular_value_decompose", tracked_svd)
    monkeypatch.setattr(dlgibbs.anneal, "dl_operator", tracked_dl)
    monkeypatch.setattr(dlgibbs.anneal, "transition", tracked_transition)
    run_annealing(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=1.0), sched, 0.1, "dl_qsvt"
    )
    # Each step's core is decomposed inside dl_operator and released when
    # it returns; none is alive when the transitions run.
    assert after_dl == [(1, 0)] * len(sched.betas)
    assert alive_at_transition == [0] * sched.steps


def test_dl_qsvt_anneal_releases_each_step_svd_before_the_transitions(monkeypatch):
    ham = make_instance("zz_chain", 2)
    sched = make_schedule(1.0, spectral_norm(assemble(ham)))
    real_dl = dlgibbs.anneal.dl_operator
    real_transition = dlgibbs.anneal.transition
    refs: list[weakref.ref] = []
    alive_at_transition: list[int] = []

    def tracked_dl(*args, **kwargs):
        dl = real_dl(*args, **kwargs)
        refs.append(weakref.ref(dl.svd.u))
        return dl

    def tracked_transition(*args, **kwargs):
        alive_at_transition.append(sum(r() is not None for r in refs))
        return real_transition(*args, **kwargs)

    monkeypatch.setattr(dlgibbs.anneal, "dl_operator", tracked_dl)
    monkeypatch.setattr(dlgibbs.anneal, "transition", tracked_transition)
    run_annealing(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=1.0), sched, 0.1, "dl_qsvt"
    )
    # Only the dense projectors are read once built; no step's U is alive
    # when the first transition runs.
    assert len(refs) == len(sched.betas)
    assert alive_at_transition[0] == 0
