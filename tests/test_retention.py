"""The DL products keep their count, not their factors.

compose_dl_channel and dl_operator multiply each factor into the composite
as soon as it is made.  Weak references on the factors show how many are
still held: at most one earlier channel factor while the next one is made,
and no embedded ground projector once dl_operator has returned.
"""

from __future__ import annotations

import weakref

import pytest

import dlgibbs.projector
import dlgibbs.sampler
from dlgibbs.hamiltonians import assemble, make_instance, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, gibbs_state
from dlgibbs.projector import dl_operator
from dlgibbs.sampler import compose_dl_channel


def test_compose_dl_channel_holds_at_most_one_earlier_factor(monkeypatch):
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
    ch = compose_dl_channel(terms, kms)
    assert ch.m == len(terms) == len(refs) == 6
    assert max(alive_at_each_call) <= 1, alive_at_each_call


@pytest.mark.parametrize(
    "kind,n,seed", [("commuting_projectors", 4, 0), ("random_ff_projectors", 4, 1)]
)
def test_dl_operator_keeps_no_embedded_factor(monkeypatch, kind, n, seed):
    ham = make_instance(kind, n, seed=seed)
    assert ham.m >= 2
    real = dlgibbs.projector.embed
    refs: list[weakref.ref] = []

    def tracked(*args, **kwargs):
        factor = real(*args, **kwargs)
        refs.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(dlgibbs.projector, "embed", tracked)
    dl = dl_operator(ham)
    assert dl.m == ham.m == len(refs)
    assert [r() is None for r in refs] == [True] * ham.m
