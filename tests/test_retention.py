"""The DL products keep their count, not their factors.

compose_dl_channel checks each channel factor CPTP and drops it, keeping
only the kernel bases; dl_operator embeds no ground projector at all, but
applies each to the columns of the first factor's range on its tensor
legs.  Weak references show what is still held: no earlier channel factor
while the next one is made.  A dl_qsvt anneal's DL operator is a stack of
its sectors, of which dl_operator keeps only the SVD, so no step holds the
stack once its DL operator is built, and nothing with a side of 4^n but the
local parent terms is held while the transitions run.  run_annealing
builds each step's factors after the previous transition and releases them
once their outgoing transition has run, so transition j holds exactly the
factors of steps j - 1 and j.
"""

from __future__ import annotations

import dataclasses
import sys
import weakref

import numpy as np
import pytest

import dlgibbs.anneal
import dlgibbs.hamiltonians
import dlgibbs.projector
import dlgibbs.sampler
from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.hamiltonians import assemble, make_instance, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm
from dlgibbs.linalg import spectral_norm
from dlgibbs.projector import dl_operator
from dlgibbs.sampler import compose_dl_channel
from reference import gibbs_state


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


def _held_arrays(frame, keep):
    """Every array a frame's locals reach through lists, tuples and dataclasses, where keep(shape) holds."""
    found, seen, todo = [], set(), list(frame.f_locals.values())
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            if keep(x.shape):
                found.append(x)
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return found


def test_dl_qsvt_anneal_step_keeps_no_composite(monkeypatch):
    ham = make_instance("zz_chain", 2)
    d = 4**ham.n
    stack = (2**ham.n,) * 3
    sched = make_schedule(1.0, spectral_norm(assemble(ham)))
    real_svd = dlgibbs.projector.singular_value_decompose
    real_dl = dlgibbs.anneal.dl_operator
    real_transition = dlgibbs.anneal.transition
    real_pin = dlgibbs.anneal.parent_projector_input
    refs: list[weakref.ref] = []
    factors: list[int] = []
    local_terms: set[int] = set()
    after_dl: list[tuple[int, int]] = []
    alive_at_transition: list[int] = []
    held_at_transition: list[set[int]] = []
    stacks_at_transition: list[set[int]] = []

    def alive():
        return sum(r() is not None for r in refs)

    def tracked_svd(a):
        # The stack of the DL operator's sectors, never a 4^n x 4^n composite.
        assert a.shape == stack
        refs.append(weakref.ref(a))
        return real_svd(a)

    def tracked_dl(*args, **kwargs):
        before = len(refs)
        dl = real_dl(*args, **kwargs)
        after_dl.append((len(refs) - before, alive()))
        factors.extend((id(dl.svd.u), id(dl.svd.vh)))
        return dl

    def tracked_pin(*args, **kwargs):
        pin = real_pin(*args, **kwargs)
        local_terms.update(id(t.op) for t in pin.terms)
        return pin

    def tracked_transition(*args, **kwargs):
        alive_at_transition.append(alive())
        frame = sys._getframe(1)
        held_at_transition.append({id(x) for x in _held_arrays(frame, lambda sh: len(sh) > 1 and d in sh[-2:])})
        stacks_at_transition.append({id(x) for x in _held_arrays(frame, lambda sh: sh == stack)})
        return real_transition(*args, **kwargs)

    monkeypatch.setattr(dlgibbs.projector, "singular_value_decompose", tracked_svd)
    monkeypatch.setattr(dlgibbs.anneal, "dl_operator", tracked_dl)
    monkeypatch.setattr(dlgibbs.anneal, "transition", tracked_transition)
    monkeypatch.setattr(dlgibbs.anneal, "parent_projector_input", tracked_pin)
    run_annealing(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=1.0), sched, 0.1, "dl_qsvt"
    )
    # Each step's stack is decomposed inside dl_operator and released when
    # it returns; none is alive when the transitions run.
    assert after_dl == [(1, 0)] * len(sched.betas)
    assert alive_at_transition == [0] * sched.steps
    # At every transition the only arrays with a side of 4^n that
    # run_annealing holds are the local parent terms the later steps' DL
    # operators are built from (at n = 2 a term's doubled support is the
    # whole register): no dense projector or product of two.  It holds DL
    # SVD factors as sector stacks.
    assert len(held_at_transition) == sched.steps
    assert all(held <= local_terms for held in held_at_transition)
    assert all(held & set(factors) for held in stacks_at_transition)


def test_dl_qsvt_anneal_releases_each_step_svd_after_its_outgoing_transition(monkeypatch):
    ham = make_instance("zz_chain", 2)
    sched = make_schedule(1.0, spectral_norm(assemble(ham)))
    real_dl = dlgibbs.anneal.dl_operator
    real_transition = dlgibbs.anneal.transition
    refs: list[weakref.ref] = []
    alive_at_transition: list[list[int]] = []

    def tracked_dl(*args, **kwargs):
        dl = real_dl(*args, **kwargs)
        refs.append(weakref.ref(dl.svd.u))
        return dl

    def tracked_transition(*args, **kwargs):
        alive_at_transition.append([j for j, r in enumerate(refs) if r() is not None])
        return real_transition(*args, **kwargs)

    monkeypatch.setattr(dlgibbs.anneal, "dl_operator", tracked_dl)
    monkeypatch.setattr(dlgibbs.anneal, "transition", tracked_transition)
    run_annealing(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=1.0), sched, 0.1, "dl_qsvt"
    )
    # Transition j reads steps j - 1 and j; every step before j - 1 has had
    # its outgoing transition and its U is gone, and no step after j is built.
    k = sched.steps
    assert len(refs) == k + 1 and k >= 2
    assert alive_at_transition == [[j - 1, j] for j in range(1, k + 1)]
