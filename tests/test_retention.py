"""The DL products keep their count, not their factors.

compose_dl_channel checks each channel factor CPTP and drops it, keeping
only the kernel bases; dl_operator embeds no ground projector at all, but
applies each to the columns of the first factor's range on its tensor
legs.  Weak references show what is still held: no earlier channel factor
while the next one is made, and no earlier parent term's eigendecomposition
while the next term is built.  A dl_qsvt anneal's DL operator is a stack of
its support sectors at every step, of which dl_operator keeps only the SVD,
so the run does not hold the stack once the DL operators are built, and
nothing with a side of 4^n but the targets is held while the transitions
run.  On the one sector (a commuting H that is not diagonal) run_annealing
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
import dlgibbs.parent
import dlgibbs.projector
import dlgibbs.sampler
from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    assemble,
    make_instance,
    standard_couplings,
)
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
    real_terms = dlgibbs.parent.coherent_terms
    refs: list[weakref.ref] = []
    eigs: list[weakref.ref] = []
    alive_at_each_call: list[int] = []
    eigs_alive_at_each_build: list[int] = []

    def tracked(eig, state):
        kernel = real(eig, state)
        alive_at_each_call.append(sum(r() is not None for r in refs))
        refs.append(weakref.ref(kernel.channel.mat))
        eigs.append(weakref.ref(eig.eigenvectors.base))
        return kernel

    def built(*args):
        # Each coherent form is yielded once it is built: no earlier term's
        # eigendecomposition may still be held then.
        for item in real_terms(*args):
            eigs_alive_at_each_build.append(sum(r() is not None for r in eigs))
            yield item

    monkeypatch.setattr(dlgibbs.sampler, "stationary_channel", tracked)
    monkeypatch.setattr(dlgibbs.parent, "coherent_terms", built)
    ch = compose_dl_channel(terms, kms, ham)
    assert ch.m == len(terms) == len(refs) == len(eigs) == 6
    assert alive_at_each_call == [0] * len(terms)
    assert eigs_alive_at_each_build == [0] * len(terms)


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
    sched = make_schedule(1.0, spectral_norm(assemble(ham)))
    # Every step's DL operator is one entry of one stack of D's support
    # sectors, here sector 0 alone, of side 2^n.
    stack = (len(sched.betas), 1, 2**ham.n, 2**ham.n)
    real_svd = dlgibbs.projector.singular_value_decompose
    real_dl = dlgibbs.anneal.dl_operator
    real_transition = dlgibbs.anneal.transition
    refs: list[weakref.ref] = []
    factors: list[int] = []
    after_dl: list[tuple[int, int]] = []
    alive_at_transition: list[int] = []
    held_at_transition: list[list[tuple[int, ...]]] = []
    stacks_at_transition: list[set[int]] = []

    def alive():
        return sum(r() is not None for r in refs)

    def tracked_svd(a):
        # The stack of the DL operators' sectors, never a 4^n x 4^n composite.
        assert a.shape == stack
        refs.append(weakref.ref(a))
        return real_svd(a)

    def tracked_dl(*args, **kwargs):
        before = len(refs)
        dl = real_dl(*args, **kwargs)
        after_dl.append((len(refs) - before, alive()))
        factors.extend((id(dl.svd.u), id(dl.svd.vh)))
        return dl

    def tracked_transition(*args, **kwargs):
        alive_at_transition.append(alive())
        frame = sys._getframe(1)
        held = _held_arrays(frame, lambda sh: len(sh) > 1 and d in sh[-2:])
        held_at_transition.append([x.shape for x in held])
        stacks_at_transition.append({id(x) for x in _held_arrays(frame, lambda sh: sh == stack)})
        return real_transition(*args, **kwargs)

    monkeypatch.setattr(dlgibbs.projector, "singular_value_decompose", tracked_svd)
    monkeypatch.setattr(dlgibbs.anneal, "dl_operator", tracked_dl)
    monkeypatch.setattr(dlgibbs.anneal, "transition", tracked_transition)
    run_annealing(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=1.0), sched, 0.1, "dl_qsvt"
    )
    # The steps' stack is decomposed inside dl_operator and released when
    # it returns; it is not alive when the transitions run.
    assert after_dl == [(1, 0)]
    assert alive_at_transition == [0]
    # When the transitions run, the only arrays with a side of 4^n that the
    # run holds are the stacks of the pairs' target vectors (pairs, 4^n): no
    # dense parent term, projector or product of two.  It holds the DL SVD
    # factors as sector stacks.
    k = sched.steps
    assert held_at_transition == [[(k, d), (k, d)]]
    assert all(held & set(factors) for held in stacks_at_transition)


def _rotated_zz_chain(n: int) -> "LocalHamiltonian":
    """zz_chain with every site rotated by one real u: commuting, not diagonal."""
    c, s = np.cos(0.3), np.sin(0.3)
    uu = np.kron(*[np.array([[c, -s], [s, c]])] * 2)
    terms = make_instance("zz_chain", n).terms
    return LocalHamiltonian(n, tuple(LocalOperator(uu @ t.op @ uu.T, t.support) for t in terms))


def test_dl_qsvt_anneal_releases_each_step_svd_after_its_outgoing_transition(monkeypatch):
    # A commuting H that is not diagonal keeps no sectors: its steps run one
    # at a time on the one sector of side 4^n.
    ham = _rotated_zz_chain(2)
    sched = make_schedule(1.0, spectral_norm(assemble(ham)))
    real_dl = dlgibbs.anneal.dl_operator
    real_transition = dlgibbs.anneal.transition
    refs: list[weakref.ref] = []
    alive_at_transition: list[list[int]] = []

    def tracked_dl(*args, **kwargs):
        dl = real_dl(*args, **kwargs)
        assert not dl.sectors.labelled
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
