"""The sector path of the mix channel, the parent spectrum and the dl_qsvt anneal.

Every commuting model shipped has a diagonal H and Pauli couplings, so
each parent term keeps s = i xor j of |i>|j>, and compose_dl_channel,
iterate, contraction_check, ParentHamiltonian and the dl_qsvt anneal's
ground clusters, DL operators, projectors and transitions work on the 2^n
sectors of side 2^n (hamiltonians.Sectors).  Other models run the same
code on one sector of side 4^n.  The references are the whole-register
computations the package ran before: the dense parent sum's spectrum, the
degree of the lifted kernel bases, rounds swept term by term over the
whole vector, and an anneal on dense DL products and projectors
(tests/reference.py).
"""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dlgibbs.anneal
from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.errors import BadParams, DlGibbsError, IrreducibilityWarning
import dlgibbs.hamiltonians
from dlgibbs.hamiltonians import (
    LocalHamiltonian, LocalOperator, Sectors, make_instance, sector_bases, sector_blocks,
    sector_eigenvectors, sector_sum, standard_couplings,
)
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, coherent_spectrum, stationary_channel
from dlgibbs.linalg import HermitianEig, hermitian_eigendecompose
from dlgibbs.parent import build_parent, parent_terms
from dlgibbs.tolerances import KERNEL_CUT
from dlgibbs.sampler import compose_dl_channel, iterate
from reference import (
    dense_dl_qsvt_anneal, parent_matrix, projector_noncommutation_degree, split_columns,
    swept_distances, whole_columns, whole_terms,
)
from test_properties import PROPERTY

COMMUTING = ["zz_chain", "field_chain", "commuting_projectors"]


def _random_state(d: int, seed: int) -> np.ndarray:
    """A full-rank state with weight in every sector."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = b @ b.conj().T
    return rho / np.trace(rho).real


def assert_sectors_match_dense(kind, n, couplings, beta, seed=0, labelled=True, k_max=20):
    """The channel and parent on sectors against the whole-register references.

    g and kernel_dim are equal, the gap agrees within 1e-13 relative and
    every trace distance within 1e-12 absolute, from a state with weight in
    every sector.  The channel's gap and kernel_dim are the parent's, bit
    for bit.  The reference spectrum is the dense parent sum's, one
    eigvalsh per sector block read off it by the sectors' indices when it
    is labelled, so it is as accurate as the sector path's.
    """
    ham = make_instance(kind, n, seed=seed)
    terms = build_model(ham, standard_couplings(n, couplings), WeightProfile(beta=beta))
    kms = KmsForm.gibbs(ham, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ch = compose_dl_channel(terms, kms, ham)
        ph = build_parent(terms, kms, ham, beta=beta)
        dense = parent_matrix(ph)
        if labelled:
            idx = Sectors(n, True).index
            blocks = dense[idx[:, :, None], idx[:, None, :]]
            assert np.count_nonzero(blocks) == np.count_nonzero(dense)
            dense = blocks
        _, gap, kernel_dim = coherent_spectrum(dense)
        assert ch.sectors[0].labelled == labelled
        assert ch.kernel_dim == ph.kernel_dim == kernel_dim
        assert ch.gap == ph.gap
        assert abs(ch.gap - gap) <= 1e-13 * gap
        assert ch.g == projector_noncommutation_degree(ch.kernel_bases, ch.legs)
        rho0 = _random_state(kms.dim, seed=n)
        got = iterate(ch, rho0, kms, k_max).trace_distances
    assert np.abs(got - swept_distances(ch, rho0, kms, k_max)).max() <= 1e-12


@settings(PROPERTY, max_examples=40)
@given(
    st.sampled_from(COMMUTING),
    st.integers(2, 4),
    st.sampled_from(["x", "xz", "xyz"]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_commuting_zoo_on_sectors_matches_dense(kind, n, couplings, beta):
    assert_sectors_match_dense(kind, n, couplings, beta)


@pytest.mark.parametrize("kind", COMMUTING)
def test_n5_xz_on_sectors_matches_dense(kind):
    assert_sectors_match_dense(kind, 5, "xz", 0.5, k_max=10)


@pytest.mark.parametrize("seed, couplings", [(1, "x"), (2, "x"), (0, "xz")])
def test_noncommuting_model_runs_the_one_sector_case(seed, couplings):
    assert_sectors_match_dense("random_ff_projectors", 3, couplings, 0.5, seed, labelled=False)


def test_mixed_terms_are_summed_in_the_one_sector():
    # A term that leaves its sectors moves the sum into the one sector,
    # with the terms already added written there unchanged.
    rng = np.random.default_rng(0)
    n = 2
    diagonal = np.diag(rng.normal(size=16))
    tilted = rng.normal(size=(16, 16))
    tilted = tilted + tilted.T
    legs = (0, 1, 2, 3)
    # The terms as a parent term holds them: by sector where it splits,
    # whole as one block otherwise.
    split, whole = sector_blocks(diagonal), tilted[None]
    sectors, total = sector_sum([(split, legs), (whole, legs)], n)
    assert not sectors.labelled and total.shape == (1, 16, 16)
    assert np.array_equal(total[0], diagonal + tilted)
    # A term held by sector after the sum left its sectors is made whole.
    sectors, total = sector_sum([(whole, legs), (split, legs)], n)
    assert not sectors.labelled and total.shape == (1, 16, 16)
    assert np.array_equal(total[0], tilted + diagonal)
    sectors, total = sector_sum([(split, legs)], n)
    assert sectors.labelled and total.shape == (4, 4, 4)


ZOO = [
    (kind, n, couplings)
    for kind in COMMUTING for n in (2, 3, 4) for couplings in ("x", "xz", "xyz")
]


@pytest.mark.parametrize("kind,n,couplings", ZOO)
def test_stationary_kernel_basis_is_the_whole_basis_split_by_sector(kind, n, couplings):
    # Each term's kernel basis is kept by sector as the term's eigenvectors
    # are (kms.TermKernel.basis): bit for bit the whole basis, each kernel
    # vector placed in its sector's rows, split again by sector.
    ham = make_instance(kind, n)
    cp = standard_couplings(n, couplings)
    for beta in (0.0, 0.5, 2.0):
        terms = build_model(ham, cp, WeightProfile(beta=beta))
        for t in parent_terms(terms, KmsForm.gibbs(ham, beta), ham):
            eig = HermitianEig(t.eig.eigenvalues[0], t.eig.eigenvectors[0])
            basis = stationary_channel(eig, t.state).basis
            w = eig.eigenvalues
            sel = np.abs(w) <= KERNEL_CUT * max(1.0, float(np.abs(w).max()))
            want = split_columns(sector_eigenvectors(eig.eigenvectors, sel))
            assert len(w) > 1 and want is not None
            assert basis.dtype == want.dtype and basis.shape == want.shape
            assert np.array_equal(basis, want)


@pytest.mark.parametrize("kind,n,couplings", ZOO)
def test_every_pin_sum_equals_its_adjoint(monkeypatch, kind, n, couplings):
    # The dl_qsvt anneal reads each step's ground cluster off the sum of its
    # pin blocks unchecked (SectorHamiltonian.clusters): every such sum is
    # exactly Hermitian, bit for bit.
    sums = []
    real = dlgibbs.hamiltonians.symmetric_eigenvalues

    def kept(a):
        sums.append(a.copy())
        return real(a)

    monkeypatch.setattr(dlgibbs.hamiltonians, "symmetric_eigenvalues", kept)
    ham = make_instance(kind, n)
    cp = standard_couplings(n, couplings)
    for beta in (0.5, 2.0):
        sched = make_schedule(beta, float(np.abs(ham.eig.eigenvalues).max()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                run_annealing(ham, cp, WeightProfile(beta=beta), sched, 0.1, "dl_qsvt")
            except DlGibbsError:
                pass  # the sums read before a refusal are checked all the same
    assert sums
    assert all(np.array_equal(a, np.swapaxes(a.conj(), -1, -2)) for a in sums)


def test_kernel_bases_held_by_sector_are_made_whole_beside_a_whole_one():
    # One basis held whole puts every basis on the one sector: a basis held
    # by sector is placed whole there, its padding dropped.
    rng = np.random.default_rng(1)
    n, legs = 1, (0, 1)
    by_sector = np.zeros((2, 2, 2))
    by_sector[0, :, 0] = [0.6, 0.8]
    by_sector[1, :, :] = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    whole = np.linalg.qr(rng.normal(size=(4, 3)))[0][None]
    sectors, parts = sector_bases([by_sector, whole], [legs, legs], n)
    assert not sectors.labelled
    assert [q for _, q in parts] == [legs, legs]
    assert np.array_equal(parts[0][0][0], whole_columns(by_sector))
    assert parts[0][0].shape == (1, 4, 3)
    assert np.array_equal(parts[1][0], whole)
    sectors, parts = sector_bases([by_sector], [legs], n)
    assert sectors.labelled and parts[0][0] is by_sector and parts[0][1] == (0,)


def test_zz_chain_n5_holds_no_superoperator_sized_array():
    # One 4^n x 4^n float64 array at n = 5 is 8 MB; mix, the parent's gap
    # and an exact anneal stay below it, their sums and rounds held by sector.
    n, beta = 5, 0.5
    ham = make_instance("zz_chain", n)
    couplings = standard_couplings(n, "xz")
    w = WeightProfile(beta=beta)
    sched = make_schedule(0.25, float(np.abs(ham.eig.eigenvalues).max()))
    rho0 = np.zeros((2**n, 2**n))
    rho0[0, 0] = 1.0
    tracemalloc.start()
    try:
        terms = build_model(ham, couplings, w)
        kms = KmsForm.gibbs(ham, beta)
        trace = iterate(compose_dl_channel(terms, kms, ham), rho0, kms, 50)
        gap = build_parent(terms, kms, ham, beta=beta).gap
        run = run_annealing(ham, couplings, w, sched, 0.05, "exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.kernel_dim == 1 and gap == trace.gap and run.m_terms == len(terms)
    assert peak < (4**n) ** 2 * 8


def _rotated_zz_chain(n: int, theta: float = 0.3) -> LocalHamiltonian:
    """zz_chain with every site rotated by one real u: commuting, not diagonal."""
    c, s = np.cos(theta), np.sin(theta)
    uu = np.kron(*[np.array([[c, -s], [s, c]])] * 2)
    terms = make_instance("zz_chain", n).terms
    return LocalHamiltonian(n, tuple(LocalOperator(uu @ t.op @ uu.T, t.support) for t in terms))


def _anneal_model(kind: str, n: int) -> LocalHamiltonian:
    return _rotated_zz_chain(n) if kind == "rotated" else make_instance(kind, n)


@settings(PROPERTY, max_examples=8)
@given(
    st.sampled_from(COMMUTING + ["rotated"]),
    st.integers(2, 3),
    st.sampled_from(["x", "xz", "xyz"]),
    st.sampled_from([0.5, 0.9]),
    st.sampled_from([0.05, 0.08, 0.1]),
)
# zz_chain n = 4 at ell = 199 (odd) and 184 (even), every kind with xyz,
# and the rotated chain.
@example("zz_chain", 4, "xz", 0.9, 0.05)
@example("zz_chain", 4, "xz", 0.9, 0.1)
@example("commuting_projectors", 3, "xyz", 0.5, 0.1)
@example("field_chain", 3, "xyz", 0.9, 0.08)
@example("zz_chain", 3, "xyz", 0.5, 0.05)
@example("rotated", 3, "xz", 0.5, 0.1)
def test_dl_qsvt_anneal_on_sectors_matches_dense(kind, n, couplings, beta, delta):
    # The sector anneal against run_annealing's dl_qsvt mode on dense 4^n
    # matrices: ell and the query tally equal, state_error,
    # success_probability and every transition error within 1e-10
    # relative, or the same refusal.  The diagonal models run labelled, the
    # rotated chain on the one sector.
    ham = _anneal_model(kind, n)
    sched = make_schedule(beta, float(np.abs(ham.eig.eigenvalues).max()))
    args = (ham, standard_couplings(n, couplings), WeightProfile(beta=beta), sched, delta)
    real_dl = dlgibbs.anneal.dl_operator
    labelled = set()

    def tracked_dl(pin):
        dl = real_dl(pin)
        labelled.add(dl.sectors.labelled)
        return dl

    with patch.object(dlgibbs.anneal, "dl_operator", tracked_dl), warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityWarning)
        try:
            run = run_annealing(*args, "dl_qsvt")
        except DlGibbsError as exc:
            with pytest.raises(type(exc)):
                dense_dl_qsvt_anneal(*args)
            return
        ref = dense_dl_qsvt_anneal(*args)
    assert labelled == {kind != "rotated"}
    assert run.projector_degree == ref.projector_degree
    assert run.tally.total == ref.tally
    errors = [r.transition_error for r in run.records]
    for got, want in zip(errors, ref.transition_errors, strict=True):
        assert abs(got - want) <= 1e-10 * want
    for key in ("state_error", "success_probability"):
        got, want = getattr(run, key), getattr(ref, key)
        assert abs(got - want) <= 1e-10 * want, key


def test_steps_held_on_different_sectors_are_refused():
    # The transitions multiply one step's sector stacks by the next's, so
    # pins that disagree on their sectors are refused before any DL
    # operator is built.  No shipped model gives one: a step is held here on
    # the one sector by giving its terms whole-matrix eigendecompositions.
    ham = make_instance("zz_chain", 3)
    sched = make_schedule(0.5, float(np.abs(ham.eig.eigenvalues).max()))
    args = (ham, standard_couplings(3, "xz"), WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt")
    real_pin = dlgibbs.anneal.parent_projector_input
    pins = []

    def one_on_the_one_sector(ph, entry=None):
        pins.append(real_pin(ph, entry))
        if len(pins) == 2:
            whole = tuple(t.op[None, None] for t in whole_terms(pins[-1]))
            eigs = tuple(hermitian_eigendecompose(b) for b in whole)
            pins[-1] = replace(pins[-1], blocks=whole, eigs=eigs)
        return pins[-1]

    with patch.object(dlgibbs.anneal, "parent_projector_input", one_on_the_one_sector), \
            patch.object(dlgibbs.anneal, "dl_operator") as dl, \
            pytest.raises(BadParams, match="same sectors"):
        run_annealing(*args)
    assert [pin.sectors.labelled for pin in pins] == [True, False] + [True] * (len(pins) - 2)
    assert len(pins) == len(sched.betas) and not dl.called


def test_zz_chain_n5_dl_qsvt_anneal_holds_no_superoperator_sized_array():
    # One 4^n x 4^n float64 array at n = 5 is 8 MB: a dl_qsvt anneal holds
    # its ground clusters, DL operators, projectors and transitions as
    # stacks of 2^n sectors of side 2^n, 256 kB each.
    n = 5
    ham = make_instance("zz_chain", n)
    sched = make_schedule(0.25, float(np.abs(ham.eig.eigenvalues).max()))
    args = (ham, standard_couplings(n, "xz"), WeightProfile(beta=0.25), sched, 0.05)
    tracemalloc.start()
    try:
        run = run_annealing(*args, "dl_qsvt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.success_probability >= 1.0 - 0.05
    assert peak < (4**n) ** 2 * 8
