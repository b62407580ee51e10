"""The sector path of the mix channel and the parent spectrum.

Every commuting model shipped has a diagonal H and Pauli couplings, so
each parent term keeps s = i xor j of |i>|j>, and compose_dl_channel,
iterate, contraction_check and ParentHamiltonian work on the 2^n sectors
of side 2^n (hamiltonians.Sectors).  Other models run the same code on one
sector of side 4^n.  The references are the whole-register computations
the package ran before: the dense parent sum's spectrum, the degree of the
lifted kernel bases and rounds swept term by term over the whole vector
(tests/reference.py).
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.hamiltonians import make_instance, sector_sum, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, coherent_spectrum
from dlgibbs.parent import build_parent
from dlgibbs.sampler import compose_dl_channel, iterate
from reference import parent_matrix, projector_noncommutation_degree, swept_distances
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
    for bit.
    """
    ham = make_instance(kind, n, seed=seed)
    terms = build_model(ham, standard_couplings(n, couplings), WeightProfile(beta=beta))
    kms = KmsForm.gibbs(ham, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ch = compose_dl_channel(terms, kms, ham)
        ph = build_parent(terms, kms, ham, beta=beta)
        _, gap, kernel_dim = coherent_spectrum(parent_matrix(ph))
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
    sectors, total = sector_sum([(diagonal, legs), (tilted, legs)], n)
    assert not sectors.labelled and total.shape == (1, 16, 16)
    assert np.array_equal(total[0], diagonal + tilted)
    sectors, total = sector_sum([(diagonal, legs)], n)
    assert sectors.labelled and total.shape == (4, 4, 4)


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
