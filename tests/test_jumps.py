"""Weighted jumps and coherent parts against a per-cluster reference; model assembly."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from dlgibbs.errors import BadParams, UnknownKind
from dlgibbs.hamiltonians import (
    PAULI_X,
    PAULI_Z,
    LocalOperator,
    assemble,
    bohr_grid,
    embed,
    make_instance,
    standard_couplings,
)
from dlgibbs.jumps import (
    WeightProfile,
    _has_coherent_part,
    build_coherent,
    build_jump,
    build_model,
    dressed_support,
)
from dlgibbs.kms import KmsForm
from dlgibbs.linalg import hermitian_eigendecompose
from reference import (
    bohr_reference,
    db_residual,
    gibbs_state,
    lindblad_superoperator,
    reference_coherent,
    reference_jump,
)


def _component(freqs: np.ndarray, comps: list[np.ndarray], w: float) -> np.ndarray:
    hits = np.flatnonzero(np.abs(freqs - w) <= 1e-8)
    assert hits.size == 1
    return comps[int(hits[0])]


def _random_pair(seed: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return h + h.conj().T, a


def _assert_close(got: np.ndarray, ref: np.ndarray) -> None:
    assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_bohr_reference_qubit():
    freqs, comps = bohr_reference(PAULI_X, PAULI_Z)
    assert np.abs(np.sort(freqs) - np.array([-2.0, 2.0])).max() < 1e-12
    lower = _component(freqs, comps, 2.0)
    raise_ = _component(freqs, comps, -2.0)
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    assert np.abs(lower - e01.T).max() < 1e-12
    assert np.abs(raise_ - e01).max() < 1e-12


def test_bohr_components_are_eigenoperators():
    h, a = _random_pair(4, 8)
    freqs, comps = bohr_reference(a, h)
    total = np.zeros_like(a)
    for w, comp in zip(freqs, comps):
        total += comp
        resid = h @ comp - comp @ h + w * comp
        assert np.abs(resid).max() < 1e-8
    assert np.abs(total - a).max() < 1e-12


def test_bohr_clusters_near_degenerate_levels():
    h = np.diag([0.0, 1.0, 1.0 + 1e-13])
    a = np.ones((3, 3), dtype=complex)
    freqs, _ = bohr_reference(a, h)
    assert np.abs(np.sort(freqs) - np.array([-1.0, 0.0, 1.0])).max() < 1e-9


def test_weights_are_evaluated_once_per_reference_cluster(monkeypatch):
    # Levels 1e-13 apart share clusters: jump_weight must see each cluster
    # centre's gain, once, in one call, and nothing else.
    h = np.diag([0.0, 1.0, 1.0 + 1e-13, 2.5])
    a = np.ones((4, 4), dtype=complex)
    seen: list[np.ndarray] = []
    real = WeightProfile.jump_weight

    def spy(self, nu):
        seen.append(np.array(nu))
        return real(self, nu)

    monkeypatch.setattr(WeightProfile, "jump_weight", spy)
    build_jump(a, bohr_grid(hermitian_eigendecompose(h)), WeightProfile(beta=1.0))
    freqs, _ = bohr_reference(a, h)
    assert len(seen) == 1 and seen[0].size == freqs.size
    assert sorted(seen[0].tolist()) == sorted((-freqs).tolist())


def _agreement_cases():
    h, a = _random_pair(4, 8)
    yield "random8", h, a, WeightProfile(beta=0.7)
    # At large beta the coherent weights tanh(-beta nu / 4) saturate.
    yield "random8-beta3.0", h, a, WeightProfile(beta=3.0)
    near = np.diag([0.0, 1.0, 1.0 + 1e-13, 2.5])
    ones = np.ones((4, 4), dtype=complex)
    yield "near-degenerate", near, ones, WeightProfile(beta=1.3)
    ham = make_instance("random_ff_projectors", 3, 2)
    h_ff = assemble(ham)
    x0 = np.kron(PAULI_X, np.eye(4, dtype=complex))
    for beta in (0.0, 0.5, 1.0):
        yield f"ff3-beta{beta}", h_ff, x0, WeightProfile(beta=beta)


@pytest.mark.parametrize(
    "case", list(_agreement_cases()), ids=lambda c: c[0]
)
def test_weighting_matches_per_cluster_reference(case):
    _, h, a, w = case
    bohr = bohr_grid(hermitian_eigendecompose(h))
    jump = build_jump(a, bohr, w)
    _assert_close(jump, reference_jump(a, h, w))
    _assert_close(build_coherent(jump, bohr, w), reference_coherent(jump, h, w))


def test_infinite_temperature_model_raises_no_cutoff_warning():
    # At beta = 0 every coherent weight tanh(0) vanishes, so no term keeps
    # a coherent part, and the build warns about nothing.
    ham = make_instance("random_ff_projectors", 3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = build_model(ham, standard_couplings(3, "x"), WeightProfile(beta=0.0))
    assert all(t.coherent is None for t in terms)


@pytest.mark.parametrize(
    "kind,coupling,w,dtype",
    [
        ("zz_chain", "x", WeightProfile(beta=0.7), np.float64),
        ("zz_chain", "y", WeightProfile(beta=0.7), np.complex128),
        ("random_ff_projectors", "x", WeightProfile(beta=0.7), np.complex128),
    ],
)
def test_jump_half_runs_real_only_on_real_inputs(kind, coupling, w, dtype):
    # A real H (real eigenvectors) and a real coupling give a jump computed
    # in real arithmetic, its weights being real; the coherent weights are
    # imaginary, so the coherent half is complex whatever the inputs.
    ham = make_instance(kind, 3, 2)
    jump = build_jump(embed(standard_couplings(3, coupling)[0], 3), ham.bohr, w)
    assert jump.dtype == dtype
    assert build_coherent(jump, ham.bohr, w).dtype == np.complex128


def test_build_jump_qubit_amplitudes():
    w = WeightProfile(kind="davies_kms", beta=1.0)
    jump = build_jump(PAULI_X, bohr_grid(hermitian_eigendecompose(PAULI_Z)), w)
    assert abs(jump[0, 1] - np.exp(-0.5)) < 1e-12
    assert abs(jump[1, 0] - np.exp(0.5)) < 1e-12
    assert abs(jump[0, 0]) < 1e-14 and abs(jump[1, 1]) < 1e-14


def test_build_jump_infinite_temperature_is_identity_weight():
    w = WeightProfile(kind="davies_kms", beta=0.0)
    jump = build_jump(PAULI_X, bohr_grid(hermitian_eigendecompose(PAULI_Z)), w)
    assert np.abs(jump - PAULI_X).max() < 1e-12


def test_build_coherent_vanishes_for_commuting_coupling():
    ham = make_instance("zz_chain", 2)
    h = assemble(ham)
    w = WeightProfile(kind="davies_kms", beta=0.8)
    a = np.kron(PAULI_Z, np.eye(2, dtype=complex))
    bohr = bohr_grid(hermitian_eigendecompose(h))
    jump = build_jump(a, bohr, w)
    assert np.abs(jump - a).max() < 1e-12
    coh = build_coherent(jump, bohr, w)
    assert np.abs(coh).max() < 1e-12


def test_build_coherent_is_hermitian():
    rng = np.random.default_rng(12)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = a + a.conj().T
    w = WeightProfile(kind="davies_kms", beta=0.9)
    bohr = bohr_grid(hermitian_eigendecompose(h))
    jump = build_jump(a, bohr, w)
    coh = build_coherent(jump, bohr, w)
    assert np.abs(coh - coh.conj().T).max() < 1e-10


def test_detailed_balance_on_noncommuting_hamiltonian():
    rng = np.random.default_rng(21)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = 0.5 * (h + h.conj().T)
    beta = 0.9
    w = WeightProfile(kind="davies_kms", beta=beta)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = 0.5 * (a + a.conj().T)
    bohr = bohr_grid(hermitian_eigendecompose(h))
    jump = build_jump(a, bohr, w)
    coh = build_coherent(jump, bohr, w)
    assert np.abs(coh).max() > 1e-6
    from dlgibbs.kms import LindbladTerm

    term = LindbladTerm(
        jumps=(LocalOperator(jump, (0, 1, 2)),),
        coherent=LocalOperator(coh, (0, 1, 2)),
        support=(0, 1, 2),
    )
    kms = KmsForm(gibbs_state(h, beta))
    res = db_residual(lindblad_superoperator([term], 3), kms)
    assert res < 1e-9


def test_jump_weight_is_real():
    # exp(-beta nu / 4) in real arithmetic, for a scalar gain and an array.
    w = WeightProfile(beta=0.9)
    gains = np.array([-2.0, 0.0, 0.5, 3.0])
    weights = w.jump_weight(gains)
    assert weights.dtype == np.float64
    assert np.array_equal(weights, np.exp(-0.9 * gains * 0.25))
    assert isinstance(w.jump_weight(0.5), float) and w.jump_weight(0.5) == weights[2]


def test_weight_profile_validation():
    with pytest.raises(UnknownKind):
        WeightProfile(kind="ohmic")
    with pytest.raises(BadParams):
        WeightProfile(beta=-1.0)
    # The custom kind and its q filter are gone; davies_kms is the only kind.
    with pytest.raises(UnknownKind):
        WeightProfile(kind="custom")
    assert WeightProfile(kind="davies_kms", beta=0.5).beta == 0.5


@pytest.mark.parametrize(
    "g, expected", [(0.5e-12, False), (0.99e-10, False), (1.01e-10, True), (4.1e-10, True)]
)
def test_coherent_part_rule_reads_the_spectral_norm_of_the_jump(g, expected):
    # ||L|| = 10 and ||L||_F = 20: the rule ||G|| > 1e-12 max(1, ||L||)^2
    # puts the cut at 1e-10, and ||L||_F (cut 4e-10) decides only above it.
    jump = np.diag([10.0, 10.0, 10.0, 10.0])
    coh = np.zeros((4, 4))
    coh[0, 0] = g
    assert _has_coherent_part(coh, jump) is expected


def test_dressed_support():
    ham = make_instance("zz_chain", 4)
    a = LocalOperator(PAULI_X, (1,))
    assert dressed_support(a, ham) == (0, 1, 2)
    b = LocalOperator(PAULI_X, (0,))
    assert dressed_support(b, ham) == (0, 1)


def test_build_model_fixed_point_and_balance():
    ham = make_instance("zz_chain", 3)
    beta = 0.5
    w = WeightProfile(kind="davies_kms", beta=beta)
    terms = build_model(ham, standard_couplings(3, "x"), w)
    assert len(terms) == 3
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    total = lindblad_superoperator(terms, 3)
    assert db_residual(total, kms) < 1e-10
    schro = total.adjoint()
    assert np.abs(schro.apply(kms.sigma)).max() < 1e-10
