"""Randomized property tests of the norm shortcuts, the commutation degrees,
the Bohr weighting, the local round channel and the fidelity floor.

Hypothesis runs derandomized with a fixed example budget, so every run of
the suite draws the same examples.
"""

from __future__ import annotations

import math
from unittest.mock import patch

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dlgibbs.hamiltonians
from dlgibbs.errors import DegenerateGapWarning
from dlgibbs.hamiltonians import (
    LocalHamiltonian,
    LocalOperator,
    Sectors,
    assemble,
    bohr_grid,
    commutation_degree,
    embed,
    make_instance,
    noncommutation_degree,
    sector_noncommutation_degree,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile, build_coherent, build_jump, build_model
from dlgibbs.kms import KmsForm, coherent_spectrum
from dlgibbs.linalg import hermitian_eigendecompose, norm_exceeds, spectral_norm
from dlgibbs.parent import build_parent, parent_projector_input
from reference import (
    gibbs_state,
    parent_matrix,
    reference_coherent,
    reference_jump,
)
from test_sampler import assert_local_matches_dense

PROPERTY = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    b = _complex_normal(rng, d, d)
    return 0.5 * (b + b.conj().T)


@st.composite
def matrices(draw) -> np.ndarray:
    """Random, rank-1 and flat-spectrum matrices of any shape up to 12 x 12.

    A flat spectrum (all min(shape) singular values equal) puts ||a||_2 at
    exactly ||a||_F / sqrt(min(shape)), the edge of the upper shortcut; a
    rank-1 matrix puts it at ||a||_F, the edge of the lower one.
    """
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "rank1", "flat"]))
    magnitude = draw(st.sampled_from([1e-12, 1.0, 1e3]))
    rng = np.random.default_rng(draw(seeds))
    if kind == "random":
        a = _complex_normal(rng, rows, cols)
    elif kind == "rank1":
        a = np.outer(_complex_normal(rng, rows), _complex_normal(rng, cols))
    else:
        q, _ = np.linalg.qr(_complex_normal(rng, max(rows, cols), min(rows, cols)))
        a = q if rows >= cols else q.T
    return magnitude * a


@st.composite
def matrix_and_threshold(draw) -> tuple[np.ndarray, float]:
    """A matrix and a threshold near ||a||_F / sqrt(min(shape)) or ||a||_F.

    "between" draws the threshold log-uniformly inside the band where the
    Frobenius bounds straddle it, so the SVD branch runs.
    """
    a = draw(matrices())
    fro = float(np.linalg.norm(a))
    lower = fro / math.sqrt(min(a.shape))
    anchor = draw(st.sampled_from(["lower", "upper", "between"]))
    if anchor == "between":
        u = draw(st.floats(0.0, 1.0))
        return a, lower * (fro / lower) ** u
    factor = draw(
        st.one_of(
            st.just(1.0),
            st.sampled_from([1.0 - 1e-14, 1.0 + 1e-14]),
            st.floats(0.8, 1.25),
        )
    )
    return a, (lower if anchor == "lower" else fro) * factor


@PROPERTY
@given(matrix_and_threshold())
def test_norm_exceeds_matches_spectral_norm(case):
    a, t = case
    assert norm_exceeds(a, t) == (spectral_norm(a) > t)


def test_norm_exceeds_runs_svd_only_inside_the_straddle(monkeypatch):
    rng = np.random.default_rng(0)
    a = _complex_normal(rng, 6, 4)
    fro = float(np.linalg.norm(a))
    top = spectral_norm(a)
    assert fro / 2.0 < 0.9 * top and 1.1 * top < fro
    svds = []
    real = np.linalg.svd

    def counting_svd(x, *args, **kwargs):
        svds.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert not norm_exceeds(a, 1.01 * fro)
    assert norm_exceeds(a, 0.99 * fro / 2.0)
    assert svds == []
    assert norm_exceeds(a, 0.9 * top)
    assert not norm_exceeds(a, 1.1 * top)
    assert svds == [(6, 4), (6, 4)]


def _commutator_cut(tol: float):
    """The commutator cut the degree functions read, set to tol while in use.

    hypothesis rejects function-scoped fixtures such as monkeypatch, so the
    cut is patched by a context manager around each example.
    """
    return patch.object(dlgibbs.hamiltonians, "COMMUTATOR_CUT", tol)


def _ordered_pair_degree(mats: list[np.ndarray], tol: float) -> int:
    """Reference: every ordered pair, exact spectral norm of each commutator."""
    k = len(mats)
    scale = max([1.0] + [float(np.linalg.norm(m, 2)) for m in mats])
    deg = 0
    for a in range(k):
        cnt = 0
        for b in range(k):
            if b == a:
                continue
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            if float(np.linalg.norm(comm, 2)) > tol * scale * scale:
                cnt += 1
        deg = max(deg, cnt)
    return deg


@st.composite
def matrix_families(draw) -> list[np.ndarray]:
    """Mixes of commuting diagonals, random Hermitians and near-commuting ones.

    "multiple" entries are real multiples of one shared Hermitian matrix and
    commute with each other exactly; "perturbed" entries add a tiny random
    Hermitian to it, so their commutators land near the threshold.
    """
    d = draw(st.integers(2, 6))
    kinds = draw(
        st.lists(
            st.sampled_from(["diagonal", "hermitian", "multiple", "perturbed"]),
            max_size=6,
        )
    )
    rng = np.random.default_rng(draw(seeds))
    base = _hermitian(rng, d)
    mats = []
    for kind in kinds:
        if kind == "diagonal":
            mats.append(np.diag(rng.normal(size=d)).astype(complex))
        elif kind == "hermitian":
            mats.append(_hermitian(rng, d))
        elif kind == "multiple":
            mats.append(float(rng.uniform(-2.0, 2.0)) * base)
        else:
            eta = 10.0 ** float(rng.uniform(-13.0, -7.0))
            mats.append(base + eta * _hermitian(rng, d))
    return mats


@PROPERTY
@given(matrix_families(), st.sampled_from([1e-10, 1e-6]))
def test_noncommutation_degree_matches_ordered_pair_reference(mats, tol):
    with _commutator_cut(tol):
        assert noncommutation_degree(mats) == _ordered_pair_degree(mats, tol)


def _orthonormal(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(a)
    return q


@st.composite
def projector_families(draw) -> list[np.ndarray]:
    """Orthonormal bases of up to six subspaces, some exactly commuting.

    "frame" bases take columns of one shared unitary, so any two commute
    exactly; "shared" and "nested" bases span the same space as, or a
    subspace of, an earlier basis, so they commute with it exactly; "tilted"
    bases turn an earlier one by a small random amount, so their
    commutators land near the threshold.
    """
    d = draw(st.integers(2, 6))
    kinds = draw(
        st.lists(
            st.sampled_from(["random", "frame", "shared", "nested", "tilted"]),
            max_size=6,
        )
    )
    rng = np.random.default_rng(draw(seeds))
    frame = _orthonormal(_complex_normal(rng, d, d))
    bases: list[np.ndarray] = []
    for kind in kinds:
        if kind == "random":
            rank = int(rng.integers(1, d + 1))
            bases.append(_orthonormal(_complex_normal(rng, d, rank)))
        elif kind == "frame" or not bases:
            cols = np.sort(rng.permutation(d)[: int(rng.integers(1, d + 1))])
            bases.append(frame[:, cols])
        else:
            prev = bases[int(rng.integers(len(bases)))]
            r = prev.shape[1]
            turn = _orthonormal(_complex_normal(rng, r, r))
            if kind == "shared":
                bases.append(prev @ turn)
            elif kind == "nested":
                bases.append(prev @ turn[:, : int(rng.integers(1, r + 1))])
            else:
                eta = 10.0 ** float(rng.uniform(-13.0, -5.0))
                bases.append(_orthonormal(prev + eta * _complex_normal(rng, d, r)))
    return bases


def _one_sector_degree(bases, legs) -> int:
    """sector_noncommutation_degree of bases on qubits legs of a register, in its one sector."""
    return sector_noncommutation_degree(Sectors(3, False), [(v[None], lg) for v, lg in zip(bases, legs)])


@PROPERTY
@given(projector_families(), st.sampled_from([1e-10, 1e-6]))
def test_projector_degree_matches_dense_noncommutation_degree(bases, tol):
    dense = [v @ v.conj().T for v in bases]
    # Every basis acts on the whole register, one shared leg of dimension d.
    legs = [(0,)] * len(bases)
    with _commutator_cut(tol):
        assert _one_sector_degree(bases, legs) == noncommutation_degree(dense)


@st.composite
def local_projector_families(draw) -> tuple[list[np.ndarray], list[tuple[int, ...]]]:
    """Bases on one to three of five qubits, with the qubits they act on.

    "random" bases are generic; "diagonal" bases take computational basis
    columns, so any two commute exactly whatever their qubits; "tilted"
    bases turn an earlier basis on its own qubits by a small random amount,
    so their commutators with it land near the threshold.
    """
    kinds = draw(
        st.lists(st.sampled_from(["random", "diagonal", "tilted"]), max_size=6)
    )
    rng = np.random.default_rng(draw(seeds))
    bases: list[np.ndarray] = []
    legs: list[tuple[int, ...]] = []
    for kind in kinds:
        if kind == "tilted" and bases:
            a = int(rng.integers(len(bases)))
            prev = bases[a]
            eta = 10.0 ** float(rng.uniform(-13.0, -5.0))
            bases.append(_orthonormal(prev + eta * _complex_normal(rng, *prev.shape)))
            legs.append(legs[a])
            continue
        k = int(rng.integers(1, 4))
        legs.append(tuple(int(q) for q in rng.choice(5, size=k, replace=False)))
        d = 2**k
        rank = int(rng.integers(1, d + 1))
        if kind == "diagonal":
            bases.append(np.eye(d)[:, np.sort(rng.permutation(d)[:rank])])
        else:
            bases.append(_orthonormal(_complex_normal(rng, d, rank)))
    return bases, legs


@PROPERTY
@given(local_projector_families(), st.sampled_from([1e-10, 1e-6]))
def test_support_graph_degree_matches_dense_noncommutation_degree(family, tol):
    bases, legs = family
    dense = [embed(LocalOperator(v @ v.conj().T, lg), 5) for v, lg in zip(bases, legs)]
    with _commutator_cut(tol):
        assert _one_sector_degree(bases, legs) == (
            noncommutation_degree(dense)
        )


@PROPERTY
@given(seeds, st.integers(2, 8), st.floats(0.0, 2.0), st.booleans())
def test_bohr_weighting_matches_per_cluster_reference(seed, d, beta, degenerate):
    # Degenerate draws round the levels to integers, so many Bohr
    # frequencies coincide up to rounding and must share one cluster.
    rng = np.random.default_rng(seed)
    h = _hermitian(rng, d)
    if degenerate:
        evals, v = np.linalg.eigh(h)
        h = (v * np.round(evals)) @ v.conj().T
        h = 0.5 * (h + h.conj().T)
    a = _complex_normal(rng, d, d)
    w = WeightProfile(beta=beta)
    bohr = bohr_grid(hermitian_eigendecompose(h))
    jump = build_jump(a, bohr, w)
    ref = reference_jump(a, h, w)
    assert np.linalg.norm(jump - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
    coh = build_coherent(jump, bohr, w)
    ref = reference_coherent(jump, h, w)
    assert np.linalg.norm(coh - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


gain_lists = st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=12)


@PROPERTY
@given(gain_lists, st.sampled_from([0.0]) | st.floats(0.0, 2.0))
def test_array_weights_equal_scalar_weights(gains, beta):
    w = WeightProfile(beta=beta)
    s = beta * 0.25
    arr = np.array(gains)
    jumps, cohs = w.jump_weight(arr), w.coherent_weight(arr)
    for i, nu in enumerate(gains):
        assert jumps[i] == w.jump_weight(nu) == np.exp(-beta * nu * 0.25)
        assert cohs[i] == w.coherent_weight(nu) == -0.5j * np.tanh(-s * nu)
    if beta == 0.0:
        assert np.all(cohs == 0.0) and np.all(jumps == 1.0)


@st.composite
def local_hamiltonians(draw) -> LocalHamiltonian:
    """Up to 5 terms on 1-3 of 5 qubits: diagonal (commuting) or random Hermitian."""
    rng = np.random.default_rng(draw(seeds))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        k = int(rng.integers(1, 4))
        legs = tuple(int(q) for q in rng.choice(5, size=k, replace=False))
        d = 2**k
        if draw(st.booleans()):
            op = np.diag(rng.normal(size=d))
        else:
            op = _hermitian(rng, d)
        terms.append(LocalOperator(op, legs))
    return LocalHamiltonian(5, tuple(terms))


@settings(PROPERTY, max_examples=60)
@given(local_hamiltonians(), st.sampled_from([1e-10, 1e-6]))
def test_commutation_degree_matches_the_embedded_terms(ham, tol):
    dense = [embed(t, ham.n) for t in ham.terms]
    with _commutator_cut(tol):
        assert commutation_degree(ham) == noncommutation_degree(dense)


@settings(PROPERTY, max_examples=15)
@given(
    seeds,
    st.integers(3, 4),
    st.sampled_from(["x", "xz", "xyz"]),
    st.sampled_from([0.0, 0.5, 1.0]),
)
def test_local_channel_matches_dense_on_commuting_projectors(seed, n, couplings, beta):
    # Random diagonal projectors commute, so every term is built on its
    # dressed support; the whole-register channel is the reference.  beta
    # stays on the parity grid: below about 1e-2 some kernel gaps fall to
    # ~1e-7, and rounding in the whole-register eigh then puts commutator
    # noise near g's 1e-10 cut (CHANGES.md).
    import warnings

    ham = make_instance("commuting_projectors", n, seed=seed)
    w = WeightProfile(beta=beta)
    terms = build_model(ham, standard_couplings(n, couplings), w)
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert_local_matches_dense(ham, terms, kms)


@settings(PROPERTY, max_examples=40)
@given(
    st.sampled_from(
        [("zz_chain", 2), ("zz_chain", 3), ("field_chain", 2), ("field_chain", 3),
         ("commuting_projectors", 3)]
    ),
    seeds,
    st.sampled_from(["x", "z", "xz", "xyz"]),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
)
def test_projector_input_ground_cluster_is_the_parent_kernel(model, seed, couplings, beta):
    # The ground cluster of the projector input, which a dl_qsvt anneal
    # reads for its fixed-point dimension, has the dense kernel_dim of the
    # parent; and the lazily read gap and kernel_dim, taken by sector, are
    # coherent_spectrum's of the assembled sum of the parent terms: the
    # kernel_dim exactly, the gap to within rounding on the spectrum's scale.
    import warnings

    kind, n = model
    ham = make_instance(kind, n, seed=seed)
    terms = build_model(ham, standard_couplings(n, couplings), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    ph = build_parent(terms, kms, ham, beta=beta)
    pin = parent_projector_input(ph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGapWarning)
        cluster = pin.cluster
    w, gap, kernel_dim = coherent_spectrum(parent_matrix(ph))
    assert cluster.dimension == kernel_dim
    assert ph.kernel_dim == kernel_dim
    assert abs(ph.gap - gap) <= 1e-13 * max(1.0, float(np.abs(w).max()))


@PROPERTY
@given(seeds, st.integers(2, 16), st.floats(1e-4, 0.9), st.floats(0.0, 1.0))
def test_fidelity_floor_follows_from_state_error(seed, dim, delta, share):
    # The anneal experiment asserts ||psi~ - psi|| <= delta/2 and then
    # requires fidelity >= (1 - delta/2) / (1 + delta/2) - 1e-9 >= 1 - delta.
    rng = np.random.default_rng(seed)
    psi = _complex_normal(rng, dim)
    psi /= np.linalg.norm(psi)
    err = _complex_normal(rng, dim)
    err *= share * (delta / 2) / np.linalg.norm(err)
    approx = psi + err
    fidelity = abs(np.vdot(approx / np.linalg.norm(approx), psi))
    eps = delta / 2
    floor = (1.0 - eps) / (1.0 + eps) - 1e-9
    assert fidelity >= floor
    assert floor >= 1.0 - delta - 1e-9
