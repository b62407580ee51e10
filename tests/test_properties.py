"""Randomized property tests of the norm shortcuts, the commutation degrees,
the Bohr weighting, the local round channel and the fidelity floor.

Hypothesis runs derandomized with a fixed example budget, so every run of
the suite draws the same examples.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dlgibbs.hamiltonians import (
    LocalOperator,
    assemble,
    embed,
    make_instance,
    noncommutation_degree,
    projector_noncommutation_degree,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile, build_coherent, build_jump, build_model
from dlgibbs.kms import KmsForm, gibbs_state
from dlgibbs.linalg import norm_exceeds, spectral_norm
from test_jumps import reference_coherent, reference_jump
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
    assert noncommutation_degree(mats, tol) == _ordered_pair_degree(mats, tol)


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


@PROPERTY
@given(projector_families(), st.sampled_from([1e-10, 1e-6]))
def test_projector_degree_matches_dense_noncommutation_degree(bases, tol):
    dense = [v @ v.conj().T for v in bases]
    assert projector_noncommutation_degree(bases, tol) == noncommutation_degree(
        dense, tol
    )


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
    assert projector_noncommutation_degree(bases, tol, legs=legs) == (
        noncommutation_degree(dense, tol)
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
    jump = build_jump(a, h, w)
    ref = reference_jump(a, h, w)
    assert np.linalg.norm(jump - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
    coh = build_coherent(jump, h, w)
    ref = reference_coherent(jump, h, w)
    assert np.linalg.norm(coh - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


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
