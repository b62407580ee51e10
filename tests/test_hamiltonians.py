"""Local terms, embedding order, instance zoo, ground spaces."""

from __future__ import annotations

import numpy as np
import pytest

from dlgibbs.errors import BadParams, SupportOutOfRange, UnknownKind
from dlgibbs.hamiltonians import (
    PAULI,
    PAULI_X,
    PAULI_Z,
    LocalHamiltonian,
    LocalOperator,
    assemble,
    commutation_degree,
    embed,
    frustration_check,
    ground_space,
    interaction_degree,
    make_instance,
    noncommutation_degree,
    projector_noncommutation_degree,
    standard_couplings,
)


def test_embed_orders_qubit0_most_significant():
    z0 = embed(LocalOperator(PAULI_Z, (0,)), 2)
    assert np.abs(z0 - np.diag([1, 1, -1, -1])).max() < 1e-15
    z1 = embed(LocalOperator(PAULI_Z, (1,)), 2)
    assert np.abs(z1 - np.diag([1, -1, 1, -1])).max() < 1e-15


def test_embed_respects_support_order():
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1.0
    fwd = embed(LocalOperator(cnot, (0, 1)), 2)
    rev = embed(LocalOperator(cnot, (1, 0)), 2)
    assert np.abs(fwd - cnot).max() < 1e-15
    expected_rev = np.zeros((4, 4))
    expected_rev[0, 0] = expected_rev[2, 2] = expected_rev[1, 3] = expected_rev[3, 1] = 1.0
    assert np.abs(rev - expected_rev).max() < 1e-15


def test_embed_noncontiguous_support():
    zz = np.kron(PAULI_Z, PAULI_Z)
    full = embed(LocalOperator(zz, (0, 2)), 3)
    diag = [1, -1, 1, -1, -1, 1, -1, 1]
    assert np.abs(full - np.diag(diag)).max() < 1e-15


def _kron_embed(op: LocalOperator, n: int) -> np.ndarray:
    """Reference lift: kron(op, I), then the qubit axes transposed into place."""
    rest = [q for q in range(n) if q not in op.support]
    full = np.kron(op.op, np.eye(2 ** len(rest), dtype=op.op.dtype))
    order = list(op.support) + rest
    perm = [order.index(q) for q in range(n)]
    t = full.reshape([2] * (2 * n)).transpose(perm + [n + a for a in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "support",
    [(0,), (4,), (1, 2), (0, 1, 2, 3, 4), (0, 2), (1, 4, 2), (3, 1), (4, 3, 2, 1, 0)],
    ids=lambda s: "-".join(map(str, s)),
)
def test_embed_is_bitwise_the_kron_lift(support, dtype):
    # Contiguous, non-contiguous and reversed supports; negative entries
    # and signed zeros make op * 0 carry a sign, which must survive too.
    rng = np.random.default_rng(len(support))
    d = 2 ** len(support)
    op = rng.normal(size=(d, d))
    if dtype is complex:
        op = op + 1j * rng.normal(size=(d, d))
        op[-1, 0] = complex(2.0, -0.0)
    op[0, -1] = -0.0
    local = LocalOperator(op, support)
    got = embed(local, 5)
    want = _kron_embed(local, 5)
    assert got.dtype == want.dtype == local.op.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_add_embedded_sums_like_embed():
    from dlgibbs.hamiltonians import add_embedded

    rng = np.random.default_rng(3)
    real = LocalOperator(rng.normal(size=(4, 4)), (3, 1))
    cplx = LocalOperator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), (2,))
    whole = LocalOperator(rng.normal(size=(16, 16)), (0, 1, 2, 3))
    total = embed(real, 4)
    total = add_embedded(total, whole, 4)
    assert total.dtype == np.float64
    total = add_embedded(total, cplx, 4)  # widens to complex
    assert total.dtype == np.complex128
    want = embed(real, 4) + embed(whole, 4) + embed(cplx, 4)
    assert np.array_equal(total, want)
    with pytest.raises(SupportOutOfRange):
        add_embedded(total, LocalOperator(PAULI_X, (4,)), 4)


def test_embed_rejects_out_of_range():
    with pytest.raises(SupportOutOfRange):
        embed(LocalOperator(PAULI_X, (3,)), 2)


def test_local_operator_validation():
    with pytest.raises(BadParams):
        LocalOperator(np.eye(4), (1, 1))
    with pytest.raises(Exception):
        LocalOperator(np.eye(3), (0, 1))


def test_zz_chain_ground_space():
    ham = make_instance("zz_chain", 3)
    assert ham.m == 2
    gs = ground_space(ham)
    assert gs.dimension == 2
    assert abs(gs.energy) < 1e-12
    assert abs(gs.gap - 1.0) < 1e-12
    ff, gs = frustration_check(ham)
    assert ff and abs(gs.frustration_residual) < 1e-12


def test_field_chain_unique_ground():
    ham = make_instance("field_chain", 3)
    assert ham.m == 3
    assert all(t.support == (i,) for i, t in enumerate(ham.terms))
    gs = ground_space(ham)
    assert gs.dimension == 1
    assert abs(gs.gap - 1.0) < 1e-12
    vac = np.zeros(8)
    vac[0] = 1.0
    assert np.abs(gs.projector - np.outer(vac, vac)).max() < 1e-12
    ff, gs = frustration_check(ham)
    assert ff and abs(gs.frustration_residual) < 1e-12


def test_frustration_residual_detects_nonzero_ground_action():
    x = 0.5 * (np.eye(2, dtype=complex) - PAULI["x"])
    z = 0.5 * (np.eye(2, dtype=complex) - PAULI["z"])
    ham = LocalHamiltonian(n=1, terms=(LocalOperator(x, (0,)), LocalOperator(z, (0,))))
    ff, gs = frustration_check(ham)
    assert not ff
    assert gs.frustration_residual > 0.1


def test_random_ff_projectors_frustration_free():
    for seed in (0, 1, 2):
        ham = make_instance("random_ff_projectors", 4, seed=seed)
        for t in ham.terms:
            w = np.linalg.eigvalsh(t.op)
            assert np.abs(t.op @ t.op - t.op).max() < 1e-12
            assert abs(w.sum() - 1.0) < 1e-12
        ff, gs = frustration_check(ham)
        assert ff and abs(gs.frustration_residual) < 1e-10
        assert commutation_degree(ham) > 0


def test_commuting_projectors_commute():
    ham = make_instance("commuting_projectors", 5, seed=3)
    assert commutation_degree(ham) == 0
    ff, _ = frustration_check(ham)
    assert ff


def test_instance_seeding_is_deterministic():
    a = make_instance("random_ff_projectors", 4, seed=7)
    b = make_instance("random_ff_projectors", 4, seed=7)
    c = make_instance("random_ff_projectors", 4, seed=8)
    assert all(np.array_equal(x.op, y.op) for x, y in zip(a.terms, b.terms))
    assert any(not np.array_equal(x.op, y.op) for x, y in zip(a.terms, c.terms))


def test_unknown_kind_and_bad_params():
    with pytest.raises(UnknownKind):
        make_instance("heisenberg", 3)
    with pytest.raises(BadParams):
        make_instance("zz_chain", 1)


def test_interaction_degree_chain():
    assert interaction_degree(make_instance("zz_chain", 5)) == 2
    assert interaction_degree(make_instance("zz_chain", 2)) == 0


def test_noncommutation_degree():
    x = PAULI_X
    z = PAULI_Z
    assert noncommutation_degree([x, z]) == 1
    assert noncommutation_degree([x, x]) == 0


@pytest.mark.parametrize("factor,expected", [(0.5, 0), (2.0, 1)])
def test_projector_degree_at_the_tolerance(factor, expected):
    # Rank-one projectors onto e_0 and cos(t) e_0 + sin(t) e_1 have
    # ||[P, Q]|| = sin(t) cos(t); both sit in a randomly rotated frame.
    tol = 1e-10
    theta = 0.5 * np.arcsin(2.0 * factor * tol)
    rng = np.random.default_rng(4)
    frame, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    va = frame[:, :1]
    vb = np.cos(theta) * frame[:, :1] + np.sin(theta) * frame[:, 1:2]
    assert projector_noncommutation_degree([va, vb], tol) == expected
    dense = [va @ va.conj().T, vb @ vb.conj().T]
    assert noncommutation_degree(dense, tol) == expected


def test_standard_couplings():
    xs = standard_couplings(3, "x")
    assert len(xs) == 3 and xs[0].support == (0,)
    xz = standard_couplings(2, "xz")
    assert len(xz) == 4
    with pytest.raises(UnknownKind):
        standard_couplings(2, "w")


def test_assemble_matches_manual_sum():
    ham = make_instance("zz_chain", 3)
    h = assemble(ham)
    manual = sum(embed(t, 3) for t in ham.terms)
    assert np.abs(h - manual).max() < 1e-14
    assert np.abs(h - h.conj().T).max() < 1e-14
