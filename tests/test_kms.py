"""KMS form, detailed balance, spectral reports, stationary channels."""

from __future__ import annotations

import numpy as np
import pytest

from dlgibbs.errors import (
    BadParams,
    NotHermitian,
    OverflowDetected,
    PositiveEigenvalue,
    SingularSigma,
)
from dlgibbs.hamiltonians import (
    PAULI_X,
    PAULI_Z,
    LocalHamiltonian,
    LocalOperator,
    assemble,
    bohr_grid,
    make_instance,
)
from dlgibbs.jumps import WeightProfile, build_coherent, build_jump
from dlgibbs.kms import (
    KmsForm,
    LindbladTerm,
    Superoperator,
    _kron_conj_apply,
    choi_matrix,
    coherent_form,
    coherent_spectrum,
    cptp_check,
    stationary_channel,
    term_superoperator,
)
from dlgibbs.linalg import hermitian_eigendecompose
from dlgibbs.parent import purified_gibbs
from reference import (
    db_residual, gibbs_state, lindblad_superoperator, sector_eigh, spectral_report,
    whole_columns,
)


def _davies_qubit(beta: float = 1.0):
    """Single-qubit model: H = Z, coupling X, detailed-balance weights."""
    h = PAULI_Z.copy()
    w = WeightProfile(kind="davies_kms", beta=beta)
    bohr = bohr_grid(hermitian_eigendecompose(h))
    jump = build_jump(PAULI_X, bohr, w)
    coh = build_coherent(jump, bohr, w)
    term = LindbladTerm(
        jumps=(LocalOperator(jump, (0,)),),
        coherent=LocalOperator(coh, (0,)) if np.abs(coh).max() > 1e-12 else None,
        support=(0,),
    )
    kms = KmsForm(gibbs_state(h, beta))
    return term, kms


def test_gibbs_state_qubit_weights():
    sigma = gibbs_state(PAULI_Z, 1.0)
    z = np.exp(-1.0) + np.exp(1.0)
    assert abs(sigma[0, 0] - np.exp(-1.0) / z) < 1e-12
    assert abs(sigma[1, 1] - np.exp(1.0) / z) < 1e-12
    assert abs(sigma[0, 0] - 0.11920292202211756) < 1e-12
    assert abs(np.trace(sigma) - 1.0) < 1e-12


def test_gibbs_state_guards():
    with pytest.raises(BadParams):
        gibbs_state(PAULI_Z, -0.5)
    with pytest.raises(OverflowDetected):
        gibbs_state(PAULI_Z, 41.0)


def test_kms_form_normalizes_and_validates():
    kms = KmsForm(np.diag([1.6, 0.4]))
    assert abs(np.trace(kms.sigma) - 1.0) < 1e-14
    assert abs(kms.sigma_min - 0.2) < 1e-14
    assert np.abs(kms.quarter @ kms.quarter - kms.sqrt).max() < 1e-12
    assert np.abs(kms.inv_quarter @ kms.quarter - np.eye(2)).max() < 1e-12
    with pytest.raises(SingularSigma):
        KmsForm(np.diag([1.0, 0.0]))


def _rotated_spectrum(beta):
    """H = Q diag(E) Q^T on 3 qubits as one term, and its Gibbs weights w."""
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(8, 8)))
    e = np.linspace(0.0, 3.0, 8)
    ham = LocalHamiltonian(3, (LocalOperator((q * e) @ q.T, (0, 1, 2)),))
    w = np.exp(-beta * e)
    return ham, q, w / w.sum()


def _relative_error(got, want):
    return np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)


def test_gibbs_form_is_accurate_at_small_weights():
    # At beta = 8 the smallest weight is ~4e-11.  Powers read off H's own
    # eigensystem keep its accuracy; re-diagonalizing sigma loses ~5e-8 on
    # sigma^{-1/4}, whose norm the smallest weight sets.
    beta = 8.0
    ham, q, w = _rotated_spectrum(beta)
    kms = KmsForm.gibbs(ham, beta)
    assert kms.sigma_min < 1e-10
    for got, p in ((kms.quarter, 0.25), (kms.inv_quarter, -0.25), (kms.sqrt, 0.5)):
        assert _relative_error(got, (q * w**p) @ q.T) <= 1e-12
    root = ((q * np.sqrt(w)) @ q.T).reshape(-1)
    assert _relative_error(purified_gibbs(ham, beta), root) <= 1e-12


_ZOO = ("zz_chain", "field_chain", "random_ff_projectors", "commuting_projectors")


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", _ZOO)
def test_gibbs_form_matches_the_dense_route(kind, beta):
    ham = make_instance(kind, 3, seed=1)
    got = KmsForm.gibbs(ham, beta)
    want = KmsForm(gibbs_state(assemble(ham), beta))
    assert got.dim == want.dim and got.eigenvalues.dtype == want.eigenvalues.dtype
    assert abs(got.sigma_min - want.sigma_min) <= 1e-12
    for attr in ("sigma", "sqrt", "quarter", "inv_quarter"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype
        assert _relative_error(getattr(got, attr), getattr(want, attr)) <= 1e-12


@pytest.mark.parametrize(
    "beta,error", [(-0.5, BadParams), (41.0, OverflowDetected), (17.0, SingularSigma)]
)
def test_gibbs_form_refuses_what_the_dense_route_refuses(beta, error):
    # zz_chain n = 3 has spread 2: beta 41 overflows, and at beta 17 the
    # smallest weight, ~e^{-34}, is below min_eig.
    ham = make_instance("zz_chain", 3)
    with pytest.raises(error) as got:
        KmsForm.gibbs(ham, beta)
    with pytest.raises(error) as want:
        KmsForm(gibbs_state(assemble(ham), beta))
    if error is not SingularSigma:
        assert str(got.value) == str(want.value)


def test_term_superoperator_matches_dense_action():
    term, _ = _davies_qubit()
    sup = term_superoperator(term, 1)
    rng = np.random.default_rng(6)
    l = term.jumps[0].op
    g = term.coherent.op if term.coherent is not None else np.zeros((2, 2))
    for _ in range(3):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        direct = (
            l.conj().T @ x @ l
            - 0.5 * (l.conj().T @ l @ x + x @ l.conj().T @ l)
            + 1j * (g @ x - x @ g)
        )
        assert np.abs(sup.apply(x) - direct).max() < 1e-12


def test_superoperator_is_unital():
    term, _ = _davies_qubit()
    sup = lindblad_superoperator([term], 1)
    assert np.abs(sup.apply(np.eye(2))).max() < 1e-12


def test_davies_qubit_detailed_balance_and_fixed_point():
    term, kms = _davies_qubit()
    sup = lindblad_superoperator([term], 1)
    assert db_residual(sup, kms) < 1e-12
    schro = sup.adjoint()
    assert np.abs(schro.apply(kms.sigma)).max() < 1e-12


def test_davies_qubit_spectrum_closed_form():
    # Rates a = e^{-1/2}, b = e^{1/2} give coherent-form eigenvalues
    # {0, 1 - k/2, -1 - k/2, -k} with k = e + 1/e.
    term, kms = _davies_qubit()
    sup = lindblad_superoperator([term], 1)
    rep = spectral_report(sup, kms)
    k = np.exp(1.0) + np.exp(-1.0)
    expected = np.sort(np.array([0.0, 1.0 - k / 2, -1.0 - k / 2, -k]))[::-1]
    assert np.abs(rep.eigenvalues - expected).max() < 1e-12
    assert abs(rep.gap - (k / 2 - 1.0)) < 1e-12
    assert rep.kernel_dim == 1
    assert rep.db_residual < 1e-12
    assert rep.dl_residual_energy >= rep.gap - 1e-9


def _gammas(kms):
    """Dense Gamma^{1/2} = kron(q, q.conj()) and its inverse, q = sigma^{1/4}."""
    q, qi = kms.quarter, kms.inv_quarter
    return np.kron(q, q.conj()), np.kron(qi, qi.conj())


def test_coherent_form_conjugation_identity():
    term, kms = _davies_qubit()
    sup = lindblad_superoperator([term], 1)
    h = coherent_form(sup, kms)
    gamma, gamma_inv = _gammas(kms)
    recon = gamma_inv @ h.mat @ gamma
    assert np.abs(recon - sup.mat).max() < 1e-12


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_tensor_leg_conjugation_matches_dense_kron(d):
    # A complex, non-diagonal, full-rank sigma: on zz_chain's real diagonal
    # sigma q.conj() = q, so a slip in conjugation or leg order would not show.
    rng = np.random.default_rng(d)
    b = _complex_normal(rng, d, d)
    kms = KmsForm(b @ b.conj().T + 0.1 * np.eye(d))
    gamma, gamma_inv = _gammas(kms)
    lind = _complex_normal(rng, d * d, d * d)
    tol = 1e-13 * max(1.0, np.linalg.norm(lind, 2))
    h = coherent_form(Superoperator(lind, "heisenberg", d), kms)
    assert np.abs(h.mat - gamma @ lind @ gamma_inv).max() <= tol
    # The leg helper itself is stated for any square a, Hermitian or not.
    a = _complex_normal(rng, d, d)
    cols = _complex_normal(rng, d * d, 3)
    got = _kron_conj_apply(a, cols)
    assert np.abs(got - np.kron(a, a.conj()) @ cols).max() <= 1e-13 * max(
        1.0, np.linalg.norm(a, 2) ** 2 * np.linalg.norm(cols, 2)
    )


def test_stationary_channel_structure():
    term, kms = _davies_qubit()
    h = coherent_form(term_superoperator(term, 1), kms)
    kernel = stationary_channel(sector_eigh(0.5 * (h.mat + h.mat.conj().T)), kms)
    p = kernel.channel
    assert np.abs(p.mat @ p.mat - p.mat).max() < 1e-10
    assert np.abs(p.apply(np.eye(2)) - np.eye(2)).max() < 1e-10
    gamma, gamma_inv = _gammas(kms)
    hk = gamma @ p.mat @ gamma_inv
    assert np.abs(hk - hk.conj().T).max() < 1e-10
    v = whole_columns(kernel.basis)
    assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() < 1e-12
    assert np.abs(v @ v.conj().T - hk).max() < 1e-10
    assert kernel.h_norm == pytest.approx(np.linalg.norm(h.mat, 2), rel=1e-12)
    schro = p.adjoint()
    assert np.abs(schro.apply(kms.sigma) - kms.sigma).max() < 1e-10
    rep = cptp_check(p)
    assert rep.cp and rep.tp


def test_stationary_channel_rejects_wrong_state():
    # Detailed balance is build_parent's check (test_parent.py); a form
    # built against the wrong state is far from Hermitian, which the
    # eigendecomposition stationary_channel takes refuses.
    term, _ = _davies_qubit(beta=1.0)
    sup = term_superoperator(term, 1)
    wrong = KmsForm(gibbs_state(PAULI_Z, 0.3))
    with pytest.raises(NotHermitian):
        stationary_channel(sector_eigh(coherent_form(sup, wrong).mat), wrong)


def test_stationary_channel_rejects_positive_spectrum():
    term, kms = _davies_qubit()
    sup = term_superoperator(term, 1)
    flipped = Superoperator(mat=-sup.mat, picture="heisenberg", dim=2)
    h = coherent_form(flipped, kms).mat
    with pytest.raises(PositiveEigenvalue):
        stationary_channel(sector_eigh(0.5 * (h + h.conj().T)), kms)


def test_channel_routines_take_one_picture():
    # stationary_channel takes a Hermitian coherent form's eigendecomposition,
    # so a Heisenberg generator, which is not Hermitian, is refused.
    term, kms = _davies_qubit()
    sup = term_superoperator(term, 1)
    with pytest.raises(NotHermitian, match="hermiticity residual"):
        stationary_channel(sector_eigh(sup.mat), kms)
    h = coherent_form(sup, kms).mat
    channel = stationary_channel(sector_eigh(0.5 * (h + h.conj().T)), kms).channel
    for other in (channel.adjoint(), coherent_form(sup, kms)):
        with pytest.raises(BadParams, match="expects a Heisenberg channel"):
            cptp_check(other)


def test_choi_identity_and_transpose():
    d = 2
    ident = Superoperator(np.eye(d * d, dtype=complex), "schrodinger", d)
    rep = cptp_check(ident.adjoint())
    assert rep.cp and rep.tp
    w = np.linalg.eigvalsh(choi_matrix(ident.mat, d))
    assert np.abs(np.sort(w) - np.array([0.0, 0.0, 0.0, 2.0])).max() < 1e-12
    t = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            t[2 * i + j, 2 * j + i] = 1.0
    rep_t = cptp_check(Superoperator(t, "schrodinger", 2).adjoint())
    assert rep_t.tp and not rep_t.cp
    assert abs(rep_t.choi_min_eig + 1.0) < 1e-12


def test_reducible_generator_reports_zero_gap():
    # Two independent copies of the qubit model on 2 qubits: the kernel is
    # 4-dimensional in the product but already >= 2 with one coupling only.
    h = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
    w = WeightProfile(kind="davies_kms", beta=0.6)
    a = np.kron(PAULI_X, np.eye(2))
    bohr = bohr_grid(hermitian_eigendecompose(h))
    jump = build_jump(a, bohr, w)
    coh = build_coherent(jump, bohr, w)
    term = LindbladTerm(
        jumps=(LocalOperator(jump, (0, 1)),),
        coherent=LocalOperator(coh, (0, 1)) if np.abs(coh).max() > 1e-12 else None,
        support=(0, 1),
    )
    kms = KmsForm(gibbs_state(h, 0.6))
    rep = spectral_report(lindblad_superoperator([term], 2), kms)
    assert rep.kernel_dim >= 2
    assert rep.gap == 0.0


def test_coherent_spectrum_allocates_no_second_matrix():
    import tracemalloc

    rng = np.random.default_rng(6)
    h = rng.normal(size=(1024, 1024))
    h = -(h @ h.T)
    reference = np.linalg.eigvalsh(h)[::-1]
    tracemalloc.start()
    try:
        w, _, _ = coherent_spectrum(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A copy of h, as a symmetrization would make, is all of h.nbytes.
    assert peak < 0.6 * h.nbytes
    assert np.array_equal(w, reference)
