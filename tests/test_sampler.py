"""Round-channel composition, mixing traces, contraction probes."""

from __future__ import annotations

import numpy as np
import pytest

from dlgibbs.errors import BadParams, IrreducibilityWarning
from dlgibbs.hamiltonians import assemble, make_instance, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, cptp_check, gibbs_state
from dlgibbs.sampler import (
    compose_dl_channel,
    contraction_check,
    iterate,
    superop_hamiltonian,
)


def _zz3_setup(beta: float = 0.5, kinds: str = "x"):
    ham = make_instance("zz_chain", 3)
    w = WeightProfile(kind="davies_kms", beta=beta)
    terms = build_model(ham, standard_couplings(3, kinds), w)
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    return ham, terms, kms


def _reference_composite(bases, sigma):
    """Ordered product of Gamma^{-1/2} V_m V_m dagger Gamma^{1/2}.

    The quarter powers come from a fresh eigh of sigma, not from KmsForm.
    """
    ev, vecs = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    quarter = (vecs * ev**0.25) @ vecs.conj().T
    inv_quarter = (vecs * ev**-0.25) @ vecs.conj().T
    gamma = np.kron(quarter, quarter.conj())
    gamma_inv = np.kron(inv_quarter, inv_quarter.conj())
    out = np.eye(gamma.shape[0])
    for v in bases:
        out = out @ (gamma_inv @ (v @ v.conj().T) @ gamma)
    return out


def test_compose_orders_and_factors():
    _, terms, kms = _zz3_setup()
    ch = compose_dl_channel(terms, kms)
    assert ch.m == 3
    manual = _reference_composite(ch.kernel_bases, kms.sigma)
    assert np.abs(ch.composite.mat - manual).max() < 1e-12
    # The reversed order is a different map, so the check above fixes it.
    reverse = _reference_composite(ch.kernel_bases[::-1], kms.sigma)
    assert np.abs(ch.composite.mat - reverse).max() > 1e-6


_REFERENCE_MODELS = [
    ("zz_chain", 0, "x"),
    ("zz_chain", 0, "xz"),
    ("random_ff_projectors", 2, "x"),
]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind,seed,kinds", _REFERENCE_MODELS)
def test_channel_matches_independent_references(kind, seed, kinds, beta):
    # Each object compose_dl_channel derives in its single pass is checked
    # against a derivation of its own: the generator spectrum from the
    # summed Lindbladian, each Pi_m from a fresh eigh of its coherent form,
    # and the composite from the quarter powers of a fresh eigh of sigma.
    from dlgibbs.kms import (
        coherent_form,
        lindblad_superoperator,
        spectral_report,
        term_superoperator,
    )

    ham = make_instance(kind, 3, seed=seed)
    w = WeightProfile(kind="davies_kms", beta=beta)
    terms = build_model(ham, standard_couplings(3, kinds), w)
    sigma = gibbs_state(assemble(ham), beta)
    kms = KmsForm(sigma)
    ch = compose_dl_channel(terms, kms)
    ref = spectral_report(lindblad_superoperator(terms, 3), kms)
    assert ch.kernel_dim == ref.kernel_dim
    assert abs(ch.gap - ref.gap) <= 1e-12 * max(1.0, ref.gap)
    assert ch.m == len(terms) == len(ch.kernel_bases)
    for t, basis in zip(terms, ch.kernel_bases):
        pi = basis @ basis.conj().T
        h = coherent_form(term_superoperator(t, 3), kms).mat
        hw, hv = np.linalg.eigh(0.5 * (h + h.conj().T))
        vk = hv[:, np.abs(hw) <= 1e-9 * max(1.0, np.abs(hw).max())]
        assert np.abs(pi - pi.conj().T).max() < 1e-12
        assert np.abs(pi @ pi - pi).max() < 1e-10
        assert np.abs(pi - vk @ vk.conj().T).max() < 1e-10
    reference = _reference_composite(ch.kernel_bases, sigma)
    assert np.abs(ch.composite.mat - reference).max() < 1e-10


def _kms_projectors(ch):
    return [v @ v.conj().T for v in ch.kernel_bases]


def test_kms_projectors_are_orthogonal_projectors():
    _, terms, kms = _zz3_setup()
    ch = compose_dl_channel(terms, kms)
    for p in _kms_projectors(ch):
        assert np.abs(p @ p - p).max() < 1e-9
        assert np.abs(p - p.conj().T).max() < 1e-9


def test_round_channel_is_cptp_in_schrodinger_picture():
    _, terms, kms = _zz3_setup()
    ch = compose_dl_channel(terms, kms)
    rep = cptp_check(ch.composite, tol=1e-8)
    assert rep.cp and rep.tp


def test_iterate_reducible_x_couplings():
    # X-only couplings on a ZZ chain conserve the global spin flip, so the
    # stationary space is two-dimensional and the bound is constant.
    _, terms, kms = _zz3_setup()
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.warns(IrreducibilityWarning):
        ch = compose_dl_channel(terms, kms)
        trace = iterate(ch, rho0, kms, k_max=30)
    assert trace.kernel_dim == 2
    assert trace.gap < 1e-8
    assert trace.q == pytest.approx(1.0)
    assert np.all(trace.bounds == trace.bounds[0])
    assert trace.trace_distances[0] <= trace.bounds[0]
    assert trace.violations.size == 0
    assert np.array_equal(trace.channel_applications, 3 * np.arange(31))


def test_iterate_converges_with_xz_couplings():
    _, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    trace = iterate(ch, rho0, kms, k_max=40)
    assert trace.kernel_dim == 1
    assert trace.gap > 0
    assert 0 < trace.q < 1
    assert trace.trace_distances[-1] < 1e-6
    assert trace.violations.size == 0
    assert np.all(np.diff(trace.bounds) <= 0)


def test_iterate_validates_initial_state():
    _, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms)
    with pytest.raises(BadParams):
        iterate(ch, np.eye(8, dtype=complex), kms, 1)
    bad = np.zeros((8, 8), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(BadParams):
        iterate(ch, bad, kms, 1)


def test_contraction_check_centered_observables():
    _, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms)
    rep = contraction_check(ch, kms, trials=20, seed=1)
    assert rep.passed
    assert rep.max_ratio <= 1.0 + 1e-8
    assert rep.bound == 1.0
    assert rep.stationarity_residual <= 1e-10
    assert rep.vacuous_trials == 0


def test_superop_hamiltonian_gap_ordering_on_zoo_models():
    from dlgibbs.hamiltonians import LocalOperator, PAULI_Z, LocalHamiltonian
    from dlgibbs.kms import lindblad_superoperator, spectral_report

    single_z = LocalHamiltonian(
        n=1, terms=(LocalOperator(PAULI_Z.astype(complex), (0,)),)
    )
    hams = [
        single_z,
        make_instance("zz_chain", 2),
        make_instance("zz_chain", 3),
        make_instance("field_chain", 3),
    ]
    for beta in (0.0, 0.5, 1.0):
        for ham in hams:
            w = WeightProfile(kind="davies_kms", beta=beta)
            terms = build_model(ham, standard_couplings(ham.n, "x"), w)
            kms = KmsForm(gibbs_state(assemble(ham), beta))
            hl_rep = superop_hamiltonian(terms, kms)
            l_rep = spectral_report(lindblad_superoperator(terms, ham.n), kms)
            assert hl_rep.gap >= l_rep.gap - 1e-8
            assert hl_rep.kernel_dim == l_rep.kernel_dim
            assert hl_rep.db_residual < 1e-9
            assert np.all(hl_rep.eigenvalues >= -1e-10)


def test_gap_ordering_holds_for_normalized_xz_model():
    from dlgibbs.kms import lindblad_superoperator, spectral_report

    ham = make_instance("zz_chain", 3)
    w = WeightProfile(kind="davies_kms", beta=0.5)
    terms = build_model(ham, standard_couplings(3, "xz"), w, normalize=True)
    kms = KmsForm(gibbs_state(assemble(ham), 0.5))
    hl_rep = superop_hamiltonian(terms, kms)
    l_rep = spectral_report(lindblad_superoperator(terms, 3), kms)
    assert hl_rep.kernel_dim == 1 and l_rep.kernel_dim == 1
    assert hl_rep.gap >= l_rep.gap - 1e-8


def test_gap_ordering_warns_for_oversized_factors():
    # Unnormalized XZ couplings push the coherent-form factor norms above 1,
    # where the ordering is no longer a theorem and indeed reverses here.
    _, terms, kms = _zz3_setup(kinds="xz")
    with pytest.warns(UserWarning, match="unit-norm"):
        rep = superop_hamiltonian(terms, kms)
    assert rep.kernel_dim == 1
    assert rep.gap > 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_detectability_inequality_on_probe():
    from dlgibbs.hamiltonians import noncommutation_degree

    _, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms)
    rep = superop_hamiltonian(terms, kms)
    projectors = _kms_projectors(ch)
    g = noncommutation_degree(projectors)
    assert g == ch.g
    d2 = kms.dim**2
    h_l = np.zeros((d2, d2), dtype=complex)
    for p in projectors:
        h_l += np.eye(d2) - p
    w, v = np.linalg.eigh(0.5 * (h_l + h_l.conj().T))
    kernel = v[:, np.abs(w) <= 1e-9 * max(1.0, np.abs(w).max())]
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = rng.normal(size=d2) + 1j * rng.normal(size=d2)
        psi = psi - kernel @ (kernel.conj().T @ psi)
        psi = psi / np.linalg.norm(psi)
        phi = psi
        for p in projectors:
            phi = p @ phi
        nrm2 = float(np.linalg.norm(phi) ** 2)
        if nrm2 < 1e-14:
            continue
        phi_hat = phi / np.linalg.norm(phi)
        e_phi = float(np.real(phi_hat.conj() @ h_l @ phi_hat))
        assert nrm2 <= 1.0 / (e_phi / g**2 + 1.0) + 1e-9
    assert rep.dl_residual_energy > 0


def test_fixed_point_of_round_channel():
    _, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms)
    schro = ch.composite.adjoint()
    assert np.abs(schro.apply(kms.sigma) - kms.sigma).max() < 1e-10


def test_iterate_and_contraction_check_share_channel_invariants(monkeypatch):
    import dlgibbs.sampler as sampler

    counts = {"coherent_spectrum": 0, "projector_noncommutation_degree": 0}
    for name in counts:
        real = getattr(sampler, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sampler, name, counted)
    _, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    trace = iterate(ch, rho0, kms, k_max=5)
    rep = contraction_check(ch, kms, trials=5, seed=1)
    assert (trace.g, trace.q) == (rep.g, rep.q) == (ch.g, ch.q)
    assert (trace.gap, trace.kernel_dim) == (ch.gap, ch.kernel_dim)
    assert ch.g > 0 and 0.0 < ch.q < 1.0
    assert counts == {"coherent_spectrum": 1, "projector_noncommutation_degree": 1}
