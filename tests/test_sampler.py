"""Round-channel composition, mixing traces, contraction probes."""

from __future__ import annotations

import numpy as np
import pytest

from dlgibbs.errors import BadParams, IrreducibilityWarning
from dlgibbs.hamiltonians import (
    LocalOperator,
    assemble,
    embed,
    make_instance,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import (
    KmsForm,
    Superoperator,
    coherent_form,
    coherent_spectrum,
    cptp_check,
    gibbs_state,
    stationary_channel,
    term_superoperator,
)
from dlgibbs.sampler import (
    DlChannel,
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


def _full_projectors(ch, n):
    """Each KMS projector Pi_m = V_m V_m dagger tensor I on the 4^n register.

    The one place where tests expand the channel's local kernel bases.
    """
    return [
        embed(LocalOperator(v @ v.conj().T, lg), 2 * n)
        for v, lg in zip(ch.kernel_bases, ch.legs)
    ]


def _reference_composite(projectors, sigma):
    """Ordered product of Gamma^{-1/2} Pi_m Gamma^{1/2}.

    The quarter powers come from a fresh eigh of sigma, not from KmsForm.
    """
    ev, vecs = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    quarter = (vecs * ev**0.25) @ vecs.conj().T
    inv_quarter = (vecs * ev**-0.25) @ vecs.conj().T
    gamma = np.kron(quarter, quarter.conj())
    gamma_inv = np.kron(inv_quarter, inv_quarter.conj())
    out = np.eye(gamma.shape[0])
    for p in projectors:
        out = out @ (gamma_inv @ p @ gamma)
    return out


def _reference_rows(composite, rho0, sigma, k_max):
    """||rho_k - sigma||_1 with rho_k from the dense Schrodinger adjoint."""
    d = sigma.shape[0]
    schro = composite.conj().T
    rho = rho0
    rows = [np.abs(np.linalg.eigvalsh(rho0 - sigma)).sum()]
    for _ in range(k_max):
        rho = (schro @ rho.reshape(-1)).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        rows.append(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())
    return np.array(rows)


def _reference_max_ratio(composite, sigma, q, trials, seed):
    """contraction_check's worst ratio with ||Y||_sigma^2 = Tr[Y' s Y s].

    Draws the same centered Hermitian X as contraction_check; s = sigma^{1/2}
    comes from a fresh eigh of sigma.
    """
    d = sigma.shape[0]
    ev, vecs = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    s = (vecs * np.sqrt(ev)) @ vecs.conj().T

    def kms_norm2(a):
        return float(np.trace(a.conj().T @ s @ a @ s).real)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = 0.5 * (b + b.conj().T)
        x = x - np.real(np.trace(sigma @ x)) * np.eye(d)
        y = (composite @ x.reshape(-1)).reshape(d, d)
        if q == 0.0:  # commuting projectors: one round kills X outright
            ratio = 0.0 if kms_norm2(y) <= 1e-24 * kms_norm2(x) else float("inf")
        else:
            ratio = kms_norm2(y) / (q * q * kms_norm2(x))
        worst = max(worst, ratio)
    return worst


def _random_state(d, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = b @ b.conj().T
    return rho / np.trace(rho).real


@pytest.mark.filterwarnings("ignore::dlgibbs.errors.IrreducibilityWarning")
def test_compose_orders_and_factors():
    ham, terms, kms = _zz3_setup()
    ch = compose_dl_channel(terms, kms, ham)
    assert ch.m == 3
    rho0 = _random_state(kms.dim, seed=4)
    row = iterate(ch, rho0, kms, k_max=1).trace_distances[1]
    manual = _reference_composite(_full_projectors(ch, ham.n), kms.sigma)
    assert abs(row - _reference_rows(manual, rho0, kms.sigma, 1)[1]) < 1e-12
    # The reversed order is a different map, so the check above fixes it.
    reverse = _reference_composite(_full_projectors(ch, ham.n)[::-1], kms.sigma)
    assert abs(row - _reference_rows(reverse, rho0, kms.sigma, 1)[1]) > 1e-6


_REFERENCE_MODELS = [
    ("zz_chain", 0, "x"),
    ("zz_chain", 0, "xz"),
    ("random_ff_projectors", 2, "x"),
]


@pytest.mark.filterwarnings("ignore::dlgibbs.errors.IrreducibilityWarning")
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind,seed,kinds", _REFERENCE_MODELS)
def test_channel_matches_independent_references(kind, seed, kinds, beta):
    # Each object compose_dl_channel derives in its single pass is checked
    # against a derivation of its own: the generator spectrum from the
    # summed Lindbladian, each Pi_m from a fresh eigh of its coherent form,
    # and the rounds iterate and contraction_check apply from a dense
    # composite built with the quarter powers of a fresh eigh of sigma.
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
    ch = compose_dl_channel(terms, kms, ham)
    ref = spectral_report(lindblad_superoperator(terms, 3), kms)
    assert ch.kernel_dim == ref.kernel_dim
    assert abs(ch.gap - ref.gap) <= 1e-12 * max(1.0, ref.gap)
    assert ch.m == len(terms) == len(ch.kernel_bases)
    for t, pi in zip(terms, _full_projectors(ch, ham.n)):
        h = coherent_form(term_superoperator(t, 3), kms).mat
        hw, hv = np.linalg.eigh(0.5 * (h + h.conj().T))
        vk = hv[:, np.abs(hw) <= 1e-9 * max(1.0, np.abs(hw).max())]
        assert np.abs(pi - pi.conj().T).max() < 1e-12
        assert np.abs(pi @ pi - pi).max() < 1e-10
        assert np.abs(pi - vk @ vk.conj().T).max() < 1e-10
    reference = _reference_composite(_full_projectors(ch, ham.n), sigma)
    rho0 = _random_state(kms.dim, seed=5)
    rows = iterate(ch, rho0, kms, k_max=20).trace_distances
    assert np.abs(rows - _reference_rows(reference, rho0, sigma, 20)).max() < 1e-12
    rep = contraction_check(ch, kms, trials=20, seed=3)
    want = _reference_max_ratio(reference, sigma, ch.q, trials=20, seed=3)
    assert abs(rep.max_ratio - want) <= 1e-12 * want


def test_iterate_matches_reference_composite_at_n4():
    ham = make_instance("zz_chain", 4)
    beta = 0.5
    terms = build_model(ham, standard_couplings(4, "xz"), WeightProfile(beta=beta))
    sigma = gibbs_state(assemble(ham), beta)
    kms = KmsForm(sigma)
    ch = compose_dl_channel(terms, kms, ham)
    rho0 = np.zeros((16, 16))
    rho0[0, 0] = 1.0
    rows = iterate(ch, rho0, kms, k_max=20).trace_distances
    reference = _reference_composite(_full_projectors(ch, ham.n), sigma)
    assert np.abs(rows - _reference_rows(reference, rho0, sigma, 20)).max() < 1e-12


def dense_channel(terms, kms, n):
    """The round channel built on the whole register, and its coherent forms.

    Each h_m comes from the 4^n superoperator of its term and sigma itself,
    with no restriction to a support: the reference the local path of
    compose_dl_channel must reproduce.
    """
    bases, forms, norms, residuals = [], [], [], []
    for t in terms:
        h = coherent_form(term_superoperator(t, n), kms)
        k = stationary_channel(h, kms)
        bases.append(k.basis)
        forms.append(h.mat)
        norms.append(k.h_norm)
        residuals.append(k.db_residual)
    _, gap, kernel_dim = coherent_spectrum(sum(forms))
    channel = DlChannel(
        m=len(terms),
        kernel_bases=tuple(bases),
        legs=(tuple(range(2 * n)),) * len(terms),
        gap=gap,
        kernel_dim=kernel_dim,
        max_factor_norm=max(norms),
        db_residual=max(residuals),
    )
    return channel, forms, norms


def assert_local_matches_dense(ham, terms, kms, k_max=50):
    """compose_dl_channel's local path against dense_channel, row by row.

    Every h_m^loc tensor I matches the dense h_m within 1e-12 max(1, ||h_m||)
    (Frobenius, which bounds the spectral norm); gap, kernel_dim, g and q
    agree (integers exactly); iterate's trace-distance and bound rows and
    contraction_check's max_ratio agree within 1e-12 absolute.
    """
    import dlgibbs.sampler as sampler

    n = ham.n
    local_forms = []
    real = sampler.stationary_channel

    def spy(h, site_kms):
        local_forms.append(h.mat)
        return real(h, site_kms)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "stationary_channel", spy)
        ch = compose_dl_channel(terms, kms, ham)
    dense, forms, norms = dense_channel(terms, kms, n)
    assert len(local_forms) == len(forms) == ch.m
    for h_loc, legs, h, h_norm in zip(local_forms, ch.legs, forms, norms):
        lifted = embed(LocalOperator(h_loc, legs), 2 * n)
        assert np.linalg.norm(lifted - h) <= 1e-12 * max(1.0, h_norm)
    assert ch.kernel_dim == dense.kernel_dim
    assert abs(ch.gap - dense.gap) <= 1e-12
    assert ch.g == dense.g
    assert abs(ch.q - dense.q) <= 1e-12
    rho0 = np.zeros((kms.dim, kms.dim))
    rho0[0, 0] = 1.0
    got = iterate(ch, rho0, kms, k_max)
    want = iterate(dense, rho0, kms, k_max)
    assert np.abs(got.trace_distances - want.trace_distances).max() <= 1e-12
    assert np.abs(got.bounds - want.bounds).max() <= 1e-12
    got_ratio = contraction_check(ch, kms, trials=10, seed=2).max_ratio
    want_ratio = contraction_check(dense, kms, trials=10, seed=2).max_ratio
    if ch.q == 0.0:
        assert got_ratio == want_ratio
    else:
        assert abs(got_ratio - want_ratio) <= 1e-12 * max(1.0, want_ratio)
    return ch


@pytest.mark.filterwarnings("ignore::dlgibbs.errors.IrreducibilityWarning")
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("couplings", ["x", "xz", "xyz"])
@pytest.mark.parametrize("kind", ["zz_chain", "field_chain", "commuting_projectors"])
def test_local_channel_matches_dense_path(kind, couplings, beta, n):
    ham = make_instance(kind, n)
    terms = build_model(ham, standard_couplings(n, couplings), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    ch = assert_local_matches_dense(ham, terms, kms)
    # At n = 4 no dressed support is the whole chain, so every term is local.
    if n == 4:
        assert all(len(legs) < 2 * n for legs in ch.legs)


def test_noncommuting_model_builds_on_the_whole_register():
    ham = make_instance("random_ff_projectors", 3, seed=2)
    terms = build_model(ham, standard_couplings(3, "x"), WeightProfile(beta=0.5))
    kms = KmsForm(gibbs_state(assemble(ham), 0.5))
    ch = compose_dl_channel(terms, kms, ham)
    dense, _, _ = dense_channel(terms, kms, 3)
    assert ch.legs == dense.legs
    for got, want in zip(ch.kernel_bases, dense.kernel_bases):
        assert got.tobytes() == want.tobytes()
    assert (ch.gap, ch.kernel_dim, ch.g) == (dense.gap, dense.kernel_dim, dense.g)


def test_term_that_is_not_local_on_its_support_is_refused():
    from dataclasses import replace

    from dlgibbs.errors import NotLocal

    ham = make_instance("zz_chain", 4)
    terms = build_model(ham, standard_couplings(4, "x"), WeightProfile(beta=0.5))
    kms = KmsForm(gibbs_state(assemble(ham), 0.5))
    # A state that is not the Gibbs state of ham: the jumps are local, but
    # their sigma^{1/4} conjugates are not, so no local KMS form is exact.
    with pytest.raises(NotLocal, match=r"term 0: jump 0 as sigma\^\{1/4\}"):
        compose_dl_channel(terms, KmsForm(_random_state(kms.dim, seed=1)), ham)
    # Term 0 (x on site 0) claims the support of the term on site 3.
    terms[0] = replace(terms[0], support=terms[3].support)
    with pytest.raises(NotLocal, match="term 0: jump 0 is not the identity"):
        compose_dl_channel(terms, kms, ham)


def _arrays(obj):
    """Every array reachable through obj's fields, tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _arrays(item)


def test_channel_holds_no_superoperator_sized_array():
    for n in (3, 4):
        ham = make_instance("zz_chain", n)
        beta = 0.5
        terms = build_model(ham, standard_couplings(n, "xz"), WeightProfile(beta=beta))
        kms = KmsForm(gibbs_state(assemble(ham), beta))
        ch = compose_dl_channel(terms, kms, ham)
        assert ch.g > 0 and ch.q > 0  # computed on first read, then held
        shapes = [a.shape for a in _arrays(ch)]
        assert len(shapes) == ch.m
        # A commuting model keeps each kernel basis on its doubled dressed
        # support: 4^|S_m| rows, fewer than 4^n unless S_m is the whole chain.
        for t, basis, legs in zip(terms, ch.kernel_bases, ch.legs):
            s = t.support
            assert legs == s + tuple(q + n for q in s)
            assert basis.shape[0] == 4 ** len(s)


def test_kms_projectors_are_orthogonal_projectors():
    ham, terms, kms = _zz3_setup()
    ch = compose_dl_channel(terms, kms, ham)
    for p in _full_projectors(ch, ham.n):
        assert np.abs(p @ p - p).max() < 1e-9
        assert np.abs(p - p.conj().T).max() < 1e-9


def test_round_channel_is_cptp_in_schrodinger_picture():
    ham, terms, kms = _zz3_setup()
    ch = compose_dl_channel(terms, kms, ham)
    reference = _reference_composite(_full_projectors(ch, ham.n), kms.sigma)
    rep = cptp_check(Superoperator(reference, "heisenberg", kms.dim), tol=1e-8)
    assert rep.cp and rep.tp


def test_iterate_reducible_x_couplings():
    # X-only couplings on a ZZ chain conserve the global spin flip, so the
    # stationary space is two-dimensional and the bound is constant.
    ham, terms, kms = _zz3_setup()
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.warns(IrreducibilityWarning):
        ch = compose_dl_channel(terms, kms, ham)
        trace = iterate(ch, rho0, kms, k_max=30)
    assert trace.kernel_dim == 2
    assert trace.gap < 1e-8
    assert trace.q == pytest.approx(1.0)
    assert np.all(trace.bounds == trace.bounds[0])
    assert trace.trace_distances[0] <= trace.bounds[0]
    assert np.all(trace.trace_distances <= trace.bounds + 1e-9)
    assert np.array_equal(trace.channel_applications, 3 * np.arange(31))


def test_iterate_converges_with_xz_couplings():
    ham, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms, ham)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    trace = iterate(ch, rho0, kms, k_max=40)
    assert trace.kernel_dim == 1
    assert trace.gap > 0
    assert 0 < trace.q < 1
    assert trace.trace_distances[-1] < 1e-6
    assert np.all(trace.trace_distances <= trace.bounds + 1e-9)
    assert np.all(np.diff(trace.bounds) <= 0)


def test_iterate_validates_initial_state():
    ham, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms, ham)
    with pytest.raises(BadParams):
        iterate(ch, np.eye(8, dtype=complex), kms, 1)
    bad = np.zeros((8, 8), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(BadParams):
        iterate(ch, bad, kms, 1)


def test_contraction_check_centered_observables():
    ham, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms, ham)
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
            hl_rep = superop_hamiltonian(terms, kms, ham)
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
    hl_rep = superop_hamiltonian(terms, kms, ham)
    l_rep = spectral_report(lindblad_superoperator(terms, 3), kms)
    assert hl_rep.kernel_dim == 1 and l_rep.kernel_dim == 1
    assert hl_rep.gap >= l_rep.gap - 1e-8


def test_gap_ordering_warns_for_oversized_factors():
    # Unnormalized XZ couplings push the coherent-form factor norms above 1,
    # where the ordering is no longer a theorem and indeed reverses here.
    ham, terms, kms = _zz3_setup(kinds="xz")
    with pytest.warns(UserWarning, match="unit-norm"):
        rep = superop_hamiltonian(terms, kms, ham)
    assert rep.kernel_dim == 1
    assert rep.gap > 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_detectability_inequality_on_probe():
    from dlgibbs.hamiltonians import noncommutation_degree

    ham, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms, ham)
    rep = superop_hamiltonian(terms, kms, ham)
    projectors = _full_projectors(ch, ham.n)
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
    ham, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms, ham)
    trace = iterate(ch, kms.sigma, kms, k_max=1)
    assert trace.trace_distances[1] < 1e-10


def test_iterate_and_contraction_check_share_channel_invariants(monkeypatch):
    import dlgibbs.sampler as sampler

    counts = {"coherent_spectrum": 0, "projector_noncommutation_degree": 0}
    for name in counts:
        real = getattr(sampler, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sampler, name, counted)
    ham, terms, kms = _zz3_setup(kinds="xz")
    ch = compose_dl_channel(terms, kms, ham)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    trace = iterate(ch, rho0, kms, k_max=5)
    rep = contraction_check(ch, kms, trials=5, seed=1)
    assert (trace.g, trace.q) == (rep.g, rep.q) == (ch.g, ch.q)
    assert (trace.gap, trace.kernel_dim) == (ch.gap, ch.kernel_dim)
    assert ch.g > 0 and 0.0 < ch.q < 1.0
    assert counts == {"coherent_spectrum": 1, "projector_noncommutation_degree": 1}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_superop_hamiltonian_does_not_compute_g(monkeypatch):
    import dlgibbs.sampler as sampler

    calls = []
    real = sampler.projector_noncommutation_degree

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampler, "projector_noncommutation_degree", counted)
    ham, terms, kms = _zz3_setup(kinds="xz")
    rep = superop_hamiltonian(terms, kms, ham)
    assert rep.kernel_dim == 1
    assert calls == []
