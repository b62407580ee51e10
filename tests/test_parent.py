"""Parent Hamiltonian assembly, purification, locality, projector input."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

import dlgibbs.parent
from dlgibbs.errors import (
    BadParams,
    NotDetailedBalanced,
    NotLocal,
    PositiveEigenvalue,
    PositivityFailure,
)
from dlgibbs.hamiltonians import (
    PAULI_Z,
    LocalHamiltonian,
    LocalOperator,
    Sectors,
    assemble,
    embed,
    make_instance,
    standard_couplings,
)
from dlgibbs.jumps import WeightProfile, build_model, model_terms
from dlgibbs.kms import (
    KmsForm,
    LindbladTerm,
    coherent_form,
)
from dlgibbs.linalg import partial_trace, spectral_norm, vectorize
from dlgibbs.parent import (
    ParentHamiltonian,
    TermStack,
    build_parent,
    parent_projector_input,
    purified_gibbs,
    verify_parent,
)
from dlgibbs.sampler import compose_dl_channel
from dlgibbs.tolerances import DETAILED_BALANCE_TOL
from reference import (
    gibbs_state, lindblad_superoperator, parent_matrix, spectral_report, term_matrix, whole_terms,
)


def _model(ham, beta, kinds="x"):
    w = WeightProfile(kind="davies_kms", beta=beta)
    terms = build_model(ham, standard_couplings(ham.n, kinds), w)
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    return terms, kms


def _single_z():
    return LocalHamiltonian(
        n=1, terms=(LocalOperator(PAULI_Z.astype(complex), (0,)),)
    )


def test_vectorization_intertwining():
    rng = np.random.default_rng(11)
    for _ in range(4):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = vectorize(a @ x @ b.conj().T)
        rhs = np.kron(a, b.conj()) @ vectorize(x)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_purified_gibbs_golden_values():
    psi0 = purified_gibbs(_single_z(), 0.0)
    assert np.abs(psi0 - np.array([1, 0, 0, 1]) / np.sqrt(2)).max() < 1e-14
    z = np.exp(-1.0) + np.exp(1.0)
    expect = np.zeros(4)
    expect[0] = np.sqrt(np.exp(-1.0) / z)
    expect[3] = np.sqrt(np.exp(1.0) / z)
    psi = purified_gibbs(_single_z(), 1.0)
    assert np.abs(psi - expect).max() < 1e-14


def test_purified_gibbs_ground_state_limit():
    ham = make_instance("field_chain", 3)
    psi = purified_gibbs(ham, 25.0)
    target = np.zeros(64)
    target[0] = 1.0
    assert np.abs(np.abs(psi) - target).max() < 1e-4


def test_purified_gibbs_partial_trace():
    for beta in (0.0, 0.5, 1.0):
        ham = make_instance("zz_chain", 3)
        psi = purified_gibbs(ham, beta)
        rho = partial_trace(np.outer(psi, psi.conj()), keep=[0, 1, 2], dims=[2] * 6)
        assert np.abs(rho - gibbs_state(assemble(ham), beta)).max() < 1e-10


def test_build_parent_single_qubit_golden():
    terms, kms = _model(_single_z(), 1.0)
    ph = build_parent(terms, kms, _single_z(), beta=1.0)
    full = parent_matrix(ph)
    assert np.linalg.norm(full @ ph.ground) <= 1e-10
    ev = np.linalg.eigvalsh(full)
    assert ev.max() <= 1e-10
    assert np.abs(ph.ground - purified_gibbs(_single_z(), 1.0)).max() < 1e-12


def test_build_parent_beta_zero_is_maximally_entangled():
    ham = make_instance("zz_chain", 2)
    terms, kms = _model(ham, 0.0)
    ph = build_parent(terms, kms, ham, beta=0.0)
    ident = vectorize(np.eye(4, dtype=complex)) / 2.0
    assert np.abs(ph.ground - ident).max() < 1e-12
    assert np.linalg.norm(parent_matrix(ph) @ ph.ground) <= 1e-10


def _heisenberg_action(term, n, y):
    """L_a(Y) = i[G, Y] + sum_j (L_j' Y L_j - {L_j' L_j, Y} / 2), no kron."""
    out = np.zeros_like(y)
    for j in term.jumps:
        lj = embed(j, n)
        ldl = lj.conj().T @ lj
        out += lj.conj().T @ y @ lj - 0.5 * (ldl @ y + y @ ldl)
    if term.coherent is not None:
        g = embed(term.coherent, n)
        out += 1j * (g @ y - y @ g)
    return out


@pytest.mark.parametrize(
    "kind, seed", [("zz_chain", 0), ("random_ff_projectors", 2)]
)
@pytest.mark.parametrize("kinds", ["x", "xz", "xyz"])
def test_parent_terms_match_operator_level_conjugation(kind, seed, kinds):
    # H^a v(X) = v(sigma^{1/4} L_a(sigma^{-1/4} X sigma^{-1/4}) sigma^{1/4}),
    # with the quarter powers taken from a fresh eigendecomposition of sigma
    # and L_a applied as operator products.  The non-commuting instance has
    # a complex sigma and coherent parts; there a transposed quarter power
    # on the right of the vectorized conjugation shows as an O(1) error.
    ham = make_instance(kind, 3, seed=seed)
    rng = np.random.default_rng(5)
    for beta in (0.0, 0.5, 1.0):
        terms, kms = _model(ham, beta, kinds=kinds)
        ph = build_parent(terms, kms, ham, beta=beta)
        w, v = np.linalg.eigh(gibbs_state(assemble(ham), beta))
        quarter = (v * w**0.25) @ v.conj().T
        inv_quarter = (v * w**-0.25) @ v.conj().T
        for term, pt in zip(terms, ph.terms):
            x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            x /= np.linalg.norm(x)
            y = _heisenberg_action(term, 3, inv_quarter @ x @ inv_quarter)
            expect = vectorize(quarter @ y @ quarter)
            h_a = embed(LocalOperator(term_matrix(pt), pt.support), 6)
            err = np.linalg.norm(h_a @ vectorize(x) - expect)
            assert err <= 1e-12 * max(1.0, pt.norms[0])


def test_parent_spectrum_matches_coherent_form():
    ham = make_instance("zz_chain", 2)
    terms, kms = _model(ham, 0.7, kinds="xz")
    ph = build_parent(terms, kms, ham, beta=0.7)
    form = coherent_form(lindblad_superoperator(terms, 2), kms)
    w_parent = np.sort(np.linalg.eigvalsh(parent_matrix(ph)))
    w_form = np.sort(np.linalg.eigvalsh(0.5 * (form.mat + form.mat.conj().T)))
    assert np.abs(w_parent - w_form).max() < 1e-9


def test_parent_gap_equals_generator_gap():
    ham = make_instance("zz_chain", 2)
    terms, kms = _model(ham, 0.7, kinds="xz")
    ph = build_parent(terms, kms, ham, beta=0.7)
    rep = spectral_report(lindblad_superoperator(terms, 2), kms)
    w = np.sort(np.linalg.eigvalsh(parent_matrix(ph)))[::-1]
    assert rep.kernel_dim == 1
    assert abs((w[0] - w[1]) - rep.gap) < 1e-9


def test_parent_reports_generator_gap_and_kernel_dim():
    ham = make_instance("zz_chain", 2)
    reducible = 0
    for kinds in ("x", "xz"):
        for beta in (0.0, 0.7):
            terms, kms = _model(ham, beta, kinds=kinds)
            ph = build_parent(terms, kms, ham, beta=beta)
            rep = spectral_report(lindblad_superoperator(terms, 2), kms)
            assert ph.kernel_dim == rep.kernel_dim
            assert abs(ph.gap - rep.gap) <= 1e-12 * max(1.0, rep.gap)
            if ph.kernel_dim >= 2:
                assert ph.gap == 0.0
                reducible += 1
    # couplings x leave the zz chain reducible
    assert reducible == 2


def test_build_parent_checks_the_sum_of_the_terms():
    # At beta = 0 a coherent part eps * Z_0 gives a term the defect
    # 2 ||eps Z_0 (x) I - I (x) eps Z_0^T|| = 4 eps: 0.8e-8 per term passes,
    # and two aligned terms sum to 1.6e-8, which does not.
    ham = make_instance("zz_chain", 2)
    terms, kms = _model(ham, 0.0)
    g = LocalOperator(0.2e-8 * np.kron(PAULI_Z, np.eye(2)), (0, 1))
    tilted = [LindbladTerm(t.jumps, g, t.support) for t in terms[:2]]
    build_parent(tilted[:1], kms, ham, beta=0.0)
    with pytest.raises(NotDetailedBalanced, match="the sum of the terms"):
        build_parent(tilted, kms, ham, beta=0.0)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_build_parent_detailed_balance_boundary(monkeypatch, factor):
    # h + e with e anti-Hermitian keeps the symmetrized h and has
    # ||(h + e) - (h + e) dagger|| = ||h - h dagger + 2e||, with h Hermitian
    # to rounding; e is sized so that this defect is factor times the
    # absolute cut DETAILED_BALANCE_TOL.  ||h|| > 2, so a cut relative to
    # max(1, ||h||) would let the [2.0] case pass.
    ham = _single_z()
    terms, kms = _model(ham, 1.0)
    h = coherent_form(lindblad_superoperator(terms, 1), kms).mat
    assert np.linalg.norm(h, 2) > 2.0
    bound = DETAILED_BALANCE_TOL
    rng = np.random.default_rng(5)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    e = b - b.conj().T
    e *= 0.5 * factor * bound / np.linalg.norm(e, 2)
    real = dlgibbs.parent.coherent_terms

    def tilted(*args):
        for form, *rest in real(*args):
            yield (replace(form, mat=form.mat + e), *rest)

    monkeypatch.setattr(dlgibbs.parent, "coherent_terms", tilted)
    if factor < 1:
        ph = build_parent(terms, kms, ham)
        assert ph.terms[0].db_residual[0] >= factor * bound
    else:
        with pytest.raises(NotDetailedBalanced, match="term 0"):
            build_parent(terms, kms, ham)


def _shifted_forms(monkeypatch, shifts):
    """Make build_parent see each coherent form h_a as h_a + shifts[a] I."""
    real = dlgibbs.parent.coherent_terms

    def shifted(terms, kms, ham):
        for (h, legs, site_kms, locality), c in zip(real(terms, kms, ham), shifts):
            mat = h.mat + c * np.eye(h.mat.shape[0])
            yield replace(h, mat=mat), legs, site_kms, locality

    monkeypatch.setattr(dlgibbs.parent, "coherent_terms", shifted)


def test_build_parent_refuses_a_positive_eigenvalue(monkeypatch):
    # Shifting one term by 1e-3 I lifts the purified Gibbs state, in the
    # kernel of every term, to energy 1e-3.  The bound sum_a
    # max(0, lambda_max(H^a)) = 1e-3 is above the 1e-8 rule, so the
    # spectrum of the sum is taken, and it fires.
    ham = make_instance("zz_chain", 2)
    terms, kms = _model(ham, 0.5, kinds="xz")
    _shifted_forms(monkeypatch, [1e-3] + [0.0] * (len(terms) - 1))
    with pytest.raises(PositiveEigenvalue, match=r"parent has positive eigenvalue 1\.000e-03"):
        build_parent(terms, kms, ham, beta=0.5)


def test_build_parent_lets_the_spectrum_decide_what_the_bound_cannot(monkeypatch):
    # +c I on one term and -c I on another leave the sum as it was, but the
    # first term has eigenvalue c > 1e-8.  The spectrum of the sum is taken
    # at build time, passes, and is what gap and kernel_dim read.
    ham = make_instance("zz_chain", 2)
    terms, kms = _model(ham, 0.5, kinds="xz")
    plain = build_parent(terms, kms, ham, beta=0.5)
    plain_gap, plain_dim = plain.gap, plain.kernel_dim
    spectra = []
    real_spectrum = dlgibbs.parent.coherent_spectrum

    def counted(h):
        spectra.append(h.shape)
        return real_spectrum(h)

    monkeypatch.setattr(dlgibbs.parent, "coherent_spectrum", counted)
    c = 1e-3
    _shifted_forms(monkeypatch, [c, -c] + [0.0] * (len(terms) - 2))
    ph = build_parent(terms, kms, ham, beta=0.5)
    assert max(t.eigenvalues[0, -1] for t in ph.terms) >= c - 1e-12
    # One spectrum of the sum, by its 2^n sectors of side 2^n.
    assert spectra == [(4, 4, 4)]
    assert ph.kernel_dim == plain_dim == 1
    assert abs(ph.gap - plain_gap) <= 1e-12 * max(1.0, plain_gap)
    # Reading gap and kernel_dim took no second spectrum.
    assert spectra == [(4, 4, 4)]


def test_parent_frustration_free_on_zoo_models():
    hams = [
        _single_z(),
        make_instance("zz_chain", 2),
        make_instance("zz_chain", 3),
        make_instance("field_chain", 3),
    ]
    for ham in hams:
        for beta in (0.0, 0.5, 1.0):
            terms, kms = _model(ham, beta)
            ph = build_parent(terms, kms, ham, beta=beta)
            rep = verify_parent(ph)
            assert rep.max_frustration <= 1e-9
            assert max(t.db_residual[0] for t in ph.terms) <= 1e-9
            if rep.locality_checked:
                assert max(rep.locality_residuals) <= 1e-9


def test_build_parent_rejects_wrong_state():
    ham = make_instance("zz_chain", 2)
    terms, _ = _model(ham, 0.5)
    wrong = KmsForm(gibbs_state(assemble(ham), 1.0))
    with pytest.raises(NotDetailedBalanced):
        build_parent(terms, wrong, ham, beta=0.5)


def test_detailed_balance_message_names_beta_only_when_given():
    # The parent and anneal experiments pass their beta; the mix builds its
    # channel on the parent's terms without one, and its message says
    # nothing of beta.
    ham = make_instance("zz_chain", 2)
    terms, _ = _model(ham, 0.5)
    wrong = KmsForm(gibbs_state(assemble(ham), 1.0))
    defect = r"term 0 has detailed-balance defect \d\.\d{3}e[-+]\d\d"
    with pytest.raises(NotDetailedBalanced) as with_beta:
        build_parent(terms, wrong, ham, beta=0.5)
    assert re.fullmatch(defect + r" at beta = 0\.5 \(tolerance 1\.0e-08\)", str(with_beta.value))
    with pytest.raises(NotDetailedBalanced) as without:
        compose_dl_channel(terms, wrong, ham)
    assert re.fullmatch(defect + r" \(tolerance 1\.0e-08\)", str(without.value))


_HERMITIAN_SUM_MODELS = [
    *[("zz_chain", n, 0, kinds) for n in (3, 4) for kinds in ("x", "xz", "xyz")],
    *[("commuting_projectors", 3, seed, "xyz") for seed in (0, 1)],
    ("field_chain", 3, 0, "xz"),
    *[("random_ff_projectors", 3, seed, kinds) for seed in (0, 1, 2) for kinds in ("x", "xz")],
]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind,n,seed,kinds", _HERMITIAN_SUM_MODELS)
def test_parent_sum_is_exactly_hermitian(monkeypatch, kind, n, seed, kinds, beta):
    # Each H^a is (h_a + h_a dagger)/2, exactly Hermitian, and so is their
    # sum: the sectors coherent_spectrum diagonalizes need no
    # re-symmetrization.  Complex sums differ from their conjugate
    # transposes only in the signs of zeros, which array_equal ignores.
    ham = make_instance(kind, n, seed=seed)
    terms, kms = _model(ham, beta, kinds=kinds)
    sums = []
    real = dlgibbs.parent.coherent_spectrum

    def kept(h):
        sums.append(h.copy())
        return real(h)

    monkeypatch.setattr(dlgibbs.parent, "coherent_spectrum", kept)
    ph = build_parent(terms, kms, ham, beta=beta)
    ph.gap
    assert all(np.array_equal(term_matrix(t), term_matrix(t).conj().T) for t in ph.terms)
    # The sum is held by sector: 2^n of side 2^n for the diagonal H of the
    # commuting kinds, one of side 4^n otherwise; each is exactly Hermitian.
    sectors = (1, 4**n, 4**n) if kind == "random_ff_projectors" else (2**n,) * 3
    assert len(sums) == 1 and sums[0].shape == sectors
    assert np.array_equal(sums[0], np.swapaxes(sums[0].conj(), 1, 2))


def test_verify_parent_skips_locality_for_noncommuting():
    ham = make_instance("random_ff_projectors", 3, seed=2)
    terms, kms = _model(ham, 0.4)
    ph = build_parent(terms, kms, ham, beta=0.4)
    with pytest.warns(UserWarning, match="locality"):
        rep = verify_parent(ph)
    assert rep.locality_residuals is None
    assert not rep.locality_checked
    assert rep.max_frustration <= 1e-9


def test_projector_input_negates_and_normalizes():
    ham = make_instance("zz_chain", 3)
    terms, kms = _model(ham, 0.5, kinds="xz")
    ph = build_parent(terms, kms, ham, beta=0.5)
    pin = parent_projector_input(ph)
    assert pin.n == 6
    assert pin.m == ph.m
    for a, (t, eig, pt) in enumerate(zip(whole_terms(pin), pin.eigs, ph.terms, strict=True)):
        # Each parent term is held on its doubled dressed support and divided
        # by max(1, ||H^a||), read from the eigenvalues of that local matrix's
        # sector blocks, and keeps their eigenvectors.  The blocks are taken
        # here from the matrix by its sectors' indices.
        k = len(pt.support) // 2
        mat = term_matrix(pt)
        assert mat.shape == (4**k,) * 2
        assert t.support == pt.support
        idx = Sectors(k, True).index
        blocks = mat[idx[:, :, None], idx[:, None, :]]
        assert np.count_nonzero(blocks) == np.count_nonzero(mat)
        w_blocks = np.linalg.eigvalsh(blocks)
        np.testing.assert_array_equal(pt.eigenvalues[0], np.sort(w_blocks, axis=None))
        scale = max(1.0, float(np.abs(w_blocks).max()))
        whole = np.linalg.eigvalsh(mat)
        assert np.abs(pt.eigenvalues[0] - whole).max() <= 1e-13 * scale
        assert abs(scale - max(1.0, spectral_norm(mat))) <= 1e-9 * scale
        np.testing.assert_array_equal(t.op, -mat / scale)
        # The input holds the term by sector, a stack of one step: the
        # blocks -H^a / scale and H^a's eigenvectors, not copies of them.
        np.testing.assert_array_equal(pin.blocks[a][0], -blocks / scale)
        np.testing.assert_array_equal(eig.eigenvalues[0], -pt.eig.eigenvalues[0] / scale)
        assert eig.eigenvectors.base is pt.eig.eigenvectors
        w = np.linalg.eigvalsh(t.op)
        assert w.min() >= -1e-10
        assert w.max() <= 1.0 + 1e-9
    # the negated normalized parent is frustration-free with the purified
    # Gibbs state in its ground space
    full = assemble(LocalHamiltonian(n=pin.n, terms=whole_terms(pin)))
    assert np.linalg.norm(full @ ph.ground) <= 1e-9


def test_projector_input_refuses_positive_term():
    ham = make_instance("zz_chain", 2)
    terms, kms = _model(ham, 0.5)
    ph = build_parent(terms, kms, ham, beta=0.5)
    bad = ParentHamiltonian(
        terms=(
            TermStack(
                held=np.eye(16, dtype=complex)[None, None],
                support=(0, 1, 2, 3),
                state=kms,
                db_residual=np.zeros(1),
                locality_residual=np.zeros(1),
            ),
        ),
        ground=ph.ground,
        n=2,
    )
    with pytest.raises(PositivityFailure):
        parent_projector_input(bad)


def test_build_parent_refuses_a_jump_off_its_dressed_support():
    # Term 0 (x on site 0) claims the support of the term on site 3: its
    # jump is not the identity there, so the term is refused when it is
    # built, before any parent term exists.
    ham = make_instance("zz_chain", 4)
    terms, kms = _model(ham, 0.5)
    terms[0] = replace(terms[0], support=terms[3].support)
    with pytest.raises(NotLocal, match="term 0: jump 0 is not the identity"):
        build_parent(terms, kms, ham, beta=0.5)


def test_projector_input_refuses_noncommuting_parent():
    ham = make_instance("random_ff_projectors", 3, seed=2)
    terms, kms = _model(ham, 0.5)
    ph = build_parent(terms, kms, ham, beta=0.5)
    assert all(pt.support == tuple(range(6)) for pt in ph.terms)
    assert all(pt.locality_residual is None for pt in ph.terms)
    with pytest.raises(BadParams, match="parent term 0 is not local"):
        parent_projector_input(ph)


def _zz3_parent(beta):
    """build_parent of zz_chain n = 3, couplings xz, at beta or on the temperature stack beta."""
    ham = make_instance("zz_chain", 3)
    couplings = standard_couplings(ham.n, "xz")
    if np.ndim(beta):
        terms = model_terms(ham, couplings, [WeightProfile(beta=b) for b in beta])
    else:
        terms = build_model(ham, couplings, WeightProfile(beta=beta))
    return build_parent(terms, KmsForm.gibbs(ham, beta), ham, beta=beta)


_WHOLE_STACK_READERS = {
    "gap": lambda ph: ph.gap,
    "kernel_dim": lambda ph: ph.kernel_dim,
    "verify_parent": verify_parent,
    "parent_projector_input": parent_projector_input,
}


@pytest.mark.parametrize("reader", sorted(_WHOLE_STACK_READERS))
def test_whole_stack_readers_name_the_entry_to_read(reader):
    # A parent built on a temperature stack holds every temperature's terms;
    # a reader of one parent refuses it and names ph[j], and ph[j] answers
    # as the parent built at that temperature alone.
    betas = np.array([0.25, 0.5])
    ph = _zz3_parent(betas)
    read = _WHOLE_STACK_READERS[reader]
    with pytest.raises(BadParams, match=re.escape("ph[j]")):
        read(ph)
    for j, beta in enumerate(betas.tolist()):
        got, want = read(ph[j]), read(_zz3_parent(beta))
        if reader == "verify_parent":
            assert got.frustration_residuals == want.frustration_residuals
            assert got.locality_residuals == want.locality_residuals
        elif reader == "parent_projector_input":
            assert got.cluster == want.cluster
            for g, w in zip(got.blocks, want.blocks, strict=True):
                np.testing.assert_array_equal(g, w)
        else:
            assert got == want
