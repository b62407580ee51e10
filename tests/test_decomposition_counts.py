"""Deterministic guards on how many dense decompositions a call runs.

Tier-1 has no timing tests; these counts catch a change that silently
brings back a redundant eigendecomposition or SVD.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import dlgibbs.kms
from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.config import parse_config
from dlgibbs.hamiltonians import (
    assemble,
    make_instance,
    noncommutation_degree,
    standard_couplings,
)
from dlgibbs.harness import run_experiment
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, gibbs_state
from dlgibbs.linalg import spectral_norm
from dlgibbs.parent import build_parent, parent_projector_input, verify_parent
from dlgibbs.projector import dl_operator, singular_gap
from dlgibbs.sampler import compose_dl_channel, superop_hamiltonian


@pytest.fixture
def decomps(monkeypatch):
    """Record every numpy eigh, eigvalsh and SVD (incl. 2-norms).

    calls[kind] lists the input shapes of that kind, and calls["dtypes"]
    lists (kind, shape, dtype name) for every call in order.
    """
    calls: dict[str, list] = {"eigh": [], "eigvalsh": [], "svd": [], "dtypes": []}

    def record(kind, a):
        calls[kind].append(np.shape(a))
        calls["dtypes"].append((kind, np.shape(a), np.asarray(a).dtype.name))

    def recording(kind, real):
        def wrapper(a, *args, **kwargs):
            record(kind, a)
            return real(a, *args, **kwargs)

        return wrapper

    real_norm = np.linalg.norm

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            record("svd", x)
        return real_norm(x, ord, *args, **kwargs)

    for kind in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, kind, recording(kind, getattr(np.linalg, kind)))
    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls


def _complex_calls(calls, shape):
    """The recorded decompositions of the given shape that ran in complex."""
    return [
        (kind, dtype)
        for kind, sh, dtype in calls["dtypes"]
        if sh == shape and dtype.startswith("complex")
    ]


def test_dl_operator_and_singular_gap_share_one_ground_space(decomps):
    ham = make_instance("random_ff_projectors", 4, seed=0)
    d = 2**ham.n
    dl = dl_operator(ham)
    sg = singular_gap(dl, ham)
    assert decomps["eigh"].count((d, d)) == 1
    assert sg.r == dl.ground_dimension


def test_commuting_family_runs_only_the_scale_svds(decomps):
    rng = np.random.default_rng(0)
    k = 5
    mats = [np.diag(rng.normal(size=8)).astype(complex) for _ in range(k)]
    assert noncommutation_degree(mats) == 0
    assert decomps["svd"] == [(8, 8)] * k


def _count_calls(monkeypatch, name):
    """Count calls to a dlgibbs.kms function under every name it is bound to.

    Every loaded dlgibbs module that binds the function gets the counting
    wrapper, so no call path through some other module is missed.
    """
    calls = []
    real = getattr(dlgibbs.kms, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        in_package = mod_name == "dlgibbs" or mod_name.startswith("dlgibbs.")
        if in_package and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def _noncommuting_model():
    ham = make_instance("random_ff_projectors", 3, seed=2)
    beta = 0.5
    terms = build_model(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta)
    )
    return terms, KmsForm(gibbs_state(assemble(ham), beta)), ham


def test_build_parent_derives_each_term_once(monkeypatch):
    terms, kms, _ = _noncommuting_model()
    sups = _count_calls(monkeypatch, "term_superoperator")
    forms = _count_calls(monkeypatch, "coherent_form")
    ph = build_parent(terms, kms, beta=0.5)
    assert ph.m == len(terms)
    assert len(sups) == len(terms)
    assert len(forms) == len(terms)


def _zz2_model():
    ham = make_instance("zz_chain", 2)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "x"), WeightProfile(beta=beta))
    return terms, KmsForm(gibbs_state(assemble(ham), beta)), ham


def test_compose_dl_channel_builds_one_coherent_form_per_term(monkeypatch):
    terms, kms, ham = _zz2_model()
    sups = _count_calls(monkeypatch, "term_superoperator")
    forms = _count_calls(monkeypatch, "coherent_form")
    compose_dl_channel(terms, kms, ham)
    # The generator's coherent form is the sum of the terms' forms, so no
    # further superoperator or conjugation is built for its spectrum.
    assert len(sups) == len(terms)
    assert len(forms) == len(terms)


def test_superop_hamiltonian_builds_one_coherent_form_per_term(monkeypatch):
    terms, kms, ham = _zz2_model()
    sups = _count_calls(monkeypatch, "term_superoperator")
    forms = _count_calls(monkeypatch, "coherent_form")
    checks = _count_calls(monkeypatch, "cptp_check")
    superop_hamiltonian(terms, kms, ham)
    assert len(sups) == len(terms)
    assert len(forms) == len(terms)
    # H_L reads the channel compose_dl_channel builds, which checks each
    # factor CPTP once.
    assert len(checks) == len(terms)


def test_compose_dl_channel_runs_no_superoperator_svd(decomps):
    ham = make_instance("zz_chain", 3)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    d2 = 4**ham.n
    decomps["svd"].clear()
    ch = compose_dl_channel(terms, kms, ham)
    # Detailed balance is decided Frobenius-first, and g is read off the
    # kernel bases, whose projectors have norm 1 by construction.
    assert ch.g > 0
    assert decomps["svd"].count((d2, d2)) == 0


def test_commuting_compose_decomposes_each_term_on_its_support(decomps):
    from collections import Counter

    ham = make_instance("zz_chain", 4)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    for kind in ("eigh", "eigvalsh", "svd"):
        decomps[kind].clear()
    compose_dl_channel(terms, kms, ham)
    d2 = (4**ham.n, 4**ham.n)
    per_term = Counter((4 ** len(t.support),) * 2 for t in terms)
    assert max(per_term)[0] < d2[0]
    # No superoperator-sized eigh or SVD; the one 4^n eigvalsh is the
    # generator's.  Each term's kernel eigh and Choi eigvalsh run at
    # 4^|S_m|; the only other eigh are the marginals of sigma, at 2^|S_m|.
    assert d2 not in decomps["eigh"] and d2 not in decomps["svd"]
    assert Counter(decomps["eigvalsh"]) == per_term + Counter([d2])
    kernels = Counter(s for s in decomps["eigh"] if s[0] >= 2**ham.n)
    assert kernels == per_term
    assert max(s[0] for s in decomps["eigh"]) <= max(per_term)[0]


def test_commuting_model_runs_no_svd_for_its_zero_coherent_parts(decomps):
    ham = make_instance("zz_chain", 3)
    d = 2**ham.n
    terms = build_model(ham, standard_couplings(ham.n, "x"), WeightProfile(beta=0.5))
    assert all(t.coherent is None for t in terms)
    # One eigh of H; both weighted operators take ||H|| from its
    # eigenvalues, and G = 0 exactly is decided without an SVD.
    assert decomps["eigh"] == [(d, d)]
    assert decomps["svd"] == []


def test_verify_parent_runs_no_svd_for_hermiticity(decomps):
    terms, kms, _ = _noncommuting_model()
    ph = build_parent(terms, kms, beta=0.5)
    decomps["svd"].clear()
    with pytest.warns(UserWarning, match="locality checks skipped"):
        rep = verify_parent(ph, make_instance("random_ff_projectors", 3, seed=2))
    d2 = 4**ph.n
    assert (d2, d2) not in decomps["svd"]
    assert rep.hermiticity_residuals == (0.0,) * ph.m


def _anneal_setup():
    ham = make_instance("zz_chain", 2)
    couplings = standard_couplings(ham.n, "xz")
    sched = make_schedule(1.0, spectral_norm(assemble(ham)))
    return ham, couplings, WeightProfile(beta=1.0), sched


@pytest.mark.parametrize("mode", ["exact", "dl_qsvt"])
def test_anneal_derives_each_step_parent_once(monkeypatch, mode):
    ham, couplings, w, sched = _anneal_setup()
    sups = _count_calls(monkeypatch, "term_superoperator")
    forms = _count_calls(monkeypatch, "coherent_form")
    run = run_annealing(ham, couplings, w, sched, 0.1, mode)
    # One parent per scheduled temperature, beta_0 = 0 included, and one
    # superoperator and coherent form per term of it.
    assert len(sups) == len(sched.betas) * run.m_terms
    assert len(forms) == len(sched.betas) * run.m_terms


def test_exact_anneal_runs_no_superoperator_svd_per_step(decomps):
    ham, couplings, w, sched = _anneal_setup()
    d2 = 4**ham.n
    run_annealing(ham, couplings, w, sched, 0.1, "exact")
    # The only (4^n, 4^n) SVDs are each transition's SVD of P_j P_{j-1} and
    # the 2-norm of its error; the K + 1 parents and their checks run none.
    assert decomps["svd"].count((d2, d2)) == 2 * sched.steps


def test_pipeline_calls_no_reference_generator(monkeypatch):
    ham, couplings, w, sched = _anneal_setup()
    reports = _count_calls(monkeypatch, "spectral_report")
    sums = _count_calls(monkeypatch, "lindblad_superoperator")
    compose_dl_channel(*_zz2_model())
    for mode in ("exact", "dl_qsvt"):
        run_annealing(ham, couplings, w, sched, 0.1, mode)
    assert reports == []
    assert sums == []


def test_dl_qsvt_anneal_reads_parent_terms_through_local_blocks(decomps):
    ham = make_instance("zz_chain", 3)
    couplings = standard_couplings(ham.n, "xz")
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    d2 = 4**ham.n
    run_annealing(ham, couplings, WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt")
    # Per parent: the DL composite's SVD, from which the projector error is
    # read in closed form; per transition: its SVD and its error norm.
    # Parent terms are read through their local blocks, with no (4^n, 4^n)
    # SVD for norm or locality.
    k = sched.steps
    assert decomps["svd"].count((d2, d2)) == (k + 1) + 2 * k


def test_project_run_takes_one_svd_of_the_dl_operator(decomps, tmp_path):
    cfg = parse_config(
        "experiment = project\n[model]\nkind = random_ff_projectors\nn = 5\n"
        "seed = 0\n[run]\neps = 1e-06\nell_min = 1\nell_max = 40\n"
    )
    res = run_experiment(cfg, tmp_path)
    assert res.exit_code == 0
    # dl_operator's SVD of the composite; each of the 40 projector errors is
    # read off its singular values.
    d = 2**cfg.model.n
    assert decomps["svd"].count((d, d)) == 1


def _real_model(couplings):
    ham = make_instance("zz_chain", 3)
    w = WeightProfile(beta=0.5)
    terms = build_model(ham, standard_couplings(ham.n, couplings), w)
    return ham, terms, w, KmsForm(gibbs_state(assemble(ham), 0.5))


def test_real_model_runs_no_complex_superoperator_decomposition(decomps):
    ham, terms, w, kms = _real_model("xz")
    d2 = (4**ham.n, 4**ham.n)
    compose_dl_channel(terms, kms, ham)
    pin = parent_projector_input(build_parent(terms, kms, beta=0.5))
    singular_gap(dl_operator(pin.ham), pin.ham)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    run_annealing(ham, standard_couplings(ham.n, "xz"), w, sched, 0.1, "dl_qsvt")
    # Every jump, sigma, coherent form, Choi matrix, parent term and DL
    # factor of zz_chain is exactly real, so each 4^n decomposition runs the
    # real LAPACK routine.
    assert {kind for kind, sh, _ in decomps["dtypes"] if sh == d2} == {
        "eigh",
        "eigvalsh",
        "svd",
    }
    assert _complex_calls(decomps, d2) == []


def test_complex_model_keeps_complex_superoperator_decompositions(decomps):
    terms, kms, ham = _noncommuting_model()
    d2 = (kms.dim**2, kms.dim**2)
    compose_dl_channel(terms, kms, ham)
    build_parent(terms, kms, beta=0.5)
    kinds = {kind for kind, _ in _complex_calls(decomps, d2)}
    assert kinds == {"eigh", "eigvalsh"}


def test_imaginary_jumps_with_a_real_lindbladian_run_real(decomps):
    # A y coupling on a real H gives a purely imaginary jump L = iR: its
    # data stay complex, but kron(L dagger, L^T) = kron(R^T, R^T) and
    # L dagger L = R^T R are exactly real, so the superoperator is real.
    ham, terms, _, kms = _real_model("xyz")
    assert {t.jumps[0].op.dtype.name for t in terms} == {"float64", "complex128"}
    ch = compose_dl_channel(terms, kms, ham)
    assert [v.dtype for v in ch.kernel_bases] == [np.float64] * len(terms)
    assert _complex_calls(decomps, (4**ham.n, 4**ham.n)) == []
