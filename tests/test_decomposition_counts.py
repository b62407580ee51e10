"""Deterministic guards on how many dense decompositions a call runs.

Tier-1 has no timing tests; these counts catch a change that silently
brings back a redundant eigendecomposition or SVD.
"""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dlgibbs
import dlgibbs.anneal
import dlgibbs.hamiltonians
import dlgibbs.harness
import dlgibbs.jumps
import dlgibbs.kms
import dlgibbs.linalg
import dlgibbs.projector
import dlgibbs.sampler
from dlgibbs.anneal import make_schedule, run_annealing
from dlgibbs.config import parse_config
from dlgibbs.errors import DlGibbsError, IrreducibilityWarning
from dlgibbs.hamiltonians import (
    assemble,
    make_instance,
    noncommutation_degree,
    standard_couplings,
)
from dlgibbs.harness import run_experiment
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm
from dlgibbs.linalg import HermitianEig, spectral_norm
from dlgibbs.parent import build_parent, parent_projector_input, verify_parent
from dlgibbs.projector import dl_operator, singular_gap
from dlgibbs.sampler import compose_dl_channel, superop_hamiltonian
from dlgibbs.tolerances import DETAILED_BALANCE_TOL, TERM_GROUND_WIDTH
from reference import gibbs_state


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
    """The recorded decompositions of a matrix with shape's rows, whole or as a stack, that ran in complex."""
    return [
        (kind, dtype)
        for kind, sh, dtype in calls["dtypes"]
        if _rows(sh) == shape[0] and dtype.startswith("complex")
    ]


def _rows(shape):
    """Rows of the matrix a recorded call decomposes, per entry of a stack.

    A stack (B, p, q) is B blocks of p, and a stack of them (E, B, p, q),
    such as a parent term at E temperatures, E entries of B blocks of p.
    """
    return shape[-3] * shape[-2] if len(shape) >= 3 else shape[0]


def test_dl_operator_and_singular_gap_share_one_ground_space(monkeypatch, decomps):
    ham = make_instance("random_ff_projectors", 4, seed=0)
    d = 2**ham.n
    embeds = _count_calls(monkeypatch, "embed", dlgibbs.hamiltonians)
    adds = _count_calls(monkeypatch, "add_embedded", dlgibbs.hamiltonians)
    dl = dl_operator(ham)
    sg = singular_gap(dl, ham)
    # r and the gap come from one eigvalsh of H, the only place a term is
    # lifted to the register: assemble adds each onto its diagonal blocks
    # of a zero matrix, so none is embedded on its own.  Frustration-freeness
    # is checked on D's own top singular vectors, so no d x d eigh or SVD runs.
    assert decomps["eigh"].count((d, d)) == 0
    assert decomps["eigvalsh"] == [(d, d)]
    assert (d, d) not in decomps["svd"]
    assert len(adds) == ham.m and all(a[1] is t for a, t in zip(adds, ham.terms))
    assert embeds == []
    assert sg.r == dl.ground_dimension


def test_commuting_family_runs_only_the_scale_svds(decomps):
    rng = np.random.default_rng(0)
    k = 5
    mats = [np.diag(rng.normal(size=8)).astype(complex) for _ in range(k)]
    assert noncommutation_degree(mats) == 0
    # Each diagonal scale is one whole SVD: spectral_norm does not split.
    assert decomps["svd"] == [(8, 8)] * k


def _count_calls(monkeypatch, name, source=dlgibbs.kms):
    """Count calls to a function of source under every name it is bound to.

    Every loaded dlgibbs module that binds the function gets the counting
    wrapper, so no call path through some other module is missed.
    """
    calls = []
    real = getattr(source, name)

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
    terms, kms, ham = _noncommuting_model()
    sups = _count_calls(monkeypatch, "term_superoperator")
    forms = _count_calls(monkeypatch, "coherent_form")
    ph = build_parent(terms, kms, ham, beta=0.5)
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
    ham = make_instance("zz_chain", 4)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    for kind in ("eigh", "eigvalsh", "svd"):
        decomps[kind].clear()
    compose_dl_channel(terms, kms, ham)
    d = 2**ham.n
    d2 = (d * d, d * d)
    per_term = Counter((4 ** len(t.support),) * 2 for t in terms)
    assert max(per_term)[0] < d2[0]
    # No superoperator-sized eigh or SVD.  The generator maps |i><j| into
    # |i'><j'| with i' xor j' = i xor j, so its spectrum is 2^n sectors of
    # side 2^n in one stacked eigvalsh.  Each term's Choi eigvalsh runs at
    # 4^|S_m|, and its kernel eigh as one stack of its 2^|S_m| sectors of
    # side 2^|S_m|.  The marginals of sigma are diagonal, so they are their
    # own eigendecompositions and take no eigh.  The parent's positivity
    # check of the sum reads the generator spectrum, so no term is
    # decomposed twice.  Each term is a stack of one temperature.
    assert all(_rows(s) < d2[0] for s in decomps["eigh"] + decomps["svd"])
    assert Counter(decomps["eigvalsh"]) == per_term + Counter([(d, d, d)])
    assert Counter(decomps["eigh"]) == Counter((1,) + (2 ** len(t.support),) * 3 for t in terms)


def test_commuting_model_runs_no_svd_for_its_zero_coherent_parts(decomps):
    ham = make_instance("zz_chain", 3)
    terms = build_model(ham, standard_couplings(ham.n, "x"), WeightProfile(beta=0.5))
    assert all(t.coherent is None for t in terms)
    # H is diagonal, so it is its own eigendecomposition and takes no eigh.
    # Both weighted operators take ||H|| from its eigenvalues, and G = 0
    # exactly is decided without an SVD.
    assert decomps["eigh"] == []
    assert decomps["svd"] == []


def test_build_model_clusters_the_bohr_frequencies_once(monkeypatch):
    ham = make_instance("random_ff_projectors", 3, seed=2)
    couplings = standard_couplings(ham.n, "xz")
    grids = _count_calls(monkeypatch, "bohr_grid", dlgibbs.hamiltonians)
    real_argsort = np.argsort
    sorts = []

    def argsort(a, *args, **kwargs):
        sorts.append(np.size(a))
        return real_argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    terms = build_model(ham, couplings, WeightProfile(beta=0.5))
    build_model(ham, couplings, WeightProfile(beta=0.9))
    # The d^2 frequencies are sorted and clustered once per Hamiltonian;
    # each jump and coherent part of both models only reads the grid.
    assert len(couplings) == 6 and all(t.coherent is not None for t in terms)
    assert len(grids) == 1
    assert sorts.count(4**ham.n) == 1


def test_exact_anneal_clusters_the_bohr_frequencies_once(monkeypatch):
    ham, couplings, w, sched = _anneal_setup()
    grids = _count_calls(monkeypatch, "bohr_grid", dlgibbs.hamiltonians)
    builds = _count_calls(monkeypatch, "model_terms", dlgibbs.jumps)
    rotations = _count_calls(monkeypatch, "_occupied", dlgibbs.jumps)
    run_annealing(ham, couplings, w, sched, 0.1, "exact")
    # One model for the whole temperature stack.  Each coupling is rotated
    # into H's eigenbasis once, and each L'L once as the stack of its K + 1
    # temperatures.
    steps = len(sched.betas)
    assert steps > 2 and len(builds) == 1 and len(builds[0][2]) == steps
    assert [np.ndim(op) for op, _ in rotations] == [2, 3] * len(couplings)
    assert all(np.shape(op)[0] == steps for op, _ in rotations if np.ndim(op) == 3)
    assert len(grids) == 1


def test_noncommuting_model_takes_no_svd_for_its_coherent_parts(decomps):
    ham = make_instance("random_ff_projectors", 4, seed=0)
    terms = build_model(ham, standard_couplings(ham.n, "x"), WeightProfile(beta=0.5))
    # Every G is far above 1e-12 max(1, ||L||_F)^2, and ||L|| <= ||L||_F, so
    # neither ||G|| nor ||L|| needs an SVD.
    assert all(t.coherent is not None for t in terms)
    assert decomps["svd"] == []


def test_verify_parent_runs_no_svd_for_hermiticity(decomps):
    terms, kms, ham = _noncommuting_model()
    ph = build_parent(terms, kms, ham, beta=0.5)
    decomps["svd"].clear()
    with pytest.warns(UserWarning, match="locality checks skipped"):
        verify_parent(ph)
    d2 = 4**ph.n
    assert (d2, d2) not in decomps["svd"]
    # The hermiticity residuals the parent experiment writes are the
    # detailed-balance defects build_parent measured on the coherent forms,
    # not the residual of their symmetrization.
    defects = []
    for t in terms:
        form = dlgibbs.kms.coherent_form(dlgibbs.kms.term_superoperator(t, ham.n), kms)
        defects.append(float(np.linalg.norm(form.mat - form.mat.conj().T)))
    residuals = tuple(t.db_residual for t in ph.terms)
    assert residuals == tuple(defects)
    assert max(residuals) <= DETAILED_BALANCE_TOL


def test_commuting_parent_builds_each_term_on_its_support(monkeypatch, decomps):
    ham = make_instance("zz_chain", 4)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    sups = _count_calls(monkeypatch, "term_superoperator")
    forms = _count_calls(monkeypatch, "coherent_form")
    traces = _count_calls(monkeypatch, "partial_trace", dlgibbs.linalg)
    decomps["eigvalsh"].clear()
    pin = parent_projector_input(build_parent(terms, kms, ham, beta=beta))
    d2 = 4**ham.n
    assert len(sups) == len(forms) == len(terms) == pin.m
    # Each term's superoperator and coherent form are built on its doubled
    # dressed support, and nothing is traced back down from 4^n.
    assert all(2 ** n < 2**ham.n for _, n in sups)
    assert all(lind.dim < 2**ham.n for lind, _ in forms)
    assert traces and all(rho.shape[0] <= 2**ham.n for rho, *_ in traces)
    # No spectrum of the sum runs: the parent's positivity is bounded by its
    # terms' eigenvalues, one stacked eigvalsh of each local matrix's sector
    # blocks, which the projector input reads for its scales; it takes one
    # stacked eigh of the same blocks for its ground bases.  Each term is a
    # stack of one temperature.
    local = Counter((1,) + (2 ** (len(legs) // 2),) * 3 for legs in pin.supports)
    assert Counter(decomps["eigh"]) == local
    assert Counter(decomps["eigvalsh"]) == local


def test_build_parent_takes_the_4n_spectrum_only_when_it_is_read(monkeypatch, decomps):
    ham = make_instance("commuting_projectors", 4, seed=1)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta))
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    spectra = _count_calls(monkeypatch, "coherent_spectrum")
    decomps["eigvalsh"].clear()
    ph = build_parent(terms, kms, ham, beta=beta)
    d2 = 4**ham.n
    # Detailed balance and positivity of the sum are decided by bounds on
    # the local terms, so no 4^n matrix is diagonalized ...
    assert spectra == []
    assert (d2, d2) not in decomps["eigvalsh"]
    assert all(t.support != tuple(range(2 * ham.n)) for t in ph.terms)
    # ... until gap or kernel_dim is read, once for both, as the 2^n blocks
    # of side 2^n that the diagonal H and Pauli couplings split it into.
    ph.gap, ph.kernel_dim, ph.gap
    d = 2**ham.n
    assert len(spectra) == 1
    assert decomps["eigvalsh"].count((d, d, d)) == 1
    assert (d2, d2) not in decomps["eigvalsh"]


def test_noncommuting_parent_takes_its_one_4n_spectrum_at_build(monkeypatch, decomps):
    terms, kms, ham = _noncommuting_model()
    spectra = _count_calls(monkeypatch, "coherent_spectrum")
    decomps["eigvalsh"].clear()
    ph = build_parent(terms, kms, ham, beta=0.5)
    ph.gap, ph.kernel_dim
    # Every term is on the whole register, where no term's spectrum is
    # cheaper than the sum's: the positivity check takes the sum's, as
    # before, and gap and kernel_dim read it, on the one sector.
    d2 = 4**ham.n
    assert len(spectra) == 1
    assert decomps["eigvalsh"] == [(1, d2, d2)]


def _bad_inputs():
    ham = make_instance("zz_chain", 2)
    terms = build_model(ham, standard_couplings(ham.n, "x"), WeightProfile(beta=0.5))
    kms = KmsForm(gibbs_state(assemble(ham), 0.5))
    three = KmsForm(np.eye(3) / 3)
    return {
        "no_terms": ([], kms, ham),
        "ham_size": (terms, kms, make_instance("zz_chain", 3)),
        "not_power_of_2": (terms, three, ham),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_build_parent_and_compose_refuse_bad_input_alike(case):
    args = _bad_inputs()[case]
    with pytest.raises(DlGibbsError) as parent_err:
        build_parent(*args, beta=0.5)
    with pytest.raises(DlGibbsError) as channel_err:
        compose_dl_channel(*args)
    assert type(parent_err.value) is type(channel_err.value)
    assert str(parent_err.value) == str(channel_err.value)


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
    # One parent per scheduled temperature, beta_0 = 0 included, built as one
    # temperature stack: one superoperator and one coherent form per term,
    # each the stack of its K + 1 temperatures.
    steps = len(sched.betas)
    assert len(sups) == len(forms) == run.m_terms
    assert all(term.jumps[0].op.shape[0] == steps for term, _ in sups)
    assert all(lind.mat.shape[0] == steps for lind, _ in forms)


def test_exact_anneal_runs_no_superoperator_svd_per_step(decomps):
    ham, couplings, w, sched = _anneal_setup()
    d2 = 4**ham.n
    run_annealing(ham, couplings, w, sched, 0.1, "exact")
    # Each transition and its error are closed forms in the rank-one
    # targets, and the K + 1 parents and their checks run no such SVD.
    assert decomps["svd"].count((d2, d2)) == 0


def test_pipeline_calls_no_reference_generator():
    # The dense generator, its spectral report, the dense Gibbs state and the
    # detailed-balance residual live in tests/reference.py.  A pipeline path
    # can call one only through a name some dlgibbs module binds, so no
    # module of the package may bind any of them.
    names = ("spectral_report", "lindblad_superoperator", "gibbs_state", "db_residual")
    modules = [dlgibbs] + [
        importlib.import_module(f"dlgibbs.{m.name}") for m in pkgutil.iter_modules(dlgibbs.__path__)
    ]
    found = [f"{mod.__name__}.{name}" for mod in modules for name in names if hasattr(mod, name)]
    assert found == []


def _numpy_decompositions(path: Path) -> Counter:
    """(module, enclosing function, name) of each numpy.linalg call in path but a plain norm.

    Counts every call of a linalg attribute (eig, eigvals, pinv, lstsq,
    solve, inv, cholesky, matrix_rank as well as eigh, eigvalsh, svd and
    qr) except norm without ord 2, and every import from numpy.linalg.
    """
    module = f"dlgibbs.{path.stem}"
    found = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.ImportFrom) and child.module in ("numpy", "numpy.linalg"):
                for alias in child.names:
                    if child.module == "numpy.linalg" or alias.name == "linalg":
                        found[(module, scope, f"import {alias.name}")] += 1
            func = child.func if isinstance(child, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "linalg"
            ):
                ords = child.args[1:2] + [k.value for k in child.keywords if k.arg == "ord"]
                two = any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)
                if func.attr != "norm" or two:
                    found[(module, scope, func.attr)] += 1
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_numpy_decompositions_outside_linalg_are_the_known_bypasses():
    # Every decomposition goes through linalg, which alone decides what it
    # runs on: none is left outside.
    src = Path(dlgibbs.__file__).parent
    found = Counter()
    for path in sorted(src.glob("*.py")):
        if path.name != "linalg.py":
            found += _numpy_decompositions(path)
    assert found == Counter()


def test_linalg_has_one_call_site_per_decomposition_path():
    # One call site per path (the checked SVD, matrix or stack, the 2-norm
    # and the two Hermitian calls): a second path fails here.
    path = Path(dlgibbs.__file__).parent / "linalg.py"
    assert _numpy_decompositions(path) == Counter({
        ("dlgibbs.linalg", "singular_value_decompose", "svd"): 1,
        ("dlgibbs.linalg", "spectral_norm", "svd"): 1,
        ("dlgibbs.linalg", "hermitian_eigendecompose", "eigh"): 1,
        ("dlgibbs.linalg", "symmetric_eigenvalues", "eigvalsh"): 1,
    })


def _module_imports(tree: ast.AST, package: str = "dlgibbs") -> set[str]:
    """Every module an import in tree names, relative imports resolved against package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"{package}.{base}" if base else package
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def _derivation_calls(path: Path) -> Counter:
    """(module, enclosing function, name) of each call of coherent_form or term_superoperator."""
    module = f"dlgibbs.{path.stem}"
    found = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            func = child.func if isinstance(child, ast.Call) else None
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("coherent_form", "term_superoperator"):
                found[(module, scope, name)] += 1
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_each_term_is_derived_in_one_place():
    # One derivation per object: the terms' coherent forms are built only
    # in parent.coherent_terms, and every experiment, the mix's channel
    # included, reads them off the parent, which builds on nothing of the
    # sampler.
    src = Path(dlgibbs.__file__).parent
    found = Counter()
    for path in sorted(src.glob("*.py")):
        found += _derivation_calls(path)
    assert found == Counter({
        ("dlgibbs.parent", "coherent_terms", "coherent_form"): 1,
        ("dlgibbs.parent", "coherent_terms", "term_superoperator"): 1,
    })
    assert "dlgibbs.sampler" not in _module_imports(ast.parse((src / "parent.py").read_text()))


@pytest.mark.parametrize(
    "kind, n, axes, parents",
    [
        ("zz_chain", 3, "xz", 3),
        ("zz_chain", 4, "xz", 4),
        ("zz_chain", 5, "xz", 5),
        ("commuting_projectors", 4, "xyz", 3),
        ("field_chain", 4, "xyz", 5),
    ],
)
def test_dl_qsvt_anneal_reads_parent_terms_through_local_blocks(
    monkeypatch, decomps, kind, n, axes, parents
):
    ham = make_instance(kind, n)
    couplings = standard_couplings(ham.n, axes)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    dl_svds, cores, norms = [], [], []

    def record(module, name, calls):
        real = getattr(module, name)

        def recorded(a, **kwargs):
            start = len(decomps["svd"])
            out = real(a, **kwargs)
            calls.append((a.shape, decomps["svd"][start:]))
            return out

        monkeypatch.setattr(module, name, recorded)

    # dl_operator's SVD, and the transitions' own decompositions: the only
    # calls in anneal.
    record(dlgibbs.projector, "singular_value_decompose", dl_svds)
    record(dlgibbs.anneal, "singular_value_decompose", cores)
    record(dlgibbs.anneal, "spectral_norm", norms)
    run_annealing(ham, couplings, WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt")
    # The K + 1 DL operators are one stack on D's support, sector 0 alone
    # of the 2^n, of side 2^n, decomposed in one stacked SVD, from which
    # each projector error is read in closed form; the K transitions'
    # products P_b P_a and their errors are one stack of the same sector.
    # Parent terms are read through their local blocks, and no SVD or 2-norm
    # of a side above 2^n runs at all.
    k = sched.steps
    d = 2**n
    stack, pairs = (k + 1, 1, d, d), (k, 1, d, d)
    assert k + 1 == parents
    assert dl_svds == [(stack, [stack])]
    assert cores == norms == [(pairs, [pairs])]
    assert max(max(sh[-2:]) for sh in decomps["svd"]) <= d


@pytest.mark.parametrize("n", [3, 4])
def test_dl_qsvt_anneal_takes_one_ground_cluster_eigvalsh_per_step(monkeypatch, n):
    ham = make_instance("zz_chain", n)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    d = 2**ham.n
    checked = _count_calls(monkeypatch, "hermitian_eigenvalues", dlgibbs.linalg)
    inputs = _count_calls(monkeypatch, "_hermitian_input", dlgibbs.linalg)
    clusters = _count_calls(monkeypatch, "symmetric_eigenvalues", dlgibbs.linalg)
    run_annealing(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt"
    )
    # Each parent's ground cluster is read twice, for its certified gamma*
    # before the projectors and by its dl_operator, and computed once, from
    # the stack of its sum's 2^n sectors.  The sum is exactly Hermitian, so
    # it is read unchecked: no pin sum passes through _hermitian_input, and
    # no checked eigenvalue call runs at all.
    k = sched.steps
    sums = [np.shape(a[0]) for a in clusters if np.shape(a[0]) == (d, d, d)]
    assert sums == [(d, d, d)] * (k + 1)
    assert checked == []
    assert not [a for a in inputs if np.shape(a[0]) == (d, d, d)]


@pytest.mark.parametrize("n", [3, 4])
def test_dl_qsvt_anneal_takes_one_4n_spectrum_per_step(monkeypatch, decomps, n):
    ham = make_instance("zz_chain", n)
    couplings = standard_couplings(ham.n, "xz")
    w = WeightProfile(beta=0.5)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    d2 = 4**ham.n
    kms = KmsForm(gibbs_state(assemble(ham), 0.5))
    terms = build_parent(build_model(ham, couplings, w), kms, ham, beta=0.5).terms
    decomps["eigvalsh"].clear()
    decomps["eigh"].clear()
    spectra = _count_calls(monkeypatch, "coherent_spectrum")
    with warnings.catch_warnings():
        warnings.simplefilter("error", IrreducibilityWarning)
        run_annealing(ham, couplings, w, sched, 0.1, "dl_qsvt")
    # Per step, the ground cluster of the projector input is the one 4^n
    # spectrum of a sum: its 2^n blocks of side 2^n in one stacked call.  It
    # also gives the step's fixed-point dimension, so the parent's own
    # spectrum is never taken.  Each parent term takes one stacked eigvalsh
    # of its sector blocks at all K + 1 temperatures, which every step's
    # positivity bound and scale read, and one stacked eigh of the same
    # blocks for every step's DL ground basis; a term on the whole doubled
    # register (n = 3) is no exception.
    k = sched.steps
    d = 2**n
    per_run = Counter((k + 1,) + (2 ** (len(t.support) // 2),) * 3 for t in terms)
    assert spectra == []
    assert Counter(decomps["eigvalsh"]) == per_run + Counter({(d, d, d): k + 1})
    assert Counter(decomps["eigh"]) == per_run
    assert (any(len(t.support) == 2 * n for t in terms)) == (n == 3)
    assert all(_rows(sh) <= d2 for sh in decomps["eigh"])


def test_pass_one_decompositions_do_not_grow_with_the_step_count(decomps):
    # The ratchet on the temperature stack: twice the steps take the same
    # number of eigh, eigvalsh and SVD calls, apart from the per-step ground
    # cluster, one eigvalsh of a (2^n, 2^n, 2^n) stack per step.  Pass 2 takes
    # three SVDs of (steps or pairs, sectors, 2^n, 2^n) stacks on D's
    # support: the DL operators, the transitions and their errors.
    couplings = standard_couplings(3, "xz")
    d = 2**3
    counts = []
    for k in (3, 6):
        # A fresh H each time, so each run decides once that its terms commute.
        ham = make_instance("zz_chain", 3)
        for kind in ("eigh", "eigvalsh", "svd"):
            decomps[kind].clear()
        sched = dlgibbs.anneal.Schedule(0.5, k, np.linspace(0.0, 0.5, k + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IrreducibilityWarning)
            run_annealing(ham, couplings, WeightProfile(beta=0.5), sched, 0.1, "dl_qsvt")
        clusters = decomps["eigvalsh"].count((d, d, d))
        assert clusters == k + 1
        stacks = [sh for sh in decomps["svd"] if len(sh) == 4]
        assert stacks == [(k + 1, 1, d, d), (k, 1, d, d), (k, 1, d, d)]
        counts.append(
            (len(decomps["eigh"]), len(decomps["eigvalsh"]) - clusters, len(decomps["svd"]))
        )
    assert counts[0] == counts[1]
    assert counts[0][:2] == (len(couplings), len(couplings))


def test_exact_anneal_takes_one_4n_spectrum_per_step(monkeypatch, decomps):
    ham = make_instance("zz_chain", 4)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    d2 = 4**ham.n
    spectra = _count_calls(monkeypatch, "coherent_spectrum")
    run_annealing(
        ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=0.5), sched, 0.1, "exact"
    )
    # Exact mode reads each parent's kernel_dim: one spectrum of the sum per
    # step, as 2^n blocks of side 2^n in one stacked call, and build_parent
    # takes none of its own.
    k = sched.steps
    d = 2**ham.n
    assert len(spectra) == k + 1
    assert decomps["eigvalsh"].count((d, d, d)) == k + 1
    assert (d2, d2) not in decomps["eigvalsh"]


def _sector_splits(monkeypatch):
    """The calls of sector_blocks and of sector_unsplit, under every name bound to them."""
    return (
        _count_calls(monkeypatch, "sector_blocks", dlgibbs.hamiltonians),
        _count_calls(monkeypatch, "sector_unsplit", dlgibbs.hamiltonians),
    )


def test_exact_anneal_splits_each_term_once_and_rebuilds_none():
    # A parent term is split by sector once, when it is built, and the
    # exact anneal's kernel_dim sums the held blocks of each step: it makes
    # no more splits than the dl_qsvt anneal, and rebuilds no term whole.
    # On the temperature stack that is two splits per term, H^a and
    # h_a - h_a dagger.
    ham = make_instance("zz_chain", 4)
    couplings = standard_couplings(ham.n, "xz")
    sched = make_schedule(0.9, spectral_norm(assemble(ham)))
    assert sched.steps == 6
    counts = {}
    for mode in ("exact", "dl_qsvt"):
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore", IrreducibilityWarning)
            blocks, unsplit = _sector_splits(patch)
            run_annealing(ham, couplings, WeightProfile(beta=0.9), sched, 0.1, mode)
        counts[mode] = (len(blocks), len(unsplit))
    assert counts["exact"] == counts["dl_qsvt"] == (2 * len(couplings), 0)


def test_mix_splits_each_term_once_and_builds_no_dense_h(monkeypatch):
    # At one beta each parent term is a stack of one, split once when it is
    # built; its stationary channel reads the term's eigendecomposition by
    # sector and the generator sum its held blocks, so neither splits it
    # again, and no term is made whole.
    ham = make_instance("zz_chain", 4)
    beta = 0.5
    terms = build_model(ham, standard_couplings(ham.n, "xz"), WeightProfile(beta=beta))
    kms = KmsForm.gibbs(ham, beta)
    blocks, unsplit = _sector_splits(monkeypatch)
    channels = _count_calls(monkeypatch, "stationary_channel")
    compose_dl_channel(terms, kms, ham)
    assert len(blocks) == len(terms) == len(channels)
    assert unsplit == []
    # Each is read by sector: 2^|S| blocks of side 2^|S|.
    assert [(type(eig), eig.eigenvalues.shape) for eig, _ in channels] == [
        (HermitianEig, (2 ** len(t.support),) * 2) for t in terms
    ]


def _first_range_rank(ham):
    """R_1, the rank of the first term's ground projector tensor I."""
    t = ham.terms[0]
    w = np.linalg.eigvalsh(t.op)
    dim = int(np.sum(w - w[0] <= TERM_GROUND_WIDTH * max(1.0, float(np.abs(w).max()))))
    return dim * 2 ** (ham.n - len(t.support))


def test_project_run_takes_one_svd_of_the_dl_operator(decomps, tmp_path):
    cfg = parse_config(
        "experiment = project\n[model]\nkind = random_ff_projectors\nn = 5\n"
        "seed = 0\n[run]\neps = 1e-06\nell_min = 1\nell_max = 40\n"
    )
    ham = make_instance(cfg.model.kind, cfg.model.n, cfg.model.seed)
    r1 = _first_range_rank(ham)
    res = run_experiment(cfg, tmp_path)
    assert res.exit_code == 0
    # dl_operator's one SVD is of its R_1 x d core, with R_1 < d; the
    # frustration residuals of its top r singular vectors are decided from
    # Frobenius norms, with no SVD.  Each of the 40 projector errors is
    # read off the singular values.
    d = 2**cfg.model.n
    r = json.loads(res.summary_path.read_text())["results"]["rank"]
    assert r1 < d and r1 != r
    assert decomps["svd"].count((d, d)) == 0
    assert Counter(decomps["svd"]) == Counter({(r1, d): 1})


def _real_model(couplings):
    ham = make_instance("zz_chain", 3)
    w = WeightProfile(beta=0.5)
    terms = build_model(ham, standard_couplings(ham.n, couplings), w)
    return ham, terms, w, KmsForm(gibbs_state(assemble(ham), 0.5))


def test_real_model_runs_no_complex_superoperator_decomposition(decomps):
    ham, terms, w, kms = _real_model("xz")
    d2 = (4**ham.n, 4**ham.n)
    compose_dl_channel(terms, kms, ham)
    pin = parent_projector_input(build_parent(terms, kms, ham, beta=0.5))
    singular_gap(dl_operator(pin), pin)
    sched = make_schedule(0.5, spectral_norm(assemble(ham)))
    run_annealing(ham, standard_couplings(ham.n, "xz"), w, sched, 0.1, "dl_qsvt")
    # Every jump, sigma, coherent form, Choi matrix, parent term, DL
    # operator and transition of zz_chain is exactly real, so each 4^n
    # decomposition runs the real LAPACK routine, as a stack of its sectors.
    # The DL operators and transitions are decomposed on D's support
    # sectors, stacks (entries, sectors, 2^n, 2^n).
    superop = [(kind, dtype) for kind, sh, dtype in decomps["dtypes"] if _rows(sh) == d2[0]]
    sectors = [dtype for kind, sh, dtype in decomps["dtypes"] if kind == "svd" and len(sh) == 4]
    assert {kind for kind, _ in superop} == {"eigh", "eigvalsh"}
    assert {dtype for _, dtype in superop} == {"float64"}
    assert sectors and set(sectors) == {"float64"}


def test_complex_model_keeps_complex_superoperator_decompositions(decomps):
    terms, kms, ham = _noncommuting_model()
    d2 = (kms.dim**2, kms.dim**2)
    compose_dl_channel(terms, kms, ham)
    build_parent(terms, kms, ham, beta=0.5)
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


def _n3_config(experiment, model, run):
    return parse_config(f"experiment = {experiment}\n[model]\n{model}[run]\n{run}")


_ZZ3 = "kind = zz_chain\nn = 3\ncouplings = xz\n"
_ANNEAL = "beta = 0.5\ndelta = 0.1\nalpha = 2.0\nmode = "
_N3_RUNS = {
    "mix": (
        "mix",
        "kind = random_ff_projectors\nn = 3\nseed = 2\ncouplings = xz\n",
        "beta = 0.5\nk_max = 5\n",
    ),
    "parent": ("parent", _ZZ3, "beta = 0.5\n"),
    "anneal-exact": ("anneal", _ZZ3, _ANNEAL + "exact\n"),
    "anneal-dl_qsvt": ("anneal", _ZZ3, _ANNEAL + "dl_qsvt\n"),
    "overlap": ("overlap", _ZZ3, "beta = 0.5\ndbetas = [0.2, 0.1]\n"),
}


@pytest.mark.parametrize("name", sorted(_N3_RUNS))
def test_each_experiment_diagonalizes_h_once(monkeypatch, decomps, tmp_path, name):
    degrees = _count_calls(monkeypatch, "commutation_degree", dlgibbs.hamiltonians)
    real_transition = dlgibbs.anneal.transition
    in_transitions = []

    def transition(*args):
        start = len(decomps["svd"])
        try:
            return real_transition(*args)
        finally:
            in_transitions.extend(decomps["svd"][start:])

    monkeypatch.setattr(dlgibbs.anneal, "transition", transition)
    res = run_experiment(_n3_config(*_N3_RUNS[name]), tmp_path)
    assert res.exit_code == 0
    # Per-term forms are at least 16 x 16 and marginals of sigma are taken
    # on fewer than 3 qubits, so a d x d eigh is of H or of sigma.  H is
    # diagonalized once, in ham.eig, and every Gibbs state, purified target,
    # ||H|| and Bohr weight reads it; whether its terms commute is decided
    # at most once.
    # The zz_chain H is diagonal, so it is its own eigendecomposition and
    # takes no eigh.
    d = (8, 8)
    assert [s for s in decomps["eigh"] if _rows(s) == 8] == ([d] if name == "mix" else [])
    assert len(degrees) <= 1
    if name.startswith("anneal"):
        # ||H|| costs no SVD, and the one commutation test scales by the
        # norms of the m terms on their own supports: no d x d SVD runs.
        # Outside the transitions, in dl_qsvt mode, only the steps' DL
        # operators are decomposed, as one stack of D's support, sector 0 of
        # side 2^n = d.  Each 4 x 4 term's scale is one whole SVD.
        assert len(degrees) == 1
        outside = Counter(decomps["svd"]) - Counter(in_transitions)
        assert d not in decomps["svd"]
        assert all(_rows(s) < 8 for s in outside if len(s) == 2)
        steps = make_schedule(0.5, 2.0).steps + 1
        stacks = [s for s in outside if len(s) > 2]
        assert stacks == ([(steps, 1, 8, 8)] if name == "anneal-dl_qsvt" else [])
        assert decomps["svd"].count((4, 4)) == make_instance("zz_chain", 3).m


def test_mix_run_splits_no_whole_kernel_basis(monkeypatch, tmp_path):
    # Each term's kernel basis stays by sector from its stationary channel
    # to the round and g: the whole 4^|S| basis is placed once per term,
    # inside stationary_channel for the channel matrix, and never split
    # again; DlChannel.kernel_bases, built when read, is not read.
    placed = _count_calls(monkeypatch, "sector_eigenvectors", dlgibbs.hamiltonians)
    kernels = _count_calls(monkeypatch, "stationary_channel")
    channels = []
    real = dlgibbs.sampler.compose_dl_channel

    def kept(*args):
        channels.append(real(*args))
        return channels[-1]

    monkeypatch.setattr(dlgibbs.harness, "compose_dl_channel", kept)
    res = run_experiment(_n3_config("mix", _ZZ3, "beta = 0.5\nk_max = 5\n"), tmp_path)
    assert res.exit_code == 0
    (ch,) = channels
    assert ch.sectors[0].labelled
    assert len(placed) == len(kernels) == ch.m
    assert "kernel_bases" not in vars(ch)


@pytest.mark.parametrize("model", ["zz3", "ff3"])
def test_parent_run_takes_no_svd_of_a_parent_term(decomps, tmp_path, model):
    ff3 = "kind = random_ff_projectors\nn = 3\nseed = 2\ncouplings = xz\n"
    cfg = _n3_config("parent", _ZZ3 if model == "zz3" else ff3, "beta = 0.5\n")
    res = run_experiment(cfg, tmp_path)
    assert res.exit_code == 0
    # The norm column is max |w| over the eigenvalues of each term, which
    # the parent's checks read anyway: no term is also taken by an SVD.  A
    # local term's eigenvalues are its sector blocks', from one stacked
    # eigvalsh, and no eigenvector is taken; a term on the whole register of
    # non-commuting H takes one eigvalsh.  Each term is a stack of one
    # temperature.
    rows = [line.split(",") for line in res.csv_path.read_text().splitlines()[2:]]
    shapes = {(2 ** int(row[2]),) * 2 for row in rows}
    assert rows and not shapes & set(decomps["svd"])
    if model == "zz3":
        stacks = {(1,) + (2 ** (int(row[2]) // 2),) * 3 for row in rows}
        assert stacks <= set(decomps["eigvalsh"])
        assert not stacks & set(decomps["eigh"])
    else:
        assert {(1,) + sh for sh in shapes} <= set(decomps["eigvalsh"])
