"""Exactly-real models computed in real arithmetic agree with complex arithmetic.

The pipeline demotes exactly-real data to float64 in one place,
linalg.real_if_exact.  Replacing that helper with a cast to complex128
reruns the same code in complex arithmetic; both runs must agree to
rounding on every quantity the experiments report.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import dlgibbs.linalg
from dlgibbs.hamiltonians import assemble, make_instance, standard_couplings
from dlgibbs.jumps import WeightProfile, build_model
from dlgibbs.kms import KmsForm, gibbs_state
from dlgibbs.parent import build_parent, parent_projector_input
from dlgibbs.projector import dl_operator
from dlgibbs.sampler import compose_dl_channel, iterate

_TOL = 1e-12


def _as_complex(a):
    return np.asarray(a, dtype=complex)


def _force_complex(monkeypatch):
    """Bind every dlgibbs name of real_if_exact to a cast to complex128."""
    real = dlgibbs.linalg.real_if_exact
    for mod_name, module in list(sys.modules.items()):
        in_package = mod_name == "dlgibbs" or mod_name.startswith("dlgibbs.")
        if in_package and getattr(module, "real_if_exact", None) is real:
            monkeypatch.setattr(module, "real_if_exact", _as_complex)


def _pipeline(couplings: str, beta: float) -> dict:
    ham = make_instance("zz_chain", 3)
    w = WeightProfile(beta=beta)
    terms = build_model(ham, standard_couplings(ham.n, couplings), w)
    kms = KmsForm(gibbs_state(assemble(ham), beta))
    ch = compose_dl_channel(terms, kms, ham)
    rho0 = np.zeros((kms.dim, kms.dim))
    rho0[0, 0] = 1.0
    trace = iterate(ch, rho0, kms, k_max=20)
    ph = build_parent(terms, kms, beta=beta)
    dl = dl_operator(parent_projector_input(ph).ham)
    return {
        "kernel_projectors": [v @ v.conj().T for v in ch.kernel_bases],
        "kernel_bases": ch.kernel_bases,
        "gap": ch.gap,
        "kernel_dim": ch.kernel_dim,
        "g": ch.g,
        "trace_distances": trace.trace_distances,
        "bounds": trace.bounds,
        "parent_terms": [t.mat for t in ph.terms],
        "parent_gap": ph.gap,
        "dl_singular_values": dl.svd.s,
    }


# x couplings alone keep the stationary space of zz_chain reducible.
@pytest.mark.filterwarnings("ignore::dlgibbs.errors.IrreducibilityWarning")
# xyz adds purely imaginary y jumps, whose superoperators are exactly real.
@pytest.mark.parametrize("couplings", ["x", "xz", "xyz"])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_real_and_complex_arithmetic_agree(monkeypatch, couplings, beta):
    real = _pipeline(couplings, beta)
    _force_complex(monkeypatch)
    cplx = _pipeline(couplings, beta)
    assert {v.dtype for v in real["kernel_bases"]} == {np.dtype(np.float64)}
    assert {v.dtype for v in cplx["kernel_bases"]} == {np.dtype(np.complex128)}
    assert real["kernel_dim"] == cplx["kernel_dim"]
    assert real["g"] == cplx["g"]
    for key in ("gap", "parent_gap"):
        assert abs(real[key] - cplx[key]) <= _TOL, key
    for key in ("trace_distances", "bounds", "dl_singular_values"):
        assert np.abs(real[key] - cplx[key]).max() <= _TOL, key
    for key in ("kernel_projectors", "parent_terms"):
        assert len(real[key]) == len(cplx[key])
        for a, b in zip(real[key], cplx[key]):
            assert np.abs(a - b).max() <= _TOL, key
