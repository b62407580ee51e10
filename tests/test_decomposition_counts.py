"""Deterministic guards on how many dense decompositions a call runs.

Tier-1 has no timing tests; these counts catch a change that silently
brings back a redundant eigendecomposition or SVD.
"""

from __future__ import annotations

import numpy as np
import pytest

from dlgibbs.hamiltonians import make_instance, noncommutation_degree
from dlgibbs.projector import dl_operator, singular_gap


@pytest.fixture
def decomps(monkeypatch):
    """Record the input shape of every numpy eigh and SVD (incl. 2-norms)."""
    calls: dict[str, list[tuple[int, ...]]] = {"eigh": [], "svd": []}
    real_eigh = np.linalg.eigh
    real_svd = np.linalg.svd
    real_norm = np.linalg.norm

    def eigh(a, *args, **kwargs):
        calls["eigh"].append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    def svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls["svd"].append(np.shape(x))
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls


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
