"""Frequency-resolved jump and coherent operators for detailed balance.

A coupling operator A splits in the eigenbasis of H into Bohr components

    A = sum_w A_w,       A_w = sum_{E - E' = w} P_{E'} A P_E,

so A_w lowers energy by w, i.e. carries energy gain nu = -w.  Weights are
always applied as functions of the gain: the jump operator is

    L = sum_nu w_hat(nu) A_{-nu},      w_hat(nu) = q(nu) exp(-beta nu / 4)

(the exponent 1/4 makes the generator exactly KMS-detailed-balanced with
fixed point exp(-beta H)/Z), and the coherent part is

    G = sum_nu g_hat(nu) (L'L)_{-nu},  g_hat(nu) = -(i/2) tanh(-s nu) k(nu),

with s = beta/4 by default and k a hard frequency cutoff.  When L'L
commutes with H only the nu = 0 component survives and G = 0.

Both sums are taken in one elementwise pass in the eigenbasis H = V E V'.
Entry (i, j) of V'AV carries the Bohr frequency w_ij = E_j - E_i; the
frequencies are clustered once (sorted, split at gaps above a tolerance),
each cluster's weight is evaluated once at its centre, and

    L = V (w_hat(-Omega) * V'AV) V',   G = V (g_hat(-Omega) * V'L'LV) V',

where Omega holds every entry's cluster centre and * is the elementwise
product: O(d^3) whatever the number of clusters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadParams, UnknownKind
from .hamiltonians import LocalHamiltonian, LocalOperator, embed
from .kms import KmsForm, LindbladTerm
from .linalg import HermitianEig, norm_exceeds, spectral_norm
from .sampler import coherent_terms


@dataclass(frozen=True)
class WeightProfile:
    """Weight functions attached to an inverse temperature.

    kind is the 'davies_kms' preset or 'custom', which requires q; q is an
    optional extra factor on the gain frequency, validated to satisfy
    q(nu) = conj(q(-nu)); kappa_cutoff bounds the coherent-term frequencies
    (None means twice the Hamiltonian norm, set at build time).  The
    coherent weight's tanh argument is scaled by beta * tanh_scale, or by
    tanh_scale alone when beta_scaled_tanh is False.
    """

    kind: str = "davies_kms"
    beta: float = 1.0
    q: Callable[[float], complex] | None = None
    kappa_cutoff: float | None = None
    tanh_scale: float = 0.25
    beta_scaled_tanh: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("davies_kms", "custom"):
            raise UnknownKind(f"unknown weight kind {self.kind!r}")
        if self.kind == "custom" and self.q is None:
            raise BadParams("custom weight profiles need a q callable")
        if self.beta < 0:
            raise BadParams(f"inverse temperature must be >= 0, got {self.beta}")
        if self.tanh_scale <= 0:
            raise BadParams(f"tanh_scale must be positive, got {self.tanh_scale}")
        if self.kappa_cutoff is not None and self.kappa_cutoff <= 0:
            raise BadParams(f"kappa_cutoff must be positive, got {self.kappa_cutoff}")

    def _q(self, nu: float) -> complex:
        return complex(1.0) if self.q is None else complex(self.q(nu))

    def jump_weight(self, nu: float) -> complex:
        """w_hat(nu) = q(nu) exp(-beta nu / 4) on the energy-gain frequency nu."""
        return self._q(nu) * np.exp(-self.beta * nu * 0.25)

    def coherent_weight(self, nu: float, cutoff: float) -> complex:
        """g_hat(nu) = -(i/2) tanh(-s nu) inside the cutoff, 0 outside."""
        if abs(nu) > cutoff:
            return 0.0j
        s = self.beta * self.tanh_scale if self.beta_scaled_tanh else self.tanh_scale
        return -0.5j * np.tanh(-s * nu)

    def check_q_symmetry(self, freqs: Sequence[float], tol: float = 1e-10) -> None:
        """Validate q(nu) = conj(q(-nu)) on the sampled frequencies."""
        if self.q is None:
            return
        for nu in freqs:
            a, b = self._q(float(nu)), self._q(float(-nu))
            scale = max(1.0, abs(a), abs(b))
            if abs(a - np.conj(b)) > tol * scale:
                raise BadParams(
                    f"q violates q(nu) = conj(q(-nu)) at nu = {nu:.6g}: "
                    f"{a:.6g} vs conj({b:.6g})"
                )


def _bohr_clusters(
    op: np.ndarray, eig: HermitianEig, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """op in the eigenbasis, the Bohr cluster of each entry, the cluster gains.

    The frequencies w_ij = E_j - E_i are sorted and split wherever
    consecutive values lie more than tol apart; a cluster's frequency is
    the midpoint of its extremes.  Only clusters on which op has a nonzero
    entry are kept, with gains nu = -w in descending order; labels index
    them, and entries of dropped clusters (all zero) get the label
    len(gains).
    """
    evals, v = eig.eigenvalues, eig.eigenvectors
    rotated = v.conj().T @ np.asarray(op, dtype=complex) @ v
    omega = (evals[None, :] - evals[:, None]).ravel()
    order = np.argsort(omega, kind="stable")
    sorted_w = omega[order]
    split = np.diff(sorted_w) > tol
    cluster = np.empty(omega.size, dtype=np.intp)
    cluster[order] = np.concatenate(([0], np.cumsum(split)))
    first = np.flatnonzero(np.concatenate(([True], split)))
    last = np.append(first[1:] - 1, omega.size - 1)
    centres = 0.5 * (sorted_w[first] + sorted_w[last])
    occupied = np.zeros(centres.size, dtype=bool)
    occupied[cluster[rotated.ravel() != 0]] = True
    index = np.where(occupied, np.cumsum(occupied) - 1, np.count_nonzero(occupied))
    return rotated, index[cluster].reshape(rotated.shape), -centres[occupied]


def _weigh(
    rotated: np.ndarray, labels: np.ndarray, coeff: list[complex], eig: HermitianEig
) -> np.ndarray:
    """V (c[labels] * rotated) V', with weight 0 on dropped clusters."""
    scale = np.append(np.asarray(coeff, dtype=complex), 0.0)
    v = eig.eigenvectors
    return v @ (scale[labels] * rotated) @ v.conj().T


def build_jump(a: np.ndarray, eig: HermitianEig, w: WeightProfile) -> np.ndarray:
    """Weighted jump operator L = sum_nu w_hat(nu) A_{-nu}, for H = V diag(E) V' in eig."""
    tol = 1e-9 * max(1.0, float(np.abs(eig.eigenvalues).max()))
    rotated, labels, gains = _bohr_clusters(a, eig, tol)
    w.check_q_symmetry(gains)
    return _weigh(rotated, labels, [w.jump_weight(nu) for nu in gains.tolist()], eig)


def build_coherent(jump: np.ndarray, eig: HermitianEig, w: WeightProfile) -> np.ndarray:
    """Coherent operator G = sum_nu g_hat(nu) (L'L)_{-nu}; Hermitian.

    The Bohr frequencies are those of H = V diag(E) V' in eig.  Warns
    when L'L has off-shell frequencies and the cutoff excludes all of them.
    """
    jump = np.asarray(jump, dtype=complex)
    h_norm = float(np.abs(eig.eigenvalues).max())
    cutoff = w.kappa_cutoff
    if cutoff is None:
        cutoff = 2.0 * h_norm + 1e-9
    tol = 1e-9 * max(1.0, h_norm)
    rotated, labels, gains = _bohr_clusters(jump.conj().T @ jump, eig, tol)
    offshell = np.abs(gains[np.abs(gains) > 1e-12])
    if offshell.size and np.all(offshell > cutoff):
        warnings.warn(
            f"cutoff {cutoff:.3g} excludes every off-shell frequency of L'L",
            UserWarning,
        )
    coeff = [w.coherent_weight(nu, cutoff) for nu in gains.tolist()]
    return _weigh(rotated, labels, coeff, eig)


def dressed_support(a: LocalOperator, ham: LocalHamiltonian) -> tuple[int, ...]:
    """Support of a grown by every Hamiltonian term it touches."""
    base = set(a.support)
    sites = set(base)
    for t in ham.terms:
        if base & set(t.support):
            sites |= set(t.support)
    return tuple(sorted(sites))


def build_model(
    ham: LocalHamiltonian,
    couplings: Sequence[LocalOperator],
    w: WeightProfile,
    normalize: bool = False,
) -> list[LindbladTerm]:
    """One detailed-balanced Lindblad term per coupling operator.

    Operators are materialized on the full register (their support field
    records the dressed locality).  With normalize=True each term is
    rescaled by the spectral norm of its coherent form (from
    sampler.coherent_terms), an inexpensive stand-in for diamond-norm
    normalization.
    """
    if not couplings:
        raise BadParams("need at least one coupling operator")
    eig = ham.eig
    full = tuple(range(ham.n))
    terms: list[LindbladTerm] = []
    for a in couplings:
        a_full = embed(a, ham.n)
        jump = build_jump(a_full, eig, w)
        coh = build_coherent(jump, eig, w)
        has_coh = norm_exceeds(coh, 1e-12) and norm_exceeds(
            coh, 1e-12 * max(1.0, spectral_norm(jump)) ** 2
        )
        term = LindbladTerm(
            jumps=(LocalOperator(jump, full),),
            coherent=LocalOperator(coh, full) if has_coh else None,
            support=dressed_support(a, ham),
        )
        terms.append(term)
    if normalize:
        forms = coherent_terms(terms, KmsForm.gibbs(ham, w.beta), ham)
        terms = [_rescaled(t, spectral_norm(f[0].mat)) for t, f in zip(terms, forms)]
    return terms


def _rescaled(term: LindbladTerm, scale: float) -> LindbladTerm:
    """term with its coherent form divided by scale (jumps by sqrt(scale))."""
    if scale <= 1e-14:
        return term
    coh = term.coherent
    return LindbladTerm(
        jumps=tuple(LocalOperator(j.op / np.sqrt(scale), j.support) for j in term.jumps),
        coherent=None if coh is None else LocalOperator(coh.op / scale, coh.support),
        support=term.support,
    )
