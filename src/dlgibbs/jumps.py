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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadParams, UnknownKind
from .hamiltonians import LocalHamiltonian, LocalOperator, assemble, embed
from .kms import KmsForm, LindbladTerm, coherent_form, gibbs_state, term_superoperator
from .linalg import HermitianEig, hermitian_eigendecompose, spectral_norm


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


@dataclass(frozen=True)
class BohrDecomposition:
    """Frequency components of an operator in a Hamiltonian's eigenbasis."""

    frequencies: np.ndarray
    components: tuple[np.ndarray, ...]

    def component(self, w: float, tol: float = 1e-8) -> np.ndarray:
        hits = np.flatnonzero(np.abs(self.frequencies - w) <= tol)
        if hits.size != 1:
            raise BadParams(f"frequency {w} matches {hits.size} clusters")
        return self.components[int(hits[0])]


def _cluster_edges(values: np.ndarray, tol: float) -> list[tuple[float, float]]:
    vals = np.sort(values.ravel())
    groups: list[tuple[float, float]] = []
    start = vals[0]
    prev = vals[0]
    for v in vals[1:]:
        if v - prev > tol:
            groups.append((start, prev))
            start = v
        prev = v
    groups.append((start, prev))
    return groups


def bohr_decompose(
    a: np.ndarray,
    h: np.ndarray,
    tol: float | None = None,
    eig: HermitianEig | None = None,
) -> BohrDecomposition:
    """Split a into components of definite Bohr frequency w = E - E'.

    Frequencies are clustered by sorting all pairwise eigenvalue
    differences and splitting at gaps above tol (default 1e-9 times
    max(1, ||h||)); the sum of components reproduces a exactly.
    """
    a = np.asarray(a, dtype=complex)
    if eig is None:
        eig = hermitian_eigendecompose(h)
    if tol is None:
        tol = 1e-9 * max(1.0, spectral_norm(h))
    evals, v = eig.eigenvalues, eig.eigenvectors
    a_tilde = v.conj().T @ a @ v
    w_mat = evals[None, :] - evals[:, None]
    freqs: list[float] = []
    comps: list[np.ndarray] = []
    for lo, hi in _cluster_edges(w_mat, tol):
        mask = (w_mat >= lo - 0.5 * tol) & (w_mat <= hi + 0.5 * tol)
        block = np.where(mask, a_tilde, 0.0)
        if not np.any(np.abs(block) > 0):
            continue
        freqs.append(float(0.5 * (lo + hi)))
        comps.append(v @ block @ v.conj().T)
    return BohrDecomposition(
        frequencies=np.array(freqs), components=tuple(comps)
    )


def build_jump(
    a: np.ndarray,
    h: np.ndarray,
    w: WeightProfile,
    eig: HermitianEig | None = None,
) -> np.ndarray:
    """Weighted jump operator L = sum_nu w_hat(nu) A_{-nu}."""
    dec = bohr_decompose(a, h, eig=eig)
    w.check_q_symmetry([-f for f in dec.frequencies])
    out = np.zeros_like(np.asarray(a, dtype=complex))
    for freq, comp in zip(dec.frequencies, dec.components):
        out += w.jump_weight(-freq) * comp
    return out


def build_coherent(
    jump: np.ndarray,
    h: np.ndarray,
    w: WeightProfile,
    eig: HermitianEig | None = None,
) -> np.ndarray:
    """Coherent operator G = sum_nu g_hat(nu) (L'L)_{-nu}; Hermitian."""
    jump = np.asarray(jump, dtype=complex)
    cutoff = w.kappa_cutoff
    if cutoff is None:
        cutoff = 2.0 * spectral_norm(h) + 1e-9
    dec = bohr_decompose(jump.conj().T @ jump, h, eig=eig)
    out = np.zeros_like(jump)
    offshell = [f for f in dec.frequencies if abs(f) > 1e-12]
    kept = 0
    for freq, comp in zip(dec.frequencies, dec.components):
        coeff = w.coherent_weight(-freq, cutoff)
        if coeff != 0:
            kept += 1
        out += coeff * comp
    if offshell and kept == 0:
        warnings.warn(
            f"cutoff {cutoff:.3g} excludes every off-shell frequency of L'L",
            UserWarning,
        )
    return out


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
    rescaled by the spectral norm of its coherent form, an inexpensive
    stand-in for diamond-norm normalization.
    """
    if not couplings:
        raise BadParams("need at least one coupling operator")
    h = assemble(ham)
    eig = hermitian_eigendecompose(h)
    full = tuple(range(ham.n))
    kms = None
    if normalize:
        kms = KmsForm(gibbs_state(h, w.beta))
    terms: list[LindbladTerm] = []
    for a in couplings:
        a_full = embed(a, ham.n)
        jump = build_jump(a_full, h, w, eig=eig)
        coh = build_coherent(jump, h, w, eig=eig)
        has_coh = spectral_norm(coh) > 1e-12 * max(1.0, spectral_norm(jump)) ** 2
        term = LindbladTerm(
            jumps=(LocalOperator(jump, full),),
            coherent=LocalOperator(coh, full) if has_coh else None,
            support=dressed_support(a, ham),
        )
        if normalize:
            scale = spectral_norm(coherent_form(term_superoperator(term, ham.n), kms).mat)
            if scale > 1e-14:
                term = LindbladTerm(
                    jumps=(LocalOperator(jump / np.sqrt(scale), full),),
                    coherent=(
                        LocalOperator(coh / scale, full) if has_coh else None
                    ),
                    support=term.support,
                )
        terms.append(term)
    return terms
