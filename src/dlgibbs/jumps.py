"""Frequency-resolved jump and coherent operators for detailed balance.

A coupling operator A splits in the eigenbasis of H into Bohr components

    A = sum_w A_w,       A_w = sum_{E - E' = w} P_{E'} A P_E,

so A_w lowers energy by w, i.e. carries energy gain nu = -w.  Weights are
always applied as functions of the gain: the jump operator is

    L = sum_nu w_hat(nu) A_{-nu},      w_hat(nu) = exp(-beta nu / 4)

(the exponent 1/4 makes the generator exactly KMS-detailed-balanced with
fixed point exp(-beta H)/Z), and the coherent part is

    G = sum_nu g_hat(nu) (L'L)_{-nu},  g_hat(nu) = -(i/2) tanh(-s nu),

with s = beta/4.  G has no frequency cutoff k: dropping any frequency of
L'L breaks KMS detailed balance.  When L'L commutes with H only the
nu = 0 component survives and G = 0.

Both sums are taken in one elementwise pass in the eigenbasis H = V E V'.
Entry (i, j) of V'AV carries the Bohr frequency w_ij = E_j - E_i.  The
frequencies depend on H alone, so they are clustered once per
Hamiltonian (sorted, split at gaps above BOHR_SPLIT; hamiltonians.bohr_grid,
kept as LocalHamiltonian.bohr) and every coupling of every model built on
H reads that grid.  Each call rotates its own operator, marks the clusters
it occupies, and weighs them in one array evaluation at their centres:

    L = V (w_hat(-Omega) * V'AV) V',   G = V (g_hat(-Omega) * V'L'LV) V',

where Omega holds every entry's cluster centre and * is the elementwise
product: O(d^3) whatever the number of clusters.  The jump weights are
real, so a jump whose coupling and H's eigenvectors are real is computed
in real arithmetic; the coherent weights are imaginary, so G is computed
complex.

A model is built for one weight profile or for a sequence of them, the
temperatures of an anneal (model_terms).  Then every operator is a stack
(B, d, d) with a leading temperature axis: each coupling is rotated into
H's eigenbasis once, and weighed by a (B, clusters) table, one row of
weights per temperature, in one stacked product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BadParams, StackDisagreement, UnknownKind
from .hamiltonians import BohrGrid, LocalHamiltonian, LocalOperator, embed
from .kms import LindbladTerm
from .linalg import norm_exceeds, spectral_norm
from .tolerances import COHERENT_PART_CUT, NORM_SLACK


@dataclass(frozen=True)
class WeightProfile:
    """Weight functions attached to an inverse temperature.

    kind names the weight family; 'davies_kms' is the only one.
    """

    kind: str = "davies_kms"
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind != "davies_kms":
            raise UnknownKind(f"unknown weight kind {self.kind!r}")
        if self.beta < 0:
            raise BadParams(f"inverse temperature must be >= 0, got {self.beta}")

    def jump_weight(self, nu: float | np.ndarray) -> float | np.ndarray:
        """w_hat(nu) = exp(-beta nu / 4) on the energy-gain frequencies nu (scalar or array)."""
        nu = np.asarray(nu, dtype=float)
        return np.exp(-self.beta * nu * 0.25)

    def coherent_weight(self, nu: float | np.ndarray) -> complex | np.ndarray:
        """g_hat(nu) = -(i/2) tanh(-s nu), s = beta/4, on the gains nu (scalar or array)."""
        nu = np.asarray(nu, dtype=float)
        s = self.beta * 0.25
        return -0.5j * np.tanh(-s * nu)


def _occupied(op: np.ndarray, bohr: BohrGrid) -> tuple[np.ndarray, np.ndarray]:
    """op in H's eigenbasis, and which Bohr clusters hold a nonzero entry of it.

    The rotation runs in the wider dtype of op and H's eigenvectors: in real
    arithmetic when both are real.  A stack (B, d, d) is rotated matrix by
    matrix, and occupied is then (B, clusters).
    """
    v = bohr.eig.eigenvectors
    rotated = v.conj().T @ np.asarray(op, dtype=np.result_type(op, v)) @ v
    occupied = np.zeros(rotated.shape[:-2] + bohr.centres.shape, dtype=bool)
    labels = bohr.labels
    if rotated.ndim > 2:  # each matrix's labels, offset to its own row of occupied
        offsets = np.arange(0, occupied.size, bohr.centres.size)
        labels = labels + offsets.reshape(rotated.shape[:-2] + (1, 1))
    occupied.reshape(-1)[labels[rotated != 0]] = True
    return rotated, occupied


def _table(
    w: WeightProfile | Sequence[WeightProfile], weight, occupied: np.ndarray, bohr: BohrGrid, dtype
) -> np.ndarray:
    """Each profile's weight at the gains of its occupied clusters, 0 elsewhere.

    weight is WeightProfile.jump_weight or .coherent_weight, called once per
    profile on those gains only.  One profile gives (clusters,); a sequence
    of B gives (B, clusters), occupied then (clusters,), shared by every
    row, or (B, clusters).
    """
    nu = -bohr.centres
    if isinstance(w, WeightProfile):
        table = np.zeros(nu.size, dtype=dtype)
        table[occupied] = weight(w, nu[occupied])
        return table
    table = np.zeros((len(w), nu.size), dtype=dtype)
    rows = occupied if occupied.ndim > 1 else [occupied] * len(w)
    for row, occ, profile in zip(table, rows, w):
        row[occ] = weight(profile, nu[occ])
    return table


def _weigh(rotated: np.ndarray, table: np.ndarray, bohr: BohrGrid) -> np.ndarray:
    """V (table[labels] * rotated) V', for each row of a weight table (_table).

    rotated is one matrix, shared by every row, or a stack (B, d, d).  A
    real rotated operator with real weights is weighed and rotated back
    in real arithmetic.
    """
    v = bohr.eig.eigenvectors
    return v @ (np.take(table, bohr.labels, axis=-1) * rotated) @ v.conj().T


def build_jump(
    a: np.ndarray, bohr: BohrGrid, w: WeightProfile | Sequence[WeightProfile]
) -> np.ndarray:
    """Weighted jump operator L = sum_nu w_hat(nu) A_{-nu}, on H's Bohr grid.

    For a sequence of B profiles, the stack (B, d, d) of them, from one
    rotation of a.
    """
    rotated, occupied = _occupied(a, bohr)
    dtype = np.result_type(float, rotated)
    return _weigh(rotated, _table(w, WeightProfile.jump_weight, occupied, bohr, dtype), bohr)


def build_coherent(
    jump: np.ndarray, bohr: BohrGrid, w: WeightProfile | Sequence[WeightProfile]
) -> np.ndarray:
    """Coherent operator G = sum_nu g_hat(nu) (L'L)_{-nu}, on H's Bohr grid; Hermitian.

    For a sequence of B profiles jump is a stack (B, d, d), one per profile.
    """
    jump = np.asarray(jump, dtype=complex)
    rotated, occupied = _occupied(np.swapaxes(jump.conj(), -1, -2) @ jump, bohr)
    table = _table(w, WeightProfile.coherent_weight, occupied, bohr, complex)
    return _weigh(rotated, table, bohr)


def _has_coherent_part(coh: np.ndarray, jump: np.ndarray) -> bool:
    """Whether ||G|| > COHERENT_PART_CUT max(1, ||L||)^2.

    ||L|| <= ||L||_F, so a G above the bound at ||L||_F (with NORM_SLACK
    relative slack for rounding) decides it without an SVD of L.
    """
    if not norm_exceeds(coh, COHERENT_PART_CUT):
        return False
    fro = float(np.linalg.norm(jump)) * (1.0 + NORM_SLACK)
    if norm_exceeds(coh, COHERENT_PART_CUT * max(1.0, fro) ** 2):
        return True
    return norm_exceeds(coh, COHERENT_PART_CUT * max(1.0, spectral_norm(jump)) ** 2)


def dressed_support(a: LocalOperator, ham: LocalHamiltonian) -> tuple[int, ...]:
    """Support of a grown by every Hamiltonian term it touches."""
    base = set(a.support)
    sites = set(base)
    for t in ham.terms:
        if base & set(t.support):
            sites |= set(t.support)
    return tuple(sorted(sites))


def model_terms(
    ham: LocalHamiltonian,
    couplings: Sequence[LocalOperator],
    w: WeightProfile | Sequence[WeightProfile],
) -> Iterator[LindbladTerm]:
    """One detailed-balanced Lindblad term per coupling operator, in order, one at a time.

    Operators are materialized on the full register (their support field
    records the dressed locality).  w is one weight profile, or a sequence
    of them: then every operator is a stack (B, d, d), one matrix per
    profile, and each coupling is rotated into H's eigenbasis once for all
    of them.  The coherent part is kept where ||G|| exceeds its cut
    (_has_coherent_part); a stack whose temperatures disagree on that
    raises StackDisagreement.
    """
    if not couplings:
        raise BadParams("need at least one coupling operator")
    bohr = ham.bohr
    full = tuple(range(ham.n))
    for a in couplings:
        jump = build_jump(embed(a, ham.n), bohr, w)
        coh = build_coherent(jump, bohr, w)
        pairs = [(coh, jump)] if isinstance(w, WeightProfile) else zip(coh, jump)
        kept = {_has_coherent_part(c, j) for c, j in pairs}
        if len(kept) > 1:
            raise StackDisagreement("the temperatures disagree on a coherent part")
        yield LindbladTerm(
            jumps=(LocalOperator(jump, full),),
            coherent=LocalOperator(coh, full) if kept.pop() else None,
            support=dressed_support(a, ham),
        )


def build_model(
    ham: LocalHamiltonian,
    couplings: Sequence[LocalOperator],
    w: WeightProfile,
) -> list[LindbladTerm]:
    """One detailed-balanced Lindblad term per coupling operator (model_terms at one profile)."""
    return list(model_terms(ham, couplings, w))
