"""Local Hamiltonians on qubit registers.

Qubit 0 is the most significant tensor factor: a register basis state
|b_0 b_1 ... b_{n-1}> has index sum_i b_i 2^{n-1-i}.  A LocalOperator's
support lists the qubits its matrix acts on, in tensor-factor order, so
embedding permutes axes rather than assuming contiguity.  Operator
matrices are float64 when their entries are exactly real and complex128
otherwise (linalg.real_if_exact), and embedding and assembly keep that
dtype.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadParams,
    DegenerateGapWarning,
    DimensionMismatch,
    SupportOutOfRange,
    UnknownKind,
)
from .linalg import (
    hermitian_eigendecompose,
    norm_exceeds,
    real_if_exact,
    spectral_norm,
)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"i": PAULI_I, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


@dataclass(frozen=True)
class LocalOperator:
    """Dense matrix acting on the qubits listed in support.

    op is float64 when its entries are exactly real, complex128 otherwise.
    """

    op: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        op = real_if_exact(self.op)
        object.__setattr__(self, "op", op)
        support = tuple(int(q) for q in self.support)
        object.__setattr__(self, "support", support)
        if len(set(support)) != len(support):
            raise BadParams(f"support has repeated qubits: {support}")
        if any(q < 0 for q in support):
            raise SupportOutOfRange(f"negative qubit index in support {support}")
        d = 2 ** len(support)
        if op.ndim != 2 or op.shape != (d, d):
            raise DimensionMismatch(
                f"operator shape {op.shape} does not match support {support}"
                f" (expected {(d, d)})"
            )


@dataclass(frozen=True)
class LocalHamiltonian:
    """Sum of local terms on an n-qubit register."""

    n: int
    terms: tuple[LocalOperator, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParams(f"register size must be >= 1, got {self.n}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if any(q >= self.n for q in t.support):
                raise SupportOutOfRange(
                    f"term support {t.support} exceeds register size {self.n}"
                )

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def locality(self) -> int:
        return max((len(t.support) for t in self.terms), default=0)


@dataclass(frozen=True)
class GroundSpace:
    """Ground cluster of a Hermitian matrix, kept as its orthonormal vectors."""

    vectors: np.ndarray
    dimension: int
    energy: float
    gap: float
    degenerate: bool
    frustration_residual: float = 0.0

    @cached_property
    def projector(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


def _diagonal_index(k: int) -> tuple[np.ndarray, ...]:
    """One bit array per qubit over the 2^k basis states of k qubits.

    Used to index k row axes and the k matching column axes of a tensor, it
    walks the diagonal of the identity on those qubits.
    """
    states = np.arange(2**k)
    return tuple((states >> (k - 1 - i)) & 1 for i in range(k))


def _held(full: np.ndarray, support: Sequence[int], n: int) -> tuple[np.ndarray, tuple]:
    """full (2^n x 2^n) with its qubit axes held in the order (support, rest).

    Returns that view, rows then columns, and the index of the identity's
    diagonal on the rest: view[index] is a stack of operators on support,
    2 len(support) axes of size 2 after one stacking axis.
    """
    if any(q >= n for q in support):
        raise SupportOutOfRange(f"support {tuple(support)} exceeds register size {n}")
    order = list(support) + [q for q in range(n) if q not in support]
    held = full.reshape([2] * (2 * n)).transpose(order + [n + q for q in order])
    legs = (slice(None),) * len(support)
    diagonal = _diagonal_index(n - len(support))
    return held, legs + diagonal + legs + diagonal


def embed(op: LocalOperator, n: int) -> np.ndarray:
    """Lift a local operator to the full 2^n-dimensional register.

    The operator is written onto the identity's diagonal through a view of
    the output whose qubit axes are held in the order (support, rest), so
    no kron product or transposed copy is formed.  Off the diagonal each
    entry is op * 0 and on it op * 1, the products np.kron forms, so the
    result is bitwise that of kron(op, I) transposed into place (signed
    zeros included).
    """
    a = op.op
    p = len(op.support)
    out = np.empty((2**n, 2**n), dtype=a.dtype)
    held, diagonal = _held(out, op.support, n)
    blocks = [2] * p + [1] * (n - p)
    held[...] = (a * np.zeros((), a.dtype)).reshape(blocks + blocks)
    held[diagonal] = (a * np.ones((), a.dtype)).reshape([2] * (2 * p))
    return out


def add_embedded(total: np.ndarray, op: LocalOperator, n: int) -> np.ndarray:
    """total + embed(op, n), written into total unless the sum needs a wider dtype.

    Only the identity's diagonal blocks are touched; elsewhere embed holds
    op * 0, which changes no entry of total except, possibly, the sign of
    a zero.  With the whole register as support this is total += op.
    """
    if np.result_type(total, op.op) != total.dtype:
        total = total.astype(np.result_type(total, op.op))
    held, diagonal = _held(total, op.support, n)
    held[diagonal] += op.op.reshape([2] * (2 * len(op.support)))
    return total


def assemble(ham: LocalHamiltonian) -> np.ndarray:
    """Dense matrix of the full Hamiltonian."""
    d = 2**ham.n
    h = np.zeros((d, d), dtype=np.result_type(float, *(t.op for t in ham.terms)))
    for t in ham.terms:
        h += embed(t, ham.n)
    return h


def support_overlap_degree(supports: Sequence[tuple[int, ...]]) -> int:
    """Max over supports of the number of other supports sharing a site."""
    deg = 0
    for a, sa in enumerate(supports):
        sites = set(sa)
        cnt = sum(1 for b, sb in enumerate(supports) if b != a and sites & set(sb))
        deg = max(deg, cnt)
    return deg


def interaction_degree(ham: LocalHamiltonian) -> int:
    """Max over terms of the number of other terms sharing a qubit."""
    return support_overlap_degree([t.support for t in ham.terms])


def _pair_degree(k: int, exceeds: Callable[[int, int], bool]) -> int:
    """Max over k entries of the number of others b with exceeds(a, b), a < b."""
    counts = [0] * k
    for a in range(k):
        for b in range(a + 1, k):
            if exceeds(a, b):
                counts[a] += 1
                counts[b] += 1
    return max(counts, default=0)


def noncommutation_degree(mats: list[np.ndarray], tol: float = 1e-10) -> int:
    """Max over entries of the number of other matrices it fails to commute with.

    Each unordered pair is tested once: fl(BA - AB) = -fl(AB - BA) exactly,
    so both orders of a pair decide the same way.
    """
    scale = max([1.0] + [spectral_norm(m) for m in mats])
    bound = tol * scale * scale
    return _pair_degree(
        len(mats),
        lambda a, b: norm_exceeds(mats[a] @ mats[b] - mats[b] @ mats[a], bound),
    )


def _lift_basis(
    v: np.ndarray, legs: Sequence[int], union: Sequence[int]
) -> np.ndarray:
    """Orthonormal columns v on the qubits legs, tensored with I on the rest of union.

    Rows follow union's order and columns the order (column of v, rest
    of union), so the result spans the range of (V V dagger) tensor I on
    the 2^len(union) register.  Placed on the identity's diagonal as in
    embed.
    """
    if list(legs) == list(union):
        return v
    rest = [q for q in union if q not in legs]
    k, cols = len(union), v.shape[1]
    pos = {q: i for i, q in enumerate(union)}
    out = np.zeros((2**k, cols * 2 ** len(rest)), dtype=v.dtype)
    held = out.reshape([2] * k + [cols] + [2] * len(rest)).transpose(
        [pos[q] for q in legs] + [pos[q] for q in rest] + list(range(k, k + 1 + len(rest)))
    )
    diagonal = _diagonal_index(len(rest))
    held[(slice(None),) * len(legs) + diagonal + (slice(None),) + diagonal] = v.reshape(
        [2] * len(legs) + [cols]
    )
    return out


def projector_noncommutation_degree(
    bases: Sequence[np.ndarray],
    tol: float = 1e-10,
    legs: Sequence[Sequence[int]] | None = None,
) -> int:
    """noncommutation_degree of the projectors V V dagger onto orthonormal bases.

    For orthogonal projectors P, Q the commutator PQ - QP is PQ(I - P) minus
    its adjoint, which maps range(P) to its complement, so
    ||[P, Q]|| = ||PQ(I - P)||.  With P = V_a V_a dagger, Q = V_b V_b dagger
    and X = V_a dagger V_b this is ||X (V_b dagger - X dagger V_a dagger)||,
    an r_a x D matrix, decided by norm_exceeds against tol: a projector has
    norm 1, so the scale of noncommutation_degree is 1.

    legs[a], when given, lists the qubits bases[a] acts on (the projector
    is V V dagger tensor I elsewhere); this is the support graph of the
    projectors.  Projectors on disjoint qubits commute exactly and are not
    compared; an overlapping pair is compared on the union of its qubits,
    each basis lifted there by the identity (_lift_basis), which leaves the
    commutator norm unchanged.  Without legs every basis acts on the same
    register.
    """
    def exceeds(a: int, b: int) -> bool:
        va, vb = bases[a], bases[b]
        if legs is not None:
            union = sorted(set(legs[a]) | set(legs[b]))
            if len(union) == len(legs[a]) + len(legs[b]):
                return False
            va, vb = _lift_basis(va, legs[a], union), _lift_basis(vb, legs[b], union)
        adj_a = va.conj().T
        x = adj_a @ vb
        return norm_exceeds(x @ (vb.conj().T - x.conj().T @ adj_a), tol)

    return _pair_degree(len(bases), exceeds)


def commutation_degree(ham: LocalHamiltonian, tol: float = 1e-10) -> int:
    """noncommutation_degree of the embedded terms."""
    return noncommutation_degree([embed(t, ham.n) for t in ham.terms], tol)


def ground_space(
    h: np.ndarray | LocalHamiltonian, tol: float = 1e-8
) -> GroundSpace:
    """Project onto the lowest eigenvalue cluster of h.

    The ground cluster collects eigenvalues within tol * max(1, ||h||) of
    the minimum, with ||h|| read off the eigenvalues; a gap below ten times
    that width triggers a DegenerateGapWarning because the cluster boundary
    is then ambiguous.  For a LocalHamiltonian input the frustration
    residual max_a ||P H_a|| = max_a ||V_r^dag H_a|| over the r ground
    vectors is reported as well; it vanishes exactly when the ground space
    sits inside the kernel of every (positive) term.
    """
    embedded: list[np.ndarray] | None = None
    if isinstance(h, LocalHamiltonian):
        # Summed in assemble's order, so h is bitwise assemble(ham).
        embedded = [embed(t, h.n) for t in h.terms]
        zero = np.zeros((2**h.n, 2**h.n), dtype=np.result_type(float, *embedded))
        h = sum(embedded, zero)
    eig = hermitian_eigendecompose(h)
    w, v = eig.eigenvalues, eig.eigenvectors
    scale = max(1.0, float(np.abs(w).max()))
    width = tol * scale
    dim = int(np.sum(w - w[0] <= width))
    ground = v[:, :dim].copy()  # a view would keep all d x d of v alive
    gap = float(w[dim] - w[0]) if dim < len(w) else float("inf")
    degenerate = gap < 10 * width
    if degenerate:
        warnings.warn(
            f"ground cluster of dimension {dim} has gap {gap:.3e} within "
            f"10x the cluster width {width:.3e}",
            DegenerateGapWarning,
        )
    residual = 0.0
    if embedded:
        ground_h = ground.conj().T
        residual = max(spectral_norm(ground_h @ t) for t in embedded)
    return GroundSpace(
        vectors=ground,
        dimension=dim,
        energy=float(w[0]),
        gap=gap,
        degenerate=degenerate,
        frustration_residual=residual,
    )


def frustration_check(
    ham: LocalHamiltonian, tol: float = 1e-8
) -> tuple[bool, GroundSpace]:
    """Ground space of ham and whether it annihilates every term.

    Terms are expected in the zoo normalization (positive semidefinite with
    kernel); a term with negative eigenvalues reads as frustrated even when
    it shares its minimizer with the total.  The residual is compared with
    tol * max(1, ||H||); since that scale is at least 1, a residual within
    tol passes without assembling ||H||.
    """
    gs = ground_space(ham, tol)
    res = abs(gs.frustration_residual)
    ff = res <= tol or res <= tol * spectral_norm(assemble(ham))
    return ff, gs


def _projector_from_state(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def make_instance(kind: str, n: int, seed: int = 0) -> LocalHamiltonian:
    """Seeded frustration-free test instances.

    zz_chain: nearest-neighbor projectors (I - Z Z)/2 on an open chain.
    field_chain: single-site projectors (I - Z)/2 on every site.
    random_ff_projectors: nearest-neighbor rank-1 projectors onto seeded
        random two-qubit states orthogonal to |00>; frustration-free by
        construction, generically non-commuting.
    commuting_projectors: nearest-neighbor diagonal 0/1 projectors with the
        |00> diagonal entry forced to 0.
    """
    if n < 2:
        raise BadParams(f"instances need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    zz = 0.5 * (np.eye(4, dtype=complex) - np.kron(PAULI_Z, PAULI_Z))
    terms: list[LocalOperator] = []
    if kind == "zz_chain":
        terms = [LocalOperator(zz, (i, i + 1)) for i in range(n - 1)]
    elif kind == "field_chain":
        fld = 0.5 * (np.eye(2, dtype=complex) - PAULI_Z)
        terms = [LocalOperator(fld, (i,)) for i in range(n)]
    elif kind == "random_ff_projectors":
        for i in range(n - 1):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v[0] = 0.0
            terms.append(LocalOperator(_projector_from_state(v), (i, i + 1)))
    elif kind == "commuting_projectors":
        for i in range(n - 1):
            diag = rng.integers(0, 2, size=4).astype(float)
            diag[0] = 0.0
            terms.append(LocalOperator(np.diag(diag), (i, i + 1)))
    else:
        raise UnknownKind(f"unknown instance kind {kind!r}")
    return LocalHamiltonian(n=n, terms=tuple(terms))


def standard_couplings(n: int, kinds: str = "x") -> list[LocalOperator]:
    """Single-site Pauli coupling set: kinds is a subset of 'xyz'."""
    kinds = kinds.lower()
    if not kinds or any(k not in "xyz" for k in kinds):
        raise UnknownKind(f"coupling kinds must be drawn from 'xyz', got {kinds!r}")
    out: list[LocalOperator] = []
    for k in kinds:
        for i in range(n):
            out.append(LocalOperator(PAULI[k], (i,)))
    return out
