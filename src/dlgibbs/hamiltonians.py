"""Local Hamiltonians on qubit registers.

Qubit 0 is the most significant tensor factor: a register basis state
|b_0 b_1 ... b_{n-1}> has index sum_i b_i 2^{n-1-i}.  A LocalOperator's
support lists the qubits its matrix acts on, in tensor-factor order, so
embedding permutes axes rather than assuming contiguity.  Operator
matrices are float64 when their entries are exactly real and complex128
otherwise (linalg.real_if_exact), and embedding and assembly keep that
dtype.

The leg convention.  A register is held as a tensor with one axis of size
2 per qubit, qubit 0 first, and a block of vectors adds one axis for its
columns, last.  A matrix on the qubits legs acts with legs moved to the
front in the order listed and the other axes behind them in their own
order, so the columns go last.  _leg_plan computes that axis order and its
inverse once per (legs, number of axes) for apply_local, sweep_projectors,
lift_basis, embed, add_embedded and the Sectors methods.

Sectors.  On the doubled register of a vectorized n-qubit operator,
|i>|j> with legs 0..n-1 for i and n..2n-1 for j, a superoperator that keeps
s = i xor j splits into 2^n sectors of side 2^n (Sectors).  Every parent
term of a diagonal H with Pauli couplings does, which sector_blocks tests
exactly.  A stack holds one matrix per sector, and the mix's round
channel, its g, the parent spectrum and the dl_qsvt anneal's projector
inputs (SectorHamiltonian: their ground clusters, DL operators and
transitions) are summed, multiplied and decomposed as stacks; the DL
operators and transitions on a held subset of the sectors, with the steps
of a temperature stack as a leading axis.  When one operator of a
sum leaves its sectors, the whole sum goes on the one sector of side 4^n
instead, by the same code.  A term's blocks, eigenvectors and bases stay
by local sector throughout; they are only ever made whole
(sector_unsplit, sector_eigenvectors), never split again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadParams,
    DegenerateGapWarning,
    DimensionMismatch,
    SupportOutOfRange,
    UnknownKind,
)
from .linalg import (
    HermitianEig,
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    norm_exceeds,
    real_if_exact,
    spectral_norm,
    symmetric_eigenvalues,
)
from .tolerances import BOHR_SPLIT, COMMUTATOR_CUT, GROUND_CLUSTER_WIDTH

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"i": PAULI_I, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


@dataclass(frozen=True)
class LocalOperator:
    """Dense matrix acting on the qubits listed in support.

    op is float64 when its entries are exactly real, complex128 otherwise.
    It may be a stack (..., d, d) of matrices on the same support, one per
    temperature of an anneal (jumps.model_terms).
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
        if op.ndim < 2 or op.shape[-2:] != (d, d):
            raise DimensionMismatch(
                f"operator shape {op.shape} does not match support {support}"
                f" (expected {(d, d)})"
            )


@dataclass(frozen=True)
class LocalHamiltonian:
    """Sum of local terms on an n-qubit register.

    eig, bohr, commuting and cluster are computed on first read and kept.
    """

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

    @cached_property
    def eig(self) -> HermitianEig:
        """Eigendecomposition of assemble(self), eigenvalues ascending."""
        return hermitian_eigendecompose(assemble(self))

    @cached_property
    def bohr(self) -> BohrGrid:
        """H's Bohr frequencies clustered once: bohr_grid(self.eig)."""
        return bohr_grid(self.eig)

    @cached_property
    def commuting(self) -> bool:
        """Whether the terms commute pairwise: commutation_degree(self) == 0."""
        return commutation_degree(self) == 0

    @cached_property
    def cluster(self) -> GroundCluster:
        """H's ground cluster from one eigvalsh: ground_cluster(self)."""
        return ground_cluster(self)


@dataclass(frozen=True)
class BohrGrid:
    """The Bohr frequencies w_ij = E_j - E_i of H = V diag(E) V', clustered.

    eig is H's eigendecomposition; labels[i, j] is the cluster of w_ij and
    centres[k] the midpoint of cluster k's extremes, ascending in k.
    """

    eig: HermitianEig
    labels: np.ndarray
    centres: np.ndarray


def bohr_grid(eig: HermitianEig) -> BohrGrid:
    """Cluster the d^2 Bohr frequencies of H = V diag(E) V' in eig.

    The frequencies are sorted and split wherever consecutive values lie
    more than BOHR_SPLIT max(1, ||H||) apart, with ||H|| = max |E|.
    """
    evals = eig.eigenvalues
    tol = BOHR_SPLIT * max(1.0, float(np.abs(evals).max()))
    omega = (evals[None, :] - evals[:, None]).ravel()
    order = np.argsort(omega, kind="stable")
    sorted_w = omega[order]
    split = np.diff(sorted_w) > tol
    labels = np.empty(omega.size, dtype=np.intp)
    labels[order] = np.concatenate(([0], np.cumsum(split)))
    first = np.flatnonzero(np.concatenate(([True], split)))
    last = np.append(first[1:] - 1, omega.size - 1)
    centres = 0.5 * (sorted_w[first] + sorted_w[last])
    return BohrGrid(eig, labels.reshape(evals.size, evals.size), centres)


@lru_cache(maxsize=None)
def _diagonal_index(k: int) -> tuple[np.ndarray, ...]:
    """One bit array per qubit over the 2^k basis states of k qubits.

    Used to index k row axes and the k matching column axes of a tensor, it
    walks the diagonal of the identity on those qubits.  Cached per k, so
    the arrays are read-only.
    """
    states = np.arange(2**k)
    bits = tuple((states >> (k - 1 - i)) & 1 for i in range(k))
    for b in bits:
        b.flags.writeable = False
    return bits


@lru_cache(maxsize=None)
def _leg_plan(legs: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(order, back): legs first, then the other of ndim axes ascending, and its inverse."""
    order = legs + tuple(a for a in range(ndim) if a not in legs)
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


def _held(full: np.ndarray, support: tuple[int, ...], n: int) -> tuple[np.ndarray, tuple]:
    """full (..., 2^n, 2^n) with the row and column legs of support moved to the front.

    Returns that view, its axes ordered (stack axes, support rows, support
    columns, other rows, other columns), and the index of the identity's
    diagonal on the other qubits: view[index] is the stack axes and 2
    len(support) axes of size 2, one operator on support, followed by one
    axis along that diagonal (of length 1 when support is the whole
    register).
    """
    if any(q >= n for q in support):
        raise SupportOutOfRange(f"support {tuple(support)} exceeds register size {n}")
    lead = full.ndim - 2
    order, _ = _leg_plan(support + tuple(n + q for q in support), 2 * n)
    if lead:
        order = tuple(range(lead)) + tuple(lead + a for a in order)
    held = full.reshape(full.shape[:lead] + (2,) * (2 * n)).transpose(order)
    diagonal = 2 * _diagonal_index(n - len(support)) or (None,)
    return held, (slice(None),) * (lead + 2 * len(support)) + diagonal


def embed(op: LocalOperator, n: int) -> np.ndarray:
    """Lift a local operator to the full 2^n-dimensional register.

    The operator is written onto the identity's diagonal through a view of
    the output with support's legs moved to the front (_held), so no kron
    product or transposed copy is formed.  Off the diagonal each
    entry is op * 0 and on it op * 1, the products np.kron forms, so the
    result is bitwise that of kron(op, I) transposed into place (signed
    zeros included); on the whole register, in order, it is op * 1.
    """
    return _embed(op.op, op.support, n)


def _embed(a: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """embed(LocalOperator(a, support), n) without building the LocalOperator.

    a keeps its dtype, so complex input with zero imaginary parts stays
    complex; the entries are those embed writes.  A stack (..., 2^p, 2^p)
    is embedded matrix by matrix.
    """
    p = len(support)
    if support == tuple(range(n)):
        return a * 1
    lead = a.shape[:-2]
    out = np.empty(lead + (2**n, 2**n), dtype=a.dtype)
    held, diagonal = _held(out, support, n)
    held[...] = (a * np.zeros((), a.dtype)).reshape(lead + (2,) * (2 * p) + (1,) * (2 * (n - p)))
    held[diagonal] = (a * np.ones((), a.dtype)).reshape(lead + (2,) * (2 * p) + (1,))
    return out


def add_embedded(total: np.ndarray | None, op: LocalOperator, n: int) -> np.ndarray:
    """total + embed(op, n), written into total unless the sum needs a wider dtype.

    Only the identity's diagonal blocks are touched; elsewhere embed holds
    op * 0, which changes no entry of total except, possibly, the sign of
    a zero.  With the whole register as support this is total += op.  A
    total of None starts the sum with embed(op, n).
    """
    if total is None:
        return embed(op, n)
    if np.result_type(total, op.op) != total.dtype:
        total = total.astype(np.result_type(total, op.op))
    held, diagonal = _held(total, op.support, n)
    held[diagonal] += op.op.reshape(op.op.shape[:-2] + (2,) * (2 * len(op.support)) + (1,))
    return total


def assemble(ham: LocalHamiltonian) -> np.ndarray:
    """Dense matrix of the full Hamiltonian, each term added with add_embedded."""
    d = 2**ham.n
    h = np.zeros((d, d), dtype=np.result_type(float, *(t.op for t in ham.terms)))
    for t in ham.terms:
        h = add_embedded(h, t, ham.n)
    return h


def support_overlap_degree(supports: Sequence[tuple[int, ...]]) -> int:
    """Max over supports of the number of other supports sharing a site."""
    deg = 0
    for a, sa in enumerate(supports):
        sites = set(sa)
        cnt = sum(1 for b, sb in enumerate(supports) if b != a and sites & set(sb))
        deg = max(deg, cnt)
    return deg


def interaction_degree(ham: LocalHamiltonian | SectorHamiltonian) -> int:
    """Max over terms of the number of other terms sharing a qubit."""
    if isinstance(ham, SectorHamiltonian):
        return support_overlap_degree(ham.supports)
    return support_overlap_degree([t.support for t in ham.terms])


def _pair_degree(k: int, supports: Sequence[Sequence[int]] | None, exceeds: Callable) -> int:
    """Max over k entries of the number of others b with exceeds(a, b, pair), a < b.

    Without supports every entry acts on the whole register and pair is
    None.  With them, entries on disjoint supports commute exactly and are
    not compared; an overlapping pair is compared on the sorted union of
    its supports, and pair is (legs_a, legs_b, width): each support
    relabelled to its positions in that union of width qubits.
    """
    counts = [0] * k
    for a in range(k):
        for b in range(a + 1, k):
            pair = None
            if supports is not None:
                sa, sb = supports[a], supports[b]
                union = sorted(set(sa) | set(sb))
                if len(union) == len(sa) + len(sb):
                    continue
                pair = ([union.index(q) for q in sa], [union.index(q) for q in sb], len(union))
            if exceeds(a, b, pair):
                counts[a] += 1
                counts[b] += 1
    return max(counts, default=0)


def noncommutation_degree(mats: list[np.ndarray]) -> int:
    """Max over entries of the number of other matrices it fails to commute with.

    Each unordered pair is tested once: fl(BA - AB) = -fl(AB - BA) exactly,
    so both orders of a pair decide the same way.
    """
    scale = max([1.0] + [spectral_norm(m) for m in mats])
    bound = COMMUTATOR_CUT * scale * scale
    return _pair_degree(
        len(mats),
        None,
        lambda a, b, _: norm_exceeds(mats[a] @ mats[b] - mats[b] @ mats[a], bound),
    )


def lift_basis(
    v: np.ndarray, legs: Sequence[int], union: Sequence[int]
) -> np.ndarray:
    """Orthonormal columns v on the qubits legs, tensored with I on the rest of union.

    Rows are the register union, its qubits in the order listed, and the
    columns are a block on the rest of union: v's column first, then the
    other qubits (the leg convention of the module docstring), so the
    result spans the range of (V V dagger) tensor I on the 2^len(union)
    register.  Placed on the identity's diagonal as in embed.
    """
    if list(legs) == list(union):
        return v
    k, cols, rest = len(union), v.shape[1], len(union) - len(legs)
    order, _ = _leg_plan(tuple(list(union).index(q) for q in legs), k + 1 + rest)
    out = np.zeros((2**k, cols * 2**rest), dtype=v.dtype)
    held = out.reshape([2] * k + [cols] + [2] * rest).transpose(order)
    diagonal = _diagonal_index(rest)
    held[(slice(None),) * len(legs) + diagonal + (slice(None),) + diagonal] = v.reshape(
        [2] * len(legs) + [cols]
    )
    return out


def apply_local(
    a: np.ndarray, legs: Sequence[int], z: np.ndarray, *factors: np.ndarray
) -> np.ndarray:
    """(a factors[0] ... factors[-1] on the qubits legs, tensor I elsewhere) z.

    z is a vector on a register of qubits or a block of such vectors as its
    columns, held by the leg convention of the module docstring.  The
    factors are applied right to left, so the product is never formed:
    apply_local(v, legs, z, v.conj().T) is V (V dagger z) on legs.
    """
    shape = (2,) * (z.shape[0].bit_length() - 1) + z.shape[1:]
    order, back = _leg_plan(tuple(legs), len(shape))
    t = z.reshape(shape).transpose(order).reshape(a.shape[0], -1)
    for f in reversed(factors):
        t = f @ t
    return (a @ t).reshape(shape).transpose(back).reshape(z.shape)


def sweep_projectors(
    bases: Sequence[np.ndarray], legs: Sequence[Sequence[int]], z: np.ndarray
) -> np.ndarray:
    """Pi_m ... Pi_1 z with Pi = V V dagger on its legs of z, tensor I elsewhere.

    z is a vector or a block of vectors, held by the leg convention of the
    module docstring; each Pi is applied by apply_local as V (V dagger z).
    Reversed bases and legs give Pi_1 ... Pi_m z.
    """
    for v, lg in zip(bases, legs):
        z = apply_local(v, lg, z, v.conj().T)
    return z


@lru_cache(maxsize=None)
def sector_rows(k: int) -> np.ndarray:
    """The (2^k, 2^k) indices a 2^k + (a xor t), at [t, a], of the sectors of 2k doubled legs.

    On the legs S + (S + n) of a doubled register, |S| = k, index a 2^k + b
    is |a>|b>; row t lists the indices of sector t = a xor b in the order of
    a.  Each index appears once.  Cached per k, so read-only.
    """
    a = np.arange(2**k)
    rows = a[None, :] * 2**k + (a[None, :] ^ a[:, None])
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _restricted_labels(pos: tuple[int, ...], width: int) -> np.ndarray:
    """For each of the 2^width sectors of a register, the index of its labels at pos.

    Qubit 0 is the most significant bit of a label, and the first of pos
    that of the result.  Cached per (pos, width), so read-only.
    """
    states = np.arange(2**width)
    labels = np.zeros(2**width, dtype=np.intp)
    for p in pos:
        labels = 2 * labels + ((states >> (width - 1 - p)) & 1)
    labels.flags.writeable = False
    return labels


def sector_blocks(mat: np.ndarray) -> np.ndarray | None:
    """The (2^k, 2^k, 2^k) blocks [t, a', a] = mat[a' 2^k + (a' xor t), a 2^k + (a xor t)], or None.

    mat is an operator on the doubled legs S + (S + n), |S| = k.  None when
    it is not exactly zero outside its sectors: the blocks then hold fewer
    of its nonzero entries than it has, an exact count with no tolerance.
    A stack (..., 4^k, 4^k) gives the blocks (..., 2^k, 2^k, 2^k) of each
    matrix, or None unless every matrix of it is zero outside its sectors.
    """
    rows = sector_rows(int(mat.shape[-1]).bit_length() // 2)
    blocks = mat[..., rows[:, :, None], rows[:, None, :]]
    return blocks if np.count_nonzero(blocks) == np.count_nonzero(mat) else None


def sector_unsplit(blocks: np.ndarray) -> np.ndarray:
    """The matrix whose sector blocks (sector_blocks) are blocks, zero outside them.

    A stack of block sets (..., 2^k, 2^k, 2^k) gives the stack of matrices,
    and a single block (..., 1, D, D), a term held whole, is the matrix
    itself.
    """
    if blocks.shape[-3] == 1:
        return blocks[..., 0, :, :]
    rows = sector_rows(blocks.shape[-3].bit_length() - 1)
    out = np.zeros(blocks.shape[:-3] + (rows.size, rows.size), dtype=blocks.dtype)
    out[..., rows[:, :, None], rows[:, None, :]] = blocks
    return out


def sector_eigenvectors(vectors: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """The columns where sel holds of a basis by sector, as columns of the whole matrix.

    vectors is a stack (count, p, c), one block per sector, and sel (count,
    c).  Block t of 2^k sits at the indices sector_rows(k)[t], and a stack of
    one at every index; columns follow sel's (block, column) order, so each
    is exactly zero outside one sector.
    """
    count, side = vectors.shape[:2]
    rows = np.arange(side)[None] if count == 1 else sector_rows(count.bit_length() - 1)
    sector, col = np.nonzero(sel)
    v = np.zeros((count * side, sector.size), dtype=vectors.dtype)
    v[rows[sector], np.arange(sector.size)[:, None]] = vectors[sector, :, col]
    return v


def _padded_columns(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The columns of each matrix of a stack u where keep holds, zero-padded to the most any has."""
    at = np.nonzero(keep)
    slot = (np.cumsum(keep, axis=-1) - 1)[at]
    out = np.zeros(u.shape[:-1] + (int(keep.sum(axis=-1).max()),), dtype=u.dtype)
    out[at[:-1] + (slice(None), slot)] = u[at[:-1] + (slice(None), at[-1])]
    return out


@dataclass(frozen=True)
class Sectors:
    """The sectors of superoperators on the doubled register of n qubits.

    A superoperator that maps |i>|j> into |i'>|j'> with i' xor j' = i xor j
    splits, labelled, into 2^n sectors s of side 2^n, sector s spanned by
    the |i>|i xor s> in the order of i (Albert & Jiang, PRA 2014): it is a
    stack (2^n, 2^n, 2^n) and a vector a (2^n, 2^n) array.  A term on the
    doubled legs S + (S + n) that is exactly zero outside its local sectors
    (sector_blocks) acts in sector s as its block at t = s restricted to S,
    tensored with I, on the sites S of an n-qubit register: its qubits here
    are S.  Unlabelled, the register is its own one sector, the 2n qubits
    of the doubled register (a stack (1, 4^n, 4^n)), and a term's qubits
    are its legs: every term has that case, so one code path serves both.
    A term's basis is held the same way, by local sector (sector_bases).

    Labelled, held may name a subset of the sector labels, ascending: a
    stack then holds those sectors only, (..., len(held), 2^n, C), and every
    other sector is left to the caller (the dl_qsvt anneal's DL operator is
    exactly zero there, projector._dl_by_sector).  On a held subset, and on
    the one sector, apply takes leading stack axes (temperatures) on the
    stack and the blocks alike; held None is all 2^n sectors, held by the
    view of apply's docstring, with no leading axes.
    """

    n: int
    labelled: bool
    held: tuple[int, ...] | None = None

    @property
    def width(self) -> int:
        """Qubits of the register a sector lives on: n labelled, 2n unlabelled."""
        return self.n if self.labelled else 2 * self.n

    @property
    def count(self) -> int:
        if self.held is not None:
            return len(self.held)
        return 2**self.n if self.labelled else 1

    def qubits(self, legs: tuple[int, ...]) -> tuple[int, ...]:
        """The qubits of a term on the doubled legs S + (S + n): S labelled, else the legs."""
        return legs[: len(legs) // 2] if self.labelled else legs

    @cached_property
    def index(self) -> np.ndarray:
        """(count, 2^width) positions in vec order of each sector's basis vectors."""
        if not self.labelled:
            return np.arange(4**self.n)[None]
        rows = sector_rows(self.n)
        return rows if self.held is None else rows[list(self.held)]

    def identity(self, dtype, lead: tuple[int, ...] = ()) -> np.ndarray:
        """The identity of each sector, (*lead, count, side, side)."""
        side = 2**self.width
        return np.broadcast_to(np.eye(side, dtype=dtype), lead + (self.count, side, side)).copy()

    def add(self, total: np.ndarray, blocks: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
        """total + (blocks at each sector's local block, tensor I), total a stack.

        Written into total, on the identity's diagonal of the other qubits as
        add_embedded writes, unless the sum needs a wider dtype.
        """
        if np.result_type(total, blocks) != total.dtype:
            total = total.astype(np.result_type(total, blocks))
        w, labels = self.width, self._labels(qubits)
        front = labels + tuple(self._label_axes + q for q in qubits)
        front += tuple(self._label_axes + w + q for q in qubits)
        order, _ = _leg_plan(front, self._label_axes + 2 * w)
        held = total.reshape((2,) * (self._label_axes + 2 * w)).transpose(order)
        other = self._label_axes - len(labels)
        diagonal = 2 * _diagonal_index(w - len(qubits)) or (None,)
        held[(slice(None),) * (len(front) + other) + diagonal] += blocks.reshape(
            (2,) * len(front) + (1,) * (other + 1)
        )
        return total

    def apply(self, stack: np.ndarray, qubits: tuple[int, ...], blocks: np.ndarray) -> np.ndarray:
        """Each sector of a stack (..., count, 2^width, C) times an operator on qubits, tensor I.

        blocks holds the operator's block per local sector (sector_blocks), and a
        sector takes the block its labels on qubits select.  Labelled, on a
        run of consecutive qubits (every chain term), the stack is viewed as
        (pre, labels, middle, rows, rest), the qubits' label and row axes one
        axis each, and the blocks broadcast over that view, with no
        transposed copy; otherwise those axes are moved to the front.  On a
        held subset each held sector's block is gathered first, and on a
        run of consecutive qubits each sector is viewed as (pre, rows,
        rest), so every block multiplies the matrix it multiplies on all
        sectors.  Leading axes of stack and blocks (a held subset or the one
        sector) are a stack of operators applied entry by entry.
        """
        k, w = len(qubits), self.width
        run = tuple(qubits) == tuple(range(qubits[0], qubits[0] + k))
        if self.labelled and self.held is None and run:
            t = stack.reshape(2 ** qubits[0], 2**k, 2 ** (w - k), 2**k, -1)
            return (blocks[:, None] @ t).reshape(stack.shape)
        if self.held is not None:
            blocks = blocks[..., self._held_labels(tuple(qubits)), :, :]
            if run:
                t = stack.reshape(stack.shape[:-2] + (2 ** qubits[0], 2**k, -1))
                return (blocks[..., None, :, :] @ t).reshape(stack.shape)
            # Each sector's rows alone, behind the count axis.
            lead, labels, axes, count = stack.shape[:-2], (), 0, ()
        else:
            lead, labels, axes = stack.shape[:-3], self._labels(qubits), self._label_axes
            count = (blocks.shape[-3],)
        nl = len(lead)
        shape = lead + (2,) * (axes + w) + (stack.shape[-1],)
        front = tuple(nl + a for a in labels + tuple(axes + q for q in qubits))
        order, back = _leg_plan(tuple(range(nl)) + front, len(shape))
        t = stack.reshape(shape).transpose(order).reshape(lead + count + (blocks.shape[-1], -1))
        t = blocks @ t
        return t.reshape([shape[a] for a in order]).transpose(back).reshape(stack.shape)

    def _held_labels(self, qubits: tuple[int, ...]) -> np.ndarray:
        """The local sector a term on qubits takes in each held sector."""
        return _restricted_labels(qubits, self.n)[list(self.held)]

    def lift(self, v: np.ndarray, pos: Sequence[int], width: int) -> np.ndarray:
        """v's blocks on the qubits at positions pos of a width-qubit register, tensor I.

        One block per sector of that register: labelled, the block its labels
        at pos select.  Rows follow the register, and columns are v's column
        first, then the other qubits, as in lift_basis.
        """
        pos = tuple(pos)
        if self.labelled:
            v = v[_restricted_labels(pos, width)]
        if pos == tuple(range(width)):
            return v
        rest = 2 ** (width - len(pos))
        lifted = v[:, :, None, :, None] * np.eye(rest, dtype=v.dtype)[:, None, :]
        lifted = lifted.reshape((v.shape[0],) + (2,) * width + (v.shape[-1] * rest,))
        # Its register axes are pos, then the other qubits: _leg_plan's order.
        _, back = _leg_plan(pos, width)
        axes = (0,) + tuple(1 + a for a in back) + (width + 1,)
        return lifted.transpose(axes).reshape(v.shape[0], 2**width, -1)

    @property
    def _label_axes(self) -> int:
        """Leading axes of a stack's labels: width labelled, none unlabelled."""
        return self.width if self.labelled else 0

    def _labels(self, qubits: tuple[int, ...]) -> tuple[int, ...]:
        """The label axes a term on qubits selects its block by."""
        return tuple(qubits) if self.labelled else ()

    def gather(self, z: np.ndarray) -> np.ndarray:
        """A vector in vec order as its sectors, (count, 2^width); a stack of them entry by entry."""
        return z[..., self.index]

    def scatter(self, z: np.ndarray) -> np.ndarray:
        """The vector in vec order whose sectors are z, gather's inverse; zero off held sectors."""
        out = (np.empty if self.held is None else np.zeros)(4**self.n, dtype=z.dtype)
        out[self.index] = z
        return out


def sector_sum(
    terms: Iterable[tuple[np.ndarray, tuple[int, ...]]], n: int
) -> tuple[Sectors, np.ndarray]:
    """The sum of terms held by sector on doubled legs, from one pass over terms.

    Each term is (blocks, legs): its blocks by local sector (sector_blocks),
    (2^k, 2^k, 2^k), or the whole term as one block (1, 4^k, 4^k).  The sum
    is labelled when every term is held by sector; at the first held whole,
    the sum so far is made whole on the one sector, and so is every term
    held by sector after it (sector_unsplit), so only one stack is ever
    held.
    """
    sectors, total = Sectors(n, True), None
    for blocks, legs in terms:
        if sectors.labelled and blocks.shape[0] == 1:
            sectors = Sectors(n, False)
            if total is not None:
                total = sector_unsplit(total)[None]
        elif not sectors.labelled and blocks.shape[0] > 1:
            blocks = sector_unsplit(blocks)[None]
        if total is None:
            total = np.zeros((sectors.count,) + (2**sectors.width,) * 2, dtype=blocks.dtype)
        total = sectors.add(total, blocks, sectors.qubits(legs))
        del blocks  # so a streamed term is freed before the next is built
    return sectors, total


def sector_bases(
    bases: Sequence[np.ndarray], legs: Sequence[tuple[int, ...]], n: int
) -> tuple[Sectors, tuple[tuple[np.ndarray, tuple[int, ...]], ...]]:
    """Bases by local sector (kms.TermKernel.basis) on doubled legs as (blocks, qubits).

    Labelled when every one is held by sector; otherwise each is made whole
    on the one sector, its zero padding dropped (no basis vector is zero).
    """
    sectors = Sectors(n, all(v.shape[0] > 1 for v in bases))
    if not sectors.labelled:
        bases = [sector_eigenvectors(v, v.any(axis=-2))[None] for v in bases]
    return sectors, tuple((v, sectors.qubits(lg)) for v, lg in zip(bases, legs))


def sector_noncommutation_degree(
    sectors: Sectors, parts: Sequence[tuple[np.ndarray, tuple[int, ...]]]
) -> int:
    """noncommutation_degree of the projectors V V dagger of sector_bases' parts.

    For orthogonal projectors P, Q the commutator PQ - QP is PQ(I - P) minus
    its adjoint, which maps range(P) to its complement, so
    ||[P, Q]|| = ||PQ(I - P)||.  With P = V_a V_a dagger, Q = V_b V_b dagger
    and X = V_a dagger V_b this is ||X (V_b dagger - X dagger V_a dagger)||,
    decided by norm_exceeds against COMMUTATOR_CUT: a projector has norm 1,
    so the scale of noncommutation_degree is 1.  Projectors on disjoint
    qubits commute exactly and are not compared; an overlapping pair is
    compared on the union of its qubits (_pair_degree), each basis lifted
    there by the identity, which leaves the commutator norm unchanged.  Both
    keep the union's sectors, so the norm is the largest over them, and
    norm_exceeds decides it on the stack of the sectors' matrices.
    """
    def exceeds(a: int, b: int, pair: tuple) -> bool:
        la, lb, width = pair
        va = sectors.lift(parts[a][0], la, width)
        vb = sectors.lift(parts[b][0], lb, width)
        adj_a = np.swapaxes(va.conj(), -1, -2)
        x = adj_a @ vb
        y = np.swapaxes(vb.conj(), -1, -2) - np.swapaxes(x.conj(), -1, -2) @ adj_a
        return norm_exceeds(x @ y, COMMUTATOR_CUT)

    return _pair_degree(len(parts), [q for _, q in parts], exceeds)


def commutation_degree(ham: LocalHamiltonian) -> int:
    """noncommutation_degree of the terms, each tensored with I on the register.

    ||A tensor I|| = ||A||, so the scale reads each term's own norm.  Terms
    on disjoint qubits commute exactly and are not compared; an overlapping
    pair is compared on the union of its supports (_pair_degree), where the
    commutator has the norm it has on the register.
    """
    terms = ham.terms
    scale = max([1.0] + [spectral_norm(t.op) for t in terms])
    bound = COMMUTATOR_CUT * scale * scale

    def exceeds(a: int, b: int, pair: tuple) -> bool:
        la, lb, width = pair
        ta = embed(LocalOperator(terms[a].op, la), width)
        tb = embed(LocalOperator(terms[b].op, lb), width)
        return norm_exceeds(ta @ tb - tb @ ta, bound)

    return _pair_degree(len(terms), [t.support for t in terms], exceeds)


@dataclass(frozen=True)
class SectorHamiltonian:
    """Local terms on the doubled register of n // 2 qubits, held by local sector, at B entries.

    Term a acts on the doubled legs supports[a] = S + (S + n // 2) as
    blocks[a], (B, 2^|S|, 2^|S|, 2^|S|): its blocks by local sector
    (sector_blocks), read straight off a parent term stack; or (B, 1, 4^|S|,
    4^|S|), the whole term as one block.  eigs[a] is its eigendecomposition
    block by block.  The B entries are steps of a temperature stack: a
    projector input of one step has B = 1, and stack joins the steps' inputs
    for the dl_qsvt anneal's second pass.  The sum is labelled (sectors) when
    every term is held by local sector; otherwise it is on the one sector of
    side 2^n, where a term held by sector is made whole (sector_unsplit).
    Each entry's ground cluster is read off its sum, taken by sector_sum's
    rule from the held blocks and decomposed in one stacked eigvalsh, with
    no 2^n x 2^n array when the sum is labelled, and entry by entry, so at
    most one entry's sum is alive.
    """

    n: int
    supports: tuple[tuple[int, ...], ...]
    blocks: tuple[np.ndarray, ...]
    eigs: tuple[HermitianEig, ...]

    def __post_init__(self) -> None:
        for name in ("supports", "blocks", "eigs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.eigs) == len(self.blocks) == len(self.supports) or self.n % 2:
            raise DimensionMismatch(
                f"{len(self.eigs)} eigendecompositions for {len(self.blocks)} terms "
                f"on a doubled register of {self.n} qubits"
            )

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def entries(self) -> int:
        """B, the entries of the stack."""
        return self.blocks[0].shape[0]

    @cached_property
    def sectors(self) -> Sectors:
        """The sectors the sum, its DL operator and its projector are held by."""
        return Sectors(self.n // 2, all(b.shape[1] > 1 for b in self.blocks))

    def term_blocks(self, a: int) -> np.ndarray:
        """Term a as the sectors hold it, (B, count, p, p): made whole on the one sector."""
        blocks = self.blocks[a]
        return blocks if self.sectors.labelled else sector_unsplit(blocks)[:, None]

    @cached_property
    def clusters(self) -> tuple[GroundCluster, ...]:
        """Each entry's ground cluster (ground_cluster's rule), over all the sectors of its sum.

        Read unchecked (symmetric_eigenvalues), as coherent_spectrum reads a
        parent's sum: every block is -(h + h dagger)/2 / scale and
        Sectors.add adds conjugate entries in the same order, so the sum is
        exactly Hermitian, and the check would return the same array.
        """
        out = []
        for j in range(self.entries):
            terms = ((b[j], legs) for b, legs in zip(self.blocks, self.supports))
            _, total = sector_sum(terms, self.n // 2)
            out.append(_cluster_of(np.sort(symmetric_eigenvalues(total), axis=None)))
            del total
        return tuple(out)

    @property
    def cluster(self) -> GroundCluster:
        """The ground cluster of a stack of one."""
        (cluster,) = self.clusters
        return cluster

    def __getitem__(self, j: int) -> SectorHamiltonian:
        """Entry j, a stack of one that keeps its ground cluster."""
        one = SectorHamiltonian(
            self.n,
            self.supports,
            tuple(b[j : j + 1] for b in self.blocks),
            tuple(HermitianEig(e.eigenvalues[j : j + 1], e.eigenvectors[j : j + 1]) for e in self.eigs),
        )
        if "clusters" in self.__dict__:
            one.__dict__["clusters"] = (self.clusters[j],)
        return one

    @staticmethod
    def stack(steps: Sequence[SectorHamiltonian]) -> SectorHamiltonian:
        """The steps' entries as one stack, in order, keeping the ground clusters read so far."""
        joined = SectorHamiltonian(
            steps[0].n,
            steps[0].supports,
            tuple(np.concatenate(b) for b in zip(*(s.blocks for s in steps))),
            tuple(
                HermitianEig(
                    np.concatenate([e.eigenvalues for e in eigs]),
                    np.concatenate([e.eigenvectors for e in eigs]),
                )
                for eigs in zip(*(s.eigs for s in steps))
            ),
        )
        if all("clusters" in s.__dict__ for s in steps):
            joined.__dict__["clusters"] = sum((s.clusters for s in steps), ())
        return joined


@dataclass(frozen=True)
class GroundCluster:
    """Lowest eigenvalue w_0 (energy), cluster size and gap of H, and ||H|| = max |w|."""

    energy: float
    dimension: int
    gap: float
    norm: float


def ground_cluster(ham: LocalHamiltonian) -> GroundCluster:
    """Ground cluster of H (assemble) from one eigvalsh (_cluster_of)."""
    return _cluster_of(hermitian_eigenvalues(assemble(ham)))


def _cluster_of(w: np.ndarray) -> GroundCluster:
    """The ground cluster of the ascending eigenvalues w of H.

    The cluster collects eigenvalues within GROUND_CLUSTER_WIDTH * max(1, ||H||)
    of the minimum, and the gap is to the next eigenvalue (inf if there is none);
    a gap below ten times that width triggers a DegenerateGapWarning
    because the cluster boundary is then ambiguous.
    """
    norm = float(np.abs(w).max())
    width = GROUND_CLUSTER_WIDTH * max(1.0, norm)
    dim = int(np.sum(w - w[0] <= width))
    gap = float(w[dim] - w[0]) if dim < len(w) else float("inf")
    if gap < 10 * width:
        warnings.warn(
            f"ground cluster of dimension {dim} has gap {gap:.3e} within "
            f"10x the cluster width {width:.3e}",
            DegenerateGapWarning,
        )
    return GroundCluster(energy=float(w[0]), dimension=dim, gap=gap, norm=norm)


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
    if seed < 0:
        raise BadParams(f"instance seed must be >= 0, got {seed}")
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
