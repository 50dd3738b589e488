"""Coefficient families, their block matrices and partition trace sums.

A family assigns an alpha x alpha complex matrix to each length-d index
tuple over a finite alphabet {1..r}.  Splitting the tuple after l slots
arranges the family into a block matrix M_l; its Schatten powers are plain
traces of matrix powers.  The central quantity is the trace sum of a
partition: one free index per block, and the 2m groups of d positions
contribute alternately the family and the conjugate-transpose of the
index-reversed family.  The sums are contracted around the ring of groups,
one two-operand einsum per group; a walk over a sequence of partitions
starts each one at the first group where it leaves the previous one's
contraction, so a ring prefix that consecutive partitions share is
contracted once.  A star family's tensor runs over the
doubled alphabet of 2r letters, letter 2(k - 1) + e for index k with star
bit e, so block matrices, trace sums and moments read it as they read a
plain family's tensor: a block's phase is part of its letter, and star
conjugation is the letter swap l ^ 1.  Plain and star trace sums share one
body; a star family's groups read the letters of their odd-rank positions
through that swap.

A moment is a cumulant-weighted sum of trace sums over every non-crossing
partition, and `planar_sum` evaluates it without enumerating any: each
group tensor is split into d site tensors, and one interval recursion over
the 2dm positions (the block of the first position closes at some q, the
gaps and the rest are smaller intervals) sums the planar contraction in
polynomial time.  The site tensors repeat with period 2d around the ring,
so the recursion appends a position to an open block in every period at
once, by one matmul with a period matrix of the ring, and closes a pair
from the stepped row of the boundary after its opening by one matmul.  A
block of 2s elements weighs the cumulant of its star pattern, read from
one table by size and first letter.  The ring's layout and that table
depend on the shape and the spec only, and are computed once per value
in a process.  Its tables carry a letter context.  The circular,
semicircular, rdiag: and star_table presets need one.  Haar takes
Kesten's first-return form, pairs of weight 1 with no signed cumulant: its
context names the letter that may not open a block, the inverse of the
letter below, or nothing below.  Only the few
large-d cells past MOMENT_DP_CAP but within the old enumeration caps
still enumerate their family, through `_enumerated_sum`: the one
kappa_pi-weighted sum over a partition family that the brute-force oracle
also takes, the members of a plain or a star family contracted by one ring
walk, each with the group tensors of `_member_tensors`.
Moments are summed for the family scaled to unit norm and scaled back.
Operator norms are exact dense SVD norms.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import types
from dataclasses import dataclass
from itertools import product
from typing import Dict

import numpy as np

from .partitions import Partition
from .symmetry import GridShape
from . import families
from .families import enumerate_ncstar, enumerate_ncdm
from .cumulants import (
    CumulantSpec,
    _ByValue,
    alternating_word,
    bound_norms,
    holo_word,
    kappa_pi,
    plain_word,
)

ASSIGNMENT_CAP = 10_000_000
DIMENSION_CAP = 4096
# bound on the complex entries the planar recursion holds at once (256 MB):
# its two interval tables, of side the summed bonds of the ring's even and
# odd boundaries, once per letter context (Haar's letters and one more),
# plus the open-block arrays and stepped rows, the two period matrices, the
# legs with the pair weights folded in, the context mask and the block
# weights; time grows as a further factor of the table side
MOMENT_DP_CAP = 2 ** 24
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _as_matrix(value, alpha: int) -> np.ndarray:
    mat = np.asarray(value, dtype=complex)
    if mat.shape == () and alpha == 1:
        mat = mat.reshape(1, 1)
    if mat.shape != (alpha, alpha):
        raise ValueError("entry has shape %r, expected (%d, %d)" % (mat.shape, alpha, alpha))
    return mat


class _Family:
    """What plain and star families share: d slots over a.letters letters,
    alpha x alpha complex matrices on a finite support, and one dense tensor
    of shape (letters,)*d + (alpha, alpha) built from them."""

    def __init__(self, d: int, r: int, alpha: int, entries: Dict[tuple, object]):
        if d < 1 or r < 1 or alpha < 1:
            raise ValueError("need d, r, alpha >= 1")
        self.d = d
        self.r = r
        self.alpha = alpha
        self._entries = {self._checked(key): _as_matrix(value, alpha)
                         for key, value in entries.items()}
        self._tensor = None
        self._scaled_from = None  # (c, family) of a scaled copy
        self._ml_norms = {}  # m -> the d + 1 block-matrix norms, kept by ml_norms

    @property
    def entries(self) -> dict:
        """The matrix of each support point.  A scaled copy's are c times
        its source's, computed when first read: a moment at unit norm reads
        the tensor only."""
        if self._entries is None:
            c, source = self._scaled_from
            self._entries = {key: c * mat for key, mat in source.entries.items()}
        return self._entries

    def tensor(self) -> np.ndarray:
        """Tensor of shape (letters,)*d + (alpha, alpha); absent entries are
        zero.  A scaled copy's is c times its source's, which the source
        keeps."""
        if self._tensor is None and self._scaled_from is not None:
            c, source = self._scaled_from
            self._tensor = c * source.tensor()
        if self._tensor is None:
            t = np.zeros((self.letters,) * self.d + (self.alpha, self.alpha), dtype=complex)
            for key, mat in self.entries.items():
                t[self._letters_of(key)] = mat
            self._tensor = t
        return self._tensor

    def frobenius(self) -> float:
        """||a||_2, summed without squaring past the float range."""
        return _norm2(np.array(list(self.entries.values())))

    def frobenius_sq(self) -> float:
        return self.frobenius() ** 2

    def scaled(self, c: float):
        """The family c * a.  The support is unchanged, so it is not checked again."""
        out = object.__new__(type(self))
        out.d, out.r, out.alpha = self.d, self.r, self.alpha
        out._entries, out._tensor, out._scaled_from = None, None, (c, self)
        out._ml_norms = {}
        return out

    def __repr__(self) -> str:
        return "%s(d=%d, r=%d, alpha=%d, support=%d)" % (
            type(self).__name__, self.d, self.r, self.alpha, len(self.entries))


class CoefficientFamily(_Family):
    """Finitely supported map from {1..r}^d to alpha x alpha complex matrices."""

    @property
    def letters(self) -> int:
        return self.r

    def _checked(self, key) -> tuple:
        key = tuple(key)
        if len(key) != self.d or not all(1 <= k <= self.r for k in key):
            raise ValueError("bad index tuple %r" % (key,))
        return key

    def _letters_of(self, key: tuple) -> tuple:
        return tuple(k - 1 for k in key)

    def dense(self) -> np.ndarray:
        """Tensor of shape (r,)*d + (alpha, alpha); absent entries are zero."""
        return self.tensor()


class StarCoefficientFamily(_Family):
    """Family indexed by ({1..r} x {1,*})^d, supported on tuples where equal
    neighbouring indices carry equal stars.

    Its tensor runs over the doubled alphabet of 2r letters, letter
    2(k - 1) + e for index k with star bit e (1 means starred), so block
    matrices, trace sums and the planar recursion read it as they read a
    plain family's; star conjugation is the letter swap l ^ 1.
    """

    @property
    def letters(self) -> int:
        return 2 * self.r

    def _checked(self, key) -> tuple:
        idx, stars = tuple(key[0]), tuple(key[1])
        if len(idx) != self.d or not all(1 <= k <= self.r for k in idx):
            raise ValueError("bad index tuple %r" % (idx,))
        if len(stars) != self.d or not all(s in (False, True) for s in stars):
            raise ValueError("bad star tuple %r" % (stars,))
        if not _in_reduced_support(idx, stars):
            raise ValueError(
                "support point %r violates the reduced-word condition" % ((idx, stars),))
        return idx, stars

    def _letters_of(self, key: tuple) -> tuple:
        return tuple(2 * (k - 1) + int(s) for k, s in zip(*key))

    def dense(self) -> np.ndarray:
        """View of shape (r,)*d + (2,)*d + (alpha, alpha); star axis 1 means starred."""
        d = self.d
        split = self.tensor().reshape((self.r, 2) * d + (self.alpha, self.alpha))
        return split.transpose(tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
                               + (2 * d, 2 * d + 1))


def _in_reduced_support(idx: tuple, stars: tuple) -> bool:
    return all(not (idx[i] == idx[i + 1] and stars[i] != stars[i + 1])
               for i in range(len(idx) - 1))


def flip(a: CoefficientFamily) -> CoefficientFamily:
    """Index-reversed family; an involution."""
    return CoefficientFamily(
        a.d, a.r, a.alpha, {key[::-1]: mat for key, mat in a.entries.items()})


@dataclass
class BlockMatrixView:
    """Dense block matrix for the split {1..r}^d = {1..r}^l x {1..r}^{d-l}."""

    l: int
    matrix: np.ndarray


def build_Ml(a, l: int) -> BlockMatrixView:
    """Rows over the first l letters and {1..alpha}, columns over the
    remaining letters and {1..alpha}; a star family's letters are those of
    its doubled alphabet."""
    return BlockMatrixView(l, _block_matrix(a, a.tensor(), l))


def _block_matrix(a, t: np.ndarray, l: int) -> np.ndarray:
    """M_l of the tensor t, shaped as a's tensor."""
    if not 0 <= l <= a.d:
        raise ValueError("split %d outside 0..%d" % (l, a.d))
    rows = a.letters ** l * a.alpha
    cols = a.letters ** (a.d - l) * a.alpha
    if min(rows, cols) > DIMENSION_CAP:
        raise ValueError("block matrix dimension exceeds cap %d" % DIMENSION_CAP)
    # axes (l_1..l_d, i, j) -> (l_1..l_l, i, l_{l+1}..l_d, j)
    perm = tuple(range(l)) + (a.d,) + tuple(range(l, a.d)) + (a.d + 1,)
    return np.ascontiguousarray(t.transpose(perm).reshape(rows, cols))


build_Ml_star = build_Ml


def _matrix_of(M) -> np.ndarray:
    return M.matrix if isinstance(M, BlockMatrixView) else np.asarray(M)


def schatten_pow(M, m: int) -> float:
    """Tr((M^* M)^m); past the float range it is math.inf."""
    return float(np.ldexp(*_power_trace(_matrix_of(M), m)))


def _power_trace(mat: np.ndarray, m: int) -> tuple:
    """(t, e) with Tr((M^* M)^m) = t 2^e, by repeated multiplication of the
    Gram matrix G on the smaller side (Tr((M^* M)^m) = Tr((M M^*)^m)).

    Every `every` products the power is scaled by the power of two that
    puts its trace in [1/2, 1), which is exact, so below `every` products
    t 2^e is the plain product.  For tr(G) = 1 the scaled power stays in
    the float range at any m: a product with G never grows its trace and
    shrinks it at most len(G)-fold (Chebyshev's sum inequality on the
    eigenvalues), so even a flat spectrum does not underflow.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    gram = mat @ mat.conj().T if mat.shape[0] < mat.shape[1] else mat.conj().T @ mat
    every = int(600 / math.log(len(gram) + 1))
    power, exponent = gram, 0
    for k in range(1, m):
        if k % every == 0:
            shift = math.frexp(power.trace().real)[1]
            power, exponent = power * 2.0 ** -shift, exponent + shift
        power = power @ gram
    return float(power.trace().real), exponent


def _norm2(values: np.ndarray) -> float:
    """The l2 norm of an array, scaled by its largest modulus first so that
    no square passes the float range.  Raises ValueError when the norm
    itself is past it."""
    top = float(np.abs(values).max(initial=0.0))
    unit = values / top if top else values
    norm = top * math.sqrt(np.vdot(unit, unit).real)
    if norm == math.inf:
        raise ValueError("l2 norm is past the float range")
    return norm


def schatten_norm(M, m: int) -> float:
    """The 2m-norm Tr((M^* M)^m)^(1/2m), taken at unit Frobenius norm and
    from the scaled power of _power_trace, so that it stays within the
    float range at any m."""
    mat = _matrix_of(M)
    scale = _norm2(mat)
    return _scaled_schatten_norm(mat / scale, scale, m) if scale else 0.0


def _scaled_schatten_norm(unit: np.ndarray, scale: float, m: int) -> float:
    """scale times the 2m-norm of unit, a matrix of Frobenius norm 1."""
    trace, exponent = _power_trace(unit, m)
    return scale * trace ** (1.0 / (2 * m)) * 2.0 ** (exponent / (2 * m))


# ---------------------------------------------------------------------------
# partition trace sums


def _grid_of(a, p: Partition) -> GridShape:
    if p.n % (2 * a.d) != 0:
        raise ValueError("ground size %d is not 2*d*m for d=%d" % (p.n, a.d))
    return GridShape(a.d, p.n // (2 * a.d))


def _check_assignment_cap(a, p: Partition) -> None:
    if a.letters ** p.num_blocks > ASSIGNMENT_CAP:
        raise ValueError("assignment count %d^%d exceeds cap %d"
                         % (a.letters, p.num_blocks, ASSIGNMENT_CAP))


def _swap_stars(t: np.ndarray, axes) -> np.ndarray:
    """t with the doubled-alphabet letters of the given axes star-conjugated,
    letter l read as l ^ 1."""
    swap = np.arange(t.shape[0]) ^ 1
    for o in axes:
        t = t.take(swap, axis=o)
    return t


def _group_tensors(a) -> tuple:
    """The odd and even group tensors of the trace ring, axes
    (letter_1..letter_d, i, j): the family's tensor t and its adjoint with
    the letters reversed, [l, i, j] = conj(t[reversed l, j, i]).  For a star
    family the adjoint also conjugates every star."""
    t, d = a.tensor(), a.d
    even = t.transpose(tuple(range(d - 1, -1, -1)) + (d + 1, d)).conj()
    if isinstance(a, StarCoefficientFamily):
        even = _swap_stars(even, range(d))
    return t, even


def _ring_walk(d: int, m: int, tensor_of):
    """A function giving the trace sum of each partition it is called on,
    contracted around the ring of its 2m groups; called on a sequence of
    partitions in order, it contracts each prefix they share once.

    Group j (positions jd+1..jd+d) contributes tensor_of(j), subscripted by
    the blocks of its positions and by the two matrix indices it chains;
    a call may pass its own tensor_of, which defaults to the walk's.  The
    walk reads each partition's block ids alone, each block's last
    position among them, and builds no block tuple.
    Walking the groups in ring order carries T_j[i0, i, blocks still open],
    from T_0 = eye(alpha): group j is one two-operand einsum from T_j to
    T_(j+1), which sums out every block whose last position lies in the
    group, and the result is trace(T_2m).  T holds at most
    alpha^2 L^(#blocks) entries over the family's L letters, so the
    assignment cap checked by the callers bounds it.

    The walk keeps T_0 .. T_2m of the partition it was last called on.  The
    einsum of group j reads T_j, the blocks open going in, the group's block
    ids, the blocks open going out and tensor_of(j).  The first four agree
    on groups 0..j-1 exactly when the two partitions agree on positions
    1..jd in their block ids and in which positions end a block.  (Where the
    ids agree on a group but a block ends there in one partition only, the
    other has that block at a later position, which lies in a later group,
    as the ids would differ otherwise; so the blocks open going out differ.)
    The tensors agree there too when each partition's tensor_of(j) depends
    on the ranks of group j's positions in their blocks only, as a star
    family's does (_member_tensors): block ids that agree on positions
    1..jd fix every rank on those positions, so the star swaps of a shared
    prefix agree.  From the first group that differs the walk runs the same
    einsums on the same operands as a fresh walk, so every trace sum is ==
    to a fresh walk's.  The matrix indices take the labels above every
    block id, whatever the block count, so that partitions with different
    block counts share prefixes.
    """
    first, here, nxt = 49, 50, 51  # einsum takes labels below 52
    partials = [np.eye(tensor_of(0).shape[-1], dtype=complex)]  # T_0 .. T_j
    opens = [[]]  # the blocks open going into groups 0 .. j
    walked = []  # block id per position of the last partition, ~id where a block ends

    def trace_of(p: Partition, tensor_of=tensor_of) -> complex:
        nonlocal walked
        ids = p._block_id
        # the last position of each block, 0-based, by block id: the ids are
        # numbered by first appearance, the order the dict keeps
        ends = list({b: x for x, b in enumerate(ids)}.values())
        code = list(ids)
        for x in ends:
            code[x] = ~code[x]
        shared = 0
        for u, v in zip(code, walked):
            if u != v:
                break
            shared += 1
        start = shared // d
        del partials[start + 1:], opens[start + 1:]
        last_group = [x // d for x in ends]
        for j in range(start, 2 * m):
            subs = list(ids[j * d:j * d + d])
            open_blocks = opens[j]
            still_open = [b for b in dict.fromkeys(open_blocks + subs) if last_group[b] > j]
            partials.append(np.einsum(partials[j], [first, here] + open_blocks, tensor_of(j),
                                      subs + [here, nxt], [first, nxt] + still_open))
            opens.append(still_open)
        walked = code
        return complex(np.trace(partials[-1]))

    return trace_of


def _contract(p: Partition, d: int, m: int, tensor_of) -> complex:
    """The trace sum of p, contracted around the ring of its 2m groups by
    the one-member case of _ring_walk: one two-operand einsum per group."""
    return _ring_walk(d, m, tensor_of)(p)


def _member_tensors(a, groups: tuple, swapped: dict, p: Partition):
    """tensor_of(j) for the trace sum of p over a, from its group tensors.

    Raises ValueError, before any einsum, for a block of odd size in a star
    family and past ASSIGNMENT_CAP letter assignments.  A plain family's
    group j contributes groups[j % 2].  In a star family each block gets one
    letter (k, phase e) of the doubled alphabet, so the sum over letters and
    phases is a single contraction.  The position of rank q in its block
    (counted from 0 in position order) carries the star bit e XOR (q mod 2):
    group j reads the letters of its odd-rank positions through the star
    swap l ^ 1.  Each swapped tensor is built once in swapped, keyed by the
    group's parity and those positions, so a sum over any number of members
    builds at most 2 * 2^d of them.
    """
    star = isinstance(a, StarCoefficientFamily)
    if star and any(len(b) % 2 for b in p.blocks):
        raise ValueError("star trace sums need even blocks")
    _check_assignment_cap(a, p)
    if not star:
        return lambda j: groups[j % 2]
    d, odd_rank = a.d, {pos - 1 for b in p.blocks for pos in b[1::2]}

    def tensor_of(j: int) -> np.ndarray:
        key = (j % 2, tuple(o for o in range(d) if j * d + o in odd_rank))
        if key not in swapped:
            swapped[key] = _swap_stars(groups[j % 2], key[1])
        return swapped[key]

    return tensor_of


def _trace_sum(a, p: Partition) -> complex:
    g = _grid_of(a, p)
    return _contract(p, g.d, g.m, _member_tensors(a, _group_tensors(a), {}, p))


def trace_sum_complex(a: CoefficientFamily, p: Partition) -> complex:
    """Trace sum of a partition: one alphabet value per block, groups of d
    positions contributing a, then the conjugate-transposed reversed family,
    alternately around the trace.  Raises ValueError past ASSIGNMENT_CAP
    letter assignments, read when the function is called."""
    return _trace_sum(a, p)


def trace_sum(a: CoefficientFamily, p: Partition) -> float:
    """Real part of the trace sum; the residual imaginary part is available
    from trace_sum_complex and must vanish for mirror-symmetric partitions."""
    return trace_sum_complex(a, p).real


def trace_sum_star_complex(a: StarCoefficientFamily, p: Partition) -> complex:
    """Star variant: blocks additionally carry one of two alternating star
    phases, and even groups contribute the conjugate-transposed family with
    indices reversed and stars conjugated.

    The same body as trace_sum_complex: _member_tensors reads the phases as
    star swaps of the group tensors, at most 2 * 2^d of them per call.
    Raises ValueError for a block of odd size and past ASSIGNMENT_CAP, read
    when the function is called.
    """
    return _trace_sum(a, p)


def trace_sum_star(a: StarCoefficientFamily, p: Partition) -> float:
    return trace_sum_star_complex(a, p).real


# ---------------------------------------------------------------------------
# moments by a planar interval recursion


def _split_group(g: np.ndarray) -> list:
    """d site tensors (left bond, letter, right bond) whose chained product is
    the group tensor g, axes (letter_1..letter_d, i, j).

    A copy split: the sites before the middle one copy their letter onto the
    bond, the middle site holds the data and emits the suffix letters, and
    the sites after it read their letter off the bond.  The bond after o
    letters is alpha * L^min(o, d-o), and no entry is computed.
    """
    d, letters, alpha = g.ndim - 2, g.shape[0], g.shape[-1]
    h = d // 2
    sites = [np.eye(alpha * letters ** (o + 1)).reshape(alpha * letters ** o, letters, -1)
             for o in range(h)]
    perm = (d,) + tuple(range(d)) + (d + 1,)
    sites.append(g.transpose(perm).reshape(alpha * letters ** h, letters, -1))
    for o in range(h + 1, d):
        right = alpha * letters ** (d - o - 1)
        sites.append(np.eye(letters * right).reshape(-1, letters, right))
    return sites


class _Ring:
    """The 2dm positions of the trace ring as site tensors, each position
    with the bonds of its own place in its group.

    The shape comes from the family, the preset and m before any tensor is
    built, in O(d), and is kept by _ring_shape per value of (d, m, alpha,
    letters, family kind, preset kind), so a ring of a shape seen before is
    a lookup: the family's L letters (a star family's doubled alphabet),
    the leg width, the two table sides and the complex entries the
    recursion holds at once.  fill adds what is given per boundary, kept by
    _ring_positions: bond, at, first[p], the first column of the period of
    boundary p in its table, and image[p], the first column of a step's
    image at boundary p (that of the period of p - 1, one slot late in
    table 0).  A plain family under an R-diagonal preset has
    legs twice as wide, over the letters (k, star) = 2k + star, and each
    group fills only its own star.  Under the self-adjoint presets, the
    semicircle and star_table, a plain family is read in the plain word:
    every element unstarred, legs L wide, as a star family's are.  The legs
    are a grid (k, star bit), with one star bit in the plain word.  The bond
    at boundary p (before position p) is alpha * L^min(o, d - o) for
    o = p mod d, so it is alpha between groups.  The recursion keeps one
    table per parity of boundary: boundary p owns rows and columns
    at[p] .. at[p] + bond[p] of table p % 2, so the boundaries p, p + 2, ..,
    up to n are the suffix of that table from at[p].  The bonds repeat with
    period 2d, so each table is m whole periods of period[p % 2] columns,
    with at[p + 2d] = at[p] + period[p % 2], and table 0 ends in the last
    boundary n.  fill stores one period matrix per parity and letter:
    block (slot of c, slot of c + 1) holds the legs (left bond, right bond)
    of class c = p mod 2d, and legs[c] is that block.  Parity 1's columns
    start at boundary 2, one slot (alpha columns) late, so that its last
    class feeds class 0 of the next period.
    """

    def __init__(self, a, spec: CumulantSpec, m: int):
        vars(self).update(_ring_shape(a.d, m, a.alpha, a.letters,
                                      isinstance(a, StarCoefficientFamily), spec.kind))

    def fill(self, groups: tuple) -> None:
        """The layout per boundary, the period matrices and the legs in
        them, from the odd and even group tensors."""
        vars(self).update(_ring_positions(self.d, self.n // (2 * self.d), self.alpha,
                                          self.letters))
        self.periods = [np.zeros((self.width, self.period[e], self.period[1 - e]), dtype=complex)
                        for e in (0, 1)]
        self.legs = []
        for j, group in enumerate(groups):
            own = slice(j, None, 2) if self.width > self.letters else slice(None)
            for s in _split_group(group):
                c = len(self.legs)
                row, col = self._prefix[c], self._prefix[c + 1] - c % 2 * self.alpha
                legs = self.periods[c % 2][:, row:row + s.shape[0], col:col + s.shape[2]]
                legs[own] = s.transpose(1, 0, 2)
                self.legs.append(legs)

    def star_bits(self, c: int) -> tuple:
        """The star bits of the letters that open a block at a position of
        class c, and of their flips l ^ 1, as slices of the star axis."""
        if self.grid[1] == 1:
            return slice(None), slice(None)
        if self.width > self.letters:
            g = c // self.d
            return slice(g, g + 1), slice(1 - g, 2 - g)
        return slice(None), slice(None, None, -1)

    @staticmethod
    def step(G: np.ndarray, period: np.ndarray) -> np.ndarray:
        """Append one position in every period: G[.., row, K periods of one
        parity's boundaries] -> H[.., row, their images at the other parity],
        one matmul by the period matrix period[..] of each leading index,
        which G's leading indices broadcast against."""
        H = G.reshape(G.shape[:-2] + (-1, period.shape[-2])) @ period
        return H.reshape(H.shape[:-2] + (G.shape[-2], -1))


@functools.lru_cache(maxsize=128)
def _ring_shape(d: int, m: int, alpha: int, letters: int, star: bool, kind: str):
    """The attributes of a _Ring that do not depend on the family's values
    and take O(d) to compute, read-only: ints and tuples.  Nothing here
    grows with m, so a shape past MOMENT_DP_CAP is rejected at that cost."""
    n = 2 * d * m
    plain_word = not star and kind in ("semicircle", "star_table")
    width = letters if star or plain_word else 2 * letters
    bond = [_bond(d, alpha, letters, p) for p in range(2 * d + 1)]
    prefix = _prefix(d, alpha, letters)
    period = prefix[2 * d:]
    size = (_at(prefix, n + 2), _at(prefix, n + 1))  # n is even
    # a letter context per letter (Haar's) and one more, else one; and
    # the block sizes weighed: Haar's pairs, else every size up to dm
    contexts, sizes = (width + 1, 1) if kind == "haar" else (1, n // 2)
    # the two interval tables per context; at most four arrays like the
    # open blocks at once, each a table wide for every letter or context
    # and row of the largest bond (past pairs H, its product with a table,
    # that product's step and the closed blocks; with pairs only the last
    # stepped row, the next and a copy of the rows it steps, or a stepped
    # row, the closed pairs and their product with a table); the two period
    # matrices; the legs of each class with the pair weights of every
    # context folded in; the context mask, the block weights and their
    # products with the mask
    entries = (contexts * (size[0] ** 2 + size[1] ** 2)
               + 4 * max(width, contexts) * bond[d // 2] * max(size)
               + 2 * width * period[0] * period[1]
               + contexts * letters * sum(bond[c] * bond[c + 1] for c in range(2 * d))
               + (1 + 2 * sizes) * contexts * width)
    return types.MappingProxyType(dict(
        d=d, n=n, alpha=alpha, letters=letters, plain_word=plain_word,
        pairs_only=plain_word and kind == "semicircle", width=width,
        grid=(width, 1) if plain_word else (width // 2, 2), _prefix=prefix,
        period=period, size=size, entries=entries))


def _bond(d: int, alpha: int, letters: int, p: int) -> int:
    """The bond at boundary p: alpha * L^min(o, d - o) for o = p mod d."""
    o = p % d
    return alpha * letters ** min(o, d - o)


def _prefix(d: int, alpha: int, letters: int) -> tuple:
    """prefix[c] (c < 2d + 2): the summed bonds of the boundaries c - 2,
    c - 4, .. >= 0.  The bonds repeat with period 2d, which keeps the
    parity, so _at needs no more, and prefix[2d:] are the two periods."""
    prefix = [0, 0]
    for c in range(2, 2 * d + 2):
        prefix.append(prefix[c - 2] + _bond(d, alpha, letters, c - 2))
    return tuple(prefix)


def _at(prefix: tuple, p: int) -> int:
    """The summed bonds of the boundaries p - 2, p - 4, .. >= 0."""
    periods, c = divmod(p, len(prefix) - 2)
    return periods * prefix[len(prefix) - 2 + p % 2] + prefix[c]


@functools.lru_cache(maxsize=128)
def _ring_positions(d: int, m: int, alpha: int, letters: int):
    """The attributes of a _Ring given per boundary, read-only: bond and at
    as read-only arrays, first and image as tuples of ints.  Built by fill,
    past the cap check, so they are only ever as long as an admitted ring."""
    n, prefix = 2 * d * m, _prefix(d, alpha, letters)
    period = prefix[2 * d:]
    # two empty boundaries past n end the suffixes of both parities
    bond = np.array([_bond(d, alpha, letters, p) for p in range(n + 1)] + [0, 0])
    at = np.array([_at(prefix, p) for p in range(n + 3)])
    bond.flags.writeable = at.flags.writeable = False
    return types.MappingProxyType(dict(
        bond=bond, at=at,
        first=tuple(p // (2 * d) * period[p % 2] for p in range(n + 1)),
        image=tuple((p - 1) // (2 * d) * period[p % 2] + (1 - p % 2) * alpha
                    for p in range(n + 1))))


def _interval_dp(ring: _Ring, alphas: np.ndarray, allowed: np.ndarray) -> complex:
    """Sum over the even-block non-crossing partitions of the ring's positions.

    A block of 2s elements carries one letter l and weighs alphas[s-1, l];
    its elements of even rank (counted from 0) use leg l and those of odd
    rank leg l ^ 1 (leg l in the plain word).  F[c][i, e] sums the
    partitions of positions i..e-1 in letter context c, which vanishes
    unless e - i is even: a block of letter l counts in context c with
    weight allowed[c, l], its later gaps are read in context 0 and the rest
    of the interval in c again.  With one context its first gap is read in
    context 0 too; with more (Kesten's, for Haar) context l forbids the
    letter l, and the first gap is read in context l ^ 1.  The last context
    is the ring's.

    Going back from the last position, a block opened at i starts from the
    stepped row S of boundary i + 1: the rows of that boundary, every
    letter in its first-gap context, times the period matrix of the flipped
    letters, which appends the element of rank 1 in every period at once.
    A pair closes as one matmul of S by the class's legs with the pair
    weights of every context folded in, contexts x bond_i x (letters x
    bond_(i+1)) and built once per call.  A longer block continues as
    H = legs @ S,
    the open block by letter grid and boundary after its last element,
    every gap filled, over whole periods from the period of that boundary,
    whose columns before it are 0 (F[i, e] = 0 for e < i); B holds the
    closed blocks weighed into each context, from the first that closes.
    """
    n, size, d = ring.n, ring.size, ring.d
    at, bond, first, image = ring.at.tolist(), ring.bond.tolist(), ring.first, ring.image
    contexts, grid = len(allowed), ring.grid
    whole = [size[0] - ring.alpha, size[1]]  # the columns of whole periods
    F = [np.zeros((contexts, side, side), dtype=complex) for side in size]
    for table in F:  # empty intervals: an identity per context, set in place
        table.reshape(contexts, -1)[:, ::table.shape[1] + 1] = 1
    # the steps t = 2s - 1 that close a block of a size s of nonzero weight;
    # what a block opened at a position of class c reads: its legs, the
    # period matrices of its even- and odd-rank steps, its pair weights
    # folded into its legs and its weights into the contexts at each later
    # closing step, all by star bits
    rows = np.flatnonzero(alphas.any(axis=1))
    steps = [2 * row + 1 for row in rows.tolist()]
    weights = (alphas[rows, None] * allowed).reshape((len(rows), contexts) + grid)
    last = max(steps, default=0)
    periods = [p.reshape(grid + p.shape[1:]) for p in ring.periods]
    opening = []
    for c, legs in enumerate(ring.legs):
        own, flipped = ring.star_bits(c)
        legs = legs.reshape(grid + legs.shape[1:])[:, own]
        closing = {t: w.reshape(contexts, -1) for t, w in zip(steps, weights[..., own])}
        pair = closing.pop(1, None)
        if pair is not None:  # [context, row, (letter, column)]
            pair = (pair.reshape((contexts, 1) + legs.shape[:2] + (1,))
                    * legs.transpose(2, 0, 1, 3)).reshape(contexts * legs.shape[2], -1)
        opening.append((legs, flipped, (periods[c % 2][:, own], periods[1 - c % 2][:, flipped]),
                        pair, closing))
    for i in range(n - 2, -1, -1):  # a block opened at n - 1 closes nowhere
        legs, flipped, mats, pair, closing = opening[i % (2 * d)]
        same, j, B = F[i % 2], i + 1, None
        # the gap after i, in its first-gap contexts, from the rows of boundary j only
        gap = F[j % 2][0] if contexts == 1 else F[j % 2][:-1].reshape(
            grid + F[j % 2].shape[1:])[:, flipped]
        # its stepped row S, held as H: a pair closes from it, a longer block
        # continues from legs @ S
        H = ring.step(gap[..., at[j]:at[j] + bond[j], first[j]:whole[j % 2]], mats[1])
        if pair is not None:
            B, b0 = (pair @ H.reshape(pair.shape[1], -1)).reshape(
                (contexts, bond[i], -1)), image[j + 1]
        if last > 1:
            H = legs @ H
        # H spans the boundaries from h = i + t: its element of rank t - 1
        # ends at or after h - 1, so no element of rank t fits once h reaches n
        for h in range(j + 1, min(i + last + 1, n)):
            t = h - i
            table = F[h % 2][0, image[h]:, first[h]:whole[h % 2]]
            H = ring.step((H.reshape(-1, table.shape[0]) @ table).reshape(H.shape[:-1] + (-1,)),
                          mats[t % 2])
            if t in closing:
                closed = (closing[t] @ H.reshape(closing[t].shape[-1], -1)).reshape(
                    (contexts,) + H.shape[-2:])
                if B is None:
                    B, b0 = closed, image[h + 1]
                else:
                    B[..., image[h + 1] - b0:] += closed
        if B is not None:
            e = max(b0, at[i + 2])
            same[:, at[i]:at[i] + bond[i], e:] = B[..., e - b0:] @ same[:, e:, e:]
    return complex(np.trace(F[0][-1, :bond[0], at[n]:at[n] + bond[n]]))


def _block_weights(ring: _Ring, spec: CumulantSpec) -> np.ndarray:
    """alphas[s-1, l]: the weight of a block of 2s elements whose first
    letter is l, for every size s up to dm (Haar: pairs only), expanded
    from the table of _weight_table by the star bit l & 1 (the plain word
    has one)."""
    table = _weight_table(_ByValue(spec), ring.n // 2, ring.plain_word)
    return table[:, np.arange(ring.width) % table.shape[1]]


@functools.lru_cache(maxsize=128)
def _weight_table(spec: _ByValue, sizes: int, plain_word: bool) -> np.ndarray:
    """The block weights by size and first star bit, read-only, computed
    once per spec value and shape in a process.

    Haar's first-return form weighs pairs 1.  A preset with a determining
    sequence weighs alpha_s whatever the stars.  The semicircle and
    star_table weigh spec.block_value of the block's star pattern: every
    element unstarred in the plain word, else alternating from the star bit
    of the first letter.
    """
    spec = spec.spec
    if spec.kind == "haar":
        values = [[1]]
    elif spec.kind in ("semicircle", "star_table"):
        starts = [(False, False)] if plain_word else [(False, True), (True, False)]
        values = [[spec.block_value(start * s) for start in starts] for s in range(1, sizes + 1)]
    else:
        values = [[alpha] for alpha in spec.determining(sizes)]
    table = np.array(values, dtype=complex)
    table.flags.writeable = False
    return table


def planar_sum(a, spec: CumulantSpec, m: int) -> complex:
    """The moment Tr (x) phi((X X*)^m) as one planar contraction.

    Plain families under R-diagonal presets and star families both take the
    doubled alphabet of letters (k, star), in which a block's elements
    alternate stars (the swap l ^ 1); a plain family under the semicircle
    or star_table takes its own alphabet in the plain word.  One call to
    _interval_dp sums it, stepping an open block through every period of
    the ring at once by the period matrices of _Ring.fill: the Haar preset
    in Kesten's first-return form, pairs of weight 1 with a letter context
    per letter that may not open one (the mask of _kesten_mask) and one for
    the ring, the others in one context with the weights of _block_weights.
    What depends on the shape and the spec only, the ring's layout and the
    block weights by size and first star bit, is computed once per value in
    a process (_ring_shape, _ring_positions, _weight_table), so a call with
    a family of a shape seen before builds its period matrices and runs the
    recursion only.  Raises ValueError for m < 1 and when the entries _Ring
    counts (the tables, the open blocks and stepped rows, the period
    matrices, the folded legs, the context mask and the weights) exceed
    MOMENT_DP_CAP, at a cost of O(d) whatever m is: before the layout per
    boundary, any tensor or any of those entries is built.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    ring = _Ring(a, spec, m)
    if ring.entries > MOMENT_DP_CAP:
        raise ValueError("moment recursion needs %d complex entries, past the cap "
                         "MOMENT_DP_CAP = %d"
                         % (ring.entries, MOMENT_DP_CAP))
    ring.fill(_group_tensors(a))
    allowed = _kesten_mask(ring.width) if spec.kind == "haar" else np.ones((1, ring.width))
    # a sum past the float range comes back inf or nan, for the caller to
    # reject, without numpy warning about each overflowing product
    with np.errstate(over="ignore", invalid="ignore"):
        return _interval_dp(ring, _block_weights(ring, spec), allowed)


def _kesten_mask(width: int) -> np.ndarray:
    """allowed[c, l] of Kesten's contexts: context c < width forbids the
    letter c, the inverse of the letter below; the last forbids none."""
    return (np.arange(width + 1)[:, None] != np.arange(width)).astype(complex)


def _real_part(total: complex, what: str) -> float:
    if not cmath.isfinite(total):
        raise ArithmeticError("%s is not finite: %r" % (what, total))
    bound = max(ABS_TOL, REL_TOL * abs(total.real))
    if abs(total.imag) > bound:
        raise ArithmeticError("%s has imaginary residual %g" % (what, total.imag))
    return total.real


def _unit_moment(a, moment_sum) -> tuple:
    """(the moment of a / ||a||_2, ||a||_2), from moment_sum(family).

    The moment is homogeneous of degree 2m, so it is summed at unit norm,
    where its size no longer grows like ||a||_2^(2m).  ||a||_2 is summed
    over a's entries, so no tensor is built before the recursion checks
    its cap; the unit copy's tensor, once the recursion asks for it, is one
    product with a's, which a keeps for a bound on a to read again.  The
    real part is clamped at 0 within rounding of that unit scale; a clearly
    negative value, or a sum that is not finite, raises ArithmeticError.
    """
    scale = a.frobenius()
    value = _real_part(moment_sum(a.scaled(1 / scale) if scale else a), "moment sum")
    if value < -ABS_TOL:
        raise ArithmeticError("norm power is negative: %g" % value)
    return max(value, 0.0), scale


def _rescaled(value: float, scale: float, m: int) -> float:
    """value * scale^(2m); math.inf past the float range."""
    try:
        return value * scale ** (2 * m)
    except OverflowError:  # scale^(2m) alone is past the float range
        pass
    try:
        return math.exp(math.log(value) + 2 * m * math.log(scale)) if value else 0.0
    except OverflowError:
        return math.inf


def _norm_2m(value: float, scale: float, m: int) -> float:
    """The 2m-norm from the unit-norm moment value and scale = ||a||_2."""
    return scale * value ** (1.0 / (2 * m))


def _weighted_sum(members, weight_of, trace_of) -> complex:
    """Sum of weight_of(p) * trace_of(p) over the members of nonzero weight."""
    total = 0j
    for p in members:
        weight = weight_of(p)
        if weight:
            total += weight * trace_of(p)
    return total


def _enumerated_sum(a, spec: CumulantSpec, members, word) -> complex:
    """Sum of kappa_pi(spec, p, word) times the trace sum of p over the
    members of nonzero weight, in the order they come.

    The members of a plain or a star family are contracted by one
    _ring_walk, each with its own tensor_of from _member_tensors, which
    checks it before its einsums and shares the star-swapped tensors of the
    whole sum; the walk contracts each ring prefix that consecutive members
    share once, and every trace sum is == to trace_sum_complex's or
    trace_sum_star_complex's.  In a star family's alternating word every
    block of an even-block non-crossing partition alternates stars, so
    kappa_pi weighs each block alpha_(|V|/2), as rdiag_block_weight does.
    """
    groups, swapped = _group_tensors(a), {}
    walk = _ring_walk(a.d, len(word) // (2 * a.d), lambda j: groups[j % 2])
    return _weighted_sum(members, lambda p: kappa_pi(spec, p, word),
                         lambda p: walk(p, _member_tensors(a, groups, swapped, p)))


def _enumerate_instead(a, spec: CumulantSpec, m: int, enumeration_cap: int,
                       letters: int) -> bool:
    """Whether a moment past MOMENT_DP_CAP is still within the enumeration
    cap of its family, and the enumerated sum, contracting a family of the
    given letters, can meet ASSIGNMENT_CAP.  The large-d cells there have
    dense tensors small enough for the member-by-member sum but interval
    tables too large.  When pairs weigh anything (the first row of the
    ring's block weights), the family's pairings carry weight and d*m
    blocks, so past letters^(dm) > ASSIGNMENT_CAP the enumerated sum could
    only fail at them: planar_sum is left to name MOMENT_DP_CAP instead,
    before any member is enumerated."""
    if 2 * a.d * m > enumeration_cap:
        return False
    ring = _Ring(a, spec, m)
    if ring.entries <= MOMENT_DP_CAP:
        return False
    pairs = _weight_table(_ByValue(spec), ring.n // 2, ring.plain_word)[0].any()
    return not (pairs and letters ** (a.d * m) > ASSIGNMENT_CAP)


def _holo_sum(a: CoefficientFamily, spec: CumulantSpec, m: int) -> complex:
    summed = a
    if spec.kind == "semicircle":
        # every star-family block alternates stars, so the semicircle's
        # pairs weigh exactly what the circular cumulants do
        spec = CumulantSpec.circular()
    elif spec.kind == "star_table":
        # planar_sum reads a plain family under star_table in the plain
        # word; the alternating word of the unstarred star family is the
        # holomorphic word
        summed = StarCoefficientFamily(a.d, a.r, a.alpha, {
            (key, (False,) * a.d): mat for key, mat in a.entries.items()})
    if not _enumerate_instead(summed, spec, m, families.STAR_ENUMERATION_CAP, a.letters):
        return planar_sum(summed, spec, m)
    return _enumerated_sum(a, spec, enumerate_ncstar(GridShape(a.d, m)), holo_word(a.d, m))


def _check_plain(a, what: str) -> None:
    """Raises ValueError for a star family: what is named takes a plain family."""
    if isinstance(a, StarCoefficientFamily):
        raise ValueError("%s take a plain family, not a star family" % what)


def _check_plain_moment(a, m: int, moments: str) -> None:
    """Raises ValueError for a star family and for m < 1: the moments
    named take a plain family and m >= 1."""
    _check_plain(a, moments + " moments")
    if m < 1:
        raise ValueError("need m >= 1")


def _holo_unit_moment(a: CoefficientFamily, spec: CumulantSpec, m: int) -> tuple:
    _check_plain_moment(a, m, "holomorphic")
    return _unit_moment(a, lambda unit: _holo_sum(unit, spec, m))


def holo_moment(a: CoefficientFamily, spec: CumulantSpec, m: int) -> float:
    """The 2m-th moment power: cumulant-weighted trace sums over the star family.

    The R-diagonal presets take planar_sum: their cumulants vanish on every
    non-crossing partition outside the star family.  On that family the
    semicircle weighs every block as the circular preset does, so it takes
    planar_sum too.  So does the star_table hook, on the family lifted to
    a star family with every star unstarred, whose 2r letters make the
    bonds wider.  A moment past MOMENT_DP_CAP but within the star-family
    cap is the _enumerated_sum of the star family in the holomorphic word,
    on the plain family itself, with no lift.  The sum runs at unit norm;
    past the float range the power is math.inf.  Raises ValueError for m < 1 and for
    a star family.
    """
    return _rescaled(*_holo_unit_moment(a, spec, m), m)


def holo_norm_2m(a: CoefficientFamily, spec: CumulantSpec, m: int) -> float:
    """Exact 2m-norm of sum_k a_k (x) c_{k_1}..c_{k_d} for R-diagonal presets."""
    return _norm_2m(*_holo_unit_moment(a, spec, m), m)


def ml_norms(a, m: int = None) -> list:
    """All d+1 block-matrix norms; Schatten 2m for integer m, operator norm
    (dense SVD) when m is None.

    The Schatten norms are taken at unit ||a||_2, read once from the
    family's tensor for every M_l (each a reshape of that tensor), as
    schatten_norm takes each at its own.  The family keeps its norms per
    m, so a second call for the same m computes nothing; a scaled copy
    starts with none.
    """
    if m not in a._ml_norms:
        if m is None:
            norms = [operator_norm(build_Ml(a, l)) for l in range(a.d + 1)]
        else:
            scale = _norm2(a.tensor())
            unit = a.tensor() / scale if scale else None
            norms = [_scaled_schatten_norm(_block_matrix(a, unit, l), scale, m) if scale else 0.0
                     for l in range(a.d + 1)]
        a._ml_norms[m] = tuple(norms)
    return list(a._ml_norms[m])


def holo_rhs_bound(a, spec: CumulantSpec, m: int = None) -> float:
    """Right-hand side of the even-power (or operator-norm, m=None) bound.

    Circular operators need no constant: e * sqrt(1 + d/m) times the l2
    combination of the block-matrix norms.  General R-diagonal operators
    carry the extra factor 4^5 ||c||_2^(d-2) ||c||_{2m}^2 (operator norm of c
    in the m=None form, where sqrt(e) replaces e*sqrt(1+d/m)).
    """
    d = a.d
    ell2 = math.hypot(*ml_norms(a, m))
    base = math.sqrt(math.e) * ell2 if m is None else math.e * math.sqrt(1 + d / m) * ell2
    if spec.kind == "circular":
        return base
    return _rdiag_factor(spec, d, m) * base


def _rdiag_factor(spec: CumulantSpec, d: int, m) -> float:
    """4^5 ||c||_2^(d-2) ||c||_p^2 for p = 2m, or the operator norm of c when
    m is None: the constant of both R-diagonal bounds.  Raises
    ArithmeticError, naming the spec, when ||c||_2 = 0 and d = 1, where
    ||c||_2^(d-2) has no value."""
    cp, c2 = bound_norms(spec, m)
    if not c2 and d < 2:
        raise ArithmeticError("%s: ||c||_2 = 0, so ||c||_2^(d-2) has no value at d=%d"
                              % (spec.described(), d))
    return 4 ** 5 * c2 ** (d - 2) * cp ** 2


def _check_adjacent_support(a: CoefficientFamily) -> None:
    """Raises ValueError, naming the first such tuple of a.entries, when the
    family is not 0 on every tuple with equal neighbouring indices."""
    for key, mat in a.entries.items():
        # the keys first: on an adjacent-distinct support no matrix is read
        if any(map(operator.eq, key, key[1:])) and np.any(mat):
            raise ValueError(
                "family must vanish on tuples with equal neighbouring indices; "
                "offending tuple %r" % (key,))


def _nonholo_sum(a, spec: CumulantSpec, m: int) -> complex:
    if not _enumerate_instead(a, spec, m, families.INTERVAL_ENUMERATION_CAP, a.letters):
        return planar_sum(a, spec, m)
    word = alternating_word if isinstance(a, StarCoefficientFamily) else plain_word
    return _enumerated_sum(a, spec, enumerate_ncdm(GridShape(a.d, m)), word(2 * a.d * m))


def _nonholo_unit_moment(a, spec: CumulantSpec, m: int) -> tuple:
    if m < 1:
        raise ValueError("need m >= 1")
    if isinstance(a, StarCoefficientFamily):
        spec.determining(0)  # a star family's blocks weigh alpha_s: raises without them
    else:
        if spec.kind not in ("semicircle", "star_table"):
            raise ValueError("plain families pair with self-adjoint presets")
        _check_adjacent_support(a)
    return _unit_moment(a, lambda unit: _nonholo_sum(unit, spec, m))


def nonholo_moment(a, spec: CumulantSpec, m: int) -> float:
    """The 2m-th moment power over the interval-avoiding family.

    Self-adjoint presets pair with a plain family vanishing on tuples with
    equal neighbours; R-diagonal presets pair with a star family supported
    on reduced words.  On these supports every non-crossing partition that
    links an interval to itself contributes 0, so planar_sum gives the
    family's sum.  A moment past MOMENT_DP_CAP but within the
    interval-family cap is the _enumerated_sum of the interval-avoiding
    family, in the plain word for a plain family and in the alternating
    word for a star family.  The sum runs at unit norm; past the float
    range the power is math.inf.  Raises ValueError for m < 1 and for
    a star family under a preset without a determining sequence.
    """
    return _rescaled(*_nonholo_unit_moment(a, spec, m), m)


def nonholo_norm_2m(a, spec: CumulantSpec, m: int) -> float:
    return _norm_2m(*_nonholo_unit_moment(a, spec, m), m)


def nonholo_rhs_bound(a, spec: CumulantSpec, m: int = None) -> float:
    """4^5 ||c||_p^2 ||c||_2^(d-2) (d+1) max_l ||M_l||_p for p = 2m or infinity."""
    d = a.d
    norms = ml_norms(a, m)
    return _rdiag_factor(spec, d, m) * (d + 1) * max(norms)


# ---------------------------------------------------------------------------
# operator norms


def operator_norm(M) -> float:
    """Largest singular value, computed exactly by a dense SVD."""
    return float(np.linalg.norm(_matrix_of(M), 2))


# ---------------------------------------------------------------------------
# the prime-alphabet example family


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _product_mod(key: tuple, p: int) -> int:
    """k_1 ... k_d mod p, reduced after every factor."""
    prod = 1
    for k in key:
        prod = (prod * k) % p
    return prod


def prime_family(p: int, d: int) -> CoefficientFamily:
    """Scalar family exp(2 i pi k_1 ... k_d / p) over the alphabet {1..p}."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    entries = {}
    for key in product(range(1, p + 1), repeat=d):
        entries[key] = [[cmath.exp(2j * cmath.pi * _product_mod(key, p) / p)]]
    return CoefficientFamily(d, p, 1, entries)


def prime_family_gram(p: int, d: int, l: int) -> np.ndarray:
    """Closed form of M_l M_l^* for the prime family, 1 <= l <= d-1.

    Off the congruence class of products the geometric sums collapse to
    p^{d-l} - p(p-1)^{d-l-1}; on it they give p^{d-l}.
    """
    if not 1 <= l <= d - 1:
        raise ValueError("closed form needs 1 <= l <= d-1")
    size = p ** l
    base = p ** (d - l) - p * (p - 1) ** (d - l - 1)
    bump = p * (p - 1) ** (d - l - 1)
    prods = [_product_mod(s, p) for s in product(range(1, p + 1), repeat=l)]
    gram = np.full((size, size), float(base), dtype=complex)
    for i in range(size):
        for j in range(size):
            if prods[i] == prods[j]:
                gram[i, j] += bump
    return gram


# ---------------------------------------------------------------------------
# reproducible random families


def _draws(keys, alpha: int, rng: np.random.Generator) -> dict:
    """One matrix per key, in key order, uniform in [-1,1] + i[-1,1]
    componentwise; each matrix draws its real part, then its imaginary part."""
    return {key: rng.uniform(-1, 1, (alpha, alpha)) + 1j * rng.uniform(-1, 1, (alpha, alpha))
            for key in keys}


def random_family(d: int, r: int, alpha: int, rng: np.random.Generator) -> CoefficientFamily:
    """Full support, entries uniform in [-1,1] + i[-1,1] componentwise."""
    return CoefficientFamily(d, r, alpha, _draws(product(range(1, r + 1), repeat=d), alpha, rng))


def random_adjacent_distinct_family(d: int, r: int, alpha: int,
                                    rng: np.random.Generator) -> CoefficientFamily:
    """Support restricted to tuples with no equal neighbouring indices."""
    keys = (key for key in product(range(1, r + 1), repeat=d)
            if not any(key[i] == key[i + 1] for i in range(d - 1)))
    return CoefficientFamily(d, r, alpha, _draws(keys, alpha, rng))


def random_star_family(d: int, r: int, alpha: int,
                       rng: np.random.Generator) -> StarCoefficientFamily:
    """Full reduced-word support over the doubled alphabet."""
    keys = ((idx, stars) for idx in product(range(1, r + 1), repeat=d)
            for stars in product((False, True), repeat=d) if _in_reduced_support(idx, stars))
    return StarCoefficientFamily(d, r, alpha, _draws(keys, alpha, rng))


# ---------------------------------------------------------------------------
# text format: header "d r alpha [star]", one support point per record


def save_family(a, path: str) -> None:
    star = isinstance(a, StarCoefficientFamily)
    with open(path, "w") as fh:
        fh.write("%d %d %d%s\n" % (a.d, a.r, a.alpha, " star" if star else ""))
        for key in sorted(a.entries):
            mat = a.entries[key]
            if star:
                idx, stars = key
                head = " ".join(str(k) for k in idx)
                head += " " + "".join("*" if s else "1" for s in stars)
            else:
                head = " ".join(str(k) for k in key)
            cells = " ".join("%.17g,%.17g" % (z.real, z.imag) for z in mat.flatten())
            fh.write("%s %s\n" % (head, cells))


def _parse_record(toks: list, d: int, alpha: int, star: bool):
    """(support key, matrix) of one support-point record, split into tokens."""
    width = d + (1 if star else 0) + alpha * alpha
    if len(toks) != width:
        raise ValueError("expected %d tokens, got %d" % (width, len(toks)))
    key = tuple(int(t) for t in toks[:d])
    if star:
        pattern = toks[d]
        if any(ch not in "1*" for ch in pattern):
            raise ValueError("bad star pattern %r" % pattern)
        key = (key, tuple(ch == "*" for ch in pattern))
    values = []
    for cell in toks[width - alpha * alpha:]:
        parts = cell.split(",")
        if len(parts) != 2:
            raise ValueError("cell %r is not re,im" % cell)
        z = complex(float(parts[0]), float(parts[1]))
        if not cmath.isfinite(z):
            raise ValueError("cell %r is not finite" % cell)
        values.append(z)
    return key, np.array(values, dtype=complex).reshape(alpha, alpha)


def load_family(path: str):
    """Read the text format of save_family.

    Raises ValueError, naming the line, on a malformed header or record, a
    non-finite cell or a repeated support point. Each record is checked by
    the family constructor on its own, so range and reduced-word errors name
    their line too.
    """
    with open(path) as fh:
        stripped = [(no, ln.strip()) for no, ln in enumerate(fh, 1)]
    lines = [(no, ln) for no, ln in stripped if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty family file %s" % path)
    head_no, head_line = lines[0]
    head = head_line.split()
    star = head[3:] == ["star"]
    cls = StarCoefficientFamily if star else CoefficientFamily
    try:
        if len(head) != (4 if star else 3):
            raise ValueError("bad header %r" % head_line)
        d, r, alpha = (int(t) for t in head[:3])
        cls(d, r, alpha, {})
    except ValueError as exc:
        raise ValueError("%s line %d: %s" % (path, head_no, exc)) from None
    entries = {}
    first_seen = {}
    for no, line in lines[1:]:
        try:
            key, mat = _parse_record(line.split(), d, alpha, star)
            cls(d, r, alpha, {key: mat})
        except ValueError as exc:
            raise ValueError("%s line %d: %s" % (path, no, exc)) from None
        if key in entries:
            raise ValueError("%s line %d: support point repeats line %d"
                             % (path, no, first_seen[key]))
        entries[key] = mat
        first_seen[key] = no
    return cls(d, r, alpha, entries)
