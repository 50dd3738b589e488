"""Coefficient families, their block matrices and partition trace sums.

A family assigns an alpha x alpha complex matrix to each length-d index
tuple over a finite alphabet {1..r}.  Splitting the tuple after l slots
arranges the family into a block matrix M_l; its Schatten powers are plain
traces of matrix powers.  The central quantity is the trace sum of a
partition: one free index per block, and the 2m groups of d positions
contribute alternately the family and the conjugate-transpose of the
index-reversed family.  The sums are contracted around the ring of groups,
one two-operand einsum per group.  A star family's tensor runs over the
doubled alphabet of 2r letters, letter 2(k - 1) + e for index k with star
bit e, so block matrices, trace sums and moments read it as they read a
plain family's tensor: a block's phase is part of its letter, and star
conjugation is the letter swap l ^ 1.

A moment is a cumulant-weighted sum of trace sums over every non-crossing
partition, and `planar_sum` evaluates it without enumerating any: each
group tensor is split into d site tensors, and an interval recursion over
the 2dm positions (the block of the first position closes at some q, the
gaps and the rest are smaller intervals) sums the planar contraction in
polynomial time.  The star_table hook, and the few large-d cells past
MOMENT_DP_CAP but within the old enumeration caps, still sum
`_weighted_sum` over an enumerated family.  Moments are summed for the
family scaled to unit norm and scaled back.  Operator norms are exact
dense SVD norms.
"""

from __future__ import annotations

import cmath
import math
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
    c_norm_2,
    c_norm_2m,
    c_operator_norm,
    holo_word,
    kappa_pi,
    plain_word,
    rdiag_block_weight,
)

ASSIGNMENT_CAP = 10_000_000
DIMENSION_CAP = 4096
# bound on the complex entries the planar recursion holds at once (256 MB):
# its two interval tables, of side the summed bonds of the ring's even and
# odd boundaries, times the letter contexts in the Haar tree form, or plus
# the open-block arrays in the block recursion; time grows as a further
# factor of the table side
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
        self.entries = {self._checked(key): _as_matrix(value, alpha)
                        for key, value in entries.items()}
        self._tensor = None

    def tensor(self) -> np.ndarray:
        """Tensor of shape (letters,)*d + (alpha, alpha); absent entries are zero."""
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
        out.entries = {key: c * mat for key, mat in self.entries.items()}
        out._tensor = None if self._tensor is None else c * self._tensor
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
    if not 0 <= l <= a.d:
        raise ValueError("split %d outside 0..%d" % (l, a.d))
    rows = a.letters ** l * a.alpha
    cols = a.letters ** (a.d - l) * a.alpha
    if min(rows, cols) > DIMENSION_CAP:
        raise ValueError("block matrix dimension exceeds cap %d" % DIMENSION_CAP)
    # axes (l_1..l_d, i, j) -> (l_1..l_l, i, l_{l+1}..l_d, j)
    perm = tuple(range(l)) + (a.d,) + tuple(range(l, a.d)) + (a.d + 1,)
    return BlockMatrixView(l, np.ascontiguousarray(a.tensor().transpose(perm).reshape(rows, cols)))


build_Ml_star = build_Ml


def _matrix_of(M) -> np.ndarray:
    return M.matrix if isinstance(M, BlockMatrixView) else np.asarray(M)


def schatten_pow(M, m: int) -> float:
    """Tr((M^* M)^m), by repeated matrix multiplication of the Gram matrix
    on the smaller side (Tr((M^* M)^m) = Tr((M M^*)^m))."""
    if m < 1:
        raise ValueError("need m >= 1")
    mat = _matrix_of(M)
    gram = mat @ mat.conj().T if mat.shape[0] < mat.shape[1] else mat.conj().T @ mat
    power = gram
    for _ in range(m - 1):
        power = power @ gram
    return float(power.trace().real)


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
    """The 2m-norm: Tr((M^* M)^m)^(1/2m), taken at unit Frobenius norm so
    that the power stays within the float range at large m."""
    mat = _matrix_of(M)
    scale = _norm2(mat)
    if not scale:
        return 0.0
    return scale * schatten_pow(mat / scale, m) ** (1.0 / (2 * m))


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


def _contract(p: Partition, d: int, m: int, tensor_of) -> complex:
    """The trace sum of p, contracted around the ring of its 2m groups.

    Group j (positions jd+1..jd+d) contributes tensor_of(j), subscripted by
    the blocks of its positions and by the two matrix indices it chains.
    Walking the groups in ring order carries T[i0, i, blocks still open],
    from eye(alpha): each group is one two-operand einsum, which sums out
    every block whose last position lies in the group, and the result is
    trace(T).  T holds at most alpha^2 L^(#blocks) entries over the
    family's L letters, so the assignment cap checked by the callers bounds
    it.
    """
    nb = p.num_blocks
    last_group = [(max(b) - 1) // d for b in p.blocks]
    first, here, nxt = nb, nb + 1, nb + 2
    T = np.eye(tensor_of(0).shape[-1], dtype=complex)
    open_blocks = []
    for j in range(2 * m):
        subs = [p.block_id(j * d + o + 1) for o in range(d)]
        still_open = [b for b in dict.fromkeys(open_blocks + subs) if last_group[b] > j]
        T = np.einsum(T, [first, here] + open_blocks, tensor_of(j), subs + [here, nxt],
                      [first, nxt] + still_open)
        open_blocks = still_open
    return complex(np.trace(T))


def trace_sum_complex(a: CoefficientFamily, p: Partition) -> complex:
    """Trace sum of a partition: one alphabet value per block, groups of d
    positions contributing a, then the conjugate-transposed reversed family,
    alternately around the trace.  Raises ValueError past ASSIGNMENT_CAP
    letter assignments, read when the function is called."""
    g = _grid_of(a, p)
    _check_assignment_cap(a, p)
    groups = _group_tensors(a)
    return _contract(p, g.d, g.m, lambda j: groups[j % 2])


def trace_sum(a: CoefficientFamily, p: Partition) -> float:
    """Real part of the trace sum; the residual imaginary part is available
    from trace_sum_complex and must vanish for mirror-symmetric partitions."""
    return trace_sum_complex(a, p).real


def trace_sum_star_complex(a: StarCoefficientFamily, p: Partition) -> complex:
    """Star variant: blocks additionally carry one of two alternating star
    phases, and even groups contribute the conjugate-transposed family with
    indices reversed and stars conjugated.

    Each block gets one letter (k, phase e) of the family's doubled
    alphabet, so the sum over letters and phases is a single contraction.
    The position of rank q in its block (counted from 0 in position order)
    carries the star bit e XOR (q mod 2): a group's tensor reads the letters
    of its odd-rank positions through the star swap l ^ 1.  At most
    2 * 2^d such tensors are built per call.  Raises ValueError for a block
    of odd size and past ASSIGNMENT_CAP, read when the function is called.
    """
    g = _grid_of(a, p)
    if any(len(b) % 2 for b in p.blocks):
        raise ValueError("star trace sums need even blocks")
    _check_assignment_cap(a, p)
    d = g.d
    groups = _group_tensors(a)
    odd_rank = [0] * p.n
    for b in p.blocks:
        for pos in b[1::2]:
            odd_rank[pos - 1] = 1

    swapped = {}

    def tensor_of(j: int) -> np.ndarray:
        key = (j % 2, tuple(o for o in range(d) if odd_rank[j * d + o]))
        if key not in swapped:
            swapped[key] = _swap_stars(groups[j % 2], key[1])
        return swapped[key]

    return _contract(p, d, g.m, tensor_of)


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
    built: the family's L letters (a star family's doubled alphabet), the
    leg width, the bonds, the two table sides and the complex entries the
    recursion holds at once.  A plain family under an R-diagonal preset has
    legs twice as wide, over the letters (k, star) = 2k + star, and each
    group fills only its own star; other legs are L wide.  The bond at
    boundary p (before position p) is alpha * L^min(o, d - o) for
    o = p mod d, so it is alpha between groups.  The recursions keep one
    table per parity of boundary: boundary p owns rows and columns
    at[p] .. at[p] + bond[p] of table p % 2, so the boundaries p, p + 2, ..,
    up to n are the suffix of that table from at[p].  fill then stores
    position p's site p mod 2d as legs (letter, left bond, right bond).
    """

    def __init__(self, a, spec: CumulantSpec, m: int):
        star = isinstance(a, StarCoefficientFamily)
        self.d, self.n, self.alpha, self.letters = a.d, 2 * a.d * m, a.alpha, a.letters
        self.pairs_only = spec.kind == "semicircle" and not star
        self.width = self.letters if star or self.pairs_only else 2 * self.letters
        # _prefix[c] (c < 2d + 2): the summed bonds of the boundaries c - 2,
        # c - 4, .. >= 0; the bonds repeat with period 2d, which keeps the
        # parity, so _at needs no more
        self._prefix = [0, 0]
        for c in range(2, 2 * self.d + 2):
            self._prefix.append(self._prefix[c - 2] + self._bond(c - 2))
        self.size = (self._at(self.n + 2), self._at(self.n + 1))  # n is even
        tables = self.size[0] ** 2 + self.size[1] ** 2
        if spec.kind == "haar":
            # the tree form keeps one pair of tables per letter context
            self.entries = (self.width + 1) * tables
        else:
            # a step holds up to four arrays like the open blocks H (H, its
            # product with a table, a class of columns of that and its image),
            # each a table wide for every letter and row of the largest bond
            self.entries = tables + 4 * self.width * self._bond(self.d // 2) * max(self.size)

    def _bond(self, p: int) -> int:
        o = p % self.d
        return self.alpha * self.letters ** min(o, self.d - o)

    def _at(self, p: int) -> int:
        """The summed bonds of the boundaries p - 2, p - 4, .. >= 0."""
        periods, c = divmod(p, 2 * self.d)
        return periods * self._prefix[2 * self.d + p % 2] + self._prefix[c]

    def fill(self, groups: tuple) -> None:
        """The legs, from the odd and even group tensors."""
        n, d = self.n, self.d
        # two empty boundaries past n end the suffixes of both parities
        self.bond = np.array([self._bond(p) for p in range(n + 1)] + [0, 0])
        self.at = np.array([self._at(p) for p in range(n + 3)])
        self.legs = []
        for j, group in enumerate(groups):
            own = slice(j, None, 2) if self.width > self.letters else slice(None)
            for s in _split_group(group):
                legs = np.zeros((self.width, s.shape[0], s.shape[2]), dtype=complex)
                legs[own] = s.transpose(1, 0, 2)
                self.legs.append(legs)
        # only these letters open a block at a position of the class
        self.live = [np.flatnonzero(legs.any(axis=(1, 2))) for legs in self.legs]
        # the table columns of every position q of class c and of q + 1
        self.cols = []
        for c in range(2 * d):
            qs = np.arange(c, n, 2 * d)
            self.cols.append((self.at[qs][:, None] + np.arange(self.bond[c]),
                              self.at[qs + 1][:, None] + np.arange(self.bond[c + 1])))

    def step(self, G: np.ndarray, q0: int, letters: np.ndarray) -> np.ndarray:
        """Append one position: G[j, .., boundary q] -> H[j, .., boundary q + 1]
        for the positions q = q0, q0 + 2, .. < n, through the leg letters[j]
        of each.  G and H span the suffixes from q0 and q0 + 1."""
        period = 2 * self.d
        H = np.zeros(G.shape[:-1] + (self.size[(q0 + 1) % 2] - self.at[q0 + 1],), dtype=complex)
        for c in range(q0 % 2, period, 2):
            first = max(0, -((c - q0) // period))
            src, dst = self.cols[c][0][first:], self.cols[c][1][first:]
            if len(src):
                H[..., dst - self.at[q0 + 1]] = (G[..., src - self.at[q0]]
                                                 @ self.legs[c][letters][:, None])
        return H


def _block_dp(ring: _Ring, flip: np.ndarray, alphas: list) -> complex:
    """Sum over the even-block non-crossing partitions of the ring's positions.

    A block of 2j elements weighs alphas[j-1] and carries one letter l; its
    elements of even rank (counted from 0) use leg l and those of odd rank
    leg flip[l].  F[i, e] sums the partitions of positions i..e-1, which
    vanishes unless e - i is even.  Going back from the last position, H
    holds the open block of i by letter and boundary after its last element,
    every gap filled, and B the weighted closed blocks.
    """
    n, at, bond = ring.n, ring.at, ring.bond
    F = [np.eye(size, dtype=complex) for size in ring.size]
    for i in range(n - 1, -1, -1):
        legs, live = ring.legs[i % (2 * ring.d)], ring.live[i % (2 * ring.d)]
        if not len(live):
            continue
        same = F[i % 2]
        H = np.zeros((len(live), bond[i], ring.size[1 - i % 2] - at[i + 1]), dtype=complex)
        H[..., :bond[i + 1]] = legs[live]
        B = np.zeros((bond[i], ring.size[i % 2] - at[i + 2]), dtype=complex)
        # H spans the boundaries from h = i + t: its element of rank t - 1
        # ends at or after h - 1, so no element of rank t fits once h reaches n
        for h in range(i + 1, min(i + 2 * len(alphas), n)):
            t = h - i
            H = ring.step(H @ F[h % 2][at[h]:, at[h]:], h, flip[live] if t % 2 else live)
            if t % 2 and alphas[t // 2]:
                B[:, at[h + 1] - at[i + 2]:] += alphas[t // 2] * H.sum(axis=0)
        same[at[i]:at[i] + bond[i], at[i + 2]:] = B @ same[at[i + 2]:, at[i + 2]:]
    return complex(np.trace(F[0][:bond[0], at[n]:at[n] + bond[n]]))


def _tree_dp(ring: _Ring, flip: np.ndarray) -> complex:
    """The Haar moment as a sum over reductions of the word to the identity.

    Kesten's first-return decomposition: the letter l of the first position
    i is cancelled at q by its inverse flip[l], the positions between reduce
    on top of l, and the rest reduces on what lies below.  F[c][i, e] covers
    positions i..e-1 whose first letter must not be c, the inverse of the
    letter below them (c = letters: nothing below).  Every term has weight
    1, so nothing cancels between partitions.
    """
    n, at, bond = ring.n, ring.at, ring.bond
    letters = ring.width
    contexts = letters + 1
    allowed = (np.arange(contexts)[:, None] != np.arange(letters)).astype(complex)
    F = [np.tile(np.eye(size, dtype=complex), (contexts, 1, 1)) for size in ring.size]
    for i in range(n - 1, -1, -1):
        legs, live = ring.legs[i % (2 * ring.d)], ring.live[i % (2 * ring.d)]
        if not len(live):
            continue
        same, j = F[i % 2], i + 1
        # pair[l, .., q + 1] = leg l at i, F[flip l][i + 1, q], leg flip l at q
        inner = F[j % 2][flip[live], at[j]:at[j] + bond[j], at[j]:]
        pair = ring.step(legs[live] @ inner, j, flip[live])
        first = (allowed[:, live] @ pair.reshape(len(live), -1)).reshape(
            (contexts,) + pair.shape[1:])
        same[:, at[i]:at[i] + bond[i], at[i + 2]:] = first @ same[:, at[i + 2]:, at[i + 2]:]
    return complex(np.trace(F[0][letters, :bond[0], at[n]:at[n] + bond[n]]))


def planar_sum(a, spec: CumulantSpec, m: int) -> complex:
    """The moment Tr (x) phi((X X*)^m) as one planar contraction.

    Plain families under R-diagonal presets and star families both take the
    doubled alphabet of letters (k, star), in which a block's elements
    alternate stars (the swap l ^ 1); a plain family under the semicircle
    takes its own alphabet and pairs only.  The Haar preset takes the tree
    form, the others the block recursion with alpha_{s/2} per block of s
    elements.  Raises ValueError for m < 1, when the entries _Ring counts
    exceed MOMENT_DP_CAP (before any tensor is built), and for presets
    without a determining sequence on star families.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    ring = _Ring(a, spec, m)
    if ring.entries > MOMENT_DP_CAP:
        raise ValueError("moment recursion needs %d complex entries, past MOMENT_DP_CAP = %d"
                         % (ring.entries, MOMENT_DP_CAP))
    ring.fill(_group_tensors(a))
    # a sum past the float range comes back inf or nan, for the caller to
    # reject, without numpy warning about each overflowing product
    with np.errstate(over="ignore", invalid="ignore"):
        if ring.pairs_only:
            return _block_dp(ring, np.arange(ring.width), [1])
        flip = np.arange(ring.width) ^ 1
        if spec.kind == "haar":
            return _tree_dp(ring, flip)
        alphas = [complex(x) for x in spec.determining(a.d * m)]
        while alphas and not alphas[-1]:
            alphas.pop()
        return _block_dp(ring, flip, alphas)


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
    where its size no longer grows like ||a||_2^(2m).  The real part is
    clamped at 0 within rounding of that unit scale; a clearly negative
    value, or a sum that is not finite, raises ArithmeticError.
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


def _enumerate_instead(a, spec: CumulantSpec, m: int, enumeration_cap: int) -> bool:
    """Whether a moment past MOMENT_DP_CAP is still within the enumeration
    cap of its family.  The large-d cells there have dense tensors small
    enough for the member-by-member sum but interval tables too large."""
    return 2 * a.d * m <= enumeration_cap and _Ring(a, spec, m).entries > MOMENT_DP_CAP


def _holo_sum(a: CoefficientFamily, spec: CumulantSpec, m: int) -> complex:
    if m < 1:
        raise ValueError("need m >= 1")
    if spec.kind == "semicircle":
        # every star-family block alternates stars, so the semicircle's
        # pairs weigh exactly what the circular cumulants do
        spec = CumulantSpec.circular()
    if spec.kind != "star_table" and not _enumerate_instead(
            a, spec, m, families.STAR_ENUMERATION_CAP):
        return planar_sum(a, spec, m)
    word = holo_word(a.d, m)
    return _weighted_sum(enumerate_ncstar(GridShape(a.d, m)),
                         lambda p: kappa_pi(spec, p, word),
                         lambda p: trace_sum_complex(a, p))


def holo_moment(a: CoefficientFamily, spec: CumulantSpec, m: int) -> float:
    """The 2m-th moment power: cumulant-weighted trace sums over the star family.

    The R-diagonal presets take planar_sum: their cumulants vanish on every
    non-crossing partition outside the star family.  On that family the
    semicircle weighs every block as the circular preset does, so it takes
    planar_sum too.  The star_table hook, and a moment past MOMENT_DP_CAP
    but within the star-family cap, keep the enumerated sum.  The sum runs
    at unit norm; past the float range the power is math.inf.  Raises
    ValueError for m < 1.
    """
    return _rescaled(*_unit_moment(a, lambda unit: _holo_sum(unit, spec, m)), m)


def holo_norm_2m(a: CoefficientFamily, spec: CumulantSpec, m: int) -> float:
    """Exact 2m-norm of sum_k a_k (x) c_{k_1}..c_{k_d} for R-diagonal presets."""
    return _norm_2m(*_unit_moment(a, lambda unit: _holo_sum(unit, spec, m)), m)


def ml_norms(a, m: int = None) -> list:
    """All d+1 block-matrix norms; Schatten 2m for integer m, operator norm
    (dense SVD) when m is None."""
    mats = [build_Ml(a, l) for l in range(a.d + 1)]
    if m is None:
        return [operator_norm(M.matrix) for M in mats]
    return [schatten_norm(M, m) for M in mats]


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
    cp = c_operator_norm(spec) if m is None else c_norm_2m(spec, m)
    return 4 ** 5 * c_norm_2(spec) ** (d - 2) * cp ** 2 * base


def _check_adjacent_support(a: CoefficientFamily) -> None:
    for key, mat in a.entries.items():
        if np.any(mat) and any(key[i] == key[i + 1] for i in range(a.d - 1)):
            raise ValueError(
                "family must vanish on tuples with equal neighbouring indices; "
                "offending tuple %r" % (key,))


def _nonholo_sum(a, spec: CumulantSpec, m: int) -> complex:
    star = isinstance(a, StarCoefficientFamily)
    if (star or spec.kind == "semicircle") and not _enumerate_instead(
            a, spec, m, families.INTERVAL_ENUMERATION_CAP):
        return planar_sum(a, spec, m)
    members = enumerate_ncdm(GridShape(a.d, m))
    if star:
        return _weighted_sum(members, lambda p: rdiag_block_weight(spec, p),
                             lambda p: trace_sum_star_complex(a, p))
    word = plain_word(2 * a.d * m)
    return _weighted_sum(members, lambda p: kappa_pi(spec, p, word),
                         lambda p: trace_sum_complex(a, p))


def _nonholo_unit_moment(a, spec: CumulantSpec, m: int) -> tuple:
    if m < 1:
        raise ValueError("need m >= 1")
    if not isinstance(a, StarCoefficientFamily):
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
    family's sum.  The star_table hook on plain families, and a moment past
    MOMENT_DP_CAP but within the interval-family cap, enumerate it.  The
    sum runs at unit norm; past the float range the power is math.inf.
    Raises ValueError for m < 1.
    """
    return _rescaled(*_nonholo_unit_moment(a, spec, m), m)


def nonholo_norm_2m(a, spec: CumulantSpec, m: int) -> float:
    return _norm_2m(*_nonholo_unit_moment(a, spec, m), m)


def nonholo_rhs_bound(a, spec: CumulantSpec, m: int = None) -> float:
    """4^5 ||c||_p^2 ||c||_2^(d-2) (d+1) max_l ||M_l||_p for p = 2m or infinity."""
    d = a.d
    norms = ml_norms(a, m)
    cp = c_operator_norm(spec) if m is None else c_norm_2m(spec, m)
    return 4 ** 5 * cp ** 2 * c_norm_2(spec) ** (d - 2) * (d + 1) * max(norms)


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


def prime_family(p: int, d: int) -> CoefficientFamily:
    """Scalar family exp(2 i pi k_1 ... k_d / p) over the alphabet {1..p}."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    entries = {}
    for key in product(range(1, p + 1), repeat=d):
        prod = 1
        for k in key:
            prod = (prod * k) % p
        entries[key] = [[cmath.exp(2j * cmath.pi * prod / p)]]
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
    prods = []
    for s in product(range(1, p + 1), repeat=l):
        acc = 1
        for x in s:
            acc = (acc * x) % p
        prods.append(acc)
    gram = np.full((size, size), float(base), dtype=complex)
    for i in range(size):
        for j in range(size):
            if prods[i] == prods[j]:
                gram[i, j] += bump
    return gram


# ---------------------------------------------------------------------------
# reproducible random families


def random_family(d: int, r: int, alpha: int, rng: np.random.Generator) -> CoefficientFamily:
    """Full support, entries uniform in [-1,1] + i[-1,1] componentwise."""
    entries = {}
    for key in product(range(1, r + 1), repeat=d):
        entries[key] = rng.uniform(-1, 1, (alpha, alpha)) + 1j * rng.uniform(-1, 1, (alpha, alpha))
    return CoefficientFamily(d, r, alpha, entries)


def random_adjacent_distinct_family(d: int, r: int, alpha: int,
                                    rng: np.random.Generator) -> CoefficientFamily:
    """Support restricted to tuples with no equal neighbouring indices."""
    entries = {}
    for key in product(range(1, r + 1), repeat=d):
        if any(key[i] == key[i + 1] for i in range(d - 1)):
            continue
        entries[key] = rng.uniform(-1, 1, (alpha, alpha)) + 1j * rng.uniform(-1, 1, (alpha, alpha))
    return CoefficientFamily(d, r, alpha, entries)


def random_star_family(d: int, r: int, alpha: int,
                       rng: np.random.Generator) -> StarCoefficientFamily:
    """Full reduced-word support over the doubled alphabet."""
    entries = {}
    for idx in product(range(1, r + 1), repeat=d):
        for stars in product((False, True), repeat=d):
            if _in_reduced_support(idx, stars):
                entries[(idx, stars)] = (rng.uniform(-1, 1, (alpha, alpha))
                                         + 1j * rng.uniform(-1, 1, (alpha, alpha)))
    return StarCoefficientFamily(d, r, alpha, entries)


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
