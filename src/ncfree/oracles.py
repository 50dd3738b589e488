"""Independent ground-truth computations for the even-power norms.

Three oracles, each avoiding the cumulant machinery: a truncated full Fock
space carrying exact circular or semicircular families (truncation at depth
d*m is lossless for vacuum moments of 2m factors), exact convolution in the
group algebra of a free group for the unitary case, and a brute-force moment
sum over the non-crossing partitions of the word positions whose blocks all
carry a nonzero cumulant (every other member weighs 0; the tests check this
support against kappa_pi over all of NC(n)).  The brute-force sum is
matrices._enumerated_sum over that support, the same weighted sum that the
moments past MOMENT_DP_CAP take: one ring walk contracts each ring prefix
that consecutive members share once, and every trace sum is == to
trace_sum_complex's.  Each oracle realizes a plain family: all three
moments raise ValueError for a star family and for m < 1.  The Fock
realization also gives the operator-norm lower bound: its norm is computed
exactly, as the largest dense norm over the small blocks into which the
operator splits; it too raises ValueError for a star family.
"""

from __future__ import annotations

from itertools import product
from typing import Dict

import numpy as np

from .cumulants import CumulantSpec, _kappa_support, _stored_block_values, holo_word, plain_word
from . import matrices
from .matrices import (
    CoefficientFamily,
    _check_adjacent_support,
    _check_plain,
    _check_plain_moment,
    _enumerated_sum,
    operator_norm,
)

FOCK_DIMENSION_CAP = 200_000
GROUP_SUPPORT_CAP = 2_000_000
BRUTE_GROUND_CAP = 12


class FockSpace:
    """Words of length <= depth over a finite letter set; creation prepends."""

    def __init__(self, letters: int, depth: int):
        if letters < 1 or depth < 0:
            raise ValueError("need letters >= 1 and depth >= 0")
        self.letters = letters
        self.depth = depth
        self.dimension = sum(letters ** j for j in range(depth + 1))
        if self.dimension > FOCK_DIMENSION_CAP:
            raise ValueError("Fock dimension %d exceeds cap" % self.dimension)
        self.basis = []
        for length in range(depth + 1):
            self.basis.extend(product(range(letters), repeat=length))
        self.index = {w: i for i, w in enumerate(self.basis)}
        # creation by letter l sends word w to (l,)+w, dying at the cap
        self._create_src = []
        self._create_tgt = []
        shallow = [i for i, w in enumerate(self.basis) if len(w) < depth]
        for letter in range(letters):
            src = np.array(shallow, dtype=np.intp)
            tgt = np.array([self.index[(letter,) + self.basis[i]] for i in shallow],
                           dtype=np.intp)
            self._create_src.append(src)
            self._create_tgt.append(tgt)

    def create(self, letter: int, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        out[..., self._create_tgt[letter]] = vec[..., self._create_src[letter]]
        return out

    def annihilate(self, letter: int, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        out[..., self._create_src[letter]] = vec[..., self._create_tgt[letter]]
        return out

    def create_map(self, letter: int) -> np.ndarray:
        """Index of the image of every basis word under creation by letter,
        -1 where the word dies.  One more entry, -1 at index -1, keeps a dead
        word dead when maps are composed."""
        out = np.full(self.dimension + 1, -1, dtype=np.intp)
        out[self._create_src[letter]] = self._create_tgt[letter]
        return out

    def annihilate_map(self, letter: int) -> np.ndarray:
        """As create_map, for annihilation by letter."""
        out = np.full(self.dimension + 1, -1, dtype=np.intp)
        out[self._create_tgt[letter]] = self._create_src[letter]
        return out


class _FamilyOperator:
    """A = sum_k a_k (x) c_{k_1}...c_{k_d} on C^alpha (x) truncated Fock space.

    kind "circular" realizes c = (creation on one copy) + (annihilation on a
    second copy); kind "semicircular" uses a single copy, self-adjointly.
    """

    def __init__(self, a: CoefficientFamily, kind: str, depth: int):
        if kind not in ("circular", "semicircular"):
            raise ValueError("unknown Fock kind %r" % kind)
        self.a = a
        self.kind = kind
        letters = 2 * a.r if kind == "circular" else a.r
        self.space = FockSpace(letters, depth)
        self.dim = a.alpha * self.space.dimension

    def _letters(self, k: int) -> tuple:
        """The letters c_k creates and annihilates."""
        return k - 1, (self.a.r if self.kind == "circular" else 0) + k - 1

    def _c(self, k: int, vec: np.ndarray) -> np.ndarray:
        created, annihilated = self._letters(k)
        return self.space.create(created, vec) + self.space.annihilate(annihilated, vec)

    def _c_star(self, k: int, vec: np.ndarray) -> np.ndarray:
        created, annihilated = self._letters(k)
        return self.space.annihilate(created, vec) + self.space.create(annihilated, vec)

    def apply(self, block: np.ndarray) -> np.ndarray:
        out = np.zeros_like(block)
        for key, mat in self.a.entries.items():
            w = block
            for k in reversed(key):
                w = self._c(k, w)
            out += mat @ w
        return out

    def apply_adjoint(self, block: np.ndarray) -> np.ndarray:
        out = np.zeros_like(block)
        for key, mat in self.a.entries.items():
            w = block
            for k in key:
                w = self._c_star(k, w)
            out += mat.conj().T @ w
        return out


def fock_moment(a: CoefficientFamily, kind: str, m: int, depth: int = None) -> float:
    """(Tr (x) vacuum)((A A^*)^m); exact at depth d*m, up to float rounding.
    Raises ValueError for a star family and for m < 1."""
    _check_plain_moment(a, m, "Fock")
    if depth is None:
        depth = a.d * m
    op = _FamilyOperator(a, kind, depth)
    total = 0.0
    for i in range(a.alpha):
        block = np.zeros((a.alpha, op.space.dimension), dtype=complex)
        block[i, 0] = 1.0
        for _ in range(m):
            block = op.apply(op.apply_adjoint(block))
        total += block[i, 0].real
    return total


def fock_norm_estimate(a: CoefficientFamily, kind: str = "circular", depth: int = None) -> float:
    """Largest singular value of the truncated realization, exact up to rounding.

    Each basis word is sent to a handful of words, so the operator is block
    diagonal into small dense blocks: the connected components of its support
    graph, which links input word w to output word v where a term a_k (x) x
    with x a product of d creations and annihilations sends w to v.  Those
    (output, input, term) triples come from composing the creation and
    annihilation index maps of the Fock space over all words at once, one
    composition per support point and create/annihilate choice, so the cost
    is linear in the Fock dimension.  Every block's size is checked against
    DIMENSION_CAP before any is built; the norm is the largest dense norm of
    a block.  Depth 2d already reproduces each block matrix as a compression,
    so the norm dominates every ||M_l||.  Raises ValueError for a star
    family.
    """
    _check_plain(a, "Fock norm estimates")
    if depth is None:
        depth = 2 * a.d
    op = _FamilyOperator(a, kind, depth)
    size = op.space.dimension
    keys = [key for key, mat in a.entries.items() if np.any(mat)]
    mats = np.array([a.entries[key] for key in keys]).reshape(-1, a.alpha, a.alpha)
    src, dst, term = _support_triples(op, keys)
    # input words are nodes 0..size-1, output words size..2*size-1
    label = _components(src, size + dst, 2 * size)[src]
    order = np.argsort(label, kind="stable")
    by_comp = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
    # with no edges at all, np.split leaves one empty group
    blocks = [(edges, _distinct(src[edges]), _distinct(dst[edges])) for edges in by_comp
              if len(edges)]
    for _, inputs, outputs in blocks:
        if a.alpha * max(len(inputs), len(outputs)) > matrices.DIMENSION_CAP:
            raise ValueError("Fock block dimension exceeds cap %d" % matrices.DIMENSION_CAP)

    norm = 0.0
    for edges, inputs, outputs in blocks:
        block = np.zeros((len(outputs), a.alpha, len(inputs), a.alpha), dtype=complex)
        np.add.at(block, (np.searchsorted(outputs, dst[edges]), slice(None),
                          np.searchsorted(inputs, src[edges]), slice(None)), mats[term[edges]])
        norm = max(norm, operator_norm(block.reshape(len(outputs) * a.alpha, -1)))
    return norm


def _distinct(words: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of words.  (np.unique gives the same, but
    its first call maps about 0.6 MB more code into the process.)"""
    words = np.sort(words)
    return words[np.concatenate(([True], words[1:] != words[:-1]))]


def _support_triples(op: "_FamilyOperator", keys: list) -> tuple:
    """(input word, output word, key index) for every word that a product of
    creations and annihilations in the expansion of c_{k_1}..c_{k_d} keeps
    alive, one triple per choice; a pair may repeat, its entries add."""
    if not keys:
        return (np.zeros(0, dtype=np.intp),) * 3
    space = op.space
    create = [space.create_map(letter) for letter in range(space.letters)]
    annihilate = [space.annihilate_map(letter) for letter in range(space.letters)]
    words = np.arange(space.dimension)
    src, dst, term = [], [], []
    for t, key in enumerate(keys):
        image = words[None, :]
        for k in reversed(key):
            created, annihilated = op._letters(k)
            image = np.concatenate([create[created][image], annihilate[annihilated][image]])
        alive = image >= 0
        src.append(np.broadcast_to(words, image.shape)[alive])
        dst.append(image[alive])
        term.append(np.full(int(alive.sum()), t))
    return tuple(np.concatenate(x) for x in (src, dst, term))


def _components(u: np.ndarray, v: np.ndarray, nodes: int) -> np.ndarray:
    """Component label of every node of the graph with edges u[e] -- v[e]:
    the smallest node of its component.  Each round hooks every root onto
    the smallest root it shares an edge with, then flattens the trees."""
    label = np.arange(nodes)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            flat = label[label]
            if np.array_equal(flat, label):
                break
            label = flat


# ---------------------------------------------------------------------------
# free group algebra


def _reduce_concat(w1: tuple, w2: tuple) -> tuple:
    i, j = len(w1), 0
    while i > 0 and j < len(w2) and w1[i - 1] == -w2[j]:
        i -= 1
        j += 1
    return w1[:i] + w2[j:]


def word_inverse(w: tuple) -> tuple:
    return tuple(-x for x in reversed(w))


def convolve(p: Dict[tuple, np.ndarray], q: Dict[tuple, np.ndarray]) -> Dict[tuple, np.ndarray]:
    """Product in the matrix-coefficient group algebra, with word reduction."""
    if len(p) * len(q) > GROUP_SUPPORT_CAP:
        raise ValueError("convolution support product exceeds cap %d" % GROUP_SUPPORT_CAP)
    out: Dict[tuple, np.ndarray] = {}
    for w1, m1 in p.items():
        for w2, m2 in q.items():
            w = _reduce_concat(w1, w2)
            prod = m1 @ m2
            if w in out:
                out[w] += prod
            else:
                out[w] = prod
    return out


def adjoint_element(p: Dict[tuple, np.ndarray]) -> Dict[tuple, np.ndarray]:
    return {word_inverse(w): m.conj().T for w, m in p.items()}


def trace_pairing(p: Dict[tuple, np.ndarray], q: Dict[tuple, np.ndarray]) -> complex:
    """(Tr (x) tau)(p q): only the words cancelling to the identity survive."""
    small, big, swap = (p, q, False) if len(p) <= len(q) else (q, p, True)
    total = 0j
    for w, m in small.items():
        other = big.get(word_inverse(w))
        if other is not None:
            total += np.trace(m @ other) if not swap else np.trace(other @ m)
    return total


def family_group_element(a: CoefficientFamily) -> Dict[tuple, np.ndarray]:
    """sum_k a_k lambda(g_{k_1} ... g_{k_d}), positive letters only."""
    return {tuple(key): mat for key, mat in a.entries.items()}


def _power(x: Dict[tuple, np.ndarray], k: int, alpha: int) -> Dict[tuple, np.ndarray]:
    """x convolved with itself k times; the unit of the algebra when k = 0."""
    out = {(): np.eye(alpha, dtype=complex)}
    for _ in range(k):
        out = convolve(out, x)
    return out


def free_group_moment(a: CoefficientFamily, m: int) -> float:
    """(Tr (x) tau)((A A^*)^m) for A realized over free group generators.
    Raises ValueError for a star family and for m < 1."""
    _check_plain_moment(a, m, "free-group")
    elem = family_group_element(a)
    x = convolve(elem, adjoint_element(elem))
    return trace_pairing(_power(x, m // 2, a.alpha), _power(x, m - m // 2, a.alpha)).real


# ---------------------------------------------------------------------------
# brute-force moment over all non-crossing partitions


def brute_moment(spec: CumulantSpec, a: CoefficientFamily, m: int) -> float:
    """Cumulant sum over the non-crossing partitions of the 2dm positions.

    Validates that the structured sums lose nothing: the weight vanishes
    off the structured families, the trace sum handles the rest.  Only the
    members that cumulants._kappa_support yields are weighed with kappa_pi;
    both read the value of each star pattern, computed once per call.
    Every other member of NC(2dm) has a block of zero cumulant, so the sum
    is the one over all of NC(2dm).  It is matrices._enumerated_sum over
    the support: the members of nonzero weight are contracted by one ring
    walk in the order they come, which contracts each ring prefix that
    consecutive members share once; each member's ASSIGNMENT_CAP is checked
    before its einsums.  Every trace sum is == to trace_sum_complex's, and
    weight * trace is summed in the support's order.  Raises ValueError for
    a star family, for m < 1 and past BRUTE_GROUND_CAP.
    """
    _check_plain_moment(a, m, "brute-force")
    n = 2 * a.d * m
    if n > BRUTE_GROUND_CAP:
        raise ValueError("ground size %d exceeds brute cap %d" % (n, BRUTE_GROUND_CAP))
    if spec.kind == "semicircle":
        _check_adjacent_support(a)
        word = plain_word(n)
    else:
        word = holo_word(a.d, m)
    spec = _stored_block_values(spec)
    return _enumerated_sum(a, spec, _kappa_support(spec, word), word).real
