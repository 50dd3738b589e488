"""Shared brute-force oracles, kept independent of the library internals,
and verbatim copies of replaced solvers, kept as references for their
replacements."""

import math
import os

# one BLAS thread, as benchmarks/run.py pins it, set before the first
# ncfree import loads numpy: with another process busy on the second core a
# multi-threaded SVD can take hundreds of times longer
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from ncfree.cumulants import holo_word, kappa_pi, plain_word  # noqa: E402
from ncfree.matrices import (  # noqa: E402
    _check_adjacent_support,
    _group_tensors,
    _Ring,
    _weighted_sum,
    trace_sum_complex,
)
from ncfree.oracles import BRUTE_GROUND_CAP  # noqa: E402
from ncfree.partitions import Partition, cyclic_index, enumerate_nc  # noqa: E402


def all_set_partitions(n):
    """Every set partition of {1..n} via restricted growth strings."""

    def rec(i, rgs, maxval):
        if i == n:
            blocks = {}
            for pos, b in enumerate(rgs, start=1):
                blocks.setdefault(b, []).append(pos)
            yield Partition(n, list(blocks.values()))
            return
        for b in range(maxval + 2):
            yield from rec(i + 1, rgs + [b], max(maxval, b))

    yield from rec(0, [], -1)


def crossing_quadruple(p):
    """Direct search for i<j<k<l with i~k, j~l in different blocks."""
    n = p.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if p.related(i, j):
                continue
            for k in range(j + 1, n + 1):
                if not p.related(i, k):
                    continue
                for l in range(k + 1, n + 1):
                    if p.related(j, l):
                        return (i, j, k, l)
    return None


def catalan_by_factorials(n):
    """(2N)! / (N! (N+1)!), independently of math.comb."""
    return math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))


def symmetrization_by_clauses(p, k):
    """Mirror symmetrization built directly from its three defining clauses.

    Returns the partition of related components; raises if the clause
    relation fails to be an equivalence.
    """
    n = p.n
    half = n // 2
    inside = {((k - j - 1) % n) + 1 for j in range(half)}

    def mirror(i):
        return ((2 * k - i) % n) + 1

    related = [[False] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        related[i][i] = True
        for j in range(1, n + 1):
            if i in inside and j in inside:
                related[i][j] = p.related(i, j)
            elif i not in inside and j not in inside:
                related[i][j] = p.related(mirror(i), mirror(j))
            elif i in inside:
                related[i][j] = p.related(i, mirror(j)) and any(
                    p.related(i, l) for l in range(1, n + 1) if l not in inside)
    # clause three is stated one-sidedly; symmetrize
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if related[i][j] or related[j][i]:
                related[i][j] = related[j][i] = True
    # must already be transitive
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                if related[i][j] and related[j][l]:
                    assert related[i][l], "clause relation is not transitive"
    blocks = []
    seen = set()
    for i in range(1, n + 1):
        if i not in seen:
            block = [j for j in range(1, n + 1) if related[i][j]]
            seen.update(block)
            blocks.append(block)
    return Partition(n, blocks)


def reference_nc_constrained(n, extend_ok, complete_ok):
    """Block tuples of enumerate_nc_constrained, from the nested-generator
    recursion the library used before it ran on an explicit stack.  Kept
    verbatim as the reference for the order in which members come out."""
    for blocks in _reference_constrained_blocks((tuple(range(1, n + 1)),), (),
                                                extend_ok, complete_ok):
        yield blocks


def _reference_constrained_blocks(segments, acc, extend_ok, complete_ok):
    if not segments:
        yield acc
        return
    segment, later = segments[0], segments[1:]
    first, rest = segment[0], segment[1:]

    def grow(block, i0, gaps):
        if complete_ok(block):
            yield block, gaps + ((rest[i0:],) if i0 < len(rest) else ())
        for j in range(i0, len(rest)):
            cand = rest[j]
            if extend_ok(block, cand):
                yield from grow(block + (cand,), j + 1,
                                gaps + ((rest[i0:j],) if j > i0 else ()))

    for block, gaps in grow((first,), 0, ()):
        yield from _reference_constrained_blocks(gaps + later, acc + (block,),
                                                 extend_ok, complete_ok)


# ---------------------------------------------------------------------------
# the two planar recursions that one interval recursion with letter contexts
# replaced, kept verbatim (with the dispatch of planar_sum that chose between
# them) as the reference for matrices.planar_sum, on the ring with the
# per-class step they were written for


class PerClassRing(_Ring):
    """_Ring with the per-class step it had before it stepped through whole
    periods: fill adds the live letters and the column arrays of each class,
    and step is the per-class loop, both verbatim."""

    def fill(self, groups: tuple) -> None:
        super().fill(groups)
        n, d = self.n, self.d
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


def reference_planar_sum(a, spec, m):
    """planar_sum by the block recursion, or for Haar by the tree form."""
    ring = PerClassRing(a, spec, m)
    ring.fill(_group_tensors(a))
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


# ---------------------------------------------------------------------------
# brute_moment as it was before it summed over the support of kappa_pi only,
# kept verbatim as the reference for oracles.brute_moment


def reference_brute_moment(spec, a, m: int) -> float:
    """Cumulant sum over ALL non-crossing partitions of the 2dm positions.

    Validates that the structured sums lose nothing: the weight vanishes
    off the structured families, the trace sum handles the rest.
    """
    n = 2 * a.d * m
    if n > BRUTE_GROUND_CAP:
        raise ValueError("ground size %d exceeds brute cap %d" % (n, BRUTE_GROUND_CAP))
    if spec.kind == "semicircle":
        _check_adjacent_support(a)
        word = plain_word(n)
    else:
        word = holo_word(a.d, m)
    total = _weighted_sum(enumerate_nc(n), lambda p: kappa_pi(spec, p, word),
                          lambda p: trace_sum_complex(a, p))
    return total.real


# ---------------------------------------------------------------------------
# symmetrize and the collapse union-find as they were before the symmetry
# layer worked on block-label lists, kept verbatim as the references for
# symmetry.symmetrize, partitions.collapse_pairs and the label scan


def reference_symmetrize(p: Partition, k: int) -> Partition:
    """Symmetrize p around the cut after position k.

    Blocks meeting the half ending at k are kept there; a block entirely
    inside that half also spawns a detached mirror copy, while a block that
    crossed the cut is reconnected through the mirror.  The result is always
    invariant under the mirror and the map is idempotent at fixed k.
    """
    if p.n % 2 != 0:
        raise ValueError("ground size must be even, got %d" % p.n)
    n = p.n
    half = n // 2
    k = cyclic_index(k, n)
    blocks = []
    for v in p.blocks:
        # x lies in half_interval(k, n) iff it is k - j for some 0 <= j < half
        kept = [x for x in v if (k - x) % n < half]
        if not kept:
            continue
        mirror = [(2 * k - x) % n + 1 for x in kept]
        if len(kept) == len(v):
            blocks.append(tuple(kept))
            blocks.append(tuple(sorted(mirror)))
        else:
            blocks.append(tuple(sorted(kept + mirror)))
    # the kept parts tile the half and their mirrors tile the other half
    blocks.sort()
    return Partition._trusted(n, tuple(blocks))


def reference_collapse_pairs(p: Partition) -> Partition:
    """Identify 2k-1 and 2k of {1..2m} to get a partition of {1..m}.

    Two images k, l are related whenever any preimages are related in p,
    closed transitively (union-find).
    """
    find, _ = _reference_collapse_forest(p)
    m = p.n // 2
    groups = {}
    for k in range(1, m + 1):
        groups.setdefault(find(k), []).append(k)
    # groups open at their minimum and fill in ascending order: canonical
    return Partition._trusted(m, tuple(tuple(g) for g in groups.values()))


def reference_collapsed_count(p: Partition) -> int:
    """collapse_pairs(p).num_blocks, counted without building the partition."""
    return p.n // 2 - _reference_collapse_forest(p)[1]


def _reference_collapse_forest(p: Partition) -> tuple:
    """Union-find of collapse_pairs: its find function and number of merges,
    so that collapse_pairs(p) has m minus that many blocks."""
    if p.n % 2 != 0:
        raise ValueError("ground size must be even, got %d" % p.n)
    parent = list(range(p.n // 2 + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for b in p.blocks:
        root = find((b[0] + 1) // 2)
        for x in b[1:]:
            r = find((x + 1) // 2)
            if r != root:
                parent[r] = root
                merges += 1
    return find, merges
