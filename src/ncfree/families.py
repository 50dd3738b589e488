"""Constrained families of non-crossing partitions on the labelled grid.

Two families matter: the star family (even blocks that respect the mirrored
label classes of a GridShape) and the interval-avoiding family (even blocks
never linking two positions of the same size-d interval).  Both come with
direct enumerators, structure maps onto chains of partitions and pair
splittings, and exact counting formulas.

The enumerators, pairings included, are predicates on the one non-crossing
recursion of ncfree.partitions.  In an even-block non-crossing partition
the elements strictly between two consecutive elements of a block form
whole blocks, so that gap is even and the step between the two is odd.
The star predicate implies an odd step already; the interval-avoiding
predicate requires one, which prunes odd gaps before they are recursed
into.  A pairing variant differs from its family only in letting a block
grow from one element alone.  Each enumerator checks its size cap when
called, before anything is yielded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from .partitions import (
    Partition,
    enumerate_nc,
    enumerate_nc_constrained,
    _label_scan,
    format_partition,
    is_noncrossing,
    is_refinement,
    collapse_pairs,
    restrict,
)
from .symmetry import GridShape, _require_on_grid

STAR_ENUMERATION_CAP = 24
INTERVAL_ENUMERATION_CAP = 20


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fuss_catalan(d: int, m: int) -> int:
    """Number of star-family pairings: (1/m) C(m(d+1), m-1)."""
    return math.comb(m * (d + 1), m - 1) // m


# ---------------------------------------------------------------------------
# membership tests


def _member(p: Partition, g: GridShape, block_ok) -> bool:
    """The test every family shares: even blocks, no crossing (one
    _label_scan of p's block labels) and block_ok on every block.  Raises
    ValueError when p is not on the grid's ground set."""
    _require_on_grid(p, g)
    return _label_scan(p._block_id)[0] and all(map(block_ok, p.blocks))


def is_ncstar(p: Partition, g: GridShape) -> bool:
    """Even-block non-crossing partitions whose consecutive block elements sit
    in intervals of opposite parity."""
    return _member(p, g, lambda b: all(
        (g.interval_of(x) - g.interval_of(y)) % 2 for x, y in zip(b, b[1:])))


def is_ncstar_by_labels(p: Partition, g: GridShape) -> bool:
    """Equivalent characterization: even blocks, non-crossing, finer than the
    label classes."""
    return _member(p, g, lambda b: len({g.label_of(x) for x in b}) == 1)


def is_interval_avoiding(p: Partition, g: GridShape) -> bool:
    """Even-block non-crossing partitions never linking a size-d interval to
    itself."""
    return _member(p, g, lambda b: len({g.interval_of(x) for x in b}) == len(b))


def is_pairing(p: Partition) -> bool:
    return all(len(b) == 2 for b in p.blocks)


# ---------------------------------------------------------------------------
# constrained enumeration
#
# Every family keeps a block only at even size; the module docstring gives
# the odd-step argument behind the interval-avoiding predicate.


def _check_cap(g: GridShape, cap: int) -> None:
    if g.n > cap:
        raise ValueError("ground size %d exceeds cap %d" % (g.n, cap))


def _even(block: tuple) -> bool:
    return len(block) % 2 == 0


def _star_step(g: GridShape):
    def extend_ok(block, cand):
        return (
            g.label_of(cand) == g.label_of(block[0])
            and g.interval_of(cand) % 2 != g.interval_of(block[-1]) % 2
        )

    return extend_ok


def enumerate_ncstar(g: GridShape) -> Iterator[Partition]:
    """Every member of the star family, each exactly once."""
    _check_cap(g, STAR_ENUMERATION_CAP)
    return enumerate_nc_constrained(g.n, _star_step(g), _even)


def enumerate_ncstar2(g: GridShape) -> Iterator[Partition]:
    """The pairings of the star family (counted by fuss_catalan(d, m))."""
    _check_cap(g, STAR_ENUMERATION_CAP)
    star = _star_step(g)
    return enumerate_nc_constrained(
        g.n, lambda block, cand: len(block) == 1 and star(block, cand), _even)


def _interval_vector(sizes: Sequence[int]) -> list:
    iv = []
    for k, size in enumerate(sizes):
        if size < 1:
            raise ValueError("interval sizes must be positive")
        iv.extend([k] * size)
    return iv


def _enumerate_interval_avoiding(
    n: int, iv: list, pairs_only: bool
) -> Iterator[Partition]:
    def extend_ok(block, cand):
        if pairs_only and len(block) != 1:
            return False
        return (cand - block[-1]) % 2 == 1 and all(iv[cand - 1] != iv[x - 1] for x in block)

    return enumerate_nc_constrained(n, extend_ok, _even)


def enumerate_ncdm(g: GridShape) -> Iterator[Partition]:
    """Every member of the interval-avoiding family, each exactly once."""
    _check_cap(g, INTERVAL_ENUMERATION_CAP)
    iv = _interval_vector([g.d] * (2 * g.m))
    return _enumerate_interval_avoiding(g.n, iv, pairs_only=False)


def enumerate_interval_pairings(g: GridShape) -> Iterator[Partition]:
    """Non-crossing pairings that never pair a size-d interval with itself."""
    _check_cap(g, INTERVAL_ENUMERATION_CAP)
    iv = _interval_vector([g.d] * (2 * g.m))
    return _enumerate_interval_avoiding(g.n, iv, pairs_only=True)


# ---------------------------------------------------------------------------
# structure maps


@dataclass(frozen=True)
class ChainOfPartitions:
    """A chain of partitions of {1..m} that refine left to right."""

    m: int
    chain: Tuple[Partition, ...]

    def __post_init__(self):
        for part in self.chain:
            if part.n != self.m:
                raise ValueError("chain entry on [%d], expected [%d]" % (part.n, self.m))
        for coarse, fine in zip(self.chain, self.chain[1:]):
            if not is_refinement(fine, coarse):
                raise ValueError("chain is not refining: %s then %s" % (coarse, fine))

    @property
    def d(self) -> int:
        return len(self.chain)

    def rank_vector(self) -> tuple:
        """Block-count increments with the ends pinned to 1 block and m blocks."""
        counts = [1] + [part.num_blocks for part in self.chain] + [self.m]
        return tuple(counts[i + 1] - counts[i] for i in range(len(counts) - 1))


def map_chain(p: Partition, g: GridShape) -> ChainOfPartitions:
    """Collapse each label-class restriction; the result refines along labels."""
    if not is_ncstar(p, g):
        raise ValueError("partition is not in the star family: %s" % format_partition(p))
    chain = tuple(
        collapse_pairs(restrict(p, g.label_class(i))) for i in range(1, g.d + 1)
    )
    return ChainOfPartitions(g.m, chain)


def pair_split(p: Partition) -> Partition:
    """Split each even block {k_1<...<k_2p} into the pairs {k_1,k_2},...

    Uses the plain linear order of {1..2N}; the smallest ground element is a
    genuine anchor here, not just a cyclic basepoint.
    """
    blocks = []
    for b in p.blocks:
        if len(b) % 2:
            raise ValueError("block %r has odd size" % (b,))
        blocks.extend((b[i], b[i + 1]) for i in range(0, len(b), 2))
    return Partition(p.n, blocks)


def chain_fibers(g: GridShape) -> Dict[ChainOfPartitions, List[Partition]]:
    """All star-family members grouped by their chain image."""
    fibers: Dict[ChainOfPartitions, List[Partition]] = {}
    for p in enumerate_ncstar(g):
        fibers.setdefault(map_chain(p, g), []).append(p)
    return fibers


def chain_fiber(s: Partition, g: GridShape) -> List[Partition]:
    """Star-family members sharing the chain image of the pairing s."""
    if not (is_pairing(s) and is_ncstar(s, g)):
        raise ValueError("expected a star-family pairing, got %s" % format_partition(s))
    target = map_chain(s, g)
    return [p for p in enumerate_ncstar(g) if map_chain(p, g) == target]


def fiber_size_chain(s: Partition, g: GridShape) -> int:
    return len(chain_fiber(s, g))


def pair_split_fiber(s: Partition, interval_sizes: Sequence[int]) -> List[Partition]:
    """Even-block interval-avoiding partitions splitting to the pairing s."""
    iv = _interval_vector(interval_sizes)
    n = len(iv)
    if s.n != n:
        raise ValueError("pairing on [%d] does not match intervals on [%d]" % (s.n, n))
    if not is_pairing(s) or not is_noncrossing(s):
        raise ValueError("expected a non-crossing pairing, got %s" % format_partition(s))
    for b in s.blocks:
        if iv[b[0] - 1] == iv[b[1] - 1]:
            raise ValueError("pairing links interval %d to itself" % iv[b[0] - 1])
    return [
        p
        for p in _enumerate_interval_avoiding(n, iv, pairs_only=False)
        if pair_split(p) == s
    ]


def pair_split_fiber_size(s: Partition, interval_sizes: Sequence[int]) -> int:
    return len(pair_split_fiber(s, interval_sizes))


# ---------------------------------------------------------------------------
# counting


def chain_count_by_ranks(m: int, ranks: Sequence[int]) -> int:
    """Number of refining chains with the given block-count increments.

    The increments must be nonnegative and sum to m-1; the count is
    (1/m) * prod_l C(m, s_l).
    """
    ranks = tuple(ranks)
    if any(s < 0 for s in ranks) or sum(ranks) != m - 1:
        raise ValueError("invalid rank vector %r for m=%d" % (ranks, m))
    total = Fraction(1, m)
    for s in ranks:
        total *= math.comb(m, s)
    if total.denominator != 1:
        raise AssertionError("chain count is not an integer: %s" % total)
    return int(total)


def rank_vectors(m: int, d: int) -> Iterator[tuple]:
    """All (d+1)-tuples of nonnegative integers summing to m-1."""

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for s in range(remaining + 1):
            for tail in rec(remaining - s, slots - 1):
                yield (s,) + tail

    return rec(m - 1, d + 1)


def enumerate_chains(m: int, d: int) -> Iterator[ChainOfPartitions]:
    """Brute-force enumeration of refining chains (small m only)."""
    ncm = list(enumerate_nc(m))

    def rec(prefix: tuple):
        if len(prefix) == d:
            yield ChainOfPartitions(m, prefix)
            return
        candidates = ncm if not prefix else [
            q for q in ncm if is_refinement(q, prefix[-1])
        ]
        for q in candidates:
            yield from rec(prefix + (q,))

    return rec(())


def chebyshev_pair_count(d: int, m: int) -> int:
    """Count of interval-avoiding pairings via orthogonal-polynomial moments.

    Expand the degree-d polynomial from the three-term recursion
    T_{j+1} = x T_j - T_{j-1} (T_0 = 1, T_1 = x), raise it to the 2m-th
    power and take moments of the semicircular law, where the 2n-th moment
    is the n-th Catalan number.  Exact integer arithmetic throughout.
    """
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    prev, cur = [1], [0, 1]  # coefficient lists, index = power of x
    for _ in range(d - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    power = [1]
    for _ in range(2 * m):
        power = _poly_mul(power, cur)
    total = 0
    for degree, coeff in enumerate(power):
        if coeff and degree % 2 == 0:
            total += coeff * catalan(degree // 2)
    return total


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out
