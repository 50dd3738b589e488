"""Shared brute-force oracles, kept independent of the library internals."""

import math
import os

# one BLAS thread, as benchmarks/run.py pins it, set before the first
# ncfree import loads numpy: with another process busy on the second core a
# multi-threaded SVD can take hundreds of times longer
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from ncfree.partitions import Partition  # noqa: E402


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
