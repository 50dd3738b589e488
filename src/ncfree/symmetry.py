"""Mirror symmetrization of partitions of an even cyclic ground set.

The half-turn mirror around the cut between k and k+1 sends i to 2k+1-i.
The symmetrization of a partition keeps the half-interval ending at k,
replaces the other half by its mirror image, and reconnects blocks that
crossed the cut.  Iterating these maps drives every admissible partition
into a small family of fully symmetric terminal partitions; the block count
of the pair-collapsed partition is conserved on average, which yields exact
absorption probabilities for the induced Markov chain.

The symmetry layer works on block-label lists (Partition._block_id, the
one form a partition stores) and block counts (num_blocks), and builds a
block tuple only to name invalid input: the terminal partitions too are
built from labels.  The labels of a symmetrization come from those of p
over the half ending at the cut, a block wholly inside that half taking a
second label for its mirror copy (_mirror_labels); symmetrize builds the
canonical partition from them in one pass.  One scan of a label list checks
that every block is even and that no two blocks cross, and counts the
blocks of the pair-collapsed partition with a union-find over the labels
(partitions._label_scan).  A cut's symmetrization is counted without its
label list, in one pass over the n/2 block ids of p over the half ending
at the cut (_half_count); its mirror labels are scanned in full only to
name it in the error when it is invalid.  A partition never changes, so
once it is validated its collapsed count is stored on it, and so is the
count of each cut's symmetrization: a martingale sweep over all 2m cuts
reads each cut's half once and builds no symmetrization.  Each grid builds
its terminal partitions once and keeps them, and keeps the absorption
distribution of every state it has solved.

Absorption probabilities come from Gauss-Jordan elimination of the chain's
equations, scaled to integers, on sparse rows over Python integers (each
row kept divided by the gcd of its entries), so they are exact Fractions
without Fraction arithmetic in the solve.  The states are eliminated in the
order of their block-id tuples; the solution is unique, so the order
changes no Fraction.  A state solved by an earlier call on the same grid is
not explored or eliminated again: its distribution enters the equations of
the states that reach it as a known value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

from .partitions import (
    Partition,
    cyclic_index,
    discrete,
    format_partition,
    full,
    interval_pairing,
    is_noncrossing,
    _label_scan,
    _root,
    restrict,
    shifted_pairing,
)

ABSORPTION_STATE_CAP = 100_000


@dataclass(frozen=True)
class GridShape:
    """Layout of {1..2dm} into 2m intervals of size d with mirrored labels.

    Interval k holds positions (k-1)d+1 .. kd; its positions are labelled
    1..d when k is odd and d..1 when k is even, so that each label class
    A_i has one element per interval (2m elements in total).

    terminal_partitions stores the grid's terminals on it, and
    absorption_probabilities the absorption distribution of every state it
    has solved on it, outside the dataclass fields, so equality, hashing and
    repr do not see them.
    """

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("need d >= 1 and m >= 1, got d=%d m=%d" % (self.d, self.m))

    @property
    def n(self) -> int:
        return 2 * self.d * self.m

    def interval_of(self, pos: int) -> int:
        return (pos - 1) // self.d + 1

    def label_of(self, pos: int) -> int:
        k = self.interval_of(pos)
        offset = pos - (k - 1) * self.d
        return offset if k % 2 == 1 else self.d + 1 - offset

    def label_class(self, i: int) -> tuple:
        """The 2m positions carrying label i, ascending."""
        if not 1 <= i <= self.d:
            raise ValueError("label %d outside 1..%d" % (i, self.d))
        out = []
        for k in range(1, 2 * self.m + 1):
            offset = i if k % 2 == 1 else self.d + 1 - i
            out.append((k - 1) * self.d + offset)
        return tuple(out)

    def interval(self, k: int) -> tuple:
        if not 1 <= k <= 2 * self.m:
            raise ValueError("interval index %d outside 1..%d" % (k, 2 * self.m))
        return tuple(range((k - 1) * self.d + 1, k * self.d + 1))


def apply_symmetry(p: Partition, k: int) -> Partition:
    """Relabel p by the mirror i -> 2k+1-i of {1..2N}."""
    if p.n % 2 != 0:
        raise ValueError("ground size must be even, got %d" % p.n)
    ids, n = p._block_id, p.n
    return Partition._from_labels(n, [ids[(2 * k - i) % n] for i in range(1, n + 1)])


def half_interval(k: int, n: int) -> frozenset:
    """The length-N subinterval of {1..2N} ending at k (N = n/2)."""
    half = n // 2
    return frozenset(cyclic_index(k - j, n) for j in range(half))


def symmetrize(p: Partition, k: int) -> Partition:
    """Symmetrize p around the cut after position k.

    Blocks meeting the half ending at k are kept there; a block entirely
    inside that half also spawns a detached mirror copy, while a block that
    crossed the cut is reconnected through the mirror.  The result is always
    invariant under the mirror and the map is idempotent at fixed k.
    """
    if p.n % 2 != 0:
        raise ValueError("ground size must be even, got %d" % p.n)
    return Partition._from_labels(p.n, _mirror_labels(p, k))


def _mirror_labels(p: Partition, k: int) -> list:
    """Block labels of symmetrize(p, k) at positions 1..n (n even).

    A position in the half ending at k keeps its block id in p.  Its mirror
    image 2k+1-i takes the same label when the block also meets the other
    half, which reconnects it through the mirror, and the label plus
    p.num_blocks when the block lies wholly inside the half: its mirror copy.
    Blocks of p inside the other half leave no label.
    """
    n = p.n
    half = n // 2
    # 0-based, the half is c-half .. c-1 and the other half c .. c+half-1,
    # read from two laps of the block ids; c - j - 1 mirrors to c + j
    c = k % n
    if c < half:
        c += n
    ids = p._block_id * 2
    kept = list(ids[c - half:c])
    meets_other = set(ids[c:c + half])
    nb = p.num_blocks
    labels = kept + [b if b in meets_other else b + nb for b in reversed(kept)]
    start = n - (c - half) % n  # labels[0] is position c - half
    return labels[start:] + labels[:start]


@dataclass(frozen=True, order=True)
class TerminalKind:
    """Tag for a symmetrization fixed point.

    family "level" with level l: all label classes carry the shifted pairing
    up to l and the interval pairing above l; "glued" with level l:
    the class at l is fully connected instead; "discrete" is the all-singleton
    outcome, reachable only for partitions with odd blocks (d = 1 only).
    """

    family: str
    level: int

    def __str__(self) -> str:
        if self.family == "discrete":
            return "discrete"
        return "%s_%d" % (self.family, self.level)


def level_terminal(g: GridShape, l: int) -> Partition:
    """Terminal with shifted pairings on labels <= l, interval pairings above."""
    if not 0 <= l <= g.d:
        raise ValueError("level %d outside 0..%d" % (l, g.d))
    return _by_label(g, lambda i: shifted_pairing(g.m) if i <= l else interval_pairing(g.m))


def glued_level_terminal(g: GridShape, l: int) -> Partition:
    """Terminal with the label-l class fully connected."""
    if not 1 <= l <= g.d:
        raise ValueError("level %d outside 1..%d" % (l, g.d))

    def pattern_of(i: int) -> Partition:
        if i < l:
            return shifted_pairing(g.m)
        if i == l:
            return full(2 * g.m)
        return interval_pairing(g.m)

    return _by_label(g, pattern_of)


def _by_label(g: GridShape, pattern_of) -> Partition:
    """The partition carrying pattern_of(i), a partition of {1..2m}, on the
    positions of label class i, for every label i."""
    labels = [None] * g.n
    for i in range(1, g.d + 1):
        for x, j in zip(g.label_class(i), pattern_of(i)._block_id):
            labels[x - 1] = (i, j)
    return Partition._from_labels(g.n, labels)


def terminal_partitions(g: GridShape) -> Dict[TerminalKind, Partition]:
    """The 2d+1 terminal partitions, keyed by kind, in a new dict per call.

    They are built the first time they are asked for and then kept on g.
    """
    stored = g.__dict__.get("_terminals")
    if stored is None:
        stored = {}
        for l in range(g.d + 1):
            stored[TerminalKind("level", l)] = level_terminal(g, l)
        for l in range(1, g.d + 1):
            stored[TerminalKind("glued", l)] = glued_level_terminal(g, l)
        object.__setattr__(g, "_terminals", stored)  # g is frozen
    return dict(stored)


def cascade_indices(g: GridShape) -> list:
    """Order of symmetrization cuts guaranteed to reach a terminal.

    First the cut at md, then cuts at d*2^j for j = 0, 1, ... until
    2^j >= m.
    """
    out = [g.m * g.d]
    j = 0
    while True:
        out.append(g.d * (2 ** j))
        if 2 ** j >= g.m:
            return out
        j += 1


def symmetrize_terminal(p: Partition, g: GridShape) -> Tuple[TerminalKind, Partition]:
    """Run the symmetrization cascade and classify the resulting fixed point."""
    _require_on_grid(p, g)
    q = p
    for k in cascade_indices(g):
        q = symmetrize(q, k)
    terminals = terminal_partitions(g)
    for kind in sorted(terminals):
        if q == terminals[kind]:
            return kind, q
    if g.d == 1 and q == discrete(g.n):
        return TerminalKind("discrete", 0), q
    raise ValueError(
        "cascade did not reach a terminal from %s (got %s)"
        % (format_partition(p), format_partition(q))
    )


def _require_on_grid(p: Partition, g: GridShape) -> None:
    if p.n != g.n:
        raise ValueError("partition on [%d] does not match grid on [%d]" % (p.n, g.n))


def _require_even_nc(p: Partition) -> None:
    if p.n % 2 != 0 or any(len(b) % 2 for b in p.blocks):
        raise ValueError("partition must have even blocks: %s" % format_partition(p))
    if not is_noncrossing(p):
        raise ValueError("partition must be non-crossing: %s" % format_partition(p))


def collapse_block_count(p: Partition) -> int:
    """Block count of the pair-collapsed partition (even-block NC input).

    The count is stored on p once p is validated; invalid input raises
    ValueError on every call and stores nothing.
    """
    if p._collapsed is None:
        p._collapsed = _checked_count(p.n, p._block_id)
    return p._collapsed


def _collapsed_count(p: Partition) -> int:
    """collapse_pairs(p).num_blocks, counted without building the partition
    and without validating p."""
    return _label_scan(p._block_id)[1]


def _checked_count(n: int, labels) -> int:
    """Collapsed block count of the partition with these block labels, which
    must have even blocks and no crossing; otherwise the partition is built
    and _require_even_nc raises, naming it."""
    valid, count, _ = _label_scan(labels)
    if not valid:
        _require_even_nc(Partition._from_labels(n, labels))
    return count


def _cut_count(p: Partition, k: int) -> int:
    """collapse_block_count(symmetrize(p, k)), stored on p by its cut in 1..n.

    The count is read from the half ending at k (_half_count).  Only when
    that pass finds the symmetrization invalid are its mirror labels built
    and scanned in full, so that _checked_count raises naming it; then
    nothing is stored.
    """
    k = cyclic_index(k, p.n)
    if p._cut_counts is None:
        p._cut_counts = {}
    count = p._cut_counts.get(k)
    if count is None:
        count = _half_count(p, k)
        if count is None:
            count = _checked_count(p.n, _mirror_labels(p, k))
        p._cut_counts[k] = count
    return count


def _half_count(p: Partition, k: int):
    """Collapsed block count of symmetrize(p, k) from the half H ending at
    k (n even), or None when that symmetrization has an odd block or a
    crossing.

    Let W be the block ids of p over H, in order, and O those that also
    meet the other half.  The symmetrization is W followed by its mirror,
    in which an id of O keeps its label and any other id takes a copy.  It
    is even and non-crossing iff the stack scan of W (as in _label_scan)
    finds no crossing and never closes an id of O, which would nest an
    outer block inside another, and every id outside O appears an even
    number of times.  Its collapsed blocks are the classes of W's ids
    joined through the pairs inside H, each with its mirror class; the two
    are one class when the class holds an id of O or a position of H whose
    pair crosses the boundary of H, which then joins it to its mirror
    image.  Such a position is k - n/2 + 1 when it is even and k when k is
    odd, and a class with no id of O has an even number of positions, so
    it holds both of them or neither: the one at k marks it.  So the count
    is twice the number of classes less the number joined to their mirror.
    """
    n = p.n
    half = n // 2
    c = k % n  # 0-based, H is c-half .. c-1 of two laps of the ids
    if c < half:
        c += n
    ids = p._block_id * 2
    word = ids[c - half:c]
    outer = set(ids[c:c + half])
    size = p.num_blocks
    seen = [0] * size  # id -> appearances in W, negated once its block is closed
    parent = list(range(size))
    stack = []
    merges = 0
    # the label of the open pair's first position; when the first pair of H
    # starts before it, W[0] stands in for that position and joins nothing
    first = word[0] if (c - half) & 1 else None
    for label in word:
        count = seen[label]
        if count > 0:
            seen[label] = count + 1
            while stack[-1] != label:
                top = stack.pop()
                if top in outer:
                    return None
                seen[top] = -seen[top]
        elif count == 0:
            seen[label] = 1
            stack.append(label)
        else:
            return None
        if first is None:
            first = label
        else:
            if first != label:
                a, b = _root(parent, first), _root(parent, label)
                if a != b:
                    parent[b] = a
                    merges += 1
            first = None
    joined = set()  # roots of the classes joined to their mirror
    for label, count in enumerate(seen):
        if label in outer:
            if count:
                joined.add(_root(parent, label))
        elif count & 1:
            return None
    if first is not None:  # the last pair of H ends after it
        joined.add(_root(parent, first))
    return 2 * (size - seen.count(0) - merges) - len(joined)


def check_collapse_martingale(p: Partition, k: int) -> Tuple[int, int]:
    """Collapsed block counts after symmetrizing at cut k and at the
    opposite cut k+m; their mean must equal the count of p itself.

    Each cut's count is computed once per partition (see _cut_count), so
    a sweep of k over all 2m cuts validates and counts each symmetrization
    once, from the half of p that it keeps; the invariant is asserted on
    every call.
    """
    count = collapse_block_count(p)
    b_left = _cut_count(p, k)
    b_right = _cut_count(p, k + p.n // 2)
    if b_left + b_right != 2 * count:
        raise AssertionError(
            "block-count invariant violated at k=%d for %s" % (k, format_partition(p))
        )
    return b_left, b_right


def collapse_count_profile(p: Partition, g: GridShape) -> tuple:
    """Collapsed block counts of the label-class restrictions, padded with
    the boundary conventions: index l runs 0..d+1 with the ends pinned to
    1 and m."""
    _require_on_grid(p, g)
    inner = [collapse_block_count(restrict(p, g.label_class(i))) for i in range(1, g.d + 1)]
    return tuple([1] + inner + [g.m])


def level_exponents(p: Partition, g: GridShape) -> tuple:
    """Exact profile increments divided by m-1, for levels 0..d; nonnegative
    and summing to 1."""
    if g.m < 2:
        raise ValueError("exponents are undefined for m=1")
    prof = collapse_count_profile(p, g)
    return tuple(Fraction(prof[l + 1] - prof[l], g.m - 1) for l in range(g.d + 1))


def absorption_probabilities(p: Partition, g: GridShape) -> Dict[TerminalKind, Fraction]:
    """Exact absorption distribution of the uniform-cut symmetrization chain.

    One step picks i uniformly in {1..2m} and applies the symmetrization at
    cut i*d.  The absorption probabilities x solve x_s = mean of x over the
    2m images of s, an image in a terminal counting as that terminal's
    indicator; scaled to integers this system is eliminated exactly over
    Python integers, so every probability is a Fraction.

    The distribution of every state a call solves is kept on g (outside its
    dataclass fields), and later calls on g reuse it: a start already solved
    returns at once, and otherwise the search for reachable states stops at
    terminals and at solved states, whose distributions enter the equations
    as known values.  So a sweep over a family solves each state once.
    ABSORPTION_STATE_CAP bounds the states that one call must solve,
    checked while they are collected, before any elimination.  Raises
    ValueError, naming p and storing nothing, when some state it must solve
    cannot reach a terminal: the system is singular.
    """
    _require_on_grid(p, g)
    terminals = terminal_partitions(g)
    terminal_lookup = {part: kind for kind, part in terminals.items()}
    kinds = sorted(terminals)
    if p in terminal_lookup:
        return {kind: Fraction(kind == terminal_lookup[p]) for kind in kinds}
    solved = g.__dict__.get("_absorption")
    if solved is None:
        solved = {}
        object.__setattr__(g, "_absorption", solved)  # g is frozen
    probs = solved.get(p)
    if probs is None:
        states, rows = _absorption_system(p, g, terminal_lookup, kinds, solved)
        solution = _solve_integer_system(rows, len(states), len(kinds))
        if solution is None:
            raise ValueError("symmetrization chain from %s does not reach a terminal "
                             "from every state it visits" % format_partition(p))
        solved.update(zip(states, map(tuple, solution)))
        probs = solved[p]
    return dict(zip(kinds, probs))


def _absorption_system(p: Partition, g: GridShape, terminal_lookup: dict,
                       kinds: list, solved: dict = None) -> tuple:
    """The states reachable from p that are to be solved, sorted by their
    block-id tuples, and their equations.

    solved maps states whose distributions are known to them (tuples over
    kinds); the search stops there as it does at terminals.  Row s is a
    {column: int} dict holding the nonzero entries of L * 2m times
    x_s - mean of x over the images of s: 2m L at s, -L per image in a state
    to be solved, +L per image in a terminal in the right-hand column
    len(states) + kinds.index(kind), and L times the known distribution of
    each solved image in the right-hand columns.  L is the lcm of the
    denominators of those known values, 1 when s has no solved image.
    """
    solved = solved or {}
    cuts = [i * g.d for i in range(1, 2 * g.m + 1)]
    succ = {}
    frontier = [p]
    while frontier:
        state = frontier.pop()
        if state in succ or state in terminal_lookup or state in solved:
            continue
        images = [symmetrize(state, k) for k in cuts]
        succ[state] = images
        if len(succ) > ABSORPTION_STATE_CAP:
            raise ValueError("reachable state graph exceeds cap %d" % ABSORPTION_STATE_CAP)
        frontier.extend(img for img in images if img not in succ)

    states = sorted(succ, key=lambda s: s._block_id)
    nstates = len(states)
    column = {s: i for i, s in enumerate(states)}
    for part, kind in terminal_lookup.items():
        column[part] = nstates + kinds.index(kind)
    rows = []
    for s in states:
        known = [solved[img] for img in succ[s] if img not in column]
        scale = lcm(*(v.denominator for probs in known for v in probs))
        row = {column[s]: len(cuts) * scale}
        for img in succ[s]:
            j = column.get(img)
            if j is not None:
                row[j] = row.get(j, 0) + (scale if j >= nstates else -scale)
        for probs in known:
            for j, v in enumerate(probs, start=nstates):
                row[j] = row.get(j, 0) + scale // v.denominator * v.numerator
        rows.append({j: v for j, v in row.items() if v})
    return states, rows


def _solve_integer_system(rows: list, nvars: int, nrhs: int):
    """Gauss-Jordan on sparse integer rows [A | B] ({column: int} dicts,
    columns nvars and up on the right).  Returns A^{-1} B row-wise as
    Fractions, or None when A is singular.  Each updated row is divided by
    the gcd of its entries, which keeps the integers small."""
    rows = list(rows)  # updated rows are new dicts: the caller's stay intact
    for col in range(nvars):
        pivot = next((r for r in range(col, nvars) if rows[r].get(col)), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = rows[col]
        a = prow[col]
        for r in range(nvars):
            row = rows[r]
            b = row.get(col)
            if r == col or not b:
                continue
            new = {j: a * v for j, v in row.items() if j != col}
            for j, v in prow.items():
                if j != col:
                    w = new.get(j, 0) - b * v
                    if w:
                        new[j] = w
                    else:
                        new.pop(j, None)
            div = gcd(*new.values())
            rows[r] = {j: v // div for j, v in new.items()} if div > 1 else new
    return [[Fraction(row.get(j, 0), row[i]) for j in range(nvars, nvars + nrhs)]
            for i, row in enumerate(rows)]
