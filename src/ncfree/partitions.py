"""Canonical set partitions of the cyclic ground set {1..n}.

Elements are 1-based and arithmetic on positions is cyclic: position 0 is
identified with n.  Partitions are stored in a unique canonical form (blocks
sorted by minimum, elements ascending), so equality and hashing are
structural.

Every non-crossing family in the package comes from one recursion,
enumerate_nc_constrained: pick the block of the smallest element of a
contiguous segment, then partition the gaps between its consecutive
elements, and the tail after it, independently.  Two predicates steer it:
one decides whether a block may grow by a candidate element, the other
whether a block may be kept.  enumerate_nc passes predicates that always
hold, so it yields NC(n) in the recursion's order rather than a sorted
one; the constrained families of ncfree.families pass their own.

The recursion runs in one generator on an explicit stack, one level per
open segment.  Within a call, each segment's choices of (block, gaps) are
built once and reused whenever that segment comes up again, so the
predicates must be pure functions of their arguments.

_label_scan is the package's full-list non-crossing scan: one pass over a
list of integer block labels that checks even blocks and no crossing and
counts the blocks of the pair-collapsed partition.  is_noncrossing,
collapse_pairs, the family membership tests of ncfree.families and the
checks of ncfree.symmetry read it.  A cut's symmetrization is the one
case counted without it: ncfree.symmetry reads that count from the kept
half, and scans the mirror labels in full only to name an invalid
symmetrization.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

NC_ENUMERATION_CAP = 14


def cyclic_index(i: int, n: int) -> int:
    """Reduce an integer into {1..n} with 0 identified with n."""
    return ((i - 1) % n) + 1


class Partition:
    """A set partition of {1..n} in canonical block form.

    _block_id lists the block index of each position 1..n.  Code that
    derives a partition position by position (a symmetrization, a
    collapse) works on such label lists and builds the partition once,
    through _from_labels.

    A partition never changes, so values derived from it may be stored on
    it the first time they are computed.  Two slots hold such values for
    ncfree.symmetry, and neither takes part in equality or hashing:
    _collapsed is the block count of collapse_pairs(p), set only once p
    has been checked to have even blocks and no crossing (None before);
    _cut_counts maps a cut k in 1..n to that count for symmetrize(p, k),
    set only once that symmetrization has been checked the same way (None
    until the first cut is counted).
    """

    __slots__ = ("n", "blocks", "_block_id", "_collapsed", "_cut_counts")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if n < 1:
            raise ValueError("ground size must be positive, got %r" % (n,))
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0)
        seen = [False] * (n + 1)
        for b in canon:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not isinstance(x, int) or not 1 <= x <= n:
                    raise ValueError("element %r out of range 1..%d" % (x, n))
                if seen[x]:
                    raise ValueError("element %d appears twice" % x)
                seen[x] = True
        missing = [x for x in range(1, n + 1) if not seen[x]]
        if missing:
            raise ValueError("elements missing from partition: %s" % missing)
        self._fill(n, tuple(canon))

    def _fill(self, n: int, blocks: tuple, block_id: tuple = None) -> None:
        """Set every slot from canonical blocks and, when the caller has
        them, their block ids; no stored value yet."""
        if block_id is None:
            bid = [0] * n
            for j, b in enumerate(blocks):
                for x in b:
                    bid[x - 1] = j
            block_id = tuple(bid)
        self.n = n
        self.blocks = blocks
        self._block_id = block_id
        self._collapsed = None
        self._cut_counts = None

    @classmethod
    def _trusted(cls, n: int, blocks: tuple, block_id: tuple = None) -> "Partition":
        """Build from already-canonical blocks, and their block ids when the
        caller has them, skipping validation."""
        p = object.__new__(cls)
        p._fill(n, blocks, block_id)
        return p

    @classmethod
    def _from_labels(cls, n: int, labels) -> "Partition":
        """Build from the block labels of positions 1..n (any hashable
        values, one block per distinct label), skipping validation.

        Numbering the labels by first appearance gives the canonical block
        order, and each block fills in ascending order, so blocks and block
        ids come out of one pass with no sort.
        """
        number = {}
        blocks = []
        bid = []
        for x, label in enumerate(labels, start=1):
            j = number.get(label)
            if j is None:
                j = number[label] = len(blocks)
                blocks.append([x])
            else:
                blocks[j].append(x)
            bid.append(j)
        p = object.__new__(cls)
        p._fill(n, tuple(map(tuple, blocks)), tuple(bid))
        return p

    def block_id(self, i: int) -> int:
        return self._block_id[i - 1]

    def block_containing(self, i: int) -> tuple:
        return self.blocks[self._block_id[i - 1]]

    def related(self, i: int, j: int) -> bool:
        """True iff i and j lie in the same block."""
        return self._block_id[i - 1] == self._block_id[j - 1]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        return "Partition(%d, %r)" % (self.n, [list(b) for b in self.blocks])

    def __str__(self) -> str:
        return format_partition(self)


def parse_partition(text: str, n: int) -> Partition:
    """Parse block syntax like ``"1,3,12|2,4,8,10|5,7|6|9,11"``."""
    blocks = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            raise ValueError("empty block in %r" % text)
        try:
            blocks.append([int(tok) for tok in part.split(",")])
        except ValueError:
            raise ValueError("non-integer element in block %r" % part) from None
    return Partition(n, blocks)


def format_partition(p: Partition) -> str:
    """Inverse of parse_partition on canonical forms."""
    return "|".join(",".join(str(x) for x in b) for b in p.blocks)


def discrete(n: int) -> Partition:
    """The all-singletons partition of {1..n}."""
    return Partition._trusted(n, tuple((i,) for i in range(1, n + 1)))


def full(n: int) -> Partition:
    """The one-block partition of {1..n}."""
    return Partition._trusted(n, (tuple(range(1, n + 1)),))


def interval_pairing(m: int) -> Partition:
    """The pairing {2j-1, 2j} of {1..2m}."""
    return Partition._trusted(2 * m, tuple((2 * j - 1, 2 * j) for j in range(1, m + 1)))


def shifted_pairing(m: int) -> Partition:
    """The pairing {2j, 2j+1} of {1..2m}, cyclically (so {2m, 1} is a block)."""
    n = 2 * m
    blocks = [(cyclic_index(2 * j, n), cyclic_index(2 * j + 1, n)) for j in range(1, m + 1)]
    return Partition(n, blocks)


def is_noncrossing(p: Partition) -> bool:
    """No quadruple i<j<k<l with i~k and j~l in different blocks.

    The verdict of _label_scan on the label list with every position
    repeated: that makes every block even and keeps every crossing.
    """
    labels = [0] * (2 * p.n)
    labels[::2] = labels[1::2] = p._block_id
    return _label_scan(labels)[0]


def enumerate_nc(n: int) -> Iterator[Partition]:
    """All non-crossing partitions of {1..n}, each exactly once.

    The order is that of enumerate_nc_constrained, not a sorted order.
    Raises ValueError, when called, for n outside 1..NC_ENUMERATION_CAP.
    """
    if not 1 <= n <= NC_ENUMERATION_CAP:
        raise ValueError("ground size %d outside 1..%d" % (n, NC_ENUMERATION_CAP))
    return enumerate_nc_constrained(n, _always, _always)


def _always(*_) -> bool:
    return True


def enumerate_nc_constrained(n: int, extend_ok, complete_ok) -> Iterator[Partition]:
    """Non-crossing partitions of {1..n} built block by block under predicates.

    The block of the smallest element of a contiguous segment grows by
    larger elements `cand` while extend_ok(block, cand) holds, and is kept
    wherever complete_ok(block) holds; the gaps between its consecutive
    elements, and the tail after its last one, are then partitioned the
    same way and independently.  With predicates that are always true this
    yields every non-crossing partition exactly once.

    The recursion runs in this one generator, on an explicit stack holding
    one iterator per open segment.  The (block, gaps) choices of a segment
    are built once per call, the first time the segment comes up, and
    reused every time it comes up again; so the predicates must be pure
    functions of (block, cand) and of (block).  The whole ground set is a
    segment only at the top, and its choices are not stored.

    A block chosen at stack depth j is block j of every member below it, so
    its positions are written j in one list of block ids as it is chosen;
    each member's ids are then a copy of that list, with no pass over its
    blocks.
    """
    table = {}
    bid = [0] * n
    stack = [(_segment_choices(1, n, extend_ok, complete_ok), (), ())]
    while stack:
        choices, later, acc = stack[-1]
        j = len(acc)
        for block, gaps in choices:
            for x in block:
                bid[x - 1] = j
            segments = gaps + later
            if not segments:
                yield Partition._trusted(n, acc + (block,), tuple(bid))
                continue
            segment = segments[0]
            inner = table.get(segment)
            if inner is None:
                inner = table[segment] = list(_segment_choices(*segment, extend_ok, complete_ok))
            stack.append((iter(inner), segments[1:], acc + (block,)))
            break
        else:
            stack.pop()


def _segment_choices(lo: int, hi: int, extend_ok, complete_ok) -> Iterator[tuple]:
    """Every (block, gaps) for the segment lo..hi, in the recursion's order.

    The block holds lo; its gaps are the nonempty runs between its
    consecutive elements and after its last one, each as a (first, last)
    segment.  They go in front of the later segments, so the blocks come
    out sorted by minimum, in canonical form.
    """

    def grow(block: tuple, i0: int, gaps: tuple) -> Iterator[tuple]:
        if complete_ok(block):
            yield block, gaps + (((i0, hi),) if i0 <= hi else ())
        for cand in range(i0, hi + 1):
            if extend_ok(block, cand):
                yield from grow(block + (cand,), cand + 1,
                                gaps + (((i0, cand - 1),) if cand > i0 else ()))

    return grow((lo,), lo + 1, ())


def restrict(p: Partition, subset: Sequence[int]) -> Partition:
    """Restriction of p to a subset, relabelled to {1..|subset|} in order."""
    sub = sorted(set(subset))
    if not sub:
        raise ValueError("subset must be nonempty")
    if sub[0] < 1 or sub[-1] > p.n:
        raise ValueError("subset not contained in ground set")
    return Partition._from_labels(len(sub), [p._block_id[x - 1] for x in sub])


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of `fine` is contained in a block of `coarse`."""
    if fine.n != coarse.n:
        raise ValueError("ground-size mismatch: %d vs %d" % (fine.n, coarse.n))
    for b in fine.blocks:
        target = coarse._block_id[b[0] - 1]
        if any(coarse._block_id[x - 1] != target for x in b[1:]):
            return False
    return True


def collapse_pairs(p: Partition) -> Partition:
    """Identify 2k-1 and 2k of {1..2m} to get a partition of {1..m}.

    Two images k, l are related whenever any preimages are related in p,
    closed transitively (the union-find of _label_scan).
    """
    if p.n % 2 != 0:
        raise ValueError("ground size must be even, got %d" % p.n)
    parent = _label_scan(p._block_id)[2]
    return Partition._from_labels(p.n // 2, [_root(parent, b) for b in p._block_id[::2]])


def _label_scan(labels) -> tuple:
    """One pass over the block labels of positions 1..n, non-negative ints.

    Returns (valid, count, parent).  valid holds iff every block has an even
    number of positions and no two blocks cross.  count is the block count
    of collapse_pairs of the labelled partition, whatever valid says, and
    parent is the union-find forest behind it, a list indexed by label
    (a root is its own parent): the blocks of collapse_pairs are the classes
    of labels joined through the pairs 2j-1, 2j, so count is the number of
    labels minus the merges, and the block of pair j is
    _root(parent, label of 2j).  Labels need not be consecutive: the lists
    run up to the largest label, and a label that never appears is neither
    counted nor joined.

    Crossings are found with a stack of open blocks: a label seen again
    closes every block opened after its last appearance, and a closed label
    that comes back crosses the block that closed it.

    This is the package's full-list non-crossing scan, and every caller
    passes block ids or, for a symmetrization, block ids and their mirror
    copies (id plus block count).  is_noncrossing reads valid on a doubled
    label list; collapse_pairs reads parent; the membership tests of
    ncfree.families read valid; ncfree.symmetry reads valid and count
    (_checked_count, _collapsed_count) and, through is_noncrossing,
    _require_even_nc.  A cut's symmetrization is counted from the kept
    half instead (symmetry._half_count, the same stack scan over half the
    labels); _checked_count scans its mirror labels only to name it when
    it is invalid.
    """
    size = max(labels, default=-1) + 1
    seen = [0] * size  # label -> appearances so far, negated once its block is closed
    parent = list(range(size))
    stack = []
    crossing = False
    merges = 0
    first = None  # the label of the open pair's first position
    for label in labels:
        c = seen[label]
        if c > 0:
            seen[label] = c + 1
            while stack[-1] != label:
                top = stack.pop()
                seen[top] = -seen[top]
        elif c == 0:
            seen[label] = 1
            stack.append(label)
        else:
            crossing = True
        if first is None:
            first = label
        else:
            if first != label:
                a, b = _root(parent, first), _root(parent, label)
                if a != b:
                    parent[b] = a
                    merges += 1
            first = None
    valid = not crossing and not any(c & 1 for c in seen)
    return valid, size - seen.count(0) - merges, parent


def _root(parent: list, label: int) -> int:
    while parent[label] != label:
        label = parent[label]
    return label


def count_adjacent_pairs(p: Partition, cyclic: bool = True) -> int:
    """Number of k with k ~ k+1; cyclically (n ~ 1 counts) by default."""
    stop = p.n if cyclic else p.n - 1
    count = 0
    for k in range(1, stop + 1):
        if p.related(k, cyclic_index(k + 1, p.n)):
            count += 1
    return count
