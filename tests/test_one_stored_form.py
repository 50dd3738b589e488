"""A partition stores one canonical form, its block ids: every constructor
and every map reaches the same partition as the validating constructor on
independently computed blocks, builds no block tuple until blocks is read,
and derives the reference blocks when it is."""

from itertools import islice

import pytest

from conftest import (
    reference_collapse_pairs,
    reference_nc_constrained,
    reference_symmetrize,
)

from ncfree import families, symmetry
from ncfree.families import (
    enumerate_interval_pairings,
    enumerate_ncdm,
    enumerate_ncstar,
    enumerate_ncstar2,
)
from ncfree.partitions import (
    Partition,
    _always,
    collapse_pairs,
    discrete,
    enumerate_nc,
    format_partition,
    full,
    interval_pairing,
    parse_partition,
    restrict,
    shifted_pairing,
)
from ncfree.symmetry import (
    GridShape,
    absorption_probabilities,
    apply_symmetry,
    symmetrize,
)


def blocks_of(labels):
    """The canonical blocks of the partition of positions 1..n by their
    labels: positions grouped by label, blocks sorted by minimum."""
    groups = {}
    for x, label in enumerate(labels, start=1):
        groups.setdefault(label, []).append(x)
    return tuple(sorted(tuple(g) for g in groups.values()))


def label_of(blocks):
    """{position: index of its block} for a list of blocks."""
    return {x: j for j, b in enumerate(blocks) for x in b}


def check(p, blocks):
    """p, freshly built, holds no block tuple and is the partition with
    these canonical blocks."""
    assert p._blocks is None, p
    q = Partition(p.n, [list(reversed(b)) for b in reversed(blocks)])
    assert p == q and q == p and hash(p) == hash(q)
    assert p.num_blocks == len(blocks) and p._blocks is None
    assert p.blocks == blocks and p.blocks is p.blocks
    assert p._block_id == q._block_id


# ---------------------------------------------------------------------------
# constructors


def growth_strings(n):
    """Every restricted growth string of length n: the block labels of
    every set partition of {1..n}, numbered by first appearance."""
    if n == 0:
        yield []
        return
    for head in growth_strings(n - 1):
        for label in range(max(head, default=-1) + 2):
            yield head + [label]


@pytest.mark.parametrize("n", range(1, 7))
def test_the_validating_constructor_on_every_set_partition(n):
    for labels in growth_strings(n):
        blocks = blocks_of(labels)
        assert Partition(n, blocks)._block_id == tuple(labels)
        check(Partition(n, [sorted(b, reverse=True) for b in reversed(blocks)]), blocks)
        check(Partition._trusted(n, blocks), blocks)
        check(parse_partition(format_partition(Partition(n, blocks)), n), blocks)


@pytest.mark.parametrize("labels", [
    [0, 1, 0, 2, 2],
    ["b", "a", "b", "c", "a", "c"],
    [-3, -3, 7, -1, 7, -3],
    [5, 2, 9, 2, 5, 0, 0],
    [(1, 2), (0, 1), (1, 2), (0, 1)],
    [4],
])
def test_from_labels_numbers_any_labels_by_first_appearance(labels):
    p = Partition._from_labels(len(labels), labels)
    check(p, blocks_of(labels))
    assert p._block_id[0] == 0
    assert all(j <= max(p._block_id[:x], default=-1) + 1 for x, j in enumerate(p._block_id))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_the_named_partitions(n):
    check(discrete(n), tuple((x,) for x in range(1, n + 1)))
    check(full(n), (tuple(range(1, n + 1)),))
    check(interval_pairing(n), tuple((2 * j - 1, 2 * j) for j in range(1, n + 1)))
    shifted = ((1, 2 * n),) + tuple((2 * j, 2 * j + 1) for j in range(1, n))
    check(shifted_pairing(n), tuple(sorted(shifted)))


def test_equality_and_hashing_compare_the_ids():
    assert discrete(3) != discrete(4) and full(1) == discrete(1)
    assert full(2) == interval_pairing(1) == shifted_pairing(1)
    assert discrete(2) != "1|2"
    assert len({discrete(3), Partition(3, [[3], [1], [2]])}) == 1


# ---------------------------------------------------------------------------
# maps


def nc_even(n):
    return [p for p in enumerate_nc(n) if all(len(b) % 2 == 0 for b in p.blocks)]


def reference_mirror(p, k):
    """Block labels of symmetrize(p, k) by its definition: a position of the
    half ending at k keeps its block, its mirror image takes the same block
    when that block also meets the other half, a copy of it otherwise."""
    n, half, label = p.n, p.n // 2, label_of(p.blocks)

    def inside(x):
        return (k - x) % n < half

    meets_other = {label[x] for x in range(1, n + 1) if not inside(x)}
    out = []
    for x in range(1, n + 1):
        if inside(x):
            out.append(label[x])
        else:
            j = label[(2 * k - x) % n + 1]
            out.append(j if j in meets_other else ("copy", j))
    return out


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_symmetrize_and_apply_symmetry(n):
    for p in nc_even(n):
        label = label_of(p.blocks)
        for k in range(1, n + 1):
            got = symmetrize(p, k)
            check(got, blocks_of(reference_mirror(p, k)))
            assert got == reference_symmetrize(p, k)
            mirrored = apply_symmetry(p, k)
            check(mirrored, blocks_of([label[(2 * k - x) % n + 1] for x in range(1, n + 1)]))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_collapse_pairs(n):
    for p in nc_even(n):
        # pairs 2j-1, 2j joined to a fixed point through the blocks they meet
        label = label_of(p.blocks)
        pair_of = list(range(n // 2))
        changed = True
        while changed:
            changed = False
            for j in range(n // 2):
                for l in range(n // 2):
                    if pair_of[j] != pair_of[l] and {label[2 * j + 1], label[2 * j + 2]} & {
                            label[2 * l + 1], label[2 * l + 2]}:
                        pair_of[j] = pair_of[l] = min(pair_of[j], pair_of[l])
                        changed = True
        got = collapse_pairs(p)
        check(got, blocks_of(pair_of))
        assert got == reference_collapse_pairs(p)


@pytest.mark.parametrize("n", [3, 6, 7])
def test_restrict(n):
    subsets = [range(1, n + 1, 2), range(2, n + 1), [n, 1], [2]]
    for p in islice(enumerate_nc(n), 0, None, 3):
        label = label_of(p.blocks)
        for subset in subsets:
            check(restrict(p, subset), blocks_of([label[x] for x in sorted(set(subset))]))


ENUMERATORS = (enumerate_ncstar, enumerate_ncstar2, enumerate_ncdm, enumerate_interval_pairings)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_nc(n):
    members = list(enumerate_nc(n))
    assert len(members) == len(set(members))
    for p, blocks in zip(members, reference_nc_constrained(n, _always, _always), strict=True):
        check(p, blocks)


@pytest.mark.parametrize("enumerator", ENUMERATORS)
@pytest.mark.parametrize("d,m", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3)])
def test_family_enumerators(monkeypatch, enumerator, d, m):
    g = GridShape(d, m)
    members = list(enumerator(g))
    with monkeypatch.context() as patch:
        # the family's own predicates, handed to the reference recursion
        patch.setattr(families, "enumerate_nc_constrained", reference_nc_constrained)
        reference = list(enumerator(g))
    assert members
    for p, blocks in zip(members, reference, strict=True):
        check(p, blocks)


# ---------------------------------------------------------------------------
# what reads no blocks builds none


def test_enumeration_stores_no_block_tuple():
    members = list(enumerate_nc(10))
    assert len(members) == 16796 and all(p._blocks is None for p in members)


def test_a_sweep_that_reads_no_blocks_builds_none(monkeypatch):
    monkeypatch.setattr(Partition, "_build_blocks",
                        lambda self: pytest.fail("blocks built for %r" % (self._block_id,)))
    assert sum(1 for _ in enumerate_nc(8)) == 1430
    g = GridShape(2, 3)
    solved = [absorption_probabilities(p, g) for p in enumerate_ncstar(g)]
    assert len(solved) > 1 and all(sum(probs.values()) == 1 for probs in solved)


# ---------------------------------------------------------------------------
# absorption: states ordered by their ids, the same Fractions


def _ordered_by_text(system):
    """_absorption_system with its states, and the columns of its rows,
    put in the order of format_partition."""
    def ordered(*args, **kwargs):
        states, rows = system(*args, **kwargs)
        order = sorted(range(len(states)), key=lambda i: format_partition(states[i]))
        column = {old: new for new, old in enumerate(order)}
        return ([states[i] for i in order],
                [{column.get(j, j): v for j, v in rows[i].items()} for i in order])
    return ordered


@pytest.mark.parametrize("d,m", [(2, 3), (3, 3), (2, 4)])
def test_absorption_with_states_by_ids_matches_states_by_text(monkeypatch, d, m):
    system = symmetry._absorption_system
    orders = []

    def spied(*args, **kwargs):
        states, rows = system(*args, **kwargs)
        orders.append(states == sorted(states, key=lambda s: s._block_id))
        return states, rows

    monkeypatch.setattr(symmetry, "_absorption_system", spied)
    g = GridShape(d, m)
    by_ids = {p: absorption_probabilities(p, g) for p in enumerate_ncstar(g)}
    assert orders and all(orders)
    monkeypatch.setattr(symmetry, "_absorption_system", _ordered_by_text(system))
    g = GridShape(d, m)
    by_text = {p: absorption_probabilities(p, g) for p in enumerate_ncstar(g)}
    assert by_ids == by_text
