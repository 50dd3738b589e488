import pytest

from conftest import all_set_partitions, catalan_by_factorials, crossing_quadruple

from ncfree.partitions import (
    Partition,
    count_adjacent_pairs,
    discrete,
    enumerate_nc,
    format_partition,
    full,
    interval_pairing,
    is_noncrossing,
    is_refinement,
    parse_partition,
    collapse_pairs,
    restrict,
    shifted_pairing,
)

FIGURE_TEXT = "1,3,12|2,4,8,10|5,7|6|9,11"


def test_parse_figure_partition():
    p = parse_partition(FIGURE_TEXT, 12)
    assert p.blocks == ((1, 3, 12), (2, 4, 8, 10), (5, 7), (6,), (9, 11))
    assert format_partition(p) == FIGURE_TEXT


def test_parse_singletons_and_full_block():
    assert parse_partition("1|2|3|4", 4) == discrete(4)
    assert parse_partition("1,2,3,4", 4) == full(4)


def test_parse_accepts_unordered_input():
    assert parse_partition("3,1|4,2", 4) == parse_partition("1,3|2,4", 4)


@pytest.mark.parametrize("text,n", [
    ("1,1|2,3", 3),        # duplicate
    ("1,2|3,5", 4),        # out of range
    ("1,2", 3),            # missing element
    ("1,x|2", 2),          # not an integer
    ("|1,2", 2),           # empty block
])
def test_parse_errors(text, n):
    with pytest.raises(ValueError):
        parse_partition(text, n)


def test_roundtrip_on_all_nc6():
    for p in enumerate_nc(6):
        assert parse_partition(format_partition(p), 6) == p


def test_canonical_equality_and_hash():
    a = Partition(4, [(2, 4), (1, 3)])
    b = Partition(4, [(1, 3), (4, 2)])
    assert a == b and hash(a) == hash(b)


def test_noncrossing_examples():
    assert not is_noncrossing(parse_partition(FIGURE_TEXT, 12))
    assert is_noncrossing(full(7))
    assert not is_noncrossing(parse_partition("1,3|2,4", 4))


@pytest.mark.parametrize("n", range(1, 9))
def test_noncrossing_matches_quadruple_search(n):
    for p in all_set_partitions(n):
        assert is_noncrossing(p) == (crossing_quadruple(p) is None)


@pytest.mark.parametrize("n,count", [(1, 1), (4, 14), (6, 132)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_nc(n)) == count
    assert count == catalan_by_factorials(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_filtered_set_partitions(n):
    direct = set(enumerate_nc(n))
    filtered = {p for p in all_set_partitions(n) if crossing_quadruple(p) is None}
    assert direct == filtered


def test_enumeration_is_deterministic_and_duplicate_free():
    first = list(enumerate_nc(7))
    assert first == list(enumerate_nc(7))
    assert len(set(first)) == len(first)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_nc(15))
    with pytest.raises(ValueError):
        list(enumerate_nc(0))


def test_restrict_examples():
    assert restrict(full(9), [2, 5, 9]) == full(3)
    p = parse_partition("1,2|3,6|4,5", 6)
    assert restrict(p, [3, 4, 5, 6]) == parse_partition("1,4|2,3", 4)


def test_restrict_relation_preserved():
    p = parse_partition(FIGURE_TEXT, 12)
    sub = [2, 4, 6, 8, 10, 12]
    q = restrict(p, sub)
    for i, x in enumerate(sub, start=1):
        for j, y in enumerate(sub, start=1):
            assert q.related(i, j) == p.related(x, y)


def test_restrict_errors():
    with pytest.raises(ValueError):
        restrict(full(4), [3, 5])
    with pytest.raises(ValueError):
        restrict(full(4), [])


def test_restrict_preserves_noncrossing():
    import itertools
    for p in enumerate_nc(6):
        for size in (2, 3, 4):
            for sub in itertools.combinations(range(1, 7), size):
                assert is_noncrossing(restrict(p, sub))


def test_refinement_examples():
    for p in enumerate_nc(5):
        assert is_refinement(discrete(5), p)
        assert is_refinement(p, full(5))
    assert not is_refinement(parse_partition("1,2|3,4", 4), parse_partition("1,4|2,3", 4))


def test_refinement_mismatch():
    with pytest.raises(ValueError):
        is_refinement(full(4), full(6))


def test_collapse_pairs_examples():
    for m in (1, 2, 3, 4):
        assert collapse_pairs(interval_pairing(m)) == discrete(m)
        assert collapse_pairs(shifted_pairing(m)) == full(m)
        assert collapse_pairs(full(2 * m)) == full(m)
    assert collapse_pairs(parse_partition("1,2,3,4|5,6", 6)) == parse_partition("1,2|3", 3)


def test_collapse_pairs_requires_even_ground():
    with pytest.raises(ValueError):
        collapse_pairs(full(5))


def test_collapse_pairs_well_defined_on_all_partitions():
    for p in all_set_partitions(6):
        q = collapse_pairs(p)
        assert q.n == 3


def test_adjacent_pairs_examples():
    for n in (1, 2, 5):
        assert count_adjacent_pairs(full(n)) == n
    for n in (2, 5):
        assert count_adjacent_pairs(discrete(n)) == 0
    assert count_adjacent_pairs(interval_pairing(3)) == 3


def test_adjacent_pairs_noncyclic_flag():
    p = shifted_pairing(3)  # contains the wrap block {6,1}
    assert count_adjacent_pairs(p, cyclic=True) == 3
    assert count_adjacent_pairs(p, cyclic=False) == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_adjacent_pairs_cyclic_lower_bound(n):
    # at least n - 2(blocks - 1) adjacencies in any non-crossing partition;
    # only the cyclic count obeys this (see the nested-pairing witness below)
    for p in enumerate_nc(n):
        floor = n - 2 * (p.num_blocks - 1)
        assert count_adjacent_pairs(p, cyclic=True) >= floor


def test_adjacent_pairs_bound_needs_the_wrap_pair():
    # fully nested pairing: only 4~5 without the wrap, 4~5 and 8~1 with it
    p = parse_partition("1,8|2,7|3,6|4,5", 8)
    floor = 8 - 2 * (p.num_blocks - 1)
    assert count_adjacent_pairs(p, cyclic=True) == floor == 2
    assert count_adjacent_pairs(p, cyclic=False) == 1


def test_enumeration_cap_raises_when_called():
    with pytest.raises(ValueError, match="outside 1..14"):
        enumerate_nc(15)
