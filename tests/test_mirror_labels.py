"""The symmetry layer on block-label lists, checked against the canonical
construction it replaced (kept verbatim in conftest)."""

from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    all_set_partitions,
    reference_collapse_pairs,
    reference_collapsed_count,
    reference_symmetrize,
)

from ncfree import symmetry
from ncfree.families import enumerate_ncstar
from ncfree.partitions import (
    Partition,
    _label_scan,
    collapse_pairs,
    enumerate_nc,
    parse_partition,
    restrict,
)
from ncfree.symmetry import (
    GridShape,
    TerminalKind,
    _require_even_nc,
    absorption_probabilities,
    check_collapse_martingale,
    collapse_block_count,
    symmetrize,
    terminal_partitions,
)

STAR_GRIDS = [(1, m) for m in range(1, 7)] + [(2, 2), (2, 3), (3, 2)]


def _set_partitions_up_to(n_max):
    for n in range(1, n_max + 1):
        yield from all_set_partitions(n)


def _same_symmetrization(p, k):
    try:
        want = reference_symmetrize(p, k)
    except ValueError as err:
        with pytest.raises(ValueError) as info:
            symmetrize(p, k)
        assert str(info.value) == str(err)
        return
    got = symmetrize(p, k)
    assert got == want, (p, k)
    assert got.blocks == want.blocks, (p, k)
    assert got._block_id == want._block_id, (p, k)


def test_symmetrize_matches_reference_on_all_set_partitions():
    # crossing and odd-block partitions included; odd n raises on both sides
    for p in _set_partitions_up_to(8):
        for k in range(0, p.n + 2):
            _same_symmetrization(p, k)


@pytest.mark.parametrize("d,m", STAR_GRIDS)
def test_symmetrize_matches_reference_on_star_families(d, m):
    for p in enumerate_ncstar(GridShape(d, m)):
        for k in range(0, p.n + 2):
            _same_symmetrization(p, k)


def _is_even_nc(p):
    try:
        _require_even_nc(p)
    except ValueError:
        return False
    return True


def test_label_scan_matches_the_old_checks_and_count():
    for p in _set_partitions_up_to(8):
        valid, count, _ = _label_scan(p._block_id)
        assert valid == _is_even_nc(p), p
        if p.n % 2 == 0:
            assert count == symmetry._collapsed_count(p) == reference_collapsed_count(p), p
            assert collapse_pairs(p) == reference_collapse_pairs(p), p
            assert collapse_pairs(p)._block_id == reference_collapse_pairs(p)._block_id, p


def test_restrict_matches_the_validating_constructor():
    for p in _set_partitions_up_to(6):
        for size in range(1, p.n + 1):
            for sub in combinations(range(1, p.n + 1), size):
                rank = {x: i + 1 for i, x in enumerate(sub)}
                groups = {}
                for x in sub:
                    groups.setdefault(p.block_id(x), []).append(rank[x])
                want = Partition(size, list(groups.values()))
                got = restrict(p, sub)
                assert got == want and got._block_id == want._block_id, (p, sub)


@pytest.mark.parametrize("d,m", STAR_GRIDS)
def test_cut_counts_match_the_reference_symmetrization(d, m):
    for p in enumerate_ncstar(GridShape(d, m)):
        for k in range(0, p.n + 2):
            left, right = check_collapse_martingale(p, k)
            assert left == reference_collapse_pairs(reference_symmetrize(p, k)).num_blocks
            assert right == reference_collapse_pairs(
                reference_symmetrize(p, k + p.n // 2)).num_blocks


def _same_cut_count(p, k):
    valid, count, _ = _label_scan(symmetry._mirror_labels(p, k))
    assert symmetry._half_count(p, k) == (count if valid else None), (p, k)


def test_half_count_matches_the_full_scan_on_nc_partitions():
    # odd blocks included, so invalid symmetrizations come up
    for n in range(2, 11, 2):
        for p in enumerate_nc(n):
            for k in range(0, n + 2):
                _same_cut_count(p, k)


def test_half_count_matches_the_full_scan_on_all_set_partitions():
    # crossings included
    for n in range(2, 9, 2):
        for p in all_set_partitions(n):
            for k in range(0, n + 2):
                _same_cut_count(p, k)


@pytest.mark.parametrize("labels,message", [
    ([0, 1, 0, 1], "partition must be non-crossing: 1,3|2,4"),
    ([0, 0, 0, 1], "partition must have even blocks: 1,2,3|4")])
def test_an_invalid_symmetrization_fails_every_call_and_stores_nothing(
        monkeypatch, labels, message):
    # a valid p never has an invalid symmetrization: let the half-pass report one
    # and feed the full scan, which names it, bad labels
    monkeypatch.setattr(symmetry, "_half_count", lambda p, k: None)
    monkeypatch.setattr(symmetry, "_mirror_labels", lambda p, k: list(labels))
    with pytest.raises(ValueError) as info:
        collapse_block_count(Partition._from_labels(4, labels))
    assert str(info.value) == message
    p = parse_partition("1,2|3,4", 4)
    for _ in range(3):
        with pytest.raises(ValueError) as info:
            check_collapse_martingale(p, 1)
        assert str(info.value) == message
        assert 1 not in (p._cut_counts or {})
    assert collapse_block_count(p) == 2


def test_terminals_are_built_once_per_grid():
    g = GridShape(2, 3)
    first = terminal_partitions(g)
    assert terminal_partitions(g) == first
    first.clear()
    first[TerminalKind("level", 9)] = None
    again = terminal_partitions(g)
    assert len(again) == 2 * g.d + 1 and TerminalKind("level", 9) not in again
    assert again == terminal_partitions(GridShape(2, 3))
    assert all(again[kind] is part for kind, part in terminal_partitions(g).items())


def test_stored_terminals_leave_grid_equality_hash_and_repr_alone():
    g, fresh = GridShape(2, 3), GridShape(2, 3)
    terminal_partitions(g)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert repr(g) == "GridShape(d=2, m=3)"
    assert {fresh: "value"}[g] == "value" and len({g, fresh}) == 1
    assert g != GridShape(3, 2)


@pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (2, 3)])
def test_absorption_does_not_depend_on_stored_terminals(d, m):
    held = GridShape(d, m)
    terminal_partitions(held)
    for p in enumerate_ncstar(held):
        probs = absorption_probabilities(p, GridShape(d, m))
        assert absorption_probabilities(p, held) == probs
        assert sum(probs.values()) == Fraction(1)
