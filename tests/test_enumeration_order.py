"""The non-crossing recursion against the nested-generator form it replaced:
the same members in the same order, and no state shared between calls."""

import csv
import io
from itertools import islice, zip_longest

import pytest

from conftest import reference_nc_constrained

from ncfree import families
from ncfree.cli import main
from ncfree.families import (
    enumerate_interval_pairings,
    enumerate_ncdm,
    enumerate_ncstar,
    enumerate_ncstar2,
)
from ncfree.partitions import Partition, _always, enumerate_nc
from ncfree.symmetry import GridShape

FAMILIES = (enumerate_ncstar, enumerate_ncstar2, enumerate_ncdm, enumerate_interval_pairings)
GRIDS = [(d, m) for d in range(1, 7) for m in range(1, 7) if 2 * d * m <= 12] + [(2, 5), (1, 7)]


def _blocks(stream):
    return [p.blocks for p in stream]


@pytest.mark.parametrize("n", range(1, 13))
def test_nc_order_matches_the_reference(n):
    assert _blocks(enumerate_nc(n)) == list(reference_nc_constrained(n, _always, _always))


def _reference(monkeypatch, enumerator, g):
    # the family's own predicates, handed to the reference recursion instead
    with monkeypatch.context() as patch:
        patch.setattr(families, "enumerate_nc_constrained", reference_nc_constrained)
        return list(enumerator(g))


@pytest.mark.parametrize("d,m", GRIDS)
@pytest.mark.parametrize("enumerator", FAMILIES, ids=lambda f: f.__name__)
def test_family_order_matches_the_reference(monkeypatch, enumerator, d, m):
    g = GridShape(d, m)
    assert _blocks(enumerator(g)) == _reference(monkeypatch, enumerator, g)


def _same_block_ids(members):
    # __eq__ compares blocks only, so a wrong _block_id shows only here
    count = 0
    for p in members:
        assert p._block_id == Partition(p.n, p.blocks)._block_id, p
        count += 1
    return count


@pytest.mark.parametrize("n", range(1, 11))
def test_nc_block_ids_match_the_validating_constructor(n):
    assert _same_block_ids(enumerate_nc(n)) > 0


@pytest.mark.parametrize("d,m", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("enumerator", FAMILIES, ids=lambda f: f.__name__)
def test_family_block_ids_match_the_validating_constructor(enumerator, d, m):
    assert _same_block_ids(enumerator(GridShape(d, m))) > 0


def test_enumerate_cli_prints_the_reference_order(capsys):
    assert main(["enumerate", "--family", "nc", "--n", "8"]) == 0
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["partition"])
    for blocks in reference_nc_constrained(8, _always, _always):
        writer.writerow(["|".join(",".join(map(str, b)) for b in blocks)])
    assert capsys.readouterr().out == expected.getvalue()


def test_interleaved_calls_keep_their_own_choices(monkeypatch):
    # same ground set, different predicates: choices shared between the
    # calls would hand one family the other's blocks
    g = GridShape(2, 3)
    star = _reference(monkeypatch, enumerate_ncstar, g)
    dm = _reference(monkeypatch, enumerate_ncdm, g)
    assert star != dm
    both = list(zip_longest(enumerate_ncstar(g), enumerate_ncdm(g)))
    assert [p.blocks for p, _ in both if p is not None] == star
    assert [q.blocks for _, q in both if q is not None] == dm
    assert _blocks(enumerate_ncstar(g)) == star and _blocks(enumerate_ncdm(g)) == dm
    nc = list(reference_nc_constrained(g.n, _always, _always))
    pairs = _reference(monkeypatch, enumerate_ncstar2, g)
    mixed = list(zip(enumerate_nc(g.n), enumerate_ncstar2(g)))
    assert [p.blocks for p, _ in mixed] == nc[:len(mixed)]
    assert [q.blocks for _, q in mixed] == pairs


def test_a_closed_enumeration_starts_again_from_the_top(monkeypatch):
    g = GridShape(2, 3)
    full = _reference(monkeypatch, enumerate_ncdm, g)
    stream = enumerate_ncdm(g)
    assert _blocks(islice(stream, 7)) == full[:7]
    stream.close()
    assert _blocks(stream) == []
    assert _blocks(enumerate_ncdm(g)) == full
