import math
from itertools import combinations

import pytest

from conftest import all_set_partitions, crossing_quadruple

from ncfree.partitions import (
    discrete,
    enumerate_nc,
    full,
    interval_pairing,
    parse_partition,
    collapse_pairs,
    restrict,
    shifted_pairing,
)
from ncfree.symmetry import GridShape, level_terminal
from ncfree.families import (
    ChainOfPartitions,
    catalan,
    chain_count_by_ranks,
    chain_fiber,
    chain_fibers,
    chebyshev_pair_count,
    enumerate_chains,
    enumerate_interval_pairings,
    enumerate_ncdm,
    enumerate_ncstar,
    enumerate_ncstar2,
    pair_split_fiber_size,
    fiber_size_chain,
    fuss_catalan,
    is_interval_avoiding,
    is_ncstar,
    is_ncstar_by_labels,
    is_pairing,
    pair_split,
    map_chain,
    pair_split_fiber,
    rank_vectors,
)


def test_ncstar_membership_examples():
    g = GridShape(1, 2)
    assert is_ncstar(parse_partition("1,2|3,4", 4), g)
    assert is_ncstar(parse_partition("1,4|2,3", 4), g)
    assert is_ncstar(full(4), g)
    assert not is_ncstar(parse_partition("1,3|2,4", 4), g)  # crossing
    assert not is_ncstar(discrete(4), g)  # odd blocks


def test_ncstar_terminals_are_members():
    for d, m in [(2, 2), (3, 3)]:
        g = GridShape(d, m)
        for l in range(d + 1):
            assert is_ncstar(level_terminal(g, l), g)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2)])
def test_label_characterization_equivalence(d, m):
    # full sweep over all non-crossing partitions of the ground set
    g = GridShape(d, m)
    for p in enumerate_nc(g.n):
        assert is_ncstar(p, g) == is_ncstar_by_labels(p, g)


@pytest.mark.parametrize("d,m", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_star_enumeration_matches_membership_filter(d, m):
    g = GridShape(d, m)
    direct = set(enumerate_ncstar(g))
    filtered = {p for p in enumerate_nc(g.n) if is_ncstar(p, g)}
    assert direct == filtered
    pairings = set(enumerate_ncstar2(g))
    assert pairings == {p for p in direct if is_pairing(p)}


@pytest.mark.parametrize("d,m", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_interval_enumeration_matches_membership_filter(d, m):
    g = GridShape(d, m)
    direct = set(enumerate_ncdm(g))
    filtered = {p for p in enumerate_nc(g.n) if is_interval_avoiding(p, g)}
    assert direct == filtered
    pairings = set(enumerate_interval_pairings(g))
    assert pairings == {p for p in direct if is_pairing(p)}


def test_star_family_is_interval_avoiding():
    for d, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        g = GridShape(d, m)
        members = set(enumerate_ncdm(g))
        for p in enumerate_ncstar(g):
            assert p in members


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (2, 2), (3, 2)])
def test_interval_characterization_by_neighbours(d, m):
    # an even-block non-crossing partition avoids every interval iff the
    # only adjacent pairs it links sit at interval boundaries
    g = GridShape(d, m)
    for p in enumerate_nc(g.n):
        if any(len(b) % 2 for b in p.blocks):
            continue
        boundary_only = all(
            i % d == 0
            for i in range(1, g.n)
            if p.related(i, i + 1)
        )
        assert is_interval_avoiding(p, g) == boundary_only


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_pairing_counts(d, m):
    g = GridShape(d, m)
    assert sum(1 for _ in enumerate_ncstar2(g)) == fuss_catalan(d, m)
    assert sum(1 for _ in enumerate_interval_pairings(g)) == chebyshev_pair_count(d, m)


def test_fuss_catalan_values():
    assert fuss_catalan(2, 2) == 3
    assert fuss_catalan(1, 3) == catalan(3) == 5
    assert fuss_catalan(3, 3) == 22


def test_star_family_size_bound():
    for d, m in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        count = sum(1 for _ in enumerate_ncstar(GridShape(d, m)))
        assert count <= (16 * math.e * (d + 1)) ** m


def test_block_size_cap_and_observed_maximum():
    for d, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        g = GridShape(d, m)
        observed = max(
            max(len(b) for b in p.blocks) for p in enumerate_ncstar(g))
        assert observed <= 2 * m
        assert observed == 2 * m  # the fully connected label class realizes it


def test_chain_map_of_terminals():
    g = GridShape(3, 3)
    for l in range(4):
        chain = map_chain(level_terminal(g, l), g).chain
        assert chain == tuple(full(3) if i < l else discrete(3) for i in range(3))


@pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_chain_map_well_defined(d, m):
    g = GridShape(d, m)
    for p in enumerate_ncstar(g):
        chain = map_chain(p, g)  # constructor validates the refinement order
        for i in range(1, d + 1):
            assert chain.chain[i - 1] == collapse_pairs(restrict(p, g.label_class(i)))


def test_chain_map_rejects_non_members():
    g = GridShape(2, 2)
    with pytest.raises(ValueError):
        map_chain(discrete(8), g)


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainOfPartitions(3, (discrete(3), full(3)))  # coarsens, must refine


def test_chain_bijection_with_pairings():
    for d, m in [(2, 2), (2, 3), (3, 3)]:
        g = GridShape(d, m)
        images = [map_chain(s, g) for s in enumerate_ncstar2(g)]
        assert len(set(images)) == len(images) == fuss_catalan(d, m)
        # and the pairing images exhaust the chain images of the whole family
        assert set(images) == set(chain_fibers(g))


def test_pair_split_examples():
    assert pair_split(full(4)) == parse_partition("1,2|3,4", 4)
    for s in enumerate_ncstar2(GridShape(2, 2)):
        assert pair_split(s) == s
    with pytest.raises(ValueError):
        pair_split(full(3))


def test_pair_split_finer_and_noncrossing():
    from ncfree.partitions import is_noncrossing, is_refinement
    for n in (4, 6, 8):
        for p in enumerate_nc(n):
            if any(len(b) % 2 for b in p.blocks):
                continue
            q = pair_split(p)
            assert is_pairing(q)
            assert is_refinement(q, p)
            assert is_noncrossing(q)


def test_chain_fiber_examples():
    g = GridShape(1, 1)
    assert chain_fiber(full(2), g) == [full(2)]
    assert fiber_size_chain(full(2), g) == 1
    with pytest.raises(ValueError):
        chain_fiber(full(4), GridShape(1, 2))  # not a pairing


@pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_chain_fiber_bounds(d, m):
    g = GridShape(d, m)
    fibers = chain_fibers(g)
    pair_chains = {map_chain(s, g) for s in enumerate_ncstar2(g)}
    assert set(fibers) == pair_chains
    for s in enumerate_ncstar2(g):
        members = fibers[map_chain(s, g)]
        assert 1 <= len(members) <= 4 ** (2 * m)
        from ncfree.partitions import is_refinement
        for p in members:
            assert is_refinement(s, p)  # the pairing refines every fiber member
            assert sum(1 for b in p.blocks if len(b) == 2) >= d * m - 2 * m
            assert max(len(b) for b in p.blocks) <= 2 * m


def test_q_fiber_two_intervals():
    # with two intervals the only even-block partitions are built over a
    # unique pairing, and each pairing pulls back to exactly one partition
    for half in (1, 2, 3):
        n = 2 * half
        sizes = [half, half]
        pairing = parse_partition(
            "|".join("%d,%d" % (i, n + 1 - i) for i in range(1, half + 1)), n)
        assert pair_split_fiber_size(pairing, sizes) == 1


def test_q_fiber_bound_exhaustive():
    # all interval splits of [2N] into k parts, 2N <= 8, k <= 4
    from ncfree.families import _enumerate_interval_avoiding, _interval_vector
    for n in (4, 6, 8):
        for k in (2, 3, 4):
            for cuts in combinations(range(1, n), k - 1):
                bounds = (0,) + cuts + (n,)
                sizes = [bounds[i + 1] - bounds[i] for i in range(k)]
                iv = _interval_vector(sizes)
                members = list(_enumerate_interval_avoiding(n, iv, pairs_only=False))
                pairings = [p for p in members if is_pairing(p)]
                images = {}
                for p in members:
                    images.setdefault(pair_split(p), []).append(p)
                assert set(images) == set(pairings)
                for s, fiber in images.items():
                    assert len(fiber) <= 4 ** (k - 2)
                    assert len(fiber) == pair_split_fiber_size(s, sizes)
                    for p in fiber:
                        loose = sum(len(b) for b in p.blocks if len(b) != 2)
                        assert loose <= max(2 * k - 4, 0)


def test_interval_family_cardinality_bound():
    for d, m in [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]:
        count = sum(1 for _ in enumerate_ncdm(GridShape(d, m)))
        assert count <= (4 * d + 4) ** (2 * m)


def test_interval_family_pair_block_floor():
    for d, m in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for p in enumerate_ncdm(GridShape(d, m)):
            assert sum(1 for b in p.blocks if len(b) == 2) >= (d - 2) * m


def test_chain_count_examples():
    assert chain_count_by_ranks(1, (0,)) == 1
    for d in (1, 2, 3, 4):
        total = sum(chain_count_by_ranks(2, s) for s in rank_vectors(2, d))
        assert total == d + 1
    with pytest.raises(ValueError):
        chain_count_by_ranks(3, (1, 5))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_chain_count_sums(d, m):
    total = sum(chain_count_by_ranks(m, s) for s in rank_vectors(m, d))
    assert total == fuss_catalan(d, m)
    if m <= 3 or d <= 2:
        assert total == sum(1 for _ in enumerate_chains(m, d))


def test_chain_counts_match_rank_histogram():
    # count chains by their rank vector directly and compare
    for d, m in [(2, 3), (3, 3), (2, 4)]:
        hist = {}
        for chain in enumerate_chains(m, d):
            rv = chain.rank_vector()
            hist[rv] = hist.get(rv, 0) + 1
        for rv, count in hist.items():
            assert count == chain_count_by_ranks(m, rv)


def test_chebyshev_examples():
    assert chebyshev_pair_count(1, 2) == 2
    assert chebyshev_pair_count(2, 1) == 1
    assert chebyshev_pair_count(3, 3) == 34
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            assert chebyshev_pair_count(d, m) <= (d + 1) ** (2 * m)


def test_q_image_is_the_interval_pairing_family():
    for d, m in [(2, 2), (3, 2), (2, 3)]:
        g = GridShape(d, m)
        image = {pair_split(p) for p in enumerate_ncdm(g)}
        assert image == set(enumerate_interval_pairings(g))


def test_q_fiber_input_validation():
    with pytest.raises(ValueError):
        pair_split_fiber(parse_partition("1,2|3,4", 4), [2, 2])  # intra-interval pair
    with pytest.raises(ValueError):
        pair_split_fiber(parse_partition("1,3|2,4", 4), [1, 1, 1, 1])  # crossing


def test_interval_avoiding_matches_filter_for_every_split():
    # uneven and odd interval sizes included, so the odd-step prune is
    # checked against plain membership wherever it can cut a branch
    from ncfree.families import _enumerate_interval_avoiding, _interval_vector
    for n in range(1, 9):
        nc = list(enumerate_nc(n))
        for k in range(1, 5):
            for cuts in combinations(range(1, n), k - 1):
                bounds = (0,) + cuts + (n,)
                iv = _interval_vector([bounds[i + 1] - bounds[i] for i in range(k)])
                filtered = {
                    p for p in nc
                    if all(len(b) % 2 == 0 and len({iv[x - 1] for x in b}) == len(b)
                           for b in p.blocks)
                }
                members = list(_enumerate_interval_avoiding(n, iv, pairs_only=False))
                assert len(members) == len(set(members))
                assert set(members) == filtered, (n, iv)
                pairings = list(_enumerate_interval_avoiding(n, iv, pairs_only=True))
                assert len(pairings) == len(set(pairings))
                assert set(pairings) == {p for p in filtered if is_pairing(p)}, (n, iv)


@pytest.mark.parametrize("enumerator,d,m", [
    (enumerate_ncstar, 5, 3),
    (enumerate_ncstar2, 3, 5),
    (enumerate_ncdm, 7, 2),
    (enumerate_interval_pairings, 2, 6),
])
def test_family_caps_raise_when_called(enumerator, d, m):
    with pytest.raises(ValueError, match="exceeds cap"):
        enumerator(GridShape(d, m))


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)])
def test_membership_matches_brute_definitions_on_every_set_partition(d, m):
    # crossing and odd-block inputs included, against the definitions:
    # even blocks, no crossing quadruple, and each family's block condition
    g = GridShape(d, m)

    def interval(x):
        return (x - 1) // d

    conditions = {
        is_ncstar: lambda b: all((interval(x) + interval(y)) % 2 == 1
                                 for x, y in zip(b, b[1:])),
        is_ncstar_by_labels: lambda b: any(set(b) <= set(g.label_class(i))
                                           for i in range(1, d + 1)),
        is_interval_avoiding: lambda b: all(interval(x) != interval(y)
                                            for x, y in combinations(b, 2)),
    }
    for p in all_set_partitions(g.n):
        even_nc = all(len(b) % 2 == 0 for b in p.blocks) and crossing_quadruple(p) is None
        for member, block_ok in conditions.items():
            expected = even_nc and all(block_ok(b) for b in p.blocks)
            assert member(p, g) is expected, (member.__name__, str(p))
