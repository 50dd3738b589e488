import re
from fractions import Fraction
from itertools import islice

import pytest

from conftest import all_set_partitions, symmetrization_by_clauses

from ncfree.partitions import (
    Partition,
    discrete,
    enumerate_nc,
    full,
    interval_pairing,
    is_noncrossing,
    parse_partition,
    collapse_pairs,
    restrict,
    shifted_pairing,
)
from ncfree import symmetry
from ncfree.symmetry import (
    GridShape,
    TerminalKind,
    absorption_probabilities,
    symmetrize,
    apply_symmetry,
    collapse_block_count,
    collapse_count_profile,
    check_collapse_martingale,
    half_interval,
    level_exponents,
    level_terminal,
    glued_level_terminal,
    symmetrize_terminal,
    terminal_partitions,
)
from ncfree.families import enumerate_ncdm, enumerate_ncstar, is_ncstar

FIG1 = parse_partition("1,3,12|2,4,8,10|5,7|6|9,11", 12)
# mirror symmetrization of the figure partition around the cut after 1,
# derived clause by clause (and re-derived by the oracle below)
FIG1_SYM = parse_partition("1,2,3,12|4,6|5,7,8,10|9,11", 12)


def test_grid_labels():
    g = GridShape(3, 2)
    assert [g.label_of(q) for q in range(1, 13)] == [1, 2, 3, 3, 2, 1, 1, 2, 3, 3, 2, 1]
    assert g.label_class(1) == (1, 6, 7, 12)
    assert g.interval(2) == (4, 5, 6)
    for i in range(1, 4):
        assert len(g.label_class(i)) == 4


def test_symmetry_is_involution():
    for p in enumerate_nc(6):
        for k in range(1, 7):
            assert apply_symmetry(apply_symmetry(p, k), k) == p


def test_symmetry_fixes_crossing_example():
    assert apply_symmetry(parse_partition("1,3|2,4", 4), 1) == parse_partition("1,3|2,4", 4)


def test_symmetry_exchanges_half_intervals():
    for half in range(1, 7):
        n = 2 * half
        for k in range(1, n + 1):
            inside = half_interval(k, n)
            mirrored = {((2 * k - i) % n) + 1 for i in inside}
            assert mirrored == set(range(1, n + 1)) - inside


def test_symmetrization_matches_clause_construction():
    for n in (4, 6):
        for p in all_set_partitions(n):
            for k in range(1, n + 1):
                assert symmetrize(p, k) == symmetrization_by_clauses(p, k)


def test_symmetrization_of_figure_partition():
    assert symmetrize(FIG1, 1) == FIG1_SYM


def test_symmetrization_small_cases():
    p = parse_partition("1,2,3,4|5,6", 6)
    assert symmetrize(p, 1) == interval_pairing(3)
    assert symmetrize(p, 4) == full(6)


def test_symmetrization_fixed_points():
    for m in (1, 2, 3, 4):
        for p in (interval_pairing(m), shifted_pairing(m), full(2 * m)):
            for k in range(1, 2 * m + 1):
                assert symmetrize(p, k) == p


def test_symmetrization_idempotent_and_mirror_invariant():
    for p in all_set_partitions(6):
        for k in range(1, 7):
            q = symmetrize(p, k)
            assert symmetrize(q, k) == q
            assert apply_symmetry(q, k) == q


def test_symmetrization_preserves_noncrossing():
    for p in enumerate_nc(8):
        for k in range(1, 9):
            assert is_noncrossing(symmetrize(p, k))


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_family_closure_under_symmetrization(d, m):
    g = GridShape(d, m)
    star = set(enumerate_ncstar(g))
    for p in star:
        for k in range(1, 2 * m + 1):
            assert symmetrize(p, k * d) in star
    interval = set(enumerate_ncdm(g))
    for p in interval:
        for k in range(1, 2 * m + 1):
            assert symmetrize(p, k * d) in interval


@pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_restriction_commutes_with_symmetrization(d, m):
    g = GridShape(d, m)
    for p in enumerate_ncstar(g):
        for k in range(1, 2 * m + 1):
            outer = symmetrize(p, k * d)
            for i in range(1, d + 1):
                lhs = restrict(outer, g.label_class(i))
                rhs = symmetrize(restrict(p, g.label_class(i)), k)
                assert lhs == rhs


def test_terminal_partitions_examples():
    g = GridShape(1, 2)
    assert level_terminal(g, 0) == parse_partition("1,2|3,4", 4)
    assert level_terminal(g, 1) == parse_partition("1,4|2,3", 4)
    assert glued_level_terminal(g, 1) == full(4)


@pytest.mark.parametrize("d,m", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_terminal_restrictions(d, m):
    g = GridShape(d, m)
    for l in range(d + 1):
        t = level_terminal(g, l)
        assert is_ncstar(t, g)
        for i in range(1, d + 1):
            expected = shifted_pairing(m) if i <= l else interval_pairing(m)
            assert restrict(t, g.label_class(i)) == expected
    for l in range(1, d + 1):
        t = glued_level_terminal(g, l)
        assert is_ncstar(t, g)
        for i in range(1, d + 1):
            if i < l:
                expected = shifted_pairing(m)
            elif i == l:
                expected = full(2 * m)
            else:
                expected = interval_pairing(m)
            assert restrict(t, g.label_class(i)) == expected


def test_sigma_index_ranges():
    g = GridShape(2, 2)
    with pytest.raises(ValueError):
        level_terminal(g, 3)
    with pytest.raises(ValueError):
        glued_level_terminal(g, 0)


def test_cascade_four_cases_for_arbitrary_partitions():
    # the case split on the block of 1 against the first half-interval
    # predicts the cascade outcome for any partition when d = 1
    for m in (1, 2, 3):
        g = GridShape(1, m)
        for p in all_set_partitions(2 * m):
            block = set(p.block_containing(1))
            a = {x for x in block if x <= m} - {1}
            b = {x for x in block if x > m}
            kind, term = symmetrize_terminal(p, g)
            if not a and not b:
                assert term == discrete(2 * m)
            elif not a:
                assert term == shifted_pairing(m)
            elif not b:
                assert term == interval_pairing(m)
            else:
                assert term == full(2 * m)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_cascade_lands_in_terminals(d, m):
    g = GridShape(d, m)
    terminals = set(terminal_partitions(g).values())
    for p in enumerate_ncstar(g):
        kind, term = symmetrize_terminal(p, g)
        assert term in terminals
    for p in enumerate_ncdm(g):
        kind, term = symmetrize_terminal(p, g)
        assert term in terminals


def test_cascade_without_a_terminal_raises_naming_the_partition():
    # at d = 2 the all-singleton partition is fixed by every cut but is no terminal
    with pytest.raises(ValueError, match=re.escape("1|2|3|4|5|6|7|8")):
        symmetrize_terminal(discrete(8), GridShape(2, 2))


def test_terminals_are_fixed_points_of_all_cuts():
    for d, m in [(1, 3), (2, 2), (3, 3)]:
        g = GridShape(d, m)
        for t in terminal_partitions(g).values():
            for i in range(1, 2 * m + 1):
                assert symmetrize(t, i * d) == t


def test_sigma_terminal_maps_to_itself():
    g = GridShape(2, 3)
    for l in range(3):
        kind, term = symmetrize_terminal(level_terminal(g, l), g)
        assert kind == TerminalKind("level", l) and term == level_terminal(g, l)
    for l in range(1, 3):
        kind, term = symmetrize_terminal(glued_level_terminal(g, l), g)
        assert kind == TerminalKind("glued", l)


def test_collapse_block_count_examples():
    for m in (2, 3, 4, 5):
        assert collapse_block_count(interval_pairing(m)) == m
        assert collapse_block_count(shifted_pairing(m)) == 1
        assert collapse_block_count(full(2 * m)) == 1
    assert collapse_block_count(parse_partition("1,2,3,4|5,6", 6)) == 2


def test_collapse_block_count_rejects_bad_input():
    with pytest.raises(ValueError):
        collapse_block_count(full(3))
    with pytest.raises(ValueError):
        collapse_block_count(parse_partition("1,3|2,4", 4))  # crossing
    with pytest.raises(ValueError):
        collapse_block_count(parse_partition("1|2,3,4", 4))  # odd blocks


def test_martingale_example():
    p = parse_partition("1,2,3,4|5,6", 6)
    assert check_collapse_martingale(p, 1) == (3, 1)
    assert collapse_block_count(p) == 2
    for k in range(1, 7):
        assert check_collapse_martingale(interval_pairing(3), k) == (3, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_martingale_exhaustive(m):
    g = GridShape(1, m)
    for p in enumerate_ncstar(g):
        target = 2 * collapse_block_count(p)
        for k in range(1, 2 * m + 1):
            left, right = check_collapse_martingale(p, k)
            assert left + right == target


def test_consecutive_collapse_identity():
    # inside each collapsed block {k_1<...<k_p}, position 2k_i pairs with
    # 2k_{i+1}-1 in the original partition, cyclically
    for m in (2, 3, 4, 5):
        for p in enumerate_ncstar(GridShape(1, m)):
            collapsed = collapse_pairs(p)
            for block in collapsed.blocks:
                for i, k in enumerate(block):
                    nxt = block[(i + 1) % len(block)]
                    assert p.related(2 * k, 2 * nxt - 1)


def test_level_exponents_at_terminals():
    g = GridShape(3, 3)
    for l in range(4):
        mus = level_exponents(level_terminal(g, l), g)
        assert mus[l] == 1
        assert all(mu == 0 for i, mu in enumerate(mus) if i != l)


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_level_exponents_sum_and_sign(d, m):
    g = GridShape(d, m)
    for p in enumerate_ncstar(g):
        mus = level_exponents(p, g)
        assert sum(mus) == 1
        assert all(mu >= 0 for mu in mus)
        prof = collapse_count_profile(p, g)
        assert all(prof[i] <= prof[i + 1] for i in range(len(prof) - 1))


def test_level_exponents_reject_m1():
    g = GridShape(2, 1)
    with pytest.raises(ValueError):
        level_exponents(level_terminal(g, 0), g)


def test_absorption_at_terminal():
    g = GridShape(2, 2)
    probs = absorption_probabilities(level_terminal(g, 1), g)
    assert probs[TerminalKind("level", 1)] == 1
    assert sum(probs.values()) == 1


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_absorption_identity_exact(d, m):
    g = GridShape(d, m)
    for p in enumerate_ncstar(g):
        probs = absorption_probabilities(p, g)
        assert sum(probs.values()) == 1
        prof = collapse_count_profile(p, g)
        for l in range(d + 1):
            lam = probs[TerminalKind("level", l)]
            lam += probs.get(TerminalKind("glued", l), Fraction(0))
            assert lam * (m - 1) == prof[l + 1] - prof[l]


def test_absorption_state_cap_is_read_when_called(monkeypatch):
    g = GridShape(1, 3)
    p = parse_partition("1,2,3,4|5,6", 6)
    monkeypatch.setattr(symmetry, "ABSORPTION_STATE_CAP", 0)
    with pytest.raises(ValueError, match="exceeds cap 0"):
        absorption_probabilities(p, g)


def test_absorption_probabilities_are_rational():
    g = GridShape(1, 3)
    p = parse_partition("1,2,3,4|5,6", 6)
    probs = absorption_probabilities(p, g)
    assert all(isinstance(v, Fraction) for v in probs.values())
    # B profile forces (lambda_0 + lt_0, lambda_1 + lt_1) = (1/2, 1/2)
    assert probs[TerminalKind("level", 0)] == Fraction(1, 2)


def _bareiss_solve(rows, nvars, nrhs):
    """Reference solver: fraction-free (Bareiss) Gauss-Jordan over Python
    ints on the dense rows of [A | B]; returns A^{-1} B row-wise.

    Every row but the pivot row becomes (pivot * row - row[col] * pivot row)
    divided by the previous pivot, a division that is exact; at the end A
    is the last pivot times the identity."""
    previous = 1
    for col in range(nvars):
        pivot = next(r for r in range(col, nvars) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = rows[col]
        a = prow[col]
        for r in range(nvars):
            if r != col:
                b = rows[r][col]
                rows[r] = [(a * v - b * w) // previous for v, w in zip(rows[r], prow)]
        previous = a
    return [[Fraction(v, row[i]) for v in row[nvars:]] for i, row in enumerate(rows)]


@pytest.mark.parametrize("d,m,members", [(2, 4, None), (1, 5, 20), (2, 5, 20)])
def test_integer_solver_matches_dense_fraction_solve(d, m, members):
    g = GridShape(d, m)
    terminals = terminal_partitions(g)
    lookup = {part: kind for kind, part in terminals.items()}
    kinds = sorted(terminals)
    systems = [symmetry._absorption_system(p, g, lookup, kinds)
               for p in islice(enumerate_ncstar(g), members) if p not in lookup]
    # a state's absorption probabilities do not depend on the closed system
    # it is solved in, so the reference solves only the systems, largest
    # first, that bring a state it has not solved yet
    reference = {}
    for states, rows in sorted(systems, key=lambda system: -len(system[0])):
        if all(s in reference for s in states):
            continue
        width = len(states) + len(kinds)
        dense = [[row.get(j, 0) for j in range(width)] for row in rows]
        reference.update(zip(states, _bareiss_solve(dense, len(states), len(kinds))))
    for states, rows in systems:
        solution = symmetry._solve_integer_system(rows, len(states), len(kinds))
        assert solution == [reference[s] for s in states]
        assert all(isinstance(v, Fraction) for row in solution for v in row)


def test_absorption_identity_frontier():
    d, m = 2, 4
    g = GridShape(d, m)
    count = 0
    for p in enumerate_ncstar(g):
        probs = absorption_probabilities(p, g)
        assert sum(probs.values()) == 1
        prof = collapse_count_profile(p, g)
        for l in range(d + 1):
            lam = probs[TerminalKind("level", l)]
            lam += probs.get(TerminalKind("glued", l), Fraction(0))
            assert lam * (m - 1) == prof[l + 1] - prof[l]
        count += 1
    assert count == 285


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_absorption_sweep_on_one_grid_matches_fresh_grids(reverse):
    members = list(enumerate_ncstar(GridShape(2, 4)))
    assert len(members) == 285
    fresh = [absorption_probabilities(p, GridShape(2, 4)) for p in members]
    g = GridShape(2, 4)
    order = range(len(members) - 1, -1, -1) if reverse else range(len(members))
    swept = {i: absorption_probabilities(members[i], g) for i in order}
    assert [swept[i] for i in range(len(members))] == fresh
    # a second sweep answers every member from the stored states
    assert [absorption_probabilities(p, g) for p in members] == fresh


def test_absorption_cap_counts_the_states_one_call_must_solve(monkeypatch):
    g = GridShape(2, 4)
    members = list(enumerate_ncstar(g))
    before = {i: absorption_probabilities(members[i], g) for i in range(24)}
    stored = dict(g.__dict__["_absorption"])
    terminals = terminal_partitions(g)
    lookup = {part: kind for kind, part in terminals.items()}
    unsolved = next(p for p in members if p not in stored and p not in lookup)
    expected = absorption_probabilities(unsolved, GridShape(2, 4))
    states, _ = symmetry._absorption_system(unsolved, g, lookup, sorted(terminals), stored)
    assert 0 < len(states) < len(symmetry._absorption_system(
        unsolved, g, lookup, sorted(terminals))[0])
    monkeypatch.setattr(symmetry, "ABSORPTION_STATE_CAP", 0)
    solved = next(i for i in before if members[i] not in lookup)
    assert absorption_probabilities(members[solved], g) == before[solved]
    with pytest.raises(ValueError, match="exceeds cap 0"):
        absorption_probabilities(unsolved, g)
    monkeypatch.setattr(symmetry, "ABSORPTION_STATE_CAP", len(states) - 1)
    with pytest.raises(ValueError, match="exceeds cap %d" % (len(states) - 1)):
        absorption_probabilities(unsolved, g)
    assert g.__dict__["_absorption"] == stored
    monkeypatch.setattr(symmetry, "ABSORPTION_STATE_CAP", len(states))
    assert absorption_probabilities(unsolved, g) == expected


@pytest.mark.parametrize("text", ["1|2|3|4", "1,2,3|4", "1|2,3,4"])
def test_absorption_on_a_grid_holding_solved_states_still_names_a_singular_start(text):
    g = GridShape(1, 2)
    for p in list(enumerate_ncstar(g)) + [parse_partition("1,3|2,4", 4)]:
        absorption_probabilities(p, g)
    stored = dict(g.__dict__["_absorption"])
    assert stored
    with pytest.raises(ValueError, match=re.escape(text)):
        absorption_probabilities(parse_partition(text, 4), g)
    assert g.__dict__["_absorption"] == stored


def test_stored_absorption_states_leave_grid_equality_hash_and_repr_alone():
    g, fresh = GridShape(2, 3), GridShape(2, 3)
    for p in enumerate_ncstar(g):
        absorption_probabilities(p, g)
    assert g.__dict__["_absorption"]
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert repr(g) == "GridShape(d=2, m=3)"
    assert {fresh: "value"}[g] == "value" and len({g, fresh}) == 1


@pytest.mark.parametrize("text", ["1|2|3|4", "1,2,3|4", "1|2,3,4"])
def test_absorption_without_a_reachable_terminal_raises(text):
    g = GridShape(1, 2)
    with pytest.raises(ValueError, match=re.escape(text)):
        absorption_probabilities(parse_partition(text, 4), g)


def test_absorption_of_a_crossing_partition_that_reaches_terminals():
    g = GridShape(1, 2)
    probs = absorption_probabilities(parse_partition("1,3|2,4", 4), g)
    assert probs == {TerminalKind("level", 0): Fraction(1, 2),
                     TerminalKind("level", 1): Fraction(1, 2),
                     TerminalKind("glued", 1): Fraction(0)}


def test_symmetrize_and_collapse_pairs_build_canonical_partitions():
    for n in (2, 4, 6, 8):
        for p in all_set_partitions(n):
            collapsed = collapse_pairs(p)
            assert collapsed == Partition(collapsed.n, collapsed.blocks)
            assert symmetry._collapsed_count(p) == collapsed.num_blocks
            for k in range(1, n + 1):
                q = symmetrize(p, k)
                assert q == Partition(n, q.blocks)


def _recounted(p: Partition, k: int) -> tuple:
    """check_collapse_martingale(p, k) recomputed on fresh partitions."""
    def count(cut):
        return collapse_pairs(symmetrize(Partition(p.n, p.blocks), cut)).num_blocks
    return count(k), count(k + p.n // 2)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2)])
def test_stored_collapse_counts_match_a_recomputation(d, m):
    for p in enumerate_ncstar(GridShape(d, m)):
        n = p.n
        for k in [0] + list(range(1, n + 1)) + [n + 1]:
            assert check_collapse_martingale(p, k) == _recounted(p, k)
            assert collapse_block_count(p) == collapse_pairs(Partition(n, p.blocks)).num_blocks


@pytest.mark.parametrize("d,m", [(1, 3), (2, 2)])
def test_stored_collapse_counts_do_not_depend_on_call_order(d, m):
    g = GridShape(d, m)
    cuts = list(range(0, g.n + 2))
    orders = {"ascending": cuts, "descending": cuts[::-1], "repeated": cuts + cuts[::-1] + cuts}
    for name, order in orders.items():
        for p in enumerate_ncstar(g):
            seen = {}
            for k in order:
                got = (check_collapse_martingale(p, k), collapse_block_count(p))
                assert seen.setdefault(k, got) == got, (name, p, k)
                assert got == (_recounted(p, k), collapse_pairs(p).num_blocks), (name, p, k)


@pytest.mark.parametrize("text,message", [
    ("1,2,3|4", "partition must have even blocks: 1,2,3|4"),
    ("1,3|2,4", "partition must be non-crossing: 1,3|2,4")])
def test_invalid_input_fails_on_every_call(text, message):
    # a failed validation is never stored as a count
    p = parse_partition(text, 4)
    calls = [collapse_block_count, lambda q: check_collapse_martingale(q, 1),
             lambda q: check_collapse_martingale(q, 2), collapse_block_count]
    for call in calls + calls:
        with pytest.raises(ValueError) as info:
            call(p)
        assert str(info.value) == message


def test_stored_counts_leave_equality_and_hashing_alone():
    p = parse_partition("1,2,3,4|5,6|7,8", 8)
    for k in range(1, 9):
        check_collapse_martingale(p, k)
    fresh = parse_partition("1,2,3,4|5,6|7,8", 8)
    assert p == fresh and fresh == p and hash(p) == hash(fresh)
    assert {fresh: "value"}[p] == "value" and {p: "value"}[fresh] == "value"
    assert len({p, fresh}) == 1
    assert p != parse_partition("1,2|3,4,5,6|7,8", 8)


@pytest.mark.parametrize("function", [
    collapse_count_profile, level_exponents, absorption_probabilities])
def test_symmetry_functions_reject_a_partition_off_the_grid(function):
    p = parse_partition("1,2|3,4|5,6|7,8", 8)
    with pytest.raises(ValueError, match=re.escape(
            "partition on [8] does not match grid on [4]")):
        function(p, GridShape(1, 2))
