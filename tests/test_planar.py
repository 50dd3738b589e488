"""The planar interval recursion behind holo_moment and nonholo_moment,
against the enumerated cumulant sums it replaces and against the oracles."""

import cmath
import math

import numpy as np
import pytest

from conftest import reference_planar_sum
from ncfree import matrices
from ncfree.cumulants import (
    CumulantSpec,
    holo_word,
    kappa_pi,
    plain_word,
    rdiag_block_weight,
)
from ncfree.families import enumerate_ncdm, enumerate_ncstar
from ncfree.matrices import (
    ASSIGNMENT_CAP,
    MOMENT_DP_CAP,
    _weighted_sum,
    holo_moment,
    nonholo_moment,
    planar_sum,
    random_adjacent_distinct_family,
    random_family,
    random_star_family,
    trace_sum_complex,
    trace_sum_star_complex,
)
from ncfree.oracles import fock_moment, free_group_moment
from ncfree.symmetry import GridShape

SPECS = {
    "circular": CumulantSpec.circular(),
    "haar": CumulantSpec.haar_unitary(),
    "rdiag": CumulantSpec.from_name("rdiag:1,-0.5,0.25"),
}
SEMI = CumulantSpec.semicircular()
DP_TOL = 1e-12


def _star_family_sum(a, spec, m):
    word = holo_word(a.d, m)
    return _weighted_sum(enumerate_ncstar(GridShape(a.d, m)), lambda p: kappa_pi(spec, p, word),
                         lambda p: trace_sum_complex(a, p))


def _interval_sum(a, spec, m):
    g = GridShape(a.d, m)
    if isinstance(a, matrices.StarCoefficientFamily):
        return _weighted_sum(enumerate_ncdm(g), lambda p: rdiag_block_weight(spec, p),
                             lambda p: trace_sum_star_complex(a, p))
    word = plain_word(g.n)
    return _weighted_sum(enumerate_ncdm(g), lambda p: kappa_pi(spec, p, word),
                         lambda p: trace_sum_complex(a, p))


def _close(value, expected):
    return abs(value - expected) <= DP_TOL * max(1.0, abs(expected))


# Every (d, m) within the star cap (2dm <= 24) whose family has at most a few
# hundred members; the cells past that are checked against the oracles below.
STAR_CELLS = ([(1, m) for m in range(1, 6)] + [(2, m) for m in range(1, 5)]
              + [(3, m) for m in range(1, 4)] + [(4, m) for m in range(1, 4)]
              + [(5, 1), (5, 2), (6, 1), (6, 2)] + [(d, 1) for d in range(7, 13)])


# cells whose families have over 250 members take the smallest and the
# largest size only, to keep the enumerated sums short
HEAVY_CELLS = {(1, 5), (2, 4)}


def _sizes(d, m):
    """(r, alpha) pairs, up to r=3 and alpha=2 while the dense tensor stays small."""
    if (d, m) in HEAVY_CELLS:
        return [(1, 1), (3, 2)]
    return [(r, alpha) for r in (1, 2, 3) for alpha in (1, 2)
            if r ** d * alpha * alpha <= 2 ** 14]


@pytest.mark.parametrize("d,m", STAR_CELLS)
def test_planar_sum_matches_star_family_sum(d, m):
    rng = np.random.default_rng(100 * d + m)
    for r, alpha in _sizes(d, m):
        a = random_family(d, r, alpha, rng)
        for name, spec in SPECS.items():
            expected = _star_family_sum(a, spec, m)
            assert _close(planar_sum(a, spec, m), expected), (name, r, alpha)


# Every (d, m) within the interval cap (2dm <= 20) whose family has at most a
# few hundred members.
INTERVAL_CELLS = ([(1, m) for m in range(1, 6)] + [(2, m) for m in range(1, 5)]
                  + [(3, m) for m in range(1, 4)] + [(4, 1), (4, 2), (5, 1), (5, 2)]
                  + [(d, 1) for d in range(6, 11)])


@pytest.mark.parametrize("d,m", INTERVAL_CELLS)
def test_planar_sum_matches_interval_sum(d, m):
    rng = np.random.default_rng(200 * d + m)
    compared = 0
    for r, alpha in _sizes(d, m):
        plain = random_adjacent_distinct_family(d, r, alpha, rng)
        # empty at r = 1 for d >= 2, where both sums are 0; it draws nothing
        if plain.entries:
            expected = _interval_sum(plain, SEMI, m)
            assert expected != 0, (r, alpha)
            assert _close(planar_sum(plain, SEMI, m), expected), (r, alpha)
            compared += 1
        # past these the enumerated star sum itself fails (dense tensor, or
        # the trace-sum assignment cap)
        if (2 * r) ** d * alpha * alpha > 2 ** 14 or (2 * r) ** (d * m) > ASSIGNMENT_CAP:
            continue
        star = random_star_family(d, r, alpha, rng)
        for name, spec in SPECS.items():
            expected = _interval_sum(star, spec, m)
            assert _close(planar_sum(star, spec, m), expected), (name, r, alpha)
    assert compared


@pytest.mark.parametrize("d,m", [(1, 8), (2, 4), (1, 12), (2, 6), (3, 4)])
def test_planar_sum_against_fock_space(d, m):
    # the Fock space has (letters)^(dm) top words: r = 2 circular (4 letters)
    # and r = 3 semicircular at n = 16, one letter fewer each at n = 24
    rng = np.random.default_rng(300 * d + m)
    small = 2 * d * m <= 16
    a = random_family(d, 2 if small else 1, 2, rng)
    expected = fock_moment(a, "circular", m)
    assert math.isclose(holo_moment(a, SPECS["circular"], m), expected, rel_tol=1e-10)
    b = random_adjacent_distinct_family(d, 3 if small else 2, 2, rng)
    expected = fock_moment(b, "semicircular", m)
    assert math.isclose(nonholo_moment(b, SEMI, m), expected, rel_tol=1e-10)


@pytest.mark.parametrize("d,m,r", [(1, 8, 2), (1, 12, 2), (2, 4, 2), (2, 6, 2), (3, 4, 2),
                                   (1, 8, 3)])
def test_planar_sum_against_free_group(d, m, r):
    rng = np.random.default_rng(400 * d + m)
    a = random_family(d, r, 2, rng)
    expected = free_group_moment(a, m)
    assert math.isclose(holo_moment(a, SPECS["haar"], m), expected, rel_tol=1e-10)


def test_tree_form_against_free_group_at_d1_m32():
    # the signed Catalan cumulants cancel badly here; the tree form has no signs
    rng = np.random.default_rng(500)
    for alpha in (1, 2):
        a = random_family(1, 2, alpha, rng)
        total = planar_sum(a, SPECS["haar"], 32)
        expected = free_group_moment(a, 32)
        assert abs(total.imag) <= 1e-12 * expected
        assert math.isclose(total.real, expected, rel_tol=1e-12)


REFERENCE_SPECS = dict(SPECS, semicircle=SEMI,
                       **{name: CumulantSpec.from_name(name) for name in ("rdiag:0,1", "rdiag:0")})


@pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3, 4)])
def test_interval_recursion_matches_the_two_it_replaced(d, m):
    # the block recursion and the Haar tree form, kept in conftest
    rng = np.random.default_rng(1000 * d + m)
    for alpha in (1, 2):
        for fam in (random_family(d, 2, alpha, rng), random_star_family(d, 2, alpha, rng)):
            for name, spec in REFERENCE_SPECS.items():
                if name == "semicircle" and isinstance(fam, matrices.StarCoefficientFamily):
                    continue  # no determining sequence
                expected = reference_planar_sum(fam, spec, m)
                assert _close(planar_sum(fam, spec, m), expected), (name, alpha, type(fam))


def test_interval_recursion_matches_the_tree_form_at_d1_m32():
    rng = np.random.default_rng(1100)
    for alpha in (1, 2):
        for fam in (random_family(1, 2, alpha, rng), random_star_family(1, 2, alpha, rng)):
            expected = reference_planar_sum(fam, SPECS["haar"], 32)
            assert _close(planar_sum(fam, SPECS["haar"], 32), expected), alpha


def test_all_zero_determining_sequence_gives_zero():
    # every alpha is trimmed, so no block can be weighed
    rng = np.random.default_rng(1101)
    spec = CumulantSpec.from_name("rdiag:0")
    for fam in (random_family(2, 2, 2, rng), random_star_family(2, 2, 2, rng)):
        assert planar_sum(fam, spec, 3) == 0


# 1.5 times larger on a block that opens starred, up to blocks of 6 elements:
# a recursion that ignored the first star bit would miss it
STARRED_TABLE = CumulantSpec.star_table(
    lambda pattern: (1.5 if pattern[0] else 1) * {2: 1, 4: 0.5, 6: 0.25}.get(len(pattern), 0))


def test_enumerated_hooks_keep_the_star_family_sum():
    # holo_moment sums the star family under every preset: the semicircle
    # through the circular recursion (on that family its pairs weigh the
    # same), star_table through the family lifted to an unstarred star family
    rng = np.random.default_rng(600)
    table = CumulantSpec.star_table(lambda pattern: 1 if len(pattern) == 2 else 0.5)
    for d, m in [(1, 2), (1, 3), (2, 2), (3, 2)]:
        a = random_family(d, 2, 2, rng)
        for spec in (SEMI, table, STARRED_TABLE):
            expected = _star_family_sum(a, spec, m).real
            assert math.isclose(holo_moment(a, spec, m), expected, rel_tol=1e-12)


# kappa_2s = 1 + 2^(1-s), the free cumulants of a free compound Poisson
# element with symmetric jumps, +-1 at rate 1 and +-2^(-1/2) at rate 2, so
# the moments are those of an operator and none is negative
PLAIN_TABLE = CumulantSpec.star_table(
    lambda pattern: 0 if len(pattern) % 2 else 1 + 2.0 ** (1 - len(pattern) // 2))


@pytest.mark.parametrize("d,m", INTERVAL_CELLS[:INTERVAL_CELLS.index((3, 3)) + 1])
def test_plain_families_under_a_star_table_match_the_interval_sum(d, m):
    # the plain word with blocks of 4 and more elements, which the
    # semicircle's pairs never reach
    rng = np.random.default_rng(250 * d + m)
    compared = 0
    for r, alpha in _sizes(d, m):
        plain = random_adjacent_distinct_family(d, r, alpha, rng)
        if not plain.entries:  # r = 1 at d >= 2
            continue
        expected = _interval_sum(plain, PLAIN_TABLE, m)
        assert expected != 0, (r, alpha)
        assert math.isclose(nonholo_moment(plain, PLAIN_TABLE, m), expected.real,
                            rel_tol=1e-12), (r, alpha)
        compared += 1
    assert compared


def test_star_table_moments_past_the_old_caps():
    rng = np.random.default_rng(601)
    rdiag = SPECS["rdiag"]
    alternating = CumulantSpec.star_table(
        lambda pattern: rdiag.block_value(pattern)
        if all(x != y for x, y in zip(pattern, pattern[1:])) else 0)
    a = random_family(1, 2, 2, rng)
    for m in (13, 40):  # 2dm past the star cap of 24
        assert math.isclose(holo_moment(a, alternating, m), holo_moment(a, rdiag, m),
                            rel_tol=1e-12), m
    pairs = CumulantSpec.star_table(lambda pattern: 1 if len(pattern) == 2 else 0)
    b = random_adjacent_distinct_family(2, 2, 2, rng)
    assert math.isclose(nonholo_moment(b, pairs, 20), nonholo_moment(b, SEMI, 20),
                        rel_tol=1e-12)


def _first_m_past_cap(entries_at):
    m = 1
    while entries_at(m) <= MOMENT_DP_CAP:
        m += 1
    return m


def test_moment_dp_cap_checked_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("site tensors built past the cap")

    monkeypatch.setattr(matrices, "_split_group", fail)
    a = random_family(2, 2, 2, np.random.default_rng(700))
    # 4 letters (k, star); boundaries of bond 2 and 4 alternate, so the even
    # ones sum to 4m + 2 (the last boundary included) and the odd ones to 8m.
    # The tree form keeps 5 pairs of tables, the block recursion one pair
    # and four arrays of 4 letters x bond 4 x 8m.
    haar = _first_m_past_cap(lambda m: 5 * ((4 * m + 2) ** 2 + (8 * m) ** 2))
    circular = _first_m_past_cap(lambda m: (4 * m + 2) ** 2 + (8 * m) ** 2 + 4 * 4 * 4 * 8 * m)
    for call in (lambda: holo_moment(a, SPECS["haar"], haar),
                 lambda: planar_sum(a, SPECS["haar"], haar),
                 lambda: holo_moment(a, SPECS["circular"], circular),
                 lambda: planar_sum(a, SPECS["rdiag"], circular)):
        with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
            call()
    monkeypatch.setattr(matrices, "MOMENT_DP_CAP", 15)
    with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
        planar_sum(a, SPECS["circular"], 1)


def test_moment_dp_cap_counts_the_letters(monkeypatch):
    # bond 1 everywhere, so only the 2r + 1 letter contexts make this large
    monkeypatch.setattr(matrices, "_split_group", lambda g: pytest.fail("built past the cap"))
    a = random_family(1, 30, 1, np.random.default_rng(701))
    assert 8 * (501 ** 2 + 500 ** 2) <= MOMENT_DP_CAP < 61 * (501 ** 2 + 500 ** 2)
    with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
        holo_moment(a, SPECS["haar"], 500)


def test_cells_inside_the_old_caps_are_computed():
    # the star family at d=6, m=1 over 4 letters: its middle bond is 2 * 4^3,
    # but the other positions keep their own smaller bonds
    star = random_star_family(6, 2, 2, np.random.default_rng(702))
    assert nonholo_moment(star, SPECS["circular"], 1) > 0
    plain = random_family(10, 2, 1, np.random.default_rng(703))
    assert holo_moment(plain, SPECS["circular"], 1) > 0


def test_past_the_cap_the_old_caps_still_enumerate(monkeypatch):
    rng = np.random.default_rng(704)
    plain = random_family(2, 2, 2, rng)
    star = random_star_family(2, 2, 2, rng)
    distinct = random_adjacent_distinct_family(2, 2, 2, rng)
    cases = ([(holo_moment, plain, spec) for spec in (*SPECS.values(), SEMI, STARRED_TABLE)]
             + [(nonholo_moment, star, spec) for spec in SPECS.values()]
             + [(nonholo_moment, distinct, SEMI)])
    expected = [moment(a, spec, 2) for moment, a, spec in cases]
    monkeypatch.setattr(matrices, "MOMENT_DP_CAP", 0)
    monkeypatch.setattr(matrices, "_split_group", lambda g: pytest.fail("recursion ran"))
    for (moment, a, spec), value in zip(cases, expected):
        assert math.isclose(moment(a, spec, 2), value, rel_tol=1e-12)
    # past both caps, the error names the recursion's
    for moment, a, m in ((holo_moment, plain, 7), (nonholo_moment, star, 6)):
        with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
            moment(a, SPECS["circular"], m)


def test_past_the_cap_the_plain_sum_contracts_each_shared_ring_prefix_once(monkeypatch):
    # the 273 star-family members of nonzero Haar weight at d=1, m=5 take
    # 10 einsums each when contracted one by one; in enumeration order they
    # share ring prefixes
    calls = []
    real = np.einsum
    monkeypatch.setattr(matrices, "MOMENT_DP_CAP", 0)
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(1) or real(*args))
    a = random_family(1, 2, 2, np.random.default_rng(0))
    value = holo_moment(a, SPECS["haar"], 5)
    assert len(calls) == 1380
    scale = a.frobenius()
    reference = _star_family_sum(a.scaled(1 / scale), SPECS["haar"], 5)
    assert value == reference.real * scale ** 10


def test_past_the_cap_the_star_sum_contracts_each_shared_ring_prefix_once(monkeypatch):
    # the star family's even-block members at d=1, m=4 under Haar take 440
    # einsums when contracted one by one; one walk shares their ring prefixes
    calls = []
    real = np.einsum
    monkeypatch.setattr(matrices, "MOMENT_DP_CAP", 0)
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(1) or real(*args))
    a = random_star_family(1, 2, 2, np.random.default_rng(0))
    value = nonholo_moment(a, SPECS["haar"], 4)
    assert len(calls) == 241
    scale = a.frobenius()
    reference = _interval_sum(a.scaled(1 / scale), SPECS["haar"], 4)
    assert value == reference.real * scale ** 8


def test_moments_past_the_float_range_keep_a_finite_norm():
    # the scalar family a = 20^(1/2) on one letter: X = a x, and both the
    # circular and the semicircular 2m-th moment of x is Catalan(m)
    m = 256
    one = matrices.CoefficientFamily(1, 1, 1, {(1,): [[math.sqrt(20)]]})
    norm = math.sqrt(20) * math.exp(math.log(math.comb(2 * m, m) // (m + 1)) / (2 * m))
    assert math.isclose(matrices.holo_norm_2m(one, SPECS["circular"], m), norm, rel_tol=1e-10)
    assert math.isclose(matrices.nonholo_norm_2m(one, SEMI, m), norm, rel_tol=1e-10)
    assert holo_moment(one, SPECS["circular"], m) == math.inf
    assert math.isclose(holo_moment(one, SPECS["circular"], 64),
                        20 ** 64 * (math.comb(128, 64) // 65), rel_tol=1e-10)


def test_negative_moment_raises_in_both_functions(monkeypatch):
    monkeypatch.setattr(matrices, "planar_sum", lambda a, spec, m: -1 + 0j)
    rng = np.random.default_rng(800)
    with pytest.raises(ArithmeticError, match="negative"):
        holo_moment(random_family(2, 2, 2, rng), SPECS["circular"], 2)
    with pytest.raises(ArithmeticError, match="negative"):
        nonholo_moment(random_adjacent_distinct_family(2, 2, 2, rng), SEMI, 2)
    with pytest.raises(ArithmeticError, match="negative"):
        nonholo_moment(random_star_family(2, 2, 2, rng), SPECS["haar"], 2)


def test_star_family_frobenius_sq():
    a = random_star_family(2, 2, 2, np.random.default_rng(900))
    expected = sum(float(np.sum(np.abs(mat) ** 2)) for mat in a.entries.values())
    assert math.isclose(a.frobenius_sq(), expected, rel_tol=1e-12)


def test_star_family_presets_without_determining_sequence():
    a = random_star_family(1, 2, 1, np.random.default_rng(901))
    for spec in (SEMI, CumulantSpec.star_table(lambda pattern: 1)):
        with pytest.raises(ValueError, match="determining sequence"):
            nonholo_moment(a, spec, 2)


@pytest.mark.parametrize("total", [complex(math.inf, 0), complex(math.nan, 0),
                                   complex(math.inf, math.nan)])
def test_non_finite_unit_moment_raises_in_both_functions(monkeypatch, total):
    monkeypatch.setattr(matrices, "planar_sum", lambda a, spec, m: total)
    rng = np.random.default_rng(801)
    with pytest.raises(ArithmeticError, match="not finite"):
        holo_moment(random_family(2, 2, 2, rng), SPECS["circular"], 2)
    with pytest.raises(ArithmeticError, match="not finite"):
        nonholo_moment(random_adjacent_distinct_family(2, 2, 2, rng), SEMI, 2)
    with pytest.raises(ArithmeticError, match="not finite"):
        nonholo_moment(random_star_family(2, 2, 2, rng), SPECS["haar"], 2)


def test_imaginary_residual_raises_in_both_functions(monkeypatch):
    rng = np.random.default_rng(802)
    cases = [(holo_moment, random_family(2, 2, 2, rng), SPECS["circular"]),
             (nonholo_moment, random_adjacent_distinct_family(2, 2, 2, rng), SEMI),
             (nonholo_moment, random_star_family(2, 2, 2, rng), SPECS["haar"])]
    monkeypatch.setattr(matrices, "planar_sum", lambda a, spec, m: 1 + 1j)
    for moment, a, spec in cases:
        with pytest.raises(ArithmeticError, match="imaginary residual"):
            moment(a, spec, 2)
    # a residual within rounding of the unit sum is dropped
    monkeypatch.setattr(matrices, "planar_sum", lambda a, spec, m: 1 + 1e-13j)
    for moment, a, spec in cases:
        assert math.isclose(moment(a, spec, 2), a.frobenius() ** 4, rel_tol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [SPECS["circular"], SPECS["haar"], SEMI],
                         ids=["circular", "haar", "semicircle"])
def test_overflowing_planar_sum_is_non_finite_without_warnings(spec):
    # (1e200)^4 is past the float range: the sum comes back inf or nan for
    # the caller's check, and numpy prints nothing
    huge = matrices.CoefficientFamily(1, 1, 1, {(1,): [[1e200]]})
    assert not cmath.isfinite(planar_sum(huge, spec, 2))
