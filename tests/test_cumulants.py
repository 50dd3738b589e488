import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ncfree.partitions import discrete, enumerate_nc, full, parse_partition
from ncfree.symmetry import GridShape
from ncfree.families import (
    catalan,
    enumerate_interval_pairings,
    enumerate_ncdm,
    enumerate_ncstar,
    enumerate_ncstar2,
    is_ncstar,
    is_pairing,
)
from ncfree.matrices import holo_rhs_bound, ml_norms, random_family
from ncfree.cumulants import (
    CumulantSpec,
    alternating_word,
    c_moment_2m,
    c_norm_2,
    c_norm_2m,
    c_operator_norm,
    cumulant_domination_bound,
    determining_sequence_from_moments,
    holo_word,
    kappa_pi,
    moment_from_cumulants,
    plain_word,
    rdiag_block_weight,
)


def test_words():
    assert plain_word(3) == ((1, False),) * 3
    assert alternating_word(4) == ((1, False), (1, True), (1, False), (1, True))
    assert holo_word(2, 1) == ((1, False), (1, False), (1, True), (1, True))


def test_kappa_circular_on_pairings():
    circ = CumulantSpec.circular()
    for d, m in [(1, 2), (2, 2), (2, 3)]:
        word = holo_word(d, m)
        for p in enumerate_ncstar2(GridShape(d, m)):
            assert kappa_pi(circ, p, word) == 1
        for p in enumerate_ncstar(GridShape(d, m)):
            if not is_pairing(p):
                assert kappa_pi(circ, p, word) == 0


def test_kappa_haar_full_block():
    haar = CumulantSpec.haar_unitary()
    assert kappa_pi(haar, full(4), alternating_word(4)) == -1
    assert kappa_pi(haar, full(6), alternating_word(6)) == 2


def test_kappa_vanishes_on_mixed_indices():
    circ = CumulantSpec.circular()
    word = ((1, False), (2, True))
    assert kappa_pi(circ, full(2), word) == 0
    assert kappa_pi(circ, parse_partition("1|2", 2), word) == 0


def test_kappa_vanishes_on_odd_blocks():
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary(),
                 CumulantSpec.semicircular()):
        assert kappa_pi(spec, full(3), plain_word(3)) == 0
        assert kappa_pi(spec, parse_partition("1|2,3,4", 4), alternating_word(4)) == 0


def test_kappa_needs_alternation():
    haar = CumulantSpec.haar_unitary()
    word = ((1, False), (1, False), (1, True), (1, True))  # c c c* c*
    assert kappa_pi(haar, full(4), word) == 0
    # but the nested pairing pattern alternates blockwise
    assert kappa_pi(haar, parse_partition("1,4|2,3", 4), word) == 1


def test_alternation_modes_agree_on_even_blocks():
    cyclic = CumulantSpec.haar_unitary()
    linear = CumulantSpec("haar", cyclic_alternation=False)
    for n in (2, 4, 6):
        for p in enumerate_nc(n):
            w = alternating_word(n)
            assert kappa_pi(cyclic, p, w) == kappa_pi(linear, p, w)


def test_rdiag_support_is_the_star_family():
    haar = CumulantSpec.haar_unitary()
    for d, m in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (3, 2), (2, 3)]:
        g = GridShape(d, m)
        word = holo_word(d, m)
        members = set(enumerate_ncstar(g))
        for p in enumerate_nc(g.n):
            if kappa_pi(haar, p, word) != 0:
                assert p in members and is_ncstar(p, g)


def test_semicircular_support_is_interval_pairings():
    semi = CumulantSpec.semicircular()
    for d, m in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        g = GridShape(d, m)
        word = plain_word(g.n)
        pairings = set(enumerate_interval_pairings(g))
        for p in enumerate_ncdm(g):
            value = kappa_pi(semi, p, word)
            assert value == (1 if p in pairings else 0)


def test_moment_examples():
    semi = CumulantSpec.semicircular()
    circ = CumulantSpec.circular()
    haar = CumulantSpec.haar_unitary()
    assert moment_from_cumulants(semi, plain_word(4)) == 2
    assert moment_from_cumulants(circ, alternating_word(4)) == 2
    for n in range(1, 6):
        assert moment_from_cumulants(haar, alternating_word(2 * n)) == 1
        assert moment_from_cumulants(semi, plain_word(2 * n)) == catalan(n)
        assert moment_from_cumulants(circ, alternating_word(2 * n)) == catalan(n)
        assert moment_from_cumulants(semi, plain_word(2 * n - 1)) == 0


def test_moment_word_length_mismatch():
    with pytest.raises(ValueError):
        kappa_pi(CumulantSpec.circular(), full(4), alternating_word(2))


def test_haar_determining_sequence():
    haar = CumulantSpec.haar_unitary()
    values = haar.determining(6)
    assert values == tuple((-1) ** (n - 1) * catalan(n - 1) for n in range(1, 7))
    # a shorter sequence is a prefix of the longer one
    assert haar.determining(3) == values[:3]


def test_inversion_recovers_circular():
    alphas = determining_sequence_from_moments(lambda w: catalan(len(w) // 2), 5)
    assert alphas == (1, 0, 0, 0, 0)


def test_inversion_of_zero_moments():
    assert determining_sequence_from_moments(lambda w: 0, 4) == (0, 0, 0, 0)


def test_inversion_roundtrip_custom_sequence():
    target = (2, -3, 1, 4, -1)
    spec = CumulantSpec.r_diagonal(target)
    moments = {2 * n: moment_from_cumulants(spec, alternating_word(2 * n))
               for n in range(1, 6)}
    recovered = determining_sequence_from_moments(lambda w: moments[len(w)], 5)
    assert recovered == target


def test_inversion_roundtrip_rational():
    target = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))
    spec = CumulantSpec.r_diagonal(target)
    moments = {2 * n: moment_from_cumulants(spec, alternating_word(2 * n))
               for n in range(1, 4)}
    recovered = determining_sequence_from_moments(lambda w: moments[len(w)], 3)
    assert recovered == target


def test_rdiag_block_weight():
    spec = CumulantSpec.r_diagonal((2, 5))
    assert rdiag_block_weight(spec, parse_partition("1,2|3,4", 4)) == 4
    assert rdiag_block_weight(spec, full(4)) == 5
    with pytest.raises(ValueError):
        rdiag_block_weight(spec, full(3))


def test_domination_bound_examples():
    assert cumulant_domination_bound(parse_partition("1,2|3,4", 4), 3, 7) == 81
    haar = CumulantSpec.haar_unitary()
    # |alpha_3| = 2 within the full-block bound at unit norms
    assert abs(kappa_pi(haar, full(6), alternating_word(6))) <= \
        cumulant_domination_bound(full(6), 1, 1)


def test_domination_bound_spans_presets():
    # preset cumulants stay within the bound using their actual 2- and
    # 2m-norm values (max block size 2m)
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary()):
        for d, m in [(1, 2), (2, 2), (1, 3)]:
            word = holo_word(d, m)
            m2 = c_norm_2(spec)
            mN = c_norm_2m(spec, m)
            for p in enumerate_ncstar(GridShape(d, m)):
                assert abs(kappa_pi(spec, p, word)) <= \
                    cumulant_domination_bound(p, m2, mN) * (1 + 1e-12)


def test_c_norms():
    circ = CumulantSpec.circular()
    semi = CumulantSpec.semicircular()
    haar = CumulantSpec.haar_unitary()
    assert c_norm_2(circ) == 1 and c_norm_2(semi) == 1 and c_norm_2(haar) == 1
    assert c_moment_2m(circ, 3) == catalan(3)
    assert c_moment_2m(semi, 3) == catalan(3)
    assert c_moment_2m(haar, 4) == 1
    assert c_operator_norm(circ) == 2.0
    assert c_operator_norm(haar) == 1.0
    with pytest.raises(ValueError):
        c_operator_norm(CumulantSpec.r_diagonal((1, 1)))


def test_norm_growth_toward_operator_norm():
    # 2m-norms increase in m and stay below the preset operator norm,
    # with the gap shrinking: the large-m proxy for the norm claims
    for spec in (CumulantSpec.circular(), CumulantSpec.semicircular(),
                 CumulantSpec.haar_unitary()):
        values = [c_norm_2m(spec, m) for m in range(1, 6)]
        limit = c_operator_norm(spec)
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
        assert all(v <= limit + 1e-12 for v in values)
        assert limit - values[-1] < limit - values[0] + 1e-12


def test_spec_from_name():
    assert CumulantSpec.from_name("circular").kind == "circular"
    assert CumulantSpec.from_name("haar").kind == "haar"
    assert CumulantSpec.from_name("semicircle").kind == "semicircle"
    spec = CumulantSpec.from_name("rdiag:1,-0.5")
    assert spec.kind == "rdiag" and spec.determining(3) == (1, -0.5, 0)
    with pytest.raises(ValueError):
        CumulantSpec.from_name("gaussian")
    with pytest.raises(ValueError):
        CumulantSpec.from_name("rdiag:")


def test_star_table_hook():
    # a table spec reproducing the circular preset
    def table(pattern):
        return 1 if len(pattern) == 2 and pattern[0] != pattern[1] else 0

    table_spec = CumulantSpec.star_table(table)
    circ = CumulantSpec.circular()
    for n in (2, 4, 6):
        w = alternating_word(n)
        assert moment_from_cumulants(table_spec, w) == moment_from_cumulants(circ, w)


def test_discrete_partition_kappa():
    # singletons: every first-order cumulant vanishes for centered presets
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary(),
                 CumulantSpec.semicircular()):
        assert kappa_pi(spec, discrete(2), alternating_word(2)) == 0


def _nc_sum(spec, word, members=None):
    total = 0
    for p in members if members is not None else enumerate_nc(len(word)):
        total += kappa_pi(spec, p, word)
    return total


def _same(fast, brute):
    assert type(fast) is type(brute), (fast, brute)
    if isinstance(brute, float):
        assert math.isclose(fast, brute, rel_tol=1e-12, abs_tol=1e-12)
    else:
        assert fast == brute


def test_recursion_matches_nc_sum():
    # the closed recursions against the brute NC(n) sum of kappa_pi, value
    # and type, for random int, Fraction and float determining sequences
    rng = random.Random(5)
    specs = [
        CumulantSpec.r_diagonal([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(6)]),
        CumulantSpec.r_diagonal([Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
                                 for _ in range(6)]),
        CumulantSpec.r_diagonal([rng.uniform(-2, 2) for _ in range(6)]),
    ]
    semi = CumulantSpec.semicircular()
    for n in range(1, 13):
        members = list(enumerate_nc(n))
        from_c = alternating_word(n)
        from_star = tuple((idx, not star) for idx, star in from_c)
        cases = [(spec, word) for spec in specs for word in (from_c, from_star)]
        # the semicircle's block values ignore the stars
        cases += [(semi, plain_word(n)), (semi, from_c)]
        for spec, word in cases:
            _same(moment_from_cumulants(spec, word), _nc_sum(spec, word, members))


def test_nc_sum_kept_for_mixed_and_non_alternating_words():
    haar = CumulantSpec.haar_unitary()
    circ = CumulantSpec.circular()
    mixed = ((1, False), (2, True), (2, False), (1, True), (1, False), (2, True))
    non_alternating = ((1, False), (1, False), (1, True), (1, True))
    for spec in (haar, circ, CumulantSpec.r_diagonal((2, -1, 3))):
        for word in (mixed, non_alternating):
            assert moment_from_cumulants(spec, word) == _nc_sum(spec, word)
    assert moment_from_cumulants(haar, non_alternating) == 1
    with pytest.raises(ValueError):
        moment_from_cumulants(circ, tuple((1 + i % 2, i % 4 < 2) for i in range(16)))
    with pytest.raises(ValueError):
        moment_from_cumulants(haar, plain_word(16))


def test_scalar_quantities_past_the_enumeration_cap():
    haar = CumulantSpec.haar_unitary()
    values = haar.determining(30)
    assert values == tuple((-1) ** (n - 1) * catalan(n - 1) for n in range(1, 31))
    assert all(type(v) is int for v in values)
    circ = CumulantSpec.circular()
    semi = CumulantSpec.semicircular()
    for m in range(1, 21):
        assert c_moment_2m(circ, m) == catalan(m)
        assert c_moment_2m(semi, m) == catalan(m)
        assert c_moment_2m(haar, m) == 1
    # ||c||_2 = ||c||_16 = 1 for a unitary, so only the constant remains
    a = random_family(1, 2, 2, np.random.default_rng(31))
    ell2 = math.sqrt(sum(x * x for x in ml_norms(a, 8)))
    expected = 4 ** 5 * math.e * math.sqrt(1 + 1 / 8) * ell2
    assert math.isclose(holo_rhs_bound(a, haar, 8), expected, rel_tol=1e-12)


@pytest.mark.parametrize("name", ["rdiag:1,nan", "rdiag:inf", "rdiag:-inf,1"])
def test_rdiag_rejects_non_finite_values(name):
    with pytest.raises(ValueError, match="non-finite") as info:
        CumulantSpec.from_name(name)
    assert str(info.value).startswith("rdiag:")
    with pytest.raises(ValueError, match="non-finite"):
        CumulantSpec.r_diagonal([1, float("nan")])
    # exact values past the float range are finite
    assert CumulantSpec.r_diagonal([Fraction(10 ** 400, 3), 10 ** 400]).kind == "rdiag"


def test_c_norm_2m_past_the_float_range():
    # C_520 is past the float range; its 2m-th root is not
    m = 520
    root = math.exp(math.log(catalan(m)) / (2 * m))
    assert math.isclose(root, 1.98095, rel_tol=1e-5)
    for spec in (CumulantSpec.circular(), CumulantSpec.semicircular()):
        assert math.isclose(c_norm_2m(spec, m), root, rel_tol=1e-12)


def test_c_norm_2m_of_a_fraction_past_the_float_range():
    # alpha_1 = s scales the circular moment to s^m C_m: past the float
    # range at m=40 for s = 10^8 and 10^8/3, so both numerator and
    # denominator go through their logarithms
    m = 40
    root = math.exp(math.log(catalan(m)) / (2 * m))
    for s in (Fraction(10 ** 8), Fraction(10 ** 8, 3)):
        spec = CumulantSpec.r_diagonal([s])
        assert isinstance(c_moment_2m(spec, m), Fraction)
        assert math.isclose(c_norm_2m(spec, m), math.sqrt(s) * root, rel_tol=1e-12)
    floats = CumulantSpec.r_diagonal([0.25])
    assert c_norm_2m(floats, 3) == c_moment_2m(floats, 3) ** (1 / 6)


@pytest.mark.parametrize("name", ["rdiag:1,,0.5", "rdiag:1,", "rdiag:,1", "rdiag:abc",
                                  "rdiag:1e400"])
def test_rdiag_rejects_malformed_lists_naming_the_spec(name):
    with pytest.raises(ValueError) as info:
        CumulantSpec.from_name(name)
    assert str(info.value).startswith(name + " ")


@pytest.mark.parametrize("spec", [CumulantSpec.haar_unitary(), CumulantSpec.circular(),
                                  CumulantSpec.from_name("rdiag:1,-0.5,0.25")],
                         ids=["haar", "circular", "rdiag"])
def test_spec_holds_no_state_that_a_call_changes(spec):
    before = copy.deepcopy(vars(spec))
    spec.determining(64)
    c_norm_2m(spec, 64)
    word = alternating_word(8)
    for p in enumerate_nc(8):
        kappa_pi(spec, p, word)
    assert vars(spec) == before


def test_haar_closed_form_matches_the_inversion():
    haar = CumulantSpec.haar_unitary()
    inverted = determining_sequence_from_moments(lambda w: 1, 40)
    for n in range(1, 41):
        values = haar.determining(n)
        assert values == inverted[:n]
        assert all(type(v) is int for v in values)


def test_haar_norm_at_large_m():
    # the unitary's moments are all 1, at any m
    assert c_norm_2m(CumulantSpec.haar_unitary(), 256) == 1.0


def _two_branch_holo_rhs_bound(a, spec, m):
    """holo_rhs_bound as written with separate m=None and integer-m branches."""
    d = a.d
    norms = ml_norms(a, m)
    ell2 = math.hypot(*norms)
    if m is None:
        base = math.sqrt(math.e) * ell2
        if spec.kind == "circular":
            return base
        return 4 ** 5 * c_norm_2(spec) ** (d - 2) * c_operator_norm(spec) ** 2 * base
    base = math.e * math.sqrt(1 + d / m) * ell2
    if spec.kind == "circular":
        return base
    return 4 ** 5 * c_norm_2(spec) ** (d - 2) * c_norm_2m(spec, m) ** 2 * base


@pytest.mark.parametrize("name", ["circular", "haar", "semicircle", "rdiag:1,-0.5,0.25"])
def test_holo_rhs_bound_is_the_two_branch_formula_bit_for_bit(name):
    spec = CumulantSpec.from_name(name)
    rng = np.random.default_rng(57)
    for d in (1, 2, 3):
        a = random_family(d, 2, 2, rng)
        for m in (None, 1, 2, 5):
            if m is None and name.startswith("rdiag:"):
                # no preset operator norm: both forms raise
                for bound in (holo_rhs_bound, _two_branch_holo_rhs_bound):
                    with pytest.raises(ValueError, match="no preset operator norm"):
                        bound(a, spec, m)
                continue
            assert holo_rhs_bound(a, spec, m) == _two_branch_holo_rhs_bound(a, spec, m)
