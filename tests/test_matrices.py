import math
from itertools import islice, product

import numpy as np
import pytest

from conftest import all_set_partitions
from ncfree.partitions import enumerate_nc, full, parse_partition
from ncfree.symmetry import GridShape, symmetrize, level_exponents, level_terminal, glued_level_terminal
from ncfree.families import catalan, enumerate_ncstar, enumerate_ncdm
from ncfree.cumulants import CumulantSpec
from ncfree.matrices import (
    CoefficientFamily,
    StarCoefficientFamily,
    build_Ml,
    build_Ml_star,
    flip,
    holo_moment,
    holo_norm_2m,
    holo_rhs_bound,
    load_family,
    ml_norms,
    nonholo_moment,
    nonholo_norm_2m,
    nonholo_rhs_bound,
    operator_norm,
    planar_sum,
    prime_family,
    prime_family_gram,
    random_adjacent_distinct_family,
    random_family,
    random_star_family,
    trace_sum,
    trace_sum_complex,
    trace_sum_star,
    trace_sum_star_complex,
    save_family,
    schatten_norm,
    schatten_pow,
)


def trace_sum_by_assignments(a, p):
    """Independent evaluation: loop over one alphabet value per block."""
    d = a.d
    m = p.n // (2 * d)
    t = a.dense()
    total = 0j
    for values in product(range(a.r), repeat=p.num_blocks):
        mat = np.eye(a.alpha, dtype=complex)
        for j in range(2 * m):
            idx = tuple(values[p.block_id(j * d + o + 1)] for o in range(d))
            if j % 2 == 0:
                factor = t[idx]
            else:
                factor = t[idx[::-1]].conj().T
            mat = mat @ factor
        total += np.trace(mat)
    return total


def trace_sum_star_by_assignments(a, p):
    """Independent evaluation: loop over one letter and one phase per block;
    the position of rank q in its block carries star bit phase XOR (q mod 2)."""
    d = a.d
    m = p.n // (2 * d)
    t = a.dense()
    rank = {pos: q for b in p.blocks for q, pos in enumerate(b)}
    total = 0j
    for values in product(range(a.r), repeat=p.num_blocks):
        for phases in product((0, 1), repeat=p.num_blocks):
            mat = np.eye(a.alpha, dtype=complex)
            for j in range(2 * m):
                positions = [j * d + o + 1 for o in range(d)]
                idx = tuple(values[p.block_id(pos)] for pos in positions)
                stars = tuple(phases[p.block_id(pos)] ^ (rank[pos] % 2) for pos in positions)
                if j % 2 == 0:
                    factor = t[idx + stars]
                else:
                    flipped = tuple(1 - s for s in stars[::-1])
                    factor = t[idx[::-1] + flipped].conj().T
                mat = mat @ factor
            total += np.trace(mat)
    return total


def test_family_validation():
    with pytest.raises(ValueError):
        CoefficientFamily(2, 2, 1, {(1,): [[1.0]]})  # wrong tuple length
    with pytest.raises(ValueError):
        CoefficientFamily(1, 2, 1, {(3,): [[1.0]]})  # index out of range
    with pytest.raises(ValueError):
        CoefficientFamily(1, 2, 2, {(1,): [[1.0]]})  # wrong matrix shape


def test_flip_examples():
    rng = np.random.default_rng(0)
    a = random_family(1, 3, 2, rng)
    assert flip(a).entries.keys() == a.entries.keys()
    b = CoefficientFamily(2, 2, 1, {(1, 2): [[5.0]]})
    assert list(flip(b).entries) == [(2, 1)]
    for d in (2, 3, 4):
        a = random_family(d, 2, 1, rng)
        twice = flip(flip(a))
        assert all(np.allclose(twice.entries[k], a.entries[k]) for k in a.entries)


def test_build_Ml_shapes_and_identity_case():
    eye = CoefficientFamily(1, 1, 3, {(1,): np.eye(3)})
    for l in (0, 1):
        M = build_Ml(eye, l)
        assert np.allclose(M.matrix, np.eye(3))
    rng = np.random.default_rng(1)
    a = random_family(3, 2, 2, rng)
    for l in range(4):
        M = build_Ml(a, l)
        assert M.matrix.shape == (2 ** l * 2, 2 ** (3 - l) * 2)


def test_build_Ml_entries():
    a = CoefficientFamily(2, 2, 1, {(1, 2): [[3.0]], (2, 1): [[7.0]]})
    M1 = build_Ml(a, 1).matrix
    assert M1[0, 1] == 3.0 and M1[1, 0] == 7.0
    M0 = build_Ml(a, 0).matrix
    assert M0.shape == (1, 4)


def test_frobenius_identity():
    rng = np.random.default_rng(2)
    a = random_family(2, 3, 2, rng)
    frob = sum(np.sum(np.abs(m) ** 2) for m in a.entries.values())
    assert math.isclose(schatten_pow(build_Ml(a, 0), 1), frob, rel_tol=1e-12)
    assert math.isclose(schatten_pow(build_Ml(a, 2), 1), frob, rel_tol=1e-12)


def test_schatten_examples():
    assert schatten_pow(np.eye(5), 3) == 5
    assert schatten_pow(np.diag([2.0, 3.0]), 2) == 97
    assert math.isclose(schatten_norm(np.diag([2.0, 3.0]), 2), 97 ** 0.25, rel_tol=1e-15)
    with pytest.raises(ValueError):
        schatten_pow(np.eye(2), 0)


def test_schatten_against_singular_values():
    rng = np.random.default_rng(3)
    for _ in range(5):
        M = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        svals = np.linalg.svd(M, compute_uv=False)
        for m in (1, 2, 3):
            assert math.isclose(schatten_pow(M, m), float(np.sum(svals ** (2 * m))),
                                rel_tol=1e-10)


def test_stacking_trace_inequality():
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(4)]
        lhs = sum(schatten_pow(X, m) for X in mats)
        total = sum(X.conj().T @ X for X in mats)
        power = np.linalg.matrix_power(total, m)
        assert lhs <= power.trace().real * (1 + 1e-12)


def test_trace_sum_single_pair():
    rng = np.random.default_rng(5)
    a = random_family(1, 3, 2, rng)
    value = trace_sum(a, full(2))
    frob = sum(np.sum(np.abs(m) ** 2) for m in a.entries.values())
    assert math.isclose(value, frob, rel_tol=1e-12)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_trace_sum_matches_assignment_loop(d, m):
    rng = np.random.default_rng(6)
    a = random_family(d, 2, 2, rng)
    for p in enumerate_nc(2 * d * m):
        fast = trace_sum_complex(a, p)
        slow = trace_sum_by_assignments(a, p)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


def test_trace_sum_assignment_cap(monkeypatch):
    from ncfree import matrices

    rng = np.random.default_rng(7)
    a = random_family(1, 3, 1, rng)
    monkeypatch.setattr(matrices, "ASSIGNMENT_CAP", 10)
    with pytest.raises(ValueError):
        trace_sum(a, parse_partition("1|2|3|4|5|6", 6))


@pytest.mark.parametrize("d,m", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_identification_equalities(d, m):
    g = GridShape(d, m)
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = random_family(d, 3, 2, rng)
        for l in range(d + 1):
            lhs = trace_sum(a, level_terminal(g, l))
            rhs = schatten_pow(build_Ml(a, l), m)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3)])
def test_identification_tilde(d, m):
    g = GridShape(d, m)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_family(d, 3, 2, rng)
        t = a.dense()
        for l in range(1, d + 1):
            lhs = trace_sum(a, glued_level_terminal(g, l))
            # split the row blocks by the l-th slot: sum of Schatten powers
            # of the per-value compressions
            direct = 0.0
            for v in range(a.r):
                rows = t[(slice(None),) * (l - 1) + (v,)]
                perm = tuple(range(l - 1)) + (a.d - 1,) + tuple(range(l - 1, a.d - 1)) + (a.d,)
                mat = rows.transpose(perm).reshape(a.r ** (l - 1) * a.alpha,
                                                   a.r ** (a.d - l) * a.alpha)
                direct += schatten_pow(mat, m)
            assert abs(lhs - direct) <= 1e-9 * max(1.0, abs(direct))
            bound = schatten_pow(build_Ml(a, l), m)
            assert lhs <= bound * (1 + 1e-9)


def test_terminal_values_are_real_nonnegative():
    g = GridShape(2, 2)
    rng = np.random.default_rng(10)
    a = random_family(2, 2, 2, rng)
    for l in range(3):
        value = trace_sum_complex(a, level_terminal(g, l))
        assert abs(value.imag) <= 1e-10 * max(1.0, abs(value))
        assert value.real >= 0


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_partition_cauchy_schwarz(d, m):
    g = GridShape(d, m)
    rng = np.random.default_rng(11)
    members = list(enumerate_ncstar(g))
    for _ in range(3):
        a = random_family(d, 2, 2, rng)
        for p in members:
            lhs = abs(trace_sum_complex(a, p))
            for i in range(1, 2 * m + 1):
                left = trace_sum(a, symmetrize(p, d * i))
                right = trace_sum(a, symmetrize(p, (m + i) * d))
                assert lhs <= math.sqrt(max(left, 0) * max(right, 0)) * (1 + 1e-9) + 1e-9


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_exponent_bound(d, m):
    g = GridShape(d, m)
    rng = np.random.default_rng(12)
    members = list(enumerate_ncstar(g))
    for _ in range(3):
        a = random_family(d, 2, 2, rng)
        norms = [schatten_norm(build_Ml(a, l), m) for l in range(d + 1)]
        for p in members:
            bound = 1.0
            for norm, mu in zip(norms, level_exponents(p, g)):
                bound *= norm ** (2 * m * float(mu))
            assert abs(trace_sum_complex(a, p)) <= bound * (1 + 1e-9) + 1e-9


def test_holo_moment_scalar_circular():
    one = CoefficientFamily(1, 1, 1, {(1,): [[1.0]]})
    circ = CumulantSpec.circular()
    for m in (1, 2, 3, 4):
        assert math.isclose(holo_moment(one, circ, m), catalan(m), rel_tol=1e-12)
    assert math.isclose(holo_norm_2m(one, circ, 3), 5 ** (1 / 6), rel_tol=1e-12)


def test_holo_moment_m1_general_weight():
    # at m=1 the sum has a single partition with weight alpha_1^d
    rng = np.random.default_rng(13)
    a = random_family(2, 2, 2, rng)
    frob = sum(np.sum(np.abs(mat) ** 2) for mat in a.entries.values())
    circ = CumulantSpec.circular()
    assert math.isclose(holo_moment(a, circ, 1), frob, rel_tol=1e-12)
    spec = CumulantSpec.r_diagonal((2.0,))
    assert math.isclose(holo_moment(a, spec, 1), 4 * frob, rel_tol=1e-12)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_main_inequality_circular_and_haar(d, m):
    rng = np.random.default_rng(14)
    circ, haar = CumulantSpec.circular(), CumulantSpec.haar_unitary()
    for _ in range(5):
        a = random_family(d, 2, 2, rng)
        assert holo_norm_2m(a, circ, m) <= holo_rhs_bound(a, circ, m) * (1 + 1e-9)
        assert holo_norm_2m(a, haar, m) <= holo_rhs_bound(a, haar, m) * (1 + 1e-9)


def test_rhs_bound_formula():
    rng = np.random.default_rng(15)
    a = random_family(2, 2, 2, rng)
    norms = [schatten_norm(build_Ml(a, l), 2) for l in range(3)]
    expected = math.e * math.sqrt(2.0) * math.sqrt(sum(x * x for x in norms))
    assert math.isclose(holo_rhs_bound(a, CumulantSpec.circular(), 2), expected,
                        rel_tol=1e-12)
    haar_expected = 4 ** 5 * expected  # unit 2- and 2m-norms for a unitary
    assert math.isclose(holo_rhs_bound(a, CumulantSpec.haar_unitary(), 2),
                        haar_expected, rel_tol=1e-12)


def test_rhs_bound_operator_norm_form():
    rng = np.random.default_rng(16)
    a = random_family(2, 2, 2, rng)
    norms = [operator_norm(build_Ml(a, l).matrix) for l in range(3)]
    ell2 = math.sqrt(sum(x * x for x in norms))
    assert math.isclose(holo_rhs_bound(a, CumulantSpec.circular(), None),
                        math.sqrt(math.e) * ell2, rel_tol=1e-9)
    # unitary letters: unit 2-norm and unit operator norm leave 4^5 sqrt(e)
    assert math.isclose(holo_rhs_bound(a, CumulantSpec.haar_unitary(), None),
                        4 ** 5 * math.sqrt(math.e) * ell2, rel_tol=1e-9)


def test_scalar_block_norms_below_frobenius():
    # every block matrix norm of a scalar family sits below the l2 weight,
    # so the l2 combination is at most sqrt(d+1) times it
    rng = np.random.default_rng(28)
    for d in (1, 2, 3):
        a = random_family(d, 3, 1, rng)
        weight = math.sqrt(a.frobenius_sq())
        norms = [operator_norm(build_Ml(a, l).matrix) for l in range(d + 1)]
        assert all(x <= weight * (1 + 1e-12) for x in norms)
        assert math.sqrt(sum(x * x for x in norms)) <= math.sqrt(d + 1) * weight * (1 + 1e-12)


# ---------------------------------------------------------------------------
# star families


def test_star_family_support_validation():
    with pytest.raises(ValueError):
        StarCoefficientFamily(2, 2, 1, {((1, 1), (False, True)): [[1.0]]})
    fam = StarCoefficientFamily(2, 2, 1, {((1, 2), (False, True)): [[1.0]]})
    assert len(fam.entries) == 1


def test_star_embedding_reduces_to_plain():
    rng = np.random.default_rng(17)
    for d, m in [(1, 2), (2, 2)]:
        g = GridShape(d, m)
        a = random_family(d, 2, 2, rng)
        star = StarCoefficientFamily(
            d, 2, 2,
            {(key, (False,) * d): mat for key, mat in a.entries.items()})
        for p in enumerate_ncstar(g):
            lhs = trace_sum_star_complex(star, p)
            rhs = trace_sum_complex(a, p)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d,m", [(1, 2), (2, 1), (2, 2)])
def test_star_identifications(d, m):
    g = GridShape(d, m)
    rng = np.random.default_rng(18)
    for _ in range(3):
        a = random_star_family(d, 2, 2, rng)
        for l in range(d + 1):
            lhs = trace_sum_star(a, level_terminal(g, l))
            rhs = schatten_pow(build_Ml_star(a, l), m)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        for l in range(1, d + 1):
            lhs = trace_sum_star(a, glued_level_terminal(g, l))
            rhs = schatten_pow(build_Ml_star(a, l), m)
            assert lhs <= rhs * (1 + 1e-9)


@pytest.mark.parametrize("d,m", [(1, 2), (2, 2)])
def test_star_cauchy_schwarz(d, m):
    g = GridShape(d, m)
    rng = np.random.default_rng(19)
    a = random_star_family(d, 2, 2, rng)
    for p in enumerate_ncdm(g):
        lhs = abs(trace_sum_star_complex(a, p))
        for i in range(1, 2 * m + 1):
            left = trace_sum_star(a, symmetrize(p, d * i))
            right = trace_sum_star(a, symmetrize(p, (m + i) * d))
            assert lhs <= math.sqrt(max(left, 0) * max(right, 0)) * (1 + 1e-9) + 1e-9


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (2, 2), (3, 1)])
def test_star_trace_sum_matches_assignment_loop(d, m):
    g = GridShape(d, m)
    members = [p for p in enumerate_ncdm(g) if all(len(b) % 2 == 0 for b in p.blocks)]
    star_even = (p for p in enumerate_ncstar(g) if all(len(b) % 2 == 0 for b in p.blocks))
    members += list(islice(star_even, 100))
    rng = np.random.default_rng(40 + 10 * d + m)
    for r in (1, 2, 3):
        for alpha in (1, 2):
            a = random_star_family(d, r, alpha, rng)
            for p in members:
                fast = trace_sum_star_complex(a, p)
                slow = trace_sum_star_by_assignments(a, p)
                assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow)), (r, alpha, p)


def test_star_odd_blocks_rejected():
    rng = np.random.default_rng(20)
    a = random_star_family(1, 2, 1, rng)
    with pytest.raises(ValueError):
        trace_sum_star(a, parse_partition("1|2,3,4", 4))


# ---------------------------------------------------------------------------
# non-holomorphic bounds


def test_nonholo_semicircular_bound():
    rng = np.random.default_rng(21)
    semi = CumulantSpec.semicircular()
    for d, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(5):
            a = random_adjacent_distinct_family(d, 3, 2, rng)
            lhs = nonholo_norm_2m(a, semi, m)
            assert lhs <= nonholo_rhs_bound(a, semi, m) * (1 + 1e-9)


def test_nonholo_rdiag_bound():
    rng = np.random.default_rng(22)
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary()):
        for d, m in [(1, 2), (2, 2)]:
            for _ in range(5):
                a = random_star_family(d, 2, 2, rng)
                lhs = nonholo_norm_2m(a, spec, m)
                assert lhs <= nonholo_rhs_bound(a, spec, m) * (1 + 1e-9)


def test_nonholo_rejects_adjacent_support():
    bad = CoefficientFamily(2, 2, 1, {(1, 1): [[1.0]]})
    with pytest.raises(ValueError):
        nonholo_moment(bad, CumulantSpec.semicircular(), 1)


def test_nonholo_rejects_holomorphic_preset_for_plain_family():
    rng = np.random.default_rng(23)
    a = random_adjacent_distinct_family(2, 2, 1, rng)
    with pytest.raises(ValueError):
        nonholo_moment(a, CumulantSpec.circular(), 1)


def test_nonholo_semicircular_d1_single_letter():
    one = CoefficientFamily(1, 1, 1, {(1,): [[1.0]]})
    semi = CumulantSpec.semicircular()
    for m in (1, 2, 3):
        assert math.isclose(nonholo_moment(one, semi, m), catalan(m), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# prime family


def test_prime_family_requires_prime():
    with pytest.raises(ValueError):
        prime_family(6, 2)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (5, 3)])
def test_prime_family_properties(p, d):
    fam = prime_family(p, d)
    assert abs(fam.frobenius_sq() - p ** d) < 1e-9
    for l in range(1, d):
        M = build_Ml(fam, l).matrix
        gram = M @ M.conj().T
        assert np.max(np.abs(gram - prime_family_gram(p, d, l))) < 1e-10
        smax = operator_norm(M)
        assert smax ** 2 <= (d - 1) * p ** (d - 1) + 1e-8


def test_prime_family_equality_case():
    fam = prime_family(3, 2)
    M1 = build_Ml(fam, 1).matrix
    assert np.allclose(M1 @ M1.conj().T, 3 * np.eye(3))
    assert math.isclose(operator_norm(M1), math.sqrt(3), rel_tol=1e-10)


# ---------------------------------------------------------------------------
# power iteration and file format


def test_power_iteration_against_svd():
    rng = np.random.default_rng(24)
    for shape in [(3, 3), (4, 6), (6, 2)]:
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        exact = float(np.linalg.svd(M, compute_uv=False)[0])
        assert math.isclose(operator_norm(M), exact, rel_tol=1e-8)


def test_operator_norm_is_largest_singular_value():
    rng = np.random.default_rng(28)
    for shape in [(1, 1), (3, 3), (4, 6), (6, 2), (16, 8)]:
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        exact = float(np.linalg.svd(M, compute_uv=False)[0])
        assert math.isclose(operator_norm(M), exact, rel_tol=1e-12)
    a = random_family(3, 2, 2, rng)
    for l in range(4):
        M = build_Ml(a, l)
        exact = float(np.linalg.svd(M.matrix, compute_uv=False)[0])
        assert math.isclose(operator_norm(M), exact, rel_tol=1e-12)


def test_roundtrip_family_file(tmp_path):
    rng = np.random.default_rng(25)
    a = random_family(2, 2, 2, rng)
    path = str(tmp_path / "fam.txt")
    save_family(a, path)
    b = load_family(path)
    assert isinstance(b, CoefficientFamily)
    assert b.d == a.d and b.r == a.r and b.alpha == a.alpha
    for key, mat in a.entries.items():
        assert np.allclose(b.entries[key], mat)


def test_roundtrip_star_family_file(tmp_path):
    rng = np.random.default_rng(26)
    a = random_star_family(2, 2, 2, rng)
    path = str(tmp_path / "star.txt")
    save_family(a, path)
    b = load_family(path)
    assert isinstance(b, StarCoefficientFamily)
    assert set(b.entries) == set(a.entries)
    for key, mat in a.entries.items():
        assert np.allclose(b.entries[key], mat)


def test_load_family_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        load_family(str(path))
    path.write_text("1 1 1\n1 0.5\n")
    with pytest.raises(ValueError):
        load_family(str(path))


@pytest.mark.parametrize("text,line", [
    ("1 2 1\n1 1,0\n2 nan,0\n", 3),
    ("1 2 1\n1 1,0\n# note\n2 0,inf\n", 4),
    ("1 2 1\n1 1,0\n1 5,0\n", 3),
    ("1 2 1\n1 1,0 2,0\n", 2),
    ("2 2 1\n1 1,0\n", 2),
    ("1 2 1 star\n1 1,0\n", 2),
    ("1 2 1 star\n1 * 1,0\n1 * 2,0\n", 3),
    ("2 2 1 star\n1 2 1* 1,0\n1 1 1* 1,0\n", 3),
    ("1 0 1\n", 1),
])
def test_load_family_rejects_bad_records(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="line %d:" % line):
        load_family(str(path))


def test_ml_norms_dispatch():
    rng = np.random.default_rng(27)
    a = random_family(2, 2, 1, rng)
    s = random_star_family(1, 2, 1, rng)
    assert len(ml_norms(a, 2)) == 3
    assert len(ml_norms(s, 1)) == 2


def test_load_family_skips_indented_comments(tmp_path):
    rng = np.random.default_rng(28)
    a = random_star_family(2, 2, 1, rng)
    plain = tmp_path / "plain.txt"
    save_family(a, str(plain))
    head, *records = plain.read_text().splitlines(keepends=True)
    noted = tmp_path / "noted.txt"
    noted.write_text("  # a note before the header\n" + head + "\t# between records\n"
                     + "".join(records) + "   #\n")
    b, c = load_family(str(plain)), load_family(str(noted))
    assert type(b) is type(c) and (b.d, b.r, b.alpha) == (c.d, c.r, c.alpha)
    assert set(b.entries) == set(c.entries)
    for key, mat in b.entries.items():
        assert np.array_equal(c.entries[key], mat)


def test_schatten_norm_of_a_wide_matrix_equals_that_of_its_adjoint():
    rng = np.random.default_rng(31)
    wide = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
    for m in (1, 2, 3, 5):
        assert math.isclose(schatten_norm(wide, m), schatten_norm(wide.conj().T, m),
                            rel_tol=1e-12)


def test_block_matrix_cap_is_on_the_smaller_side(monkeypatch):
    from ncfree import matrices

    plain = random_family(2, 2, 1, np.random.default_rng(32))
    star = random_star_family(2, 1, 1, np.random.default_rng(33))
    # M_0 is 1 x 4 and M_1 is 2 x 2, for both families
    monkeypatch.setattr(matrices, "DIMENSION_CAP", 2)
    for build, fam in ((build_Ml, plain), (build_Ml_star, star)):
        assert build(fam, 0).matrix.shape == (1, 4)
        assert build(fam, 2).matrix.shape == (4, 1)
        assert build(fam, 1).matrix.shape == (2, 2)
    monkeypatch.setattr(matrices, "DIMENSION_CAP", 1)
    for build, fam in ((build_Ml, plain), (build_Ml_star, star)):
        assert build(fam, 0).matrix.shape == (1, 4)
        with pytest.raises(ValueError, match="exceeds cap 1"):
            build(fam, 1)


def einsum_reference(p, d, m, tensor_of):
    """The trace sum as one einsum over all 2m group tensors, its contraction
    path searched by numpy."""
    nb = p.num_blocks
    operands = []
    for j in range(2 * m):
        subs = [p.block_id(j * d + o + 1) for o in range(d)]
        subs += [nb + j, nb + (j + 1) % (2 * m)]
        operands.extend([tensor_of(j), subs])
    return complex(np.einsum(*operands, [], optimize=True))


def assert_contraction_matches_reference(monkeypatch, trace_of, partitions):
    from ncfree import matrices

    ring_order = [trace_of(p) for p in partitions]
    monkeypatch.setattr(matrices, "_contract", einsum_reference)
    for p, value in zip(partitions, ring_order):
        reference = trace_of(p)
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference)), p


@pytest.mark.parametrize("d,m,r,alpha", [(1, 1, 3, 2), (1, 2, 3, 2), (1, 3, 3, 2),
                                         (1, 4, 3, 1), (1, 4, 2, 2), (2, 1, 3, 2),
                                         (2, 2, 2, 2)])
def test_trace_sum_matches_einsum_reference_on_every_partition(monkeypatch, d, m, r, alpha):
    a = random_family(d, r, alpha, np.random.default_rng(40 + 10 * d + m))
    partitions = list(all_set_partitions(2 * d * m))  # crossing ones included
    assert_contraction_matches_reference(monkeypatch, lambda p: trace_sum_complex(a, p),
                                         partitions)


@pytest.mark.parametrize("d,m,r,alpha", [(1, 1, 3, 2), (1, 2, 3, 2), (1, 3, 2, 2),
                                         (1, 4, 2, 2), (2, 1, 3, 2), (2, 2, 2, 1)])
def test_star_trace_sum_matches_einsum_reference_on_even_block_partitions(
        monkeypatch, d, m, r, alpha):
    a = random_star_family(d, r, alpha, np.random.default_rng(50 + 10 * d + m))
    partitions = [p for p in all_set_partitions(2 * d * m)
                  if all(len(b) % 2 == 0 for b in p.blocks)]
    assert_contraction_matches_reference(monkeypatch, lambda p: trace_sum_star_complex(a, p),
                                         partitions)


def test_assignment_cap_raises_before_any_einsum(monkeypatch):
    from ncfree import matrices

    plain = random_family(1, 3, 1, np.random.default_rng(7))
    star = random_star_family(1, 2, 1, np.random.default_rng(8))

    def never(*args, **kwargs):
        raise AssertionError("an einsum ran before the assignment cap check")

    monkeypatch.setattr(np, "einsum", never)
    monkeypatch.setattr(matrices, "ASSIGNMENT_CAP", 10)
    with pytest.raises(ValueError, match="exceeds cap 10"):
        trace_sum_complex(plain, parse_partition("1|2|3|4|5|6", 6))
    with pytest.raises(ValueError, match="exceeds cap 10"):
        trace_sum_star_complex(star, parse_partition("1,2|3,4|5,6", 6))


def _walk_orders(members):
    """The members in enumeration order, reversed, and with the middle one
    repeated, so that one member shares its whole ring with the last."""
    middle = len(members) // 2
    return {"enumeration": members, "reversed": members[::-1],
            "repeated": members[:middle + 1] + members[middle:]}


@pytest.mark.parametrize("order", ["enumeration", "reversed", "repeated"])
@pytest.mark.parametrize("d,m", [(1, 3), (1, 4), (2, 2)])
def test_ring_walk_equals_the_one_member_contraction(d, m, order):
    from ncfree.matrices import _contract, _group_tensors, _ring_walk

    groups = _group_tensors(random_family(d, 2, 2, np.random.default_rng(70 + 10 * d + m)))

    def tensor_of(j):
        return groups[j % 2]

    members = list(all_set_partitions(2 * d * m))  # crossing ones included
    walk = _ring_walk(d, m, tensor_of)
    for p in _walk_orders(members)[order]:
        value, alone = walk(p), _contract(p, d, m, tensor_of)
        assert type(value) is type(alone) and value == alone, p


@pytest.mark.parametrize("order", ["enumeration", "reversed", "repeated"])
@pytest.mark.parametrize("d,m", [(1, 3), (1, 4), (2, 2)])
def test_star_ring_walk_equals_the_one_member_star_trace_sum(d, m, order):
    # one walk over a star family's members, each with its own star swaps,
    # shares ring prefixes yet gives each member's trace sum exactly
    from ncfree.matrices import _group_tensors, _member_tensors, _ring_walk

    a = random_star_family(d, 2, 2, np.random.default_rng(90 + 10 * d + m))
    groups, swapped = _group_tensors(a), {}
    members = [p for p in all_set_partitions(2 * d * m)  # crossing ones included
               if all(len(b) % 2 == 0 for b in p.blocks)]
    walk = _ring_walk(d, m, lambda j: groups[j % 2])
    for p in _walk_orders(members)[order]:
        value = walk(p, _member_tensors(a, groups, swapped, p))
        alone = trace_sum_star_complex(a, p)
        assert type(value) is type(alone) and value == alone, p
    assert len(swapped) <= 2 * 2 ** d


@pytest.mark.parametrize("m", [0, -1])
def test_moments_need_m_at_least_1(m):
    circ, semi = CumulantSpec.circular(), CumulantSpec.semicircular()
    plain = random_family(1, 2, 2, np.random.default_rng(60))
    distinct = random_adjacent_distinct_family(2, 2, 2, np.random.default_rng(61))
    star = random_star_family(1, 2, 2, np.random.default_rng(62))
    calls = [lambda: planar_sum(plain, circ, m),
             lambda: holo_moment(plain, circ, m),
             lambda: holo_moment(plain, CumulantSpec.haar_unitary(), m),
             lambda: holo_norm_2m(plain, circ, m),
             lambda: nonholo_moment(distinct, semi, m),
             lambda: nonholo_moment(star, circ, m),
             lambda: nonholo_norm_2m(star, circ, m)]
    for call in calls:
        with pytest.raises(ValueError, match="need m >= 1"):
            call()


@pytest.mark.parametrize("cap", [None, 0], ids=["recursion", "enumeration"])
def test_holomorphic_moments_reject_a_star_family(monkeypatch, cap):
    # the holomorphic statement is about plain families; a star family must
    # not get one answer from the recursion and another from the enumeration
    from ncfree import matrices

    if cap is not None:
        monkeypatch.setattr(matrices, "MOMENT_DP_CAP", cap)
    monkeypatch.setattr(matrices, "_unit_moment", lambda *args: pytest.fail("work was done"))
    star = random_star_family(2, 2, 2, np.random.default_rng(1))
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary()):
        for call in (holo_moment, holo_norm_2m):
            with pytest.raises(ValueError, match="star family"):
                call(star, spec, 2)


def test_schatten_norm_of_a_flat_spectrum_at_large_m():
    # at unit Frobenius norm each of the four singular values is 1/2, so the
    # unscaled power Tr((M^* M)^600) = 4^-599 underflows to 0
    assert math.isclose(schatten_norm(np.eye(4), 600), 4 ** (1 / 1200), rel_tol=1e-12)
    assert math.isclose(schatten_norm(1e200 * np.eye(4), 600), 1e200 * 4 ** (1 / 1200),
                        rel_tol=1e-12)


def test_rhs_bounds_of_an_identity_family_at_large_m_are_finite():
    # the one-record family 1 1 4 holding the 4 x 4 identity: M_0 and M_1
    # are both the identity
    from ncfree.cumulants import CumulantSpec

    a = CoefficientFamily(1, 1, 4, {(1,): np.eye(4)})
    for value in ml_norms(a, 600):
        assert math.isclose(value, 4 ** (1 / 1200), rel_tol=1e-12)
    semi = CumulantSpec.semicircular()
    for bound in (holo_rhs_bound(a, semi, 600), nonholo_rhs_bound(a, semi, 600)):
        assert math.isfinite(bound) and bound > 0
