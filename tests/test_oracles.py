import math
import time

import numpy as np
import pytest

from conftest import reference_brute_moment
from ncfree import matrices, oracles
from ncfree.cumulants import CumulantSpec
from ncfree.matrices import (
    CoefficientFamily,
    build_Ml,
    holo_moment,
    nonholo_moment,
    operator_norm,
    random_adjacent_distinct_family,
    random_family,
    random_star_family,
)
from ncfree.oracles import (
    FockSpace,
    _FamilyOperator,
    adjoint_element,
    brute_moment,
    convolve,
    family_group_element,
    fock_moment,
    fock_norm_estimate,
    free_group_moment,
    trace_pairing,
    word_inverse,
)


def dense_op(space, action):
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    for i in range(space.dimension):
        v = np.zeros(space.dimension, dtype=complex)
        v[i] = 1.0
        mat[:, i] = action(v)
    return mat


def test_fock_space_basis():
    space = FockSpace(2, 2)
    assert space.dimension == 1 + 2 + 4
    assert space.basis[0] == ()
    assert space.index[(1, 0)] == space.basis.index((1, 0))


def test_fock_creation_annihilation_are_adjoint():
    space = FockSpace(3, 2)
    for letter in range(3):
        c = dense_op(space, lambda v, l=letter: space.create(l, v))
        a = dense_op(space, lambda v, l=letter: space.annihilate(l, v))
        assert np.allclose(a, c.conj().T)
        # creation maps depth j to depth j+1 and dies at the cap
        top = np.zeros(space.dimension, dtype=complex)
        top[space.index[(0, 0)]] = 1.0
        assert np.allclose(space.create(letter, top), 0.0)


def test_fock_moment_scalar_examples():
    one = CoefficientFamily(1, 1, 1, {(1,): [[1.0]]})
    assert math.isclose(fock_moment(one, "circular", 1), 1.0, rel_tol=1e-12)
    assert math.isclose(fock_moment(one, "circular", 2), 2.0, rel_tol=1e-12)
    assert math.isclose(fock_moment(one, "circular", 3), 5.0, rel_tol=1e-12)
    assert math.isclose(fock_moment(one, "semicircular", 2), 2.0, rel_tol=1e-12)


def test_fock_truncation_is_lossless():
    rng = np.random.default_rng(0)
    a = random_family(2, 2, 2, rng)
    for m in (1, 2):
        base = fock_moment(a, "circular", m)
        deeper = fock_moment(a, "circular", m, depth=a.d * m + 1)
        assert math.isclose(base, deeper, rel_tol=1e-12)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_fock_agrees_with_cumulant_engine(d, m):
    rng = np.random.default_rng(1)
    circ = CumulantSpec.circular()
    for _ in range(3):
        a = random_family(d, 2, 2, rng)
        lhs = holo_moment(a, circ, m)
        rhs = fock_moment(a, "circular", m)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d,m", [(1, 2), (2, 1), (2, 2)])
def test_fock_semicircular_agrees(d, m):
    rng = np.random.default_rng(2)
    semi = CumulantSpec.semicircular()
    a = random_adjacent_distinct_family(d, 3, 2, rng)
    lhs = nonholo_moment(a, semi, m)
    rhs = fock_moment(a, "semicircular", m)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_fock_norm_estimate_dominates_block_norms():
    rng = np.random.default_rng(3)
    for d in (1, 2):
        for _ in range(3):
            a = random_family(d, 2, 2, rng)
            est = fock_norm_estimate(a, "circular")
            worst = max(operator_norm(build_Ml(a, l).matrix) for l in range(d + 1))
            assert worst <= est + 1e-6


def dense_fock_norm(a, kind, depth):
    """Largest singular value of the operator built column by column."""
    op = _FamilyOperator(a, kind, depth)
    mat = np.zeros((op.dim, op.dim), dtype=complex)
    for j in range(op.dim):
        e = np.zeros(op.dim, dtype=complex)
        e[j] = 1.0
        mat[:, j] = op.apply(e.reshape(a.alpha, -1)).ravel()
    return float(np.linalg.svd(mat, compute_uv=False)[0])


@pytest.mark.parametrize("kind", ["circular", "semicircular"])
@pytest.mark.parametrize("d,r,depth", [(1, 1, None), (1, 2, None), (2, 1, None), (2, 2, None),
                                       (3, 1, None), (2, 2, 3)])
@pytest.mark.parametrize("alpha", [1, 2])
def test_fock_norm_estimate_is_exact(kind, d, r, depth, alpha):
    rng = np.random.default_rng(100 * d + 10 * r + alpha)
    a = random_family(d, r, alpha, rng)
    exact = dense_fock_norm(a, kind, depth or 2 * d)
    assert math.isclose(fock_norm_estimate(a, kind, depth), exact, rel_tol=1e-12)


def test_fock_norm_block_past_cap_raises(monkeypatch):
    a = CoefficientFamily(2, 2, 1, {(1, 1): [[1.0]], (2, 1): [[0.5]]})
    # the first block found takes 7 words to 12 and fits; a later one takes
    # 12 words to 25 and does not, so no block may be built at all
    monkeypatch.setattr(matrices, "DIMENSION_CAP", 24)

    def never(M):
        raise AssertionError("a dense block was built before the cap check")

    monkeypatch.setattr(oracles, "operator_norm", never)
    with pytest.raises(ValueError, match="exceeds cap 24"):
        fock_norm_estimate(a, "circular")


# the per-word construction took 41 s here; the support triples take well
# under a second, and the budget leaves room for a loaded host
FOCK_D3_BUDGET_S = 10.0


@pytest.mark.parametrize("kind", ["circular", "semicircular"])
def test_fock_norm_estimate_at_d3_dominates_block_norms(kind):
    # criterion 12 at d = 3: 5461 words under the circular kind
    a = random_family(3, 2, 2, np.random.default_rng(12))
    start = time.perf_counter()
    est = fock_norm_estimate(a, kind)
    assert time.perf_counter() - start < FOCK_D3_BUDGET_S
    worst = max(operator_norm(build_Ml(a, l).matrix) for l in range(a.d + 1))
    assert worst <= est + 1e-6


@pytest.mark.parametrize("kind,keys", [
    ("circular", [(1, 2), (2, 1)]),
    ("circular", [(1, 1), (2, 1), (2, 2)]),
    ("semicircular", [(1, 2), (2, 1)]),
    ("semicircular", [(1, 2, 1), (2, 1, 2)]),
    ("semicircular", [(2, 1, 1), (1, 2, 2), (1, 1, 1)]),
])
def test_fock_norm_estimate_of_a_sparse_family_is_exact(kind, keys):
    rng = np.random.default_rng(len(keys) * 7 + len(keys[0]))
    a = CoefficientFamily(len(keys[0]), 2, 2, {
        key: rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) for key in keys})
    exact = dense_fock_norm(a, kind, 2 * a.d)
    assert math.isclose(fock_norm_estimate(a, kind), exact, rel_tol=1e-12)


def test_convolve_cap_is_read_when_called(monkeypatch):
    x = {(1,): np.eye(1), (2,): np.eye(1)}
    monkeypatch.setattr(oracles, "GROUP_SUPPORT_CAP", 3)
    with pytest.raises(ValueError, match="exceeds cap 3"):
        convolve(x, x)
    assert len(convolve(x, {(): np.eye(1)})) == 2


def test_word_reduction():
    assert word_inverse((1, 2)) == (-2, -1)
    x = {(1, 2): np.eye(1)}
    y = {(-2, 3): 2 * np.eye(1)}
    z = convolve(x, y)
    assert set(z) == {(1, 3)}
    assert z[(1, 3)][0, 0] == 2


def test_group_algebra_identities():
    rng = np.random.default_rng(4)
    # associativity and traciality on random supports
    words = [(1,), (2, -1), (-2,), (1, 1), ()]
    def rand_elem():
        return {w: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for w in words}
    x, y, z = rand_elem(), rand_elem(), rand_elem()
    left = convolve(convolve(x, y), z)
    right = convolve(x, convolve(y, z))
    assert set(left) == set(right)
    for w in left:
        assert np.allclose(left[w], right[w])
    txy = trace_pairing(x, y)
    tyx = trace_pairing(y, x)
    assert abs(txy - tyx) < 1e-10 * max(1.0, abs(txy))


def test_free_group_unitarity():
    one = CoefficientFamily(1, 1, 1, {(1,): [[1.0]]})
    for m in (1, 2, 3, 4):
        assert math.isclose(free_group_moment(one, m), 1.0, rel_tol=1e-12)


def test_free_group_two_letters():
    fam = CoefficientFamily(1, 2, 1, {(1,): [[1.0]], (2,): [[1.0]]})
    assert math.isclose(free_group_moment(fam, 1), 2.0, rel_tol=1e-12)
    elem = family_group_element(fam)
    x = convolve(elem, adjoint_element(elem))
    assert set(x) == {(), (1, -2), (2, -1)}
    assert x[()][0, 0] == 2


@pytest.mark.parametrize("d,m,r", [(1, 2, 2), (1, 3, 3), (2, 2, 3), (2, 3, 2)])
def test_free_group_agrees_with_cumulant_engine(d, m, r):
    rng = np.random.default_rng(5)
    haar = CumulantSpec.haar_unitary()
    for _ in range(2):
        a = random_family(d, r, 2, rng)
        lhs = holo_moment(a, haar, m)
        rhs = free_group_moment(a, m)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_brute_zero_family():
    zero = CoefficientFamily(1, 2, 2, {})
    assert brute_moment(CumulantSpec.circular(), zero, 2) == 0.0


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_brute_agrees_holomorphic(d, m):
    rng = np.random.default_rng(6)
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary()):
        a = random_family(d, 2, 2, rng)
        lhs = holo_moment(a, spec, m)
        rhs = brute_moment(spec, a, m)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d,m", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_brute_agrees_semicircular(d, m):
    rng = np.random.default_rng(7)
    semi = CumulantSpec.semicircular()
    a = random_adjacent_distinct_family(d, 3, 2, rng)
    lhs = nonholo_moment(a, semi, m)
    rhs = brute_moment(semi, a, m)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_brute_cap():
    rng = np.random.default_rng(8)
    a = random_family(2, 2, 1, rng)
    with pytest.raises(ValueError):
        brute_moment(CumulantSpec.circular(), a, 4)


def test_brute_contracts_each_shared_ring_prefix_once(monkeypatch):
    # the 273 support members of d=1, m=5 under Haar take 10 einsums each
    # when contracted one by one; in support order they share ring prefixes
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(1) or real(*args))
    a = random_family(1, 2, 2, np.random.default_rng(0))
    value = brute_moment(CumulantSpec.haar_unitary(), a, 5)
    assert len(calls) == 1380
    assert value == reference_brute_moment(CumulantSpec.haar_unitary(), a, 5)


def test_brute_checks_the_assignment_cap_before_any_einsum(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an einsum ran before the assignment cap check")

    monkeypatch.setattr(np, "einsum", never)
    monkeypatch.setattr(matrices, "ASSIGNMENT_CAP", 1)  # 2^blocks > 1 for every member
    a = random_family(1, 2, 2, np.random.default_rng(1))
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary()):
        with pytest.raises(ValueError, match="exceeds cap 1"):
            brute_moment(spec, a, 2)


def test_oracle_moments_reject_a_star_family(monkeypatch):
    # each oracle realizes a plain family; a star family must not get a number
    for name in ("_kappa_support", "convolve", "_FamilyOperator"):
        monkeypatch.setattr(oracles, name, lambda *args: pytest.fail("work was done"))
    star = random_star_family(1, 2, 2, np.random.default_rng(0))
    calls = [lambda spec=spec: brute_moment(spec, star, 2) for spec in (
        CumulantSpec.circular(), CumulantSpec.haar_unitary(), CumulantSpec.semicircular())]
    calls += [lambda: free_group_moment(star, 2), lambda: fock_moment(star, "circular", 2),
              lambda: fock_norm_estimate(star)]
    for call in calls:
        with pytest.raises(ValueError, match="take a plain family, not a star family"):
            call()


@pytest.mark.parametrize("m", [0, -1])
def test_oracle_moments_need_m_at_least_1(m):
    plain = random_family(1, 2, 2, np.random.default_rng(60))
    distinct = random_adjacent_distinct_family(2, 2, 2, np.random.default_rng(61))
    calls = [lambda: brute_moment(CumulantSpec.circular(), plain, m),
             lambda: brute_moment(CumulantSpec.semicircular(), distinct, m),
             lambda: free_group_moment(plain, m),
             lambda: fock_moment(plain, "circular", m)]
    for call in calls:
        with pytest.raises(ValueError, match="need m >= 1"):
            call()


def _same_as_full_nc_sum(spec, a, m):
    value = brute_moment(spec, a, m)
    reference = reference_brute_moment(spec, a, m)
    assert type(value) is type(reference) and value == reference, (spec, a.d, m)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_brute_over_the_support_equals_the_full_nc_sum_holomorphic(d, m):
    # the families of test_brute_agrees_holomorphic, compared exactly
    rng = np.random.default_rng(6)
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary()):
        _same_as_full_nc_sum(spec, random_family(d, 2, 2, rng), m)


@pytest.mark.parametrize("d,m", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_brute_over_the_support_equals_the_full_nc_sum_semicircular(d, m):
    # the families of test_brute_agrees_semicircular, compared exactly
    a = random_adjacent_distinct_family(d, 3, 2, np.random.default_rng(7))
    _same_as_full_nc_sum(CumulantSpec.semicircular(), a, m)


def test_brute_over_the_support_equals_the_full_nc_sum_at_the_cap():
    # 2dm = 12 = BRUTE_GROUND_CAP, where the full sum weighs 208012 members
    a = random_family(2, 2, 2, np.random.default_rng(9))
    _same_as_full_nc_sum(CumulantSpec.haar_unitary(), a, 3)
