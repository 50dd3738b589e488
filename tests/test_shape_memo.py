"""What a moment call computes once per shape or spec value, what it reads
once per family, and the stepped-row recursion against the verbatim
references in conftest."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import reference_planar_sum
from ncfree import matrices
from ncfree.cumulants import CumulantSpec, _ByValue, _kept_bound_norms
from ncfree.matrices import (
    _Ring,
    _check_adjacent_support,
    _ring_positions,
    _ring_shape,
    _weight_table,
    holo_moment,
    holo_rhs_bound,
    ml_norms,
    nonholo_moment,
    nonholo_rhs_bound,
    planar_sum,
    random_adjacent_distinct_family,
    random_family,
    random_star_family,
)
from test_planar import INTERVAL_CELLS, STAR_CELLS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = {"circular": CumulantSpec.circular(), "haar": CumulantSpec.haar_unitary(),
         "semicircle": CumulantSpec.semicircular(),
         "rdiag": CumulantSpec.from_name("rdiag:1,-0.5,0.25")}
MEMOS = (_ring_shape, _ring_positions, _weight_table, _kept_bound_norms)


def _cases(d, m, rng):
    """(family, spec name) of each kind the recursion reads: plain families
    under every preset, star families under those with a determining
    sequence, and adjacent-distinct families under the semicircle; each at
    unit norm, with a dense tensor of at most 2^12 entries."""
    out = []
    for alpha in (1, 2):
        kinds = [(random_family(d, 2, alpha, rng), SPECS),
                 (random_adjacent_distinct_family(d, 3, alpha, rng), ["semicircle"])]
        if 4 ** d * alpha * alpha <= 2 ** 12:
            kinds.append((random_star_family(d, 2, alpha, rng),
                          ["circular", "haar", "rdiag"]))
        for a, names in kinds:
            if a.entries and a.letters ** d * alpha * alpha <= 2 ** 12:
                out += [(a.scaled(1 / a.frobenius()), name) for name in names]
    return out


@pytest.mark.parametrize("d,m", sorted(set(STAR_CELLS) | set(INTERVAL_CELLS)))
def test_a_warm_memo_gives_what_a_cleared_one_gives(d, m):
    for a, name in _cases(d, m, np.random.default_rng(30 * d + m)):
        spec = SPECS[name]
        try:
            for memo in MEMOS:
                memo.cache_clear()
            cold = planar_sum(a, spec, m)
        except ValueError as exc:  # past MOMENT_DP_CAP, warm or cold
            with pytest.raises(ValueError, match=str(exc)):
                planar_sum(a, spec, m)
            continue
        assert planar_sum(a, spec, m) == cold, (name, a)


def test_an_equal_spec_builds_no_new_plan():
    a = random_star_family(2, 2, 2, np.random.default_rng(31))
    spec = CumulantSpec.from_name("rdiag:1,-0.5,0.25")
    first = (planar_sum(a, spec, 3), nonholo_rhs_bound(a, spec, 3))
    built = [memo.cache_info().misses for memo in MEMOS]
    equal = CumulantSpec.from_name("rdiag:1,-0.5,0.25")
    again = (planar_sum(a, equal, 3), nonholo_rhs_bound(a, equal, 3))
    assert again == first
    assert [memo.cache_info().misses for memo in MEMOS] == built
    # the same values as other types are other values: ints give exact norms
    ints = CumulantSpec.r_diagonal([1, -0.5, 0.25])
    planar_sum(a, ints, 3)
    nonholo_rhs_bound(a, ints, 3)
    misses = [memo.cache_info().misses for memo in MEMOS]
    assert misses == [built[0], built[1], built[2] + 1, built[3] + 1]


def test_the_memo_holds_read_only_values():
    a = random_family(2, 2, 2, np.random.default_rng(32))
    ring = _Ring(a, SPECS["haar"], 3)
    ring.fill(matrices._group_tensors(a))
    for array in (ring.at, ring.bond, _weight_table(_ByValue(SPECS["rdiag"]), 6, False)):
        with pytest.raises(ValueError):
            array[0] = 1
    shape, positions = _ring_shape(2, 3, 2, 2, False, "haar"), _ring_positions(2, 3, 2, 2)
    for layout in (shape, positions):
        with pytest.raises(TypeError):
            layout["entries"] = 0
    # what fill adds is the ring's own
    assert "periods" not in shape and "periods" not in positions
    assert _Ring(a, SPECS["haar"], 3).entries == ring.entries


def _fail(*args):
    raise AssertionError("work done before the cap check")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_ring_past_the_cap_costs_o_of_d(name, monkeypatch):
    # no list per position, no site tensor and no dense tensor before the
    # entries are compared with MOMENT_DP_CAP, however large m is
    for target in ("_ring_positions", "_split_group", "_group_tensors"):
        monkeypatch.setattr(matrices, target, _fail)
    monkeypatch.setattr(matrices._Family, "tensor", _fail)
    rng = np.random.default_rng(35)
    plain = random_family(2, 2, 2, rng)
    other = (random_adjacent_distinct_family(2, 3, 2, rng) if name == "semicircle"
             else random_star_family(2, 2, 2, rng))
    spec, m = SPECS[name], 10 ** 9
    for call in (lambda: planar_sum(plain, spec, m), lambda: planar_sum(other, spec, m),
                 lambda: holo_moment(plain, spec, m), lambda: nonholo_moment(other, spec, m)):
        with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
            call()


def test_moments_past_the_cap_build_no_dense_tensor(monkeypatch):
    # r = 2000 letters at d = 3: the dense tensor would hold 8e9 entries,
    # and 2dm = 30 is past both enumeration caps
    monkeypatch.setattr(matrices._Family, "tensor", _fail)
    monkeypatch.setattr(matrices, "_split_group", _fail)
    plain = matrices.CoefficientFamily(3, 2000, 1, {(1, 2, 1): 1.0, (2000, 1, 2): 0.5})
    for call in (lambda: holo_moment(plain, SPECS["circular"], 5),
                 lambda: holo_moment(plain, SPECS["haar"], 5),
                 lambda: nonholo_moment(plain, SPECS["semicircle"], 5)):
        with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
            call()


def test_norm_past_the_cap_exits_at_once(tmp_path, capsys):
    from ncfree import cli

    path = tmp_path / "one.txt"
    path.write_text("1 1 1\n1 1,0\n")
    code = cli.main(["norm", "--family-file", str(path), "--spec", "circular",
                     "--m", "100000000"])
    assert code == 2 and "MOMENT_DP_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(SPECS))
def test_no_call_changes_the_spec(name):
    spec = SPECS[name]
    before = copy.deepcopy(vars(spec))
    rng = np.random.default_rng(33)
    plain = random_family(2, 2, 2, rng)
    other = (random_adjacent_distinct_family(2, 3, 2, rng) if name == "semicircle"
             else random_star_family(2, 2, 2, rng))
    for m in (2, 3):
        holo_moment(plain, spec, m)
        nonholo_moment(other, spec, m)
        holo_rhs_bound(plain, spec, m)
        nonholo_rhs_bound(other, spec, m)
    assert vars(spec) == before


@pytest.mark.parametrize("d,ms", [(1, (1, 2, 3, 4)), (2, (1, 2, 3)), (3, (1, 2)), (4, (1, 2))])
def test_stepped_rows_match_the_recursions_they_replaced(d, ms):
    # the verbatim block recursion and Haar tree form, on the per-class ring
    for m in ms:
        for a, name in _cases(d, m, np.random.default_rng(40 * d + m)):
            expected = reference_planar_sum(a, SPECS[name], m)
            value = planar_sum(a, SPECS[name], m)
            assert abs(value - expected) <= 1e-13 * abs(expected), (name, m, a)


def test_block_norms_are_kept_per_m_and_not_by_scaled_copies(monkeypatch):
    calls = []
    real = matrices._power_trace
    a = random_family(2, 2, 2, np.random.default_rng(34))
    expected = [matrices.schatten_norm(matrices.build_Ml(a, l), 3) for l in range(3)]
    monkeypatch.setattr(matrices, "_power_trace", lambda mat, m: calls.append(m) or real(mat, m))
    # one M_l per level for the first bound; the second preset reads them
    bounds = [holo_rhs_bound(a, spec, 3) for spec in (SPECS["circular"], SPECS["haar"])]
    assert calls == [3] * 3 and all(bounds)
    assert np.allclose(ml_norms(a, 3), expected, rtol=1e-14, atol=0)
    ml_norms(a.scaled(2.0), 3)
    ml_norms(a, 4)
    assert calls == [3] * 6 + [4] * 3
    assert ml_norms(a, 3) is not ml_norms(a, 3)  # each call gets a list of its own


def test_a_scaled_copy_is_c_times_its_source():
    a = random_star_family(2, 2, 2, np.random.default_rng(36))
    unit = a.scaled(0.5)
    # its tensor is one product with the source's, which the source keeps
    assert np.array_equal(unit.tensor(), 0.5 * a.tensor()) and a._tensor is not None
    assert unit.entries.keys() == a.entries.keys()
    assert all(np.array_equal(unit.entries[key], 0.5 * mat) for key, mat in a.entries.items())
    assert np.array_equal(unit.scaled(4.0).tensor(), 4.0 * unit.tensor())


def test_adjacent_support_check_names_the_first_offending_tuple():
    a = matrices.CoefficientFamily(3, 2, 1, {(1, 2, 1): 1.0, (2, 1, 1): 0.0,
                                             (1, 2, 2): 2.0, (2, 2, 1): 3.0})
    with pytest.raises(ValueError, match=r"offending tuple \(1, 2, 2\)"):
        _check_adjacent_support(a)
    # zero matrices on equal neighbours are no support
    _check_adjacent_support(matrices.CoefficientFamily(2, 2, 1, {(1, 2): 1.0, (2, 2): 0.0}))


def test_main_inequality_draws_each_d_once(monkeypatch, capsys):
    from ncfree import cli

    calls = []
    real = cli.random_family
    monkeypatch.setattr(cli, "random_family", lambda *args: calls.append(args[0]) or real(*args))
    code = cli.main(["verify", "--suite", "main-inequality", "--d", "2", "--m", "3",
                     "--trials", "4"])
    assert code == 0 and "main-inequality-haar" in capsys.readouterr().out
    # 4 trials for each of d = 1, 2, read by the 3 cells of m and both presets
    assert calls == [1] * 4 + [2] * 4


def test_case_costs_tool_prints_one_json_object():
    cell = "nonholo-d1-m3-circular-star"
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "case_costs.py"), cell],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert list(out["cells"]) == [cell] and out["repeats"] == 5
    row = out["cells"][cell]
    assert 0 < row["seconds"] < 60
    a = random_star_family(1, 2, 2, np.random.default_rng(0))
    assert row["moment"] == nonholo_moment(a, SPECS["circular"], 3)
    assert row["bound"] == nonholo_rhs_bound(a, SPECS["circular"], 3)
    bad = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "case_costs.py"),
                          "no-such-cell"], capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "no-such-cell" in bad.stderr
