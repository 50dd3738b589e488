"""The planar recursion's step through whole periods of the ring, against the
per-class step it replaced, and the cap on what the recursion holds."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import PerClassRing
from ncfree import matrices
from ncfree.cumulants import CumulantSpec
from ncfree.matrices import (
    MOMENT_DP_CAP,
    CoefficientFamily,
    _group_tensors,
    _Ring,
    planar_sum,
    random_adjacent_distinct_family,
    random_family,
    random_star_family,
)
from ncfree.oracles import brute_moment

CIRCULAR = CumulantSpec.circular()
HAAR = CumulantSpec.haar_unitary()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rings(d, alpha, rng):
    """(name, family, spec) of each leg width: a plain family in the doubled
    alphabet under an R-diagonal preset (each group fills its own star),
    a star family, and a plain family in the plain word."""
    return [("plain", random_family(d, 2, alpha, rng), CIRCULAR),
            ("rdiag", random_family(d, 2, alpha, rng), CumulantSpec.from_name("rdiag:1,-0.5")),
            ("star", random_star_family(d, 2, alpha, rng), CIRCULAR),
            ("plain word", random_adjacent_distinct_family(d, 3, alpha, rng),
             CumulantSpec.semicircular())]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_period_step_matches_the_per_class_step(d):
    rng = np.random.default_rng(800 + d)
    m = 2 if d > 2 else 3
    for alpha in (1, 2):
        for name, a, spec in _rings(d, alpha, rng):
            ring, old = _Ring(a, spec, m), PerClassRing(a, spec, m)
            ring.fill(_group_tensors(a))
            old.fill(_group_tensors(a))
            grid = ring.grid
            whole = (ring.size[0] - ring.alpha, ring.size[1])
            star_bits = {(s.start, s.stop, s.step): s
                         for c in range(2 * d) for s in ring.star_bits(c)}
            for q0 in range(ring.n):  # every phase, in every period
                start, image = ring.first[q0], ring.image[q0 + 1]
                for bits in star_bits.values():
                    letters = np.arange(ring.width).reshape(grid)[:, bits].ravel()
                    G = np.zeros(grid[:1] + (len(letters) // grid[0], 3, whole[q0 % 2] - start),
                                 dtype=complex)
                    own = G[..., ring.at[q0] - start:]  # zero before boundary q0
                    own[...] = rng.standard_normal(own.shape) + 1j * rng.standard_normal(own.shape)
                    period = ring.periods[q0 % 2].reshape(grid + ring.periods[q0 % 2].shape[1:])
                    H = ring.step(G, period[:, bits]).reshape(len(letters), 3, -1)
                    suffix = np.zeros((len(letters), 3, ring.size[q0 % 2] - ring.at[q0]),
                                      dtype=complex)
                    suffix[..., :own.shape[-1]] = own.reshape(len(letters), 3, -1)
                    expected = old.step(suffix, q0, letters)
                    where = (name, alpha, q0, bits)
                    assert not H[..., :ring.at[q0 + 1] - image].any(), where
                    scale = max(1.0, float(np.abs(expected).max(initial=0)))
                    assert np.abs(H[..., ring.at[q0 + 1] - image:] - expected).max(
                        initial=0) <= 1e-13 * scale, where


def test_period_matrices_hold_every_leg_once():
    # the legs are views of their blocks, and every entry off them is 0
    a = random_star_family(3, 2, 2, np.random.default_rng(810))
    ring = _Ring(a, CIRCULAR, 2)
    ring.fill(_group_tensors(a))
    for c, legs in enumerate(ring.legs):
        assert np.shares_memory(legs, ring.periods[c % 2])
    total = sum(np.count_nonzero(legs) for legs in ring.legs)
    assert total == sum(np.count_nonzero(p) for p in ring.periods)


def test_moment_dp_cap_counts_the_haar_mask(monkeypatch):
    # at d=1, m=2, alpha=1 the tables are tiny, but the (2r + 1) x 2r context
    # mask of Kesten's form is 4.0e10 entries at r = 100000
    def fail(*args):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(matrices, "_split_group", fail)
    monkeypatch.setattr(matrices, "_kesten_mask", fail)
    a = CoefficientFamily(1, 100000, 1, {(1,): 1.0})
    ring = _Ring(a, HAAR, 2)
    width = 2 * 100000
    assert (width + 1) * (ring.size[0] ** 2 + ring.size[1] ** 2) <= MOMENT_DP_CAP
    assert ring.entries >= 2 * (width + 1) * width > MOMENT_DP_CAP
    with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
        planar_sum(a, HAAR, 2)
    # the circular preset needs no mask, and the same ring is admitted
    assert _Ring(a, CIRCULAR, 2).entries <= MOMENT_DP_CAP


@pytest.mark.parametrize("make,spec,m", [
    (lambda rng: random_family(1, 200, 1, rng), HAAR, 3),
    (lambda rng: random_family(3, 2, 2, rng), HAAR, 8),
    (lambda rng: random_family(1, 2, 2, rng), CIRCULAR, 64),
    (lambda rng: random_star_family(6, 2, 2, rng), CIRCULAR, 1),
    (lambda rng: random_adjacent_distinct_family(2, 3, 2, rng), CumulantSpec.semicircular(), 8),
])
def test_entries_bound_what_the_recursion_holds(make, spec, m):
    # every complex entry the recursion allocates is counted before it runs
    a = make(np.random.default_rng(820))
    a.tensor()
    entries = _Ring(a, spec, m).entries
    tracemalloc.start()
    try:
        planar_sum(a, spec, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * entries


def test_norm_past_the_haar_mask_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    from ncfree.cli import main

    monkeypatch.setattr(matrices, "_kesten_mask",
                        lambda width: pytest.fail("context mask built past the cap"))
    path = str(tmp_path / "wide.txt")
    with open(path, "w") as fh:
        fh.write("1 100000 1\n1 1,0\n")
    # past MOMENT_DP_CAP, the star family of 4 positions is enumerated, and
    # its members of two blocks meet the assignment cap
    code = main(["norm", "--family-file", path, "--spec", "haar", "--m", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("norm: ") and captured.err.count("\n") == 1
    assert "cap" in captured.err


def test_brute_moment_computes_each_block_value_once(monkeypatch):
    seen = []
    real = CumulantSpec.block_value

    def counted(self, pattern):
        seen.append(pattern)
        return real(self, pattern)

    a = random_family(1, 2, 2, np.random.default_rng(0))
    monkeypatch.setattr(CumulantSpec, "block_value", counted)
    value = brute_moment(HAAR, a, 5)
    assert len(seen) == len(set(seen)) == 197
    monkeypatch.setattr(CumulantSpec, "block_value", real)
    assert brute_moment(HAAR, a, 5) == value


def test_planar_cells_tool_prints_one_json_object():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "planar_cells.py"),
                           "d3-haar-m16"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    cell = out["cells"]["d3-haar-m16"]
    assert list(out["cells"]) == ["d3-haar-m16"] and out["repeats"] == 3
    assert 0 < cell["seconds"] < 60
    a = random_family(3, 2, 2, np.random.default_rng(0))
    expected = planar_sum(a.scaled(1 / a.frobenius()), HAAR, 16).real
    assert abs(cell["moment"] - expected) <= 1e-12 * expected
    bad = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "planar_cells.py"),
                          "no-such-cell"], capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "no-such-cell" in bad.stderr
