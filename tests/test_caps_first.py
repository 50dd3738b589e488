"""Sizes meet their caps before the work they limit: the enumeration suites
check their whole range before their first row, and a moment whose
enumerated sum could only fail at ASSIGNMENT_CAP names MOMENT_DP_CAP
before any member is enumerated.  Also the enumeration-rate tool."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ncfree import cli, families, matrices
from ncfree.cli import main
from ncfree.cumulants import CumulantSpec
from ncfree.matrices import CoefficientFamily, holo_moment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fail(what):
    def failing(*args, **kwargs):
        pytest.fail("%s ran before the range was checked" % what)
    return failing


@pytest.mark.parametrize("argv,cap", [
    (["--suite", "martingale", "--m", "30"], "STAR_ENUMERATION_CAP = 24"),
    (["--suite", "martingale", "--m", "13"], "STAR_ENUMERATION_CAP = 24"),
    (["--suite", "counting", "--n", "15"], "NC_ENUMERATION_CAP = 14"),
    (["--suite", "counting", "--d", "5", "--m", "3"], "STAR_ENUMERATION_CAP = 24"),
    (["--suite", "counting", "--d", "2", "--m", "6"], "INTERVAL_ENUMERATION_CAP = 20"),
])
def test_enumeration_suites_check_their_whole_range_first(monkeypatch, capsys, argv, cap):
    for name in ("enumerate_nc", "enumerate_ncstar", "enumerate_ncstar2",
                 "enumerate_interval_pairings", "check_collapse_martingale"):
        monkeypatch.setattr(cli, name, _fail(name))
    code = main(["verify"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("verify: ") and captured.err.count("\n") == 1
    assert cap in captured.err


@pytest.mark.parametrize("argv", [
    ["--suite", "martingale", "--m", "12"],
    ["--suite", "counting", "--n", "14", "--d", "2", "--m", "5"],
])
def test_a_range_at_its_cap_is_admitted(monkeypatch, argv):
    class FirstCell(Exception):
        pass

    def first_cell(*args):
        raise FirstCell

    # the range check lets the suite through to its first cell
    for name in ("enumerate_nc", "enumerate_ncstar"):
        monkeypatch.setattr(cli, name, first_cell)
    with pytest.raises(FirstCell):
        main(["verify"] + argv)


def test_haar_past_both_caps_names_the_recursion_cap(monkeypatch):
    # letters^(dm) = 100000^2 is past ASSIGNMENT_CAP, so every pairing of the
    # star family would fail there: no member is enumerated or contracted
    monkeypatch.setattr(np, "einsum", _fail("np.einsum"))
    monkeypatch.setattr(families, "enumerate_nc_constrained", _fail("enumerate_nc_constrained"))
    a = CoefficientFamily(1, 100000, 1, {(1,): [[1.0]], (7,): [[0.5]]})
    with pytest.raises(ValueError, match="MOMENT_DP_CAP"):
        holo_moment(a, CumulantSpec.haar_unitary(), 2)


def test_past_the_recursion_cap_small_alphabets_still_enumerate(monkeypatch):
    # letters^(dm) within ASSIGNMENT_CAP: the enumerated sum serves the moment
    a = CoefficientFamily(1, 3, 1, {(1,): [[1.0]], (2,): [[0.5]]})
    monkeypatch.setattr(matrices, "MOMENT_DP_CAP", 0)
    assert matrices._enumerate_instead(a, CumulantSpec.haar_unitary(), 2,
                                       families.STAR_ENUMERATION_CAP, a.letters)
    assert holo_moment(a, CumulantSpec.haar_unitary(), 2) > 0


def test_main_inequality_past_both_caps_exits_2_naming_the_recursion_cap(capsys):
    code = main(["verify", "--suite", "main-inequality", "--d", "1", "--m", "2",
                 "--r", "100000", "--alpha", "1", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "MOMENT_DP_CAP" in captured.err


def test_enum_rates_tool_prints_one_json_object():
    tool = os.path.join(ROOT, "tools", "enum_rates.py")
    done = subprocess.run([sys.executable, tool, "ncstar-d1-m6"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    cell = out["cells"]["ncstar-d1-m6"]
    assert list(out["cells"]) == ["ncstar-d1-m6"] and out["repeats"] == 3
    assert cell["members"] == 1428 and 0 < cell["seconds"] < 60 and cell["per_s"] > 0
    bad = subprocess.run([sys.executable, tool, "no-such-cell"],
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and bad.stdout == "" and "no-such-cell" in bad.stderr
