import errno
import io
import math
import os

import numpy as np
import pytest

from ncfree import cli
from ncfree.cli import main
from ncfree.matrices import prime_family, random_family, random_star_family, save_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_nc(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "nc", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition"
    assert len(lines) == 15
    assert "count=14" in err


def test_enumerate_ncstar2(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "ncstar2", "--d", "2", "--m", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    assert "closed_form=3" in err


def test_enumerate_interval_pairings(capsys):
    import csv
    import io

    from ncfree.partitions import is_noncrossing, parse_partition
    from ncfree.symmetry import GridShape

    code, out, err = run(capsys, "enumerate", "--family", "interval-pairings",
                         "--d", "3", "--m", "3")
    assert code == 0
    assert "count=34 closed_form=34" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition"] and len(rows) == 35
    g = GridShape(3, 3)
    for (text,) in rows[1:]:
        p = parse_partition(text, g.n)
        assert is_noncrossing(p) and all(len(b) == 2 for b in p.blocks), text
        assert all(g.interval_of(x) != g.interval_of(y) for x, y in p.blocks), text


def test_enumerate_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "nc", "--n", "0")
    assert code == 2
    code, out, err = run(capsys, "enumerate", "--family", "ncstar")
    assert code == 2


def test_enumerate_bad_flag(capsys):
    assert main(["enumerate", "--family", "bogus", "--n", "3"]) == 2


def test_enumerate_to_file(tmp_path, capsys):
    out_path = str(tmp_path / "nc.csv")
    code, out, err = run(capsys, "enumerate", "--family", "nc", "--n", "3",
                         "--out", out_path)
    assert code == 0 and out == ""
    lines = open(out_path).read().strip().splitlines()
    assert lines[0] == "partition" and len(lines) == 6


@pytest.mark.parametrize("suite", ["counting", "martingale", "terminal", "fibers", "haar"])
def test_verify_exact_suites(suite, capsys):
    import csv
    import io

    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "6",
                         "--d", "2", "--m", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(row["passed"] == "1" for row in rows)


def test_verify_haar_checks_every_requested_alpha(capsys):
    import csv
    import io

    code, out, err = run(capsys, "verify", "--suite", "haar", "--n", "10")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10 and all(row["passed"] == "1" for row in rows)


def test_verify_numeric_suites(capsys):
    for suite in ("identifications", "cauchy-schwarz", "main-inequality", "nonholo"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--d", "2",
                             "--m", "2", "--trials", "2", "--seed", "3")
        assert code == 0, (suite, out)


def test_verify_prime_and_oracles(capsys):
    code, out, err = run(capsys, "verify", "--suite", "prime", "--p", "3", "--d", "2")
    assert code == 0
    code, out, err = run(capsys, "verify", "--suite", "oracles", "--d", "1", "--m", "2",
                         "--trials", "1")
    assert code == 0


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_deterministic_output(capsys):
    args = ("verify", "--suite", "identifications", "--d", "1", "--m", "2",
            "--trials", "2", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_norm_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    fam = random_family(2, 2, 2, rng)
    path = str(tmp_path / "fam.txt")
    save_family(fam, path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "2")
    assert code == 0
    keys = [line.split("=")[0] for line in out.strip().splitlines()]
    assert keys == ["lhs_norm_2m", "M_0_norm_2m", "M_1_norm_2m", "M_2_norm_2m",
                    "rhs_bound", "ratio"]
    ratio = float(out.strip().splitlines()[-1].split("=")[1])
    assert 0 < ratio <= 1


def test_norm_star_family(tmp_path, capsys):
    rng = np.random.default_rng(1)
    fam = random_star_family(1, 2, 1, rng)
    path = str(tmp_path / "star.txt")
    save_family(fam, path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "haar", "--m", "1")
    assert code == 0 and "rhs_bound=" in out


def test_norm_prime_family(tmp_path, capsys):
    path = str(tmp_path / "prime.txt")
    save_family(prime_family(3, 2), path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "2")
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["lhs_norm_2m"]) <= float(values["rhs_bound"])


def test_norm_missing_file(capsys):
    code, out, err = run(capsys, "norm", "--family-file", "/nonexistent", "--m", "1")
    assert code == 2


def test_norm_zero_family(tmp_path, capsys):
    path = str(tmp_path / "zero.txt")
    with open(path, "w") as fh:
        fh.write("1 1 1\n")
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "1")
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["lhs_norm_2m"]) == 0.0 and float(values["rhs_bound"]) == 0.0


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=3\nseed=5\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "martingale")
    assert code == 0
    assert "m=3" in out
    # explicit flag still wins over the config value
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "martingale",
                         "--m", "2")
    assert "m=3" not in out


def test_config_values_take_the_option_type(tmp_path, capsys):
    cfg = tmp_path / "frac.cfg"
    cfg.write_text("m=2.5\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "martingale")
    assert code == 2 and out == ""
    assert "argument --m: invalid int value" in err


def test_norm_rejects_nan_cell(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("1 1 1\n1 nan,0\n")
    code, out, err = run(capsys, "norm", "--family-file", str(path), "--spec", "circular",
                         "--m", "1")
    assert code == 2 and out == ""
    assert "line 2" in err and "finite" in err


def test_norm_rejects_duplicate_support_point(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("1 1 1\n1 1,0\n1 5,0\n")
    code, out, err = run(capsys, "norm", "--family-file", str(path), "--spec", "circular",
                         "--m", "1")
    assert code == 2 and out == ""
    assert "line 3" in err and "line 2" in err


def test_verify_arithmetic_error_exits_2(monkeypatch, capsys):
    from ncfree import cli

    def broken(args):
        raise ArithmeticError("moment sum has imaginary residual 1")

    monkeypatch.setitem(cli.SUITES, "nonholo", broken)
    code, out, err = run(capsys, "verify", "--suite", "nonholo")
    assert code == 2 and out == ""
    assert err.startswith("verify: ") and "imaginary residual" in err


@pytest.mark.parametrize("argv", [
    ("--family", "nc", "--n", "15"),
    ("--family", "ncstar", "--d", "5", "--m", "3"),
    ("--family", "ncdm", "--d", "4", "--m", "3"),
])
def test_enumerate_past_cap_exits_2(argv, capsys):
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 2 and out == ""
    assert err.startswith("enumerate: ground size ")


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("m=2\ntrails=50\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "martingale")
    assert code == 2 and out == ""
    assert err.startswith("config: ") and "trails" in err


def test_norm_haar_past_the_old_star_cap(tmp_path, capsys):
    # 2dm = 32 exceeds the star-family enumeration cap; the moment recursion has none
    from ncfree.oracles import free_group_moment

    fam = random_family(1, 2, 2, np.random.default_rng(41))
    path = str(tmp_path / "d1.txt")
    save_family(fam, path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "haar", "--m", "16")
    assert code == 0, err
    values = dict(line.split("=") for line in out.strip().splitlines())
    moment = float(values["lhs_norm_2m"]) ** 32
    assert abs(moment - free_group_moment(fam, 16)) <= 1e-9 * free_group_moment(fam, 16)


def test_norm_past_moment_dp_cap_exits_2(tmp_path, capsys):
    from ncfree.matrices import MOMENT_DP_CAP

    path = str(tmp_path / "one.txt")
    with open(path, "w") as fh:
        fh.write("1 1 1\n1 1,0\n")
    # bond 1, m + 1 even and m odd boundaries, and the two letters (1, star)
    # in the open-block arrays
    m = 1
    while (m + 1) ** 2 + m ** 2 + 4 * 2 * (m + 1) <= MOMENT_DP_CAP:
        m += 1
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", str(m))
    assert code == 2 and out == ""
    assert err.startswith("norm: ") and "MOMENT_DP_CAP" in err


def test_norm_past_the_float_range_exits_0(tmp_path, capsys):
    # ||a||_2^2 = 20, so the 512th moment power itself is past the float range
    path = str(tmp_path / "big.txt")
    with open(path, "w") as fh:
        fh.write("1 1 1\n1 %r,0\n" % math.sqrt(20))
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "256")
    assert code == 0, err
    values = dict(line.split("=") for line in out.strip().splitlines())
    expected = math.sqrt(20) * math.exp(math.log(math.comb(512, 256) // 257) / 512)
    assert math.isclose(float(values["lhs_norm_2m"]), expected, rel_tol=1e-9)
    assert float(values["ratio"]) <= 1  # the Schatten norms on the right stay finite too


def test_norm_imaginary_residual_exits_2(tmp_path, monkeypatch, capsys):
    from ncfree import matrices

    monkeypatch.setattr(matrices, "planar_sum", lambda a, spec, m: 1 + 1j)
    path = str(tmp_path / "fam.txt")
    save_family(random_family(2, 2, 2, np.random.default_rng(42)), path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("norm: ") and "imaginary residual" in err


def test_norm_negative_moment_exits_2(tmp_path, monkeypatch, capsys):
    from ncfree import matrices

    monkeypatch.setattr(matrices, "planar_sum", lambda a, spec, m: -1 + 0j)
    path = str(tmp_path / "fam.txt")
    save_family(random_family(2, 2, 2, np.random.default_rng(42)), path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("norm: ") and "negative" in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_norm_nonpositive_m_exits_2(tmp_path, capsys, m):
    path = str(tmp_path / "fam.txt")
    save_family(random_family(1, 2, 2, np.random.default_rng(43)), path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--m", m)
    assert code == 2 and out == ""
    assert "--m" in err and "Traceback" not in err


@pytest.mark.parametrize("option,suite", [("--d", "counting"), ("--m", "main-inequality"),
                                          ("--n", "counting"), ("--trials", "nonholo")])
def test_verify_nonpositive_size_exits_2(capsys, option, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, option, "0")
    assert code == 2 and out == ""
    assert err.startswith("verify: ") and option in err


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "ncfree", "verify", "--suite", "haar",
                           "--n", "3"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "experiment,params,value,bound,passed,residual"


def test_verify_nonholo_with_column_shaped_block_matrices(capsys):
    # at d=6, r=2, alpha=2 the star family's M_0 and M_6 are 2 x 8192
    code, out, err = run(capsys, "verify", "--suite", "nonholo", "--d", "6", "--m", "1")
    assert code == 0, err
    assert out.splitlines()[-1].startswith('nonholo-selfadjoint,"d=6,m=1"')


@pytest.mark.parametrize("spec", ["rdiag:1,nan", "rdiag:inf"])
def test_norm_non_finite_rdiag_exits_2(tmp_path, capsys, spec):
    path = str(tmp_path / "fam.txt")
    save_family(random_family(1, 2, 2, np.random.default_rng(44)), path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", spec)
    assert code == 2 and out == ""
    assert err.startswith("norm: rdiag:") and "non-finite" in err


def _norm_values(capsys, path, spec):
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", spec, "--m", "3")
    assert code == 0, err
    return {key: float(value) for key, value in
            (line.split("=") for line in out.strip().splitlines())}


@pytest.mark.parametrize("kind,spec", [("plain", "circular"), ("plain", "haar"),
                                       ("plain", "semicircle"), ("star", "circular")])
def test_norm_of_a_family_with_huge_cells_is_finite(tmp_path, capsys, kind, spec):
    # ||a||_2^2 is past the float range; both sides are homogeneous of
    # degree 1, so the ratio is that of a
    for seed in (45, 46):
        rng = np.random.default_rng(seed)
        a = random_family(1, 2, 2, rng) if kind == "plain" else random_star_family(2, 2, 2, rng)
        small, huge = str(tmp_path / "small.txt"), str(tmp_path / "huge.txt")
        save_family(a, small)
        save_family(a.scaled(1e200), huge)
        reference = _norm_values(capsys, small, spec)
        values = _norm_values(capsys, huge, spec)
        assert all(math.isfinite(v) and v > 0 for v in values.values()), values
        assert math.isclose(values["ratio"], reference["ratio"], rel_tol=1e-12)


def test_verify_out_to_a_missing_directory_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.csv")
    code, out, err = run(capsys, "verify", "--suite", "counting", "--n", "3", "--out", path)
    assert code == 2 and out == ""
    assert err.startswith("verify: ") and path in err and "Traceback" not in err


def test_enumerate_out_to_a_missing_directory_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.csv")
    code, out, err = run(capsys, "enumerate", "--family", "nc", "--n", "3", "--out", path)
    assert code == 2 and out == ""
    assert err.startswith("enumerate: ") and path in err and "Traceback" not in err


class _FullAfter(io.StringIO):
    """A file that takes `room` writes, then fails every further one as a
    full disk does."""

    def __init__(self, room):
        super().__init__()
        self.room = room

    def write(self, text):
        if not self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return super().write(text)


@pytest.mark.parametrize("argv", [("enumerate", "--family", "nc", "--n", "4"),
                                  ("verify", "--suite", "counting", "--n", "4")])
def test_a_write_that_fails_mid_file_exits_2(monkeypatch, tmp_path, capsys, argv):
    # the header goes through, the first row hits the full disk
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullAfter(1), raising=False)
    path = str(tmp_path / "x.csv")
    code, out, err = run(capsys, *argv, "--out", path)
    assert code == 2 and out == ""
    assert err == "%s: cannot write --out %s: %s\n" % (argv[0], path, os.strerror(errno.ENOSPC))


def test_norm_of_a_family_whose_l2_norm_overflows_exits_2(tmp_path, capsys):
    # every cell is finite, but ||a||_2 = 1.5e308 * sqrt(2) is not
    path = str(tmp_path / "huge.txt")
    with open(path, "w") as fh:
        fh.write("1 2 1\n1 1.5e308,0\n2 1.5e308,0\n")
    code, out, err = run(capsys, "norm", "--family-file", path, "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("norm: ") and "float range" in err


def test_verify_out_is_checked_before_the_suite_runs(tmp_path, monkeypatch, capsys):
    from ncfree import cli

    calls = []
    monkeypatch.setitem(cli.SUITES, "martingale", lambda args: calls.append(args))
    path = str(tmp_path / "missing" / "x.csv")
    code, out, err = run(capsys, "verify", "--suite", "martingale", "--m", "6", "--out", path)
    assert code == 2 and out == "" and path in err
    assert calls == []


@pytest.mark.parametrize("spec", ["circular", "haar"])
def test_norm_ratio_when_the_bound_overflows(tmp_path, capsys, spec):
    # ||a||_2 fits the float range but the bound does not; both sides are
    # homogeneous of degree 1, so the ratio is that of the family with cells 1
    ones, huge = str(tmp_path / "ones.txt"), str(tmp_path / "huge.txt")
    with open(ones, "w") as fh:
        fh.write("1 2 1\n1 1,0\n2 1,0\n")
    with open(huge, "w") as fh:
        fh.write("1 2 1\n1 1e308,0\n2 1e308,0\n")
    values = {}
    for name, path in (("ones", ones), ("huge", huge)):
        code, out, err = run(capsys, "norm", "--family-file", path, "--spec", spec)
        assert code == 0, err
        values[name] = {key: float(value) for key, value in
                        (line.split("=") for line in out.strip().splitlines())}
    assert values["huge"]["rhs_bound"] == math.inf
    assert math.isclose(values["huge"]["ratio"], values["ones"]["ratio"], rel_tol=1e-12)
    if spec == "circular":
        assert math.isclose(values["huge"]["ratio"], 0.25258199528128, rel_tol=1e-12)


def test_norm_with_a_non_finite_unit_moment_exits_2(tmp_path, capsys):
    # the scalar circular element at m=520: C_520 is past the float range
    # even at unit ||a||_2, so the sum is not finite and must not print inf
    path = str(tmp_path / "one.txt")
    with open(path, "w") as fh:
        fh.write("1 1 1\n1 1,0\n")
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "520")
    assert code == 2 and out == ""
    assert err.startswith("norm: ") and "not finite" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_norm_with_a_non_finite_unit_moment_exits_2_without_warnings(tmp_path, capsys):
    path = str(tmp_path / "one.txt")
    with open(path, "w") as fh:
        fh.write("1 1 1\n1 1,0\n")
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular",
                         "--m", "520")
    assert code == 2 and out == ""
    assert err.startswith("norm: ") and "not finite" in err


@pytest.mark.parametrize("spec", ["rdiag:1,,0.5", "rdiag:1,", "rdiag:,1", "rdiag:abc",
                                  "rdiag:1e400"])
def test_norm_malformed_rdiag_exits_2_naming_the_spec(tmp_path, capsys, spec):
    path = str(tmp_path / "fam.txt")
    save_family(random_family(1, 2, 2, np.random.default_rng(44)), path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", spec)
    assert code == 2 and out == ""
    assert err.startswith("norm: %s " % spec)


def test_martingale_violation_is_a_failing_row(monkeypatch, capsys):
    from ncfree import symmetry

    cut_count = symmetry._cut_count
    monkeypatch.setattr(symmetry, "_cut_count",
                        lambda p, k: cut_count(p, k) + (k == 1))
    code, out, err = run(capsys, "verify", "--suite", "martingale", "--m", "2")
    assert code == 1 and "Traceback" not in err
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2 and all(row.startswith("martingale,") for row in rows)
    assert all(row.split(",")[-2] == "0" for row in rows)


@pytest.mark.parametrize("spec,m", [("rdiag:1,-3", "2"), ("rdiag:1,-1.5", "3")])
def test_norm_of_a_spec_with_a_negative_moment_exits_2(tmp_path, capsys, spec, m):
    # phi((c c*)^m) < 0 has no real 2m-th root; it used to print a complex bound
    path = tmp_path / "fam.txt"
    path.write_text("1 3 1\n1 1,0\n2 1,0\n3 1,0\n")
    code, out, err = run(capsys, "norm", "--family-file", str(path), "--spec", spec, "--m", m)
    assert code == 2 and out == ""
    assert err.startswith("norm: rdiag:") and "m=%s" % m in err and "negative" in err


@pytest.mark.parametrize("text", ["1 2 1\n", "1 2 1\n1 0,0\n2 0,0\n"], ids=["empty", "zeros"])
def test_norm_of_a_zero_family_has_ratio_0(tmp_path, capsys, text):
    path = tmp_path / "zero.txt"
    path.write_text(text)
    for spec in ("circular", "haar", "semicircle"):
        code, out, err = run(capsys, "norm", "--family-file", str(path), "--spec", spec,
                             "--m", "2")
        assert code == 0, err
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert values["lhs_norm_2m"] == values["rhs_bound"] == values["ratio"] == "0"


def test_norm_over_a_zero_bound_keeps_ratio_inf(tmp_path, monkeypatch, capsys):
    from ncfree import cli

    monkeypatch.setattr(cli, "holo_rhs_bound", lambda a, spec, m: 0.0)
    path = str(tmp_path / "fam.txt")
    save_family(random_family(1, 2, 2, np.random.default_rng(45)), path)
    code, out, err = run(capsys, "norm", "--family-file", path, "--spec", "circular", "--m", "2")
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "ratio=inf"


@pytest.mark.parametrize("spec", ["rdiag:0", "rdiag:0,1"])
def test_norm_of_a_spec_with_zero_l2_norm_at_d_1_names_the_spec(tmp_path, capsys, spec):
    # ||c||_2^(d-2) has no value when ||c||_2 = 0 and d = 1
    path = tmp_path / "fam.txt"
    path.write_text("1 3 1\n1 1,0\n2 1,0\n3 1,0\n")
    code, out, err = run(capsys, "norm", "--family-file", str(path), "--spec", spec, "--m", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("norm: %s (read as " % spec)
    assert "||c||_2 = 0" in lines[0] and "Traceback" not in err


def test_norm_negative_moment_error_keeps_the_spec_spelling(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("1 3 1\n1 1,0\n2 1,0\n3 1,0\n")
    code, out, err = run(capsys, "norm", "--family-file", str(path), "--spec", "rdiag:1,-3",
                         "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("norm: rdiag:1,-3 (read as rdiag:1.0,-3.0) at m=2: ")


@pytest.mark.parametrize("option", ["--r", "--alpha"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_nonpositive_alphabet_or_matrix_size_exits_2(capsys, option, value):
    code, out, err = run(capsys, "verify", "--suite", "main-inequality", option, value)
    assert code == 2 and out == ""
    assert err.startswith("verify: ") and option in err and "Traceback" not in err


def test_verify_negative_seed_exits_2_before_the_suite_runs(monkeypatch, capsys):
    from ncfree import cli

    calls = []
    monkeypatch.setitem(cli.SUITES, "main-inequality", lambda args: calls.append(args))
    code, out, err = run(capsys, "verify", "--suite", "main-inequality", "--seed", "-1")
    assert code == 2 and out == "" and calls == []
    assert err == "verify: --seed must be a non-negative integer\n"


def _verify_rows(capsys, *argv):
    """(exit code, {experiment: [rows]}) of one verify run."""
    import csv
    import io

    code, out, err = run(capsys, "verify", *argv)
    rows = {}
    for row in csv.DictReader(io.StringIO(out)):
        rows.setdefault(row["experiment"], []).append(row)
    return code, rows


@pytest.mark.parametrize("name,suite,affected", [
    ("holo_rhs_bound", "main-inequality", ["main-inequality-circular", "main-inequality-haar"]),
    ("nonholo_rhs_bound", "nonholo", ["nonholo-rdiag", "nonholo-selfadjoint"]),
    ("trace_sum", "identifications", ["identify-equality", "identify-inequality"]),
    ("trace_sum", "cauchy-schwarz", ["cauchy-schwarz"]),
    ("schatten_pow", "identifications", ["identify-equality", "identify-inequality"]),
], ids=["holo-bound", "nonholo-bound", "trace-sum-identify", "trace-sum-cuts", "schatten-pow"])
def test_a_nan_margin_or_residual_fails_its_row(monkeypatch, capsys, name, suite, affected):
    # max(0.0, nan) is 0.0, so a NaN used to vanish into a passing row
    from ncfree import cli

    monkeypatch.setattr(cli, name, lambda *args: math.nan)
    code, rows = _verify_rows(capsys, "--suite", suite, "--trials", "2")
    assert code == 1
    for experiment in affected:
        assert len(rows[experiment]) == 4, experiment
        for row in rows[experiment]:
            assert row["passed"] == "0" and row["value"] == "nan", row


def test_failing_inequality_rows_keep_the_worst_lhs(monkeypatch, capsys):
    from ncfree import cli
    from ncfree.cumulants import CumulantSpec
    from ncfree.matrices import (
        holo_norm_2m, nonholo_norm_2m, random_adjacent_distinct_family)

    monkeypatch.setattr(cli, "holo_rhs_bound", lambda *args: 0.0)
    monkeypatch.setattr(cli, "nonholo_rhs_bound", lambda *args: 0.0)
    cells = [(d, m) for d in (1, 2) for m in (1, 2)]

    code, rows = _verify_rows(capsys, "--suite", "main-inequality", "--trials", "2")
    assert code == 1
    for spec in (CumulantSpec.circular(), CumulantSpec.haar_unitary()):
        got = rows["main-inequality-%s" % spec.kind]
        assert [row["params"] for row in got] == ["d=%d,m=%d" % cell for cell in cells]
        for (d, m), row in zip(cells, got):
            rng = np.random.default_rng(0)
            fams = [random_family(d, 2, 2, rng) for _ in range(2)]
            assert row["passed"] == "0"
            assert float(row["value"]) == max(holo_norm_2m(f, spec, m) for f in fams) > 0

    code, rows = _verify_rows(capsys, "--suite", "nonholo", "--trials", "2")
    assert code == 1
    kinds = [("selfadjoint", random_adjacent_distinct_family, CumulantSpec.semicircular()),
             ("rdiag", random_star_family, CumulantSpec.circular())]
    rng = np.random.default_rng(0)  # one generator, each kind drawing in turn per cell
    for i, (d, m) in enumerate(cells):
        for name, draw, spec in kinds:
            fams = [draw(d, 2, 2, rng) for _ in range(2)]
            row = rows["nonholo-%s" % name][i]
            assert row["params"] == "d=%d,m=%d" % (d, m) and row["passed"] == "0"
            assert float(row["value"]) == max(nonholo_norm_2m(f, spec, m) for f in fams) > 0


def test_failing_cauchy_schwarz_rows_contract_each_member_once(monkeypatch, capsys):
    from ncfree import cli

    calls = []
    monkeypatch.setattr(cli, "trace_sum_complex", lambda fam, p: calls.append(p) or 1e6)
    code, rows = _verify_rows(capsys, "--suite", "cauchy-schwarz", "--trials", "2")
    assert code == 1
    # one lhs per (family, member), read by the cuts and the exponent bound:
    # 2 families x (1 + 3 + 1 + 5) star members
    assert len(calls) == 20
    assert len(rows["cauchy-schwarz"]) == 4 and len(rows["exponent-bound"]) == 2
    for row in rows["cauchy-schwarz"] + rows["exponent-bound"]:
        assert row["passed"] == "0" and float(row["value"]) > 0, row
    assert all(row["passed"] == "1" for row in rows["absorption-identity"])


def test_cauchy_schwarz_contracts_each_cut_symmetrization_once(monkeypatch, capsys):
    from ncfree import cli

    calls = []
    real = cli.trace_sum
    monkeypatch.setattr(cli, "trace_sum", lambda fam, p: calls.append(p) or real(fam, p))
    code, rows = _verify_rows(capsys, "--suite", "cauchy-schwarz", "--trials", "2")
    assert code == 0
    # one Tr(sym_jd p) per (family, member, cut j), read at cuts j and j - m:
    # 2 families x (1 x 2 + 3 x 4 + 1 x 2 + 5 x 4) over the cells d, m in 1..2
    assert len(calls) == 72
    assert all(row["passed"] == "1" for row in rows["cauchy-schwarz"])


def test_cauchy_schwarz_builds_each_symmetrization_and_exponent_once(monkeypatch, capsys):
    from ncfree import cli

    calls = {"symmetrize": 0, "level_exponents": 0}
    for name in calls:
        real = getattr(cli, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cli, name, counted)
    code, rows = _verify_rows(capsys, "--suite", "cauchy-schwarz", "--trials", "2")
    assert code == 0
    # neither depends on the family: one sym_jd p per (member, cut j), 1 x 2 + 3 x 4
    # + 1 x 2 + 5 x 4, and one mu(p) per member of the m = 2 cells, 3 + 5
    assert calls == {"symmetrize": 36, "level_exponents": 8}
    assert all(row["passed"] == "1"
               for row in rows["cauchy-schwarz"] + rows["exponent-bound"])


def test_identifications_compute_each_schatten_power_once(monkeypatch, capsys):
    from ncfree import cli

    calls = []
    real = cli.schatten_pow
    monkeypatch.setattr(cli, "schatten_pow", lambda M, m: calls.append(m) or real(M, m))
    code, rows = _verify_rows(capsys, "--suite", "identifications", "--trials", "2")
    assert code == 0
    # one ||M_l||^2m per (family, l), read by both rows: 2 families x (2 + 2 + 3 + 3)
    # levels over the cells d, m in 1..2
    assert len(calls) == 20
    assert len(rows["identify-equality"]) == len(rows["identify-inequality"]) == 4
    assert all(row["passed"] == "1"
               for row in rows["identify-equality"] + rows["identify-inequality"])


def test_report_numeric_row_methods():
    from ncfree.cli import Report

    rep = Report()
    rep.inequality("empty", "", [])
    rep.inequality("no-slack", "", [(2.0, 1.0), (0.5, 1.0)])
    rep.inequality("slack", "", [(2.0, 1.0)], slack=0.5)
    rep.inequality("slack-absorbs", "", [(2.0, 1.0)], slack=1.5)
    rep.within("below-zero", "", [-3.0, -1.0], 1e-9)
    rep.within("worst", "", [1e-12, 5e-10, 2e-11], 1e-9)
    rep.close("absolute", "", 0.75, 0.5, 1e-9)
    rep.close("relative", "", 30.0, 20.0, 1e-9)
    rows = {row["experiment"]: row for row in rep.rows}
    cells = {name: (row["value"], row["bound"], row["passed"], row["residual"])
             for name, row in rows.items()}
    assert cells["empty"] == ("0", "0", "1", "0")
    assert float(rows["no-slack"]["value"]) == 2.0 - 1.0 * (1 + 1e-9)
    assert float(rows["slack"]["value"]) == 2.0 - 1.0 * (1 + 1e-9) - 0.5
    assert rows["slack"]["passed"] == rows["no-slack"]["passed"] == "0"
    assert cells["slack-absorbs"] == ("0", "0", "1", "0")
    assert cells["below-zero"][0] == cells["below-zero"][3] == "0"
    assert cells["below-zero"][2] == "1"
    assert float(rows["worst"]["value"]) == float(rows["worst"]["residual"]) == 5e-10
    assert rows["worst"]["passed"] == "1"
    # |0.75 - 0.5| / max(1, 0.5) = 0.25; |30 - 20| / max(1, 20) = 0.5
    assert cells["absolute"][:2] == ("0.75", "0.5") and float(cells["absolute"][3]) == 0.25
    assert cells["relative"][:2] == ("30", "20") and float(cells["relative"][3]) == 0.5
    assert rows["absolute"]["passed"] == rows["relative"]["passed"] == "0"
