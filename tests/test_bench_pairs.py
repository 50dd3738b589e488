"""The summary of tools/bench_pairs.py on hand-made runs, and its pairs on
archives of the commits of a throwaway git repository."""

import argparse
import importlib.util
import json
import subprocess
import tempfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(side, pair, wall, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": 0.25, "unit": "s"},
               "peak_rss_mb": {"value": 35.5, "unit": "MB"}}
    return {"workload": "exact", "pair": pair, "side": side,
            "result": {"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": metrics}}


def test_summary_counts_pairs_medians_and_wins():
    parent = [0.8, 0.6, 0.7, 0.9]
    change = [0.5, 0.65, 0.4, 0.45]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", pair, p), _run("change", pair, c)]
    out = bench_pairs.summarize(runs)
    assert out["pairs"] == 4 and out["correct"]
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["attempted"] == {"parent": 400, "change": 400}
    wall = out["wall_s"]
    assert wall["parent_median"] == 0.75 and wall["change_median"] == 0.475
    assert wall["relative"] == round(0.475 / 0.75 - 1, 4)
    assert wall["parent_iqr"] == 0.25  # exclusive quartiles 0.625 and 0.875
    assert wall["change_better_pairs"] == 3
    assert out["setup_s"]["change_better_pairs"] == 0


def test_summary_reports_failures():
    out = bench_pairs.summarize([_run("parent", 0, 0.5), _run("change", 0, 0.4, failed=2)])
    assert out["failed"] == {"parent": 0, "change": 2} and not out["correct"]
    assert out["wall_s"]["parent_iqr"] == 0.0


def test_summary_reports_both_sides_quartiles():
    parent = [0.8, 0.6, 0.7, 0.9]
    change = [0.5, 0.65, 0.4, 0.45]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", pair, p), _run("change", pair, c)]
    wall = bench_pairs.summarize(runs)["wall_s"]
    # exclusive quartiles: 0.625 and 0.875 for the parent, 0.4125 and 0.6125 for the change
    assert (wall["parent_q1"], wall["parent_q3"]) == (0.625, 0.875)
    assert (wall["change_q1"], wall["change_q3"]) == (0.4125, 0.6125)
    assert wall["parent_iqr"] == round(wall["parent_q3"] - wall["parent_q1"], 4)
    single = bench_pairs.summarize([_run("parent", 0, 0.5), _run("change", 0, 0.4)])["wall_s"]
    assert (single["parent_q1"], single["parent_q3"]) == (0.5, 0.5)
    assert (single["change_q1"], single["change_q3"]) == (0.4, 0.4)


def test_plan_parsing():
    assert bench_pairs.parse_plan(["exact=6", "holo=2"]) == [("exact", 6), ("holo", 2)]
    for bad in ("exact", "exact=0", "=3", "exact=x"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_plan([bad])


# a stand-in for the harness: its wall time is the number in wall.txt of
# the checkout it runs in, and it leaves a record under benchmarks/out/
FAKE_RUN = """import json, os
os.makedirs("benchmarks/out", exist_ok=True)
open("benchmarks/out/run.json", "w").close()
wall = float(open("wall.txt").read())
metrics = {name: {"value": value} for name, value in
           (("wall_s", wall), ("setup_s", 0.125), ("peak_rss_mb", 30.0))}
print("progress")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench",
                           "-c", "user.email=bench@example.com", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def _repo_with_two_commits(root):
    (root / "benchmarks").mkdir(parents=True)
    (root / "benchmarks" / "run.py").write_text(FAKE_RUN)
    _git(root, "init", "-q")
    for wall in ("0.5", "0.25"):
        (root / "wall.txt").write_text(wall)
        _git(root, "add", "-A")
        _git(root, "commit", "-q", "-m", "wall " + wall)
    (root / "wall.txt").write_text("9")  # not committed, so never run


def test_pairs_run_in_archives_of_the_named_commits(tmp_path, monkeypatch):
    repo, temp, out = tmp_path / "repo", tmp_path / "temp", tmp_path / "bench.json"
    _repo_with_two_commits(repo)
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.chdir(repo)
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--seconds", "1", "--out", str(out),
            "w=2"]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["parent"] == _git(repo, "rev-parse", "HEAD~1")
    assert record["change"] == _git(repo, "rev-parse", "HEAD")
    wall = record["summary"]["w seed=20240901"]["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (0.5, 0.25)
    assert len(record["runs"]) == 4
    assert list(temp.iterdir()) == []  # both archives removed
    assert not (repo / "benchmarks" / "out").exists()


def test_a_revision_that_names_no_commit_exits_2(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    _repo_with_two_commits(repo)
    monkeypatch.chdir(repo)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD~5", "--change", "HEAD", "--out",
                          str(tmp_path / "bench.json"), "w=1"])
    assert exc.value.code == 2 and not (tmp_path / "bench.json").exists()
