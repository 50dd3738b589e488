"""Compare two commits with paired runs of the benchmark harness.

Each revision is resolved to its commit id in the git repository of the
working directory, and its ``git archive`` is extracted into a temporary
directory, which is removed at the end.  Each pair runs
``benchmarks/run.py`` once in the parent's directory and once in the
change's, in a fresh process with that directory as working directory,
and alternates which side goes first.  The summary has, per workload and
end-to-end metric, the medians and the lower and upper quartiles of both
sides, the relative change of the medians, the interquartile range of the
parent's runs, and the number of pairs the change won, along with the
failed and attempted case counts.  The record names both commit ids, and
every run's last-line JSON is kept under "runs".  Standard library only.

Run from inside the repository, with one WORKLOAD=PAIRS argument per
workload::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seconds 30 --out BENCH.json exact=6 holo=2 nonholo=2 oracles=2

Only committed files are compared.  For an A/A control, give the same
revision twice.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # all lower is better


def run_side(root, workload, seed, seconds):
    """The last-line JSON of one harness run in the checkout at root."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_of(revision):
    """The commit id of revision in the git repository of the working directory."""
    done = subprocess.run(["git", "rev-parse", "--verify", "--quiet", revision + "^{commit}"],
                          capture_output=True, text=True)
    if done.returncode:
        raise ValueError("%r names no commit" % revision)
    return done.stdout.strip()


def extract(commit, root):
    """Extract the git archive of commit into the directory root."""
    archive = subprocess.run(["git", "archive", commit], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")


def quartiles(values):
    """The lower and upper quartiles (exclusive method); one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs):
    """Per-metric statistics of the pairs of one workload."""
    sides = {side: [r["result"] for r in runs if r["side"] == side]
             for side in ("parent", "change")}
    out = {"pairs": len(sides["change"]),
           "failed": {side: sum(r["failed"] for r in res) for side, res in sides.items()},
           "attempted": {side: sum(r["attempted"] for r in res) for side, res in sides.items()},
           "correct": all(r["correct"] for res in sides.values() for r in res)}
    for name in METRICS:
        parent = [r["metrics"][name]["value"] for r in sides["parent"]]
        change = [r["metrics"][name]["value"] for r in sides["change"]]
        before, after = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        out[name] = {"parent_median": round(before, 4), "change_median": round(after, 4),
                     "relative": round(after / before - 1, 4),
                     "parent_iqr": round(p3 - p1, 4),
                     "parent_q1": round(p1, 4), "parent_q3": round(p3, 4),
                     "change_q1": round(c1, 4), "change_q3": round(c3, 4),
                     "change_better_pairs": sum(c < p for p, c in zip(parent, change))}
    return out


def parse_plan(specs):
    plan = []
    for spec in specs:
        workload, _, pairs = spec.partition("=")
        if not workload or not pairs.isdigit() or int(pairs) < 1:
            raise argparse.ArgumentTypeError("expected WORKLOAD=PAIRS, got %r" % spec)
        plan.append((workload, int(pairs)))
    return plan


def pair_runs(plan, roots, seed, seconds):
    """Every run of the plan, in the directories roots["parent"] and roots["change"]."""
    runs = []
    for workload, pairs in plan:
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(roots[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "trace": 0,
                             "pair": pair, "side": side, "first": order[0],
                             "result": result})
                print("%s pair %d %s: wall_s %.4f failed %d" % (
                    workload, pair, side, result["metrics"]["wall_s"]["value"],
                    result["failed"]), file=sys.stderr)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent commit")
    parser.add_argument("--change", required=True, help="revision of the change")
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD=PAIRS")
    args = parser.parse_args(argv)
    try:
        plan = parse_plan(args.plan)
        commits = {"parent": commit_of(args.parent), "change": commit_of(args.change)}
    except (argparse.ArgumentTypeError, ValueError) as exc:
        parser.error(str(exc))
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        roots = {"parent": parent, "change": change}
        for side, root in roots.items():
            extract(commits[side], root)
        runs = pair_runs(plan, roots, args.seed, args.seconds)

    summary = {"%s seed=%d" % (workload, args.seed):
               summarize([r for r in runs if r["workload"] == workload])
               for workload, _ in plan}
    record = {
        "what": args.what,
        "command": "python3 benchmarks/run.py --workload <workload> --seed %d --seconds %g "
                   "--trace 0" % (args.seed, args.seconds),
        "parent": commits["parent"],
        "change": commits["change"],
        "host": "%d CPUs, Python %s" % (os.cpu_count(), platform.python_version()),
        "method": "pairs of runs of the parent and the change, alternating which side runs "
                  "first; the last-line JSON of each run is under runs",
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
