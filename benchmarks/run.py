"""Benchmark entry point: repeated passes of one workload, each in a fresh process.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload holo --seed 20240901 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one table
    python3 benchmarks/run.py --record-reference --seed 20240901

A run starts passes one at a time until --seconds have been used (at least
MIN_PASSES of them).  Each pass is a new Python process running
benchmarks/one_pass.py with BLAS pinned to one thread, so it pays for the
interpreter, ``import ncfree``, input generation and every lazy cache of the
library, as a command-line invocation does.

With --trace 0 the metrics are wall_s, the mean pass time of the run (all
measured pass time over the number of passes), and the medians of setup_s and
peak_rss_mb over the passes.  Contention from other tenants of a shared host
comes in phases of seconds to minutes; the mean takes in the whole run,
where a median or the fastest pass follows whichever phase the run hit.
With --trace 1 the run alternates untraced and traced passes; it reports the
per-layer metrics averaged over the traced passes, and trace.overhead_frac
from the mean pass times of both kinds.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give every metric with its unit, the
failed fraction and the run environment.  A fuller record, every pass
included, goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from tracing import layer_metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ONE_PASS = os.path.join(HERE, "one_pass.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("holo", "nonholo", "oracles", "exact")
DEFAULT_SEED = 20240901  # the held-out seed 73031 is kept for confirming claims
MIN_PASSES = 3
LAUNCH_LIMIT_S = 140.0  # no pass starts after this, so a run ends well within 180 s
KILL_LIMIT_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class PassFailed(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(root: str, workload: str, seed: int, trace: bool, started: float,
             extra=()) -> dict:
    launched = time.monotonic()
    cmd = [sys.executable, ONE_PASS, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--launched", repr(launched), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(root), cwd=root, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, KILL_LIMIT_S - (launched - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed("pass of %s exceeded the run's time limit" % workload)
    except BaseException:  # interrupted or terminated: never leave the pass running
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise PassFailed("pass of %s exited with %d:\n%s"
                         % (workload, proc.returncode, err.strip()[-2000:]))
    result = json.loads(out.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - launched
    return result


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until the time is used; traced runs alternate untraced and traced."""
    started = time.monotonic()
    plain, traced, rounds = [], [], []
    while True:
        t0 = time.monotonic()
        plain.append(run_pass(root, workload, seed, False, started))
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            # overwritten by the next traced run of the workload, so disk use stays bounded
            spans = os.path.join(OUT_DIR, "spans-%s-%d.npz" % (workload, len(traced)))
            traced.append(run_pass(root, workload, seed, True, started, ("--spans", spans)))
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - started
        enough = len(rounds) >= (1 if trace else MIN_PASSES)
        next_end = elapsed + statistics.median(rounds)
        if (enough and next_end > seconds) or next_end > LAUNCH_LIMIT_S:
            break
    return {"plain": plain, "traced": traced, "seconds": time.monotonic() - started}


def traced_layers(traced: list, plain_wall: float) -> dict:
    """Per-layer metrics over the traced passes: times are means, so the
    identity (self times plus unwrapped time equal wall time) still holds;
    counts and ratios must agree between passes, the work being deterministic."""
    metrics = {}
    for name, unit, _ in layer_metric_names():
        if name == "trace.overhead_frac":
            continue
        values = [p["layers"][name] for p in traced]
        if unit == "s":
            metrics[name] = statistics.fmean(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            raise PassFailed("%s differs between traced passes: %r" % (name, values))
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / plain_wall - 1.0
    return metrics


def summarize(workload: str, seed: int, runs: dict, trace: bool) -> dict:
    passes = runs["plain"] + runs["traced"]
    digests = {p["digest"] for p in passes}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain_wall = statistics.fmean(p["wall_s"] for p in runs["plain"])
    if trace:
        values = traced_layers(runs["traced"], plain_wall)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layer_metric_names()}
    else:
        metrics = {"wall_s": {"value": plain_wall, "unit": "s"}}
        for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": statistics.median(p[name] for p in runs["plain"]),
                             "unit": unit}
    return {"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "detail": {"workload": workload, "seed": seed, "digest": sorted(digests),
                       "reference_checked": all(p["reference"] for p in passes),
                       "passes": len(runs["plain"]), "traced_passes": len(runs["traced"]),
                       "run_s": runs["seconds"],
                       "failures": [f for p in passes for f in p["failures"]][:10]}}


def environment(root: str, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    src = os.path.join(root, "src", "ncfree")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "pinned": PINNED, "seed": seed, "git_commit": commit,
            "source_sha256": source.hexdigest()}


def print_metrics(workload: str, result: dict) -> None:
    d = result["detail"]
    print("%s: %d passes (+%d traced), inputs %s, reference %s"
          % (workload, d["passes"], d["traced_passes"], ",".join(x[:16] for x in d["digest"]),
             "checked" if d["reference_checked"] else "not recorded for these inputs"))
    for name, m in result["metrics"].items():
        print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-52s %14.6g ratio (%d of %d cases)" % (
        "failed_frac", result["failed"] / result["attempted"], result["failed"],
        result["attempted"]))
    for f in d["failures"]:
        print("  FAILED %s: %s" % (f["case"], "; ".join(f["problems"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record every workload's results for --seed as its reference")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncfree", "__init__.py")):
        print("error: run from the root of an ncfree checkout (src/ncfree not found)",
              file=sys.stderr)
        return 2
    if args.record_reference:
        for workload in WORKLOADS:
            done = run_pass(root, workload, args.seed, False, time.monotonic(), ("--record",))
            print("%s: recorded %s" % (workload, done["recorded"]))
        return 0

    env = environment(root, args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            runs = measure(root, workload, args.seed, args.seconds, bool(args.trace))
            results[workload] = summarize(workload, args.seed, runs, bool(args.trace))
            record = dict(results[workload], environment=env, runs=runs)
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, "result-%s-%d-trace%d.json"
                                % (workload, args.seed, args.trace))
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1)
            print_metrics(workload, results[workload])
    except PassFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("environment: %s" % json.dumps(env))
    final = {name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
             for name, r in results.items()}
    print(json.dumps(final[names[0]] if len(names) == 1 else final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
