"""One measured pass over a workload's case list, in a fresh process.

Started by run.py with BLAS pinned to one thread and ``src`` on PYTHONPATH.
Prints one JSON object: set-up time (from the parent's launch timestamp to
the start of the first case), wall time of the pass, peak RSS, attempted and
failed cases, the input digest and, when traced, the per-layer aggregates.

    PYTHONPATH=src python3 benchmarks/one_pass.py --workload holo --seed 20240901
    PYTHONPATH=src python3 benchmarks/one_pass.py --workload holo --seed 20240901 --record

``--record`` writes the pass's results as the reference for its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def reference_path(workload: str, digest: str) -> str:
    return os.path.join(REFERENCE_DIR, "%s-%s.json" % (workload, digest[:16]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--spans", default="", help="write the traced pass's spans here (.npz)")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    launched = time.monotonic() if args.launched is None else args.launched

    import ncfree  # noqa: F401  (set-up includes importing the whole package)
    import workloads
    from tracing import Tracer

    work = workloads.build(args.workload, args.seed)
    ref_file = reference_path(work.name, work.digest)
    reference = None
    if os.path.exists(ref_file) and not args.record:
        with open(ref_file) as fh:
            stored = json.load(fh)
        if stored["digest"] != work.digest:
            raise RuntimeError("%s records digest %s" % (ref_file, stored["digest"]))
        reference = stored["cases"]
        if sorted(reference) != sorted(c.id for c in work.cases):
            raise RuntimeError("%s does not match the case list" % ref_file)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    failures = []
    results = {}
    started = time.perf_counter()
    setup_s = time.monotonic() - launched
    for i, case in enumerate(work.cases):
        if tracer is not None:
            tracer.case_id = i
        try:
            out = case.run()
            problems = case.check(out)
            if reference is not None:
                problems += workloads.compare(out, reference[case.id], case.id)
        except Exception as exc:  # a refusal or a crash counts as a failed case
            problems = ["%s: %s" % (type(exc).__name__, exc)]
            out = None
        if problems:
            failures.append({"case": case.id, "problems": problems[:3]})
        elif args.record:
            results[case.id] = out
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"workload": work.name, "seed": args.seed, "digest": work.digest,
              "reference": reference is not None, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "attempted": len(work.cases),
              "failed": len(failures), "failures": failures[:5]}
    if tracer is not None:
        layers = tracer.aggregate(wall_s)
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        residual = self_total + layers["trace.unwrapped_s"] - wall_s
        if abs(residual) > 1e-6:
            raise RuntimeError("self times plus unwrapped time miss wall_s by %g s" % residual)
        report["layers"] = layers
        report["spans"] = len(tracer.start)
        if args.spans:
            tracer.save(args.spans, [c.id for c in work.cases])
    if args.record:
        if failures:
            raise SystemExit("not recording: %d cases failed: %r" % (len(failures), failures[:3]))
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        entries = {case.id: workloads.reference_entry(case, results[case.id])
                   for case in work.cases}
        seeds = {args.seed}
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                seeds.update(json.load(fh)["seeds"])
        with open(ref_file, "w") as fh:
            json.dump({"workload": work.name, "digest": work.digest,
                       "seeds": sorted(seeds), "cases": entries}, fh, separators=(",", ":"))
            fh.write("\n")
        report["recorded"] = os.path.relpath(ref_file, os.path.dirname(HERE))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
