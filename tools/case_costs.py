"""Time one ``holo`` and one ``nonholo`` case per cell of the benchmark's grid.

A ``holo`` case is ``holo_moment`` and ``holo_rhs_bound`` of one
``random_family(d, 2, 2, rng)``, under the circular and the Haar preset,
on the cells (d, m) of the ``holo`` workload.  A ``nonholo`` case is
``nonholo_moment`` and ``nonholo_rhs_bound`` of one
``random_adjacent_distinct_family(d, 3, 2, rng)`` under the semicircle and
of one ``random_star_family(d, 2, 2, rng)`` under the circular preset, on
the cells of the ``nonholo`` workload.  Repeat k draws fresh families from
``default_rng(k)`` before its clock starts, so each case reads a family
it has not seen, as a workload case does; the first repeat also pays for
what a process computes once per shape.  Each cell is timed best of 5,
with BLAS on one thread.  Prints one JSON object: for each cell its
seconds and the moment and bound of repeat 0.  Needs ncfree and nothing
past what ncfree itself imports.

Run from anywhere, for every cell or for the cells named::

    python3 tools/case_costs.py [CELL ...]
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

# one BLAS thread, as benchmarks/run.py pins it, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402  (ncfree's own dependency)

from ncfree import matrices  # noqa: E402
from ncfree.cumulants import CumulantSpec  # noqa: E402

REPEATS = 5
# the (d, m) grids of the holo and nonholo workloads
HOLO_GRID = ((1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
NONHOLO_GRID = ((1, 3), (2, 2), (2, 3), (3, 2))


def cells():
    """{name: (draw family from rng, moment, bound, preset name, m)}, in the
    order they are timed."""
    out = {}
    for d, m in HOLO_GRID:
        for preset in ("circular", "haar"):
            out["holo-d%d-m%d-%s" % (d, m, preset)] = (
                lambda rng, d=d: matrices.random_family(d, 2, 2, rng),
                matrices.holo_moment, matrices.holo_rhs_bound, preset, m)
    for d, m in NONHOLO_GRID:
        out["nonholo-d%d-m%d-semicircle" % (d, m)] = (
            lambda rng, d=d: matrices.random_adjacent_distinct_family(d, 3, 2, rng),
            matrices.nonholo_moment, matrices.nonholo_rhs_bound, "semicircle", m)
        out["nonholo-d%d-m%d-circular-star" % (d, m)] = (
            lambda rng, d=d: matrices.random_star_family(d, 2, 2, rng),
            matrices.nonholo_moment, matrices.nonholo_rhs_bound, "circular", m)
    return out


def time_cell(draw, moment, bound, preset, m):
    """(best seconds of REPEATS cases, moment and bound of repeat 0)."""
    spec = CumulantSpec.from_name(preset)
    best, first = float("inf"), None
    for k in range(REPEATS):
        a = draw(np.random.default_rng(k))
        start = time.perf_counter()
        values = (moment(a, spec, m), bound(a, spec, m))
        best = min(best, time.perf_counter() - start)
        first = first or values
    return best, first


def main(argv):
    table = cells()
    unknown = [name for name in argv if name not in table]
    if unknown:
        print("case_costs: unknown cell %s; cells are %s"
              % (", ".join(unknown), ", ".join(table)), file=sys.stderr)
        return 2
    out = {}
    for name in argv or table:
        seconds, (moment, bound) = time_cell(*table[name])
        out[name] = {"seconds": round(seconds, 6), "moment": moment, "bound": bound}
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "repeats": REPEATS, "cells": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
