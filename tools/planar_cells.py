"""Time ``matrices.planar_sum`` on a fixed list of cells.

The cells are those of the ROADMAP table of where exact computation stops,
on the unit-norm ``random_family(d, 2, 2, default_rng(0))``, and three
cells of large d at m = 1: the star families ``random_star_family(d, 2,
2, default_rng(0))`` at d = 6 and 8 and ``random_family(10, 2, 1,
default_rng(0))``, all three under the circular preset.  Each cell is
timed best of 3, with BLAS on one thread.  Prints one JSON object: for
each cell its seconds and the real part of its moment (a string where it
is not finite), or the error of a cell past MOMENT_DP_CAP.  Needs ncfree
and nothing past what ncfree itself imports.

Run from anywhere, for every cell or for the cells named::

    python3 tools/planar_cells.py [CELL ...]
"""

import json
import math
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

from ncfree.cumulants import CumulantSpec  # noqa: E402
from ncfree.matrices import planar_sum, random_family, random_star_family  # noqa: E402

REPEATS = 3
FRONTIER = {"circular": {1: (64, 128, 256, 512, 1024), 2: (64, 128)},
            "haar": {2: (32, 64, 128), 3: (16, 32, 64)}}


def cells():
    """{name: (make family, preset name, m)}, in the order they are timed."""
    out = {}
    for preset, by_d in FRONTIER.items():
        for d, ms in by_d.items():
            for m in ms:
                out["d%d-%s-m%d" % (d, preset, m)] = (
                    lambda d=d: random_family(d, 2, 2, np.random.default_rng(0)), preset, m)
    for d in (6, 8):
        out["d%d-star-circular-m1" % d] = (
            lambda d=d: random_star_family(d, 2, 2, np.random.default_rng(0)), "circular", 1)
    out["d10-alpha1-circular-m1"] = (
        lambda: random_family(10, 2, 1, np.random.default_rng(0)), "circular", 1)
    return out


def time_cell(make, preset, m):
    """(best seconds of REPEATS calls, real part of the moment) at unit norm."""
    a = make()
    unit = a.scaled(1 / a.frobenius())
    spec = CumulantSpec.from_name(preset)
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = planar_sum(unit, spec, m)
        best = min(best, time.perf_counter() - start)
    return best, value.real


def main(argv):
    table = cells()
    unknown = [name for name in argv if name not in table]
    if unknown:
        print("planar_cells: unknown cell %s; cells are %s"
              % (", ".join(unknown), ", ".join(table)), file=sys.stderr)
        return 2
    out = {}
    for name in argv or table:
        try:
            seconds, moment = time_cell(*table[name])
        except ValueError as exc:  # past MOMENT_DP_CAP
            out[name] = {"error": str(exc)}
            continue
        out[name] = {"seconds": round(seconds, 6),
                     "moment": moment if math.isfinite(moment) else repr(moment)}
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "repeats": REPEATS, "cells": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
