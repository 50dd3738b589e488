"""Time the enumeration layer of ncfree on a fixed list of cells.

The cells are NC(n) for n = 10 and 12 (``nc-n10``, ``nc-n12``), every
family of ``ncfree.families`` at (d, m) = (2, 4) and (1, 6) (for example
``ncstar-d2-m4``), and absorption sweeps at (2, 4), (2, 5) and (1, 6)
(``absorption-d2-m5``): ``absorption_probabilities`` of every member of
the star family, on a fresh ``GridShape`` each time, so that no
distribution solved by an earlier run is reused.  Each cell is timed best
of 3.  Prints one JSON object: for each cell its seconds, the members it
went through and their rate per second.  Needs ncfree and nothing past
what ncfree itself imports.

Run from anywhere, for every cell or for the cells named::

    python3 tools/enum_rates.py [CELL ...]
"""

import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncfree import families  # noqa: E402
from ncfree.partitions import enumerate_nc  # noqa: E402
from ncfree.symmetry import GridShape, absorption_probabilities  # noqa: E402

REPEATS = 3
FAMILIES = ("ncstar", "ncstar2", "ncdm", "interval_pairings")


def _count(stream):
    return sum(1 for _ in stream)


def _sweep(d, m):
    g = GridShape(d, m)
    count = 0
    for p in families.enumerate_ncstar(g):
        absorption_probabilities(p, g)
        count += 1
    return count


def cells():
    """{name: function giving the members it went through}, in the order
    they are timed."""
    out = {}
    for n in (10, 12):
        out["nc-n%d" % n] = lambda n=n: _count(enumerate_nc(n))
    for name in FAMILIES:
        enumerate_family = getattr(families, "enumerate_" + name)
        for d, m in ((2, 4), (1, 6)):
            out["%s-d%d-m%d" % (name.replace("_", "-"), d, m)] = (
                lambda f=enumerate_family, d=d, m=m: _count(f(GridShape(d, m))))
    for d, m in ((2, 4), (2, 5), (1, 6)):
        out["absorption-d%d-m%d" % (d, m)] = lambda d=d, m=m: _sweep(d, m)
    return out


def time_cell(run):
    """(best seconds of REPEATS runs, members of the last run)."""
    best, members = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        members = run()
        best = min(best, time.perf_counter() - start)
    return best, members


def main(argv):
    table = cells()
    unknown = [name for name in argv if name not in table]
    if unknown:
        print("enum_rates: unknown cell %s; cells are %s"
              % (", ".join(unknown), ", ".join(table)), file=sys.stderr)
        return 2
    out = {}
    for name in argv or table:
        seconds, members = time_cell(table[name])
        out[name] = {"seconds": round(seconds, 6), "members": members,
                     "per_s": round(members / seconds) if seconds else None}
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS, "cells": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
