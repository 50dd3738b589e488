"""Spans around the calls into ncfree's public functions, kept in memory.

The tracer wraps each function listed in LAYERS and installs the wrapper on
every loaded ``ncfree`` module namespace that binds the original object, so
calls made inside the library (``holo_moment`` calling ``kappa_pi`` through
``matrices``' globals, say) are seen as well as the benchmark's own calls.
Enumerators return their iterator wrapped: every ``next()`` is its own span,
so time spent producing items is charged to the enumerator and items are
counted.  Spans are (name, start, end, parent span, case id); they are
aggregated, and optionally written to disk, only after the last case.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# layer (module) -> public functions timed in the traced run
LAYERS = {
    "partitions": ("enumerate_nc", "collapse_pairs", "is_noncrossing"),
    "families": ("enumerate_ncstar", "enumerate_ncdm", "enumerate_ncstar2",
                 "enumerate_interval_pairings"),
    "symmetry": ("symmetrize", "check_collapse_martingale", "absorption_probabilities"),
    "cumulants": ("moment_from_cumulants", "determining_sequence_from_moments", "c_norm_2m",
                  "kappa_pi", "rdiag_block_weight"),
    "matrices": ("trace_sum_complex", "trace_sum_star_complex", "holo_moment",
                 "nonholo_moment", "holo_rhs_bound", "nonholo_rhs_bound", "schatten_norm",
                 "operator_norm", "build_Ml"),
    "oracles": ("fock_moment", "free_group_moment", "brute_moment", "fock_norm_estimate"),
}
ENUMERATORS = frozenset({"partitions.enumerate_nc", "families.enumerate_ncstar",
                         "families.enumerate_ncdm", "families.enumerate_ncstar2",
                         "families.enumerate_interval_pairings"})
KAPPA = "cumulants.kappa_pi"
NAMES = tuple("%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns)


def layer_metric_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in NAMES:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
        out.append((name + ".busy_s", "s", "lower"))
        if name in ENUMERATORS:
            out.append((name + ".items", "count", "lower"))
    out.append((KAPPA + ".nonzero_ratio", "ratio", "higher"))
    out.append(("trace.wall_s", "s", "lower"))
    out.append(("trace.unwrapped_s", "s", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.outermost = array("b")  # 0 when a span of the same name is open above it
        self.items = [0] * len(NAMES)
        self.nexts = [0] * len(NAMES)  # next() spans, StopIteration included
        self.kappa_nonzero = 0
        self.case_id = -1
        self._stack = []
        self._depth = [0] * len(NAMES)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.outermost.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def wrap(self, nid: int, fn):
        qualified = NAMES[nid]
        enumerator = qualified in ENUMERATORS
        kappa = qualified == KAPPA

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if enumerator:
                return _TracedIterator(self, nid, iter(result))
            if kappa and result:
                self.kappa_nonzero += 1
            return result

        return traced

    def install(self) -> int:
        """Replace every binding of each listed function in ncfree's modules.

        Returns the number of bindings replaced.  Raises when a listed name
        is missing, so a renamed function cannot silently report zeros.
        """
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "ncfree" or key.startswith("ncfree."))]
        replaced = 0
        for nid, qualified in enumerate(NAMES):
            module_name, fn_name = qualified.split(".")
            home = sys.modules.get("ncfree." + module_name)
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None or not callable(original):
                raise LookupError("traced function %s is missing from ncfree" % qualified)
            wrapper = self.wrap(nid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced += 1
        return replaced

    def aggregate(self, wall_s: float) -> dict:
        """Per-function calls, self and busy seconds, items; plus the remainder
        of the traced wall time that no wrapped span covers."""
        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        if np.any(end < start):
            raise RuntimeError("a span was left open")
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        busy_s = np.bincount(names[outer], weights=dur[outer], minlength=k)
        covered = float(dur[~has_parent].sum())
        out = {}
        for nid, qualified in enumerate(NAMES):
            # an enumerator's next() spans share its name but are not calls
            out[qualified + ".calls"] = int(calls[nid]) - self.nexts[nid]
            out[qualified + ".self_s"] = float(self_s[nid])
            out[qualified + ".busy_s"] = float(busy_s[nid])
            if qualified in ENUMERATORS:
                out[qualified + ".items"] = self.items[nid]
        kappa_calls = out[KAPPA + ".calls"]
        out[KAPPA + ".nonzero_ratio"] = self.kappa_nonzero / kappa_calls if kappa_calls else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.unwrapped_s"] = wall_s - covered
        return out

    def save(self, path: str, case_ids: list) -> None:
        np.savez(path, names=np.array(NAMES), cases=np.array(case_ids),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 case=np.frombuffer(self.case, dtype=np.int32))


class _TracedIterator:
    """Iterator proxy: each next() is a span of the enumerator's name."""

    __slots__ = ("_tracer", "_nid", "_it")

    def __init__(self, tracer: Tracer, nid: int, it):
        self._tracer = tracer
        self._nid = nid
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.nexts[self._nid] += 1
        idx = tracer._open(self._nid)
        try:
            item = next(self._it)
        finally:
            tracer._close(idx)
        tracer.items[self._nid] += 1
        return item
