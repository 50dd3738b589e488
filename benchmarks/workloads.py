"""The benchmark's workloads: seeded inputs, fixed case lists and checks.

Every case calls ncfree only through module attributes (``matrices.holo_moment``
and so on), so the traced run sees the benchmark's calls once its wrappers are
installed.  Families are built with the public constructors from numbers this
module draws itself, never through the library's ``random_*`` helpers, so a
library change cannot change the load.  Draws use numpy's PCG64 with each real
and imaginary part uniform on [-1, 1].

A case returns a dict of named results.  Its check compares them with an
oracle, a closed form or a bound, at the tolerance tests/test_acceptance.py
pins for that comparison; it returns a list of problems, empty on success.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, List

import numpy as np

from ncfree import cumulants, families, matrices, oracles, partitions, symmetry
from ncfree.cumulants import CumulantSpec
from ncfree.matrices import CoefficientFamily, StarCoefficientFamily
from ncfree.symmetry import GridShape, TerminalKind

# Families of the Fock lower bound: the first two per d of acceptance
# criterion 12.  Their power-iteration cost varies up to 80-fold between
# families (0.2-17 s at d=2), so drawing them from the run's seed would make
# wall time a function of the seed; they are fixed instead.
FOCK_NORM_SEED = 20240901 + 5
FOCK_NORM_KEEP = 2

BOUND_TOL = 1e-9
FOCK_TOL = 1e-8
FREE_GROUP_TOL = 1e-9
BRUTE_TOL = 1e-9
FOCK_LOWER_TOL = 1e-6

# (d, m) -> trials.  Passes are kept short (1-3 s on one core) so that a run
# holds many of them: the run reports its fastest pass, and host contention
# comes in phases of several seconds.
HOLO_CELLS = {(1, 4): 3, (1, 5): 1, (2, 2): 6, (2, 3): 6, (2, 4): 2, (3, 2): 6, (3, 3): 4}
NONHOLO_CELLS = {(1, 3): 12, (2, 2): 12, (2, 3): 4, (3, 2): 8}
ORACLE_CELLS = {(1, 1): 2, (1, 2): 2, (1, 3): 2, (1, 4): 2, (1, 5): 1, (2, 1): 2, (2, 2): 2}
NC_COUNT_MAX = 10
PAIR_COUNT_GRID = [(d, m) for d in range(1, 4) for m in range(1, 4)]
MARTINGALE_GRID = (1, 6)
ABSORPTION_GRIDS = [((2, 3), None), ((3, 3), None), ((2, 4), 24)]  # (grid, members kept)


@dataclass
class Case:
    id: str
    run: Callable[[], dict]
    check: Callable[[dict], List[str]]
    family: object = None  # kept for recording exact brackets of iterative norms


@dataclass
class Workload:
    name: str
    cases: List[Case]
    digest: str


# ---------------------------------------------------------------------------
# inputs


def _matrix(rng: np.random.Generator, alpha: int) -> np.ndarray:
    return rng.uniform(-1, 1, (alpha, alpha)) + 1j * rng.uniform(-1, 1, (alpha, alpha))


def plain_family(rng, d: int, r: int, alpha: int, adjacent_distinct: bool = False):
    entries = {}
    for key in product(range(1, r + 1), repeat=d):
        if adjacent_distinct and any(key[i] == key[i + 1] for i in range(d - 1)):
            continue
        entries[key] = _matrix(rng, alpha)
    return CoefficientFamily(d, r, alpha, entries)


def star_family(rng, d: int, r: int, alpha: int):
    """Full support on reduced words: equal neighbouring indices carry equal stars."""
    entries = {}
    for idx in product(range(1, r + 1), repeat=d):
        for stars in product((False, True), repeat=d):
            if all(not (idx[i] == idx[i + 1] and stars[i] != stars[i + 1])
                   for i in range(d - 1)):
                entries[(idx, stars)] = _matrix(rng, alpha)
    return StarCoefficientFamily(d, r, alpha, entries)


class _Digest:
    """sha256 over every generated input, in case order."""

    def __init__(self, name: str):
        self._h = hashlib.sha256(name.encode() + b"\0")

    def label(self, text: str) -> None:
        self._h.update(text.encode() + b"\0")

    def family(self, a) -> None:
        self.label("%s d=%d r=%d alpha=%d" % (type(a).__name__, a.d, a.r, a.alpha))
        for key in sorted(a.entries):
            self.label(repr(key))
            self._h.update(np.ascontiguousarray(a.entries[key]).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# checks


def _close(name: str, value, expected, tol: float) -> List[str]:
    if abs(value - expected) > tol * max(1.0, abs(expected)):
        return ["%s %r differs from %r beyond %g" % (name, value, expected, tol)]
    return []


def _under_bound(m: int):
    def check(out: dict) -> List[str]:
        lhs, rhs = out["lhs"], out["rhs"]
        if not lhs > 0:
            return ["moment %r is not positive" % lhs]
        if lhs ** (1.0 / (2 * m)) > rhs * (1 + BOUND_TOL):
            return ["norm %r exceeds bound %r" % (lhs ** (1.0 / (2 * m)), rhs)]
        return []
    return check


def _equal(name: str, value, expected) -> List[str]:
    if value != expected or type(value) is not type(expected):
        return ["%s is %r, expected %r" % (name, value, expected)]
    return []


# ---------------------------------------------------------------------------
# workloads


def _holo(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    digest = _Digest("holo")
    specs = (("circular", CumulantSpec.circular()), ("haar", CumulantSpec.haar_unitary()))
    cases = []
    for (d, m), trials in HOLO_CELLS.items():
        for t in range(trials):
            a = plain_family(rng, d, 2, 2)
            digest.family(a)
            for spec_name, spec in specs:
                def run(a=a, spec=spec, m=m):
                    lhs = matrices.holo_moment(a, spec, m)
                    return {"lhs": lhs, "rhs": matrices.holo_rhs_bound(a, spec, m)}
                cases.append(Case("d=%d m=%d t=%d %s" % (d, m, t, spec_name), run,
                                  _under_bound(m)))
    return Workload("holo", cases, digest.hexdigest())


def _nonholo(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    digest = _Digest("nonholo")
    semi, circ = CumulantSpec.semicircular(), CumulantSpec.circular()
    cases = []
    for (d, m), trials in NONHOLO_CELLS.items():
        for t in range(trials):
            plain = plain_family(rng, d, 3, 2, adjacent_distinct=True)
            star = star_family(rng, d, 2, 2)
            digest.family(plain)
            digest.family(star)
            for label, a, spec in (("semicircle", plain, semi), ("circular-star", star, circ)):
                def run(a=a, spec=spec, m=m):
                    lhs = matrices.nonholo_moment(a, spec, m)
                    return {"lhs": lhs, "rhs": matrices.nonholo_rhs_bound(a, spec, m)}
                cases.append(Case("d=%d m=%d t=%d %s" % (d, m, t, label), run,
                                  _under_bound(m)))
    return Workload("nonholo", cases, digest.hexdigest())


def _oracles(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    digest = _Digest("oracles")
    circ, haar = CumulantSpec.circular(), CumulantSpec.haar_unitary()
    cases = []
    for (d, m), trials in ORACLE_CELLS.items():
        for t in range(trials):
            a = plain_family(rng, d, 2, 1 + t % 2)
            digest.family(a)

            def run_fock(a=a, m=m):
                return {"lhs": matrices.holo_moment(a, circ, m),
                        "fock": oracles.fock_moment(a, "circular", m)}

            def check_fock(out):
                return _close("fock moment", out["lhs"], out["fock"], FOCK_TOL)

            cases.append(Case("d=%d m=%d t=%d circular-fock" % (d, m, t), run_fock, check_fock))

            b = plain_family(rng, d, 2 + t % 2, 2)
            digest.family(b)

            def run_haar(b=b, m=m):
                return {"lhs": matrices.holo_moment(b, haar, m),
                        "free_group": oracles.free_group_moment(b, m),
                        "brute": oracles.brute_moment(haar, b, m)}

            def check_haar(out):
                return (_close("free-group moment", out["lhs"], out["free_group"],
                               FREE_GROUP_TOL)
                        + _close("brute moment", out["lhs"], out["brute"], BRUTE_TOL))

            cases.append(Case("d=%d m=%d t=%d haar-free-group-brute" % (d, m, t),
                              run_haar, check_haar))
    fixed = np.random.default_rng(FOCK_NORM_SEED)
    for d in (1, 2):
        for t in range(3):  # drawn in criterion 12's order, so the stream matches
            a = plain_family(fixed, d, 2, 2)
            if t >= FOCK_NORM_KEEP:
                continue
            digest.family(a)

            def run_norm(a=a):
                est = oracles.fock_norm_estimate(a, "circular")
                worst = max(matrices.operator_norm(matrices.build_Ml(a, l).matrix)
                            for l in range(a.d + 1))
                return {"estimate": est, "block_norm": worst}

            def check_norm(out):
                if out["block_norm"] > out["estimate"] + FOCK_LOWER_TOL:
                    return ["block norm %r exceeds Fock estimate %r"
                            % (out["block_norm"], out["estimate"])]
                return []

            cases.append(Case("d=%d t=%d fock-norm" % (d, t), run_norm, check_norm, a))
    return Workload("oracles", cases, digest.hexdigest())


def _exact(seed: int) -> Workload:
    # Integer and Fraction work has no random input: the case list, and so the
    # digest and the recorded reference, are the same for every seed.
    digest = _Digest("exact")
    cases = []

    def run_haar():
        return {"alphas": list(cumulants.determining_sequence_from_moments(lambda w: 1, 6))}

    def check_haar(out):
        problems = []
        for n, value in enumerate(out["alphas"], start=1):
            problems += _equal("alpha_%d" % n, value, (-1) ** (n - 1) * families.catalan(n - 1))
        return problems

    cases.append(Case("haar-determining n<=6", run_haar, check_haar))

    for n in range(1, NC_COUNT_MAX + 1):
        def run_nc(n=n):
            return {"count": sum(1 for _ in partitions.enumerate_nc(n))}
        cases.append(Case("nc-count n=%d" % n, run_nc,
                          lambda out, n=n: _equal("NC(%d)" % n, out["count"],
                                                  families.catalan(n))))

    for d, m in PAIR_COUNT_GRID:
        g = GridShape(d, m)

        def run_star(g=g):
            return {"count": sum(1 for _ in families.enumerate_ncstar2(g))}

        def run_interval(g=g):
            return {"count": sum(1 for _ in families.enumerate_interval_pairings(g))}

        cases.append(Case("star-pairings d=%d m=%d" % (d, m), run_star,
                          lambda out, d=d, m=m: _equal("star pairings", out["count"],
                                                       families.fuss_catalan(d, m))))
        cases.append(Case("interval-pairings d=%d m=%d" % (d, m), run_interval,
                          lambda out, d=d, m=m: _equal("interval pairings", out["count"],
                                                       families.chebyshev_pair_count(d, m))))

    def run_martingale():
        g = GridShape(*MARTINGALE_GRID)
        counts = []
        for p in families.enumerate_ncstar(g):
            row = [symmetry.collapse_block_count(p)]
            for k in range(1, 2 * g.m + 1):
                row.extend(symmetry.check_collapse_martingale(p, k))
            counts.append(row)
        return {"counts": counts}

    def check_martingale(out):
        bad = [row for row in out["counts"]
               if any(row[i] + row[i + 1] != 2 * row[0] for i in range(1, len(row), 2))]
        return ["martingale violated: %r" % row for row in bad[:3]]

    cases.append(Case("martingale d=%d m=%d" % MARTINGALE_GRID, run_martingale,
                      check_martingale))

    for (d, m), keep in ABSORPTION_GRIDS:
        g = GridShape(d, m)

        def run_absorption(g=g, keep=keep):
            rows = []
            for i, p in enumerate(families.enumerate_ncstar(g)):
                if keep is not None and i == keep:
                    break
                probs = symmetry.absorption_probabilities(p, g)
                rows.append({"profile": list(symmetry.collapse_count_profile(p, g)),
                             "probs": {str(kind): value for kind, value in probs.items()}})
            return {"members": rows}

        def check_absorption(out, g=g):
            problems = []
            for row in out["members"]:
                probs, prof = row["probs"], row["profile"]
                if sum(probs.values()) != 1:
                    problems.append("absorption probabilities sum to %s" % sum(probs.values()))
                for l in range(g.d + 1):
                    lam = probs[str(TerminalKind("level", l))]
                    lam += probs.get(str(TerminalKind("glued", l)), Fraction(0))
                    if lam * (g.m - 1) != prof[l + 1] - prof[l]:
                        problems.append("absorption identity fails at level %d" % l)
            return problems[:3]

        label = "absorption d=%d m=%d" % (d, m)
        if keep is not None:
            label += " first=%d" % keep
        cases.append(Case(label, run_absorption, check_absorption))

    for case in cases:
        digest.label(case.id)
    return Workload("exact", cases, digest.hexdigest())


BUILDERS = {"holo": _holo, "nonholo": _nonholo, "oracles": _oracles, "exact": _exact}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    if name not in BUILDERS:
        raise ValueError("unknown workload %r; choose from %s" % (name, ", ".join(WORKLOADS)))
    return BUILDERS[name](seed)


# ---------------------------------------------------------------------------
# reference results: exact values compared for equality, floats to 1e-9


REFERENCE_REL_TOL = 1e-9


def encode(value):
    """JSON form of a case result; Fractions become 'p/q' strings."""
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError("cannot encode %r" % type(value))


def compare(value, ref, path: str = "") -> List[str]:
    """Differences between a result and its recorded reference.

    A reference of the form {"at_least": x, "at_most": y} brackets an
    iterative estimate: the recorded estimate from below and the exact value
    from above, each with the float tolerance.
    """
    value = encode(value)
    if value == ref:
        return []
    if isinstance(ref, dict) and set(ref) == {"at_least", "at_most"}:
        lo, hi = ref["at_least"], ref["at_most"]
        if not (isinstance(value, float)
                and lo * (1 - REFERENCE_REL_TOL) <= value <= hi * (1 + REFERENCE_REL_TOL)):
            return ["%s: %r outside recorded [%r, %r]" % (path, value, lo, hi)]
        return []
    if isinstance(ref, float) and isinstance(value, float):
        if abs(value - ref) > REFERENCE_REL_TOL * abs(ref):
            return ["%s: %r differs from recorded %r" % (path, value, ref)]
        return []
    if isinstance(ref, dict) and isinstance(value, dict):
        if set(ref) != set(value):
            return ["%s: keys %s, recorded %s" % (path, sorted(value), sorted(ref))]
        out = []
        for key in ref:
            out += compare(value[key], ref[key], "%s.%s" % (path, key))
        return out
    if isinstance(ref, list) and isinstance(value, list):
        if len(ref) != len(value):
            return ["%s: length %d, recorded %d" % (path, len(value), len(ref))]
        out = []
        for i, (v, r) in enumerate(zip(value, ref)):
            out += compare(v, r, "%s[%d]" % (path, i))
            if len(out) >= 3:
                break
        return out
    if value != ref or type(value) is not type(ref):
        return ["%s: %r differs from recorded %r" % (path, value, ref)]
    return []


def exact_fock_norm(a) -> float:
    """Spectral norm of the depth-2d Fock realization, from its dense matrix.

    Used only when recording references, to bracket the iterative estimate.
    """
    op = oracles._FamilyOperator(a, "circular", 2 * a.d)
    dim = op.dim
    columns = []
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        columns.append(op.apply(e.reshape(a.alpha, -1)).ravel())
    return float(np.linalg.norm(np.array(columns).T, 2))


def exact_block_norm(a) -> float:
    return max(float(np.linalg.norm(matrices.build_Ml(a, l).matrix, 2))
               for l in range(a.d + 1))


def reference_entry(case: Case, out: dict) -> dict:
    """Encoded result to record; iterative norms are stored as brackets."""
    entry = encode(out)
    if case.family is not None:
        entry["estimate"] = {"at_least": out["estimate"],
                             "at_most": exact_fock_norm(case.family)}
        entry["block_norm"] = {"at_least": out["block_norm"],
                               "at_most": exact_block_norm(case.family)}
    return entry

