"""Command-line harness: family dumps, verification suites, norm reports.

Exit codes: 0 all checks pass, 1 a verification row failed, 2 usage or
configuration error.  With a fixed seed every run is deterministic; random
entries come from numpy's seeded PCG64 generator, uniform on [-1, 1] in each
real and imaginary part.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from fractions import Fraction

import numpy as np

from . import families, matrices, oracles
from .cumulants import CumulantSpec, determining_sequence_from_moments
from .families import (
    catalan,
    chain_count_by_ranks,
    chebyshev_pair_count,
    enumerate_interval_pairings,
    enumerate_ncdm,
    enumerate_ncstar,
    enumerate_ncstar2,
    fuss_catalan,
    rank_vectors,
)
from .matrices import (
    StarCoefficientFamily,
    build_Ml,
    holo_norm_2m,
    holo_rhs_bound,
    load_family,
    nonholo_norm_2m,
    nonholo_rhs_bound,
    operator_norm,
    prime_family,
    prime_family_gram,
    random_adjacent_distinct_family,
    random_family,
    random_star_family,
    schatten_norm,
    schatten_pow,
    trace_sum,
    trace_sum_complex,
)
from .partitions import enumerate_nc, format_partition
from .symmetry import (
    GridShape,
    TerminalKind,
    absorption_probabilities,
    check_collapse_martingale,
    collapse_count_profile,
    glued_level_terminal,
    level_exponents,
    level_terminal,
    symmetrize,
    symmetrize_terminal,
    terminal_partitions,
)

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


class Report:
    """Accumulates one row per check; a row fails when residual > tolerance."""

    def __init__(self):
        self.rows = []

    def add(self, experiment: str, params: str, value, bound, residual, tolerance) -> None:
        passed = residual <= tolerance
        self.rows.append({
            "experiment": experiment,
            "params": params,
            "value": _fmt(value),
            "bound": _fmt(bound),
            "passed": "1" if passed else "0",
            "residual": _fmt(float(residual)),
        })

    def exact(self, experiment: str, params: str, value, expected) -> None:
        self.add(experiment, params, value, expected, 0 if value == expected else 1, 0)

    def check(self, experiment: str, params: str, ok: bool, value="", bound="") -> None:
        self.add(experiment, params, value, bound, 0 if ok else 1, 0)

    @property
    def all_passed(self) -> bool:
        return all(row["passed"] == "1" for row in self.rows)

    def write(self, stream) -> None:
        writer = csv.DictWriter(
            stream, fieldnames=["experiment", "params", "value", "bound", "passed", "residual"])
        writer.writeheader()
        for row in sorted(self.rows, key=lambda r: (r["experiment"], r["params"])):
            writer.writerow(row)


# ---------------------------------------------------------------------------
# verification suites


def suite_counting(args) -> Report:
    rep = Report()
    for n in range(1, args.n + 1):
        count = sum(1 for _ in enumerate_nc(n))
        rep.exact("nc-count", "n=%d" % n, count, catalan(n))
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            g = GridShape(d, m)
            pairings = sum(1 for _ in enumerate_ncstar2(g))
            rep.exact("star-pairing-count", "d=%d,m=%d" % (d, m), pairings, fuss_catalan(d, m))
            avoiding = sum(1 for _ in enumerate_interval_pairings(g))
            rep.exact("interval-pairing-count", "d=%d,m=%d" % (d, m),
                      avoiding, chebyshev_pair_count(d, m))
    for m in range(1, args.m + 2):
        for d in range(1, args.d + 2):
            total = sum(chain_count_by_ranks(m, s) for s in rank_vectors(m, d))
            rep.exact("chain-count", "d=%d,m=%d" % (d, m), total, fuss_catalan(d, m))
    return rep


def suite_martingale(args) -> Report:
    rep = Report()
    for m in range(1, args.m + 1):
        g = GridShape(1, m)
        violations = 0
        checked = 0
        for p in enumerate_ncstar(g):
            for k in range(1, 2 * m + 1):
                checked += 1
                try:
                    check_collapse_martingale(p, k)
                except AssertionError:  # the check raises on a violation
                    violations += 1
        rep.check("martingale", "m=%d,checked=%d" % (m, checked), violations == 0,
                  value=violations, bound=0)
    return rep


def suite_terminal(args) -> Report:
    rep = Report()
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            g = GridShape(d, m)
            terminals = terminal_partitions(g)
            fixed = all(
                symmetrize(t, i * d) == t
                for t in terminals.values()
                for i in range(1, 2 * m + 1)
            )
            rep.check("terminal-fixed-points", "d=%d,m=%d" % (d, m), fixed)
            for name, stream in (("star", enumerate_ncstar(g)), ("interval", enumerate_ncdm(g))):
                count = 0
                try:
                    for p in stream:
                        symmetrize_terminal(p, g)
                        count += 1
                    rep.check("terminal-%s" % name, "d=%d,m=%d,members=%d" % (d, m, count), True)
                except ValueError as exc:
                    rep.check("terminal-%s" % name, "d=%d,m=%d (%s)" % (d, m, exc), False)
    return rep


def suite_fibers(args) -> Report:
    rep = Report()
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            g = GridShape(d, m)
            fibers = families.chain_fibers(g)
            worst = max(len(v) for v in fibers.values())
            rep.check("chain-fiber-bound", "d=%d,m=%d,max=%d" % (d, m, worst),
                      worst <= 4 ** (2 * m), value=worst, bound=4 ** (2 * m))
            members = sum(len(v) for v in fibers.values())
            size_ok = all(
                max(len(b) for b in p.blocks) <= 2 * m
                and sum(1 for b in p.blocks if len(b) == 2) >= d * m - 2 * m
                for v in fibers.values() for p in v)
            rep.check("fiber-structure", "d=%d,m=%d,members=%d" % (d, m, members), size_ok)
            count = sum(1 for _ in enumerate_ncdm(g))
            rep.check("interval-family-bound", "d=%d,m=%d,count=%d" % (d, m, count),
                      count <= (4 * d + 4) ** (2 * m), value=count, bound=(4 * d + 4) ** (2 * m))
    return rep


def _random_families(args, d):
    rng = np.random.default_rng(args.seed)
    return [random_family(d, args.r, args.alpha, rng) for _ in range(args.trials)]


def suite_identifications(args) -> Report:
    rep = Report()
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            g = GridShape(d, m)
            worst_eq = 0.0
            worst_ineq = 0.0
            for fam in _random_families(args, d):
                for l in range(d + 1):
                    lhs = trace_sum(fam, level_terminal(g, l))
                    rhs = schatten_pow(build_Ml(fam, l), m)
                    worst_eq = max(worst_eq, abs(lhs - rhs) / max(1.0, abs(rhs)))
                for l in range(1, d + 1):
                    lhs = trace_sum(fam, glued_level_terminal(g, l))
                    rhs = schatten_pow(build_Ml(fam, l), m)
                    worst_ineq = max(worst_ineq, (lhs - rhs) / max(1.0, abs(rhs)))
            rep.add("identify-equality", "d=%d,m=%d" % (d, m), worst_eq, 1e-9, worst_eq, 1e-9)
            rep.add("identify-inequality", "d=%d,m=%d" % (d, m), worst_ineq, 1e-9,
                    max(worst_ineq, 0.0), 1e-9)
    return rep


def suite_cauchy_schwarz(args) -> Report:
    rep = Report()
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            g = GridShape(d, m)
            members = list(enumerate_ncstar(g))
            fams = _random_families(args, d)
            worst = 0.0
            for fam in fams:
                for p in members:
                    lhs = abs(trace_sum_complex(fam, p))
                    for i in range(1, 2 * m + 1):
                        left = trace_sum(fam, symmetrize(p, d * i))
                        right = trace_sum(fam, symmetrize(p, (m + i) * d))
                        rhs = math.sqrt(max(left, 0.0) * max(right, 0.0))
                        worst = max(worst, lhs - rhs * (1 + 1e-9) - 1e-9)
            rep.check("cauchy-schwarz", "d=%d,m=%d,members=%d" % (d, m, len(members)),
                      worst <= 0.0, value=worst, bound=0.0)
            if m >= 2:
                worst = 0.0
                for fam in fams:
                    norms = [schatten_norm(build_Ml(fam, l), m) for l in range(d + 1)]
                    for p in members:
                        mus = level_exponents(p, g)
                        bound = 1.0
                        for norm, mu in zip(norms, mus):
                            bound *= norm ** (2 * m * float(mu))
                        lhs = abs(trace_sum_complex(fam, p))
                        worst = max(worst, lhs - bound * (1 + 1e-9) - 1e-9)
                rep.check("exponent-bound", "d=%d,m=%d" % (d, m), worst <= 0.0,
                          value=worst, bound=0.0)
            bad = 0
            for p in members:
                probs = absorption_probabilities(p, g)
                prof = collapse_count_profile(p, g)
                for l in range(d + 1):
                    lam = probs[TerminalKind("level", l)]
                    lam += probs.get(TerminalKind("glued", l), Fraction(0))
                    if lam * (m - 1) != prof[l + 1] - prof[l]:
                        bad += 1
                if sum(probs.values()) != 1:
                    bad += 1
            rep.check("absorption-identity", "d=%d,m=%d" % (d, m), bad == 0, value=bad, bound=0)
    return rep


def suite_main_inequality(args) -> Report:
    rep = Report()
    specs = [CumulantSpec.circular(), CumulantSpec.haar_unitary()]
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            for spec in specs:
                worst = 0.0
                for fam in _random_families(args, d):
                    lhs = holo_norm_2m(fam, spec, m)
                    rhs = holo_rhs_bound(fam, spec, m)
                    worst = max(worst, lhs - rhs * (1 + 1e-9))
                rep.check("main-inequality-%s" % spec.kind, "d=%d,m=%d" % (d, m),
                          worst <= 0.0, value=worst, bound=0.0)
    return rep


def suite_nonholo(args) -> Report:
    rep = Report()
    semi = CumulantSpec.semicircular()
    circ = CumulantSpec.circular()
    rng = np.random.default_rng(args.seed)
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            worst = 0.0
            for _ in range(args.trials):
                fam = random_adjacent_distinct_family(d, args.r, args.alpha, rng)
                lhs = nonholo_norm_2m(fam, semi, m)
                rhs = nonholo_rhs_bound(fam, semi, m)
                worst = max(worst, lhs - rhs * (1 + 1e-9))
            rep.check("nonholo-selfadjoint", "d=%d,m=%d" % (d, m), worst <= 0.0,
                      value=worst, bound=0.0)
            worst = 0.0
            for _ in range(args.trials):
                fam = random_star_family(d, args.r, args.alpha, rng)
                lhs = nonholo_norm_2m(fam, circ, m)
                rhs = nonholo_rhs_bound(fam, circ, m)
                worst = max(worst, lhs - rhs * (1 + 1e-9))
            rep.check("nonholo-rdiag", "d=%d,m=%d" % (d, m), worst <= 0.0,
                      value=worst, bound=0.0)
    return rep


def suite_prime(args) -> Report:
    rep = Report()
    p, d = args.p, args.d
    fam = prime_family(p, d)
    rep.exact("prime-frobenius", "p=%d,d=%d" % (p, d),
              int(round(fam.frobenius_sq())), p ** d)
    for l in range(1, d):
        gram = build_Ml(fam, l).matrix
        gram = gram @ gram.conj().T
        expected = prime_family_gram(p, d, l)
        residual = float(np.max(np.abs(gram - expected)))
        rep.add("prime-gram", "p=%d,d=%d,l=%d" % (p, d, l), residual, 1e-10, residual, 1e-10)
        sigma_max = operator_norm(build_Ml(fam, l))
        bound = (d - 1) * p ** (d - 1)
        rep.check("prime-norm-bound", "p=%d,d=%d,l=%d" % (p, d, l),
                  sigma_max ** 2 <= bound + 1e-8, value=sigma_max ** 2, bound=bound)
    return rep


def suite_oracles(args) -> Report:
    rep = Report()
    rng = np.random.default_rng(args.seed)
    circ = CumulantSpec.circular()
    haar = CumulantSpec.haar_unitary()
    for d in range(1, args.d + 1):
        for m in range(1, args.m + 1):
            fam = random_family(d, 2, min(args.alpha, 2), rng)
            lhs = matrices.holo_moment(fam, circ, m)
            rhs = oracles.fock_moment(fam, "circular", m)
            residual = abs(lhs - rhs) / max(1.0, abs(rhs))
            rep.add("oracle-fock", "d=%d,m=%d" % (d, m), lhs, rhs, residual, 1e-8)
            fam = random_family(d, args.r, args.alpha, rng)
            lhs = matrices.holo_moment(fam, haar, m)
            rhs = oracles.free_group_moment(fam, m)
            residual = abs(lhs - rhs) / max(1.0, abs(rhs))
            rep.add("oracle-free-group", "d=%d,m=%d" % (d, m), lhs, rhs, residual, 1e-9)
            if 2 * d * m <= oracles.BRUTE_GROUND_CAP:
                rhs = oracles.brute_moment(haar, fam, m)
                residual = abs(lhs - rhs) / max(1.0, abs(rhs))
                rep.add("oracle-brute", "d=%d,m=%d" % (d, m), lhs, rhs, residual, 1e-9)
    return rep


def suite_haar(args) -> Report:
    rep = Report()
    alphas = determining_sequence_from_moments(lambda w: 1, args.n)
    for n in range(1, args.n + 1):
        expected = (-1) ** (n - 1) * catalan(n - 1)
        rep.exact("haar-alpha", "n=%d" % n, alphas[n - 1], expected)
    return rep


SUITES = {
    "counting": suite_counting,
    "martingale": suite_martingale,
    "terminal": suite_terminal,
    "fibers": suite_fibers,
    "identifications": suite_identifications,
    "cauchy-schwarz": suite_cauchy_schwarz,
    "main-inequality": suite_main_inequality,
    "nonholo": suite_nonholo,
    "prime": suite_prime,
    "oracles": suite_oracles,
    "haar": suite_haar,
}


# ---------------------------------------------------------------------------
# commands


def _family_stream(args):
    """The requested family's iterator and its closed-form count (None if none).

    Raises ValueError on bad sizes, including a size past the family's cap,
    before anything is enumerated.
    """
    if args.family == "nc":
        if args.n is None or args.n < 1:
            raise ValueError("--n must be a positive integer")
        return enumerate_nc(args.n), catalan(args.n)
    if args.d is None or args.m is None or args.d < 1 or args.m < 1:
        raise ValueError("--d and --m must be positive integers")
    g = GridShape(args.d, args.m)
    if args.family == "ncstar":
        return enumerate_ncstar(g), None
    if args.family == "ncstar2":
        return enumerate_ncstar2(g), fuss_catalan(args.d, args.m)
    if args.family == "ncdm":
        return enumerate_ncdm(g), None
    if args.family == "interval-pairings":
        return enumerate_interval_pairings(g), chebyshev_pair_count(args.d, args.m)
    raise ValueError("unknown family %r" % args.family)


def cmd_enumerate(args) -> int:
    try:
        stream, closed_form = _family_stream(args)
    except ValueError as exc:
        print("enumerate: %s" % exc, file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print("enumerate: cannot write --out %s: %s" % (args.out, exc.strerror), file=sys.stderr)
        return 2
    try:
        writer = csv.writer(out)
        writer.writerow(["partition"])
        count = 0
        for p in stream:
            writer.writerow([format_partition(p)])
            count += 1
    finally:
        if args.out:
            out.close()
    if closed_form is not None and count != closed_form:
        print("enumerate: count %d does not match closed form %d" % (count, closed_form),
              file=sys.stderr)
        return 1
    print("count=%d%s" % (count, "" if closed_form is None else " closed_form=%d" % closed_form),
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print("verify: unknown suite %r (choose from %s)"
              % (args.suite, ", ".join(sorted(SUITES))), file=sys.stderr)
        return 2
    for option in ("n", "d", "m", "trials"):
        if getattr(args, option) < 1:
            print("verify: --%s must be a positive integer" % option, file=sys.stderr)
            return 2
    # opened before the suite runs, so an unwritable path costs no work
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print("verify: cannot write --out %s: %s" % (args.out, exc.strerror), file=sys.stderr)
        return 2
    try:
        report = SUITES[args.suite](args)
        report.write(out)
    except (ValueError, ArithmeticError) as exc:
        print("verify: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if args.out:
            out.close()
    return 0 if report.all_passed else 1


def cmd_norm(args) -> int:
    if args.m < 1:
        print("norm: --m must be a positive integer", file=sys.stderr)
        return 2
    try:
        fam = load_family(args.family_file)
        spec = CumulantSpec.from_name(args.spec)
    except (OSError, ValueError) as exc:
        print("norm: %s" % exc, file=sys.stderr)
        return 2
    m = args.m
    if isinstance(fam, StarCoefficientFamily) or spec.kind == "semicircle":
        norm_2m, rhs_bound = nonholo_norm_2m, nonholo_rhs_bound
    else:
        norm_2m, rhs_bound = holo_norm_2m, holo_rhs_bound
    try:
        # both sides are homogeneous of degree 1, so they are computed at
        # unit ||a||_2, where the ratio stays finite when the bound is not
        scale = fam.frobenius()
        unit = fam.scaled(1 / scale) if scale else fam
        lhs = norm_2m(unit, spec, m)
        rhs = rhs_bound(unit, spec, m)
    except (ValueError, ArithmeticError) as exc:
        print("norm: %s" % exc, file=sys.stderr)
        return 2
    norms = matrices.ml_norms(fam, m)
    print("lhs_norm_2m=%s" % _fmt(scale * lhs))
    for l, value in enumerate(norms):
        print("M_%d_norm_2m=%s" % (l, _fmt(value)))
    print("rhs_bound=%s" % _fmt(scale * rhs))
    print("ratio=%s" % _fmt(lhs / rhs if rhs else math.inf))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfree",
        description="Non-crossing partition workbench: enumeration, verification, norms.")
    parser.add_argument("--config", help="key=value file of default parameter overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="dump a partition family as CSV")
    enum.add_argument("--family", required=True,
                      choices=["nc", "ncstar", "ncstar2", "ncdm", "interval-pairings"])
    enum.add_argument("--n", type=int)
    enum.add_argument("--d", type=int)
    enum.add_argument("--m", type=int)
    enum.add_argument("--out")
    enum.set_defaults(func=cmd_enumerate)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True)
    verify.add_argument("--n", type=int, default=8)
    verify.add_argument("--d", type=int, default=2)
    verify.add_argument("--m", type=int, default=2)
    verify.add_argument("--r", type=int, default=2)
    verify.add_argument("--alpha", type=int, default=2)
    verify.add_argument("--p", type=int, default=3)
    verify.add_argument("--trials", type=int, default=5)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    norm = sub.add_parser("norm", help="norms and bounds for a family file")
    norm.add_argument("--family-file", required=True)
    norm.add_argument("--spec", default="circular")
    norm.add_argument("--m", type=int, default=2)
    norm.set_defaults(func=cmd_norm)
    return parser


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("bad config line %r" % line)
            key, raw = line.split("=", 1)
            # kept as text: argparse converts a string default with the option's type
            values[key.strip()] = raw.strip()
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # peek at --config so file values become defaults that flags still override
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        try:
            overrides = _load_config(known.config)
        except (OSError, ValueError) as exc:
            print("config: %s" % exc, file=sys.stderr)
            return 2
        sub_parsers = [sub_parser for sub_action in parser._subparsers._group_actions
                       for sub_parser in sub_action.choices.values()]
        options = {action.dest for sub_parser in sub_parsers for action in sub_parser._actions
                   if action.default is not argparse.SUPPRESS}
        unknown = sorted(set(overrides) - options)
        if unknown:
            print("config: %s: unknown key %s" % (known.config, ", ".join(unknown)),
                  file=sys.stderr)
            return 2
        for sub_parser in sub_parsers:
            sub_parser.set_defaults(**overrides)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
