"""Compare the output of the ncfree command line in two checkouts.

Runs every ``ncfree verify`` suite at the default flags and at
``--seed 7 --trials 2``, and ``ncfree enumerate`` for every family (nc at
n=10, the others at d=2, m=3 and at d=1, m=6), once in each checkout, as
``python -m ncfree`` with the checkout's ``src`` as the only PYTHONPATH
entry and the checkout as working directory.  Every command whose exit
code, stdout or stderr differ is reported with the first line that
differs.  Exits 1 if any command differs, 0 otherwise.  Standard library
only.

Run from anywhere::

    python3 tools/cli_identity.py --parent ../parent --change ../change
"""

import argparse
import os
import subprocess
import sys

SUITES = ("cauchy-schwarz", "counting", "fibers", "haar", "identifications",
          "main-inequality", "martingale", "nonholo", "oracles", "prime", "terminal")
FAMILIES = ("nc", "ncstar", "ncstar2", "ncdm", "interval-pairings")


def commands():
    """The argument lists compared, each after ``python -m ncfree``."""
    out = []
    for suite in SUITES:
        out.append(["verify", "--suite", suite])
        out.append(["verify", "--suite", suite, "--seed", "7", "--trials", "2"])
    out.append(["enumerate", "--family", "nc", "--n", "10"])
    for family in FAMILIES[1:]:
        for d, m in ((2, 3), (1, 6)):
            out.append(["enumerate", "--family", family, "--d", str(d), "--m", str(m)])
    return out


def run(root, argv):
    """(exit code, stdout, stderr) of one command in the checkout at root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "ncfree"] + argv, cwd=root, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def differences(parent, change):
    """One line per part of two (exit code, stdout, stderr) results that differs."""
    out = []
    if parent[0] != change[0]:
        out.append("exit code %d vs %d" % (parent[0], change[0]))
    for name, before, after in zip(("stdout", "stderr"), parent[1:], change[1:]):
        if before == after:
            continue
        lines = (before.splitlines(), after.splitlines())
        at = next((i for i, pair in enumerate(zip(*lines)) if pair[0] != pair[1]),
                  min(map(len, lines)))
        first = tuple(side[at] if at < len(side) else "<end>" for side in lines)
        out.append("%s differs at line %d: %r vs %r" % (name, at + 1, *first))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]

    differing = 0
    todo = commands()
    for command in todo:
        found = differences(*(run(root, command) for root in roots))
        differing += bool(found)
        for line in found:
            print("ncfree %s: %s" % (" ".join(command), line))
    print("%d of %d commands differ" % (differing, len(todo)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
