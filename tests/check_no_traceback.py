"""Run a grid of command lines, each in a fresh ``python -m ckpolylog`` process.

Each child runs under ``-W error``, so a warning raised in ``src/`` fails
its line.  Every run must end within TIMEOUT seconds with exit status 0
(certified), 1 (computed but not certified) or 2 (rejected), and print no
traceback; a rejection prints exactly one line on stderr.  The grid reaches
past what the goldens pin:

  * ``ideal --S l --n k --abstract-only`` for l in {2, 3, 5, 7}, k = 1..10;
  * ``locus --S l --p p --n k`` for l in {2, 3, 5}, p in {7, 11},
    k in {2, 3, 4, 6};
  * at larger primes, where every disk's Teichmüller lift is longer:
    ``locus --S 2 --p 13``, ``locus --S 2 --p 31 --symmetrize``,
    ``locus --S 3 --p 101`` and ``locus --S 3 --p 31 --prec 30``, whose
    disk degree N = 45 passes p, so a disk-series integral divides by p;
  * ``locus --S 3 --p 7 --prec 100``, whose logarithms run at 111 digits;
  * ``verify counterexample --S l --p p --n k`` for l in {2, 3},
    p in {5, 11}, k in {1, 4, 8};
  * at the smallest precisions, where exact and tracked zeros meet:
    ``locus --S l --p p --prec M --guard g --symmetrize`` for l in {2, 3},
    p in {5, 7}, (M, g) in {(1, 0), (2, 1), (4, 3)};
    ``verify counterexample --p 5 --prec M --guard g`` for (M, g) in
    {(1, 0), (4, 3), (7, 3)}; and ``verify hopf --p 5 --prec 1 --guard 0``;
  * ideals whose elimination outgrows its guard, each rejected in one line
    and never hung: ``ideal --S 3 --n 20``, ``ideal --S 2 --n 30`` and
    ``ideal --S 2,3 --n 8``;
  * and numerics too large to build, rejected the same way:
    ``locus --S 3 --p 1000003``, ``locus --S 3 --p 5 --prec 100000``,
    ``verify counterexample --S 3 --p 5 --n 10000``, whose engine runs
    through weight 10000, ``verify counterexample --S 3 --p 5 --n 475``,
    the first refused --n at p = 5, and
    ``verify counterexample --S 3 --p 31 --n 396``, which would run about
    three times as long as the slowest admitted locus.

Each run's exit status and the sha256 of its stdout must also match its
line of GRID, ``tests/golden/no_traceback_grid.txt``, so a change of any
output on the grid shows here.  From the repository root:

    PYTHONPATH=src python tests/check_no_traceback.py

It prints one line per command and exits 1 if any run broke the rule or
left its pinned line.  After an intended change of output, check each
changed command and regenerate the file with

    PYTHONPATH=src python tests/check_no_traceback.py --write
"""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

TIMEOUT = 60
GRID = Path(__file__).parent / "golden" / "no_traceback_grid.txt"


def commands():
    for ell, k in itertools.product((2, 3, 5, 7), range(1, 11)):
        yield "ideal --S %d --n %d --abstract-only" % (ell, k)
    for ell, p, k in itertools.product((2, 3, 5), (7, 11), (2, 3, 4, 6)):
        yield "locus --S %d --p %d --n %d" % (ell, p, k)
    yield "locus --S 2 --p 13"
    yield "locus --S 2 --p 31 --symmetrize"
    yield "locus --S 3 --p 101"
    yield "locus --S 3 --p 31 --prec 30"
    yield "locus --S 3 --p 7 --prec 100"
    for ell, p, k in itertools.product((2, 3), (5, 11), (1, 4, 8)):
        yield "verify counterexample --S %d --p %d --n %d" % (ell, p, k)
    low = ((1, 0), (2, 1), (4, 3))
    for ell, p, (M, g) in itertools.product((2, 3), (5, 7), low):
        yield "locus --S %d --p %d --prec %d --guard %d --symmetrize" % (ell, p, M, g)
    for M, g in ((1, 0), (4, 3), (7, 3)):
        yield "verify counterexample --p 5 --prec %d --guard %d" % (M, g)
    yield "verify hopf --p 5 --prec 1 --guard 0"
    yield "ideal --S 3 --n 20"
    yield "ideal --S 2 --n 30"
    yield "ideal --S 2,3 --n 8"
    yield "locus --S 3 --p 1000003"
    yield "locus --S 3 --p 5 --prec 100000"
    yield "verify counterexample --S 3 --p 5 --n 10000"
    yield "verify counterexample --S 3 --p 5 --n 475"
    yield "verify counterexample --S 3 --p 31 --n 396"


def fault(run):
    """What the run did wrong, or None."""
    if run.returncode not in (0, 1, 2):
        return "exit %d" % run.returncode
    if "Traceback" in run.stdout + run.stderr:
        return "traceback"
    if run.returncode == 2 and run.stderr.count("\n") != 1:
        return "exit 2 with %d stderr lines" % run.stderr.count("\n")
    return None


def pin(cmd, run):
    """The grid line of a run: exit status, stdout sha256 and command."""
    return "%d %s %s" % (run.returncode, hashlib.sha256(run.stdout.encode()).hexdigest(), cmd)


def main(argv):
    write = argv == ["--write"]
    pinned = {} if write else {line.split(" ", 2)[2]: line
                               for line in GRID.read_text().splitlines()}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    failed = 0
    lines = []
    for cmd in commands():
        try:
            run = subprocess.run([sys.executable, "-W", "error", "-m", "ckpolylog",
                                  *cmd.split()],
                                 capture_output=True, text=True, env=env, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            failed += 1
            print("FAIL %s: timed out after %d s" % (cmd, TIMEOUT))
            continue
        lines.append(pin(cmd, run))
        why = fault(run)
        if why is None and not write and lines[-1] != pinned.get(cmd):
            why = "exit status or stdout differs from %s" % GRID.name
        if why is None:
            print("ok   exit %d  %s" % (run.returncode, cmd))
            continue
        failed += 1
        print("FAIL %s: %s" % (cmd, why))
        sys.stdout.write(run.stderr)
    if write and not failed:
        GRID.write_text("".join(line + "\n" for line in lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
