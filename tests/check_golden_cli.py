"""Run every golden command in a fresh ``python -m ckpolylog`` process.

tests/test_golden.py calls ``cli.main`` in the test process; the benchmark
runs each command as its own ``python -m ckpolylog`` child with
PYTHONDONTWRITEBYTECODE=1.  This script does the same for every entry of
``test_golden.COMMANDS``, under ``-W error`` so that a warning raised in
``src/`` fails the run, and compares stdout and exit status with the
golden file and the entry.  From the repository root:

    PYTHONPATH=src python tests/check_golden_cli.py

It prints a diff for each mismatch and exits 1 if there was any.  After an
intended change of output, check each diff and rewrite the goldens with

    PYTHONPATH=src python tests/check_golden_cli.py --write

which replaces a golden file by its command's stdout when the exit status
is the one its entry names; a wrong status still fails.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from test_golden import COMMANDS, GOLDEN  # noqa: E402


def main(argv):
    write = argv == ["--write"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    failed = 0
    for name, (argv, status) in sorted(COMMANDS.items()):
        run = subprocess.run([sys.executable, "-W", "error", "-m", "ckpolylog", *argv],
                             capture_output=True, text=True, env=env)
        golden = GOLDEN / (name + ".json")
        want = golden.read_text()
        if run.returncode == status and run.stdout == want:
            print("ok   %s" % name)
            continue
        if write and run.returncode == status:
            golden.write_text(run.stdout)
            print("WROTE %s" % name)
        else:
            failed += 1
            print("FAIL %s: exit %d, want %d" % (name, run.returncode, status))
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(True), run.stdout.splitlines(True),
            "golden/%s.json" % name, "stdout"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
