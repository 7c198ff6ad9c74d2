"""Every def in src/ckpolylog runs under some command, or a roadmap item names its caller.

A fresh interpreter installs sys.setprofile before it imports ckpolylog, so
what runs at import counts and no cache that another test filled hides a
call.  It then runs cli.main over every golden command, the verify suites the
goldens leave out, the rejected command lines of tests/test_cli.py and one
--out run.  Each def of the package (methods and nested defs included) must
have been entered; a code object is matched to its def by file, name and
first line, which for a decorated def is its first decorator's line.
__repr__ is exempt, because error messages print it.  The other exceptions
are listed below, each with its reason; an entry that now runs must leave
the list.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_cli
from test_golden import COMMANDS

SRC = Path(__file__).resolve().parents[1] / "src" / "ckpolylog"

# defs that seed an open ROADMAP item: that item will run them
SEEDS = {
    "elimination.graded_kernel_dimension": "to become the production ideal route "
                                           "(ROADMAP item 3)",
    "elimination._li_monomials": "a helper of graded_kernel_dimension (ROADMAP item 3)",
    "elimination._f_monomials": "a helper of graded_kernel_dimension (ROADMAP item 3)",
    "elimination._nullspace": "a helper of graded_kernel_dimension (ROADMAP item 3)",
    "words.monomials": "a helper of graded_kernel_dimension (ROADMAP item 3)",
    "galois.PeriodTable.to_json": "the shape of the shipped zeta table (ROADMAP item 4)",
    "words.ShuffleElement.to_json": "serializes the zeta table's entries (ROADMAP item 4)",
    "words.ShuffleElement.sorted_terms": "orders the zeta table's terms (ROADMAP item 4)",
    "words._frac_str": "spells the zeta table's coefficients (ROADMAP item 4)",
    "galois.basis_certificate_deg3": "its determinant is to become the rank certificate "
                                     "of one period-table builder (ROADMAP item 5)",
    "galois._tensor_coords": "a helper of basis_certificate_deg3 (ROADMAP item 5)",
    "symbols.TensorExpr.bidegree_part": "a helper of basis_certificate_deg3 (ROADMAP item 5)",
}

# value semantics that tests compare or hash by, though no command does
VALUE_SEMANTICS = {
    "padic.PadicNumber.__eq__": "tests compare p-adic values with ==",
    "padic.PrecisionPolicy.__eq__": "equal policies built apart must compare equal",
    "padic.PrecisionPolicy.__hash__": "a policy that defines __eq__ must stay hashable",
    "symbols.Expression.__hash__": "an Expression that defines __eq__ must stay hashable",
    "words.LinearCombination.__bool__": "test_linear_combination_core asserts the "
                                        "truthiness of combinations",
    **dict.fromkeys(["symbols.ExprFraction.%s" % name
                     for name in ("__add__", "__sub__", "__neg__", "is_zero")],
                    "test_exprfraction_coefficients_negate_and_cancel adds, subtracts "
                    "and negates shuffle elements with ExprFraction coefficients"),
}

ALLOWED = {**SEEDS, **VALUE_SEMANTICS}

# runs the elimination until its degree guard fires, for 0.8-1.5 s in process
# on a 2-CPU Xeon machine, and enters no def that the other commands leave out
SLOW = {("ideal", "--S", "2,3")}


def _command_lines(out):
    argvs = [list(argv) for argv, _ in COMMANDS.values()]
    argvs += [["verify", "all", "--p", "5"], ["verify", "appendix", "--p", "5"]]
    argvs += [list(argv) for argv, _ in test_cli.ARGUMENT_ERRORS + test_cli.UNSUPPORTED_INPUT
              if argv not in SLOW]
    argvs.append(["ideal", "--S", "3", "--n", "2", "--out", out])
    return argvs


TRACER = """
import contextlib, io, json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
from ckpolylog import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps([[c.co_filename, c.co_name, c.co_firstlineno] for c in entered]))
"""


def _defs():
    """module.qualname -> (file name, def name, first line) of every def in src/."""
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = (child.decorator_list or [child])[0].lineno
                out[module + prefix + child.name] = (module, child.name, first)
                visit(child, module, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ".")
    return out


DEFS = _defs()


@pytest.fixture(scope="module")
def never_entered(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("reachability") / "cert.json")
    proc = subprocess.run([sys.executable, "-c", TRACER, json.dumps(_command_lines(out))],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr
    entered = {(Path(f).stem, name, line) for f, name, line in json.loads(proc.stdout)
               if Path(f).parent == SRC}
    return {qualname for qualname, key in DEFS.items() if key not in entered}


def test_every_def_runs_under_some_command(never_entered):
    stray = sorted(name for name in never_entered
                   if name not in ALLOWED and not name.endswith(".__repr__"))
    assert not stray, "no command runs: %s" % ", ".join(stray)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_def_still_never_runs(name, never_entered):
    assert name in DEFS, "%s: no such def; drop it from ALLOWED" % name
    assert name in never_entered, "%s: a command runs it; drop it from ALLOWED" % name
