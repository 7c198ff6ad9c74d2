"""Every top-level definition in src/ckpolylog is named elsewhere in src/.

A definition is a function, a class, or a module-level name bound by
assignment (a constant, a table, a cache).  One that nothing else in the
package names is either dead code or test-only code, which belongs in
tests/oracles.py.  Only code names a definition, read off the syntax
tree: a name, an attribute, an imported name, or a string literal that
spells it (galois.TABLED names its builders so).  A word in a docstring
or a comment does not, and neither does a use inside the definition
itself.  The exceptions are listed below, each with its reason; an entry
that is gone, or that src/ now names, must leave the list.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from test_reachability import SEEDS

SRC = Path(__file__).resolve().parents[1] / "src" / "ckpolylog"

ALLOWED = {
    "cmd_ideal": "cli.main dispatches cmd_* by name",
    "cmd_locus": "cli.main dispatches cmd_* by name",
    "cmd_verify": "cli.main dispatches cmd_* by name",
    "__version__": "package metadata",
    **{qualname.partition(".")[2]: SEEDS[qualname]
       for qualname in ("galois.basis_certificate_deg3", "elimination.graded_kernel_dimension")},
}


def _references(tree):
    """How often the code of tree names each identifier."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names[node.value] += 1
    return names


def _defined_names(node):
    """The names a top-level statement defines: a def's or class's name, or
    the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def _unnamed():
    """(module, name) of each top-level definition that no other code in src/ names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if total[name] == _references(node)[name]:
                    out.append((module, name))
    return out


UNNAMED = _unnamed()


def test_every_definition_is_named_elsewhere_in_src():
    stray = ["%s.%s" % (module, name) for module, name in UNNAMED if name not in ALLOWED]
    assert not stray, "named nowhere else in src/: %s" % ", ".join(stray)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_still_unnamed(name):
    assert name in {n for _, n in UNNAMED}, "%s: drop it from ALLOWED" % name
