"""Every top-level function and class in src/ckpolylog is named elsewhere in src/.

A definition that nothing else in the package names is either dead code or
test-only code, which belongs in tests/oracles.py.  The exceptions are
listed below, each with its reason; an entry that is gone, or that src/
now names, must leave the list.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ckpolylog"

ALLOWED = {
    "cmd_ideal": "cli.main dispatches cmd_* by name",
    "cmd_locus": "cli.main dispatches cmd_* by name",
    "cmd_verify": "cli.main dispatches cmd_* by name",
    "basis_certificate_deg3": "its determinant is to become the rank certificate of "
                              "one period-table builder (ROADMAP item 6)",
    "graded_kernel_dimension": "to become the production ideal route (ROADMAP item 4)",
    "kappa_coordinates": "to prove the rational points of a locus (ROADMAP item 3)",
    "deconcat_coproduct": "the words API that tests/test_words.py checks",
    "project_bidegree": "the words API that tests/test_words.py checks",
    "graded_dimension": "the words API that tests/test_words.py checks",
}


def _unnamed():
    """(module, name) of each top-level definition that src/ names only once."""
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    out = []
    for module, text in texts.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                word = re.compile(r"\b%s\b" % node.name)
                if sum(len(word.findall(t)) for t in texts.values()) == 1:
                    out.append((module, node.name))
    return out


UNNAMED = _unnamed()


def test_every_definition_is_named_elsewhere_in_src():
    stray = ["%s.%s" % (module, name) for module, name in UNNAMED if name not in ALLOWED]
    assert not stray, "named nowhere else in src/: %s" % ", ".join(stray)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_still_unnamed(name):
    assert name in {n for _, n in UNNAMED}, "%s: drop it from ALLOWED" % name
