"""The benchmark's command sets and the content check for each certificate.

A workload is a fixed set of ``python -m ckpolylog`` command lines.  The
seed only permutes the order in which a pass runs them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # each an argv tuple for ckpolylog.cli.main
    # spans that must fire in a traced pass; a rename must not read as zero
    expected_spans: tuple = ()


CERTIFY_SMALL = (
    ("ideal", "--S", "3"),
    ("ideal", "--S", "2"),
    ("locus", "--S", "3", "--p", "5"),
    ("locus", "--S", "3", "--p", "7", "--symmetrize"),
    ("locus", "--S", "2", "--p", "5"),
    ("verify", "all", "--p", "5"),
)

LARGE_P = (
    ("locus", "--S", "3", "--p", "13"),
    ("locus", "--S", "3", "--p", "31"),
)

_LOCUS_SPANS = ("polylog.twisted_series", "polylog.teichmuller", "polylog.disk_table",
                "loci.find_zeros", "loci.local_series", "loci.roots", "loci.intersect",
                "galois.resolve", "elimination.shortcut", "cli.command", "cli.emit")

# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # headline certificates at p = 5, 7: process start and resolver engines
    Workload("certify-small", CERTIFY_SMALL, expected_spans=_LOCUS_SPANS + (
        "polylog.period", "galois.table_build", "galois.f_sigma_tau",
        "elimination.groebner", "elimination.ideal_member",
        "elimination.verify_vanishing", "elimination.problem_init",
        "cocycles.eval_universal", "cocycles.cocycle_apply", "loci.symmetrize",
        "words.cobar_square", "symbols.reduced_coproduct", "archimedean.checks")),
    # the twisted series build, growing with p
    Workload("locus-large-p", LARGE_P, expected_spans=_LOCUS_SPANS),
)}


def pass_order(commands, rng):
    """One pass: the same commands, in an order drawn from ``rng``."""
    return rng.sample(list(commands), len(commands))


# -- content checks ----------------------------------------------------------


def _li_weight(monomial):
    return sum(1 if m == "log" else int(m[2:]) for m in monomial)


def _check_ideal(argv, doc):
    gens = doc["generators"]
    li_weights = [max(_li_weight(t["liMonomial"]) for t in g["terms"]) for g in gens]
    if li_weights != [2, 4]:
        return "generator Li-weights %r != [2, 4]" % (li_weights,)
    if doc.get("certified") is not True:
        return "ideal not certified"
    if len(doc.get("specialized", ())) != len(gens):
        return "missing specialized block"
    return None


def _check_locus(argv, doc):
    zeros = doc["zeros"]
    if not all(z["certified"] for z in zeros):
        return "uncertified zero"
    got = sorted(z["rationalGuess"] for z in zeros)
    if "--symmetrize" in argv:
        want = []
    elif argv[argv.index("--S") + 1] == "2":
        want = sorted(["2/1", "1/2", "-1/1"])
    else:
        want = ["-1/1"]
    if got != want:
        return "zeros %r != %r" % (got, want)
    return None


def _check_verify(argv, doc):
    suites = doc["suites"]
    if not suites:
        return "no suites ran"
    bad = [row.get("check", name) for name, rows in sorted(suites.items())
           for row in rows if row.get("passed") is not True]
    return "failed rows %r" % (bad,) if bad else None


_CHECKS = {"ideal": _check_ideal, "locus": _check_locus, "verify": _check_verify}


def check_certificate(argv, exit_code, stdout):
    """None when the command's output is right, else a one-line reason."""
    if exit_code != 0:
        return "exit status %d" % exit_code
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return "output is not JSON: %s" % exc
    try:
        return _CHECKS[argv[0]](argv, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return "malformed certificate: %r" % (exc,)


class CertificateLedger:
    """Remembers each command's first certificate in a run.

    A later certificate for the same command, traced or not, must be
    byte-identical to it.
    """

    def __init__(self):
        self.first = {}

    def check(self, argv, exit_code, stdout):
        reason = check_certificate(argv, exit_code, stdout)
        if reason is None:
            ref = self.first.setdefault(tuple(argv), stdout)
            if ref != stdout:
                reason = "certificate differs from its first run"
        return reason
