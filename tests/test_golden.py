"""Certificates must stay byte-identical to the checked-in golden files.

Each golden file is the stdout of one CLI command.  A speedup or refactor
that changes any digit, claimed precision or Newton bound of a certificate
fails here.  `appendix` is left out: its complex float residuals depend on
the platform's libm.

To regenerate after an intended change of output, run from the repository
root

    PYTHONPATH=src python tests/check_golden_cli.py --write

which rewrites each golden from its command's stdout when the command exits
with the status the entry names, and prints the diff of each one it rewrote.
"""

from pathlib import Path

import pytest

from ckpolylog import cli

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit status); an ideal above --n 4 or over two primes is
# computed but not certified, so it exits 1
COMMANDS = {
    "ideal_S3": (["ideal", "--S", "3"], 0),
    "ideal_S2": (["ideal", "--S", "2"], 0),
    "locus_S3_p5": (["locus", "--S", "3", "--p", "5"], 0),
    "locus_S2_p5": (["locus", "--S", "2", "--p", "5"], 0),
    "locus_S3_p7_sym": (["locus", "--S", "3", "--p", "7", "--symmetrize"], 0),
    "locus_S3_p13": (["locus", "--S", "3", "--p", "13"], 0),
    "locus_S3_p31": (["locus", "--S", "3", "--p", "31"], 0),
    "locus_S3_p5_n2": (["locus", "--S", "3", "--p", "5", "--n", "2"], 0),
    "verify_identities_p5": (["verify", "identities", "--p", "5"], 0),
    "verify_counterexample_p5_n6": (["verify", "counterexample", "--p", "5", "--n", "6"], 0),
    "verify_counterexample_p7_n6_prec20": (["verify", "counterexample", "--p", "7", "--n", "6",
                                            "--prec", "20"], 0),
    "verify_hopf_p5": (["verify", "hopf", "--p", "5"], 0),
    "ideal_S5_n5_abstract": (["ideal", "--S", "5", "--n", "5", "--abstract-only"], 1),
    "ideal_S23_n3": (["ideal", "--S", "2,3", "--n", "3"], 1),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_certificate_matches_golden(name, capsys):
    argv, status = COMMANDS[name]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == status
    assert out == (GOLDEN / (name + ".json")).read_text()
