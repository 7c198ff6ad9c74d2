"""Certificates must stay byte-identical to the checked-in golden files.

Each golden file is the stdout of one CLI command.  A speedup or refactor
that changes any digit, claimed precision or Newton bound of a certificate
fails here.  `appendix` is left out: its complex float residuals depend on
the platform's libm.

To regenerate after an intended change of output, run for each entry

    python -m ckpolylog <argv> > tests/golden/<name>.json
"""

from pathlib import Path

import pytest

from ckpolylog import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "ideal_S3": ["ideal", "--S", "3"],
    "ideal_S2": ["ideal", "--S", "2"],
    "locus_S3_p5": ["locus", "--S", "3", "--p", "5"],
    "locus_S2_p5": ["locus", "--S", "2", "--p", "5"],
    "locus_S3_p7_sym": ["locus", "--S", "3", "--p", "7", "--symmetrize"],
    "locus_S3_p13": ["locus", "--S", "3", "--p", "13"],
    "locus_S3_p5_n2": ["locus", "--S", "3", "--p", "5", "--n", "2"],
    "verify_identities_p5": ["verify", "identities", "--p", "5"],
    "verify_counterexample_p5_n6": ["verify", "counterexample", "--p", "5", "--n", "6"],
    "verify_hopf_p5": ["verify", "hopf", "--p", "5"],
    "ideal_S5_n5_abstract": ["ideal", "--S", "5", "--n", "5", "--abstract-only"],
    "ideal_S23_n3": ["ideal", "--S", "2,3", "--n", "3"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_certificate_matches_golden(name, capsys):
    code = cli.main(COMMANDS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / (name + ".json")).read_text()
