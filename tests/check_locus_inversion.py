"""The precondition of s3_symmetrize's three images, over a grid of primes.

For S in {2}, {3} and every prime 5 <= p <= 101, the full zero searches of
the weight-2 and weight-4 functions must be closed under z -> 1/z, disk by
disk: disks a and 1/a mod p with equal Strassmann bounds, and each zero's
inverse a zero with the same certificate.  s3_symmetrize of the weight-2
and weight-4 loci must equal the reference that checks all six images.
tests/test_loci.py runs the primes up to 31; this runs them all (about
25 s).  From the repository root:

    PYTHONPATH=src python tests/check_locus_inversion.py

It prints each mismatch and exits 1 if there was any.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from ckpolylog.padic import PrecisionPolicy, is_prime  # noqa: E402
from test_loci import inversion_mismatch  # noqa: E402

SETS = ((2,), (3,))
PRIMES = [p for p in range(5, 102) if is_prime(p)]


def main():
    policy = PrecisionPolicy()
    failed = 0
    for S in SETS:
        for p in PRIMES:
            bad = inversion_mismatch(p, S, policy)
            if bad:
                failed += 1
                print("FAIL %s" % bad)
            else:
                print("ok   S=%s p=%d" % (S, p))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
