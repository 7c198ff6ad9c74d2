"""Certificate-level resampling of locus_for over a grid of precisions.

For S in {2}, {3}, p in {5, 7, 11, 13, 17, 31} and each (M, g) below, the
locus at (M, g) and at (M + 12, g) must name the same disks and zeros,
with the same digits up to M and the same Newton bounds, before and after
S3-symmetrizing.  tests/test_loci.py runs a few cells; this runs them all
(about 15 s).  From the repository root:

    PYTHONPATH=src python tests/check_locus_resampling.py

It prints each mismatch and exits 1 if there was any.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from test_loci import resampling_mismatch  # noqa: E402

SETS = ((2,), (3,))
PRIMES = (5, 7, 11, 13, 17, 31)
PRECISIONS = ((5, 2), (6, 3), (8, 3), (12, 3), (12, 5), (20, 3))


def main():
    failed = 0
    for S in SETS:
        for p in PRIMES:
            for M, g in PRECISIONS:
                bad = resampling_mismatch(p, S, M, g)
                if bad:
                    failed += 1
                    print("FAIL %s" % bad)
                else:
                    print("ok   S=%s p=%d (M, g)=(%d, %d)" % (S, p, M, g))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
