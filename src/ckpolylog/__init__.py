"""Chabauty-Kim computations for the thrice-punctured line over Spec Z[1/S].

Shuffle Hopf algebra of the mixed-Tate Galois coordinate ring, Goncharov
coproducts of motivic polylogarithms, Chabauty-Kim ideal generators by
elimination, and p-adic Coleman-function numerics locating and certifying
the resulting loci.

Importing the package loads none of its submodules; import the one you
need (ckpolylog.cli, ckpolylog.loci, ...).
"""

__version__ = "0.1.0"
