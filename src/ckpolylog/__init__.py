"""Chabauty-Kim computations for the thrice-punctured line over Spec Z[1/S].

Shuffle Hopf algebra of the mixed-Tate Galois coordinate ring, Goncharov
coproducts of motivic polylogarithms, Chabauty-Kim ideal generators by
elimination, and p-adic Coleman-function numerics locating and certifying
the resulting loci.
"""

from .padic import PadicNumber, PrecisionPolicy, rational_reconstruct
from .words import (GeneratorSet, ShuffleElement, TensorElement,
                    shuffle_product, deconcat_coproduct, reduced_coproduct,
                    project_bidegree, graded_dimension)
from .symbols import Expression, Symbol, li_u, log_u, zeta_u
from .galois import (PeriodTable, basis_certificate_deg3, build_table_z_half,
                     build_table_z_sixth, f_sigma_tau_expression,
                     kummer_degree_one, standard_genset)
from .cocycles import (CocycleCoordinates, PolylogWord, brown_entry,
                       cocycle_apply, eval_universal, kappa_coordinates,
                       theta_sharp)
from .elimination import (IdealElement, ck_ideal_generators,
                          specialize_coefficients, verify_vanishing)
from .polylog import PolylogEngine, get_engine, padic_L3_check
from .loci import (ColemanFunction, Locus, assemble_coleman,
                   counterexample_cocycle, find_zeros, intersect_loci,
                   locus_for, s3_symmetrize, weight2_function,
                   weight4_function)
from .archimedean import complex_P3, kummer_spence_check

__version__ = "0.1.0"
