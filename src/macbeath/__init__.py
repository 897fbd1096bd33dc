"""Inner/outer regularity census for Macbeath maps with rotation group PSL(2,q).

The package classifies orientably regular maps of type {m,n} whose rotation
group is PSL(2,q) as inner regular (full automorphism group PSL(2,q) x C2) or
outer regular (PGL(2,q)) by the square/non-square criterion on the class
parameter s, verifies the parity law for the outer count, and gathers the
empirical prime-density statistics the wreath-product Galois model predicts.
"""

from ._version import __version__
from .census import (
    CensusRecord,
    FieldData,
    ParityVerdict,
    TraceClass,
    cps_discriminant,
    field_data,
    map_census,
    matrix_oracle,
)
from .density import (
    GaloisModel,
    PatternCensus,
    SigmaTally,
    galois_model,
    negative_root_count,
    pattern_census,
    predicted_sigma_densities,
    sweep,
    wreath_cycle_distribution,
)
from .errors import BadReduction, Error, Inadmissible, IntegrityError, OracleError
from .gf import FactorList, FieldCtx, FieldElem, chi, degree_pattern, reduce_and_factor, sqrt_in_field
from .intpoly import IntPoly, discriminant, doubled, psi, psi_at_one, s_polynomial, vieta_lucas
from .numkit import PrimeStream, is_prime, mult_order_signed, primes_in_classes

__all__ = [name for name in dir() if not name.startswith("_")]
