"""Exact spanning-tree counting on self-similar fractal graphs.

The package derives the spectral-decimation data of a fully symmetric
finitely ramified self-similar structure in exact rational arithmetic,
inducts the spectrum of the probabilistic graph Laplacian level by
level, and assembles the number of spanning trees of every graph
approximation in prime-factored form, together with the asymptotic
complexity constant (tree entropy).  A brute-force Kirchhoff oracle
certifies the results at small levels.
"""

from .counting import AssemblyError, exponent_table, preiterate_product, tau
from .decimation import (
    CaseRecord,
    DecimationData,
    DecimationError,
    InconsistentSpectrumError,
    Spectra,
    SpectrumTable,
    classify,
    crosscheck_spectrum,
    derive,
    spectrum,
)
from .entropy import EntropyReport, bounds, entropy
from .factored import FactoredInteger, factorize
from .kirchhoff import (
    det_star_P,
    tau_bruteforce,
    verify_matrix_tree,
    wedge,
    wedge_check,
)
from .levels import DegreeStats, LevelGraph, build_level, degree_stats, export
from .polys import AlgebraicClass, Polynomial, RationalFunction
from .structures import (
    BUILTIN_NAMES,
    InvalidStructureError,
    SelfSimilarStructure,
    ValidationReport,
    builtin,
    load_json,
    validate,
)

__version__ = "0.1.0"
