"""fermatsyz: exact witnesses that Frobenius pullbacks of syzygy bundles on
Fermat curves lose semistability, plus the tight-closure counterexample
pipeline built on the same arithmetic.

All computations are over F_p with exact integer/rational arithmetic.
Every elimination runs in the one numpy kernel (``fermatsyz._kernels``).
Section spaces are computed by the structured block decomposition alone.
The dense syzygy matrix (``bundle.syzygy_matrix``) survives as a
reference: ``section_space_dim(spec, n, "dense")`` takes its rank, and
the tests eliminate it to cross-check the structured basis.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND
from .bundle import (
    SectionVector,
    SyzygySpec,
    section_space,
    section_space_dim,
)
from .field import PrimeField
from .poly import FermatRelation, GradedPoly, Monomial, frobenius_power, normal_form
from .ring import FermatRing
from .stability import (
    DestabCertificate,
    HNData,
    ParameterChoice,
    certify_destabilization,
    deviation_lower_bound,
    find_parameters,
    hn_data,
    search_destabilization,
    verify_certificate,
)
from .tightclosure import (
    CechClassP1,
    TCParameters,
    TCReport,
    cech_class_p1,
    tc_counterexample,
)

__all__ = [
    "BACKEND",
    "CechClassP1",
    "DestabCertificate",
    "FermatRelation",
    "FermatRing",
    "GradedPoly",
    "HNData",
    "Monomial",
    "ParameterChoice",
    "PrimeField",
    "SectionVector",
    "SyzygySpec",
    "TCParameters",
    "TCReport",
    "__version__",
    "cech_class_p1",
    "certify_destabilization",
    "deviation_lower_bound",
    "find_parameters",
    "frobenius_power",
    "hn_data",
    "normal_form",
    "search_destabilization",
    "section_space",
    "section_space_dim",
    "tc_counterexample",
    "verify_certificate",
]
