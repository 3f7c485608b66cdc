"""fermatsyz: exact witnesses that Frobenius pullbacks of syzygy bundles on
Fermat curves lose semistability, plus the tight-closure counterexample
pipeline built on the same arithmetic.

All computations are over F_p with exact integer/rational arithmetic.
Every elimination runs in the one numpy kernel (``fermatsyz._kernels``).
Section spaces are computed by the structured block decomposition alone.
The dense syzygy matrix (``bundle.syzygy_matrix``) survives as a
reference: ``section_space_dim(spec, n, "dense")`` takes its rank, and
the tests eliminate it to cross-check the structured basis.

``import fermatsyz`` loads this module alone.  Every name in ``__all__``,
and every submodule (``fermatsyz.bundle``), is imported on first access
(PEP 562), so a command loads only what it runs.  The check path --
``verify_certificate``, ``certify_destabilization``, ``find_parameters``,
``deviation_lower_bound`` and ``tc_counterexample`` -- runs on ``field``,
``poly``, ``ring``, ``syzygy``, ``stability`` and ``tightclosure`` and
never imports numpy; the construction (``bundle``, ``linalg``,
``_kernels``) loads when ``search_destabilization`` or ``section_space``
first runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BACKEND": "_kernels",
    "section_space": "bundle",
    "section_space_dim": "bundle",
    "PrimeField": "field",
    "FermatRelation": "poly",
    "GradedPoly": "poly",
    "Monomial": "poly",
    "frobenius_power": "poly",
    "normal_form": "poly",
    "FermatRing": "ring",
    "DestabCertificate": "stability",
    "HNData": "stability",
    "ParameterChoice": "stability",
    "certify_destabilization": "stability",
    "deviation_lower_bound": "stability",
    "find_parameters": "stability",
    "hn_data": "stability",
    "search_destabilization": "stability",
    "verify_certificate": "stability",
    "SectionVector": "syzygy",
    "SyzygySpec": "syzygy",
    "CechClassP1": "tightclosure",
    "TCParameters": "tightclosure",
    "TCReport": "tightclosure",
    "cech_class_p1": "tightclosure",
    "tc_counterexample": "tightclosure",
}

_SUBMODULES = {
    "_kernels",
    "bundle",
    "cli",
    "errors",
    "field",
    "linalg",
    "poly",
    "ring",
    "stability",
    "syzygy",
    "tightclosure",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
