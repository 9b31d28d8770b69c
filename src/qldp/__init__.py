"""Local differential privacy, classical and quantum: mechanisms, audits, and
utility analysis (hypothesis-testing exponents, Holevo information, monotone
metrics, and the exact classical LP optimum).

Every name below and every submodule loads on first access, so that
``import qldp`` (and each ``python -m qldp`` call) pays only for the modules
it uses: the scalar closed forms in :mod:`qldp.exponents` need no numpy.
"""

import importlib

# Home module -> the names the package exports from it.
_EXPORTS = {
    "errors": (
        "DomainError",
        "ExistenceError",
        "PrivacyViolationError",
        "SupportMismatchError",
        "ValidationError",
    ),
    "exponents": (
        "ExponentPair",
        "IsoclinicBound",
        "SweepRecord",
        "advantage_crossover",
        "advantage_threshold_asym",
        "advantage_threshold_sym",
        "asym_exponent",
        "asymptotic_prediction",
        "boundary_mu",
        "classical_asym_term",
        "classical_opt_asym",
        "classical_opt_sym",
        "classical_opt_sym_bound",
        "classical_sym_term",
        "closed_form_exponents",
        "isoclinic_bound",
        "isoclinic_constant",
        "ratio_sweep",
        "sym_exponent",
    ),
    "frames": (
        "FrameCertificate",
        "FusionFrame",
        "build_eitff",
        "clifford_generators",
        "frame_from_json",
        "frame_to_json",
        "radon_hurwitz",
        "simplex_vectors",
        "verify_eitff",
    ),
    "linalg": (
        "Spectrum",
        "eigh",
        "is_psd",
        "matrix_from_json",
        "matrix_function",
        "matrix_to_json",
    ),
    "mechanisms": (
        "LdpMechanism",
        "QldpMechanism",
        "admissible_mu_interval",
        "binary_mechanism",
        "induced_mechanism",
        "isoclinic_mechanism",
        "ldp_level",
        "load_mechanism",
        "mechanism_from_json",
        "mechanism_to_json",
        "qldp_level",
        "save_mechanism",
        "sigma_star",
        "subset_mechanism",
        "tilde_family",
    ),
    "metrics": (
        "BKM",
        "KL",
        "RLD",
        "SLD",
        "SQUARE",
        "SQUARED_DIFF",
        "MetricKind",
        "OperatorConvexF",
        "chernoff_information",
        "classical_chernoff",
        "classical_f_divergence",
        "classical_relative_entropy",
        "depolarize",
        "holevo_information",
        "neg_ratio",
        "overlap",
        "petz_f_divergence",
        "petz_metric",
        "relative_entropy",
        "von_neumann_entropy",
        "wyd",
    ),
    "optimal": (
        "LpSolution",
        "SublinearUtility",
        "kairouz_lp",
        "kairouz_lp_symmetric",
        "mutual_information_utility",
        "pairwise_sqrt_utility",
        "utility_of_mechanism",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "expansions", "sampling", "suites")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
