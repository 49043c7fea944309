"""Exact symbolic toolkit for q-solvable algebra presentations.

Presentations of iterated skew polynomial algebras (q-commuting
generators with lower-order tails) are validated against the
homogeneity and torsion conditions, multiplied in their monomial basis,
split into diagonal weights, diagonalized under conjugation, stratified,
and specialized at rational or root-of-unity parameter values.

Importing the package loads none of its modules: each public name below
is imported from its module on first use (PEP 562), and so is each
submodule named as an attribute, so a process pays only for what it
runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "errors": (
        "AdRootError", "FamilyError", "LatticeError", "LocalizationError",
        "ParseError", "PresentationError", "QsolvError", "RepeatedRootError",
        "RewriteBudgetError", "SpecializationError",
    ),
    "params": (
        "FracElem", "LaurentPoly", "UnitMonomial", "as_field_element",
        "gamma_torsionfree", "unit_product",
    ),
    "presentation": (
        "Finding", "Presentation", "ValidationReport", "validate_presentation",
    ),
    "families": (
        "builtin_presentation", "quantum_affine", "quantum_matrices",
        "quantum_plane", "quantum_weyl", "rank2",
    ),
    "normalform": (
        "NFElement", "delta_apply", "nf_mul", "q_binomial", "q_integer",
        "q_leibniz_expand", "skew_action", "tau_apply",
    ),
    "weights": (
        "element_weight", "is_homogeneous", "monomial_weight",
        "split_ideal_generators", "weight_components",
    ),
    "adjoint": (
        "AdSpectrum", "LocElement", "ad_apply", "ad_eigencomponents",
        "ad_minimal_polynomial", "difference_set", "factor_over_differences",
        "loc_element", "replacement_generator",
    ),
    "torus": (
        "CenterDescription", "LatticeSubgroup", "TorusPresentation",
        "center_lattice", "commutation_factor", "compatible_basis",
        "root_of_unity_structure", "torus_normal_scalar",
        "torus_of_presentation",
    ),
    "strat": (
        "Rank2Strata", "StratumDescriptor", "admissible_compositions",
        "classify_affine_prime", "stratify_affine", "stratify_rank2",
    ),
    "special": (
        "CycNumber", "SpecTarget", "classify_specialization",
        "cyclotomic_polynomial", "is_central_at", "rational_torsionfree",
        "root_of_unity_witness", "specialize_presentation",
    ),
    "cli": ("parse_element", "parse_presentation", "print_presentation"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"densepoly", "intlinalg"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
