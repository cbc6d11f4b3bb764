"""Exact computer algebra for differential graded categories.

Validates finite dg-category presentations, builds the triangular matrix
dg-category of two dg-categories and a dg-bimodule, and verifies the
equivalence between the associated comma category and the category of
dg-modules over the triangular construction, all in exact arithmetic.
"""

from .fields import PrimeField, Rationals, field_from_descriptor
from .graded import GradedMap, GradedModule, compose_graded, kernel
from .complexes import DgModule, HomComplex, TensorComplex
from .category import (
    DgCategoryPresentation,
    HomElement,
    opposite_category,
    tensor_category,
    validate_dg_category,
)
from .functors import (
    DgFunctor,
    DgNatTransformation,
    compose_nat,
    dgnat_differential,
    dgnat_space,
    representable_module,
    validate_dg_functor,
    yoneda_module,
)
from .bimodule import (
    Bimodule,
    g_on_morphisms,
    g_on_objects,
    validate_bimodule,
)
from .lambda_cat import build_lambda, restrict_module
from .comma import (
    CommaMorphism,
    CommaObject,
    build_coproduct_module,
    check_equivalence,
    comma_hom_space,
    extract_comma_from_module,
    f_on_morphisms,
    phi_iso,
    validate_comma_object,
)

__version__ = "0.1.0"

__all__ = [
    "PrimeField",
    "Rationals",
    "field_from_descriptor",
    "GradedMap",
    "GradedModule",
    "compose_graded",
    "kernel",
    "DgModule",
    "HomComplex",
    "TensorComplex",
    "DgCategoryPresentation",
    "HomElement",
    "opposite_category",
    "tensor_category",
    "validate_dg_category",
    "DgFunctor",
    "DgNatTransformation",
    "compose_nat",
    "dgnat_differential",
    "dgnat_space",
    "representable_module",
    "validate_dg_functor",
    "yoneda_module",
    "Bimodule",
    "g_on_objects",
    "g_on_morphisms",
    "validate_bimodule",
    "build_lambda",
    "restrict_module",
    "CommaObject",
    "CommaMorphism",
    "build_coproduct_module",
    "check_equivalence",
    "comma_hom_space",
    "extract_comma_from_module",
    "f_on_morphisms",
    "phi_iso",
    "validate_comma_object",
]
