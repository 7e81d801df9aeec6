"""Exact-arithmetic engine for designs in finite classical polar spaces.

Modules by responsibility: finite-field tables (fields), standard forms
and isotropic-subspace enumeration (geometry), closed-form counts (counting),
incidence and design certification (incidence), the decoding system and local
decodability (decode), the existence-bound budget (klp), exact-cover design
search (search), and the command line (cli).
"""

from ._backend import BACKEND_NAME
from .counting import (
    CountExpression,
    gaussian_binomial,
    lambda_ratio,
    fixed_intersection_count,
    polar_count,
    polar_count_through,
)
from .decode import (
    DecodingSystem,
    build_decoding_system,
    determinant_bound_check,
    verify_local_decodability,
)
from .fields import FieldTable, make_field
from .geometry import (
    BudgetExceededError,
    FormEvaluator,
    PolarSpace,
    Subspace,
    enumerate_extensions,
    is_totally_isotropic,
    isotropic_kspaces,
    rref_canonicalize,
    standard_polar_space,
)
from .incidence import (
    DesignInstance,
    constant_row_sum_check,
    design_from_json,
    design_to_json,
    read_certificate,
    verify_design,
    write_certificate,
)
from .klp import feasibility_report, klp_budget
from .search import (
    CoverMatrix,
    DivisibilityError,
    SearchFailure,
    SearchProblem,
    cover_matrix,
    find_design,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "BudgetExceededError",
    "CountExpression",
    "CoverMatrix",
    "DecodingSystem",
    "DesignInstance",
    "DivisibilityError",
    "FieldTable",
    "FormEvaluator",
    "PolarSpace",
    "SearchFailure",
    "SearchProblem",
    "Subspace",
    "build_decoding_system",
    "constant_row_sum_check",
    "cover_matrix",
    "design_from_json",
    "design_to_json",
    "determinant_bound_check",
    "enumerate_extensions",
    "feasibility_report",
    "find_design",
    "gaussian_binomial",
    "is_totally_isotropic",
    "isotropic_kspaces",
    "klp_budget",
    "lambda_ratio",
    "fixed_intersection_count",
    "make_field",
    "polar_count",
    "polar_count_through",
    "read_certificate",
    "rref_canonicalize",
    "standard_polar_space",
    "verify_design",
    "verify_local_decodability",
    "write_certificate",
]
