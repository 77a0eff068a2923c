"""Exact weighted-centralizer computations on finite-dimensional algebras
over the rationals.

The core objects: `Algebra` (structure constants over Q), `Weights` (the
weight pair of the defining identity), and `OperatorSpace` (a solved space
of operators in flattened matrix coordinates). Solvers live in
`centralizers`, structural checks in `verify` and `arens`, group algebra
support in `groups`, and file formats plus the batch runner in `fileio`
and `suite`.
"""

from .algebras import (
    Algebra,
    NonAssociativeError,
    center,
    identity,
    is_commutative,
    is_nilpotent_subspace,
    is_unital,
    make_algebra,
    multiply,
    radical,
    relative_center,
    right_identities,
    subspace_product,
)
from .arens import (
    arens_product,
    bidual_times_functional,
    functional_times_element,
    verify_bidual_extension,
)
from .centralizers import (
    OperatorSpace,
    Weights,
    left_centralizers,
    pq_centralizers,
    pq_jordan_centralizers,
    right_centralizers,
    two_sided_centralizers,
)
from .fileio import (
    AlgebraFormatError,
    CayleyFormatError,
    parse_algebra_file,
    parse_algebra_text,
    parse_cayley_file,
    parse_cayley_text,
    serialize_algebra,
    serialize_cayley,
)
from .fixtures import fixtures
from .groups import (
    CayleyTable,
    cayley_table,
    conjugacy_classes,
    group_algebra,
    group_tables,
    validate_group,
    verify_group_centralizer_structure,
)
from .linalg import Subspace
from .reports import FAIL, PASS, PRECONDITION_UNMET, Assertion, Report
from .suite import RunReport, run_suite
from .verify import (
    CHECK_DESCRIPTIONS,
    CHECK_IDS,
    verify_equivalent_range_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraFormatError",
    "Assertion",
    "CayleyFormatError",
    "CayleyTable",
    "CHECK_DESCRIPTIONS",
    "CHECK_IDS",
    "FAIL",
    "NonAssociativeError",
    "OperatorSpace",
    "PASS",
    "PRECONDITION_UNMET",
    "Report",
    "RunReport",
    "Subspace",
    "Weights",
    "arens_product",
    "bidual_times_functional",
    "cayley_table",
    "center",
    "conjugacy_classes",
    "fixtures",
    "functional_times_element",
    "group_algebra",
    "group_tables",
    "identity",
    "is_commutative",
    "is_nilpotent_subspace",
    "is_unital",
    "left_centralizers",
    "make_algebra",
    "multiply",
    "parse_algebra_file",
    "parse_algebra_text",
    "parse_cayley_file",
    "parse_cayley_text",
    "pq_centralizers",
    "pq_jordan_centralizers",
    "radical",
    "relative_center",
    "right_centralizers",
    "right_identities",
    "run_suite",
    "serialize_algebra",
    "serialize_cayley",
    "subspace_product",
    "two_sided_centralizers",
    "validate_group",
    "verify_bidual_extension",
    "verify_equivalent_range_conditions",
    "verify_group_centralizer_structure",
]
