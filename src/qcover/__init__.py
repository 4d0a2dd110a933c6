"""Vertex cover algebras of quasi-trees: gradedness, cycles, and covers.

The package decides whether the cover algebra of a quasi-tree is standard
graded through the special-odd-cycle criterion, constructs indecomposable
2-cover witnesses from cycles, enumerates indecomposable k-covers as a
brute-force oracle, and ships the example families used throughout the
test suite.
"""

__version__ = "0.1.0"

from .complexes import MAX_VERTICES, SimplicialComplex, new_complex, smd
from .covers import (
    CoverVector,
    Decomposition,
    cover_order,
    decompose_cover,
    extend_cover_by_leaf,
    indecomposable_covers,
    is_k_cover,
    max_generator_degree,
    witness_cover_from_cycle,
)
from .cycles import (
    DEFAULT_CYCLE_BUDGET,
    Cycle,
    enumerate_cycles,
    find_special_odd_cycle,
    is_cycle,
    is_special_cycle,
)
from .errors import (
    AntichainViolationError,
    BudgetExceededError,
    DuplicateFacetError,
    EmptyFacetError,
    EmptySelectionError,
    InputFormatError,
    InvalidLeafOrderError,
    LengthMismatchError,
    NTooSmallError,
    NoFreeVertexError,
    NotACycleError,
    NotAKCoverError,
    NotALeafError,
    NotAPermutationError,
    NotQuasiTreeError,
    NotSpecialOddCycleError,
    QcoverError,
    TooManyVerticesError,
    UncoveredVertexError,
    UnknownFacetIdError,
    UnknownNodeError,
    VerificationFailedError,
)
from .families import GeneratorSeed, delta_n, double_fan, random_quasi_tree
from .fileio import complex_digest, load_complex, parse_facets, to_json, to_text
from .gradedness import (
    CrossValidation,
    Verdict,
    brute_force_verdict,
    cross_validate,
    is_standard_graded,
)
from .quasiforest import (
    RelationTree,
    branches_of,
    find_leaf,
    free_vertices,
    is_branch_ancestor,
    is_leaf,
    is_quasi_forest,
    is_quasi_tree,
    leaf_order,
    max_branch_rule,
    min_branch_rule,
    minimal_subtree,
    random_branch_rule,
    relation_tree,
    relation_tree_dot,
    validate_leaf_order,
)
