"""Vertex cover algebras of quasi-trees: gradedness, cycles, and covers.

The package decides whether the cover algebra of a quasi-tree is standard
graded through the special-odd-cycle criterion, constructs indecomposable
2-cover witnesses from cycles, enumerates indecomposable k-covers as a
brute-force oracle, and ships the example families used throughout the
test suite.

The public names below are resolved lazily (PEP 562): ``import qcover``
loads no submodule, and the first use of a name such as
``qcover.is_standard_graded`` imports the submodule that defines it and
keeps the name here, so later lookups are plain attribute reads.  Every
name is the object its submodule defines; ``dir(qcover)`` and
``from qcover import *`` list them all, and ``qcover.covers`` and the
other submodule names work without an explicit import.  The command line
therefore pays only for the modules its command and verdict use.
"""

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "complexes": "MAX_VERTICES SimplicialComplex new_complex smd",
    "covers": (
        "CoverVector Decomposition cover_order decompose_cover "
        "extend_cover_by_leaf indecomposable_covers is_k_cover "
        "max_generator_degree witness_cover_from_cycle"
    ),
    "cycles": (
        "DEFAULT_CYCLE_BUDGET Cycle enumerate_cycles find_special_odd_cycle "
        "is_cycle is_special_cycle"
    ),
    "errors": (
        "AntichainViolationError BudgetExceededError DuplicateFacetError "
        "EmptyFacetError EmptySelectionError InputFormatError "
        "InvalidLeafOrderError LengthMismatchError NTooSmallError "
        "NoFreeVertexError NotACycleError NotAKCoverError NotALeafError "
        "NotAPermutationError NotQuasiTreeError NotSpecialOddCycleError "
        "QcoverError TooManyVerticesError UncoveredVertexError "
        "UnknownFacetIdError UnknownNodeError VerificationFailedError"
    ),
    "families": "GeneratorSeed delta_n double_fan random_quasi_tree",
    "fileio": "complex_digest load_complex parse_facets to_json to_text",
    "gradedness": (
        "CrossValidation Verdict brute_force_verdict cross_validate "
        "is_standard_graded"
    ),
    "quasiforest": (
        "RelationTree branches_of find_leaf free_vertices is_branch_ancestor "
        "is_leaf is_quasi_forest is_quasi_tree leaf_order max_branch_rule "
        "min_branch_rule minimal_subtree random_branch_rule relation_tree "
        "relation_tree_dot validate_leaf_order"
    ),
}
# public name -> the submodule that defines it; a submodule names itself
_HOME = {name: mod for mod, names in _SUBMODULE_NAMES.items() for name in names.split()}
_HOME.update((mod, mod) for mod in _SUBMODULE_NAMES)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    mod = _HOME.get(name)
    if mod is None:
        from .errors import echo

        raise AttributeError(f"module {__name__!r} has no attribute {echo(name)}")
    import importlib

    module = importlib.import_module(f"{__name__}.{mod}")
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
