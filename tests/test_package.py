"""The package namespace: lazy public names with the same surface as eager ones."""

import importlib
import json

import pytest

import qcover

# The public names of ``dir(qcover)``, by the submodule that defines them,
# recorded when ``qcover/__init__.py`` still imported every submodule.
PUBLIC = {
    "complexes": ["MAX_VERTICES", "SimplicialComplex", "new_complex", "smd"],
    "covers": [
        "CoverVector", "Decomposition", "cover_order", "decompose_cover",
        "extend_cover_by_leaf", "indecomposable_covers", "is_k_cover",
        "max_generator_degree", "witness_cover_from_cycle",
    ],
    "cycles": [
        "Cycle", "DEFAULT_CYCLE_BUDGET", "enumerate_cycles",
        "find_special_odd_cycle", "is_cycle", "is_special_cycle",
    ],
    "errors": [
        "AntichainViolationError", "BudgetExceededError", "DuplicateFacetError",
        "EmptyFacetError", "EmptySelectionError", "InputFormatError",
        "InvalidLeafOrderError", "LengthMismatchError", "NTooSmallError",
        "NoFreeVertexError", "NotACycleError", "NotAKCoverError", "NotALeafError",
        "NotAPermutationError", "NotQuasiTreeError", "NotSpecialOddCycleError",
        "QcoverError", "TooManyVerticesError", "UncoveredVertexError",
        "UnknownFacetIdError", "UnknownNodeError", "VerificationFailedError",
    ],
    "families": ["GeneratorSeed", "delta_n", "double_fan", "random_quasi_tree"],
    "fileio": ["complex_digest", "load_complex", "parse_facets", "to_json", "to_text"],
    "gradedness": [
        "CrossValidation", "Verdict", "brute_force_verdict", "cross_validate",
        "is_standard_graded",
    ],
    "quasiforest": [
        "RelationTree", "branches_of", "find_leaf", "free_vertices",
        "is_branch_ancestor", "is_leaf", "is_quasi_forest", "is_quasi_tree",
        "leaf_order", "max_branch_rule", "min_branch_rule", "minimal_subtree",
        "random_branch_rule", "relation_tree", "relation_tree_dot",
        "validate_leaf_order",
    ],
}
ALL_PUBLIC = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])


def test_all_is_the_recorded_list():
    assert qcover.__all__ == ALL_PUBLIC
    assert set(ALL_PUBLIC) <= set(dir(qcover))


@pytest.mark.parametrize("mod", list(PUBLIC))
def test_each_name_is_its_submodule_object(mod):
    module = importlib.import_module(f"qcover.{mod}")
    assert getattr(qcover, mod) is module
    for name in PUBLIC[mod]:
        assert getattr(qcover, name) is getattr(module, name), name


def test_bare_import_lists_every_name_and_loads_no_submodule(fresh_python):
    probe = (
        "import json, sys, qcover; names = dir(qcover); "
        "print(json.dumps([names, sorted(m for m in sys.modules if 'qcover' in m)]))"
    )
    out = fresh_python(["-c", probe], check=True).stdout
    names, loaded = json.loads(out)
    assert [n for n in names if not n.startswith("_")] == ALL_PUBLIC
    assert loaded == ["qcover"]


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from qcover import *", namespace)
    assert set(ALL_PUBLIC) <= set(namespace)
    assert namespace["is_standard_graded"] is qcover.gradedness.is_standard_graded


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcover.no_such_name
    assert not hasattr(qcover, "no_such_name")
    with pytest.raises(ImportError):
        exec("from qcover import no_such_name", {})
    # an outside name is quoted cut, so the message stays one short line
    with pytest.raises(AttributeError) as raised:
        getattr(qcover, "x" * 5000)
    assert len(str(raised.value)) <= 200


def test_submodules_are_reachable_with_and_without_their_import(fresh_python):
    probe = (
        "import qcover.covers; print(qcover.covers.cover_order.__module__); "
        "import qcover as q; print(q.families.delta_n(3).vertex_count)"
    )
    out = fresh_python(["-c", probe], check=True).stdout
    assert out.split() == ["qcover.covers", "6"]


# Formatted in an error message without echo: lengths, module constants
# (upper case), dunder names and these names, which hold positions or
# messages that the package builds itself.  In errors.py, ``name`` is also
# allowed: ``check_order`` formats the parameter names its callers pass.
UNQUOTED_OK = {"idx", "lineno", "leaf", "least", "exc", "next_label"}
UNQUOTED_IN = {"errors.py": {"name"}}


def _unquoted(value, ok):
    """The names in a formatted value that reach the text without echo."""
    import ast

    if isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("echo", "echo_each", "len"):
        return []
    if isinstance(value, ast.Name):
        fine = value.id in ok or value.id.isupper() or value.id.startswith("__")
        return [] if fine else [value.id]
    return [name for child in ast.iter_child_nodes(value) for name in _unquoted(child, ok)]


def _error_fstrings(tree):
    """The f-strings inside a raise or passed to a call of an ...Error class."""
    import ast

    found = {}  # a raise of an ...Error call holds its f-strings twice
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            root = node.exc
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "").endswith("Error"):
            root = node
        else:
            continue
        found.update((sub, None) for sub in ast.walk(root) if isinstance(sub, ast.JoinedStr))
    return list(found)


def test_error_messages_quote_outside_values_through_echo():
    # an outside value formatted raw can make a message of thousands of
    # characters; echo and echo_each cut it to one short line
    import ast
    from pathlib import Path

    found = []
    for path in sorted(Path(qcover.__file__).parent.glob("*.py")):
        ok = UNQUOTED_OK | UNQUOTED_IN.get(path.name, set())
        for fstring in _error_fstrings(ast.parse(path.read_text())):
            for value in fstring.values:
                if isinstance(value, ast.FormattedValue):
                    found += [f"{path.name}:{value.lineno}: {n}" for n in _unquoted(value.value, ok)]
    assert found == []
