"""The seven result types: field order, defaults, repr, equality, immutability."""

import pytest

from qcover import (
    CoverVector,
    CrossValidation,
    Cycle,
    Decomposition,
    GeneratorSeed,
    RelationTree,
    Verdict,
    is_standard_graded,
)
from qcover.families import delta_n


def _instances():
    cover = CoverVector((1, 1), 2)
    verdict = Verdict(True)
    return [
        cover,
        Decomposition(b=cover, c=cover),
        Cycle((1, 2, 3), (1, 2, 3)),
        RelationTree((1, 2), ((1, 2),), {1: 1, 2: 1}, root=1),
        verdict,
        CrossValidation(True, verdict, verdict),
        GeneratorSeed(0, 1, 1),
    ]


def test_delta3_verdict_repr_is_pinned():
    assert repr(is_standard_graded(delta_n(3))) == (
        "Verdict(standard_graded=False, cycle_witness=Cycle(vertices=(1, 2, 3), "
        "facets=(2, 4, 3)), cover_witness=CoverVector(a=(1, 1, 1, 0, 0, 0), k=2), "
        "method='criterion', bound_used=None)"
    )


def test_field_order_and_defaults():
    assert [repr(x) for x in _instances()] == [
        "CoverVector(a=(1, 1), k=2)",
        "Decomposition(b=CoverVector(a=(1, 1), k=2), c=CoverVector(a=(1, 1), k=2))",
        "Cycle(vertices=(1, 2, 3), facets=(1, 2, 3))",
        "RelationTree(nodes=(1, 2), edges=((1, 2),), branch={1: 1, 2: 1}, root=1)",
        "Verdict(standard_graded=True, cycle_witness=None, cover_witness=None, "
        "method='criterion', bound_used=None)",
        "CrossValidation(agree=True, criterion=" + repr(Verdict(True))
        + ", brute_force=" + repr(Verdict(True)) + ", smd_sweep=None)",
        "GeneratorSeed(seed=0, num_facets=1, max_facet_size=1)",
    ]
    assert RelationTree((1,), (), {1: 1}).root == 0
    assert Verdict(False, method="brute_force", bound_used=3) == Verdict(
        standard_graded=False,
        cycle_witness=None,
        cover_witness=None,
        method="brute_force",
        bound_used=3,
    )
    by_keyword = GeneratorSeed(max_facet_size=3, num_facets=2, seed=5)
    assert by_keyword == GeneratorSeed(5, 2, 3)


def test_fields_cannot_be_assigned():
    first = ["a", "b", "vertices", "nodes", "standard_graded", "agree", "seed"]
    for obj, name in zip(_instances(), first, strict=True):
        for attr in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)


def test_relation_tree_equality_ignores_branch():
    a = RelationTree((1, 2, 3), ((1, 2), (1, 3)), {1: 1, 2: 1, 3: 1}, root=1)
    b = RelationTree((1, 2, 3), ((1, 2), (1, 3)), {1: 1, 2: 1, 3: 2}, root=1)
    c = RelationTree((1, 2, 3), ((1, 2), (2, 3)), {1: 1, 2: 1, 3: 1}, root=1)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a != RelationTree((1, 2, 3), ((1, 2), (1, 3)), {1: 1, 2: 1, 3: 1}, root=2)
    assert a.__eq__(object()) is NotImplemented


def test_cross_validation_equality_ignores_smd_sweep():
    yes, no = Verdict(True), Verdict(False, method="brute_force", bound_used=2)
    a = CrossValidation(False, yes, no)
    b = CrossValidation(False, yes, no, smd_sweep=[{"facet_ids": [1]}])
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != CrossValidation(False, no, yes) and a != CrossValidation(True, yes, no)
    assert a.__eq__(object()) is NotImplemented


def test_generator_seed_messages():
    with pytest.raises(ValueError, match="num_facets must be at least 1"):
        GeneratorSeed(0, 0, 3)
    with pytest.raises(ValueError, match="max_facet_size must be at least 1"):
        GeneratorSeed(seed=0, num_facets=1, max_facet_size=0)
    with pytest.raises(ValueError, match="num_facets > 1 needs max_facet_size >= 2"):
        GeneratorSeed(0, 2, 1)


def test_verdict_defines_to_dict_itself():
    assert "to_dict" in vars(Verdict)
