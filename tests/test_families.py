import pytest

from qcover import (
    GeneratorSeed,
    NTooSmallError,
    find_special_odd_cycle,
    is_cycle,
    is_quasi_tree,
    is_special_cycle,
    leaf_order,
    random_branch_rule,
    validate_leaf_order,
)
from qcover.cycles import Cycle
from qcover.families import delta_n, double_fan, random_quasi_tree


def test_delta3_facets():
    cx = delta_n(3)
    assert cx.vertex_count == 6
    assert [sorted(f) for f in cx.facets] == [
        [1, 2, 3],
        [1, 2, 6],
        [1, 3, 5],
        [2, 3, 4],
    ]


def test_delta4_shape():
    cx = delta_n(4)
    assert cx.vertex_count == 8
    assert len(cx.facets) == 5
    assert all(len(f) == 4 for f in cx.facets)


def test_delta_needs_three():
    with pytest.raises(NTooSmallError):
        delta_n(2)


def test_delta_contains_the_satellite_cycle():
    for n in (3, 4, 5):
        cx = delta_n(n)
        label = {frozenset(f): fid for fid, f in zip(cx.facet_ids, cx.facets)}
        center = frozenset(range(1, n + 1))
        sat = {
            i: label[(center - {i}) | {n + i}] for i in (1, 2, 3)
        }
        cyc = Cycle((2, 3, 1), (sat[1], sat[2], sat[3]))
        assert is_cycle(cx, cyc.vertices, cyc.facets)
        assert is_special_cycle(cx, cyc)
        assert find_special_odd_cycle(cx) is not None


def test_fan_is_the_expected_quasi_tree():
    cx = double_fan()
    assert cx.vertex_count == 7
    assert len(cx.facets) == 5
    assert is_quasi_tree(cx)
    assert validate_leaf_order(cx, [1, 2, 3, 4, 5])


def test_random_quasi_trees_always_validate():
    for seed in range(40):
        cx = random_quasi_tree(GeneratorSeed(seed, 1 + seed % 6, 4))
        assert is_quasi_tree(cx)
        order = leaf_order(cx)
        assert order is not None and validate_leaf_order(cx, order)


def test_random_generator_is_deterministic():
    g = GeneratorSeed(7, 5, 4)
    assert random_quasi_tree(g) == random_quasi_tree(g)
    assert random_quasi_tree(g) != random_quasi_tree(GeneratorSeed(8, 5, 4))


def test_single_facet_seed():
    cx = random_quasi_tree(GeneratorSeed(1, 1, 3))
    assert len(cx.facets) == 1
    assert is_quasi_tree(cx)


def test_generator_seed_validation():
    with pytest.raises(ValueError):
        GeneratorSeed(0, 0, 3)
    with pytest.raises(ValueError):
        GeneratorSeed(0, 2, 1)
    for bad in (-1, -(2**70), 1.5, None):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            GeneratorSeed(bad, 3, 3)
    with pytest.raises(ValueError, match="got -1$"):
        random_branch_rule(-1)
    with pytest.raises(ValueError, match="num_facets must be at least 1"):
        GeneratorSeed(0, 2, 3)._replace(num_facets=0)
    assert GeneratorSeed(0, 2, 3)._replace(seed=4) == GeneratorSeed(4, 2, 3)
    assert random_quasi_tree(GeneratorSeed(0, 1, 1)).facets == (frozenset({1}),)


def test_random_quasi_tree_stream_is_pinned():
    # PCG64 draws recorded once; every seeded corpus depends on this stream
    cx = random_quasi_tree(GeneratorSeed(7, 5, 4))
    assert [sorted(f) for f in cx.facets] == [
        [1, 2, 3, 4],
        [3, 4, 5],
        [3, 6],
        [4, 7],
        [4, 8],
    ]
