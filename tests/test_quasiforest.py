"""Leaf structure: orders, relation trees, subtrees, free vertices."""

import itertools

import pytest

from qcover import (
    InvalidLeafOrderError,
    NotAPermutationError,
    UnknownNodeError,
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
    new_complex,
    random_branch_rule,
    relation_tree,
    relation_tree_dot,
    smd,
    validate_leaf_order,
)
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree

from oracles import facet_sets, oracle_has_leaf_order, oracle_is_leaf_order

TRIANGLE = [{1, 2}, {2, 3}, {1, 3}]
# draws of GeneratorSeed(s, 6 + s % 30, 2 + s % 7) with 30 to 64 vertices
# and 12 to 35 facets, the upper part of the domain the engine accepts
LARGE_SEEDS = (6, 18, 24, 28, 29, 58, 75, 109, 119, 143, 149, 194)


# --- leaves --------------------------------------------------------------


def test_find_leaf_returns_first_leaf_with_all_branches():
    cx = double_fan()
    # F1 absorbs every intersection of F2; F2 comes before the other leaves
    assert find_leaf(cx) == (2, (1, 3))


def test_fan_f5_is_leaf_with_branch_f4():
    cx = double_fan()
    assert is_leaf(cx, 5)
    assert branches_of(cx, 5) == (1, 4)


def test_triangle_has_no_leaf():
    assert find_leaf(new_complex(TRIANGLE)) is None


def test_single_facet_is_its_own_branch():
    cx = new_complex([{1}])
    assert find_leaf(cx) == (1, (1,))


# --- leaf orders -----------------------------------------------------------


def test_fan_leaf_order_paper_sequence_validates():
    cx = double_fan()
    assert validate_leaf_order(cx, [1, 2, 3, 4, 5])


def test_fan_reversed_sequence_matches_manual_prefix_check():
    cx = double_fan()
    order = [5, 4, 3, 2, 1]
    expected = oracle_is_leaf_order(
        facet_sets(cx), [fid - 1 for fid in order]
    )
    assert validate_leaf_order(cx, order) == expected


def test_delta_family_order_center_first():
    cx = delta_n(3)
    # the central facet is id 1 after canonical sorting; satellites follow
    assert validate_leaf_order(cx, [1, 2, 3, 4])
    assert leaf_order(cx) is not None


def test_single_facet_order():
    cx = new_complex([{1, 2}])
    assert validate_leaf_order(cx, [1])
    assert leaf_order(cx) == (1,)


def test_triangle_has_no_leaf_order():
    cx = new_complex(TRIANGLE)
    assert leaf_order(cx) is None
    assert not oracle_has_leaf_order(cx)
    assert not is_quasi_tree(cx)


def test_not_a_permutation_raises():
    cx = double_fan()
    with pytest.raises(NotAPermutationError):
        validate_leaf_order(cx, [1, 2, 3])
    with pytest.raises(NotAPermutationError):
        validate_leaf_order(cx, [1, 1, 2, 3, 4])


def test_greedy_soundness(quasi_tree_corpus):
    for cx in quasi_tree_corpus:
        order = leaf_order(cx)
        assert order is not None
        assert validate_leaf_order(cx, order)


def test_greedy_matches_exhaustive_search(small_complex_corpus):
    disagreements = [
        cx
        for cx in small_complex_corpus
        if (leaf_order(cx) is not None) != oracle_has_leaf_order(cx)
    ]
    assert disagreements == []


def test_leaf_peeling_on_large_quasi_trees():
    for s in LARGE_SEEDS:
        cx = random_quasi_tree(GeneratorSeed(s, 6 + s % 30, 2 + s % 7))
        assert 30 <= cx.vertex_count <= 64
        order = leaf_order(cx)
        assert oracle_is_leaf_order(facet_sets(cx), [fid - 1 for fid in order])
        assert validate_leaf_order(cx, order)
        for rule in (min_branch_rule, max_branch_rule):
            tree = relation_tree(cx, order, rule)
            assert tree.nodes == tuple(cx.facet_ids)
            assert len(tree.edges) == len(tree.nodes) - 1
            assert _tree_connected(tree)


def test_quasi_tree_requires_connectivity():
    cx = new_complex([{1, 2}, {3, 4}])
    assert is_quasi_forest(cx)
    assert not is_quasi_tree(cx)
    assert is_quasi_tree(double_fan())


# --- relation trees ----------------------------------------------------------


def test_fan_star_and_path_trees():
    cx = double_fan()
    star = relation_tree(cx, [1, 2, 3, 4, 5], min_branch_rule)
    assert star.edges == ((1, 2), (1, 3), (1, 4), (1, 5))
    assert star.root == 1
    path = relation_tree(cx, [1, 2, 3, 4, 5], max_branch_rule)
    assert path.edges == ((1, 2), (1, 4), (2, 3), (4, 5))
    assert path.branch == {1: 1, 2: 1, 3: 2, 4: 1, 5: 4}


def test_delta_family_tree_is_star_on_center():
    cx = delta_n(3)
    tree = relation_tree(cx, [1, 2, 3, 4])
    assert tree.edges == ((1, 2), (1, 3), (1, 4))
    assert tree.root == 1


def test_single_facet_tree():
    tree = relation_tree(new_complex([{1, 2}]), [1])
    assert tree.nodes == (1,)
    assert tree.edges == ()
    assert tree.branch == {1: 1}


def test_invalid_order_rejected():
    cx = double_fan()
    # facet 1 is not a leaf of the full complex, so it cannot come last
    with pytest.raises(InvalidLeafOrderError):
        relation_tree(cx, [5, 4, 3, 2, 1])


def test_tree_invariants_across_random_rules(quasi_tree_corpus):
    for idx, cx in enumerate(quasi_tree_corpus[:80]):
        order = leaf_order(cx)
        for rule_seed in range(3):
            tree = relation_tree(cx, order, random_branch_rule(rule_seed + idx))
            assert len(tree.edges) == len(tree.nodes) - 1
            assert _tree_connected(tree)
            for fid in tree.nodes:
                assert is_branch_ancestor(tree, tree.root, fid)
                if tree.degree(fid) == 1:
                    assert is_leaf(cx, fid)


def _tree_connected(tree):
    if len(tree.nodes) <= 1:
        return True
    adj = {v: set() for v in tree.nodes}
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {tree.nodes[0]}
    stack = [tree.nodes[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(tree.nodes)


# --- the branch partial order ---------------------------------------------------


def test_branch_ancestor_on_delta_star():
    cx = delta_n(3)
    tree = relation_tree(cx, [1, 2, 3, 4])
    assert is_branch_ancestor(tree, 1, 2)
    assert not is_branch_ancestor(tree, 2, 3)
    assert is_branch_ancestor(tree, 1, 1)
    with pytest.raises(UnknownNodeError):
        is_branch_ancestor(tree, 1, 9)


# --- minimal subtrees --------------------------------------------------------------


def test_minimal_subtree_star_needs_center():
    cx = delta_n(3)
    tree = relation_tree(cx, [1, 2, 3, 4])
    sub = minimal_subtree(tree, {2, 3, 4})
    assert set(sub.nodes) == {1, 2, 3, 4}
    assert sub.root == 1


def test_minimal_subtree_path_prunes_ends():
    cx = double_fan()
    path = relation_tree(cx, [1, 2, 3, 4, 5], max_branch_rule)
    sub = minimal_subtree(path, {2, 4})
    assert sub.nodes == (1, 2, 4)
    assert sub.edges == ((1, 2), (1, 4))
    assert sub.root == 1
    assert sub.branch == {1: 1, 2: 1, 4: 1}


def test_minimal_subtree_all_targets_is_identity():
    cx = double_fan()
    tree = relation_tree(cx, [1, 2, 3, 4, 5])
    sub = minimal_subtree(tree, set(tree.nodes))
    assert sub.nodes == tree.nodes
    assert sub.edges == tree.edges


def test_minimal_subtree_is_minimal(quasi_tree_corpus):
    picked = [cx for cx in quasi_tree_corpus if len(cx.facets) >= 3][:40]
    for cx in picked:
        tree = relation_tree(cx, leaf_order(cx))
        nodes = list(tree.nodes)
        for targets in itertools.combinations(nodes, 2):
            sub = minimal_subtree(tree, targets)
            assert set(targets) <= set(sub.nodes)
            # non-target degree-1 nodes would have been pruned
            for fid in sub.nodes:
                if fid not in targets:
                    assert sub.degree(fid) >= 2


def test_minimal_subtree_errors():
    tree = relation_tree(double_fan(), [1, 2, 3, 4, 5])
    with pytest.raises(UnknownNodeError):
        minimal_subtree(tree, {99})
    with pytest.raises(ValueError):
        minimal_subtree(tree, set())


# --- free vertices --------------------------------------------------------------------


def test_free_vertices_examples():
    fan = double_fan()
    assert free_vertices(fan, 3) == frozenset({5})
    d3 = delta_n(3)
    # satellite {2,3,4} owns vertex 4; the central facet owns nothing
    assert free_vertices(d3, 4) == frozenset({4})
    assert free_vertices(d3, 1) == frozenset()


def test_free_vertices_on_smd_view():
    fan = double_fan()
    view = smd(fan, [1, 2, 3])
    assert free_vertices(view, 1) == frozenset({3})


# --- export ------------------------------------------------------------------------------


def test_dot_is_byte_stable():
    cx = double_fan()
    tree = relation_tree(cx, [1, 2, 3, 4, 5])
    assert relation_tree_dot(tree, cx) == relation_tree_dot(tree, cx)
    assert relation_tree_dot(tree, cx).startswith("digraph relation_tree {\n")
