"""Leaf structure: orders, relation trees, subtrees, free vertices."""

import hashlib
import itertools
import json

import pytest

from qcover import (
    InvalidLeafOrderError,
    NotAPermutationError,
    RelationTree,
    UnknownFacetIdError,
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
from qcover.errors import AntichainViolationError, DuplicateFacetError
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree
from qcover.quasiforest import _tree_from_steps, peel_leaves

from corpus import LARGE_SEEDS
from oracles import (
    facet_sets,
    oracle_branches,
    oracle_has_leaf_order,
    oracle_is_leaf_order,
    oracle_minimal_subtree,
)

TRIANGLE = [{1, 2}, {2, 3}, {1, 3}]


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


@pytest.mark.parametrize("corpus", ["small_complex_corpus", "quasi_tree_corpus"])
def test_leaf_queries_match_the_branch_oracle(request, corpus):
    for cx in request.getfixturevalue(corpus):
        facets, ids = facet_sets(cx), cx.facet_ids
        want = [tuple(ids[j] for j in oracle_branches(facets, i)) for i in range(len(ids))]
        assert [branches_of(cx, fid) for fid in ids] == want
        assert [is_leaf(cx, fid) for fid in ids] == [bool(b) for b in want]
        first = next((i for i, b in enumerate(want) if b), None)
        assert find_leaf(cx) == (None if first is None else (ids[first], want[first]))


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


@pytest.mark.parametrize(
    "kwargs", [{}, {"detach": [1, 2, 3]}, {"keep": [1]}], ids=["greedy", "detach", "keep"]
)
def test_stuck_peels_return_none(kwargs):
    # no facet of the triangle is a leaf, so every kind of peel is stuck
    # at its first step
    assert peel_leaves(new_complex(TRIANGLE), **kwargs) is None


def test_short_detach_ends_the_peel_once_used():
    assert peel_leaves(double_fan(), detach=[5]) == [(5, (1, 4))]


def test_a_permutation_that_is_no_leaf_order_fails_validation():
    cx = double_fan()
    # facet 1 is not a leaf of the whole fan, so it cannot come last
    assert not validate_leaf_order(cx, [5, 4, 3, 2, 1])


def test_not_a_permutation_raises():
    cx = double_fan()
    with pytest.raises(NotAPermutationError):
        validate_leaf_order(cx, [1, 2, 3])
    with pytest.raises(NotAPermutationError):
        validate_leaf_order(cx, [1, 1, 2, 3, 4])
    with pytest.raises(NotAPermutationError) as err:
        validate_leaf_order(cx, [1, 2, 3, 4, 9])
    assert str(err.value) == (
        "order [1, 2, 3, 4, 9] is not a permutation of facet ids [1, 2, 3, 4, 5]"
    )


# a bool or a non-integer id was taken as 1 or raised a bare TypeError
@pytest.mark.parametrize(
    "call",
    [lambda cx: branches_of(cx, 2.0), lambda cx: free_vertices(cx, 1.5)],
    ids=["branches_of", "free_vertices"],
)
def test_non_integer_facet_ids_are_unknown(call):
    with pytest.raises(UnknownFacetIdError, match="is not an integer"):
        call(delta_n(3))


@pytest.mark.parametrize(
    "call, order",
    [
        (relation_tree, [True, 2, 3, 4]),
        (validate_leaf_order, [1.0, 2, 3, 4]),
        (validate_leaf_order, ["a", 2, 3, 4]),
    ],
    ids=["relation_tree-bool", "validate-float", "validate-str"],
)
def test_orders_with_non_integer_ids_are_not_permutations(call, order):
    with pytest.raises(NotAPermutationError) as err:
        call(delta_n(3), order)
    assert str(err.value).endswith("is not a permutation of facet ids [1, 2, 3, 4]")


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


class _Id(int):
    """An integer id of another type, as numpy's int64 is."""


def test_tree_is_built_from_plain_int_ids():
    cx = delta_n(3)
    plain = relation_tree(cx, leaf_order(cx))
    tree = relation_tree(cx, [_Id(f) for f in leaf_order(cx)])
    assert tree == plain and tree.branch == plain.branch
    ids = [*tree.nodes, *itertools.chain(*tree.edges), *tree.branch, tree.root]
    assert {type(f) for f in ids} == {int}
    assert json.dumps(tree.branch) == json.dumps(plain.branch)


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


def test_greedy_peel_builds_the_tree_of_its_own_order(universe):
    # is_standard_graded and `qcover dot` build the tree from the greedy peel
    # instead of re-peeling its order; the steps, and so the tree and the
    # random rule's stream, must be the same on every universe quasi-tree
    for key, cx in universe:
        steps = peel_leaves(cx)
        order = leaf_order(cx)
        assert steps == peel_leaves(cx, detach=reversed(order)), key
        want = relation_tree(cx, order, random_branch_rule(0))
        got = _tree_from_steps(steps, random_branch_rule(0))
        assert (got, got.branch) == (want, want.branch), key


# (call, total steps, sha256 of json.dumps of every universe quasi-tree's
# steps as [facet, branches] lists); recorded from the peel that rebuilds
# its shared-vertex masks at every step
PINNED_PEELS = [
    ("greedy", 44575, "932ecf31e116d7ebeedd65f174bf1fb477f5c9d7ecfe391d99119ce60747cf34"),
    ("detach", 44575, "932ecf31e116d7ebeedd65f174bf1fb477f5c9d7ecfe391d99119ce60747cf34"),
    ("keep", 39707, "638fec81f72a1b41717a66344f7d00bbf85de29cfd3e94e2a7d400eba5e8373c"),
]
PEEL_CALLS = {
    "greedy": lambda cx: peel_leaves(cx),
    "detach": lambda cx: peel_leaves(cx, detach=reversed(leaf_order(cx))),
    "keep": lambda cx: peel_leaves(cx, keep=leaf_order(cx)[:2]),
}


@pytest.mark.parametrize(
    "call, count, digest", PINNED_PEELS, ids=[row[0] for row in PINNED_PEELS]
)
def test_peel_steps_are_pinned_on_the_check_universe(universe, call, count, digest):
    listed = [[[f, list(b)] for f, b in PEEL_CALLS[call](cx)] for _, cx in universe]
    assert sum(map(len, listed)) == count
    assert hashlib.sha256(json.dumps(listed).encode()).hexdigest() == digest


def test_random_branch_rule_stream_is_pinned():
    # PCG64 draws recorded once; verify --seed replays depend on this stream
    rule = random_branch_rule(0)
    assert [rule(0, (1, 2, 3, 4, 5)) for _ in range(8)] == [5, 4, 3, 2, 2, 1, 1, 1]


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


def test_minimal_subtree_matches_pruning_oracle(quasi_tree_corpus):
    checked = 0
    for cx in quasi_tree_corpus:
        if len(cx.facets) > 8:
            continue
        for rule in (min_branch_rule, max_branch_rule):
            tree = relation_tree(cx, leaf_order(cx), rule)
            for r in range(1, len(tree.nodes) + 1):
                for targets in itertools.combinations(tree.nodes, r):
                    sub = minimal_subtree(tree, targets)
                    want = oracle_minimal_subtree(tree, targets)
                    assert (sub.nodes, sub.edges, sub.branch, sub.root) == want
                    checked += 1
    assert checked > 4000


def test_looping_branch_map_raises_instead_of_hanging():
    # branch points 1 -> 2 -> 1, so the walk from 1 never meets the root 3
    tree = RelationTree(
        nodes=(1, 2, 3), edges=((1, 2),), branch={1: 2, 2: 1, 3: 3}, root=3
    )
    with pytest.raises(ValueError, match="loops"):
        is_branch_ancestor(tree, 3, 1)
    with pytest.raises(ValueError, match="loops"):
        minimal_subtree(tree, {1, 3})
    assert is_branch_ancestor(tree, 3, 3)
    assert minimal_subtree(tree, {3}).nodes == (3,)


def test_dangling_branch_map_names_the_missing_node():
    # branch sends 1 to 5, which the tree does not hold
    tree = RelationTree(nodes=(1, 2), edges=((1, 2),), branch={1: 5, 2: 2}, root=2)
    with pytest.raises(UnknownNodeError, match="sends facet 1 to 5"):
        is_branch_ancestor(tree, 2, 1)
    with pytest.raises(UnknownNodeError, match="sends facet 1 to 5"):
        minimal_subtree(tree, {1, 2})
    assert is_branch_ancestor(tree, 2, 2)
    assert minimal_subtree(tree, {2}).nodes == (2,)


HUGE = 10**5000  # past the int-to-str digit limit: repr raises ValueError


def fan_tree(rule=min_branch_rule):
    return relation_tree(double_fan(), [1, 2, 3, 4, 5], rule)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: new_complex([[1, HUGE], [HUGE, 1]]),
            DuplicateFacetError,
            "facet [1, <16610-bit integer>] appears more than once",
        ),
        (
            lambda: new_complex([[1, HUGE], [1, 2, HUGE]]),
            AntichainViolationError,
            "facet [1, <16610-bit integer>] is contained in facet "
            "[1, 2, <16610-bit integer>]",
        ),
        (
            lambda: fan_tree().degree(HUGE),
            UnknownNodeError,
            "facet id <16610-bit integer> is not a tree node",
        ),
        (
            lambda: is_branch_ancestor(fan_tree(), HUGE, 1),
            UnknownNodeError,
            "facet id <16610-bit integer> is not a tree node",
        ),
        (
            lambda: minimal_subtree(fan_tree(), [HUGE]),
            UnknownNodeError,
            "facet id <16610-bit integer> is not a tree node",
        ),
        (
            lambda: fan_tree(lambda leaf, branches: HUGE),
            ValueError,
            "branch rule chose <16610-bit integer>, admissible branches are [1, 4]",
        ),
    ],
    ids=["duplicate", "antichain", "degree", "ancestor", "subtree", "branch-rule"],
)
def test_messages_quote_ids_past_the_digit_limit(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_branch_rule_message_stays_short_on_a_wide_star():
    # every edge of the star {1, v} is admissible for the first detached leaf,
    # so the 62 branches are quoted cut
    star = new_complex([{1, v} for v in range(2, 65)])
    with pytest.raises(ValueError) as exc:
        relation_tree(star, leaf_order(star), lambda leaf, branches: 0)
    assert str(exc.value) == (
        "branch rule chose 0, admissible branches are "
        "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, ... (62 items)]"
    )


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
