"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance and time budget is pinned here; nothing is deferred.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

from qcover import (
    CoverVector,
    Cycle,
    brute_force_verdict,
    decompose_cover,
    enumerate_cycles,
    extend_cover_by_leaf,
    find_special_odd_cycle,
    indecomposable_covers,
    is_k_cover,
    is_leaf,
    is_standard_graded,
    leaf_order,
    max_branch_rule,
    max_generator_degree,
    min_branch_rule,
    minimal_subtree,
    random_branch_rule,
    relation_tree,
    relation_tree_dot,
    smd,
    validate_leaf_order,
)
from qcover.covers import _first_indecomposable_cover
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree

from oracles import oracle_has_leaf_order

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_delta3_verdict_and_witness():
    with criterion(1, "delta_3 verdict, cycle and indecomposable cover witness"):
        t0 = time.monotonic()
        cx = delta_n(3)
        verdict = is_standard_graded(cx)
        assert verdict.standard_graded is False

        # satellites in canonical ids: {2,3,4} -> 4, {1,3,5} -> 3, {1,2,6} -> 2;
        # the expected cycle visits 2,3,1 through them
        expected = Cycle((2, 3, 1), (4, 3, 2))
        got = verdict.cycle_witness
        assert any(got.rotated(i) == expected for i in range(got.s))

        assert verdict.cover_witness == CoverVector((1, 1, 1, 0, 0, 0), 2)
        assert is_k_cover(cx, verdict.cover_witness.a, 2)
        assert decompose_cover(cx, verdict.cover_witness.a, 2) is None
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_delta_family_generator_degree():
    with criterion(2, "max generator degree of delta_n is n-1 at desk scale"):
        t0 = time.monotonic()
        d3, certs3 = max_generator_degree(delta_n(3), 4)
        assert d3 == 2
        assert certs3[2] == CoverVector((1, 1, 1, 0, 0, 0), 2)
        assert (1, 1, 1, 0, 0, 0) in [c.a for c in indecomposable_covers(delta_n(3), 2)]
        for k in (3, 4):
            assert indecomposable_covers(delta_n(3), k) == []
        assert time.monotonic() - t0 < 5.0

        t0 = time.monotonic()
        d4, certs4 = max_generator_degree(delta_n(4), 5)
        assert d4 == 3
        assert certs4[3] == CoverVector((1, 1, 1, 1, 0, 0, 0, 0), 3)
        for k in (4, 5):
            assert indecomposable_covers(delta_n(4), k) == []
        assert time.monotonic() - t0 < 300.0


def test_criterion_3_fan_positive_case():
    with criterion(3, "double fan standard graded by criterion and brute force"):
        t0 = time.monotonic()
        cx = double_fan()
        verdict = is_standard_graded(cx)
        assert verdict.standard_graded is True
        assert verdict.method == "criterion"
        brute = brute_force_verdict(cx, 3)
        assert brute.standard_graded is True
        assert brute.bound_used == 3
        assert time.monotonic() - t0 < 5.0


def test_criterion_4_theorem_equivalence(quasi_tree_corpus):
    with criterion(4, "special odd cycle <=> degree-2 generator on random trees"):
        t0 = time.monotonic()
        assert len(quasi_tree_corpus) >= 200
        positives = 0
        for cx in quasi_tree_corpus:
            assert len(cx.facets) <= 6 and cx.vertex_count <= 9
            assert max(len(f) for f in cx.facets) <= 4
            has_cycle = find_special_odd_cycle(cx) is not None
            has_deg2 = bool(indecomposable_covers(cx, 2))
            assert has_cycle == has_deg2
            positives += has_cycle
        assert positives > 0  # both verdicts must actually occur
        assert time.monotonic() - t0 < 600.0


# GeneratorSeed(s, 10 + s % 8, 3 + s % 3) for every s < 22, and the three
# later s < 200 whose draws hold a special odd cycle
LARGER_TREE_SEEDS = (*range(22), 28, 61, 151)


def test_criterion_4_theorem_equivalence_at_20_to_30_vertices():
    with criterion(4, "special odd cycle <=> degree-2 generator, 20-30 vertices"):
        verdicts = []
        for s in LARGER_TREE_SEEDS:
            cx = random_quasi_tree(GeneratorSeed(s, 10 + s % 8, 3 + s % 3))
            if not 20 <= len(cx.active_vertices) <= 30:
                continue
            has_deg2 = _first_indecomposable_cover(cx, 2) is not None
            assert has_deg2 == (find_special_odd_cycle(cx) is not None), s
            verdicts.append(has_deg2)
        assert (len(verdicts), sum(verdicts)) == (17, 4)


def test_criterion_5_cycle_incidence_lemma(quasi_tree_corpus):
    with criterion(5, "minimal-subtree nodes meet every cycle in >= 2 vertices"):
        t0 = time.monotonic()
        cycles_checked = 0
        for idx, cx in enumerate(quasi_tree_corpus):
            cycles = list(enumerate_cycles(cx, max_s=7))
            if not cycles:
                continue
            order = leaf_order(cx)
            trees = [
                relation_tree(cx, order, random_branch_rule(3 * idx + j))
                for j in range(3)
            ]
            for cyc in cycles:
                vset = set(cyc.vertices)
                for tree in trees:
                    sub = minimal_subtree(tree, cyc.facets)
                    for fid in sub.nodes:
                        assert len(cx.facet(fid) & vset) >= 2
                cycles_checked += 1
        assert cycles_checked > 100
        assert time.monotonic() - t0 < 600.0


def test_criterion_6_leaf_extension_suite(quasi_tree_corpus):
    with criterion(6, "leaf extensions stay indecomposable; degree bound monotone"):
        pairs = 0
        for cx in quasi_tree_corpus:
            if len(cx.facets) < 2:
                continue
            for leaf in [f for f in cx.facet_ids if is_leaf(cx, f)][:2]:
                gamma = smd(cx, [f for f in cx.facet_ids if f != leaf])
                for k in (0, 1, 2, 3):
                    for cov in indecomposable_covers(gamma, k):
                        ext = extend_cover_by_leaf(gamma, cx, leaf, cov)
                        assert is_k_cover(cx, ext.a, k)
                        assert decompose_cover(cx, ext.a, k) is None
                d_full, _ = max_generator_degree(cx, 3)
                d_reduced, _ = max_generator_degree(gamma, 3)
                assert d_full >= d_reduced
                pairs += 1
            if pairs >= 110:
                break
        assert pairs >= 100


def test_criterion_7_recognition_oracle(small_complex_corpus):
    with criterion(7, "greedy leaf order <=> exhaustive permutation search"):
        assert len(small_complex_corpus) >= 500
        both = {True: 0, False: 0}
        for cx in small_complex_corpus:
            assert len(cx.facets) <= 5
            greedy = leaf_order(cx) is not None
            assert greedy == oracle_has_leaf_order(cx)
            both[greedy] += 1
        assert both[True] > 0 and both[False] > 0


def test_criterion_8_relation_tree_invariants(
    quasi_tree_corpus, small_complex_corpus
):
    with criterion(8, "all orders x 5 random rules give trees whose tips are leaves"):
        t0 = time.monotonic()
        trees_built = 0
        for idx, cx in enumerate(quasi_tree_corpus + small_complex_corpus):
            ids = list(cx.facet_ids)
            valid_orders = [
                perm
                for perm in itertools.permutations(ids)
                if validate_leaf_order(cx, perm)
            ]
            for order in valid_orders:
                for j in range(5):
                    tree = relation_tree(
                        cx, order, random_branch_rule(5 * idx + j)
                    )
                    assert len(tree.edges) == len(tree.nodes) - 1
                    assert _connected(tree)
                    for fid in tree.nodes:
                        if tree.degree(fid) == 1:
                            assert is_leaf(cx, fid)
                    trees_built += 1
        assert trees_built > 1000
        assert time.monotonic() - t0 < 600.0


def _connected(tree) -> bool:
    if len(tree.nodes) <= 1:
        return True
    adj = {v: set() for v in tree.nodes}
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {tree.nodes[0]}, [tree.nodes[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(tree.nodes)


def test_criterion_9_golden_relation_trees():
    with criterion(9, "documented branch rules reproduce the star and the path"):
        cx = double_fan()
        order = [1, 2, 3, 4, 5]
        star = relation_tree(cx, order, min_branch_rule)
        path = relation_tree(cx, order, max_branch_rule)
        assert star.edges == ((1, 2), (1, 3), (1, 4), (1, 5))
        assert path.edges == ((1, 2), (1, 4), (2, 3), (4, 5))
        assert relation_tree_dot(star, cx) == (GOLDEN / "fan_star.dot").read_text()
        assert relation_tree_dot(path, cx) == (GOLDEN / "fan_path.dot").read_text()
        covers = [c.to_dict() for c in indecomposable_covers(delta_n(3), 2)]
        frozen = json.loads((GOLDEN / "delta3_k2_covers.json").read_text())
        assert covers == frozen
