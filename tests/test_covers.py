"""Cover order, decomposability, enumeration, extension, witnesses.

The heavy lifting is cross-checked against the unoptimized oracles in
``oracles.py`` on small instances, so the engine's pruning (entry caps,
minimality, unit peels, DFS bounds) never goes unchecked.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcover import (
    CoverVector,
    LengthMismatchError,
    NoFreeVertexError,
    NotAKCoverError,
    NotALeafError,
    NotQuasiTreeError,
    NotSpecialOddCycleError,
    cover_order,
    decompose_cover,
    extend_cover_by_leaf,
    find_special_odd_cycle,
    indecomposable_covers,
    is_standard_graded,
    is_k_cover,
    is_leaf,
    leaf_order,
    max_generator_degree,
    new_complex,
    relation_tree,
    smd,
    witness_cover_from_cycle,
)
from qcover.cycles import Cycle
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree

from oracles import (
    facet_sets,
    oracle_cover_order,
    oracle_indecomposable_covers,
    oracle_is_decomposable,
    oracle_lex_first_split,
)

D3 = delta_n(3)
FAN = double_fan()


# --- cover order -------------------------------------------------------------


def test_cover_order_examples():
    assert cover_order(D3, (1, 1, 1, 0, 0, 0)) == 2
    assert cover_order(D3, (0,) * 6) == 0
    # vertex 2 lies in all five fan facets
    assert cover_order(FAN, (0, 1, 0, 0, 0, 0, 0)) == 1


def test_cover_order_validation():
    with pytest.raises(LengthMismatchError):
        cover_order(D3, (1, 1))
    with pytest.raises(ValueError):
        cover_order(D3, (1, -1, 0, 0, 0, 0))


def test_cover_vectors_must_be_integral():
    # truncation would read these as (0,) * 6 and (1, 1, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="nonnegative integers"):
        cover_order(D3, (0.6, 0.6, 0.6, 0, 0, 0))
    with pytest.raises(ValueError, match="nonnegative integers"):
        decompose_cover(D3, (1.9, 1, 1, 1, 0, 0), 2)
    assert cover_order(D3, (True, True, True, False, False, False)) == 2
    assert cover_order(D3, np.array([1, 1, 1, 0, 0, 0])) == 2


def test_is_k_cover_examples():
    a = (1, 1, 1, 0, 0, 0)
    assert is_k_cover(D3, a, 2)
    assert not is_k_cover(D3, a, 3)
    assert is_k_cover(D3, (0,) * 6, 0)
    with pytest.raises(ValueError):
        is_k_cover(D3, a, -1)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.integers(0, 3)] * 6),
    st.tuples(*[st.integers(0, 3)] * 6),
)
def test_cover_additivity(a, b):
    i, j = cover_order(D3, a), cover_order(D3, b)
    total = tuple(x + y for x, y in zip(a, b))
    assert cover_order(D3, total) >= i + j
    assert is_k_cover(D3, total, i + j)


# --- decomposition ------------------------------------------------------------


def test_delta_certificate_is_indecomposable():
    assert decompose_cover(D3, (1, 1, 1, 0, 0, 0), 2) is None


def test_decompose_returns_lex_first_split():
    dec = decompose_cover(D3, (1, 1, 1, 1, 0, 0), 2)
    assert dec is not None
    # lexicographically first valid summand peels the free vertex 4
    assert dec.b == CoverVector((0, 0, 0, 1, 0, 0), 0)
    assert dec.c == CoverVector((1, 1, 1, 0, 0, 0), 2)


def test_decompose_splits_doubled_certificate():
    dec = decompose_cover(D3, (2, 2, 2, 0, 0, 0), 4)
    assert dec is not None
    assert dec.b.k + dec.c.k == 4
    total = tuple(x + y for x, y in zip(dec.b.a, dec.c.a))
    assert total == (2, 2, 2, 0, 0, 0)
    assert cover_order(D3, dec.b.a) >= dec.b.k
    assert cover_order(D3, dec.c.a) >= dec.c.k


def test_decompose_requires_a_k_cover():
    with pytest.raises(NotAKCoverError):
        decompose_cover(D3, (1, 0, 0, 0, 0, 0), 2)


def test_zero_vector_is_indecomposable_but_not_enumerated():
    assert decompose_cover(D3, (0,) * 6, 0) is None
    assert (0,) * 6 not in [c.a for c in indecomposable_covers(D3, 0)]


def test_decompose_agrees_with_oracle(small_complex_corpus):
    import itertools

    cases = 0
    for cx in small_complex_corpus:
        if len(cx.active_vertices) > 5:
            continue
        facets = facet_sets(cx)
        universe = cx.active_vertices
        n = len(universe)
        for a in itertools.islice(
            itertools.product(range(3), repeat=n), 0, None, 7
        ):
            k = cover_order(cx, a)
            want = oracle_is_decomposable(facets, universe, a, k)
            got = decompose_cover(cx, a, k) is not None
            assert got == want, (sorted(map(sorted, facets)), a, k)
            cases += 1
        if cases > 2500:
            break
    assert cases > 500


def test_decompose_returns_oracle_lex_first_split(small_complex_corpus):
    import itertools

    cases = 0
    for cx in small_complex_corpus:
        if len(cx.active_vertices) > 5:
            continue
        facets = facet_sets(cx)
        universe = cx.active_vertices
        n = len(universe)
        for a in itertools.islice(
            itertools.product(range(3), repeat=n), 0, None, 11
        ):
            order = cover_order(cx, a)
            for k in sorted({order, max(order - 1, 0)}):
                b = oracle_lex_first_split(facets, universe, a, k)
                dec = decompose_cover(cx, a, k)
                if b is None:
                    assert dec is None, (sorted(map(sorted, facets)), a, k)
                    continue
                c = tuple(x - y for x, y in zip(a, b))
                i = min(oracle_cover_order(facets, universe, b), k)
                assert dec is not None, (sorted(map(sorted, facets)), a, k)
                assert (dec.b, dec.c) == (CoverVector(b, i), CoverVector(c, k - i))
                cases += 1
    assert cases > 3000


# --- enumeration ---------------------------------------------------------------


def test_single_facet_unit_covers():
    cx = new_complex([{1, 2}])
    assert [c.a for c in indecomposable_covers(cx, 1)] == [(0, 1), (1, 0)]


def test_delta_zero_covers_are_units():
    units = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
    assert [c.a for c in indecomposable_covers(D3, 0)] == sorted(units)


def test_zero_covers_are_units_without_search():
    # a walk over the 0/1 box would take 2^64 steps here
    units = [tuple(int(i == t) for i in range(64)) for t in range(64)]
    covers = indecomposable_covers(delta_n(32), 0)
    assert [c.a for c in covers] == sorted(units)
    assert all(c.k == 0 for c in covers)


def test_delta_degree_two_generator_list():
    covers = indecomposable_covers(D3, 2)
    assert [c.a for c in covers] == [(1, 1, 1, 0, 0, 0)]
    assert all(c.k == 2 for c in covers)


def test_enumeration_matches_oracle(quasi_tree_corpus, small_complex_corpus):
    picked = [
        cx
        for cx in quasi_tree_corpus + small_complex_corpus
        if len(cx.active_vertices) <= 6
    ][:40]
    picked.append(D3)
    for cx in picked:
        for k in (0, 1, 2, 3):
            got = [c.a for c in indecomposable_covers(cx, k)]
            assert got == oracle_indecomposable_covers(cx, k)


def test_entry_bound_on_indecomposables(small_complex_corpus):
    # entries above k would split off a nonzero 0-cover; check by widening
    # the oracle box one unit past the engine's cap
    import itertools

    checked = 0
    for cx in small_complex_corpus:
        n = len(cx.active_vertices)
        if n > 4:
            continue
        facets = facet_sets(cx)
        universe = cx.active_vertices
        for k in (1, 2):
            for a in itertools.product(range(k + 2), repeat=n):
                if any(x > 0 for x in a) and cover_order(cx, a) >= k:
                    if not oracle_is_decomposable(facets, universe, a, k):
                        assert max(a) <= k
                        checked += 1
        if checked > 400:
            break
    assert checked > 100


def test_max_generator_degree_values():
    d, certs = max_generator_degree(D3, 4)
    assert d == 2
    assert certs[2].a == (1, 1, 1, 0, 0, 0)
    assert 3 not in certs and 4 not in certs
    d, certs = max_generator_degree(FAN, 3)
    assert d == 1
    d, certs = max_generator_degree(new_complex([{1, 2}]), 3)
    assert d == 1
    with pytest.raises(ValueError):
        max_generator_degree(D3, 0)


# full dmax results with their certificates; no prune of the search may move them
PINNED_DMAX = [
    (delta_n(3), 4, 2, {1: (0, 0, 1, 0, 0, 1), 2: (1, 1, 1, 0, 0, 0)}),
    (
        delta_n(4),
        5,
        3,
        {
            1: (0, 0, 0, 1, 0, 0, 0, 1),
            2: (0, 1, 1, 1, 0, 0, 0, 0),
            3: (1, 1, 1, 1, 0, 0, 0, 0),
        },
    ),
    (double_fan(), 4, 1, {1: (0, 0, 1, 1, 1, 0, 0)}),
    (
        delta_n(5),
        4,
        4,
        {
            1: (0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
            2: (0, 0, 1, 1, 1, 0, 0, 0, 0, 0),
            3: (0, 1, 1, 1, 1, 0, 0, 0, 0, 0),
            4: (1, 1, 1, 1, 1, 0, 0, 0, 0, 0),
        },
    ),
]


@pytest.mark.parametrize("cx, k_max, d, certs", PINNED_DMAX)
def test_max_generator_degree_is_pinned(cx, k_max, d, certs):
    want = {k: CoverVector(a, k) for k, a in certs.items()}
    assert max_generator_degree(cx, k_max) == (d, want)


def test_enumeration_counts_are_pinned():
    assert [len(indecomposable_covers(delta_n(4), k)) for k in (1, 2, 3, 4)] == [
        10,
        4,
        1,
        0,
    ]
    tree14 = random_quasi_tree(GeneratorSeed(3, 10, 3))
    assert len(tree14.active_vertices) == 14
    assert indecomposable_covers(tree14, 2) == []


# --- leaf extension ----------------------------------------------------------------


def test_extension_places_full_order_on_untouched_leaf():
    gamma = new_complex([{1, 2}])
    delta = new_complex([{1, 2}, {2, 3}])
    out = extend_cover_by_leaf(smd(delta, [1]), delta, 2, CoverVector((1, 0), 1))
    assert out == CoverVector((1, 0, 1), 1)
    assert decompose_cover(delta, out.a, 1) is None
    assert gamma.facets == (frozenset({1, 2}),)


def test_extension_places_only_the_deficit():
    # leaf {1,2,7} is already covered to order 2 by the certificate, so the
    # free vertex gets 0; a flat placement of 2 would split off a 0-cover
    delta = new_complex([{1, 2, 3}, {2, 3, 4}, {1, 3, 5}, {1, 2, 6}, {1, 2, 7}])
    leaf = 3  # canonical id of {1,2,7}
    assert sorted(delta.facet(leaf)) == [1, 2, 7]
    gamma = smd(delta, [f for f in delta.facet_ids if f != leaf])
    cover = CoverVector((1, 1, 1, 0, 0, 0), 2)
    out = extend_cover_by_leaf(gamma, delta, leaf, cover)
    assert out == CoverVector((1, 1, 1, 0, 0, 0, 0), 2)
    assert decompose_cover(delta, out.a, 2) is None
    flat = (1, 1, 1, 0, 0, 0, 2)
    assert decompose_cover(delta, flat, 2) is not None


def test_extension_keeps_order_zero_padding():
    delta = new_complex([{1, 2}, {2, 3}])
    gamma = smd(delta, [1])
    out = extend_cover_by_leaf(gamma, delta, 2, CoverVector((1, 0), 0))
    assert out == CoverVector((1, 0, 0), 0)


def test_extension_validation():
    delta = new_complex([{1, 2}, {2, 3}])
    gamma = smd(delta, [1])
    with pytest.raises(ValueError):
        extend_cover_by_leaf(gamma, delta, 1, CoverVector((1, 0), 1))
    with pytest.raises(LengthMismatchError):
        extend_cover_by_leaf(gamma, delta, 2, CoverVector((1, 0, 0), 1))
    tri = new_complex([{1, 2}, {2, 3}, {1, 3}, {3, 4}])
    with pytest.raises(NotALeafError):
        extend_cover_by_leaf(
            smd(tri, [2, 3, 4]), tri, 1, CoverVector((1, 1, 1, 0), 1)
        )


def test_extension_preserves_indecomposability(quasi_tree_corpus):
    pairs = 0
    for cx in quasi_tree_corpus:
        if len(cx.facets) < 2:
            continue
        leaves = [fid for fid in cx.facet_ids if is_leaf(cx, fid)]
        for leaf in leaves[:2]:
            gamma = smd(cx, [f for f in cx.facet_ids if f != leaf])
            for k in (0, 1, 2, 3):
                for cov in indecomposable_covers(gamma, k):
                    out = extend_cover_by_leaf(gamma, cx, leaf, cov)
                    assert is_k_cover(cx, out.a, k)
                    assert decompose_cover(cx, out.a, k) is None
            pairs += 1
        if pairs >= 60:
            break
    assert pairs >= 60


# --- witness construction --------------------------------------------------------------


def test_delta_witness_is_certificate():
    cyc = find_special_odd_cycle(D3)
    tree = relation_tree(D3, leaf_order(D3))
    w = witness_cover_from_cycle(D3, tree, cyc)
    assert w == CoverVector((1, 1, 1, 0, 0, 0), 2)


def test_extended_delta_witness_uses_deficit_rule():
    cx = new_complex([{1, 2, 3}, {2, 3, 4}, {1, 3, 5}, {1, 2, 6}, {1, 2, 7}])
    cyc = find_special_odd_cycle(cx)
    tree = relation_tree(cx, leaf_order(cx))
    w = witness_cover_from_cycle(cx, tree, cyc)
    assert w.k == 2
    assert w.a == (1, 1, 1, 0, 0, 0, 0)
    assert decompose_cover(cx, w.a, 2) is None


def test_witness_without_extension_steps_is_indicator():
    tri = new_complex([{1, 2}, {2, 3}, {1, 3}])
    # triangle is not a quasi-tree; use a quasi-tree whose cycle spans it all
    cx = delta_n(4)
    cyc = find_special_odd_cycle(cx)
    tree = relation_tree(cx, leaf_order(cx))
    w = witness_cover_from_cycle(cx, tree, cyc)
    assert is_k_cover(cx, w.a, 2)
    assert decompose_cover(cx, w.a, 2) is None
    assert find_special_odd_cycle(tri) is not None  # sanity for the negative case


def test_witness_input_validation():
    tree = relation_tree(D3, leaf_order(D3))
    cyc = find_special_odd_cycle(D3)
    tri = new_complex([{1, 2}, {2, 3}, {1, 3}])
    with pytest.raises(NotQuasiTreeError):
        witness_cover_from_cycle(tri, tree, find_special_odd_cycle(tri))
    with pytest.raises(NotSpecialOddCycleError):
        witness_cover_from_cycle(D3, tree, Cycle((1, 2), (1, 2)))
    with pytest.raises(NotSpecialOddCycleError):
        witness_cover_from_cycle(D3, tree, Cycle((1, 2, 3), (1, 4, 3)))


def test_witnesses_match_golden():
    # every exit-10 input of the check universe: the quasi-tree draws
    # rqt:s = GeneratorSeed(s, 6 + s % 30, 2 + s % 7) for s < 3000 (over-64-vertex
    # draws left out) and delta:n = delta_n(n) for n in 3..32, with the
    # witnesses the criterion gave when the golden was recorded
    golden = json.loads((Path(__file__).parent / "golden/witnesses.json").read_text())
    assert len(golden) == 253
    for key, want in golden.items():
        kind, n = key.split(":")
        n = int(n)
        if kind == "rqt":
            cx = random_quasi_tree(GeneratorSeed(n, 6 + n % 30, 2 + n % 7))
        else:
            cx = delta_n(n)
        got = is_standard_graded(cx).to_dict()
        assert {f: got[f] for f in want} == want, key
