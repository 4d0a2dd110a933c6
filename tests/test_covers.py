"""Cover order, decomposability, enumeration, extension, witnesses.

The heavy lifting is cross-checked against the unoptimized oracles in
``oracles.py`` on small instances, so the engine's pruning (entry caps,
minimality, unit peels, DFS bounds) never goes unchecked.
"""

import hashlib
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
    cross_validate,
    decompose_cover,
    extend_cover_by_leaf,
    find_special_odd_cycle,
    indecomposable_covers,
    is_standard_graded,
    is_k_cover,
    is_leaf,
    is_quasi_tree,
    leaf_order,
    max_generator_degree,
    new_complex,
    relation_tree,
    smd,
    witness_cover_from_cycle,
)
from qcover.covers import (
    _facet_orbit,
    _facet_swaps,
    _first_indecomposable_cover,
    _twin_quotient,
)
from qcover.cycles import Cycle
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree
from qcover.quasiforest import max_branch_rule, random_branch_rule

from oracles import (
    facet_sets,
    oracle_cover_order,
    oracle_exact_transversals,
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
    # int() would raise OverflowError, TypeError or its own ValueError here
    for bad in (float("inf"), float("nan"), None, "x"):
        with pytest.raises(ValueError, match="nonnegative integers"):
            cover_order(D3, (bad, 1, 1, 0, 0, 0))
        with pytest.raises(ValueError, match="nonnegative integers"):
            decompose_cover(D3, (1, 1, 1, 0, 0, bad), 2)
    assert cover_order(D3, (True, True, True, False, False, False)) == 2
    assert cover_order(D3, np.array([1, 1, 1, 0, 0, 0])) == 2


def test_is_k_cover_examples():
    a = (1, 1, 1, 0, 0, 0)
    assert is_k_cover(D3, a, 2)
    assert not is_k_cover(D3, a, 3)
    assert is_k_cover(D3, (0,) * 6, 0)
    with pytest.raises(ValueError):
        is_k_cover(D3, a, -1)


def test_orders_must_be_integers():
    a = (1, 1, 1, 0, 0, 0)
    for bad in (1.5, 2.0, None, "2", True, np.float64(2)):
        with pytest.raises(ValueError, match="cover order must be an integer"):
            is_k_cover(D3, a, bad)
        with pytest.raises(ValueError, match="cover order must be an integer"):
            decompose_cover(D3, a, bad)
        with pytest.raises(ValueError, match="cover order must be an integer"):
            indecomposable_covers(D3, bad)
        with pytest.raises(ValueError, match="cover order must be an integer"):
            _first_indecomposable_cover(D3, bad)
        with pytest.raises(ValueError, match="k_max must be an integer"):
            max_generator_degree(D3, bad)
    # the bool False is refused as well, not read as order 0
    with pytest.raises(ValueError, match="cover order must be an integer"):
        indecomposable_covers(D3, False)
    # integer types other than int pass and come back as int
    assert indecomposable_covers(D3, np.int64(2)) == [CoverVector(a, 2)]
    assert type(indecomposable_covers(D3, np.int64(2))[0].k) is int
    assert max_generator_degree(D3, np.int64(2))[0] == 2
    with pytest.raises(ValueError, match="cover order must be nonnegative"):
        decompose_cover(D3, a, -1)


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
    # str of an int past the digit limit raises ValueError; the message must not
    with pytest.raises(NotAKCoverError) as err:
        decompose_cover(D3, (1,) * 6, 10**5000)
    assert str(err.value) == "[1, 1, 1, 1, 1, 1] is not a <16610-bit integer>-cover"
    with pytest.raises(NotAKCoverError) as err:
        decompose_cover(D3, (10**5000, 0, 0, 0, 0, 0), 1)
    assert str(err.value) == "[<16610-bit integer>, 0, 0, 0, 0, 0] is not a 1-cover"


def test_zero_vector_is_indecomposable_but_not_enumerated():
    assert decompose_cover(D3, (0,) * 6, 0) is None
    assert (0,) * 6 not in [c.a for c in indecomposable_covers(D3, 0)]
    # a unit vector peels, so its split search runs at order floor 0, where
    # b = a passes both bounds; only b != a keeps it indecomposable
    units = [tuple(int(i == v) for i in range(6)) for v in range(6)]
    for e_v in units:
        assert decompose_cover(D3, e_v, 0) is None
    assert [c.a for c in indecomposable_covers(D3, 0)] == sorted(units)


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


# besides the sweep's inputs, complexes with twins (vertices in exactly the
# same facets): private pairs and triples, and the twins 1 and 4 of
# twin_triangle, which straddle vertices 2 and 3; draw15's rows are
# [1,2,3,4], [1,2,4,5], [1,4,6], [2,5,7], where 1 and 4 straddle 2 and 3 too.
# The cones have facets {c, i, i + 1} around a triangle or a pentagon, so the
# apex c alone is an exact transversal; labelled first or last, it ends at
# the first class or at the last
CONE_TRIANGLE = [{2, 3}, {3, 4}, {2, 4}]
CONE_PENTAGON = [{2, 3}, {3, 4}, {4, 5}, {5, 6}, {2, 6}]
SMD_VIEW_CASES = {
    "delta3": D3,
    "fan": FAN,
    "shared_vertex": new_complex([{1, 2, 3}, {3, 4, 5}]),
    "private_triple": new_complex([{1, 2, 3}, {3, 4, 5, 6}]),
    "single_facet": new_complex([{1, 2, 3, 4}]),
    "twin_triangle": new_complex([{1, 2, 4}, {2, 3}, {1, 3, 4}]),
    "private_triangle": new_complex([{1, 2, 4, 5}, {2, 3, 6}, {1, 3, 7}]),
    "draw15": random_quasi_tree(GeneratorSeed(15, 4, 4)),
    "cone_triangle_first": new_complex([{1, *rim} for rim in CONE_TRIANGLE]),
    "cone_triangle_last": new_complex([{4, *(v - 1 for v in rim)} for rim in CONE_TRIANGLE]),
    "cone_pentagon_first": new_complex([{1, *rim} for rim in CONE_PENTAGON]),
    "cone_pentagon_last": new_complex([{6, *(v - 1 for v in rim)} for rim in CONE_PENTAGON]),
}


@pytest.mark.parametrize("cx", list(SMD_VIEW_CASES.values()), ids=list(SMD_VIEW_CASES))
def test_enumeration_matches_oracle_on_every_smd_view(cx):
    # the sweep's inputs: the facet masks must hold only the view's facets
    import itertools

    views = 0
    for r in range(1, len(cx.facet_ids) + 1):
        for ids in itertools.combinations(cx.facet_ids, r):
            view = smd(cx, ids)
            for k in (0, 1, 2, 3):
                got = [c.a for c in indecomposable_covers(view, k)]
                assert got == oracle_indecomposable_covers(view, k), (ids, k)
            views += 1
    assert views == 2 ** len(cx.facet_ids) - 1


def test_first_generator_heads_the_list(quasi_tree_corpus, small_complex_corpus):
    # the stop-after-first walk behind dmax, the brute-force verdict and the sweep
    checked = 0
    for cx in quasi_tree_corpus + small_complex_corpus:
        for k in (0, 1, 2, 3):
            found = indecomposable_covers(cx, k)
            assert _first_indecomposable_cover(cx, k) == (found[0] if found else None)
            checked += bool(found)
    assert checked > 1000


@pytest.mark.parametrize("cx", list(SMD_VIEW_CASES.values()), ids=list(SMD_VIEW_CASES))
def test_first_generator_heads_the_list_on_every_smd_view(cx):
    import itertools

    for r in range(1, len(cx.facet_ids) + 1):
        for ids in itertools.combinations(cx.facet_ids, r):
            view = smd(cx, ids)
            for k in (0, 1, 2, 3):
                found = indecomposable_covers(view, k)
                want = found[0] if found else None
                assert _first_indecomposable_cover(view, k) == want, (ids, k)


def _sorted_transversals(cx):
    return [sorted(group) for group in _twin_quotient(cx, 2).transversals]


def test_exact_transversals_match_oracle(quasi_tree_corpus, small_complex_corpus):
    found = 0
    for cx in quasi_tree_corpus + small_complex_corpus:
        got = _sorted_transversals(cx)
        assert got == oracle_exact_transversals(cx)
        found += sum(map(len, got))
    assert found > 1000


@pytest.mark.parametrize("cx", list(SMD_VIEW_CASES.values()), ids=list(SMD_VIEW_CASES))
def test_exact_transversals_match_oracle_on_every_smd_view(cx):
    import itertools

    for r in range(1, len(cx.facet_ids) + 1):
        for ids in itertools.combinations(cx.facet_ids, r):
            view = smd(cx, ids)
            assert _sorted_transversals(view) == oracle_exact_transversals(view), ids


def _decided_leaves(monkeypatch):
    """A list that gains one entry per leaf the walk decides from here on."""
    from qcover import covers

    decided = []
    split = covers._lex_first_split
    monkeypatch.setattr(
        covers, "_lex_first_split", lambda *a: decided.append(a) or split(*a)
    )
    return decided


def test_exact_transversals_cut_the_walk(monkeypatch):
    # a prefix at >= 1 on an exact transversal T splits every leaf below it
    # as 1_T plus a (k - 1)-cover, so the walk decides those leaves no more.
    # Both walks also break symmetry by class swaps and learn a cut from each
    # splitting leaf (15 leaves before that)
    decided = _decided_leaves(monkeypatch)

    def leaves():
        decided.clear()
        max_generator_degree(delta_n(4), 5)
        dmax = len(decided)
        decided.clear()
        assert indecomposable_covers(FAN, 4) == []
        return dmax, len(decided)

    assert leaves() == (9, 1)
    _no_transversals(monkeypatch)
    assert leaves() == (13, 3)
    _no_swaps(monkeypatch)
    assert leaves() == (40, 4)


def _apply(swap, vec):
    out = list(vec)
    for lo, hi in swap:
        out[lo], out[hi] = out[hi], out[lo]
    return tuple(out)


def test_class_swaps_keep_the_facet_set(quasi_tree_corpus, small_complex_corpus):
    # each swap is disjoint class pairs, lo < hi and sorted, that maps the
    # quotient's facets onto themselves: one pair of shared classes, whose
    # transposition moves the facet cores, and the private classes that
    # follow their facets.  A swap of private classes alone maps every hit
    # to itself, and none is listed.  The first pair need not be the shared
    # one: on the path {1, 2}, {2, 3}, {3, 4} the swap is ((0, 3), (1, 2))
    from qcover import covers

    found = 0
    for cx in quasi_tree_corpus + small_complex_corpus + list(SMD_VIEW_CASES.values()):
        q = _twin_quotient(cx, 2)
        facets = {frozenset(f) for f in q.positions}
        assert q.fmasks == [sum(1 << c for c in f) for f in q.positions]
        shared = {c for c, at in enumerate(q.facets_at) if len(at) > 1}
        for swap in covers._class_swaps(q.facets_at, q.meets, q.fmasks):
            classes = [c for pair in swap for c in pair]
            assert len(set(classes)) == len(classes)
            assert all(lo < hi for lo, hi in swap) and list(swap) == sorted(swap)
            kinds = sorted(len(shared & set(pair)) for pair in swap)  # shared classes per pair
            assert kinds == [0] * (len(swap) - 1) + [2]
            image = _apply(swap, range(len(q.classes)))
            assert {frozenset(image[c] for c in f) for f in facets} == facets, (cx, swap)
            found += 1
    assert found > 100
    path = new_complex([{1, 2}, {2, 3}, {3, 4}])
    assert _twin_quotient(path, 2).swaps == [((0, 3), (1, 2))]
    # the double fan's fans on {1, 2} and {2, 3} trade places under
    # (1 3)(4 6)(5 7); its private tips are not swapped alone
    assert _twin_quotient(FAN, 2).swaps == [((0, 2), (3, 5), (4, 6))]


def _no_swaps(monkeypatch):
    """Turn the class swaps off: every quotient lists none."""
    from qcover import covers

    monkeypatch.setattr(covers, "_class_swaps", lambda *a: [])


@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_delta_swaps_exchange_two_pairs(monkeypatch, n):
    # delta_n's automorphisms permute the pairs (i, n + i); its swaps are the
    # n(n - 1)/2 transpositions of two pairs, and no single class
    # transposition.  Without them the walk decides more leaves
    want = [((i, j), (n + i, n + j)) for i in range(n) for j in range(i + 1, n)]
    assert sorted(_twin_quotient(delta_n(n), 2).swaps) == want
    decided = _decided_leaves(monkeypatch)
    max_generator_degree(delta_n(n), 4)
    leaves = len(decided)
    _no_swaps(monkeypatch)
    decided.clear()
    max_generator_degree(delta_n(n), 4)
    assert len(decided) > leaves


# the ids keep the counts from before the walk learned cuts from its leaves
@pytest.mark.parametrize(
    "cx, k_max, leaves",
    [pytest.param(FAN, 4, 4, id="cx0-4-4"), pytest.param(D3, 4, 6, id="cx1-4-8")],
)
def test_small_dmax_leaves_are_pinned(monkeypatch, cx, k_max, leaves):
    # small walks search swaps too: delta_n(3) decides 6 leaves, not 10.
    # Cuts learned from its splitting leaves took it from 8 to 6
    decided = _decided_leaves(monkeypatch)
    max_generator_degree(cx, k_max)
    assert len(decided) == leaves


def _all_views(cx):
    import itertools

    ids = cx.facet_ids
    return [smd(cx, s) for r in range(1, len(ids) + 1) for s in itertools.combinations(ids, r)]


def test_class_swaps_change_no_answer(monkeypatch, quasi_tree_corpus, small_complex_corpus):
    # the swaps must give the same lists, first hits and dmax results as
    # the walk without them
    picked = [
        cx
        for cx in quasi_tree_corpus + small_complex_corpus
        if len(cx.active_vertices) <= 8 and _twin_quotient(cx, 2).swaps
    ][:60]
    for name in ("delta3", "fan", "draw15", "cone_pentagon_first", "private_triangle"):
        picked += _all_views(SMD_VIEW_CASES[name])
    picked += _all_views(delta_n(4))

    def answers():
        return [
            (_answers(cx), max_generator_degree(cx, 3), max_generator_degree(cx, 1))
            for cx in picked
        ]

    assert sum(bool(_twin_quotient(cx, 2).swaps) for cx in picked) > 100
    got = answers()
    _no_swaps(monkeypatch)
    assert got == answers()


def test_swap_work_limit_only_prunes_less(monkeypatch):
    # past the limit the walk breaks symmetry with the swaps found so far
    from qcover import covers

    cases = [delta_n(5), FAN, random_quasi_tree(GeneratorSeed(3, 10, 3))]
    want = [(_answers(cx), max_generator_degree(cx, 4)) for cx in cases]
    full = [_twin_quotient(cx, 2).swaps for cx in cases]
    for limit in (0, 1, 10):
        monkeypatch.setattr(covers, "_SWAP_WORK", limit)
        for cx, swaps, answer in zip(cases, full, want):
            assert set(_twin_quotient(cx, 2).swaps) <= set(swaps)
            assert (_answers(cx), max_generator_degree(cx, 4)) == answer, (limit, cx)
    assert _twin_quotient(delta_n(5), 2).swaps != full[0]
    _no_swaps(monkeypatch)
    assert [(_answers(cx), max_generator_degree(cx, 4)) for cx in cases] == want


@pytest.mark.parametrize("cx", list(SMD_VIEW_CASES.values()), ids=list(SMD_VIEW_CASES))
def test_views_in_one_swap_orbit_share_their_answers(cx):
    # the sweep decides one view per orbit of the facet permutations that
    # class permutations induce; checked here on every view, on the
    # complexes that cross_validate refuses as well.  Each permutation is
    # one that a class swap induces, or two facets with the same core
    # trading their private classes
    ids = cx.facet_ids
    perms = _facet_swaps(cx)
    q = _twin_quotient(cx, 2)
    private = {c for c, at in enumerate(q.facets_at) if len(at) == 1}
    induced = []
    for swap in q.swaps:
        to = _apply(swap, range(len(q.classes)))
        image = [q.positions.index(sorted(to[c] for c in f)) for f in q.positions]
        induced.append([(j, h) for j, h in enumerate(image) if j < h])
    for pairs in perms:
        assert pairs and all(j < h for j, h in pairs)
        if pairs not in induced:
            (j, h), = pairs
            f, g = set(q.positions[j]), set(q.positions[h])
            assert len(f - g) == len(g - f) == 1 and (f ^ g) <= private

    def answers(mask):
        view = smd(cx, [fid for j, fid in enumerate(ids) if mask >> j & 1])
        return (
            find_special_odd_cycle(view) is not None,
            _first_indecomposable_cover(view, 2) is not None,
        )

    shared = 0
    for mask in range(1, 1 << len(ids)):
        orbit = _facet_orbit(perms, mask)
        assert orbit[0] == mask and len(set(orbit)) == len(orbit)
        assert {bin(m).count("1") for m in orbit} == {bin(mask).count("1")}
        assert {answers(m) for m in orbit} == {answers(mask)}, (ids, mask)
        shared += len(orbit) > 1
    assert bool(shared) == bool(perms)


def _has_uneven_swap(cx):
    """Whether a class swap of cx pairs two twin classes of different sizes."""
    q = _twin_quotient(cx, 2)
    return any(len(q.classes[lo]) != len(q.classes[hi]) for swap in q.swaps for lo, hi in swap)


def test_sweep_rows_do_not_depend_on_the_swaps(
    monkeypatch, quasi_tree_corpus, small_complex_corpus, universe
):
    # with swaps the sweep decides one view per orbit; below, neither the
    # walks nor the sweep get a swap, so every view is decided alone.
    # cross_validate takes quasi-trees only.  Of the universe, the draws with
    # swaps and at most 7 facets are taken: those with 8 or 9 would add ~8 s
    from qcover import covers

    draws = [cx for name, cx in universe if name.startswith("rqt:") and len(cx.facet_ids) <= 7]
    picked = [cx for cx in SMD_VIEW_CASES.values() if is_quasi_tree(cx)]
    picked += [*map(delta_n, range(3, 7)), FAN]
    picked += [
        cx
        for cx in quasi_tree_corpus + small_complex_corpus + draws
        if len(cx.facet_ids) <= 9 and _twin_quotient(cx, 2).swaps and is_quasi_tree(cx)
    ]
    assert len(picked) > 80
    assert sum(map(_has_uneven_swap, picked)) > 10

    def sweeps():
        return [cross_validate(cx, k, sweep_smds=True).smd_sweep for cx in picked for k in (2, 4)]

    got = sweeps()
    _no_swaps(monkeypatch)
    monkeypatch.setattr(covers, "_facet_swaps", lambda cx: [])
    assert got == sweeps()


def test_orbit_closure_gives_back_every_cover(monkeypatch):
    # delta_n(6)'s 2-covers are the indicators of the 20 triples of centre
    # vertices, one orbit of its swaps: the walk keeps the least and decides
    # 2 leaves, and the swaps give back the other 19
    decided = _decided_leaves(monkeypatch)
    covers = indecomposable_covers(delta_n(6), 2)
    assert len(decided) == 2
    assert len(covers) == 20
    assert covers[0].a == (0, 0, 0, 1, 1, 1) + (0,) * 6
    listed = json.dumps([list(c.a) for c in covers]).encode()
    digest = "026c957316c2269fb87afe4b75609ec13ed764abb520331149418d4c67fba8f5"
    assert hashlib.sha256(listed).hexdigest() == digest


# the ids keep the counts from before the walk learned cuts from its leaves
@pytest.mark.parametrize(
    "n, leaves",
    [
        pytest.param(5, 10, id="5-17"),
        pytest.param(6, 14, id="6-28"),
        pytest.param(7, 18, id="7-43"),
        pytest.param(8, 22, id="8-65"),
    ],
)
def test_delta_dmax_leaves_are_pinned(monkeypatch, n, leaves):
    # class swaps leave one prefix per orbit of delta_n's pair permutations;
    # without them these walks decide 39, 90, 192 and 368 leaves.  Cuts
    # learned from the splitting leaves took them from 17, 28, 43 and 65
    decided = _decided_leaves(monkeypatch)
    assert max_generator_degree(delta_n(n), n)[0] == n - 1
    assert len(decided) == leaves


def _forced(cx):
    """The forced classes of cx's quotient, each with the facet it closes."""
    from qcover import covers

    return {c: j for c, j in enumerate(covers._twin_quotient(cx, 2).forced) if j is not None}


def _unfold(monkeypatch):
    """Turn the forced classes off: the walk tries every value of every class."""
    from qcover import covers

    quotient = covers._twin_quotient

    def unfolded(cx, k_hi):
        q = quotient(cx, k_hi)
        return q._replace(forced=[None] * len(q.forced))

    monkeypatch.setattr(covers, "_twin_quotient", unfolded)


def test_forced_classes_are_the_private_classes_that_close():
    # a class in one facet only is forced when no class after it lies in
    # that facet.  The 14-vertex tree's 7 private classes all close their
    # facets; on the path vertex 1 is private but vertex 2 closes its facet
    tree14 = random_quasi_tree(GeneratorSeed(3, 10, 3))
    q = _twin_quotient(tree14, 2)
    private = [c for c, at in enumerate(q.facets_at) if len(at) == 1]
    assert _forced(tree14) == {3: 2, 6: 5, 7: 3, 9: 1, 10: 7, 11: 8, 12: 9}
    assert list(_forced(tree14)) == private
    assert _forced(new_complex([{1, 2}, {2, 3}, {3, 4}])) == {3: 2}
    assert _forced(new_complex([{1, 2, 3, 4}])) == {0: 0}
    assert _twin_quotient(D3, 2).forced == [None, None, None, 3, 2, 1, None]


def test_a_singleton_facets_class_is_forced_to_k(monkeypatch):
    # no class before it weights the isolated facet {7}, so every leaf puts
    # k on it; delta_n(3)'s private classes take what their facets lack
    cx = new_complex([*(D3.facet(fid) for fid in D3.facet_ids), {7}])
    assert _forced(cx) == {3: 3, 4: 2, 5: 1, 6: 4}
    decided = _decided_leaves(monkeypatch)
    for k in (1, 2, 3):
        decided.clear()
        indecomposable_covers(cx, k)
        assert decided and all(leaf[0][6] == k for leaf in decided), k
        assert all(leaf[0][3] == max(0, k - leaf[0][1] - leaf[0][2]) for leaf in decided), k


def test_forced_classes_change_no_answer(monkeypatch, quasi_tree_corpus, small_complex_corpus):
    # a forced class set in place takes the one value the value loop keeps,
    # so the walk decides the same leaves in the same order: the lists,
    # first hits and dmax certificates are those of the walk without it
    picked = quasi_tree_corpus + small_complex_corpus
    for cx in SMD_VIEW_CASES.values():
        picked += _all_views(cx)
    assert sum(bool(_forced(cx)) for cx in picked) > 600
    decided = _decided_leaves(monkeypatch)

    def answers():
        decided.clear()
        got = [
            (
                [[c.a for c in indecomposable_covers(cx, k)] for k in (1, 2, 3)],
                [_first_indecomposable_cover(cx, k) for k in (1, 2, 3)],
                max_generator_degree(cx, 3),
            )
            for cx in picked
        ]
        return got, [leaf[:2] for leaf in decided]

    got, leaves = answers()
    assert len(leaves) > 5000
    _unfold(monkeypatch)
    assert all(not _forced(cx) for cx in picked)
    assert answers() == (got, leaves)


def test_forced_classes_cut_the_walk(monkeypatch):
    # indecomposable_covers(tree14, 2) makes 404 walk steps, each setting a
    # run of its 7 forced classes in place, then deciding one of the 23
    # leaves or walking one of its 6 free classes; walking the forced
    # classes by value as well takes 1083 steps for the same leaves.  Before
    # one step did both, the walk made 598 frames (343 to set forced runs
    # and 255 to walk free classes).  Cuts learned from the splitting leaves
    # had taken the free-class frames from 356 to 255, the walk by value
    # from 1342 to 1083 and the leaves from 124 to 23
    import sys

    from qcover import covers

    tree14 = random_quasi_tree(GeneratorSeed(3, 10, 3))
    walk = next(
        c for c in covers._indecomposables.__code__.co_consts if getattr(c, "co_name", "") == "rec"
    )
    decided = _decided_leaves(monkeypatch)

    def calls():
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call" and frame.f_code is walk

        decided.clear()
        sys.setprofile(profile)
        try:
            assert indecomposable_covers(tree14, 2) == []
        finally:
            sys.setprofile(None)
        return count, len(decided)

    assert calls() == (404, 23)
    _unfold(monkeypatch)
    assert calls() == (1083, 23)


def _no_learned_cuts(monkeypatch):
    """Turn the learned cuts off: no splitting leaf teaches the walk a cut."""
    from qcover import covers

    monkeypatch.setattr(covers, "_split_cut", lambda *a: None)


def _no_transversals(monkeypatch):
    """Turn the seeded cuts off: every quotient lists no exact transversal."""
    from qcover import covers

    monkeypatch.setattr(covers, "_exact_transversals", lambda fpos, meets: [[] for _ in meets])


def test_learned_cuts_drop_only_splitting_leaves(
    monkeypatch, quasi_tree_corpus, small_complex_corpus
):
    # a cut (S, needs) holds below a prefix that weights all of S and meets
    # its facet needs, and then every leaf splits off 1_S.  The walk seeds
    # its cuts with the exact transversals, which have no needs, and learns
    # one from each splitting leaf with a 0/1 summand.  So per call the walk
    # with cuts gives the answers of the bare walk, with neither, and decides
    # a subsequence of its leaves; each bare leaf that a seed or a learned
    # cut covers is split by decompose_cover, and each dropped leaf is one
    from qcover import covers

    picked = quasi_tree_corpus + small_complex_corpus
    for cx in SMD_VIEW_CASES.values():
        picked += _all_views(cx)
    calls = [
        *(lambda cx, k=k: [c.a for c in indecomposable_covers(cx, k)] for k in (1, 2, 3)),
        *(lambda cx, k=k: _first_indecomposable_cover(cx, k) for k in (1, 2, 3)),
        lambda cx: max_generator_degree(cx, 3),
    ]
    decided = _decided_leaves(monkeypatch)
    learned = []
    split_cut = covers._split_cut

    def learn(b, k, fmasks):
        cut = split_cut(b, k, fmasks)
        if cut is not None:
            learned.append((k, *cut))
        return cut

    def walks():
        got = []
        for cx in picked:
            for call in calls:
                decided.clear()
                learned.clear()
                got.append((call(cx), [leaf[:2] for leaf in decided], list(learned)))
        return got

    monkeypatch.setattr(covers, "_split_cut", learn)
    with_cuts = walks()
    seeds = [[T for ends in _twin_quotient(cx, 3).transversals for T in ends] for cx in picked]
    _no_learned_cuts(monkeypatch)
    _no_transversals(monkeypatch)
    bare = walks()
    covered = by_seed = dropped = 0
    for (cx, seeded), (answer, leaves, cuts), (want, every, none) in zip(
        ((cx, seeded) for cx, seeded in zip(picked, seeds) for _ in calls), with_cuts, bare
    ):
        assert answer == want and not none
        rest = iter(every)
        assert all(leaf in rest for leaf in leaves), cx  # a subsequence
        kept = 0  # the leaves are distinct, so the subsequence pairs them up
        q = _twin_quotient(cx, 3)
        for vec, k in every:
            sums = [sum(vec[c] for c in f) for f in q.positions]
            weighted = sum(1 << c for c, x in enumerate(vec) if x)
            seed = k > 1 and any(not T & ~weighted for T in seeded)
            cut = seed or any(
                j == k and not s & ~weighted and all(sums[f] >= need for f, need in needs)
                for j, s, needs in cuts
            )
            if cut:
                lift = [0] * len(cx.active_vertices)
                for members, x in zip(q.classes, vec):
                    lift[members[-1]] = x
                assert decompose_cover(cx, lift, k) is not None, (cx, vec, k)
                covered += 1
                by_seed += seed
            if kept < len(leaves) and leaves[kept] == (vec, k):
                kept += 1
            else:
                assert cut, (cx, vec, k)  # only a cut drops a leaf
                dropped += 1
    assert sum(len(got[2]) for got in with_cuts) > 1000
    assert covered > 1000 and by_seed > 10000
    assert dropped > 1000


def _answers(cx):
    """The lists and first hits for k = 0..3."""
    return [
        ([c.a for c in indecomposable_covers(cx, k)], _first_indecomposable_cover(cx, k))
        for k in (0, 1, 2, 3)
    ]


def _triangle_chain(length):
    """Facets {2i - 1, 2i, 2i + 1}: each shares one vertex with the next."""
    return new_complex([{2 * i - 1, 2 * i, 2 * i + 1} for i in range(1, length + 1)])


def test_transversal_work_limit_only_prunes_less(
    monkeypatch, quasi_tree_corpus, small_complex_corpus
):
    # past the limit the walk prunes with the transversals found so far.  The
    # oracle's inputs take at most 18 search nodes, so the 15-vertex chain,
    # whose 21 transversals take more, is held to its answers at the full limit
    import itertools

    from qcover import covers

    chain = _triangle_chain(7)
    whole, want = _sorted_transversals(chain), _answers(chain)
    picked = [
        cx
        for cx in quasi_tree_corpus + small_complex_corpus
        if len(cx.active_vertices) <= 6
    ][:40]
    for name in ("draw15", "cone_pentagon_first"):
        cx = SMD_VIEW_CASES[name]
        for r in range(1, len(cx.facet_ids) + 1):
            picked += [smd(cx, ids) for ids in itertools.combinations(cx.facet_ids, r)]
    oracle = [[oracle_indecomposable_covers(cx, k) for k in (0, 1, 2, 3)] for cx in picked]
    for limit in (0, 1, 40):
        monkeypatch.setattr(covers, "_TRANSVERSAL_WORK", limit)
        assert _sorted_transversals(chain) != whole, limit
        assert _answers(chain) == want, limit
        for cx, lists in zip(picked, oracle):
            for k, ((got, first), exact) in enumerate(zip(_answers(cx), lists)):
                assert got == exact, (limit, cx, k)
                assert (first.a if first else None) == (exact[0] if exact else None)


def test_degrees_up_to_one_search_no_transversals(monkeypatch):
    # a transversal only cuts degrees >= 2, so none is searched below that:
    # the 63-vertex chain has 2,178,309 exact transversals
    from qcover import covers

    def refuse(*args):
        raise AssertionError("exact transversals searched for a degree <= 1")

    monkeypatch.setattr(covers, "_exact_transversals", refuse)
    chain = _triangle_chain(31)
    assert len(indecomposable_covers(chain, 0)) == 63
    assert max_generator_degree(chain, 1)[0] == 1
    assert _first_indecomposable_cover(chain, 1) is not None
    d4 = delta_n(4)
    assert [c.a for c in indecomposable_covers(d4, 1)] == oracle_indecomposable_covers(d4, 1)


def _dmax(cx, k_max):
    d, certs = max_generator_degree(cx, k_max)
    return d, {k: c.a for k, c in certs.items()}


def _covers(cx, k):
    return [c.a for c in indecomposable_covers(cx, k)]


# ten walks: the benchmark's seven brute-force cases, the 12-triangle chain
# and a 40-vertex draw at degree 2, and delta_n(10) up to degree 10
LEAF_WALKS = {
    "delta3_k4": lambda: _dmax(D3, 4),
    "delta4_k5": lambda: _dmax(delta_n(4), 5),
    "double_fan_k4": lambda: _dmax(FAN, 4),
    "delta5_k4": lambda: _dmax(delta_n(5), 4),
    "tree14_k2": lambda: _covers(random_quasi_tree(GeneratorSeed(3, 10, 3)), 2),
    "sweep_double_fan": lambda: cross_validate(FAN, 4, sweep_smds=True).to_dict(),
    "sweep_delta3": lambda: cross_validate(D3, 4, sweep_smds=True).to_dict(),
    "chain12_k2": lambda: _covers(_triangle_chain(12), 2),
    "rqt41_k2": lambda: _covers(random_quasi_tree(GeneratorSeed(41, 24, 4)), 2),
    "delta10_k10": lambda: _dmax(delta_n(10), 10),
}
# per walk, its count of decided leaves and the SHA-256 of those leaves, in
# the order decided, and of its answer
LEAF_PINS = {
    "delta3_k4": (6, "59c4434a10cf91f7adbc0b836d2bfc1135fa6211d28a11668466c8e99594fdcf"),
    "delta4_k5": (9, "bcfbfd1bfd8507818527014fb718b8b13df995ee566389239c35e39970d20c12"),
    "double_fan_k4": (4, "72d18f15018d0a684d8e35a11737c733d2c2b4d78cf39a8d7f218b5160b4863a"),
    "delta5_k4": (8, "eba0f2db5567c208a717acbe2abe25c98835c91e38d9c84ff352822c50868d05"),
    "tree14_k2": (23, "095549838783dd3736610feb49cf1db7a2ce09b021971449d27dae2407b04251"),
    "sweep_double_fan": (5, "31863ac54474e901604dc79beb3701f7e14bc315f7094bf02e1da4c486acd952"),
    "sweep_delta3": (6, "ac0addd3b62c53c870b506dd460b274e45905df7b8a6abc24477568cd6b3bdf5"),
    "chain12_k2": (694, "f8fc0ee0b9d9912d1e8cc93527df3b4823d26e42effc052a22b52fef5f167420"),
    "rqt41_k2": (574, "9beaf069832a5bb9a4bf0a45c0b54e1494e91b4c8dfd701528832a71b0dbdb8f"),
    "delta10_k10": (32, "f6aeab7104e853a895ff8d487b523fc83423c9414bbb73c747c1c094cbdd9efe"),
}


@pytest.mark.parametrize("name", list(LEAF_WALKS))
def test_walks_decide_the_pinned_leaves(monkeypatch, name):
    # the walk's prunes may change how it reaches its leaves, but not which
    # leaves it decides, their order or the answer
    decided = _decided_leaves(monkeypatch)
    answer = LEAF_WALKS[name]()
    text = json.dumps([[args[0] for args in decided], answer], separators=(",", ":"))
    assert (len(decided), hashlib.sha256(text.encode()).hexdigest()) == LEAF_PINS[name]


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


def _delta_certificates(n):
    """The lexicographically first certificates of max_generator_degree(delta_n(n), n).

    Degree 1 is e_n + e_2n; degree j = 2..n-1 has ones on the centre
    vertices n-j..n.
    """

    def ones(labels):
        return tuple(int(v in labels) for v in range(1, 2 * n + 1))

    return {1: ones({n, 2 * n}), **{j: ones(range(n - j, n + 1)) for j in range(2, n)}}


# the delta_n dmax table: d = n - 1 for n = 3..10
PINNED_DMAX += [(delta_n(n), n, n - 1, _delta_certificates(n)) for n in range(3, 11)]


@pytest.mark.parametrize("cx, k_max, d, certs", PINNED_DMAX)
def test_max_generator_degree_is_pinned(cx, k_max, d, certs):
    want = {k: CoverVector(a, k) for k, a in certs.items()}
    assert max_generator_degree(cx, k_max) == (d, want)


def test_degree_walks_build_no_complex(monkeypatch):
    # twins are walked on a quotient derived from the complex's incidence,
    # not on a second complex built for it
    from qcover import SimplicialComplex, brute_force_verdict

    cx = random_quasi_tree(GeneratorSeed(3, 10, 3))
    assert len(set(cx.facets_at)) < len(cx.active_vertices)  # it has twins
    built = []
    init, select = SimplicialComplex.__init__, SimplicialComplex._select
    monkeypatch.setattr(
        SimplicialComplex, "__init__", lambda *a: built.append(a) or init(*a)
    )
    monkeypatch.setattr(
        SimplicialComplex, "_select", lambda *a: built.append(a) or select(*a)
    )
    assert max_generator_degree(cx, 4)[0] >= 1
    brute_force_verdict(cx, 4)
    assert built == []


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


PINNED_COMPLEXES = {
    "delta3": D3,
    "delta4": delta_n(4),
    "delta5": delta_n(5),
    "fan": FAN,
    "tree14": random_quasi_tree(GeneratorSeed(3, 10, 3)),
}
NO_COVERS = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
# (complex name, k, count, first cover, sha256 of json.dumps of the covers as lists);
# recorded before the enumeration kept its prune state incrementally
PINNED_ENUMERATION = [
    ("delta3", 0, 6, (0, 0, 0, 0, 0, 1), "efc89e1a308c8d593ea4a27c911579a2f8aed6fd0b19f5608e9e8110e0b33975"),
    ("delta3", 1, 6, (0, 0, 1, 0, 0, 1), "432ac4012049dda147695371444437975df3642be707d9a277117bcdde1f738f"),
    ("delta3", 2, 1, (1, 1, 1, 0, 0, 0), "2f7af180c5fe355b54d87ad4de3d225761a13ea783f3710b80f55bd603db7d58"),
    ("delta3", 3, 0, None, NO_COVERS),
    ("delta3", 4, 0, None, NO_COVERS),
    ("delta4", 0, 8, (0, 0, 0, 0, 0, 0, 0, 1), "a8527d8c92783885f1765f3111b3b917cb8dea436bd26205929deaa6269d0ca9"),
    ("delta4", 1, 10, (0, 0, 0, 1, 0, 0, 0, 1), "e35cef3677e26b98af23d5731c86d9696801da232fe4d9b83ca279e1a922007e"),
    ("delta4", 2, 4, (0, 1, 1, 1, 0, 0, 0, 0), "aa9ec02d028e077e5c7fff42dc29ff04677c2803a4b1310005e06fd3e717840b"),
    ("delta4", 3, 1, (1, 1, 1, 1, 0, 0, 0, 0), "b79004d7ff955a1efcdbf09ba293929142f4d19485c72f6e12ef6d4f936c7527"),
    ("delta4", 4, 0, None, NO_COVERS),
    ("delta5", 0, 10, (0, 0, 0, 0, 0, 0, 0, 0, 0, 1), "edd79a0f4a7ea5cb59d4362904a883c0ea2d5f4656a0eb0abd26de05df8854c8"),
    ("delta5", 1, 15, (0, 0, 0, 0, 1, 0, 0, 0, 0, 1), "5d164ba73da07f222217e9fb75108960ec2c2681e882eb707bd4bc8667e91fe9"),
    ("delta5", 2, 10, (0, 0, 1, 1, 1, 0, 0, 0, 0, 0), "38004f48afeca22d17c78b7765764c03423cca77f00ec9162863d9434f60bd6f"),
    ("delta5", 3, 5, (0, 1, 1, 1, 1, 0, 0, 0, 0, 0), "4b56f1c64f3e49ae9628af84ade144ea4d4e870ca1420f02ec5cb2db58b26fb1"),
    ("delta5", 4, 1, (1, 1, 1, 1, 1, 0, 0, 0, 0, 0), "cc81c5eb0e139a27372f727677b02e52d8ef0f78af20a3d1cfa6cf0330650013"),
    ("fan", 0, 7, (0, 0, 0, 0, 0, 0, 1), "54fb9103e28118f6a8ba999685a01e1af2e98bbd619de31d94df20301d4b08a3"),
    ("fan", 1, 4, (0, 0, 1, 1, 1, 0, 0), "87b8f73b18013761401fffc7418c8d995a0f71a5d090f1113a770c1a79039823"),
    ("fan", 2, 0, None, NO_COVERS),
    ("fan", 3, 0, None, NO_COVERS),
    ("fan", 4, 0, None, NO_COVERS),
    ("tree14", 0, 14, (0,) * 13 + (1,), "a18ec304b886aed4517d85530ad9641f16224a3413b37e2edd917d6540e782b3"),
    ("tree14", 1, 52, (0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1), "e6ad18e9112a820bf20f28bff8606ec081d96617174e2d427b8166adfd5bb153"),
    ("tree14", 2, 0, None, NO_COVERS),
]


@pytest.mark.parametrize(
    "name, k, count, first, digest",
    PINNED_ENUMERATION,
    ids=[f"{name}-k{k}" for name, k, *_ in PINNED_ENUMERATION],
)
def test_enumeration_lists_are_pinned(name, k, count, first, digest):
    covers = indecomposable_covers(PINNED_COMPLEXES[name], k)
    assert len(covers) == count
    assert (covers[0].a if covers else None) == first
    listed = json.dumps([list(c.a) for c in covers]).encode()
    assert hashlib.sha256(listed).hexdigest() == digest


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
    # a fractional order or entry would place a fractional deficit
    with pytest.raises(ValueError, match="cover order must be an integer"):
        extend_cover_by_leaf(gamma, delta, 2, CoverVector((1, 1), 2.5))
    with pytest.raises(ValueError, match="nonnegative integers"):
        extend_cover_by_leaf(gamma, delta, 2, CoverVector((1.5, 1), 2))
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


def test_witness_refuses_another_complexs_tree():
    tree = relation_tree(delta_n(4), leaf_order(delta_n(4)))
    with pytest.raises(ValueError, match="relation tree does not belong"):
        witness_cover_from_cycle(D3, tree, find_special_odd_cycle(D3))


def test_witness_refuses_a_non_cycle():
    tree = relation_tree(D3, leaf_order(D3))
    with pytest.raises(NotSpecialOddCycleError, match="witness input is not a cycle"):
        witness_cover_from_cycle(D3, tree, Cycle((1, 2, 3), (1, 2, 3)))


def _golden_witnesses():
    # every exit-10 input of the check universe: the quasi-tree draws
    # rqt:s = GeneratorSeed(s, 6 + s % 30, 2 + s % 7) for s < 3000 (over-64-vertex
    # draws left out) and delta:n = delta_n(n) for n in 3..32, with the
    # witnesses the criterion gave when the golden was recorded; as
    # (key, complex, witnesses) in the golden's order
    golden = json.loads((Path(__file__).parent / "golden/witnesses.json").read_text())
    assert len(golden) == 253
    for key, want in golden.items():
        kind, n = key.split(":")
        n = int(n)
        if kind == "rqt":
            cx = random_quasi_tree(GeneratorSeed(n, 6 + n % 30, 2 + n % 7))
        else:
            cx = delta_n(n)
        yield key, cx, want


def test_witnesses_match_golden():
    for key, cx, want in _golden_witnesses():
        got = is_standard_graded(cx).to_dict()
        assert {f: got[f] for f in want} == want, key


# rule -> (SHA-256 of the verdicts' to_dict() JSON, rule calls, SHA-256 of the
# calls' (leaf, branches, choice) JSON) over the golden's 253 inputs, each
# under a fresh rule.  The witnesses come out the same under every rule on
# these inputs (the minimal subtree differs on 54), so the calls are pinned
# as well: they fix the order in which a stateful rule is asked.
RULE_PINS = {
    "max": (
        "554135538b185cbf87808e17e11420f0d055f5fc03e74e884c08f34962ec7a9f",
        4798,
        "a61a5c0456707c40e2547800a03982bda84509e6cb731f274c01f8b9bae87f94",
    ),
    "random:0": (
        "554135538b185cbf87808e17e11420f0d055f5fc03e74e884c08f34962ec7a9f",
        4798,
        "305a4f11b1e690a3ee2d4fa00c7cbd1d205d2f2be56393153caa8479312afc3b",
    ),
    "random:1": (
        "554135538b185cbf87808e17e11420f0d055f5fc03e74e884c08f34962ec7a9f",
        4798,
        "b735383e439cafe0b833cfa27fb77f46d7f502cc67de4080c9d357aadf108b08",
    ),
    "random:2": (
        "554135538b185cbf87808e17e11420f0d055f5fc03e74e884c08f34962ec7a9f",
        4798,
        "1f44af8a6f19acf961b35f1b822ddade606bf21ba29cae9940f64e6e6c8b828b",
    ),
}


@pytest.mark.parametrize("rule_name", sorted(RULE_PINS))
def test_verdicts_under_other_branch_rules_match_pins(rule_name):
    verdicts, calls = [], []
    for _, cx, _ in _golden_witnesses():
        if rule_name == "max":
            rule = max_branch_rule
        else:
            rule = random_branch_rule(int(rule_name.split(":")[1]))

        def logged(leaf, branches, rule=rule):
            chosen = rule(leaf, branches)
            calls.append([leaf, list(branches), chosen])
            return chosen

        verdicts.append(is_standard_graded(cx, branch_rule=logged).to_dict())
    assert sum(not v["standard_graded"] for v in verdicts) == 253

    def sha(obj, **kw):
        text = json.dumps(obj, separators=(",", ":"), **kw)
        return hashlib.sha256(text.encode()).hexdigest()

    got = (sha(verdicts, sort_keys=True), len(calls), sha(calls))
    assert got == RULE_PINS[rule_name]
