import hashlib
import itertools
import json

import pytest

from qcover import (
    AntichainViolationError,
    DuplicateFacetError,
    EmptyFacetError,
    EmptySelectionError,
    TooManyVerticesError,
    UncoveredVertexError,
    UnknownFacetIdError,
    new_complex,
    smd,
)
from qcover.errors import echo
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree

from corpus import LARGE_SEEDS


def test_fan_complex_shape():
    cx = double_fan()
    assert cx.vertex_count == 7
    assert len(cx.facets) == 5
    assert cx.dimension() == 2
    assert cx.is_connected()


def test_single_vertex_complex():
    cx = new_complex([{1}])
    assert cx.vertex_count == 1
    assert cx.dimension() == 0
    assert cx.is_connected()


def test_antichain_violation_reports_pair():
    with pytest.raises(AntichainViolationError) as err:
        new_complex([{1, 2}, {1, 2, 3}])
    assert err.value.smaller == frozenset({1, 2})
    assert err.value.larger == frozenset({1, 2, 3})


def test_dimension_mixed_sizes():
    assert new_complex([{1, 2}, {2, 3, 4}]).dimension() == 2


def test_disconnected():
    assert not new_complex([{1, 2}, {3, 4}]).is_connected()


def test_construction_errors():
    with pytest.raises(EmptyFacetError):
        new_complex([{1, 2}, set()])
    with pytest.raises(DuplicateFacetError):
        new_complex([[1, 2], [2, 1]])
    with pytest.raises(UncoveredVertexError):
        new_complex([{1, 3}])
    with pytest.raises(ValueError):
        new_complex([{0, 1}])
    with pytest.raises(EmptySelectionError):
        new_complex([])
    with pytest.raises(TooManyVerticesError):
        new_complex([{1, 65}] + [{v} for v in range(2, 65)])


def test_labels_past_the_int_to_str_limit_are_described_by_bit_length():
    # repr of such an int raises ValueError; the messages must not
    with pytest.raises(TooManyVerticesError) as err:
        new_complex([[1, 10**5000]])
    assert str(err.value) == (
        "<16610-bit integer> vertex labels; the engine supports at most 64"
    )
    with pytest.raises(ValueError) as err:
        new_complex([[1, -(10**5000)]])
    assert str(err.value) == (
        "facet #1 contains <16610-bit negative integer>; vertex labels must be "
        "positive integers"
    )
    assert echo([1, 10**5000]) == "<list holding an integer too long to print>"
    assert echo(10**4000) == "10000000000000000000... (4001 characters)"


def test_repeated_vertices_within_facet_are_collapsed():
    cx = new_complex([[1, 1, 2], [2, 3]])
    assert cx.facet(1) == frozenset({1, 2})


def test_canonical_ids_independent_of_input_order():
    a = new_complex([{2, 3, 6}, {1, 2, 3}, {2, 3, 7}, {1, 2, 5}, {1, 2, 4}])
    b = double_fan()
    assert a == b
    assert a.facets == b.facets
    assert hash(a) == hash(b)


def test_smd_selection_and_universe():
    cx = double_fan()
    view = smd(cx, [4])
    assert view.active_vertices == (2, 3, 6)
    assert view.facet(4) == frozenset({2, 3, 6})
    assert view.dimension() == 2
    full = smd(cx, cx.facet_ids)
    assert [full.facet(fid) for fid in full.facet_ids] == list(cx.facets)


def test_smd_prefix_matches_leaf_order_prefix():
    cx = double_fan()
    view = smd(cx, [1, 2, 3])
    assert sorted(sorted(view.facet(f)) for f in view.facet_ids) == [
        [1, 2, 3],
        [1, 2, 4],
        [1, 2, 5],
    ]


def test_smd_errors_and_nesting():
    cx = double_fan()
    with pytest.raises(EmptySelectionError):
        smd(cx, [])
    with pytest.raises(UnknownFacetIdError):
        smd(cx, [9])
    nested = smd(smd(cx, [1, 2, 3]), [1, 2])
    assert nested.parent is cx
    with pytest.raises(UnknownFacetIdError):
        smd(smd(cx, [1, 2]), [3])


class Index:
    """An integer-like id that is not an int: it has ``__index__`` alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# a bool or a non-integer id was taken as 1 or raised a bare TypeError
@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda cx: cx.facet(1.5), "1.5"),
        (lambda cx: cx.facet(True), "True"),
        (lambda cx: cx.mask(None), "None"),
        (lambda cx: smd(cx, [1.0]), "1.0"),
        (lambda cx: smd(cx, ["a"]), "'a'"),
        (lambda cx: smd(cx, [1, "a"]), "'a'"),
    ],
    ids=["facet-float", "facet-bool", "mask-none", "smd-float", "smd-str", "smd-mixed"],
)
def test_non_integer_facet_ids_are_unknown(call, shown):
    with pytest.raises(UnknownFacetIdError) as err:
        call(delta_n(3))
    assert str(err.value) == f"facet id {shown} is not an integer"


def test_facet_ids_with_index_are_taken_as_ints():
    cx = delta_n(3)
    assert cx.facet(Index(2)) == cx.facet(2)
    assert cx.mask(Index(4)) == cx.mask(4)
    assert smd(cx, [Index(2), 3]).facet_ids == (2, 3)
    with pytest.raises(UnknownFacetIdError, match="facet id 5 is not in the complex"):
        cx.facet(Index(5))
    with pytest.raises(UnknownFacetIdError, match="<16610-bit integer> is not in"):
        cx.facet(10**5000)


def _incidence(cx):
    """(positions, facets_at) recomputed by label search over the facets."""
    universe = list(cx.active_vertices)
    positions = tuple(tuple(universe.index(v) for v in sorted(f)) for f in cx.facets)
    facets_at = tuple(
        tuple(j for j, f in enumerate(cx.facets) if v in f) for v in universe
    )
    return positions, facets_at


def test_incidence_matches_the_facets(quasi_tree_corpus, small_complex_corpus):
    large = [
        random_quasi_tree(GeneratorSeed(s, 6 + s % 30, 2 + s % 7)) for s in LARGE_SEEDS
    ]
    deltas = [delta_n(n) for n in range(3, 9)]
    for cx in [*quasi_tree_corpus, *small_complex_corpus, *deltas, *large]:
        assert (cx.positions, cx.facets_at) == _incidence(cx)


def test_incidence_of_every_smd_view_is_local_to_the_view():
    view = smd(double_fan(), [4])
    assert view.active_vertices == (2, 3, 6)
    assert view.positions == ((0, 1, 2),)
    assert view.facets_at == ((0,), (0,), (0,))
    for cx in (delta_n(3), double_fan()):
        for r in range(1, len(cx.facet_ids) + 1):
            for ids in itertools.combinations(cx.facet_ids, r):
                view = smd(cx, ids)
                assert (view.positions, view.facets_at) == _incidence(view)


def test_smd_dimension_bounded_by_parent(small_complex_corpus):
    for cx in small_complex_corpus[:60]:
        ids = list(cx.facet_ids)
        view = smd(cx, ids[: max(1, len(ids) // 2)])
        assert view.dimension() <= cx.dimension()


# (corpus fixture, count, sha256 of json.dumps of every complex's sorted
# facet lists); a change of random source must draw the same corpora
PINNED_CORPORA = [
    ("quasi_tree_corpus", 208, "bace93258a3acc0ccb220a6b25a2ef25629709a93f47cb379e8e7ac201642bfe"),
    ("small_complex_corpus", 500, "3967d9ddb390b6bafb4cb39b346edbf204b86399c017c5a91f4548658afac969"),
]


@pytest.mark.parametrize(
    "corpus, count, digest", PINNED_CORPORA, ids=[row[0] for row in PINNED_CORPORA]
)
def test_seeded_corpora_are_pinned(request, corpus, count, digest):
    complexes = request.getfixturevalue(corpus)
    assert len(complexes) == count
    listed = [[sorted(f) for f in cx.facets] for cx in complexes]
    assert hashlib.sha256(json.dumps(listed).encode()).hexdigest() == digest
