import hashlib
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from oracles import COMPLEX_FIELDS, oracle_new_complex, oracle_smd


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


def test_repr_shows_the_facets_of_a_view_or_a_root():
    cx = delta_n(3)
    view = smd(cx, [1, 2])
    assert repr(view) == "SimplicialComplex(n=6, facets=[[1, 2, 3], [1, 2, 6]])"
    assert repr(cx) == (
        "SimplicialComplex(n=6, facets=[[1, 2, 3], [1, 2, 6], [1, 3, 5], [2, 3, 4]])"
    )


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


def test_rows_are_the_facets_in_ascending_label_order(
    quasi_tree_corpus, small_complex_corpus
):
    for cx in [*quasi_tree_corpus, *small_complex_corpus]:
        for view in (cx, smd(cx, cx.facet_ids[::2])):
            assert view.rows == tuple(tuple(sorted(f)) for f in view.facets)


def _fields(cx):
    return {name: getattr(cx, name) for name in COMPLEX_FIELDS}


def _outcome(build, facets):
    """build(facets), or the type, message and reported pair of what it raised."""
    try:
        return build(facets)
    except Exception as exc:
        pair = (exc.smaller, exc.larger) if isinstance(exc, AntichainViolationError) else None
        return type(exc), str(exc), pair


def test_constructor_matches_the_pairwise_oracle_on_the_check_universe(universe):
    for key, cx in universe:
        # facets and their labels in reverse, so the canonical sort has work
        raw = [sorted(f, reverse=True) for f in reversed(cx.facets)]
        root = oracle_new_complex(raw)
        assert _fields(new_complex(raw)) == root, key
        ids = cx.facet_ids
        for sub in (ids[::2], ids[1:]):
            if sub:
                assert _fields(smd(cx, sub)) == oracle_smd(root, sub), (key, sub)


class Label(int):
    """An int subclass, accepted as a vertex label like a plain int."""


# labels past the happy path: 0, negatives, bools, past 64 and past the
# int-to-str digit limit, and an int subclass
ODD_LABELS = (0, -1, True, False, 65, 2**64, 10**5000, -(10**5000), Label(2))


def _pick(draw, items, min_size=1):
    """A list of items drawn by index, with repeats: hypothesis cannot repr a
    label past the digit limit, so no strategy holds one."""
    ix = st.integers(0, len(items) - 1)
    return [items[i] for i in draw(st.lists(ix, min_size=min_size, max_size=len(items)))]


@st.composite
def raw_facet_lists(draw):
    """Facet lists with repeats, gaps, duplicates and several nested pairs."""
    label = st.integers(1, draw(st.sampled_from((3, 5, 7, 9, 70))))
    if draw(st.integers(0, 3)) == 2:
        odd = st.integers(0, len(ODD_LABELS) - 1).map(ODD_LABELS.__getitem__)
        label = st.one_of(label, odd)
    drawn = draw(st.sets(st.frozensets(label, min_size=1, max_size=5), min_size=1, max_size=7))
    facets = [list(f) + _pick(draw, list(f), min_size=0) for f in drawn]
    for _ in range(draw(st.integers(0, 2))):  # a subset or a copy of a drawn facet
        sub = _pick(draw, facets[draw(st.integers(0, len(facets) - 1))])
        facets.insert(draw(st.integers(0, len(facets))), sub)
    if draw(st.integers(0, 19)) == 13:
        facets.insert(draw(st.integers(0, len(facets))), [])
    return [] if draw(st.integers(0, 39)) == 13 else facets


@settings(max_examples=200, deadline=None)
@given(raw_facet_lists())
@example([])
@example([[1, 2], []])
@example([[2, 3], [1], [3, 2, 2], [1, 2]])
@example([[1, 2], [2, 3], [3], [1, 2, 3], [2]])
@example([[1, 10**5000], [1]])
@example([[True, 2], [2, 1]])
@example([[1, True], [2, 1]])
@example([[65, 1], [1, 2, 3]])
@example([[0], 5])
@example([[1, 2], [1], 5])
@example([[1, 1], [2, [3]]])
def test_constructor_matches_the_pairwise_oracle_on_raw_facet_lists(raw):
    want = _outcome(oracle_new_complex, raw)
    assert _outcome(lambda f: _fields(new_complex(f)), raw) == want
