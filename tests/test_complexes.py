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
from qcover.families import double_fan


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


def test_smd_dimension_bounded_by_parent(small_complex_corpus):
    for cx in small_complex_corpus[:60]:
        ids = list(cx.facet_ids)
        view = smd(cx, ids[: max(1, len(ids) // 2)])
        assert view.dimension() <= cx.dimension()
