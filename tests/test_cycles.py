"""Cycle validity, specialness, and the canonical backtracking search."""

import hashlib
import itertools
import json

import pytest

from qcover import (
    BudgetExceededError,
    Cycle,
    LengthMismatchError,
    NotACycleError,
    UnknownFacetIdError,
    enumerate_cycles,
    find_special_odd_cycle,
    is_cycle,
    is_quasi_tree,
    is_special_cycle,
    new_complex,
    smd,
)
from qcover.families import delta_n, double_fan

from corpus import (
    bipartite_satellite_tree,
    paired_satellite_tree,
    satellite_ring,
)
from oracles import oracle_enumerate_cycles, oracle_special_odd_cycle_exists

TRIANGLE = new_complex([{1, 2}, {2, 3}, {1, 3}])


def test_delta_cycle_is_cycle_and_special():
    cx = delta_n(3)
    # canonical ids: 1={1,2,3}, 2={1,2,6}, 3={1,3,5}, 4={2,3,4}
    assert is_cycle(cx, (2, 3, 1), (4, 3, 2))
    cyc = Cycle((2, 3, 1), (4, 3, 2))
    assert is_special_cycle(cx, cyc)
    # the central facet holds all three cycle vertices but is not on the
    # cycle, so it cannot break specialness
    assert cx.facet(1) >= set(cyc.vertices)


def test_repeated_vertex_is_not_a_cycle():
    cx = delta_n(3)
    assert not is_cycle(cx, (2, 2), (1, 4))


def test_fan_has_nonspecial_cycle():
    cx = double_fan()
    # {1,2,4} -> {2,3,6} -> {1,2,3} closes a cycle, but {1,2,3} holds all
    # three of its vertices
    assert is_cycle(cx, (1, 2, 3), (2, 4, 1))
    assert not is_special_cycle(cx, Cycle((1, 2, 3), (2, 4, 1)))


def test_two_cycles_are_special_but_never_odd():
    cx = new_complex([{1, 2, 3}, {1, 2, 4}])
    assert is_cycle(cx, (1, 2), (1, 2))
    assert is_special_cycle(cx, Cycle((1, 2), (1, 2)))
    assert find_special_odd_cycle(cx) is None


def test_cycle_errors():
    cx = delta_n(3)
    with pytest.raises(LengthMismatchError):
        is_cycle(cx, (1, 2, 3), (1, 2))
    with pytest.raises(NotACycleError):
        is_special_cycle(cx, Cycle((1, 2), (1, 1)))
    # the message stays one short line, past the digit limit too
    with pytest.raises(NotACycleError) as err:
        is_special_cycle(cx, Cycle((1, 10**5000), (1, 2)))
    assert str(err.value) == (
        "vertices [1, <16610-bit integer>], facets [1, 2]: not a cycle of the complex"
    )
    long_run = tuple(range(1, 301))
    with pytest.raises(NotACycleError) as err:
        is_special_cycle(cx, Cycle(long_run, long_run))
    assert "... (300 items)], facets [" in str(err.value)
    assert len(str(err.value)) < 200


def test_vertices_off_the_universe_are_no_cycle_before_facets_are_read():
    # the view's universe is (1, 2, 3, 6): vertex 4 fails before the lookup
    # of facet 3, which is not in the view
    view = smd(delta_n(3), [1, 2])
    assert not is_cycle(view, (1, 4), (1, 3))
    with pytest.raises(UnknownFacetIdError):
        is_cycle(view, (1, 2), (1, 3))


def test_find_returns_canonical_delta_cycle():
    cyc = find_special_odd_cycle(delta_n(3))
    assert cyc == Cycle((1, 2, 3), (2, 4, 3))


def test_fan_has_no_special_odd_cycle():
    assert find_special_odd_cycle(double_fan()) is None


def test_single_facet_no_cycle():
    assert find_special_odd_cycle(new_complex([{1, 2, 3}])) is None


def test_triangle_of_edges_is_special_odd():
    cyc = find_special_odd_cycle(TRIANGLE)
    assert cyc is not None
    assert cyc.s == 3


def test_returned_cycles_validate(quasi_tree_corpus):
    for cx in quasi_tree_corpus:
        cyc = find_special_odd_cycle(cx)
        if cyc is not None:
            assert is_cycle(cx, cyc.vertices, cyc.facets)
            assert is_special_cycle(cx, cyc)
            assert cyc.is_odd() and cyc.s >= 3


def test_rotation_and_reflection_closure(quasi_tree_corpus):
    sources = [cx for cx in quasi_tree_corpus if find_special_odd_cycle(cx)]
    sources.append(delta_n(4))
    for cx in sources:
        cyc = find_special_odd_cycle(cx)
        for shift in range(cyc.s):
            rot = cyc.rotated(shift)
            assert is_cycle(cx, rot.vertices, rot.facets)
            assert is_special_cycle(cx, rot)
        rev = cyc.reversed_()
        assert is_cycle(cx, rev.vertices, rev.facets)
        assert is_special_cycle(cx, rev)


def test_agreement_with_naive_oracle(small_complex_corpus):
    # ≤7 vertices and ≤5 facets by construction of the corpus
    for cx in small_complex_corpus[:120]:
        got = find_special_odd_cycle(cx) is not None
        assert got == oracle_special_odd_cycle_exists(cx)


def test_enumerate_yields_each_cycle_once():
    cx = double_fan()
    seen = set()
    for cyc in enumerate_cycles(cx):
        assert cyc not in seen
        seen.add(cyc)
        assert is_cycle(cx, cyc.vertices, cyc.facets)

    def rep(c):
        variants = [c.rotated(i) for i in range(c.s)]
        variants += [c.reversed_().rotated(i) for i in range(c.s)]
        return min((v.vertices, v.facets) for v in variants)

    # no two yields are rotations/reflections of the same closed walk
    assert len({rep(c) for c in seen}) == len(seen)


def test_budget_aborts_loudly():
    with pytest.raises(BudgetExceededError):
        for _ in enumerate_cycles(delta_n(5), budget=3):
            pass
    with pytest.raises(BudgetExceededError):
        find_special_odd_cycle(delta_n(5), budget=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_s": 3.5},
        {"max_s": True},
        {"max_s": "3"},
        {"budget": "x"},
        {"budget": True},
        {"budget": 2.0},
        {"budget": -1},
    ],
    ids=["max_s-fraction", "max_s-bool", "max_s-str", "budget-str", "budget-bool",
         "budget-float", "budget-negative"],
)
def test_bounds_must_be_integers(kwargs):
    with pytest.raises(ValueError):
        list(enumerate_cycles(delta_n(4), **kwargs))
    if "budget" in kwargs:
        with pytest.raises(ValueError):
            find_special_odd_cycle(delta_n(4), budget=kwargs["budget"])


def test_integer_bounds_are_kept():
    short = list(enumerate_cycles(delta_n(4), max_s=3))
    assert len(short) == 70 and max(c.s for c in short) == 3
    assert len(list(enumerate_cycles(delta_n(4), max_s=0))) == 0
    assert find_special_odd_cycle(delta_n(4), budget=None) is not None
    assert find_special_odd_cycle(new_complex([{1, 2}]), budget=0) is None


# (only_special, odd_only, total yields, sha256 of json.dumps of every
# complex's yields as [vertices, facets] lists); recorded before the search
# kept its path state in the vertex set alone
PINNED_YIELDS = [
    (False, False, 3976, "11b36e99fa9fbe2924fe00805bb5b2fd847571293c768cd64d3c65958bc901dd"),
    (False, True, 2103, "fd82af8cda0e571c9e964dbbb5a98ff0bd3b8ced373d4d220a0291b38ee6b501"),
    (True, False, 706, "4475390edc501f5a14327eaf26681b8d23f55e8c1ac14d07822403c757a8b637"),
    (True, True, 116, "2e4ab9063423df88e227d07663b621cd195278d14d470a0c902238ed83acefda"),
]


@pytest.fixture(scope="module")
def yield_corpus(quasi_tree_corpus, small_complex_corpus):
    extra = [delta_n(3), delta_n(4), delta_n(5), double_fan()]
    return [*quasi_tree_corpus, *small_complex_corpus, *extra]


@pytest.mark.parametrize(
    "only_special, odd_only, count, digest",
    PINNED_YIELDS,
    ids=[f"special{int(s)}-odd{int(o)}" for s, o, *_ in PINNED_YIELDS],
)
def test_enumeration_yields_are_pinned(yield_corpus, only_special, odd_only, count, digest):
    assert len(yield_corpus) == 712
    assert _yields(yield_corpus, only_special, odd_only) == (count, digest)


def _yields(corpus, only_special, odd_only):
    """(total yields, sha256 of json.dumps of the per-complex yield lists)."""
    listed = [
        [[list(c.vertices), list(c.facets)] for c in enumerate_cycles(
            cx, only_special=only_special, odd_only=odd_only
        )]
        for cx in corpus
    ]
    return sum(map(len, listed)), hashlib.sha256(json.dumps(listed).encode()).hexdigest()


def test_special_odd_yields_match_the_unpruned_search(yield_corpus):
    for cx in yield_corpus:
        got = [tuple(c) for c in enumerate_cycles(cx, only_special=True, odd_only=True)]
        assert got == list(oracle_enumerate_cycles(cx, only_special=True, odd_only=True))


def test_first_cycles_match_the_unpruned_search_on_the_check_universe(universe):
    for key, cx in universe:
        want = next(oracle_enumerate_cycles(cx, only_special=True, odd_only=True), None)
        got = find_special_odd_cycle(cx)
        assert (None if got is None else tuple(got)) == want, key


def _finishes(cx, budget, **modes):
    try:
        for _ in enumerate_cycles(cx, budget=budget, **modes):
            pass
    except BudgetExceededError:
        return False
    return True


# (name, complex, special-odd nodes, all-cycle nodes or None where too many);
# the special-odd column counts the search with its parity prune
PINNED_NODES = [
    ("delta3", delta_n(3), 7, 15),
    ("delta4", delta_n(4), 20, 162),
    ("fan", double_fan(), 3, 20),
    ("ring5", satellite_ring(5), 13, 83),
    ("ring6", satellite_ring(6), 6, 161),
    ("bipartite4", bipartite_satellite_tree(4, 4), 8, None),
    ("bipartite5", bipartite_satellite_tree(5, 5), 10, None),
]


@pytest.mark.parametrize(
    "cx, special_odd, every",
    [row[1:] for row in PINNED_NODES],
    ids=[row[0] for row in PINNED_NODES],
)
def test_node_counts_are_pinned(cx, special_odd, every):
    # a budget of N expansions finishes the search and N - 1 runs out
    for nodes, modes in (
        (special_odd, {"only_special": True, "odd_only": True}),
        (every, {}),
    ):
        if nodes is not None:
            assert _finishes(cx, nodes, **modes)
            assert not _finishes(cx, nodes - 1, **modes)


def _views(cx):
    # every smd view, the full selection included: sparse labels, view-local
    # positions and incidence
    for r in range(1, len(cx.facet_ids) + 1):
        for ids in itertools.combinations(cx.facet_ids, r):
            yield smd(cx, ids)


@pytest.fixture(scope="module")
def view_corpus():
    roots = (delta_n(3), delta_n(4), double_fan(), satellite_ring(5))
    return [view for cx in roots for view in _views(cx)]


# as PINNED_YIELDS, over view_corpus; recorded from the search that keyed
# its facets and masks by label
PINNED_VIEW_YIELDS = [
    (False, False, 696, "bac15ae941937e367dc8caceffa147404f42b58a8c2c361a8209912b2e1115e3"),
    (False, True, 284, "f0060a3cfe5efa096f876f80da8a0e9cc3923eb89e30da7a169fa8d0f7b44141"),
    (True, False, 304, "57d2b9ccfefb7660dc79ffd3fd3722740de144dc9fcb76496245b893880e5954"),
    (True, True, 20, "bc134f72550cbb846779c6aea5755c75e9d518cef7cf740777c29dc9d2ba4f2a"),
]


@pytest.mark.parametrize(
    "only_special, odd_only, count, digest",
    PINNED_VIEW_YIELDS,
    ids=[f"special{int(s)}-odd{int(o)}" for s, o, *_ in PINNED_VIEW_YIELDS],
)
def test_enumeration_yields_on_smd_views_are_pinned(
    view_corpus, only_special, odd_only, count, digest
):
    assert len(view_corpus) == 140
    assert _yields(view_corpus, only_special, odd_only) == (count, digest)


def test_node_counts_on_smd_views_are_pinned(view_corpus):
    # per view, the smallest budget that finishes the special-odd search
    modes = {"only_special": True, "odd_only": True}
    nodes = []
    for view in view_corpus:
        n = 0
        while not _finishes(view, n, **modes):
            n += 1
        nodes.append(n)
    assert (sum(nodes), max(nodes)) == (327, 20)
    assert hashlib.sha256(json.dumps(nodes).encode()).hexdigest() == (
        "866d44903f143e0e13e43a40159f3d2a07b7d3c98612ec2b9fd479163895e40d"
    )


def test_satellite_families_are_quasi_trees_with_known_verdicts():
    for cx in (satellite_ring(5), satellite_ring(6), bipartite_satellite_tree(4, 4)):
        assert is_quasi_tree(cx)
    assert find_special_odd_cycle(satellite_ring(5)).vertices == (1, 2, 3, 4, 5)
    assert find_special_odd_cycle(satellite_ring(6)) is None
    assert find_special_odd_cycle(bipartite_satellite_tree(4, 4)) is None


# --- families across the engine's domain, each under a small node budget -----

BUDGET = 10**4


@pytest.mark.parametrize("p", range(1, 8))
def test_bipartite_satellite_trees_have_no_special_odd_cycle(p):
    for q in range(2 if p == 1 else 1, 8):  # p = q = 1 is no antichain
        cx = bipartite_satellite_tree(p, q)
        assert is_quasi_tree(cx)
        assert find_special_odd_cycle(cx, budget=BUDGET) is None


@pytest.mark.parametrize("r", range(3, 32))
def test_satellite_rings_close_exactly_when_odd(r):
    cyc = find_special_odd_cycle(satellite_ring(r), budget=BUDGET)
    if r % 2:
        assert cyc.vertices == tuple(range(1, r + 1))
    else:
        assert cyc is None


def test_delta_family_has_a_special_triangle():
    for n in range(3, 33):
        cx = delta_n(n)
        cyc = find_special_odd_cycle(cx, budget=BUDGET)
        assert cyc.s == 3 and is_special_cycle(cx, cyc), n


def test_paired_satellite_trees_answer_or_run_out():
    # each satellite holds three candidates, so the prune keeps both
    # parities: the search may run out of budget, but never finds a cycle
    for p, c in ((2, 2), (3, 2), (2, 3)):
        assert not oracle_special_odd_cycle_exists(paired_satellite_tree(p, c))
    answered = []
    for p, c in ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6)):
        cx = paired_satellite_tree(p, c)
        assert is_quasi_tree(cx)
        try:
            assert find_special_odd_cycle(cx, budget=BUDGET) is None
        except BudgetExceededError:
            continue
        answered.append(p)
    assert answered == [2, 3, 4]
