import re

import pytest

from qcover import (
    GeneratorSeed,
    NTooSmallError,
    TooManyVerticesError,
    find_special_odd_cycle,
    is_cycle,
    is_quasi_tree,
    is_special_cycle,
    leaf_order,
    random_branch_rule,
    validate_leaf_order,
)
from qcover._pcg64 import PCG64
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
    with pytest.raises(NTooSmallError) as err:
        delta_n(-(10**5000))
    assert str(err.value) == (
        "the family needs n >= 3, got <16610-bit negative integer>"
    )


@pytest.mark.parametrize("n", [3.0, "3", None, True])
def test_delta_needs_an_integer(n):
    with pytest.raises(ValueError, match="^n must be an integer$"):
        delta_n(n)


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


@pytest.mark.parametrize(
    "fields, name",
    [
        ((1, 2.5, 3), "num_facets"),
        ((1, 3, 2.5), "max_facet_size"),
        ((True, 3, 3), "seed"),
        ((1, True, 3), "num_facets"),
        ((1, 3, True), "max_facet_size"),
        ((1, "3", 3), "num_facets"),
        ((1, 3, None), "max_facet_size"),
    ],
)
def test_generator_seed_fields_must_be_integers(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        GeneratorSeed(*fields)


def test_generator_seed_keeps_its_range_messages():
    with pytest.raises(ValueError, match="^num_facets must be at least 1$"):
        GeneratorSeed(0, 0, 3)
    with pytest.raises(ValueError, match="^max_facet_size must be at least 1$"):
        GeneratorSeed(0, 1, 0)
    with pytest.raises(ValueError, match="^size-1 facets cannot attach"):
        GeneratorSeed(0, 2, 1)
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got True$"):
        GeneratorSeed(True, 3, 3)
    for bad in (True, 2.0, "0", -1):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
            random_branch_rule(bad)


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


# --- the pure-Python PCG64 port against numpy ---------------------------------

PORT_SEEDS = [*range(64), 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 1, 2**130 + 12345]


@pytest.fixture(scope="module")
def np():
    import numpy

    return numpy


def numpy_generator(np, seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", PORT_SEEDS)
def test_port_next64_is_numpys_raw_stream(np, seed):
    port = PCG64(seed)
    want = np.random.PCG64(seed).random_raw(40).tolist()
    assert [port.next64() for _ in range(40)] == want


@pytest.mark.parametrize("seed", PORT_SEEDS[::6])
def test_port_integers_match_numpy(np, seed):
    # the generator draws from lo..hi-1 with lo in {0, 1, 2}; a one-value range
    # (max_facet_size 1, a single host, t_max 1) draws nothing on either side.
    # Widths just past 2**31 and 3 * 2**30 reject a quarter to a half of the
    # first draws, so Lemire's redraw loop runs too
    port, ref = PCG64(seed), numpy_generator(np, seed)
    widths = (*range(1, 66), 1000, 2**31 + 1, 3 * 2**30, 2**32)
    ranges = [(lo, lo + w) for lo in (0, 1, 2) for w in widths]
    got = [port.integers(lo, hi) for lo, hi in ranges for _ in range(3)]
    assert got == [int(ref.integers(lo, hi)) for lo, hi in ranges for _ in range(3)]
    assert port.next64() == int(ref.bit_generator.random_raw())


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
def test_port_choice_matches_numpy(np, seed):
    port, ref = PCG64(seed), numpy_generator(np, seed)
    pairs = [(pop, size) for pop in range(1, 65) for size in range(1, pop + 1)]
    got = [port.choice(pop, size) for pop, size in pairs]
    assert got == [ref.choice(pop, size=size, replace=False).tolist() for pop, size in pairs]
    assert port.next64() == int(ref.bit_generator.random_raw())


def test_port_refuses_what_it_does_not_reproduce():
    port = PCG64(5)
    with pytest.raises(ValueError, match="pop <= 10000"):
        port.choice(10001, 1)  # numpy takes a tail-shuffle branch past 10000
    with pytest.raises(ValueError):
        port.choice(3, 4)
    with pytest.raises(ValueError):
        port.integers(2, 2)
    with pytest.raises(ValueError):
        port.integers(0, 2**32 + 1)
    assert port.next64() == PCG64(5).next64()  # none of the refusals drew


def numpy_quasi_tree_facets(np, g):
    """random_quasi_tree's construction with numpy's generator, facets as drawn."""
    rng = numpy_generator(np, g.seed)
    lo = min(2, g.max_facet_size)
    first = int(rng.integers(lo, g.max_facet_size + 1))
    facets = [set(range(1, first + 1))]
    next_label = first + 1
    while len(facets) < g.num_facets:
        host = sorted(facets[int(rng.integers(0, len(facets)))])
        size = int(rng.integers(lo, g.max_facet_size + 1))
        t = int(rng.integers(1, min(len(host) - 1, size - 1) + 1))
        picked = rng.choice(len(host), size=t, replace=False)
        facets.append({host[i] for i in picked.tolist()} | set(range(next_label, next_label + size - t)))
        next_label += size - t
    return facets


def test_random_quasi_trees_match_numpy_on_the_check_universe(np):
    for s in range(3000):
        g = GeneratorSeed(s, 6 + s % 30, 2 + s % 7)
        want = sorted(sorted(f) for f in numpy_quasi_tree_facets(np, g))
        if max(max(f) for f in want) > 64:
            with pytest.raises(TooManyVerticesError):
                random_quasi_tree(g)
        else:
            assert sorted(sorted(f) for f in random_quasi_tree(g).facets) == want, s


def test_random_quasi_tree_stops_once_its_labels_pass_64():
    with pytest.raises(TooManyVerticesError) as err:
        random_quasi_tree(GeneratorSeed(19, 25, 7))
    assert str(err.value) == (
        "the draw reached 68 vertex labels at facet 23 of 25; "
        "the engine supports at most 64"
    )
    with pytest.raises(TooManyVerticesError, match="reached 86 vertex labels at facet 1 of 5"):
        random_quasi_tree(GeneratorSeed(0, 5, 100))
    assert random_quasi_tree(GeneratorSeed(1, 1, 100)).vertex_count == 48


def test_generator_seed_refuses_a_size_range_past_the_stream(np):
    # sizes are drawn from 2..max_facet_size, and the stream draws from at
    # most 2**32 values.  The widest range still draws as numpy does, and
    # the refusals quote the value cut short
    first = int(numpy_generator(np, 0).integers(2, 2**32 + 2))
    with pytest.raises(TooManyVerticesError, match=f"^the draw reached {first} vertex labels at facet 1 of 2;"):
        random_quasi_tree(GeneratorSeed(0, 2, 2**32 + 1))
    message = "^max_facet_size must be at most 2\\*\\*32 \\+ 1, the random stream's draw range, got "
    for bad, shown in [(2**32 + 2, "4294967298"), (10**4000 - 1, "99999999999999999999... (4000 characters)")]:
        with pytest.raises(ValueError, match=message + re.escape(shown) + "$"):
            GeneratorSeed(0, 5, bad)
    with pytest.raises(TooManyVerticesError) as err:
        random_quasi_tree(GeneratorSeed(0, 10**5000, 4))
    assert str(err.value) == (
        "the draw reached 67 vertex labels at facet 33 of <16610-bit integer>; "
        "the engine supports at most 64"
    )


def test_oversized_families_are_refused_before_they_are_built():
    # delta_n(n) would build n facets of n labels, and the draw one facet of
    # up to max_facet_size labels, before the 64-label cap refused them
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(TooManyVerticesError) as err:
            delta_n(1000)
        assert str(err.value) == "2000 vertex labels; the engine supports at most 64"
        with pytest.raises(TooManyVerticesError, match="at facet 1 of 2;"):
            random_quasi_tree(GeneratorSeed(0, 2, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(TooManyVerticesError, match="^66 vertex labels"):
        delta_n(33)
    assert delta_n(32).vertex_count == 64


@pytest.mark.parametrize("seed", [0, 1, 99, 2**40])
def test_random_branch_rule_matches_numpy(np, seed):
    rule, ref = random_branch_rule(seed), numpy_generator(np, seed)
    branches = [tuple(range(10, 10 + n)) for n in (1, 2, 3, 5, 8, 13) for _ in range(20)]
    got = [rule(0, b) for b in branches]
    assert got == [b[int(ref.integers(0, len(b)))] for b in branches]
