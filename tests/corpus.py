"""Seeded corpora shared by the property and acceptance suites.

All scans are deterministic: seeds are consumed in order and acceptance
depends only on the generated complex, so every run sees the same corpus.
"""

from __future__ import annotations

import itertools

from qcover import (
    GeneratorSeed,
    TooManyVerticesError,
    find_special_odd_cycle,
    new_complex,
    random_quasi_tree,
)
from qcover._pcg64 import PCG64
from qcover.families import delta_n

# draws of GeneratorSeed(s, 6 + s % 30, 2 + s % 7) with 30 to 64 vertices
# and 12 to 35 facets, the upper part of the domain the engine accepts
LARGE_SEEDS = (6, 18, 24, 28, 29, 58, 75, 109, 119, 143, 149, 194)


def build_quasi_tree_corpus(
    count=200, max_facets=6, max_vertices=9, max_facet_size=4, min_with_cycle=8
):
    """Random quasi-trees within the size box, with both verdicts present.

    Complexes containing a special odd cycle are rare under leaf-attachment
    generation (well under 1%), so a second seed stream oversamples them
    until ``min_with_cycle`` positives are in; the equivalence tests still
    run both decision routes on every instance.
    """
    out = []
    for seed in itertools.count():
        num_facets = 1 + seed % max_facets
        cx = random_quasi_tree(GeneratorSeed(seed, num_facets, max_facet_size))
        if cx.vertex_count <= max_vertices:
            out.append(cx)
        if len(out) == count:
            break
    have = sum(1 for cx in out if find_special_odd_cycle(cx) is not None)
    for seed in itertools.count(10_000):
        if have >= min_with_cycle:
            break
        if seed >= 200_000:
            raise RuntimeError("seed scan failed to find cycle-bearing quasi-trees")
        cx = random_quasi_tree(GeneratorSeed(seed, 4 + seed % 3, max_facet_size))
        if cx.vertex_count <= max_vertices and find_special_odd_cycle(cx) is not None:
            out.append(cx)
            have += 1
    return out


def build_small_complex_corpus(count=500, max_facets=5, max_pool=7):
    """Arbitrary small facet antichains, quasi-forests and not.

    Random subsets of a small vertex pool, reduced to their maximal members
    and relabelled densely.  The draws are numpy's ``Generator(PCG64(seed))``
    stream through qcover's pure-Python port.
    """
    out = []
    for seed in itertools.count():
        rng = PCG64(seed)
        pool = rng.integers(3, max_pool + 1)
        m = rng.integers(1, max_facets + 1)
        cand = []
        for _ in range(m):
            size = rng.integers(1, min(4, pool) + 1)
            cand.append(frozenset(v + 1 for v in rng.choice(pool, size)))
        maximal = [f for f in set(cand) if not any(f < g for g in cand)]
        used = sorted(set().union(*maximal))
        relabel = {v: i + 1 for i, v in enumerate(used)}
        out.append(new_complex([{relabel[v] for v in f} for f in maximal]))
        if len(out) == count:
            return out


def bipartite_satellite_tree(p, q):
    """Central facet P ∪ Q plus one satellite {x, y, private} per x in P, y in Q.

    P = 1..p, Q = p+1..p+q, and the private vertices follow in row order.
    A standard-graded quasi-tree whose satellites form a bipartite graph, so
    the cycle search has many even paths to try and no special odd cycle.
    """
    centre = range(1, p + q + 1)
    pairs = itertools.product(range(1, p + 1), range(p + 1, p + q + 1))
    satellites = [{x, y, p + q + i} for i, (x, y) in enumerate(pairs, 1)]
    return new_complex([set(centre), *satellites])


def satellite_ring(r):
    """Centre {1..r} plus satellites {i, i mod r + 1, r + i} for i = 1..r.

    The satellites close a ring of length r around the centre, which is a
    special odd cycle exactly when r is odd.
    """
    return new_complex(
        [set(range(1, r + 1))] + [{i, i % r + 1, r + i} for i in range(1, r + 1)]
    )


def paired_satellite_tree(p, c):
    """Central facet P ∪ Q plus one satellite {x, y, y', private} per x in P and pair.

    P = 1..p and Q = p+1..p+2c, split into the c pairs {p+2j+1, p+2j+2}; the
    private vertices follow in row order.  A standard-graded quasi-tree: a
    facet through one vertex of a pair holds the other too, so a special
    cycle never steps inside a pair and stays bipartite between P and Q.
    Each satellite holds three cycle candidates, a triangle in the
    2-section, which leaves the cycle search's parity prune both parities.
    """
    n = p + 2 * c
    rows = itertools.product(range(1, p + 1), range(c))
    satellites = [
        {x, p + 2 * j + 1, p + 2 * j + 2, n + i} for i, (x, j) in enumerate(rows, 1)
    ]
    return new_complex([set(range(1, n + 1)), *satellites])


def check_universe():
    """The quasi-tree inputs of the check benchmark, as (name, complex) pairs.

    rqt:s is GeneratorSeed(s, 6 + s % 30, 2 + s % 7) for s < 3000, leaving
    out the draws the generator rejects for passing 64 vertices, and
    delta:n is delta_n(n) for n in 3..32.
    """
    out = []
    for s in range(3000):
        try:
            cx = random_quasi_tree(GeneratorSeed(s, 6 + s % 30, 2 + s % 7))
        except TooManyVerticesError:
            continue
        out.append((f"rqt:{s}", cx))
    return out + [(f"delta:{n}", delta_n(n)) for n in range(3, 33)]
