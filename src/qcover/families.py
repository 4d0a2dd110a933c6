"""Named example complexes and a seed-stable random quasi-tree generator."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .complexes import MAX_VERTICES, SimplicialComplex, _too_many_labels, new_complex
from .errors import NTooSmallError, TooManyVerticesError, check_order, check_seed, echo


def delta_n(n: int) -> SimplicialComplex:
    """Quasi-tree on 2n vertices: a central facet {1..n} and n satellites.

    Satellite i is the center with vertex i swapped for the private tip
    n+i.  Defined for n >= 3; each satellite pair shares n-2 >= 1 center
    vertices, so any three satellites close a special odd cycle and the
    family is never standard graded.  Its maximal generator degree is n-1,
    realized by weight 1 on every center vertex.
    """
    n = check_order(n, None, "n")
    if n < 3:
        raise NTooSmallError(f"the family needs n >= 3, got {echo(n)}")
    if 2 * n > MAX_VERTICES:  # refused before its n facets of n labels are built
        raise _too_many_labels(2 * n)
    center = set(range(1, n + 1))
    facets = [center]
    for i in range(1, n + 1):
        facets.append((center - {i}) | {n + i})
    return new_complex(facets)


def double_fan() -> SimplicialComplex:
    """Two triangle fans glued to one central triangle; standard graded.

    Facets {1,2,3}, {1,2,4}, {1,2,5}, {2,3,6}, {2,3,7}: three triangles
    share the edge {1,2} and two share {2,3}.  A handy positive example —
    it is a quasi-tree without a special odd cycle.
    """
    return new_complex([{1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {2, 3, 6}, {2, 3, 7}])


class _GeneratorSeedFields(NamedTuple):
    """GeneratorSeed's fields; a NamedTuple body may not define ``__new__``."""

    seed: int
    num_facets: int
    max_facet_size: int


class GeneratorSeed(_GeneratorSeedFields):
    """Deterministic parameters for :func:`random_quasi_tree`, checked when built."""

    __slots__ = ()

    def __new__(cls, seed: int, num_facets: int, max_facet_size: int) -> GeneratorSeed:
        seed = check_seed(seed)
        num_facets = check_order(num_facets, 1, "num_facets")
        max_facet_size = check_order(max_facet_size, 1, "max_facet_size")
        if max_facet_size > 2**32 + 1:  # sizes are drawn from 2..max_facet_size
            raise ValueError(
                "max_facet_size must be at most 2**32 + 1, the random stream's "
                f"draw range, got {echo(max_facet_size)}"
            )
        if num_facets > 1 and max_facet_size < 2:
            raise ValueError(
                "size-1 facets cannot attach to each other; "
                "num_facets > 1 needs max_facet_size >= 2"
            )
        return super().__new__(cls, seed, num_facets, max_facet_size)

    @classmethod
    def _make(cls, fields: Iterable[int]) -> GeneratorSeed:
        return cls(*fields)  # _replace builds through _make, so it checks too


def random_quasi_tree(g: GeneratorSeed) -> SimplicialComplex:
    """Random quasi-tree, identical for identical seeds.

    The draws are numpy's ``Generator(PCG64(seed))`` stream, reproduced in
    pure Python by :mod:`qcover._pcg64` and checked against numpy in the
    tests, so outputs are stable across releases and need no numpy.
    Construction attaches one facet at a time: the new facet intersects
    the existing complex inside a single existing facet (making it a leaf
    at attach time) and brings at least one fresh vertex (keeping the
    antichain).  The output is a quasi-tree by construction,
    and every facet size is drawn uniformly from 2..max_facet_size.
    A draw stops with TooManyVerticesError as soon as its labels pass 64.
    """
    from ._pcg64 import PCG64

    rng = PCG64(g.seed)
    lo = min(2, g.max_facet_size)

    def draw_size() -> int:
        return rng.integers(lo, g.max_facet_size + 1)

    facets: list[set[int]] = []
    inter: set[int] = set()
    fresh = draw_size()
    next_label = fresh + 1
    # a drawn facet is built only once its labels are known to fit
    while next_label - 1 <= MAX_VERTICES:
        facets.append(inter | set(range(next_label - fresh, next_label)))
        if len(facets) == g.num_facets:
            return new_complex(facets)
        host = facets[rng.integers(0, len(facets))]
        size = draw_size()
        t_max = min(len(host) - 1, size - 1)
        t = rng.integers(1, t_max + 1)
        host_sorted = sorted(host)
        inter = {host_sorted[i] for i in rng.choice(len(host_sorted), t)}
        fresh = size - t
        next_label += fresh
    raise TooManyVerticesError(
        f"the draw reached {next_label - 1} vertex labels at facet {len(facets) + 1} "
        f"of {echo(g.num_facets)}; the engine supports at most {MAX_VERTICES}"
    )
