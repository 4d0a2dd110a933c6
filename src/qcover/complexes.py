"""Facet-presented simplicial complexes and their facet selections.

A complex is stored through its facets only (the inclusion-maximal faces),
as an antichain of vertex sets on dense labels 1..n.  Facets are kept both
as frozensets and as bit masks, so intersection tests cost one AND; the
engine caps n at 64 labels, which covers desk scale.

Facet ids are 1-based positions in the canonical facet order (lexicographic
on the sorted vertex lists).  Identical facet collections therefore get
identical ids no matter how the input was ordered, which keeps every report
and witness reproducible.

One type serves both the validated input and every subcomplex generated by
a facet subset: a :class:`SimplicialComplex` is a selection of facet ids
from a root complex together with the vertex labels those facets use (its
active universe).  A root selects all of its own facets; :func:`smd`
selects fewer, keeping the root's ids and labels, so results on a
subcomplex line up with results on the root.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import (
    AntichainViolationError,
    DuplicateFacetError,
    EmptyFacetError,
    EmptySelectionError,
    TooManyVerticesError,
    UncoveredVertexError,
    UnknownFacetIdError,
)

MAX_VERTICES = 64


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


class SimplicialComplex:
    """Facet-id selection from a validated root facet antichain.

    ``parent`` is the root complex the ids index into (None on a root,
    which selects all of its facets), ``vertex_count`` is the root's label
    range 1..n, and ``facets``/``masks`` list the selected facets in
    ``facet_ids`` order.  ``active_vertices`` are the labels the selected
    facets use, ascending.

    Instances are immutable after construction and safe to share between
    threads.  Construct a root via :func:`new_complex` (or directly; the
    constructor performs the same validation) and a subcomplex via
    :func:`smd`.
    """

    __slots__ = (
        "parent",
        "vertex_count",
        "facet_ids",
        "facets",
        "masks",
        "active_vertices",
        "_id_mask",
    )

    def __init__(self, facets: Iterable[Iterable[int]]):
        raw = list(facets)
        if not raw:
            raise EmptySelectionError("a complex needs at least one facet")
        cleaned: list[frozenset[int]] = []
        seen: set[frozenset[int]] = set()
        for idx, f in enumerate(raw):
            fs = frozenset(f)
            if not fs:
                raise EmptyFacetError(f"facet #{idx + 1} is empty")
            for v in fs:
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    raise ValueError(
                        f"facet #{idx + 1} contains {v!r}; vertex labels must be "
                        "positive integers"
                    )
            if fs in seen:
                raise DuplicateFacetError(
                    f"facet {sorted(fs)} appears more than once"
                )
            seen.add(fs)
            cleaned.append(fs)
        for i, f in enumerate(cleaned):
            for g in cleaned[i + 1:]:
                if f < g:
                    raise AntichainViolationError(f, g)
                if g < f:
                    raise AntichainViolationError(g, f)

        n = max(max(f) for f in cleaned)
        if n > MAX_VERTICES:
            raise TooManyVerticesError(
                f"{n} vertex labels; the engine supports at most {MAX_VERTICES}"
            )
        covered = frozenset().union(*cleaned)
        missing = [v for v in range(1, n + 1) if v not in covered]
        if missing:
            raise UncoveredVertexError(
                f"labels {missing} belong to no facet (labels must be dense 1..n)"
            )

        facets = tuple(sorted(cleaned, key=lambda f: tuple(sorted(f))))
        self._select(None, n, tuple(range(1, len(facets) + 1)), facets)

    def _select(
        self,
        parent: Optional[SimplicialComplex],
        n: int,
        ids: tuple[int, ...],
        facets: tuple[frozenset[int], ...],
    ) -> None:
        self.parent = parent
        self.vertex_count = n
        self.facet_ids = ids
        self.facets = facets
        self.masks = tuple(_mask_of(f) for f in facets)
        used = 0
        for m in self.masks:
            used |= m
        self.active_vertices = tuple(
            v for v in range(1, n + 1) if used >> (v - 1) & 1
        )
        self._id_mask = _mask_of(ids)

    # -- ids and lookups ------------------------------------------------

    def _check_id(self, fid: int) -> None:
        if fid < 1 or not self._id_mask >> (fid - 1) & 1:
            raise UnknownFacetIdError(f"facet id {fid} is not in the complex")

    def facet(self, fid: int) -> frozenset[int]:
        self._check_id(fid)
        return (self.parent or self).facets[fid - 1]

    def mask(self, fid: int) -> int:
        self._check_id(fid)
        return (self.parent or self).masks[fid - 1]

    # -- basic operations --------------------------------------------------

    def dimension(self) -> int:
        """Largest facet cardinality minus one."""
        return max(len(f) for f in self.facets) - 1

    def is_connected(self) -> bool:
        """Connectivity of the facet-overlap graph (edges where F and H meet)."""
        reach, rest = self.masks[0], self.masks[1:]
        while rest:
            apart = []
            for m in rest:
                if m & reach:
                    reach |= m
                else:
                    apart.append(m)
            if len(apart) == len(rest):
                return False
            rest = apart
        return True

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.facet_ids == other.facet_ids
            and (self.parent or self).facets == (other.parent or other).facets
        )

    def __hash__(self) -> int:
        return hash(((self.parent or self).facets, self.facet_ids))

    def __repr__(self) -> str:
        shown = [sorted(f) for f in self.facets]
        return f"SimplicialComplex(n={self.vertex_count}, facets={shown})"


def new_complex(facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Validate and canonicalize a facet list into a complex.

    Raises EmptyFacetError, DuplicateFacetError, AntichainViolationError,
    UncoveredVertexError or TooManyVerticesError on bad input.
    """
    return SimplicialComplex(facets)


def smd(cx: SimplicialComplex, facet_ids: Iterable[int]) -> SimplicialComplex:
    """Subcomplex generated by a facet-id subset (a maximal-dimension view).

    The ids must belong to ``cx``; the result always roots at the original
    complex, so ids stay stable under nesting.
    """
    ids = tuple(sorted(set(facet_ids)))
    if not ids:
        raise EmptySelectionError("facet selection must be nonempty")
    for fid in ids:
        cx._check_id(fid)
    root = cx.parent or cx
    view = object.__new__(SimplicialComplex)
    view._select(
        root, root.vertex_count, ids, tuple(root.facets[i - 1] for i in ids)
    )
    return view
