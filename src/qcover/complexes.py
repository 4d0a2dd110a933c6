"""Facet-presented simplicial complexes and their facet selections.

A complex is stored through its facets only (the inclusion-maximal faces),
as an antichain of vertex sets on dense labels 1..n.  Facets are kept as
frozensets, as ascending label tuples (``rows``) and as bit masks, so
intersection tests cost one AND; the engine caps n at 64 labels, which
covers desk scale.  The vertex-facet incidence (``positions`` and
``facets_at``) is built with the masks, so the cover walks and the cycle
search share it.

Facet ids are 1-based positions in the canonical facet order (lexicographic
on the sorted vertex lists).  Identical facet collections therefore get
identical ids no matter how the input was ordered, which keeps every report
and witness reproducible.

A root is built in one linear pass.  Each facet's labels are sorted once,
and that tuple serves as its canonical sort key, its row, and the source of
its mask and positions; the writers in :mod:`qcover.fileio` print the rows.
The antichain test ANDs, over each facet's labels, the bit sets of the
facets through that label: a bit besides the facet's own marks a facet
containing it.  Only when that finds a nested pair, or a label exceeds 64,
does the constructor compare facets pairwise in input order, so the pair it
reports is the first one in the input.

One type serves both the validated input and every subcomplex generated by
a facet subset: a :class:`SimplicialComplex` is a selection of facet ids
from a root complex together with the vertex labels those facets use (its
active universe).  A root selects all of its own facets; :func:`smd`
selects fewer, keeping the root's ids and labels, so results on a
subcomplex line up with results on the root.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import and_, itemgetter, or_
from typing import Iterable

from .errors import (
    AntichainViolationError,
    DuplicateFacetError,
    EmptyFacetError,
    EmptySelectionError,
    TooManyVerticesError,
    UncoveredVertexError,
    UnknownFacetIdError,
    check_order,
    echo,
    echo_each,
)

MAX_VERTICES = 64
# _POSITION[v] = v - 1 and _BIT[v] = 1 << (v - 1) for the labels 1..64
_POSITION = tuple(range(-1, MAX_VERTICES))
_BIT = (0, *(1 << p for p in range(MAX_VERTICES)))
_INT = {int}
_LAST = itemgetter(-1)


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _check_facets(facets: list[frozenset[int]]) -> None:
    """Raise the first error of the facets in input order, if there is one.

    Each facet in turn may be empty, hold a label that is not a positive
    int (a bool is not one), or repeat an earlier facet.
    """
    seen: set[frozenset[int]] = set()
    for idx, fs in enumerate(facets):
        if not fs:
            raise EmptyFacetError(f"facet #{idx + 1} is empty")
        for v in fs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(
                    f"facet #{idx + 1} contains {echo(v)}; vertex labels must be "
                    "positive integers"
                )
        if fs in seen:
            raise DuplicateFacetError(
                f"facet {echo_each(sorted(fs))} appears more than once"
            )
        seen.add(fs)


def _raise_first_nested(facets: list[frozenset[int]]) -> None:
    """Raise AntichainViolationError for the first nested pair in input order."""
    for i, f in enumerate(facets):
        for g in facets[i + 1:]:
            if f < g:
                raise AntichainViolationError(f, g)
            if g < f:
                raise AntichainViolationError(g, f)


def _too_many_labels(n: int) -> TooManyVerticesError:
    """The error for a complex whose largest label n is past the cap."""
    return TooManyVerticesError(
        f"{echo(n)} vertex labels; the engine supports at most {MAX_VERTICES}"
    )


class SimplicialComplex:
    """Facet-id selection from a validated root facet antichain.

    ``parent`` is the root complex the ids index into (None on a root,
    which selects all of its facets), ``vertex_count`` is the root's label
    range 1..n, and ``facets``/``rows``/``masks`` list the selected facets
    in ``facet_ids`` order, as frozensets, ascending label tuples and bit
    masks.  ``active_vertices`` are the labels the selected facets use,
    ascending.  ``positions[j]`` lists the positions in ``active_vertices``
    of the vertices of ``facets[j]`` and ``facets_at[p]`` the indices j of
    the facets through ``active_vertices[p]``, both ascending and, on an
    :func:`smd` view, local to the view.

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
        "rows",
        "masks",
        "active_vertices",
        "positions",
        "facets_at",
        "_id_mask",
    )

    def __init__(self, facets: Iterable[Iterable[int]]):
        raw = list(facets)
        if not raw:
            raise EmptySelectionError("a complex needs at least one facet")
        cleaned: list[frozenset[int]] = []
        try:
            cleaned.extend(map(frozenset, raw))
        except Exception:
            # whatever iterating or hashing a facet raised comes after the
            # errors of the facets before it
            _check_facets(cleaned)
            raise
        # the common input, nonempty distinct facets of plain ints, in C loops
        if (
            not all(cleaned)
            or len(set(cleaned)) < len(cleaned)
            or set(map(type, chain.from_iterable(cleaned))) != _INT
        ):
            _check_facets(cleaned)

        # each facet's labels sorted once: the canonical sort key and its row
        rows, ordered = zip(*sorted(zip(map(tuple, map(sorted, cleaned)), cleaned)))
        if rows[0][0] < 1:  # the least label
            _check_facets(cleaned)
        n = max(map(_LAST, rows))
        if n > MAX_VERTICES:
            _raise_first_nested(cleaned)
            raise _too_many_labels(n)
        bits = [0] * (n + 1)  # bits[v]: the facets through label v, as a bit set
        at: list[list[int]] = [[] for _ in range(n + 1)]
        masks: list[int] = []
        bit = 1
        for j, row in enumerate(rows):
            m = 0
            for v in row:
                m |= _BIT[v]
                bits[v] |= bit
                at[v].append(j)
            masks.append(m)
            bit <<= 1
        # a facet lies in another iff more facets than itself pass through
        # all of its labels
        through = bits.__getitem__
        bit = 1
        for row in rows:
            if reduce(and_, map(through, row)) != bit:
                _raise_first_nested(cleaned)
            bit <<= 1
        if reduce(or_, masks) != (1 << n) - 1:
            missing = [v for v in range(1, n + 1) if not bits[v]]
            raise UncoveredVertexError(
                f"labels {echo_each(missing)} belong to no facet "
                "(labels must be dense 1..n)"
            )

        self.parent = None
        self.vertex_count = n
        self.facet_ids = tuple(range(1, len(rows) + 1))
        self.facets = ordered
        self.rows = rows
        self.masks = tuple(masks)
        self.active_vertices = tuple(range(1, n + 1))
        position = _POSITION.__getitem__
        self.positions = tuple([tuple(map(position, row)) for row in rows])
        self.facets_at = tuple(map(tuple, at[1:]))
        self._id_mask = (1 << len(rows)) - 1

    def _select(self, root: SimplicialComplex, ids: tuple[int, ...]) -> None:
        """Become the view of ``root`` on the ascending facet ids ``ids``."""
        picked = [i - 1 for i in ids]
        root_positions = [root.positions[i] for i in picked]
        self.parent = root
        self.vertex_count = root.vertex_count
        self.facet_ids = ids
        self.facets = tuple(map(root.facets.__getitem__, picked))
        self.rows = tuple(map(root.rows.__getitem__, picked))
        self.masks = tuple(map(root.masks.__getitem__, picked))
        # a root's positions are its labels minus one
        used = sorted(set().union(*root_positions))
        self.active_vertices = tuple([p + 1 for p in used])
        local = dict(zip(used, range(len(used)))).__getitem__
        self.positions = tuple([tuple(map(local, pos)) for pos in root_positions])
        at: list[list[int]] = [[] for _ in used]
        for j, pos in enumerate(self.positions):
            for p in pos:
                at[p].append(j)
        self.facets_at = tuple(map(tuple, at))
        self._id_mask = _mask_of(ids)

    # -- ids and lookups ------------------------------------------------

    def _check_id(self, fid: int) -> int:
        """fid as an int, raising UnknownFacetIdError unless it is one of ours."""
        if fid.__class__ is not int:  # the cycle search's ints skip this
            try:
                fid = check_order(fid, None)
            except ValueError:  # a bool, a float, None, a string, ...
                raise UnknownFacetIdError(
                    f"facet id {echo(fid)} is not an integer"
                ) from None
        if fid < 1 or not self._id_mask >> (fid - 1) & 1:
            raise UnknownFacetIdError(f"facet id {echo(fid)} is not in the complex")
        return fid

    def facet(self, fid: int) -> frozenset[int]:
        return (self.parent or self).facets[self._check_id(fid) - 1]

    def mask(self, fid: int) -> int:
        return (self.parent or self).masks[self._check_id(fid) - 1]

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
        shown = [list(row) for row in self.rows]
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
    ids = tuple(sorted({cx._check_id(fid) for fid in facet_ids}))
    if not ids:
        raise EmptySelectionError("facet selection must be nonempty")
    view = object.__new__(SimplicialComplex)
    view._select(cx.parent or cx, ids)
    return view
