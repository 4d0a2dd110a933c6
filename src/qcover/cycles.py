"""Cycles of facet complexes and the special-odd-cycle search.

A *cycle* is an alternating sequence of distinct vertices and distinct
facets v1,F1,v2,F2,...,vs,Fs,v1 (s >= 2) where vi and v(i+1) lie in Fi.
A cycle is *special* when none of the facets ON THE CYCLE contains more
than two of the cycle's vertices.  The quantifier is deliberate and this
module supports no other reading: facets of the complex that do not occur
in the sequence may contain any number of cycle vertices without spoiling
specialness.  (The stricter all-facets reading would wrongly disqualify
cycles whose vertices happen to span some bystander facet, and those are
exactly the cycles that matter for gradedness.)

The search is exhaustive backtracking over alternating sequences, read
straight off the complex's incidence (``facets_at``, ``positions`` and
``masks``, by facet index), so a call builds no lookup tables.  Its one
state is the path: its vertices, its facets, the position of its end, a
bit mask of its facets' indices, and two vertex bit masks, of the path's
vertices and of its facets' vertices.  Vertices and facets stay distinct
by those masks; under ``only_special`` specialness-so-far is read from
them, since every path facet already holds the two path vertices it
joins: a facet holding two path vertices is not extended through, and a
vertex in a path facet is not added.  A canonical form kills duplicates —
every cycle is generated exactly once, started at its smallest vertex, in
the direction with the smaller (second vertex, first facet) pair (a 2-cycle's
two directions share their second vertex, so there the facets decide).

Searching for special odd cycles alone, as :func:`find_special_odd_cycle`
does, the search enters a longer path only when a parity relaxation
(:func:`_closable`) shows that the path may still close one: a walk from
its end back to its start, through facets that meet the path where a
special closure must, over fresh vertices (candidates above the start, in
no path facet), adding a number of vertices that makes the cycle odd.
Its step facets are the facet masks cut to the candidates once per call,
keeping those with two or more.  Only subtrees without a yield are cut,
so the yields and their order are those of the unpruned search and only
the expansion count falls.  The cut is strong while facets hold at most
two fresh vertices, as in bipartite satellite trees; a facet with three
or more is a triangle in the relaxation, which then reaches both
parities and cuts little.  The search stays worst-case exponential; a
node budget aborts loudly instead of truncating silently.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .complexes import SimplicialComplex
from .errors import (
    BudgetExceededError,
    LengthMismatchError,
    NotACycleError,
    check_order,
    echo,
    echo_each,
)

DEFAULT_CYCLE_BUDGET = 10_000_000


class Cycle(NamedTuple):
    """Alternating vertex/facet cycle; facets are 1-based facet ids."""

    vertices: tuple[int, ...]
    facets: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.vertices)

    def is_odd(self) -> bool:
        return self.s % 2 == 1

    def rotated(self, shift: int) -> "Cycle":
        k = shift % self.s
        return Cycle(*(seq[k:] + seq[:k] for seq in self))

    def reversed_(self) -> "Cycle":
        """Same closed walk in the opposite direction."""
        v = self.vertices
        return Cycle((v[0],) + tuple(reversed(v[1:])), tuple(reversed(self.facets)))

    def to_dict(self) -> dict:
        return {"vertices": list(self.vertices), "facets": list(self.facets)}


def is_cycle(
    cx: SimplicialComplex, vertices: Sequence[int], facets: Sequence[int]
) -> bool:
    """Check the cycle conditions: distinctness and consecutive incidence."""
    verts = list(vertices)
    fids = list(facets)
    if len(verts) != len(fids):
        raise LengthMismatchError(
            f"{len(verts)} vertices vs {len(fids)} facets; lists must pair up"
        )
    s = len(verts)
    if s < 2 or len(set(verts)) != s or len(set(fids)) != s:
        return False
    if not set(verts) <= set(cx.active_vertices):
        return False
    fsets = [cx.facet(fid) for fid in fids]  # raises UnknownFacetIdError for bad ids
    return all({u, v} <= f for u, v, f in zip(verts, verts[1:] + verts[:1], fsets))


def is_special_cycle(cx: SimplicialComplex, cycle: Cycle) -> bool:
    """True when no facet of the cycle contains more than two cycle vertices."""
    if not is_cycle(cx, cycle.vertices, cycle.facets):
        raise NotACycleError(
            f"vertices {echo_each(cycle.vertices)}, facets {echo_each(cycle.facets)}: "
            "not a cycle of the complex"
        )
    vset = set(cycle.vertices)
    return all(len(cx.facet(fid) & vset) <= 2 for fid in cycle.facets)


def _closable(
    masks: tuple[int, ...], steps: tuple[int, ...], first: tuple[int, ...],
    closing: tuple[int, ...], used: int, w_bit: int, start_bit: int, fresh: int,
    odd: bool,
) -> bool:
    """Whether a path ending at w may still close a special odd cycle.

    A relaxation, over vertex bit masks: ``used`` holds the path's vertices,
    ``first`` and ``closing`` index the facets through w and the start in
    ``masks``, ``fresh`` the vertices the path may add and ``odd`` whether
    its length is odd.  ``steps`` are the facets cut to the candidates; the
    path and ``fresh`` hold only candidates, so the cut loses nothing.  A
    facet meeting the path in exactly {w, start} closes an odd path at once.
    Otherwise the remainder leaves w through a facet meeting the path in
    exactly {w}, crosses facets that miss the path, and returns through a
    facet meeting it in exactly {start}; each step goes from a fresh vertex
    to another fresh vertex of its facet.  A breadth-first search over
    (vertex, parity) asks whether such a walk adds a number of vertices of
    the parity that makes the cycle odd.  Every special odd closure of the
    path is such a walk, so a False cuts only subtrees without a yield.
    """
    ends = start_bit | w_bit
    reach = 0
    for j in first:
        g = masks[j]
        inside = g & used
        if inside == w_bit:
            reach |= g & fresh
        elif odd and inside == ends:
            return True
    target = 0
    for j in closing:
        g = masks[j]
        if g & used == start_bit:
            target |= g & fresh
    if not reach or not target:
        return False
    # steps missing the path, cut to its fresh vertices; a step needs two
    live = [g for g in (h & fresh for h in steps if not h & used) if g & (g - 1)]
    # reach holds the walks that added one vertex; an odd path needs an
    # even number of vertices more, an even path an odd number
    seen = [0, 0]
    parity = 1
    want = 0 if odd else 1
    while reach:
        if parity == want and reach & target:
            return True
        seen[parity] |= reach
        nxt = 0
        for g in live:
            hit = g & reach
            if hit:
                # from a lone vertex of g, only the other vertices of g
                nxt |= g if hit & (hit - 1) else g & ~hit
        parity ^= 1
        reach = nxt & ~seen[parity]
    return False


def enumerate_cycles(
    cx: SimplicialComplex,
    max_s: Optional[int] = None,
    only_special: bool = False,
    odd_only: bool = False,
    budget: Optional[int] = None,
) -> Iterator[Cycle]:
    """Yield cycles in canonical form, deterministically ordered.

    Every cycle appears exactly once: the start vertex is its smallest
    vertex and the direction is fixed.  ``only_special`` prunes on
    specialness-so-far, ``odd_only`` restricts closures to odd length >= 3;
    with both, a path is entered only when :func:`_closable` allows it.
    Raises BudgetExceededError after ``budget`` node expansions (None: no
    limit), and ValueError for a non-integer max_s or a negative budget.
    """
    if max_s is not None:
        check_order(max_s, None, "max_s")
    if budget is not None:
        check_order(budget, 0, "budget")
    ids, masks, at, labels = cx.facet_ids, cx.masks, cx.facets_at, cx.active_vertices
    positions = cx.positions
    # candidates: positions of the vertices in two or more facets
    candidates = [p for p, fs in enumerate(at) if len(fs) >= 2]
    cap = min(len(ids), len(candidates))
    if max_s is not None:
        cap = min(cap, max_s)
    min_close = 3 if odd_only else 2
    if cap < min_close:
        return
    prune = only_special and odd_only
    cand_bits = sum(1 << (labels[p] - 1) for p in candidates)
    steps = tuple(g for g in (m & cand_bits for m in masks) if g & (g - 1))
    spent = 0

    def extend(
        path_v: list[int], path_f: list[int], end: int,
        used: int, in_path_f: int, f_used: int,
    ) -> Iterator[Cycle]:
        # end: the position of the path's last vertex; used: its vertices;
        # in_path_f: the vertices of its facets; f_used: their indices
        nonlocal spent
        spent += 1
        if budget is not None and spent > budget:
            raise BudgetExceededError(
                f"cycle search exceeded its budget of {echo(budget)} expansions"
            )
        n = len(path_v)
        closes = n >= min_close and (not odd_only or n % 2 == 1)
        # the vertices the path may add: candidates above the start, off it
        fresh = above & ~used
        if only_special:
            fresh &= ~in_path_f
        for j in at[end]:
            f_bit = 1 << j
            if f_used & f_bit:
                continue
            fmask = masks[j]
            inside = (fmask & used).bit_count()
            # close the cycle
            if (
                closes
                and fmask & start_bit
                and (not only_special or inside <= 2)
                # direction canon: the smaller (v2, f1) pair survives; on a
                # 2-cycle v2 is the last vertex, so the two facets decide
                and (path_v[1], path_f[0]) < (path_v[-1], ids[j])
            ):
                yield Cycle(tuple(path_v), tuple(path_f + [ids[j]]))
            # extend the path
            if n == cap or (only_special and inside >= 2) or not fmask & fresh:
                continue
            beyond = in_path_f | fmask
            for p in positions[j]:
                w = labels[p]
                w_bit = 1 << (w - 1)
                if not fresh & w_bit:
                    continue
                if prune and not _closable(
                    masks, steps, at[p], closing, used | w_bit, w_bit, start_bit,
                    above & ~beyond, n % 2 == 0,
                ):
                    continue
                yield from extend(
                    path_v + [w], path_f + [ids[j]], p,
                    used | w_bit, beyond, f_used | f_bit,
                )

    try:
        for start_p in candidates:
            start = labels[start_p]
            start_bit = 1 << (start - 1)
            above = cand_bits >> start << start
            closing = at[start_p]
            yield from extend([start], [], start_p, start_bit, 0, 0)
    finally:
        del extend  # the closure refers to itself; free the cycle now


def find_special_odd_cycle(
    cx: SimplicialComplex, budget: int = DEFAULT_CYCLE_BUDGET
) -> Optional[Cycle]:
    """First special odd cycle in canonical order, or None.

    The result is deterministic: smallest start vertex, then the canonical
    direction, then depth-first facet/vertex order.  With the default budget
    this is exhaustive at desk scale; an exceeded budget raises instead of
    returning a false negative.
    """
    for cyc in enumerate_cycles(cx, only_special=True, odd_only=True, budget=budget):
        return cyc
    return None
