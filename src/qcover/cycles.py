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

The search is exhaustive backtracking over alternating sequences with three
prunes: vertices and facets stay distinct, specialness-so-far (a used facet
holding three path vertices can never recover), and a canonical form that
kills duplicates — every cycle is generated exactly once, started at its
smallest vertex with the direction fixed by the smaller (second vertex,
first facet) pair.  The search is worst-case exponential; a node budget
aborts loudly instead of truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .complexes import SimplicialComplex
from .errors import (
    BudgetExceededError,
    LengthMismatchError,
    NotACycleError,
    UnknownFacetIdError,
)

DEFAULT_CYCLE_BUDGET = 10_000_000


@dataclass(frozen=True)
class Cycle:
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
        return Cycle(
            self.vertices[k:] + self.vertices[:k],
            self.facets[k:] + self.facets[:k],
        )

    def reversed_(self) -> "Cycle":
        """Same closed walk in the opposite direction."""
        v = self.vertices
        f = self.facets
        return Cycle(
            (v[0],) + tuple(reversed(v[1:])),
            tuple(reversed(f)),
        )

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
    if s < 2:
        return False
    if len(set(verts)) != s or len(set(fids)) != s:
        return False
    active = set(cx.active_vertices)
    if any(v not in active for v in verts):
        return False
    for fid in fids:
        cx.facet(fid)  # raises UnknownFacetIdError for bad ids
    for i in range(s):
        f = cx.facet(fids[i])
        if verts[i] not in f or verts[(i + 1) % s] not in f:
            return False
    return True


def is_special_cycle(cx: SimplicialComplex, cycle: Cycle) -> bool:
    """True when no facet of the cycle contains more than two cycle vertices."""
    if not is_cycle(cx, cycle.vertices, cycle.facets):
        raise NotACycleError(f"{cycle} is not a cycle of the complex")
    vset = set(cycle.vertices)
    for fid in cycle.facets:
        if len(cx.facet(fid) & vset) > 2:
            return False
    return True


def _canonical_closure_ok(
    path_v: list[int], path_f: list[int], closing_f: int
) -> bool:
    # direction canon: the traversal with the smaller (v2, f1) pair survives;
    # for 2-cycles v2 == v_last, so the facet pair breaks the tie
    if len(path_v) == 2:
        return path_f[0] < closing_f
    return (path_v[1], path_f[0]) < (path_v[-1], closing_f)


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
    specialness-so-far, ``odd_only`` restricts closures to odd length >= 3.
    Raises BudgetExceededError after ``budget`` search node expansions.
    """
    ids = list(cx.facet_ids)
    facets_of: dict[int, list[int]] = {}
    for v in cx.active_vertices:
        facets_of[v] = [fid for fid in ids if v in cx.facet(fid)]
    candidates = [v for v in cx.active_vertices if len(facets_of[v]) >= 2]
    cap = min(len(ids), len(candidates))
    if max_s is not None:
        cap = min(cap, max_s)
    min_close = 3 if odd_only else 2
    if cap < min_close:
        return
    spent = [0]

    def tick() -> None:
        spent[0] += 1
        if budget is not None and spent[0] > budget:
            raise BudgetExceededError(
                f"cycle search exceeded its budget of {budget} expansions"
            )

    def extend(
        path_v: list[int],
        path_f: list[int],
        used_v: set[int],
        used_f: set[int],
        counts: dict[int, int],
    ) -> Iterator[Cycle]:
        tick()
        start = path_v[0]
        last = path_v[-1]
        for fid in facets_of[last]:
            if fid in used_f:
                continue
            fverts = cx.facet(fid)
            inside = len(fverts & used_v)
            # close the cycle
            if (
                start in fverts
                and len(path_v) >= min_close
                and (not odd_only or len(path_v) % 2 == 1)
                and (not only_special or inside <= 2)
                and _canonical_closure_ok(path_v, path_f, fid)
            ):
                yield Cycle(tuple(path_v), tuple(path_f + [fid]))
            # extend the path
            if len(path_v) == cap:
                continue
            if only_special and inside > 2:
                continue
            for w in sorted(fverts):
                if w <= start or w in used_v or len(facets_of[w]) < 2:
                    continue
                if only_special:
                    if inside + 1 > 2:
                        continue
                    if any(
                        counts[g] + 1 > 2 for g in used_f if w in cx.facet(g)
                    ):
                        continue
                new_counts = dict(counts)
                new_counts[fid] = inside + 1
                for g in used_f:
                    if w in cx.facet(g):
                        new_counts[g] += 1
                yield from extend(
                    path_v + [w],
                    path_f + [fid],
                    used_v | {w},
                    used_f | {fid},
                    new_counts,
                )

    for start in candidates:
        yield from extend([start], [], {start}, set(), {})


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
