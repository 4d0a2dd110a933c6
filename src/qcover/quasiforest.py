"""Leaf structure of facet complexes: leaf orders, relation trees, subtrees.

A facet F is a *leaf* when a single other facet G absorbs every
intersection: H∩F ⊆ G∩F for every other facet H.  Such a G is a *branch*
of F (Faridi, "The facet ideal of a simplicial complex", 2002).  A complex
is a *quasi-forest* when its facets can be listed so that each one is a
leaf of the preceding prefix, and a connected quasi-forest is a
*quasi-tree* (Zheng, "Resolutions of facet ideals", 2004).

Every leaf question goes through one kernel, :func:`peel_leaves`.  It
detaches facets one at a time from a list of facet ids, using the facet
bit masks alone, and reports the admissible branches of each detached
facet.  Greedy leaf orders, validation of a given order, relation trees
and the witness detachment in :mod:`qcover.covers` consume a whole peel;
:func:`branches_of`, :func:`is_leaf` and :func:`find_leaf` read its first
step.

Quasi-forest recognition here is greedy: repeatedly detach the
smallest-id leaf of what is left.  Greedy completeness is not assumed;
the test suite checks it against exhaustive permutation search on every
small instance.

The *relation tree* records, for one leaf order and one branch choice per
detached leaf, which branch each facet was glued to.  Different orders and
branch rules give different trees; every one of them is a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Optional

import numpy as np

from .complexes import SimplicialComplex
from .errors import (
    InvalidLeafOrderError,
    NotAPermutationError,
    UnknownNodeError,
)

BranchRule = Callable[[int, tuple[int, ...]], int]


def min_branch_rule(leaf: int, branches: tuple[int, ...]) -> int:
    """Deterministic default: the admissible branch with the smallest id."""
    return min(branches)


def max_branch_rule(leaf: int, branches: tuple[int, ...]) -> int:
    """The admissible branch with the largest id."""
    return max(branches)


def random_branch_rule(seed: int) -> BranchRule:
    """Seed-stable branch rule (PCG64); same seed, same choices."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def rule(leaf: int, branches: tuple[int, ...]) -> int:
        return int(branches[rng.integers(0, len(branches))])

    return rule


# --- leaf peeling ---------------------------------------------------------------


def peel_leaves(
    cx: SimplicialComplex,
    detach: Optional[Iterable[int]] = None,
    keep: Collection[int] = (),
) -> Iterator[tuple[Optional[int], tuple[int, ...]]]:
    """Detach facets one at a time, yielding (facet, its branches) per step.

    Each step detaches the next facet of ``detach`` when it is given (the
    caller lists facets of ``cx``), and otherwise the smallest-id leaf
    outside ``keep``; peeling ends once only ``keep`` is left.  Branches are
    those of the facet among the facets left before its step, ascending;
    the last facet standing is its own branch.  A step that finds no leaf
    yields (None, ()) and ends the peel.
    """
    mask = dict(zip(cx.facet_ids, cx.masks))
    live = list(cx.facet_ids)
    picks = None if detach is None else iter(detach)
    while len(live) > len(keep):
        if len(live) == 1:
            yield live[0], (live[0],)
            return
        # shared: vertices of two or more remaining facets, so the part of F
        # that other facets meet is mask[F] & shared, and G is a branch of F
        # when that part lies inside G
        seen = shared = 0
        for g in live:
            shared |= seen & mask[g]
            seen |= mask[g]
        candidates = (
            [f for f in live if f not in keep] if picks is None else [next(picks)]
        )
        for fid in candidates:
            inner = mask[fid] & shared
            branches = tuple(g for g in live if g != fid and inner & ~mask[g] == 0)
            if branches:
                break
        else:
            yield None, ()
            return
        yield fid, branches
        live.remove(fid)


def branches_of(cx: SimplicialComplex, fid: int) -> tuple[int, ...]:
    """All branches of the facet, ascending; empty when it is not a leaf.

    A single-facet complex returns the facet itself (leaf by convention).
    """
    cx.facet(fid)  # raises UnknownFacetIdError for ids outside the complex
    return next(peel_leaves(cx, detach=(fid,)))[1]


def is_leaf(cx: SimplicialComplex, fid: int) -> bool:
    return bool(branches_of(cx, fid))


def find_leaf(cx: SimplicialComplex) -> Optional[tuple[int, tuple[int, ...]]]:
    """First leaf in canonical id order, with all of its branches.

    Returns None when the complex has no leaf at all (so it cannot be a
    quasi-forest).
    """
    fid, branches = next(peel_leaves(cx))
    return (fid, branches) if branches else None


# --- leaf orders ---------------------------------------------------------------


def leaf_order(cx: SimplicialComplex) -> Optional[tuple[int, ...]]:
    """Greedy leaf order, or None when removal gets stuck.

    Repeatedly detaches the smallest-id leaf of the remaining subcomplex and
    returns the removal sequence reversed, so each facet is a leaf of the
    prefix that precedes it.
    """
    removed: list[int] = []
    for fid, branches in peel_leaves(cx):
        if not branches:
            return None
        removed.append(fid)
    return tuple(reversed(removed))


def _peel_order(
    cx: SimplicialComplex, seq: list[int]
) -> Iterator[tuple[Optional[int], tuple[int, ...]]]:
    """Peel a proposed leaf order from its last facet back to its first."""
    if sorted(seq) != sorted(cx.facet_ids):
        raise NotAPermutationError(
            f"order {seq} is not a permutation of facet ids {list(cx.facet_ids)}"
        )
    return peel_leaves(cx, detach=reversed(seq))


def validate_leaf_order(cx: SimplicialComplex, order: Iterable[int]) -> bool:
    """True iff each facet in the order is a leaf of the preceding prefix."""
    return all(branches for _, branches in _peel_order(cx, list(order)))


def is_quasi_forest(cx: SimplicialComplex) -> bool:
    return leaf_order(cx) is not None


def is_quasi_tree(cx: SimplicialComplex) -> bool:
    return cx.is_connected() and leaf_order(cx) is not None


# --- relation trees --------------------------------------------------------------


@dataclass(frozen=True)
class RelationTree:
    """Tree on facet ids with the chosen-branch map.

    ``branch`` points every non-root node to the branch it was glued to;
    the root points to itself.  ``edges`` are sorted (lo, hi) pairs.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    branch: dict[int, int] = field(compare=False)
    root: int = 0

    def degree(self, fid: int) -> int:
        if fid not in self.branch:
            raise UnknownNodeError(f"facet id {fid} is not a tree node")
        return sum(1 for e in self.edges if fid in e)


def relation_tree(
    cx: SimplicialComplex,
    order: Iterable[int],
    branch_rule: BranchRule = min_branch_rule,
) -> RelationTree:
    """Build the relation tree for a leaf order and a branch rule.

    Walks the order backwards: detach the last facet, let ``branch_rule``
    pick one of its admissible branches in the current prefix, record the
    edge, repeat.  The first facet becomes the root with branch(root)=root.
    """
    seq = list(order)
    steps = list(_peel_order(cx, seq))
    if not all(branches for _, branches in steps):
        raise InvalidLeafOrderError(f"{seq} is not a leaf order of the complex")
    branch: dict[int, int] = {seq[0]: seq[0]}
    edges: list[tuple[int, int]] = []
    for fid, adm in steps[:-1]:
        chosen = branch_rule(fid, adm)
        if chosen not in adm:
            raise ValueError(
                f"branch rule chose {chosen}, admissible branches are {list(adm)}"
            )
        branch[fid] = chosen
        edges.append((min(fid, chosen), max(fid, chosen)))
    return RelationTree(
        nodes=tuple(sorted(seq)),
        edges=tuple(sorted(edges)),
        branch=branch,
        root=seq[0],
    )


def is_branch_ancestor(tree: RelationTree, g: int, f: int) -> bool:
    """True when iterating the branch map from f reaches g (reflexively).

    This is the partial order induced by the tree: g precedes f when the
    chain f, branch(f), branch(branch(f)), ... passes through g.
    """
    for fid in (g, f):
        if fid not in tree.branch:
            raise UnknownNodeError(f"facet id {fid} is not a tree node")
    cur = f
    while True:
        if cur == g:
            return True
        nxt = tree.branch[cur]
        if nxt == cur:
            return False
        cur = nxt


def minimal_subtree(tree: RelationTree, targets: Iterable[int]) -> RelationTree:
    """Smallest subtree containing the targets (iterated leaf pruning).

    Degree-one nodes outside the target set are removed until none remain.
    The new root is the surviving node closest to the old root, i.e. the
    minimal survivor in the branch partial order.
    """
    tset = set(targets)
    if not tset:
        raise ValueError("target set must be nonempty")
    for fid in tset:
        if fid not in tree.branch:
            raise UnknownNodeError(f"facet id {fid} is not a tree node")
    nodes = set(tree.nodes)
    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    changed = True
    while changed:
        changed = False
        for v in sorted(nodes):
            if v not in tset and len(adj[v]) <= 1 and len(nodes) > 1:
                for u in adj[v]:
                    adj[u].discard(v)
                nodes.discard(v)
                del adj[v]
                changed = True
    edges = tuple(sorted((a, b) for a, b in tree.edges if a in nodes and b in nodes))
    # the surviving node whose branch already left the subtree is the top one
    root = None
    branch: dict[int, int] = {}
    for v in sorted(nodes):
        b = tree.branch[v]
        if b == v or b not in nodes:
            root = v
            branch[v] = v
        else:
            branch[v] = b
    assert root is not None and len(edges) == len(nodes) - 1
    return RelationTree(
        nodes=tuple(sorted(nodes)), edges=edges, branch=branch, root=root
    )


# --- free vertices ---------------------------------------------------------------


def free_vertices(cx: SimplicialComplex, fid: int) -> frozenset[int]:
    """Vertices of the facet that belong to no other facet.

    Nonempty whenever the facet is a leaf: if every vertex of F also lay in
    another facet, the branch of F would contain all of F, breaking the
    antichain.
    """
    fmask = cx.mask(fid)
    for g in cx.facet_ids:
        if g != fid:
            fmask &= ~cx.mask(g)
    return frozenset(v for v in cx.facet(fid) if fmask >> (v - 1) & 1)


# --- export -----------------------------------------------------------------------


def relation_tree_dot(tree: RelationTree, cx: SimplicialComplex) -> str:
    """Byte-stable DOT rendering; each edge points from a facet to its branch."""
    lines = ["digraph relation_tree {"]
    for fid in tree.nodes:
        verts = ",".join(str(v) for v in sorted(cx.facet(fid)))
        lines.append(f'  F{fid} [label="F{fid}: {{{verts}}}"];')
    for fid in tree.nodes:
        if fid != tree.root:
            lines.append(f"  F{fid} -> F{tree.branch[fid]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
