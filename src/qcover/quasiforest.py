"""Leaf structure of facet complexes: leaf orders, relation trees, subtrees.

A facet F is a *leaf* when a single other facet G absorbs every
intersection: H∩F ⊆ G∩F for every other facet H.  Such a G is a *branch*
of F (Faridi, "The facet ideal of a simplicial complex", 2002).  A complex
is a *quasi-forest* when its facets can be listed so that each one is a
leaf of the preceding prefix, and a connected quasi-forest is a
*quasi-tree* (Zheng, "Resolutions of facet ideals", 2004).

Every leaf question goes through one kernel, :func:`peel_leaves`.  It
detaches facets one at a time, using the facet bit masks alone, and returns
the (facet, admissible branches) steps of a complete peel, or None when a
step finds no leaf; callers test ``steps is None``.  Greedy leaf orders,
validation of a given order, relation trees (from a validated order, or
from the greedy peel, whose steps are those of its own order) and the
witness detachment in :mod:`qcover.covers` read a whole peel;
:func:`branches_of` is a one-facet peel, read by :func:`is_leaf` and
:func:`find_leaf`.

Quasi-forest recognition here is greedy: repeatedly detach the
smallest-id leaf of what is left.  Greedy completeness is not assumed;
the test suite checks it against exhaustive permutation search on every
small instance.

The *relation tree* records, for one leaf order and one branch choice per
detached leaf, which branch each facet was glued to.  Different orders and
branch rules give different trees; every one of them is a tree.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, NamedTuple, Optional

from .complexes import SimplicialComplex
from .errors import (
    InvalidLeafOrderError,
    NotAPermutationError,
    UnknownNodeError,
    check_order,
    check_seed,
    echo,
    echo_each,
)

BranchRule = Callable[[int, tuple[int, ...]], int]


def min_branch_rule(leaf: int, branches: tuple[int, ...]) -> int:
    """Deterministic default: the admissible branch with the smallest id."""
    return min(branches)


def max_branch_rule(leaf: int, branches: tuple[int, ...]) -> int:
    """The admissible branch with the largest id."""
    return max(branches)


def random_branch_rule(seed: int) -> BranchRule:
    """Seed-stable branch rule; same seed, same choices.

    The choices are drawn from numpy's PCG64 stream, reproduced in pure
    Python by :mod:`qcover._pcg64` and checked against numpy in the tests.
    """
    seed = check_seed(seed)
    from ._pcg64 import PCG64

    rng = PCG64(seed)

    def rule(leaf: int, branches: tuple[int, ...]) -> int:
        return branches[rng.integers(0, len(branches))]

    return rule


# --- leaf peeling ---------------------------------------------------------------


def peel_leaves(
    cx: SimplicialComplex,
    detach: Optional[Iterable[int]] = None,
    keep: Collection[int] = (),
) -> Optional[list[tuple[int, tuple[int, ...]]]]:
    """The (facet, its branches) steps of a complete peel, or None when stuck.

    Each step detaches the next facet of ``detach`` when it is given (the
    caller lists facets of ``cx``), or else the smallest-id leaf outside
    ``keep``; the peel is complete once ``detach`` is used or only ``keep``
    is left.  Branches are those of the facet among the facets left before
    its step, ascending; the last facet standing is its own branch.  A step
    that finds no leaf makes the whole peel None.
    """
    mask = dict(zip(cx.facet_ids, cx.masks))
    live = list(cx.facet_ids)
    picks = None if detach is None else list(detach)
    steps: list[tuple[int, tuple[int, ...]]] = []
    while len(live) > len(keep) and (picks is None or len(steps) < len(picks)):
        if len(live) == 1:
            steps.append((live[0], (live[0],)))
            break
        # shared: vertices of two or more remaining facets, so the part of F
        # that other facets meet is mask[F] & shared, and G is a branch of F
        # when that part lies inside G
        seen = shared = 0
        for g in live:
            shared |= seen & mask[g]
            seen |= mask[g]
        candidates = (
            [f for f in live if f not in keep] if picks is None else [picks[len(steps)]]
        )
        for fid in candidates:
            inner = mask[fid] & shared
            branches = tuple(g for g in live if g != fid and inner & ~mask[g] == 0)
            if branches:
                break
        else:
            return None
        steps.append((fid, branches))
        live.remove(fid)
    return steps


def branches_of(cx: SimplicialComplex, fid: int) -> tuple[int, ...]:
    """All branches of the facet, ascending; empty when it is not a leaf.

    A single-facet complex returns the facet itself (leaf by convention).
    """
    cx.facet(fid)  # raises UnknownFacetIdError for ids outside the complex
    steps = peel_leaves(cx, detach=(fid,))
    return () if steps is None else steps[0][1]


def is_leaf(cx: SimplicialComplex, fid: int) -> bool:
    return bool(branches_of(cx, fid))


def find_leaf(cx: SimplicialComplex) -> Optional[tuple[int, tuple[int, ...]]]:
    """First leaf in canonical id order, with all of its branches.

    Returns None when the complex has no leaf at all (so it cannot be a
    quasi-forest).
    """
    leaves = ((fid, branches_of(cx, fid)) for fid in cx.facet_ids)
    return next((leaf for leaf in leaves if leaf[1]), None)


# --- leaf orders ---------------------------------------------------------------


def leaf_order(cx: SimplicialComplex) -> Optional[tuple[int, ...]]:
    """Greedy leaf order, or None when removal gets stuck.

    Repeatedly detaches the smallest-id leaf of the remaining subcomplex and
    returns the removal sequence reversed, so each facet is a leaf of the
    prefix that precedes it.
    """
    steps = peel_leaves(cx)
    return None if steps is None else tuple(fid for fid, _ in reversed(steps))


def _peel_order(cx: SimplicialComplex, seq: list) -> list[int]:
    """A proposed leaf order's ids as ints, checked to permute the facet ids."""
    try:
        ids = [check_order(fid, None) for fid in seq]
    except ValueError:  # a bool or a non-integer entry
        ids = None
    if ids is None or sorted(ids) != sorted(cx.facet_ids):
        raise NotAPermutationError(
            f"order {echo(seq)} is not a permutation of facet ids "
            f"{echo(list(cx.facet_ids))}"
        )
    return ids


def validate_leaf_order(cx: SimplicialComplex, order: Iterable[int]) -> bool:
    """True iff each facet in the order is a leaf of the preceding prefix."""
    ids = _peel_order(cx, list(order))
    return peel_leaves(cx, detach=reversed(ids)) is not None


def is_quasi_forest(cx: SimplicialComplex) -> bool:
    return leaf_order(cx) is not None


def is_quasi_tree(cx: SimplicialComplex) -> bool:
    return cx.is_connected() and leaf_order(cx) is not None


# --- relation trees --------------------------------------------------------------


class RelationTree(NamedTuple):
    """Tree on facet ids with the chosen-branch map.

    ``branch`` points every non-root node to the branch it was glued to;
    the root points to itself.  ``edges`` are sorted (lo, hi) pairs.
    Equality and hash leave ``branch`` out.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    branch: dict[int, int]
    root: int = 0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nodes, self.edges, self.root) == (
            other.nodes, other.edges, other.root
        )

    __ne__ = object.__ne__  # not tuple's, which would compare branch too

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges, self.root))

    def degree(self, fid: int) -> int:
        if fid not in self.branch:
            raise UnknownNodeError(f"facet id {echo(fid)} is not a tree node")
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
    seq = _peel_order(cx, list(order))
    steps = peel_leaves(cx, detach=reversed(seq))
    if steps is None:
        raise InvalidLeafOrderError(f"{echo_each(seq)} is not a leaf order of the complex")
    return _tree_from_steps(steps, branch_rule)


def _tree_from_steps(steps: list, branch_rule: BranchRule) -> RelationTree:
    """Relation tree from the steps of a complete peel, the root's step last.

    The greedy peel of :func:`leaf_order` and the peel of its order have the
    same steps, so callers that hold the greedy peel build the tree without
    a second one.  ``branch_rule`` is asked once per detached facet, in peel
    order, so a stateful rule makes the same choices from either peel.
    """
    root = steps[-1][0]
    branch: dict[int, int] = {root: root}
    edges: list[tuple[int, int]] = []
    for fid, adm in steps[:-1]:
        chosen = branch_rule(fid, adm)
        if chosen not in adm:
            raise ValueError(
                f"branch rule chose {echo(chosen)}, admissible branches are "
                f"{echo_each(adm)}"
            )
        branch[fid] = chosen
        edges.append((min(fid, chosen), max(fid, chosen)))
    return RelationTree(tuple(sorted(branch)), tuple(sorted(edges)), branch, root)


def _root_path(tree: RelationTree, f: int) -> list[int]:
    """f, branch(f), branch(branch(f)), ... up to the root, which ends it."""
    if f not in tree.branch:
        raise UnknownNodeError(f"facet id {echo(f)} is not a tree node")
    path = [f]
    while tree.branch[path[-1]] != path[-1]:
        if len(path) == len(tree.branch):
            raise ValueError("the branch map loops without reaching a root")
        g = tree.branch[path[-1]]
        if g not in tree.branch:
            raise UnknownNodeError(
                f"the branch map sends facet {echo(path[-1])} to {echo(g)}, "
                "which is not a tree node"
            )
        path.append(g)
    return path


def is_branch_ancestor(tree: RelationTree, g: int, f: int) -> bool:
    """True when iterating the branch map from f reaches g (reflexively).

    This is the partial order induced by the tree: g precedes f when the
    chain f, branch(f), branch(branch(f)), ... passes through g.
    """
    if g not in tree.branch:
        raise UnknownNodeError(f"facet id {echo(g)} is not a tree node")
    return g in _root_path(tree, f)


def minimal_subtree(tree: RelationTree, targets: Iterable[int]) -> RelationTree:
    """Smallest subtree containing the targets: their root paths, cut at the top.

    The branch map is a parent pointer, so the subtree is the union of the
    targets' paths towards the root, each cut at the first node that all of
    them pass through.  That meeting node is the new root, the node of the
    subtree closest to the old root.
    """
    tset = set(targets)
    if not tset:
        raise ValueError("target set must be nonempty")
    paths = [_root_path(tree, fid) for fid in sorted(tset)]
    shared = set(paths[0]).intersection(*paths[1:])
    root = next(fid for fid in paths[0] if fid in shared)
    branch = {fid: tree.branch[fid] for p in paths for fid in p[: p.index(root)]}
    edges = tuple(sorted((min(f, b), max(f, b)) for f, b in branch.items()))
    branch[root] = root
    nodes = tuple(sorted(branch))
    return RelationTree(nodes=nodes, edges=edges, branch=branch, root=root)


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
