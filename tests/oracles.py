"""Independent, unoptimized re-implementations used as test oracles.

Everything here works on plain facet lists (lists of frozensets) and plain
Python loops, deliberately sharing no code with the package: where the
engine prunes, canonicalizes or vectorizes, these enumerate.  The one
exception is the error classes, ``echo`` and ``echo_each``, which the
constructor oracle raises and quotes with so that its messages can be
compared.
"""

from __future__ import annotations

import itertools

from qcover.errors import (
    AntichainViolationError,
    DuplicateFacetError,
    EmptyFacetError,
    EmptySelectionError,
    TooManyVerticesError,
    UncoveredVertexError,
    echo,
    echo_each,
)


def facet_sets(cx) -> list[frozenset[int]]:
    return [cx.facet(fid) for fid in cx.facet_ids]


# --- complexes ------------------------------------------------------------------

# the fields a complex sets, compared between the engine and the oracle
COMPLEX_FIELDS = (
    "vertex_count",
    "facet_ids",
    "facets",
    "masks",
    "active_vertices",
    "positions",
    "facets_at",
    "_id_mask",
)


def oracle_new_complex(facets) -> dict:
    """The pairwise constructor: validate, canonicalize, then select all facets.

    Checks each facet in input order (empty, label type and sign,
    duplicate), then every pair of facets in input order for a strict
    containment, then the label range and density, and returns the
    complex's fields by name.
    """
    raw = list(facets)
    if not raw:
        raise EmptySelectionError("a complex needs at least one facet")
    cleaned = []
    seen = set()
    for idx, f in enumerate(raw):
        fs = frozenset(f)
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
        cleaned.append(fs)
    for i, f in enumerate(cleaned):
        for g in cleaned[i + 1:]:
            if f < g:
                raise AntichainViolationError(f, g)
            if g < f:
                raise AntichainViolationError(g, f)
    n = max(max(f) for f in cleaned)
    if n > 64:
        raise TooManyVerticesError(
            f"{echo(n)} vertex labels; the engine supports at most 64"
        )
    covered = frozenset().union(*cleaned)
    missing = [v for v in range(1, n + 1) if v not in covered]
    if missing:
        raise UncoveredVertexError(
            f"labels {echo_each(missing)} belong to no facet "
            "(labels must be dense 1..n)"
        )
    ordered = tuple(sorted(cleaned, key=lambda f: tuple(sorted(f))))
    return _oracle_select(n, tuple(range(1, len(ordered) + 1)), ordered)


def oracle_smd(root: dict, ids) -> dict:
    """The fields of the view of ``oracle_new_complex``'s ``root`` on ``ids``."""
    ids = tuple(sorted(set(ids)))
    return _oracle_select(
        root["vertex_count"], ids, tuple(root["facets"][i - 1] for i in ids)
    )


def _oracle_select(n, ids, facets) -> dict:
    active = tuple(sorted(frozenset().union(*facets)))
    return {
        "vertex_count": n,
        "facet_ids": ids,
        "facets": facets,
        "masks": tuple(sum(1 << (v - 1) for v in f) for f in facets),
        "active_vertices": active,
        "positions": tuple(tuple(sorted(active.index(v) for v in f)) for f in facets),
        "facets_at": tuple(
            tuple(j for j, f in enumerate(facets) if v in f) for v in active
        ),
        "_id_mask": sum(1 << (i - 1) for i in ids),
    }


# --- covers ---------------------------------------------------------------------


def oracle_cover_order(facets, universe, a) -> int:
    weight = dict(zip(universe, a))
    return min(sum(weight[v] for v in f) for f in facets)


def oracle_is_decomposable(facets, universe, a, k) -> bool:
    """Exhaustive box scan for a split b + c with both parts nonzero."""
    ranges = [range(x + 1) for x in a]
    for b in itertools.product(*ranges):
        if all(x == 0 for x in b) or tuple(b) == tuple(a):
            continue
        c = tuple(x - y for x, y in zip(a, b))
        ob = oracle_cover_order(facets, universe, b)
        oc = oracle_cover_order(facets, universe, c)
        if ob + oc >= k:
            return True
    return False


def oracle_lex_first_split(facets, universe, a, k):
    """First split summand b of the box scan in itertools.product order, or None."""
    ranges = [range(x + 1) for x in a]
    for b in itertools.product(*ranges):
        if all(x == 0 for x in b) or tuple(b) == tuple(a):
            continue
        c = tuple(x - y for x, y in zip(a, b))
        ob = oracle_cover_order(facets, universe, b)
        oc = oracle_cover_order(facets, universe, c)
        if ob + oc >= k:
            return b
    return None


def oracle_indecomposable_covers(cx, k) -> list[tuple[int, ...]]:
    """Full box enumeration with entries <= max(k, 1); no minimality pruning."""
    facets = facet_sets(cx)
    universe = cx.active_vertices
    cap = 1 if k == 0 else k
    out = []
    for a in itertools.product(range(cap + 1), repeat=len(universe)):
        if all(x == 0 for x in a):
            continue
        if oracle_cover_order(facets, universe, a) < k:
            continue
        if not oracle_is_decomposable(facets, universe, a, k):
            out.append(a)
    return out


def oracle_exact_transversals(cx) -> list[list[int]]:
    """0/1 vectors on the twin classes summing to exactly 1 on every facet.

    Twin classes are the vertices that lie in the same facets, ranked by
    their largest label.  Each vector is a bitmask over the ranks; the
    masks are grouped by their last class and sorted within a group.
    """
    facets = facet_sets(cx)
    twins = {}
    for v in cx.active_vertices:
        twins.setdefault(frozenset(i for i, f in enumerate(facets) if v in f), []).append(v)
    classes = sorted(twins.values(), key=max)
    out = [[] for _ in classes]
    for x in itertools.product((0, 1), repeat=len(classes)):
        chosen = [members[0] for members, bit in zip(classes, x) if bit]
        if all(sum(v in f for v in chosen) == 1 for f in facets):
            mask = sum(1 << r for r, bit in enumerate(x) if bit)
            out[mask.bit_length() - 1].append(mask)
    return [sorted(group) for group in out]


# --- leaves and leaf orders --------------------------------------------------------


def oracle_branches(facets, idx) -> tuple[int, ...]:
    """Indices of the branches of facets[idx], ascending; empty for a non-leaf.

    G is a branch of F when H∩F ⊆ G∩F for every other facet H; a lone
    facet is its own branch.
    """
    f = facets[idx]
    others = [j for j in range(len(facets)) if j != idx]
    if not others:
        return (idx,)
    return tuple(
        j
        for j in others
        if all((facets[h] & f) <= (facets[j] & f) for h in others)
    )


def oracle_is_leaf(facets, idx) -> bool:
    return bool(oracle_branches(facets, idx))


def oracle_is_leaf_order(facets, perm) -> bool:
    for i in range(1, len(perm)):
        prefix = [facets[j] for j in perm[: i + 1]]
        if not oracle_is_leaf(prefix, i):
            return False
    return True


def oracle_has_leaf_order(cx) -> bool:
    """Exhaustive permutation search for a valid leaf order."""
    facets = facet_sets(cx)
    idx = range(len(facets))
    return any(oracle_is_leaf_order(facets, perm) for perm in itertools.permutations(idx))


# --- cycles ---------------------------------------------------------------------------


def oracle_special_odd_cycle_exists(cx, max_s=None) -> bool:
    """Enumerate alternating sequences from every start, no canonical pruning."""
    facets = facet_sets(cx)
    fids = list(range(len(facets)))
    vertices = list(cx.active_vertices)
    cap = min(len(facets), len(vertices))
    if max_s is not None:
        cap = min(cap, max_s)

    def special(verts, fs):
        vset = set(verts)
        return all(len(facets[j] & vset) <= 2 for j in fs)

    def walk(verts, fs):
        last = verts[-1]
        for j in fids:
            if j in fs:
                continue
            if last not in facets[j]:
                continue
            # close
            if len(verts) >= 3 and len(verts) % 2 == 1 and verts[0] in facets[j]:
                if special(verts, fs + [j]):
                    return True
            if len(verts) == cap:
                continue
            for w in facets[j]:
                if w in verts:
                    continue
                if walk(verts + [w], fs + [j]):
                    return True
        return False

    return any(walk([v], []) for v in vertices)


# --- relation trees -------------------------------------------------------------------


def oracle_minimal_subtree(tree, targets):
    """Prune non-target nodes of degree <= 1 to a fixed point.

    Returns (nodes, edges, branch, root); the root is the survivor whose
    branch is itself or was pruned.
    """
    tset = set(targets)
    nodes = set(tree.nodes)
    adj = {v: set() for v in nodes}
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
    branch = {}
    for v in sorted(nodes):
        b = tree.branch[v]
        branch[v] = b if b != v and b in nodes else v
    (root,) = [v for v in nodes if branch[v] == v]
    return tuple(sorted(nodes)), edges, branch, root


def oracle_enumerate_cycles(cx, only_special=False, odd_only=False):
    """The canonical cycle search without its parity prune, as (vertices, facets).

    The engine's backtracking order and canonical form, with no budget and
    no cut beyond specialness-so-far: every yield of
    ``enumerate_cycles(cx, only_special=..., odd_only=...)`` in the same
    order, found the long way.
    """
    fids = list(cx.facet_ids)
    fset = dict(zip(fids, facet_sets(cx)))
    facets_of = {v: [f for f in fids if v in fset[f]] for v in cx.active_vertices}
    candidates = [v for v in cx.active_vertices if len(facets_of[v]) >= 2]
    cap = min(len(fids), len(candidates))
    min_close = 3 if odd_only else 2

    def canonical(path_v, path_f, closing):
        if len(path_v) == 2:
            return path_f[0] < closing
        return (path_v[1], path_f[0]) < (path_v[-1], closing)

    def walk(path_v, path_f):
        start, used = path_v[0], set(path_v)
        for fid in facets_of[path_v[-1]]:
            if fid in path_f:
                continue
            inside = len(fset[fid] & used)
            if (
                start in fset[fid]
                and len(path_v) >= min_close
                and (not odd_only or len(path_v) % 2 == 1)
                and (not only_special or inside <= 2)
                and canonical(path_v, path_f, fid)
            ):
                yield tuple(path_v), tuple(path_f + [fid])
            if len(path_v) == cap or (only_special and inside >= 2):
                continue
            for w in sorted(fset[fid]):
                if w <= start or w in used or len(facets_of[w]) < 2:
                    continue
                if only_special and any(w in fset[g] for g in path_f):
                    continue
                yield from walk(path_v + [w], path_f + [fid])

    if cap >= min_close:
        for start in candidates:
            yield from walk([start], [])
