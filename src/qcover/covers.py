"""k-covers, decomposability, generator enumeration, and witness covers.

A nonnegative integer vertex weighting ``a`` is a *k-cover* when it sums to
at least k on every facet; its *order* is the largest such k.  A k-cover is
*decomposable* when it splits as a = b + c with b an i-cover, c a j-cover,
i + j = k and both summands nonzero as vectors (their declared orders may
be zero).  Indecomposable pairs (a, k) are exactly the minimal generators
of the cover algebra in degree k, so enumerating them bounds the maximal
generator degree from below degree by degree.

Vectors here are plain tuples aligned with the active vertex universe of
whichever complex or subcomplex they belong to (sorted original labels, so
subcomplex vectors embed into the parent by label).

Enumeration facts used by the search, both re-checked by the test suite
against an unoptimized oracle:

* an indecomposable k-cover with k >= 1 has entries <= k (capping an entry
  at k peels off a nonzero 0-cover), and
* for k >= 1 it must be a minimal k-cover apart from unit vectors
  (otherwise subtract a unit 0-cover), i.e. every weighted vertex lies in
  some facet whose sum is exactly k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .complexes import SimplicialComplex, smd
from .cycles import Cycle, is_cycle, is_special_cycle
from .errors import (
    LengthMismatchError,
    NoFreeVertexError,
    NotAKCoverError,
    NotALeafError,
    NotQuasiTreeError,
    NotSpecialOddCycleError,
    VerificationFailedError,
)
from .quasiforest import (
    RelationTree,
    free_vertices,
    is_leaf,
    is_quasi_tree,
    minimal_subtree,
    peel_leaves,
)

# a single numpy sweep handles at most this many candidate rows; larger
# boxes are cut into lexicographic chunks over the leading coordinates
_NUMPY_ROWS = 1 << 21


@dataclass(frozen=True)
class CoverVector:
    """Weight vector with a declared order k (the pair behind x^a t^k)."""

    a: tuple[int, ...]
    k: int

    def to_dict(self) -> dict:
        return {"a": list(self.a), "k": self.k}


@dataclass(frozen=True)
class Decomposition:
    """A witnessing split a = b.a + c.a with b.k + c.k = k."""

    b: CoverVector
    c: CoverVector


def _facet_positions(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    pos = {v: i for i, v in enumerate(cx.active_vertices)}
    return [tuple(sorted(pos[v] for v in f)) for f in cx.facets]


def _check_vector(cx: SimplicialComplex, a: Sequence[int]) -> tuple[int, ...]:
    vec = tuple(int(x) for x in a)
    if len(vec) != len(cx.active_vertices):
        raise LengthMismatchError(
            f"vector has {len(vec)} entries, the vertex universe has "
            f"{len(cx.active_vertices)}"
        )
    if any(x < 0 for x in vec):
        raise ValueError("cover vectors must be nonnegative")
    return vec


def cover_order(cx: SimplicialComplex, a: Sequence[int]) -> int:
    """Largest k for which a is a k-cover: the minimal facet sum."""
    vec = _check_vector(cx, a)
    return min(sum(vec[p] for p in f) for f in _facet_positions(cx))


def is_k_cover(cx: SimplicialComplex, a: Sequence[int], k: int) -> bool:
    if k < 0:
        raise ValueError("cover order must be nonnegative")
    return cover_order(cx, a) >= k


# --- decomposability -----------------------------------------------------------


def _lex_first_split(
    a: tuple[int, ...], k: int, fpos: list[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """Lexicographically first b with 0 < b < a splitting a at order k.

    The split is valid when cover_order(b) + cover_order(a-b) >= k; the
    orders can then be declared as i = min(cover_order(b), k), j = k - i.
    """
    n = len(a)
    rows = 1
    for x in a:
        rows *= x + 1
    if rows <= 2:
        return None
    a_sums = [sum(a[p] for p in f) for f in fpos]

    if rows <= _NUMPY_ROWS:
        grids = np.meshgrid(*[np.arange(x + 1) for x in a], indexing="ij")
        box = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int32)
        sums = np.zeros((box.shape[0], len(fpos)), dtype=np.int32)
        for j, f in enumerate(fpos):
            sums[:, j] = box[:, list(f)].sum(axis=1)
        order_b = sums.min(axis=1)
        order_c = (np.asarray(a_sums, dtype=np.int32) - sums).min(axis=1)
        ok = order_b + order_c >= k
        ok[0] = False
        ok[-1] = False
        if not ok.any():
            return None
        return tuple(int(x) for x in box[int(np.argmax(ok))])

    # big boxes: ordered DFS with a per-facet feasibility bound
    m = len(fpos)
    suffix = [[0] * (n + 1) for _ in range(m)]
    for j, f in enumerate(fpos):
        in_f = [False] * n
        for p in f:
            in_f[p] = True
        for t in range(n - 1, -1, -1):
            suffix[j][t] = suffix[j][t + 1] + (a[t] if in_f[t] else 0)
    facets_at = [[j for j, f in enumerate(fpos) if t in f] for t in range(n)]
    b = [0] * n
    b_sums = [0] * m

    def rec(t: int) -> Optional[tuple[int, ...]]:
        if t == n:
            if all(x == 0 for x in b) or list(a) == b:
                return None
            ob = min(b_sums)
            oc = min(a_sums[j] - b_sums[j] for j in range(m))
            return tuple(b) if ob + oc >= k else None
        for val in range(a[t] + 1):
            b[t] = val
            for j in facets_at[t]:
                b_sums[j] += val
            ub_b = min(b_sums[j] + suffix[j][t + 1] for j in range(m))
            ub_c = min(a_sums[j] - b_sums[j] for j in range(m))
            if ub_b + ub_c >= k:
                hit = rec(t + 1)
                if hit is not None:
                    for j in facets_at[t]:
                        b_sums[j] -= val
                    b[t] = 0
                    return hit
            for j in facets_at[t]:
                b_sums[j] -= val
        b[t] = 0
        return None

    return rec(0)


def _splittable(a: tuple[int, ...], k: int, fpos: list[tuple[int, ...]]) -> bool:
    """Decomposability decision only (no witness, cheap exits first)."""
    if k == 0:
        return sum(a) >= 2
    if sum(a) < 2:
        return False
    a_sums = [sum(a[p] for p in f) for f in fpos]
    # peel one unit off a vertex with slack in all of its facets
    for i, x in enumerate(a):
        if x > 0 and all(
            a_sums[j] >= k + 1 for j, f in enumerate(fpos) if i in f
        ):
            return True
    return _lex_first_split(a, k, fpos) is not None


def decompose_cover(
    cx: SimplicialComplex, a: Sequence[int], k: int
) -> Optional[Decomposition]:
    """A decomposition of the k-cover, or None when it is indecomposable.

    Deterministic: the returned b is the lexicographically first valid
    summand over the componentwise box 0 <= b <= a.
    """
    vec = _check_vector(cx, a)
    if k < 0:
        raise ValueError("cover order must be nonnegative")
    fpos = _facet_positions(cx)
    if min(sum(vec[p] for p in f) for f in fpos) < k:
        raise NotAKCoverError(f"{list(vec)} is not a {k}-cover")
    b = _lex_first_split(vec, k, fpos)
    if b is None:
        return None
    c = tuple(x - y for x, y in zip(vec, b))
    order_b = min(sum(b[p] for p in f) for f in fpos)
    i = min(order_b, k)
    return Decomposition(CoverVector(b, i), CoverVector(c, k - i))


# --- enumeration -----------------------------------------------------------------


def _candidate_block(
    prefix: tuple[int, ...],
    tail_n: int,
    cap: int,
    fpos: list[tuple[int, ...]],
    k: int,
    minimal: bool,
) -> list[tuple[int, ...]]:
    """All surviving candidates extending one fixed prefix, in lex order."""
    t = len(prefix)
    n = t + tail_n
    if tail_n == 0:
        block = np.asarray([prefix], dtype=np.int32)
    else:
        grids = np.meshgrid(*([np.arange(cap + 1)] * tail_n), indexing="ij")
        tail = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int32)
        block = np.concatenate(
            [np.broadcast_to(np.asarray(prefix, np.int32), (tail.shape[0], t)), tail],
            axis=1,
        )
    sums = np.zeros((block.shape[0], len(fpos)), dtype=np.int32)
    for j, f in enumerate(fpos):
        sums[:, j] = block[:, list(f)].sum(axis=1)
    keep = (sums >= k).all(axis=1)
    keep &= block.any(axis=1)
    if minimal:
        tight = sums == k
        for i in range(n):
            cols = [j for j, f in enumerate(fpos) if i in f]
            has_tight = tight[:, cols].any(axis=1)
            keep &= (block[:, i] == 0) | has_tight
    return [tuple(int(x) for x in row) for row in block[keep]]


def indecomposable_covers(cx: SimplicialComplex, k: int) -> list[CoverVector]:
    """All indecomposable k-covers, sorted lexicographically.

    Candidates range over the box with entries <= k (<= 1 for k = 0); for
    k >= 1 they are further restricted to minimal k-covers, the only
    non-unit vectors that can survive the decomposability filter.  Each
    candidate is then decided exactly.
    """
    if k < 0:
        raise ValueError("cover order must be nonnegative")
    fpos = _facet_positions(cx)
    n = len(cx.active_vertices)
    cap = 1 if k == 0 else k
    minimal = k >= 1

    tail_n = n
    while (cap + 1) ** tail_n > _NUMPY_ROWS and tail_n > 0:
        tail_n -= 1
    head_n = n - tail_n

    out: list[CoverVector] = []
    for prefix in itertools.product(range(cap + 1), repeat=head_n):
        # a facet cannot reach k even with a full tail: skip the prefix
        skip = False
        for f in fpos:
            got = sum(prefix[p] for p in f if p < head_n)
            room = cap * sum(1 for p in f if p >= head_n)
            if got + room < k:
                skip = True
                break
        if skip:
            continue
        for cand in _candidate_block(prefix, tail_n, cap, fpos, k, minimal):
            if not _splittable(cand, k, fpos):
                out.append(CoverVector(cand, k))
    return out


def max_generator_degree(
    cx: SimplicialComplex, k_max: int
) -> tuple[int, dict[int, CoverVector]]:
    """Largest k <= k_max with an indecomposable k-cover, plus certificates.

    Returns (d, certificates) where certificates maps each realized degree
    to its lexicographically smallest indecomposable cover.  Degrees above
    k_max are not explored; callers must report d as a bound-limited value.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    certificates: dict[int, CoverVector] = {}
    d = 0
    for k in range(1, k_max + 1):
        found = indecomposable_covers(cx, k)
        if found:
            certificates[k] = found[0]
            d = k
    return d, certificates


# --- leaf extension and the cycle witness -------------------------------------


def extend_cover_by_leaf(
    gamma: SimplicialComplex,
    delta: SimplicialComplex,
    leaf: int,
    cover: CoverVector,
) -> CoverVector:
    """Extend a cover of delta-minus-leaf to delta across the leaf facet.

    The extension keeps every old weight (matched by vertex label), gives
    the smallest free vertex of the leaf the *deficit* max(0, k - w) where
    w is the weight the cover already places on the leaf facet, and sets
    any other new vertex to 0.  Placing exactly the deficit (rather than a
    flat k) is what keeps indecomposable covers indecomposable: any flat
    placement on an already partially covered leaf splits off a 0-cover on
    the free vertex.
    """
    d_ids = set(delta.facet_ids)
    g_ids = set(gamma.facet_ids)
    if leaf not in d_ids or g_ids != d_ids - {leaf}:
        raise ValueError("gamma must be delta with exactly the leaf facet removed")
    if not is_leaf(delta, leaf):
        raise NotALeafError(f"facet {leaf} is not a leaf of the larger complex")
    if len(cover.a) != len(gamma.active_vertices):
        raise LengthMismatchError(
            "cover vector does not match the reduced complex's vertex universe"
        )
    free = free_vertices(delta, leaf)
    if not free:
        raise NoFreeVertexError(
            f"leaf {leaf} has no private vertex; the facet antichain is broken"
        )
    target = min(free)

    weight = {v: w for v, w in zip(gamma.active_vertices, cover.a)}
    leaf_sum = sum(weight.get(v, 0) for v in delta.facet(leaf))
    deficit = max(0, cover.k - leaf_sum)
    ext = [weight.get(v, 0) for v in delta.active_vertices]
    ext[delta.active_vertices.index(target)] += deficit
    return CoverVector(tuple(ext), cover.k)


def witness_cover_from_cycle(
    cx: SimplicialComplex, tree: RelationTree, cycle: Cycle
) -> CoverVector:
    """Indecomposable 2-cover of a quasi-tree built from a special odd cycle.

    Construction: take the minimal subtree of the relation tree spanning the
    cycle's facets; on that subcomplex the 0/1 indicator of the cycle's
    vertices is a 2-cover (every subtree facet meets the cycle twice) and
    indecomposable (special + odd); then re-attach the remaining facets in
    reverse leaf-removal order via :func:`extend_cover_by_leaf`.  The result
    is re-checked with :func:`decompose_cover` before it is returned.
    """
    if not is_quasi_tree(cx):
        raise NotQuasiTreeError("witness construction requires a quasi-tree")
    if set(tree.nodes) != set(cx.facet_ids):
        raise ValueError("relation tree does not belong to this complex")
    if not is_cycle(cx, cycle.vertices, cycle.facets):
        raise NotSpecialOddCycleError("witness input is not a cycle")
    if not cycle.is_odd() or cycle.s < 3 or not is_special_cycle(cx, cycle):
        raise NotSpecialOddCycleError(
            "witness input must be a special cycle of odd length >= 3"
        )

    core = minimal_subtree(tree, cycle.facets)
    detached: list[int] = []
    for fid, branches in peel_leaves(cx, keep=frozenset(core.nodes)):
        if not branches:
            raise VerificationFailedError(
                "no detachable leaf outside the cycle core; not a quasi-tree?"
            )
        detached.append(fid)

    gamma = smd(cx, core.nodes)
    cyc_verts = set(cycle.vertices)
    vec = tuple(1 if v in cyc_verts else 0 for v in gamma.active_vertices)
    cover = CoverVector(vec, 2)
    for fid in reversed(detached):
        delta = smd(cx, gamma.facet_ids + (fid,))
        cover = extend_cover_by_leaf(gamma, delta, fid, cover)
        gamma = delta

    if len(cover.a) != len(cx.active_vertices):
        raise VerificationFailedError("witness vector lost vertices on the way up")
    if not is_k_cover(cx, cover.a, 2):
        raise VerificationFailedError("constructed witness is not a 2-cover")
    if decompose_cover(cx, cover.a, 2) is not None:
        raise VerificationFailedError("constructed witness is decomposable")
    return cover
