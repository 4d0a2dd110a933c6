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
subcomplex vectors embed into the parent by label).  The cycle witness is
built on label weights and facet masks alone: one detachment peel gives the
re-attach order, and a facet's private vertices are those that no facet
attached before it covers.

One search shape serves both questions: an ordered depth-first walk over
the coordinates that tries ascending values, so the first hit and the
order of the hits are lexicographic, and that drops a prefix as soon as a
per-facet bound shows no completion can qualify.  Split decisions walk the
box 0 <= b <= a over the support of a; enumeration walks the box of
candidate covers.  Neither materialises its box.

Callers that need one generator per degree, not the list (``dmax``
certificates, the brute-force verdict and the smd sweep), share one degree
loop over one twin quotient.  Each degree's walk stops at its first leaf
that passes the split test, ``indecomposable_covers(cx, k)[0]``, so only
degrees without a generator are searched exhaustively.  The split test
runs at every leaf of the walk, so its per-node work is kept flat: one
pass over the facets through the vertex updates the running sums and
takes both minima, the bounds are clamped by comparisons, and b is
written only for values that recurse.

Enumeration facts used by the search, all re-checked by the test suite
against an unoptimized oracle:

* an indecomposable k-cover with k >= 1 has entries <= k (capping an entry
  at k peels off a nonzero 0-cover),
* for k >= 1 it must be a minimal k-cover apart from unit vectors
  (otherwise subtract a unit 0-cover), i.e. every weighted vertex lies in
  some facet whose sum is exactly k,
* facet sums only grow along the walk, so once every facet through a
  weighted vertex sums above k that vertex can never become tight.  The
  walk hands down the mask ``over`` of the facets above k and stops raising
  the current vertex as soon as some weighted vertex has no facet outside
  it; only a facet crossing to k + 1 can bring that about,
* twins, vertices in exactly the same facets, count only by their total:
  facet sums, orders and splits depend on the class totals alone (a split
  of the totals spreads back under a), so the indecomposable k-covers are
  the lifts of those of the twin quotient, one vertex per class.  A facet
  holds all of a class or none, so the quotient keeps the facets, their
  indices and the antichain, and a twin-free complex is the quotient of
  singletons.  Classes are ranked by their last position, so the
  quotient's lexicographic order is that of the lifts putting each total
  on that position, and each such lift is the least of its cover's: the
  first hit stays the first, and
* for k >= 2 nothing below a prefix that is >= 1 on an exact transversal
  T, a set of twin classes with exactly one class in every facet, is a
  hit: any k-cover a' above it splits as 1_T, of order 1, plus a' - 1_T,
  of order >= k - 1 and so nonzero, and the split of the class totals
  spreads back under the lift.  The quotient lists its exact transversals
  once, as class masks grouped by their last class and under a fixed work
  limit (a cut list only prunes less), and only when a degree >= 2 will be
  walked; when the walk raises a class to 1 and a transversal ending there
  is then all >= 1, it stops raising that class.  The walk carries the mask
  of its weighted classes for this, and
* the hits of the quotient depend on its facets alone, so a permutation of
  the classes that maps the facet set onto itself maps hits onto hits.  The
  quotient lists such swaps once, by facet cores (see :func:`_class_swaps`),
  under a fixed work limit and only when a degree >= 2 will be walked.  A
  swap's first pair (lo, hi) holds the least class it moves, so a prefix
  with a[hi] < a[lo] is lex-greater than its image and the walk skips it
  (the lex-leader constraint of Crawford, Ginsberg, Luks and Roy, KR 1996).
  The least hit of an orbit passes every such comparison, so the first hit
  stays the first, and the list closes its kept hits under the swaps
  before it lifts them, and
* a class in one facet only that is that facet's last class is *forced*:
  the walk keeps one value for it, max(0, k - the facet's sum so far).  A
  smaller one leaves the facet below k when it closes, and a larger one
  leaves the class in no tight facet.  That value brings the facet at most
  to k, so no facet newly crosses k, and it depends only on classes ranked
  before it, so the order of the hits stays.  The quotient lists the forced
  classes once, and the step of each free class sets the run of forced
  classes after it in place, under the lex-leader and transversal cuts,
  before it walks on: the walk branches on the free classes alone.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, product
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from .complexes import SimplicialComplex
from .cycles import Cycle, is_cycle, is_special_cycle
from .errors import (
    LengthMismatchError,
    NoFreeVertexError,
    NotAKCoverError,
    NotALeafError,
    NotQuasiTreeError,
    NotSpecialOddCycleError,
    VerificationFailedError,
    check_order,
    echo,
    echo_each,
)
from .quasiforest import (
    RelationTree,
    is_leaf,
    is_quasi_tree,
    minimal_subtree,
    peel_leaves,
)

class CoverVector(NamedTuple):
    """Weight vector with a declared order k (the pair behind x^a t^k)."""

    a: tuple[int, ...]
    k: int

    def to_dict(self) -> dict:
        return {"a": list(self.a), "k": self.k}


class Decomposition(NamedTuple):
    """A witnessing split a = b.a + c.a with b.k + c.k = k."""

    b: CoverVector
    c: CoverVector


_NOT_INTEGRAL = "cover vectors must be nonnegative integers"


def _check_vector(cx: SimplicialComplex, a: Sequence[int]) -> tuple[int, ...]:
    raw = tuple(a)
    try:
        vec = tuple(int(x) for x in raw)
    except (TypeError, ValueError, OverflowError):  # None, "x", inf, nan
        raise ValueError(_NOT_INTEGRAL) from None
    if len(vec) != len(cx.active_vertices):
        raise LengthMismatchError(
            f"vector has {len(vec)} entries, the vertex universe has "
            f"{len(cx.active_vertices)}"
        )
    if any(x != y or y < 0 for x, y in zip(raw, vec)):
        raise ValueError(_NOT_INTEGRAL)
    return vec


def cover_order(cx: SimplicialComplex, a: Sequence[int]) -> int:
    """Largest k for which a is a k-cover: the minimal facet sum."""
    vec = _check_vector(cx, a)
    return min(sum(vec[p] for p in f) for f in cx.positions)


def is_k_cover(cx: SimplicialComplex, a: Sequence[int], k: int) -> bool:
    k = check_order(k)
    return cover_order(cx, a) >= k


# --- decomposability -----------------------------------------------------------


def _lex_first_split(
    a: tuple[int, ...], k: int, facets_at: Sequence, sums: list[int], floor: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically first b with 0 < b < a splitting a at order k.

    The split is valid when cover_order(b) + cover_order(a-b) >= k; the
    orders can then be declared as i = min(cover_order(b), k), j = k - i.
    An ordered DFS tries ascending values on the support of a (zero entries
    of b stay 0, which leaves the lexicographic order intact) and drops a
    prefix as soon as the order b can still reach plus the order a - b can
    still keep falls below k.  ``sums`` holds a's facet sums in the order
    of the facets, and ``facets_at`` gives the facets through a vertex.

    Running minima: per facet j the walk keeps reach[j], b's weight on j
    plus a's weight on j's open slots, and keep[j], the weight a - b keeps
    on j.  Both only fall along a path, so a node updates the facets through
    its vertex alone and hands min(reach) and min(keep), the two bounds,
    down to its children.  At a leaf they are the orders of b and a - b.

    Order floor: if b has order 0, a - b is a k-cover, and so is a - e_v
    for any v with b[v] > 0: a unit at v could be peeled off.  Unless some
    weighted vertex has every facet above k, both parts of a split thus
    have order >= 1, and both bounds are held at ``floor`` = 1 (0 when
    there is such a vertex).  The caller hands the floor in:
    :func:`decompose_cover` scans for such a vertex, while every
    enumeration leaf is a minimal k-cover, which has none, so
    :func:`indecomposable_covers` passes 1 without a scan.
    """
    sup = [t for t, x in enumerate(a) if x > 0]
    reach = list(sums)
    keep = list(sums)
    b = [0] * len(a)
    m = len(sup)
    above = max(sums) + 1  # no running minimum starts above this

    def rec(i: int, lo_reach: int, lo_keep: int) -> Optional[tuple]:
        if i == m:
            hit = tuple(b)  # at floor 0, b = 0 and b = a pass both bounds
            return hit if any(hit) and hit != a else None
        t = sup[i]
        x = a[t]
        at = facets_at[t]
        # each unit of b[t] raises reach and lowers keep on the facets at t
        low_reach = low_keep = above
        for j in at:
            r = reach[j] - x
            reach[j] = r
            if r < low_reach:
                low_reach = r
            if keep[j] < low_keep:
                low_keep = keep[j]
        for val in range(x + 1):
            if val:
                for j in at:
                    reach[j] += 1
                    keep[j] -= 1
            ub_b = low_reach + val
            if ub_b > lo_reach:
                ub_b = lo_reach
            ub_c = low_keep - val
            if ub_c > lo_keep:
                ub_c = lo_keep
            if ub_b + ub_c >= k and ub_b >= floor and ub_c >= floor:
                b[t] = val
                hit = rec(i + 1, ub_b, ub_c)
                if hit is not None:
                    return hit
        for j in at:
            keep[j] += x
        b[t] = 0
        return None

    low = min(sums)
    try:
        return rec(0, low, low)
    finally:
        del rec  # the closure refers to itself; free the cycle now


def decompose_cover(
    cx: SimplicialComplex, a: Sequence[int], k: int
) -> Optional[Decomposition]:
    """A decomposition of the k-cover, or None when it is indecomposable.

    Deterministic: the returned b is the lexicographically first valid
    summand over the componentwise box 0 <= b <= a.
    """
    vec = _check_vector(cx, a)
    k = check_order(k)
    fpos, facets_at = cx.positions, cx.facets_at
    sums = [sum(vec[p] for p in f) for f in fpos]
    if min(sums) < k:
        raise NotAKCoverError(f"{echo_each(vec)} is not a {echo(k)}-cover")
    # a weighted vertex with every facet above k is a unit that peels off
    peelable = any(
        x and all(sums[j] > k for j in facets_at[t]) for t, x in enumerate(vec)
    )
    b = _lex_first_split(vec, k, facets_at, sums, 0 if peelable else 1)
    if b is None:
        return None
    c = tuple(x - y for x, y in zip(vec, b))
    order_b = min(sum(b[p] for p in f) for f in fpos)
    i = min(order_b, k)
    return Decomposition(CoverVector(b, i), CoverVector(c, k - i))


# --- enumeration -----------------------------------------------------------------


def indecomposable_covers(cx: SimplicialComplex, k: int) -> list[CoverVector]:
    """All indecomposable k-covers, sorted lexicographically.

    For k = 0 these are the unit vectors.  For k >= 1 a vertex-order DFS
    tries ascending values up to k, so the candidates come out in
    lexicographic order.  It drops a prefix once a facet whose vertices are
    all set sums below k, and it stops raising a vertex once that leaves
    some weighted vertex, this one or an earlier one, with every facet
    through it above k.  Sums only grow, so such a vertex can lie in no
    tight facet.  Masks of the facets below and above k, handed down the
    walk, make each of these tests one mask test.  Every leaf is thus a
    minimal k-cover, so no unit can be peeled from it, and each is decided
    exactly by :func:`_lex_first_split` with its order floor set to 1.
    Twins walk as one vertex of the twin quotient, and the hits are lifted.
    For k >= 2 a prefix that weights a whole exact transversal ends the
    walk of its last class, whose leaves all split, and class swaps keep
    one hit per orbit, whose images are added back.  A class that lies in
    one facet and closes it has one admissible value and is set in place,
    not walked (see the module notes).
    """
    k = check_order(k)
    return _indecomposables(_twin_quotient(cx, k), k, False)


def _first_indecomposable_cover(cx: SimplicialComplex, k: int) -> Optional[CoverVector]:
    """``indecomposable_covers(cx, k)[0]``, or None, without listing the rest."""
    k = check_order(k)
    return next(_first_hits(cx, k, k))[1]


def _first_hits(cx: SimplicialComplex, k_lo: int, k_hi: int) -> Iterator[tuple]:
    """Each degree's first hit, (k, cover or None) for k_lo..k_hi, on one quotient."""
    q = _twin_quotient(cx, k_hi)
    for k in range(k_lo, k_hi + 1):
        found = _indecomposables(q, k, True)
        yield k, found[0] if found else None


class _Quotient(NamedTuple):
    """The twin quotient and the walk's tables on it; see :func:`_twin_quotient`."""

    classes: list  # member positions per class, ranked by their last member
    positions: list  # the class ranks of each facet
    facets_at: list  # the facets through each class
    meets: list  # the same, as facet masks
    closes: list  # masks of the facets each class is last in
    transversals: list  # exact transversals as class masks, by last class
    swaps: list  # automorphisms, each a tuple of class pairs (lo, hi)
    leaders: list  # per class, the lo of each swap whose first pair ends there
    forced: list  # per class, the facet it closes and lies in alone, else None


def _twin_quotient(cx: SimplicialComplex, k_hi: int) -> _Quotient:
    """The twin quotient and the walk's tables on it, built once per complex.

    Exact transversals and class swaps are searched only if a degree
    ``k_hi`` >= 2 will be walked; see the module notes,
    :func:`_exact_transversals` and :func:`_class_swaps`.
    """
    twins: dict[tuple[int, ...], list[int]] = {}
    for p, at in enumerate(cx.facets_at):
        twins.setdefault(at, []).append(p)
    classes = sorted(twins.values(), key=itemgetter(-1))
    m = len(classes)
    facets_at = [cx.facets_at[members[0]] for members in classes]
    positions: list[list[int]] = [[] for _ in cx.positions]
    fmask = [0] * len(positions)  # the class mask of each facet
    meets = []
    for c, at in enumerate(facets_at):
        mask = 0
        for j in at:
            positions[j].append(c)
            fmask[j] |= 1 << c
            mask |= 1 << j
        meets.append(mask)
    closes = [0] * m
    forced: list = [None] * (m + 1)  # None past the last class ends every run
    for j, f in enumerate(positions):
        c = f[-1]
        closes[c] |= 1 << j
        if len(facets_at[c]) == 1:
            forced[c] = j
    swaps = _class_swaps(facets_at, meets, fmask) if k_hi >= 2 else []
    leaders: list[list[int]] = [[] for _ in classes]
    for (lo, hi), *_ in swaps:
        leaders[hi].append(lo)  # a lex-leader has a[lo] <= a[hi]
    transversals = _exact_transversals(positions, meets) if k_hi >= 2 else [()] * m
    return _Quotient(
        classes, positions, facets_at, meets, closes, transversals, swaps, leaders, forced
    )


# search nodes spent on exact transversals per complex; past it the walk
# prunes with those found so far, which is only slower
_TRANSVERSAL_WORK = 50_000


def _exact_transversals(fpos: list, meets: list) -> list[list[int]]:
    """Class masks with exactly one class in every facet, grouped by last class.

    An exact-cover search: the lowest facet not yet met branches on its
    classes that meet no facet met so far, so each transversal is found
    once.  ``meets`` holds each class's facet mask.
    """
    full = (1 << len(fpos)) - 1
    ends: list[list[int]] = [[] for _ in meets]
    work = _TRANSVERSAL_WORK

    def rec(met: int, chosen: int) -> None:
        nonlocal work
        work -= 1
        if met == full:
            ends[chosen.bit_length() - 1].append(chosen)
            return
        open_ = full & ~met
        for c in fpos[(open_ & -open_).bit_length() - 1]:
            if work > 0 and not meets[c] & met:
                rec(met | meets[c], chosen | 1 << c)

    try:
        rec(0, 0)
    finally:
        del rec  # the closure refers to itself; free the cycle now
    return ends


# facet tests spent on class swaps per complex; past it the walk breaks
# symmetry with the swaps found so far, which is only slower
_SWAP_WORK = 50_000


def _class_swaps(facets_at: list, meets: list, fmask: list) -> list[tuple]:
    """Class permutations that keep the facet set, found by facet cores.

    A class in one facet is that facet's private class, and its value at
    every hit is forced, max(0, k - the rest of the facet); the facet's core
    is its class mask less that class.  So a swap of private classes alone
    fixes every hit, and only a transposition (i j) of shared classes in
    equally many facets is tried: it is a swap when it maps every core onto
    a core held by as many facets, with a private class or without alike,
    and the private classes follow their facets.  Each swap is a tuple of
    disjoint class pairs (lo, hi), lo < hi, sorted by lo, so the walk needs
    one comparison per swap, a[lo] <= a[hi] on its first pair.  With no two
    shared classes in equally many facets, no core is built.  ``meets``
    holds each class's facet mask and ``fmask`` each facet's class mask.
    """
    private: list = [None] * len(fmask)
    alike: dict[int, list[int]] = {}  # the shared classes by facet count
    for c, at in enumerate(facets_at):
        if len(at) == 1:
            private[at[0]] = c
        else:
            alike.setdefault(len(at), []).append(c)
    groups = [group for group in alike.values() if len(group) > 1]
    if not groups:
        return []
    core = [f if p is None else f ^ 1 << p for f, p in zip(fmask, private)]
    held: dict[int, list] = {}  # each core, with the private classes of its facets
    for c, p in zip(core, private):
        held.setdefault(c, []).append(p)
    # a core's facets each hold a private class, or it is one facet with none
    shape = {c: 0 if ps[0] is None else len(ps) for c, ps in held.items()}
    swaps: list[tuple] = []
    work = _SWAP_WORK
    for group in groups:
        for x, i in enumerate(group):
            for j in group[x + 1 :]:
                ij = 1 << i | 1 << j
                pairs = {(i, j)}
                moved = meets[i] ^ meets[j]  # the facets whose core moves
                while moved:
                    work -= 1
                    if work < 0:
                        return swaps
                    f = (moved & -moved).bit_length() - 1
                    moved ^= 1 << f
                    mine = core[f]
                    if shape[mine] != shape.get(mine ^ ij):
                        break
                    if shape[mine]:  # the private classes follow
                        ps, qs = held[mine], held[mine ^ ij]
                        pairs.update(zip(map(min, ps, qs), map(max, ps, qs)))
                else:
                    swaps.append(tuple(sorted(pairs)))
    return swaps


def _facet_swaps(cx: SimplicialComplex) -> list[list[tuple[int, int]]]:
    """Facet permutations of ``cx`` that class permutations induce.

    Each swap of :func:`_class_swaps` sends facet j to the facet whose class
    mask is j's with the swapped classes exchanged.  Two facets with the
    same core trade places when their private classes are exchanged, a swap
    that the walk leaves out, as it fixes every hit; each such pair of
    neighbours in a core's facet list is one more permutation.  All are
    products of disjoint transpositions, listed as pairs (j, h), j < h.
    Transpositions generate the symmetric group on each component of the
    graph they span, so one that joins two facets of a component spanned
    by those kept before it is left out.
    """
    q = _twin_quotient(cx, 2)
    fmask = [sum(1 << c for c in f) for f in q.positions]
    index = {mask: j for j, mask in enumerate(fmask)}
    perms = []
    for swap in q.swaps:
        pairs = []
        for j, mask in enumerate(fmask):
            for lo, hi in swap:
                if (mask >> lo ^ mask >> hi) & 1:
                    mask ^= 1 << lo | 1 << hi
            if j < index[mask]:
                pairs.append((j, index[mask]))
        perms.append(pairs)
    alike: dict[int, list[int]] = {}  # the facets with a private class, by core
    for j, f in enumerate(q.positions):
        for c in f:
            if len(q.facets_at[c]) == 1:
                alike.setdefault(fmask[j] ^ 1 << c, []).append(j)
    for js in alike.values():
        perms += [[pair] for pair in zip(js, js[1:])]
    kept, up = [], list(range(len(fmask)))  # a forest of the kept transpositions
    for pairs in perms:
        if len(pairs) == 1:
            j, h = pairs[0]
            while up[j] != j:
                j = up[j]
            while up[h] != h:
                h = up[h]
            if j == h:
                continue
            up[h] = j
        kept.append(pairs)
    return kept


def _facet_orbit(perms: list, mask: int) -> list[int]:
    """The orbit of a facet mask under the permutations of :func:`_facet_swaps`."""
    orbit = [mask]
    seen = {mask}
    for m in orbit:  # grows while it is read
        for pairs in perms:
            image = m
            for j, h in pairs:
                if (m >> j ^ m >> h) & 1:
                    image ^= 1 << j | 1 << h
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def _indecomposables(q: _Quotient, k: int, first: bool) -> list[CoverVector]:
    """The walk behind :func:`indecomposable_covers`; ``first`` stops at one hit.

    For k >= 1 it walks the classes of the twin quotient ``q``, then lifts.
    """
    classes, fpos, facets_at = q.classes, q.positions, q.facets_at
    meets, closes, ends, leaders, forced = q.meets, q.closes, q.transversals, q.leaders, q.forced
    n = sum(map(len, classes))
    if k == 0:
        units = [tuple(int(i == t) for i in range(n)) for t in reversed(range(n))]
        return [CoverVector(u, 0) for u in units[: 1 if first else n]]
    m = len(facets_at)
    sums = [0] * len(fpos)
    a = [0] * m
    hits: list[tuple[int, ...]] = []
    if k == 1:  # a transversal's indicator is then a hit, not a summand
        ends = [()] * m

    def fold(t: int, sup: int, short: int, over: int) -> bool:
        """Set the forced classes from t on in place, then walk the next free class.

        Each takes max(0, k - its facet's sum), the one value that rec's value
        loop would keep; when the lex-leader or transversal cut drops that
        value, the prefix has no leaf.
        """
        c = t
        found = False
        while (j := forced[c]) is not None:
            x = k - sums[j] if sums[j] < k else 0
            cut = False  # whether a cut of rec's value loop drops that value
            for lo in leaders[c]:
                if a[lo] > x:
                    cut = True  # the prefix is lex-greater than an image
            if x:
                sup |= 1 << c
                for T in ends[c]:
                    if not T & ~sup:
                        cut = True  # every leaf splits off 1_T
            if cut:
                break
            if x:
                a[c] = x
                sums[j] = k
                short ^= 1 << j
            c += 1
        else:
            found = rec(c, sup, short, over)
        for u in range(t, c):
            sums[forced[u]] -= a[u]
            a[u] = 0
        return found

    def rec(t: int, sup: int, short: int, over: int) -> bool:
        """Walk the free class t and the classes after it; True once ``first`` has its hit.

        The masks are of the classes set >= 1 and the facets below and above k.
        """
        if t == m:
            cand = tuple(a)
            if _lex_first_split(cand, k, facets_at, sums, 1) is None:
                hits.append(cand)
                return first
            return False
        at = facets_at[t]
        closing = closes[t]
        least = 0  # a value below it leaves the prefix lex-greater than an image
        for lo in leaders[t]:
            if a[lo] > least:
                least = a[lo]
        go = rec if forced[t + 1] is None else fold
        # the facets whose last class is t must have reached k
        if not least and not closing & short and go(t + 1, sup, short, over):
            return True
        raised = sup | 1 << t
        for T in ends[t]:
            if not T & ~raised:
                return False  # every leaf with a[t] >= 1 splits off 1_T
        for val in range(1, k + 1):
            a[t] = val
            stuck = not meets[t] & ~over
            for j in at:
                s = sums[j] + 1
                sums[j] = s
                if s == k:
                    short ^= 1 << j
                elif s == k + 1:
                    over |= 1 << j
                    for u in fpos[j]:
                        if a[u] and not meets[u] & ~over:
                            stuck = True
            if stuck:
                break
            if val >= least and not closing & short and go(t + 1, raised, short, over):
                return True
        x = a[t]
        for j in at:
            sums[j] -= x
        a[t] = 0
        return False

    try:
        fold(0, 0, (1 << len(fpos)) - 1, 0)
    finally:
        del fold, rec  # the closures refer to each other; free the cycle now
    if not first:  # each orbit kept its least hit; the swaps give back the rest
        seen = set(hits)
        for hit in hits:  # grows while it is read
            for swap in q.swaps:
                image = list(hit)
                for lo, hi in swap:
                    image[lo], image[hi] = image[hi], image[lo]
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    hits.append(image)
    lifts = []
    for hit in hits:
        # a spread of x over a class is a multiset of x of its members
        spreads = [
            combinations_with_replacement(members[-1:] if first else members, x)
            for members, x in zip(classes, hit)
        ]
        for parts in product(*spreads):
            vec = [0] * n
            for p in chain.from_iterable(parts):
                vec[p] += 1
            lifts.append(CoverVector(tuple(vec), k))
    return sorted(lifts)


def max_generator_degree(
    cx: SimplicialComplex, k_max: int
) -> tuple[int, dict[int, CoverVector]]:
    """Largest k <= k_max with an indecomposable k-cover, plus certificates.

    Returns (d, certificates) where certificates maps each realized degree
    to its lexicographically smallest indecomposable cover, the first hit of
    each degree's walk.  Degrees above k_max are not explored; callers must
    report d as a bound-limited value.
    """
    k_max = check_order(k_max, 1, "k_max")
    certificates = {k: hit for k, hit in _first_hits(cx, 1, k_max) if hit is not None}
    return max(certificates, default=0), certificates


# --- leaf extension and the cycle witness -------------------------------------


def _extend(weight: dict, cx: SimplicialComplex, base, leaves, k: int) -> CoverVector:
    """Extend label weights on the base facets across leaves attached in turn.

    Each leaf's lowest private label, one that no facet attached before the
    leaf covers, gets the deficit max(0, k - w), w the weight on the leaf.
    """
    covered = 0
    for fid in base:
        covered |= cx.mask(fid)
    for leaf in leaves:
        private = cx.mask(leaf) & ~covered
        if not private:
            raise NoFreeVertexError(
                f"leaf {leaf} has no private vertex; the facet antichain is broken"
            )
        have = sum(weight.get(v, 0) for v in cx.facet(leaf))
        weight[(private & -private).bit_length()] = max(0, k - have)
        covered |= cx.mask(leaf)
    return CoverVector(tuple(weight.get(v, 0) for v in cx.active_vertices), k)


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
    if leaf not in d_ids or set(gamma.facet_ids) != d_ids - {leaf}:
        raise ValueError("gamma must be delta with exactly the leaf facet removed")
    if not is_leaf(delta, leaf):
        raise NotALeafError(f"facet {leaf} is not a leaf of the larger complex")
    if len(cover.a) != len(gamma.active_vertices):
        raise LengthMismatchError(
            "cover vector does not match the reduced complex's vertex universe"
        )
    weight = dict(zip(gamma.active_vertices, _check_vector(gamma, cover.a)))
    return _extend(weight, delta, gamma.facet_ids, (leaf,), check_order(cover.k))


def witness_cover_from_cycle(
    cx: SimplicialComplex, tree: RelationTree, cycle: Cycle
) -> CoverVector:
    """Indecomposable 2-cover of a quasi-tree built from a special odd cycle.

    On the core, the minimal subtree of the relation tree spanning the
    cycle's facets, the 0/1 indicator of the cycle's vertices is a 2-cover
    (every core facet meets the cycle twice) and indecomposable (special +
    odd).  One peel of ``cx`` down to the core detaches the other facets;
    they are re-attached in reverse order, each placing its deficit on its
    lowest private vertex as :func:`extend_cover_by_leaf` does.  The result
    is re-checked with :func:`decompose_cover` before it is returned.  The
    quasi-tree guard peels once more, before the detachment.
    """
    if not is_quasi_tree(cx):
        raise NotQuasiTreeError("witness construction requires a quasi-tree")
    if set(tree.nodes) != set(cx.facet_ids):
        raise ValueError("relation tree does not belong to this complex")
    if not is_cycle(cx, cycle.vertices, cycle.facets):
        raise NotSpecialOddCycleError("witness input is not a cycle")
    if not cycle.is_odd() or not is_special_cycle(cx, cycle):
        raise NotSpecialOddCycleError(
            "witness input must be a special cycle of odd length >= 3"
        )
    return _witness_cover(cx, tree, cycle)


def _witness_cover(
    cx: SimplicialComplex, tree: RelationTree, cycle: Cycle
) -> CoverVector:
    """The witness past the guards, which ``is_standard_graded`` has just met.

    It still peels to detach, and it re-checks the cover it returns.
    """
    core = minimal_subtree(tree, cycle.facets)
    steps = peel_leaves(cx, keep=frozenset(core.nodes))
    if steps is None:
        raise VerificationFailedError(
            "no detachable leaf outside the cycle core; not a quasi-tree?"
        )
    leaves = [fid for fid, _ in reversed(steps)]
    cover = _extend({v: 1 for v in cycle.vertices}, cx, core.nodes, leaves, 2)
    if not is_k_cover(cx, cover.a, 2):
        raise VerificationFailedError("constructed witness is not a 2-cover")
    if decompose_cover(cx, cover.a, 2) is not None:
        raise VerificationFailedError("constructed witness is decomposable")
    return cover
