"""Standard-gradedness decisions with machine-checkable witnesses.

For quasi-trees the cover algebra is standard graded exactly when the
complex has no special odd cycle, so the criterion path is exact and needs
no degree bound.  When a cycle exists, the degree-2 witness cover built
from it, with the relation tree of the leaf-order peel, certifies
non-standard-gradedness concretely.  The brute-force path
enumerates indecomposable covers degree by degree up to a bound and works
for arbitrary complexes; its positive answers are exact, its negative
answers are bound-limited.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple, Optional

from .complexes import SimplicialComplex, smd
from .cycles import Cycle, find_special_odd_cycle, DEFAULT_CYCLE_BUDGET
from .errors import NotQuasiTreeError, check_order
from .quasiforest import BranchRule, _tree_from_steps, min_branch_rule, peel_leaves

if TYPE_CHECKING:  # covers loads on first use: only witnesses and enumeration need it
    from .covers import CoverVector


class Verdict(NamedTuple):
    """Decision plus witnesses.

    ``method`` records which route produced the answer.  A negative verdict
    always carries at least one witness; a positive brute-force verdict is
    only valid up to ``bound_used``.
    """

    standard_graded: bool
    cycle_witness: Optional[Cycle] = None
    cover_witness: Optional[CoverVector] = None
    method: str = "criterion"
    bound_used: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "standard_graded": self.standard_graded,
            "method": self.method,
            "cycle_witness": self.cycle_witness.to_dict() if self.cycle_witness else None,
            "cover_witness": self.cover_witness.to_dict() if self.cover_witness else None,
            "bound_used": self.bound_used,
        }


def is_standard_graded(
    cx: SimplicialComplex,
    branch_rule: BranchRule = min_branch_rule,
    budget: int = DEFAULT_CYCLE_BUDGET,
) -> Verdict:
    """Exact decision for quasi-trees via the special-odd-cycle criterion.

    No cycle means standard graded, with no bound involved.  A cycle is
    returned together with the indecomposable 2-cover constructed from it,
    so both directions of the answer can be re-checked independently.
    Raises NotQuasiTreeError otherwise; use :func:`brute_force_verdict` for
    arbitrary complexes.

    One greedy peel checks the quasi-tree and gives the relation tree; the
    witness builder behind :func:`witness_cover_from_cycle` skips its guards.
    """
    steps = peel_leaves(cx) if cx.is_connected() else None
    if steps is None:
        raise NotQuasiTreeError(
            "the cycle criterion only decides quasi-trees; "
            "brute_force_verdict handles arbitrary complexes up to a bound"
        )
    cyc = find_special_odd_cycle(cx, budget=budget)
    if cyc is None:
        return Verdict(standard_graded=True, method="criterion")
    from .covers import _witness_cover

    cover = _witness_cover(cx, _tree_from_steps(steps, branch_rule), cyc)
    return Verdict(standard_graded=False, cycle_witness=cyc, cover_witness=cover)


def brute_force_verdict(cx: SimplicialComplex, k_max: int) -> Verdict:
    """Bound-limited decision by enumerating indecomposable covers.

    Works on any complex.  A generator of degree 2..k_max disproves
    standard gradedness exactly; finding none only certifies it up to the
    bound, which the verdict records in ``bound_used``.
    """
    from .covers import _first_hits

    k_max = check_order(k_max, 2, "k_max")
    found = next((hit for _, hit in _first_hits(cx, 2, k_max) if hit is not None), None)
    return Verdict(
        found is None, cover_witness=found, method="brute_force", bound_used=k_max
    )


class CrossValidation(NamedTuple):
    """Agreement report of the two routes; equality ignores ``smd_sweep``."""

    agree: bool
    criterion: Verdict
    brute_force: Verdict
    smd_sweep: Optional[list[dict]] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] == other[:3]

    __ne__ = object.__ne__  # not tuple's, which would compare smd_sweep too

    def __hash__(self) -> int:
        return hash(self[:3])

    def to_dict(self) -> dict:
        out = {
            "agree": self.agree,
            "criterion": self.criterion.to_dict(),
            "brute_force": self.brute_force.to_dict(),
        }
        if self.smd_sweep is not None:
            out["smd_sweep"] = self.smd_sweep
        return out


def cross_validate(
    cx: SimplicialComplex,
    k_max: int,
    branch_rule: BranchRule = min_branch_rule,
    sweep_smds: bool = False,
) -> CrossValidation:
    """Run both verdict routes on a quasi-tree and compare them.

    Other complexes raise NotQuasiTreeError from :func:`is_standard_graded`.

    With k_max >= 2 the two must agree: a special odd cycle forces an
    indecomposable 2-cover, and its absence forces standard gradedness.  A
    disagreement therefore indicates an engine bug and callers should
    persist both witnesses for triage.

    ``sweep_smds`` additionally walks every facet-subset subcomplex and
    records, per subcomplex, whether a special odd cycle and a degree-2
    generator exist; a degree-2 generator without a cycle in the same
    subcomplex is flagged inconsistent.  Both answers depend on the view's
    twin quotient alone: a special odd cycle holds at most one vertex per
    twin class, and generators lift from the quotient.  A swap of twin
    classes that keeps the facets maps views onto views with isomorphic
    quotients, so one view per orbit of the swaps is decided, and the full
    selection takes its answers from the two verdicts.
    """
    from .covers import _facet_orbit, _facet_swaps, _first_indecomposable_cover

    # type only: a non-quasi-tree raises NotQuasiTreeError before any bound check
    check_order(k_max, None, "k_max")
    crit = is_standard_graded(cx, branch_rule=branch_rule)
    brute = brute_force_verdict(cx, k_max)
    sweep = None
    if sweep_smds:
        sweep = []
        ids = cx.facet_ids
        bit = {fid: 1 << j for j, fid in enumerate(ids)}
        deg2 = brute.cover_witness is not None and brute.cover_witness.k == 2
        known = {(1 << len(ids)) - 1: (crit.cycle_witness is not None, deg2)}
        perms = _facet_swaps(cx)
        for r in range(1, len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                mask = sum(map(bit.__getitem__, subset))
                if mask not in known:  # the first view of its orbit
                    view = smd(cx, subset)
                    has_cycle = find_special_odd_cycle(view) is not None
                    has_deg2 = _first_indecomposable_cover(view, 2) is not None
                    known |= dict.fromkeys(_facet_orbit(perms, mask), (has_cycle, has_deg2))
                has_cycle, has_deg2 = known[mask]
                sweep.append(
                    {
                        "facet_ids": list(subset),
                        "has_special_odd_cycle": has_cycle,
                        "has_degree2_generator": has_deg2,
                        "consistent": has_cycle or not has_deg2,
                    }
                )
    return CrossValidation(
        agree=crit.standard_graded == brute.standard_graded,
        criterion=crit,
        brute_force=brute,
        smd_sweep=sweep,
    )
