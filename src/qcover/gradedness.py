"""Standard-gradedness decisions with machine-checkable witnesses.

For quasi-trees the cover algebra is standard graded exactly when the
complex has no special odd cycle, so the criterion path is exact and needs
no degree bound.  When a cycle exists, the degree-2 witness cover built
from it certifies non-standard-gradedness concretely.  The brute-force path
enumerates indecomposable covers degree by degree up to a bound and works
for arbitrary complexes; its positive answers are exact, its negative
answers are bound-limited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .complexes import SimplicialComplex, smd
from .covers import CoverVector, indecomposable_covers, witness_cover_from_cycle
from .cycles import Cycle, find_special_odd_cycle, DEFAULT_CYCLE_BUDGET
from .errors import NotQuasiTreeError
from .quasiforest import (
    BranchRule,
    is_quasi_tree,
    leaf_order,
    min_branch_rule,
    relation_tree,
)


@dataclass(frozen=True)
class Verdict:
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
    """
    if not is_quasi_tree(cx):
        raise NotQuasiTreeError(
            "the cycle criterion only decides quasi-trees; "
            "brute_force_verdict handles arbitrary complexes up to a bound"
        )
    cyc = find_special_odd_cycle(cx, budget=budget)
    if cyc is None:
        return Verdict(standard_graded=True, method="criterion")
    order = leaf_order(cx)
    tree = relation_tree(cx, order, branch_rule)
    cover = witness_cover_from_cycle(cx, tree, cyc)
    return Verdict(
        standard_graded=False,
        cycle_witness=cyc,
        cover_witness=cover,
        method="criterion",
    )


def brute_force_verdict(cx: SimplicialComplex, k_max: int) -> Verdict:
    """Bound-limited decision by enumerating indecomposable covers.

    Works on any complex.  A generator of degree 2..k_max disproves
    standard gradedness exactly; finding none only certifies it up to the
    bound, which the verdict records in ``bound_used``.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    for k in range(2, k_max + 1):
        found = indecomposable_covers(cx, k)
        if found:
            return Verdict(
                standard_graded=False,
                cover_witness=found[0],
                method="brute_force",
                bound_used=k_max,
            )
    return Verdict(standard_graded=True, method="brute_force", bound_used=k_max)


@dataclass(frozen=True)
class CrossValidation:
    """Agreement report between the criterion and the brute force."""

    agree: bool
    criterion: Verdict
    brute_force: Verdict
    smd_sweep: Optional[list[dict]] = field(default=None, compare=False)

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

    With k_max >= 2 the two must agree: a special odd cycle forces an
    indecomposable 2-cover, and its absence forces standard gradedness.  A
    disagreement therefore indicates an engine bug and callers should
    persist both witnesses for triage.

    ``sweep_smds`` additionally walks every facet-subset subcomplex and
    records, per subcomplex, whether a special odd cycle and a degree-2
    generator exist; a degree-2 generator without a cycle in the same
    subcomplex is flagged inconsistent.
    """
    if not is_quasi_tree(cx):
        raise NotQuasiTreeError("cross validation requires a quasi-tree")
    crit = is_standard_graded(cx, branch_rule=branch_rule)
    brute = brute_force_verdict(cx, k_max)
    sweep = None
    if sweep_smds:
        sweep = []
        ids = list(cx.facet_ids)
        for r in range(1, len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                view = smd(cx, subset)
                has_cycle = find_special_odd_cycle(view) is not None
                has_deg2 = bool(indecomposable_covers(view, 2))
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
