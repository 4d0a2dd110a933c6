"""Verdicts, the criterion/brute-force equivalence, cross-validation."""

import gc
import hashlib
import json
import sys

import pytest

from qcover import (
    Cycle,
    NotQuasiTreeError,
    brute_force_verdict,
    cross_validate,
    decompose_cover,
    find_special_odd_cycle,
    indecomposable_covers,
    is_k_cover,
    is_quasi_tree,
    is_standard_graded,
    leaf_order,
    max_generator_degree,
    new_complex,
    relation_tree,
    witness_cover_from_cycle,
)
from qcover.cli import main
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree
from qcover.fileio import to_json

from corpus import LARGE_SEEDS


def test_delta_negative_verdict_with_both_witnesses():
    v = is_standard_graded(delta_n(3))
    assert not v.standard_graded
    assert v.method == "criterion"
    assert v.bound_used is None
    assert v.cycle_witness == Cycle((1, 2, 3), (2, 4, 3))
    assert v.cover_witness.a == (1, 1, 1, 0, 0, 0)
    assert v.cover_witness.k == 2
    assert decompose_cover(delta_n(3), v.cover_witness.a, 2) is None


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_standard_graded(delta_n(4)),
        lambda: indecomposable_covers(delta_n(3), 2),
        lambda: max_generator_degree(delta_n(3), 4),
    ],
    ids=["is_standard_graded", "indecomposable_covers", "max_generator_degree"],
)
def test_searches_leave_no_garbage_cycles(call):
    # the recursive walks are closures that refer to themselves; a walk that
    # did not break that cycle would leave its complex to the cyclic collector
    call()  # loads what the call loads on first use
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_fan_positive_verdict_is_exact():
    v = is_standard_graded(double_fan())
    assert v.standard_graded
    assert v.method == "criterion"
    assert v.bound_used is None
    assert v.cycle_witness is None and v.cover_witness is None


def test_single_facet_is_standard_graded():
    v = is_standard_graded(new_complex([{1, 2, 3}]))
    assert v.standard_graded


def test_criterion_rejects_non_quasi_trees(peels):
    tri = new_complex([{1, 2}, {2, 3}, {1, 3}])
    with pytest.raises(NotQuasiTreeError):
        is_standard_graded(tri)
    disc = new_complex([{1, 2}, {3, 4}])
    peels.clear()
    with pytest.raises(NotQuasiTreeError):
        is_standard_graded(disc)
    assert peels == []  # connectivity is checked before any peel


# --- peels per call ----------------------------------------------------------


@pytest.fixture()
def peels(monkeypatch):
    """Every call of quasiforest.peel_leaves, as the list of complexes peeled.

    The wrapper replaces each reference a loaded qcover module holds.
    """
    import qcover.cli  # noqa: F401  (loads every module that peels)
    import qcover.covers  # noqa: F401
    from qcover.quasiforest import peel_leaves

    calls = []

    def counted(cx, *args, **kwargs):
        calls.append(cx)
        return peel_leaves(cx, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qcover.") and vars(mod).get("peel_leaves") is peel_leaves:
            monkeypatch.setattr(mod, "peel_leaves", counted)
    return calls


@pytest.mark.parametrize(
    "build, want", [(lambda: delta_n(4), 3), (double_fan, 2)], ids=["delta4", "fan"]
)
def test_check_peels_once_per_verdict_and_once_to_detach(peels, build, want):
    # as cmd_check calls them: exit 0 peels in is_quasi_tree and for the leaf
    # order; exit 10 peels once more, to detach the facets outside the core
    cx = build()
    assert is_quasi_tree(cx)
    is_standard_graded(cx)
    assert len(peels) == want


def test_public_tree_and_witness_keep_their_guards(peels):
    cx = delta_n(4)
    tree = relation_tree(cx, leaf_order(cx))
    assert len(peels) == 2  # the leaf order and the tree's validation
    witness_cover_from_cycle(cx, tree, find_special_odd_cycle(cx))
    assert len(peels) == 4  # the quasi-tree guard and the detachment


def test_dot_without_order_peels_once(peels, tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(to_json(double_fan()))
    assert main(["dot", str(path)]) == 0
    assert len(peels) == 1
    assert capsys.readouterr().out.startswith("digraph relation_tree {")


def test_brute_force_on_delta():
    v = brute_force_verdict(delta_n(3), 3)
    assert not v.standard_graded
    assert v.method == "brute_force"
    assert v.cover_witness.k == 2
    assert is_k_cover(delta_n(3), v.cover_witness.a, 2)


def test_brute_force_positive_records_bound():
    v = brute_force_verdict(double_fan(), 3)
    assert v.standard_graded
    assert v.bound_used == 3
    assert brute_force_verdict(new_complex([{1, 2}]), 2).standard_graded


def test_brute_force_handles_non_quasi_trees():
    tri = new_complex([{1, 2}, {2, 3}, {1, 3}])
    v = brute_force_verdict(tri, 2)
    assert not v.standard_graded
    assert v.cover_witness.a == (1, 1, 1)
    with pytest.raises(ValueError):
        brute_force_verdict(tri, 1)


def test_brute_force_accepts_disconnected_complexes():
    v = brute_force_verdict(new_complex([{1, 2}, {3, 4}]), 3)
    assert v.standard_graded
    assert v.bound_used == 3


def test_cross_validation_agrees_on_named_complexes():
    r = cross_validate(delta_n(3), 2)
    assert r.agree
    assert not r.criterion.standard_graded
    assert not r.brute_force.standard_graded
    r = cross_validate(double_fan(), 3)
    assert r.agree
    assert r.criterion.standard_graded
    r = cross_validate(delta_n(4), 2)
    assert r.agree
    assert not r.brute_force.standard_graded


def test_cross_validation_rejects_non_quasi_tree():
    with pytest.raises(NotQuasiTreeError):
        cross_validate(new_complex([{1, 2}, {2, 3}, {1, 3}]), 2)
    # the criterion's answer still comes before the bound's range check
    with pytest.raises(NotQuasiTreeError):
        cross_validate(new_complex([{1, 2}, {2, 3}, {1, 3}]), 1)


def test_bounds_must_be_integers():
    for bad in (2.5, 3.0, None, True):
        with pytest.raises(ValueError, match="k_max must be an integer"):
            brute_force_verdict(delta_n(3), bad)
        with pytest.raises(ValueError, match="k_max must be an integer"):
            cross_validate(delta_n(3), bad)
    with pytest.raises(ValueError, match="k_max must be at least 2"):
        cross_validate(delta_n(3), 1)


def test_smd_sweep_is_consistent():
    r = cross_validate(delta_n(3), 2, sweep_smds=True)
    assert r.smd_sweep is not None
    assert len(r.smd_sweep) == 2 ** 4 - 1
    assert all(entry["consistent"] for entry in r.smd_sweep)
    full = [e for e in r.smd_sweep if len(e["facet_ids"]) == 4][0]
    assert full["has_special_odd_cycle"] and full["has_degree2_generator"]


# sha256 of the canonical JSON (sorted keys, no spaces) of the brute-force
# benchmark's sweep cases, both verdicts and every sweep row; recorded before
# the brute-force side stopped each degree at its first generator
PINNED_SWEEPS = [
    ("fan", double_fan, 31, "ac94d49842dbe976a88516df76abf3a876583efe3dff2c925b8c981910d6d999"),
    ("delta3", lambda: delta_n(3), 15, "f1cdfc999235fc73b9c7ca0303457f6fd8c1c98105905622311aae1c94524fe8"),
]


@pytest.mark.parametrize(
    "build, rows, digest", [p[1:] for p in PINNED_SWEEPS], ids=[p[0] for p in PINNED_SWEEPS]
)
def test_sweep_reports_are_pinned(build, rows, digest):
    report = cross_validate(build(), 4, sweep_smds=True).to_dict()
    assert len(report["smd_sweep"]) == rows
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == digest


@pytest.mark.parametrize("n", range(3, 9))
def test_delta_sweep_searches_one_view_per_orbit(monkeypatch, n):
    # delta_n's pair permutations leave 2n + 1 orbits of its facet subsets,
    # with or without the centre and by how many satellites they hold.  The
    # full selection reads the two verdicts, so the cycle search runs on 2n
    # views, not on all 2^(n+1) - 1
    from qcover import gradedness

    views = []
    search = gradedness.find_special_odd_cycle

    def counted(cx, *args, **kwargs):
        if cx.parent is not None:
            views.append(cx.facet_ids)
        return search(cx, *args, **kwargs)

    monkeypatch.setattr(gradedness, "find_special_odd_cycle", counted)
    rows = cross_validate(delta_n(n), 2, sweep_smds=True).smd_sweep
    assert len(rows) == 2 ** (n + 1) - 1
    assert all(row["consistent"] for row in rows)
    assert len(views) == 2 * n


def test_verdict_serialization_round_trip():
    v = is_standard_graded(delta_n(3))
    d = v.to_dict()
    assert d["standard_graded"] is False
    assert d["cycle_witness"]["vertices"] == [1, 2, 3]
    assert d["cover_witness"]["a"] == [1, 1, 1, 0, 0, 0]
    assert d["bound_used"] is None


def test_degree_two_equivalence_on_corpus(quasi_tree_corpus):
    """Criterion route and degree-2 enumeration must agree on every tree."""
    mismatches = []
    for cx in quasi_tree_corpus:
        has_cycle = find_special_odd_cycle(cx) is not None
        has_deg2 = bool(indecomposable_covers(cx, 2))
        if has_cycle != has_deg2:
            mismatches.append(cx)
    assert mismatches == []


def test_witness_coherence_on_corpus(quasi_tree_corpus):
    for cx in quasi_tree_corpus:
        v = is_standard_graded(cx)
        if v.standard_graded:
            assert v.cycle_witness is None and v.cover_witness is None
        else:
            assert v.cycle_witness is not None and v.cover_witness is not None
            assert v.cover_witness.k == 2
            assert is_k_cover(cx, v.cover_witness.a, 2)
            assert decompose_cover(cx, v.cover_witness.a, 2) is None


# --- the whole domain: up to 64 vertices -----------------------------------


def assert_witnesses_recheck(cx, verdict):
    """Re-check a negative verdict's witnesses by direct sums on the facets.

    The cycle must be odd and special (each of its facets holds exactly the
    two cycle vertices it links), and the cover a 2-cover.
    """
    facet = {fid: set(f) for fid, f in zip(cx.facet_ids, cx.facets)}
    verts = verdict["cycle_witness"]["vertices"]
    fids = verdict["cycle_witness"]["facets"]
    s = len(verts)
    assert s >= 3 and s % 2 == 1
    assert len(set(verts)) == s and len(set(fids)) == s
    for i, fid in enumerate(fids):
        assert facet[fid] & set(verts) == {verts[i], verts[(i + 1) % s]}
    cover = verdict["cover_witness"]
    weight = dict(zip(sorted(set().union(*facet.values())), cover["a"], strict=True))
    assert cover["k"] == 2
    assert all(sum(weight[v] for v in f) >= 2 for f in facet.values())


@pytest.mark.parametrize("n", [17, 32])
def test_check_on_wide_delta_exits_10(capsys, tmp_path, n):
    cx = delta_n(n)
    path = tmp_path / "delta.json"
    path.write_text(to_json(cx))
    assert main(["check", str(path)]) == 10
    verdict = json.loads(capsys.readouterr().out)["result"]["verdict"]
    assert verdict["standard_graded"] is False
    assert_witnesses_recheck(cx, verdict)


def test_criterion_answers_large_quasi_trees():
    negatives = 0
    for s in LARGE_SEEDS:
        cx = random_quasi_tree(GeneratorSeed(s, 6 + s % 30, 2 + s % 7))
        v = is_standard_graded(cx)
        if not v.standard_graded:
            negatives += 1
            assert_witnesses_recheck(cx, v.to_dict())
    assert negatives >= 1
