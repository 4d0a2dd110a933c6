"""Answer checks that do not call qcover.

Witnesses are re-checked from their definitions, digests are recomputed
from the input text, and answers that no witness can certify (positive
verdicts, "not a quasi-tree", generator degrees) are compared with tables
recorded from the seed engine: ``expected_verdicts.json`` for the check
inputs and ``EXPECTED_DMAX`` plus the delta_3 golden for the fixed cases.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_VERDICTS = HERE / "expected_verdicts.json"
GOLDEN_DELTA3_K2 = Path("tests") / "golden" / "delta3_k2_covers.json"

# d for max_generator_degree within k_max, from the family docstrings and the
# README: d(delta_n) = n - 1, d(double_fan) = 1.
EXPECTED_DMAX = {"delta3_k4": 2, "delta4_k5": 3, "double_fan_k4": 1, "delta5_k4": 4}
# The 14-vertex tree has no special odd cycle, so it has no indecomposable
# 2-cover; recorded from the seed engine.
EXPECTED_COVER_COUNT = {"tree14_k2": 0}
EXPECTED_SWEEP_VERDICT = {"sweep_double_fan": True, "sweep_delta3": False}

EXIT_FOR = {"sg": 0, "nsg": 10, "nqt": 11}


def facets_of(text: str) -> list[list[int]]:
    """Canonical facet list of a JSON input: sorted facets in sorted order."""
    return sorted(sorted(set(f)) for f in json.loads(text)["facets"])


def digest(facets: list[list[int]]) -> str:
    doc = json.dumps({"facets": facets}, separators=(",", ":")) + "\n"
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def load_expected_verdicts() -> dict[str, str]:
    """Digest prefix (16 hex digits) -> "sg", "nsg" or "nqt"."""
    doc = json.loads(EXPECTED_VERDICTS.read_text(encoding="utf-8"))
    return {d: verdict for verdict, ds in doc.items() for d in ds}


def load_golden_delta3_k2(root: Path) -> list[dict]:
    return json.loads((root / GOLDEN_DELTA3_K2).read_text(encoding="utf-8"))


def cycle_error(facets: list[list[int]], cycle: dict) -> str | None:
    """Why ``cycle`` is not a special odd cycle of the complex, or None."""
    verts, fids = cycle["vertices"], cycle["facets"]
    s = len(verts)
    if s != len(fids) or s < 3 or s % 2 == 0:
        return f"cycle length {s} vs {len(fids)} facets is not odd >= 3"
    if len(set(verts)) != s or len(set(fids)) != s:
        return "cycle repeats a vertex or a facet"
    if any(not 1 <= f <= len(facets) for f in fids):
        return "cycle names an unknown facet"
    on = [set(facets[f - 1]) for f in fids]
    for i in range(s):
        if verts[i] not in on[i] or verts[(i + 1) % s] not in on[i]:
            return f"facet {fids[i]} does not hold vertices {verts[i]}, {verts[(i + 1) % s]}"
    if any(len(f & set(verts)) > 2 for f in on):
        return "a facet of the cycle holds more than two cycle vertices"
    return None


def cover_error(facets: list[list[int]], a: list[int], k: int) -> str | None:
    """Why ``a`` is not a k-cover of the complex on vertices 1..n, or None."""
    n = max(max(f) for f in facets)
    if len(a) != n or any(x < 0 for x in a):
        return f"cover vector {a} does not weight vertices 1..{n}"
    for f in facets:
        if sum(a[v - 1] for v in f) < k:
            return f"cover {a} sums below {k} on facet {f}"
    return None


def check_report_error(text: str, code: int, report: dict, expected: dict[str, str]) -> str | None:
    """Why a check report (exit code plus JSON) is wrong for its input, or None."""
    facets = facets_of(text)
    want_digest = digest(facets)
    if report.get("input_digest") != want_digest:
        return "input digest differs from the canonical digest"
    verdict = expected.get(want_digest[:16])
    if verdict is None:
        return f"no expected verdict for input {want_digest[:16]}"
    if code != EXIT_FOR[verdict]:
        return f"exit code {code}, expected {EXIT_FOR[verdict]} ({verdict})"
    result = report["result"]
    n = max(max(f) for f in facets)
    if (result["vertex_count"], result["facet_count"]) != (n, len(facets)):
        return "vertex or facet count is wrong"
    if verdict == "nqt":
        return None if result["is_quasi_tree"] is False else "is_quasi_tree should be false"
    v = result["verdict"]
    if v["standard_graded"] != (verdict == "sg"):
        return f"standard_graded is {v['standard_graded']}, expected {verdict}"
    if verdict == "sg":
        return None if v["cycle_witness"] is None and v["cover_witness"] is None else (
            "positive verdict carries a witness"
        )
    if v["cycle_witness"] is None or v["cover_witness"] is None:
        return "negative verdict lacks a witness"
    if v["cover_witness"]["k"] != 2:
        return "cover witness is not of degree 2"
    return cycle_error(facets, v["cycle_witness"]) or cover_error(
        facets, v["cover_witness"]["a"], 2
    )


def case_error(case: str, text: str, answer: dict, golden_delta3_k2: list[dict]) -> str | None:
    """Why a brute-force case answer (in CLI report form) is wrong, or None."""
    facets = facets_of(text)
    if case in EXPECTED_DMAX:
        d, certs = answer["d"], answer["certificates"]
        if d != EXPECTED_DMAX[case]:
            return f"d = {d}, expected {EXPECTED_DMAX[case]}"
        if d != max(map(int, certs), default=0):
            return "d is not the largest certified degree"
        for k, cert in certs.items():
            if cert["k"] != int(k):
                return f"certificate for degree {k} declares degree {cert['k']}"
            err = cover_error(facets, cert["a"], int(k))
            if err:
                return err
        if case == "delta3_k4" and certs["2"] != golden_delta3_k2[0]:
            return "delta_3 degree-2 certificate differs from the golden covers"
        return None
    if case in EXPECTED_COVER_COUNT:
        if len(answer["covers"]) != EXPECTED_COVER_COUNT[case]:
            return f"{len(answer['covers'])} covers, expected {EXPECTED_COVER_COUNT[case]}"
        for cover in answer["covers"]:
            err = cover_error(facets, cover["a"], answer["k"])
            if err:
                return err
        return None
    if not answer["agree"]:
        return "criterion and brute force disagree"
    crit = answer["criterion"]
    if crit["standard_graded"] != EXPECTED_SWEEP_VERDICT[case]:
        return f"criterion verdict {crit['standard_graded']} is wrong"
    if not crit["standard_graded"]:
        err = cycle_error(facets, crit["cycle_witness"]) or cover_error(
            facets, crit["cover_witness"]["a"], 2
        )
        if err:
            return err
    rows = answer["smd_sweep"]
    if len(rows) != 2 ** len(facets) - 1:
        return f"sweep has {len(rows)} rows, expected {2 ** len(facets) - 1}"
    for row in rows:
        consistent = row["has_special_odd_cycle"] or not row["has_degree2_generator"]
        if not (row["consistent"] and consistent):
            return f"sweep row {row['facet_ids']} is inconsistent"
    return None
