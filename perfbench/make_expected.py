"""Regenerate expected_verdicts.json for every input the check workloads can draw.

Run from the root of a qcover checkout:  python3 perfbench/make_expected.py

A verdict is "nqt" when the input is not a quasi-tree, "nsg" when it has a
special odd cycle (re-checked by check.py) and "sg" otherwise.  The verdict
is taken from the criterion alone, so inputs whose witness build fails today
still get the verdict a correct engine must give.  Keys are the first 16 hex
digits of the canonical input digest.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from qcover import fileio, new_complex  # noqa: E402
from qcover.cycles import find_special_odd_cycle  # noqa: E402
from qcover.quasiforest import is_quasi_tree  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    universe = workloads.rqt_inputs() + workloads.delta_inputs()
    universe += [workloads.antichain_input(t) for t in workloads.ANTICHAIN_SEEDS]
    verdicts: dict[str, set[str]] = {"sg": set(), "nsg": set(), "nqt": set()}
    for key, text in universe:
        facets = check.facets_of(text)
        cx = new_complex(fileio.parse_facets(text))
        if not is_quasi_tree(cx):
            verdict = "nqt"
        else:
            cycle = find_special_odd_cycle(cx)
            if cycle is not None and check.cycle_error(facets, cycle.to_dict()):
                raise SystemExit(f"{key}: the engine's cycle fails the independent check")
            verdict = "sg" if cycle is None else "nsg"
        verdicts[verdict].add(check.digest(facets)[:16])
    doc = {v: sorted(ds) for v, ds in verdicts.items()}
    check.EXPECTED_VERDICTS.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    print({v: len(ds) for v, ds in doc.items()})


if __name__ == "__main__":
    main()
