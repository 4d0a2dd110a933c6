"""The three workloads: their inputs, one operation each, and its check.

Every workload turns the benchmark seed into a fixed list of operations
(its pass) in ``setup``, runs one operation in ``run`` and judges the
answer in ``check``.  ``run`` raises on a failed operation; the caller
counts the failure by type.  Inputs reach the program only as JSON text.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from qcover import complexes, covers, cycles, fileio, gradedness, quasiforest
from qcover.errors import TooManyVerticesError
from qcover.families import GeneratorSeed, delta_n, double_fan, random_quasi_tree

import check

# The check input universe.  Quasi-tree draws use the generator settings of
# the seeds 0..2999 survey; draws over 64 vertices are rejected by the
# generator and never reach the workload.
RQT_SEEDS = range(3000)
DELTA_NS = range(3, 33)
ANTICHAIN_SEEDS = range(1000)
ANTICHAIN_SHARE = 128  # antichains the benchmark seed adds to each stream
CLI_CALLS = 48  # enough calls for a p75 with twelve samples beyond it


class OpFailed(Exception):
    """An operation ended outside the program's contract; ``kind`` names how."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def rqt_inputs() -> list[tuple[str, str]]:
    out = []
    for s in RQT_SEEDS:
        try:
            cx = random_quasi_tree(GeneratorSeed(s, 6 + s % 30, 2 + s % 7))
        except TooManyVerticesError:
            continue
        out.append((f"rqt:{s}", fileio.to_json(cx)))
    return out


def delta_inputs() -> list[tuple[str, str]]:
    return [(f"delta:{n}", fileio.to_json(delta_n(n))) for n in DELTA_NS]


def antichain_input(t: int) -> tuple[str, str]:
    """An arbitrary facet antichain on dense labels, facets in drawn order."""
    rng = random.Random(t)
    nv = rng.randint(4, 10)
    want = rng.randint(3, 7)
    facets: list[set[int]] = []
    for _ in range(40):
        if len(facets) == want:
            break
        f = set(rng.sample(range(1, nv + 1), rng.randint(2, 4)))
        if all(not (f <= g or g <= f) for g in facets):
            facets.append(f)
    label = {v: i for i, v in enumerate(sorted(set().union(*facets)), start=1)}
    doc = {"facets": [sorted(label[v] for v in f) for f in facets]}
    return f"antichain:{t}", json.dumps(doc) + "\n"


def check_stream(seed: int) -> list[tuple[str, str]]:
    """Every quasi-tree draw and delta_n, plus a seeded share of antichains, shuffled."""
    rng = random.Random(seed)
    stream = rqt_inputs() + delta_inputs()
    stream += [antichain_input(t) for t in rng.sample(ANTICHAIN_SEEDS, ANTICHAIN_SHARE)]
    rng.shuffle(stream)
    return stream


def check_in_process(text: str) -> tuple[int, dict]:
    """The public calls cmd_check makes, in its order, on JSON text."""
    cx = complexes.new_complex(fileio.parse_facets(text))
    result: dict = {
        "vertex_count": cx.vertex_count,
        "facet_count": len(cx.facets),
        "dimension": cx.dimension(),
        "connected": cx.is_connected(),
        "is_quasi_tree": quasiforest.is_quasi_tree(cx),
    }
    if result["is_quasi_tree"]:
        verdict = gradedness.is_standard_graded(cx, budget=cycles.DEFAULT_CYCLE_BUDGET)
        result["verdict"] = verdict.to_dict()
        code = 0 if verdict.standard_graded else 10
    else:
        result["verdict"] = None
        code = 11
    report = {"input_digest": fileio.complex_digest(cx), "result": result}
    json.dumps(report, indent=2)
    return code, report


class CheckStream:
    """In process: the check pipeline over the whole input stream."""

    name = "check-stream"
    min_op_seconds = 0.0

    def __init__(self, root: Path, work: Path):
        self.expected = check.load_expected_verdicts()

    def setup(self, seed: int) -> list[tuple[str, str]]:
        ops = check_stream(seed)
        for _, text in ops[:50]:  # warm-up
            try:
                check_in_process(text)
            except Exception:  # failures are counted in the timed pass
                pass
        return ops

    def run(self, op: tuple[str, str]) -> tuple[int, dict]:
        return check_in_process(op[1])

    def check(self, op: tuple[str, str], answer: tuple[int, dict]) -> str | None:
        return check.check_report_error(op[1], answer[0], answer[1], self.expected)


class CliCheck:
    """Subprocess: ``python -m qcover.cli check FILE`` per sampled input."""

    name = "cli-check"
    min_op_seconds = 0.0

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.expected = check.load_expected_verdicts()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("QCOVER_BUDGET", None)
        self.call_rss_kb: list[int] = []
        self.tracer = None  # set for traced runs

    def setup(self, seed: int) -> list[tuple[str, str, str]]:
        sample = check_stream(seed)[:CLI_CALLS]
        self.work.mkdir(parents=True, exist_ok=True)
        ops = []
        for i, (key, text) in enumerate(sample):
            path = self.work / f"input-{i}.json"
            path.write_text(text, encoding="utf-8")
            ops.append((key, text, str(path)))
        for op in ops[:2]:  # warm-up
            self._call(op)
        self.call_rss_kb.clear()
        return ops

    def _call(self, op: tuple[str, str, str]) -> tuple[int, bytes, bytes]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "qcover.cli", "check", op[2]]
        else:
            spans = self.work / "child-spans.json"
            child = Path(__file__).resolve().parent / "cli_traced.py"
            cmd = [sys.executable, str(child), str(spans), "check", op[2]]
            spans.unlink(missing_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            # wait4 reports this call's own peak RSS, which a plain wait drops
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.call_rss_kb.append(usage.ru_maxrss)
        if self.tracer is not None:
            recorded = json.loads(spans.read_text(encoding="utf-8"))
            self.tracer.adopt(recorded, self.tracer._stack[-1], self.tracer.op)
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes()

    def run(self, op: tuple[str, str, str]) -> tuple[int, dict]:
        code, out, err = self._call(op)
        if code in check.EXIT_FOR.values():
            return code, json.loads(out)
        lines = err.decode("utf-8", "replace").strip().splitlines()
        if code == 1 and lines:  # an uncaught exception: name its type
            raise OpFailed(lines[-1].split(":")[0])
        raise OpFailed(f"exit{code}")

    def check(self, op, answer: tuple[int, dict]) -> str | None:
        return check.check_report_error(op[1], answer[0], answer[1], self.expected)


# name, complex, kind, bound: dmax is max_generator_degree(cx, k_max),
# covers is indecomposable_covers(cx, k), sweep is cross_validate(cx, k_max,
# sweep_smds=True).  k = 3 on the 14-vertex tree takes ~100 s and is left out.
CASES = [
    ("delta3_k4", lambda: delta_n(3), "dmax", 4),
    ("delta4_k5", lambda: delta_n(4), "dmax", 5),
    ("double_fan_k4", double_fan, "dmax", 4),
    ("delta5_k4", lambda: delta_n(5), "dmax", 4),
    ("tree14_k2", lambda: random_quasi_tree(GeneratorSeed(3, 10, 3)), "covers", 2),
    ("sweep_double_fan", double_fan, "sweep", 4),
    ("sweep_delta3", lambda: delta_n(3), "sweep", 4),
]


class BruteForce:
    """In process: the fixed case list of bound-limited enumerations."""

    name = "brute-force"
    # cases under a second repeat until they reach it, so that the
    # small ones are timed as the median of several runs
    min_op_seconds = 1.0

    def __init__(self, root: Path, work: Path):
        self.golden = check.load_golden_delta3_k2(root)

    def setup(self, seed: int) -> list[tuple[str, str, str, int]]:
        ops = [(name, fileio.to_json(build()), kind, bound) for name, build, kind, bound in CASES]
        random.Random(seed).shuffle(ops)
        for op in ops:  # warm-up on the two smallest cases
            if op[0] in ("delta3_k4", "sweep_delta3"):
                self.run(op)
        return ops

    def run(self, op: tuple[str, str, str, int]) -> dict:
        _, text, kind, bound = op
        cx = complexes.new_complex(fileio.parse_facets(text))
        if kind == "dmax":
            d, certs = covers.max_generator_degree(cx, bound)
            answer = {"d": d, "certificates": {str(k): c.to_dict() for k, c in sorted(certs.items())}}
        elif kind == "covers":
            found = covers.indecomposable_covers(cx, bound)
            answer = {"k": bound, "covers": [c.to_dict() for c in found]}
        else:
            answer = gradedness.cross_validate(cx, bound, sweep_smds=True).to_dict()
        answer["input_digest"] = fileio.complex_digest(cx)
        return answer

    def check(self, op, answer: dict) -> str | None:
        if answer["input_digest"] != check.digest(check.facets_of(op[1])):
            return "input digest differs from the canonical digest"
        return check.case_error(op[0], op[1], answer, self.golden)


WORKLOADS = {w.name: w for w in (CliCheck, CheckStream, BruteForce)}
