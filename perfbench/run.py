"""qcover benchmark: one workload per run, checked answers, one JSON result.

Run from the root of a qcover checkout:

    python3 perfbench/run.py --workload cli-check|check-stream|brute-force|all \
        --seed N --seconds S --trace 0|1

``all`` runs the three workloads one after another, each in a fresh process,
and exits with the highest of their exit codes.

The workload's operation list (its pass) is built from the seed.  Whole
passes run in a closed loop, one operation at a time, while another pass
fits in S seconds; at least one pass runs.  Each operation is timed by its
median over the passes, which keeps a slow stretch of machine time in one
pass out of the result.  Every answer is checked after the timed loop by
``check.py``, which does not call qcover.

The end-to-end times are in reference seconds: two fixed kernels, one of
pure Python and one of numpy, are timed every quarter second through the
run, and each measured time is divided by their slowdown over their
nominal times around that measurement.  On a shared host the speed of a
core swings by half within seconds; the scaling takes that swing out and
leaves the program's own cost.  The wall-clock figures are on the info
line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one pass in which
every operation runs both plain and with spans around qcover's public
functions, prints the per-layer metrics and writes the spans to
.perfbench/.  The last line of stdout is the result; the line before it
records versions, the tail percentile and failures by type.  The exit code
is 1 on a wrong answer and 2 when the checkout has no qcover sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

from tracer import METHOD_SPANS, SPANS, Tracer

# numpy and BLAS read these when they load: pin them before qcover is
# imported, and every child process inherits them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = ("cli-check", "check-stream", "brute-force")
SETUP_REPEATS = 3
PROBE_REPEATS = 7
# tail percentile: the highest of these with at least ten samples beyond it
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# direct children of cross_validate that are not part of its smd sweep
NOT_SWEEP = {
    "quasiforest.is_quasi_tree",
    "gradedness.is_standard_graded",
    "gradedness.brute_force_verdict",
}


# How often the reference kernels are sampled, how many runs of each a
# sample takes, the window around a short run (or a set-up) whose samples
# scale it, and the longest run counted as short.
REF_EVERY_S = 0.25
REF_REPS = 3
REF_WINDOW_S = 1.0
REF_SHORT_S = 0.75
# Each workload's array weight for its short runs.  When the machine turns
# slow, the python kernel slows by ~1.6x and the array kernel by ~1.3x; the
# pure-Python check inputs and small brute-force cases slow by ~1.5x and a
# CLI call, much of it spent in the operating system, by ~1.2x.
ARRAY_WEIGHT = {"cli-check": 1.0, "check-stream": 0.2, "brute-force": 0.2}


def python_kernel() -> int:
    """Fixed pure-Python work: int, dict and loop operations, ~1.2 ms."""
    seen: dict[int, int] = {}
    acc = 0
    for i in range(5000):
        k = (i * 7919) % 1009
        seen[k] = seen.get(k, 0) + 1
        acc ^= k << (i % 5)
    return acc + len(seen)


def array_kernel() -> int:
    """Fixed numpy work: a 5^6 box of int32 rows, column sums and a mask, ~2.7 ms."""
    import numpy

    grids = numpy.meshgrid(*[numpy.arange(5)] * 6, indexing="ij")
    box = numpy.stack([g.reshape(-1) for g in grids], axis=1).astype(numpy.int32)
    sums = numpy.zeros((box.shape[0], 4), dtype=numpy.int32)
    for c in range(4):
        sums[:, c] = box[:, c : c + 3].sum(axis=1)
    return int((sums >= 2).all(axis=1).sum())


# each kernel with its nominal time: its median on a 2-core x86-64 Linux
# host with Python 3.11 and numpy 2.4
KERNELS = ((python_kernel, 0.0012), (array_kernel, 0.0027))


class Speed:
    """Timed samples of the reference kernels over the run.

    A time measured while the machine runs slow is scaled back by the
    kernels' slowdown around it, mixed by an array weight: the share of the
    array kernel, chosen so that the mix slows down with the machine as
    much as the measured work does.
    """

    def __init__(self, array_weight: float) -> None:
        self.weight = array_weight
        self.samples: list[tuple[float, float, float]] = []  # (when, python, array slowdown)

    def sample(self) -> None:
        slowdowns = []
        for kernel, nominal in KERNELS:
            times = []
            for _ in range(REF_REPS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            slowdowns.append(statistics.median(times) / nominal)
        self.samples.append((time.perf_counter(), *slowdowns))

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][0] >= REF_EVERY_S

    def slowdown(self, start: float, end: float, weight: float, window: float) -> float:
        """The median mixed slowdown of the samples within ``window`` of [start, end]."""
        mixed = [(t, (1.0 - weight) * py + weight * arr) for t, py, arr in self.samples]
        near = [s for t, s in mixed if start - window <= t <= end + window]
        if len(near) < 2:  # no sample close by: take the two nearest
            mixed.sort(key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))
            near = [s for _, s in mixed[:2]]
        return statistics.median(near)

    def scale(self, start: float, end: float) -> float:
        """The factor to reference speed for a set-up over [start, end]."""
        return 1.0 / self.slowdown(start, end, self.weight, REF_WINDOW_S)

    def run_seconds(self, start: float, end: float) -> float:
        """The time of one run at reference speed.

        A short run is scaled by the workload's kernel mix within
        ``REF_WINDOW_S`` of it.  No sample falls inside a run, so a long one
        is scaled by the samples within its own length of either end, and by
        the array kernel alone: the long runs are the numpy-bound ones
        (``rqt:2745`` and the large brute-force cases), which slow about as
        that kernel does.
        """
        seconds = end - start
        if seconds <= REF_SHORT_S:
            return seconds / self.slowdown(start, end, self.weight, REF_WINDOW_S)
        return seconds / self.slowdown(start, end, 1.0, seconds)

    def op_seconds(self, r: "Record") -> float:
        """The median of the record's runs at reference speed."""
        return statistics.median(self.run_seconds(start, end) for start, end in r.runs)


class Record(NamedTuple):
    op: tuple
    seconds: float  # the median run
    answer: object
    failure: str | None
    runs: list[tuple[float, float]]  # (start, end) of each run


def run_one(wl, op, op_id: int, tracer=None, min_seconds: float = 0.0, speed: Speed | None = None) -> Record:
    """Run op once, or repeatedly until ``min_seconds`` have passed; time the median run.

    With ``speed`` the reference kernels are sampled between runs when due.
    """
    runs: list[tuple[float, float]] = []
    while not runs or sum(end - start for start, end in runs) < min_seconds:
        t0 = time.perf_counter()
        try:
            answer = tracer.run(op_id, wl.run, op) if tracer else wl.run(op)
            failure = None
        except Exception as exc:  # any exception is a failed operation, counted by type
            answer, failure = None, getattr(exc, "kind", type(exc).__name__)
            print(f"failed {op[0]}: {failure}: {str(exc)[:200]}", file=sys.stderr)
        runs.append((t0, time.perf_counter()))
        if speed is not None and speed.due():
            speed.sample()
        if failure is not None:
            break
    return Record(op, statistics.median(end - start for start, end in runs), answer, failure, runs)


def measure(wl, ops, seconds: float, speed: Speed) -> list[list[Record]]:
    """Whole passes over ops, one operation at a time, while another fits in ``seconds``.

    The reference kernels are sampled between runs once ``REF_EVERY_S``
    has passed since the last sample, and after the last pass.
    """
    passes: list[list[Record]] = []
    start = time.perf_counter()
    last = 0.0
    speed.sample()
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        records = []
        for i, op in enumerate(ops):
            records.append(run_one(wl, op, i, None, wl.min_op_seconds, speed))
        passes.append(records)
        last = time.perf_counter() - t0
    speed.sample()
    return passes


def measure_traced(wl, ops, tracer) -> tuple[list[Record], list[Record]]:
    """One pass; each operation runs plain and traced, back to back.

    Running the two side by side keeps drifts in machine speed out of
    trace.overhead_ratio, and alternating which runs first cancels the gain
    a second run of the same input has from warm caches.
    """
    plain, traced = [], []
    for i, op in enumerate(ops):
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if not with_trace:
                plain.append(run_one(wl, op, i))
                continue
            if wl.name == "cli-check":
                wl.tracer = tracer  # its traced child process records the spans
            else:
                tracer.install()
            try:
                traced.append(run_one(wl, op, i, tracer))
            finally:
                tracer.uninstall()
                wl.tracer = None
    return plain, traced


def judge(wl, records: list[Record]) -> list[str]:
    wrong = []
    for r in records:
        if r.failure is not None:
            continue
        try:
            err = wl.check(r.op, r.answer)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            err = f"malformed answer: {exc!r}"
        if err:
            wrong.append(f"{r.op[0]}: {err}")
    return wrong


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest LADDER percentile with >= 10 samples beyond.

    With fewer than 20 samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    for p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[math.ceil(p * n / 100) - 1]  # nearest rank
    return 100.0, ordered[-1]


def cli_probes(root: Path) -> dict[str, float]:
    """Median wall time (s) of bare start, of importing qcover.cli and of numpy."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    codes = {"interp": "pass", "cli": "import qcover.cli", "numpy": "import numpy"}
    times: dict[str, list[float]] = defaultdict(list)
    for _ in range(PROBE_REPEATS):
        for key, code in codes.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
            times[key].append(time.perf_counter() - t0)
    return {key: statistics.median(ts) for key, ts in times.items()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(times: list[float], setup_s: float) -> dict[str, float]:
    """The time metrics from each operation's time and the set-up time."""
    solve_s = sum(times)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / solve_s,
        "op_ms_p50": statistics.median(times) * 1000,
        "op_ms_tail": tail(times)[1] * 1000,
        "solve_s": solve_s,
    }


def end_to_end(wl, passes: list[list[Record]], setup: tuple[float, float], speed: Speed) -> tuple[dict, dict]:
    """Metrics over each operation's median time across the passes.

    ``setup`` is the set-up time in reference and in wall seconds.  The
    metrics are in reference seconds; the info gets the wall-clock ones.
    """
    n = len(passes[0])
    wall = [statistics.median(p[i].seconds for p in passes) for i in range(n)]
    ref = [statistics.median(speed.op_seconds(p[i]) for p in passes) for i in range(n)]
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "solve_s": "s"}
    metrics = {k: metric(v, units[k]) for k, v in timings(ref, setup[0]).items()}
    if wl.name == "cli-check":
        rss_kb = statistics.median(wl.call_rss_kb)  # typical CLI process
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = metric(rss_kb / 1024, "MB")
    slowdowns = [(1.0 - speed.weight) * py + speed.weight * arr for _, py, arr in speed.samples]
    extra = {
        "passes": len(passes),
        "tail_percentile": tail(ref)[0],
        "tail_samples": n,
        "wall": timings(wall, setup[1]),
        "slowdown_median": statistics.median(slowdowns),
        "slowdown_samples": len(slowdowns),
    }
    return metrics, extra


def per_layer(wl, tracer, plain, traced, probes) -> dict:
    own = tracer.self_times()
    spans = tracer.spans
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, *_), s in zip(spans, own):
        self_s[name] += s
        calls[name] += 1
    op_total = sum(end - start for name, start, end, parent, _ in spans if parent is None)
    m: dict = {}
    p50 = statistics.median(r.seconds for r in plain)
    startup = probes["cli"] if wl.name == "cli-check" else 0.0
    m["cli.interp_ms"] = metric(probes["interp"] * 1000, "ms")
    m["cli.import_ms"] = metric((probes["cli"] - probes["interp"]) * 1000, "ms")
    m["cli.import_numpy_ms"] = metric((probes["numpy"] - probes["interp"]) * 1000, "ms")
    m["cli.work_ms"] = metric((p50 - startup) * 1000, "ms")
    reported = [*SPANS.values(), *METHOD_SPANS.values(), "cli.main", "op"]
    for name in reported:
        m[f"{name}.self_ms"] = metric(self_s[name] * 1000, "ms")
        m[f"{name}.calls"] = metric(calls[name], "count")
        m[f"{name}.share"] = metric(self_s[name] / op_total, "ratio")

    durations = [end - start for _, start, end, _, _ in spans]
    decompose = [d for (name, *_), d in zip(spans, durations) if name == "covers.decompose_cover"]
    m["covers.decompose_cover.max_ms"] = metric(max(decompose, default=0.0) * 1000, "ms")
    failed_in = tracer.failed_in.values()
    m["covers.failed"] = metric(sum(n.startswith("covers.") for n in failed_in), "count")
    searches = calls["cycles.find_special_odd_cycle"]
    m["cycles.found_ratio"] = metric(tracer.counts["cycles.found"] / max(searches, 1), "ratio")
    found, rows = tracer.counts["covers.found"], tracer.counts["covers.box_rows"]
    m["covers.found"] = metric(found, "count")
    m["covers.box_rows"] = metric(rows, "count")
    m["covers.kept_ratio"] = metric(found / max(rows, 1), "ratio")

    case_of = {i: r.op[0] for i, r in enumerate(traced)}
    per_case: dict[str, float] = defaultdict(float)
    sweep = 0.0
    for (name, start, end, parent, op), d in zip(spans, durations):
        if name == "covers.indecomposable_covers":
            per_case[case_of[op]] += d
        if name == "gradedness.cross_validate":
            sweep += d
        elif name in NOT_SWEEP and spans[parent][0] == "gradedness.cross_validate":
            sweep -= d
    from workloads import CASES  # imported once qcover's path is set

    for case, *_ in CASES:
        m[f"covers.indecomposable_covers.{case}_ms"] = metric(per_case[case] * 1000, "ms")
    m["gradedness.cross_validate.sweep_ms"] = metric(sweep * 1000, "ms")
    m["complexes.smd.calls"] = metric(tracer.counts["complexes.smd.calls"], "count")
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    return m


def run_each(args) -> list[int]:
    """``--workload all``: every workload in its own fresh process, in turn."""
    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd).returncode)
    return codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return max(run_each(args))

    root = Path.cwd()
    src = root / "src"
    if not (src / "qcover" / "__init__.py").is_file():
        print("error: no src/qcover here; run from the root of a qcover checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy
    import qcover
    import workloads

    t1 = time.perf_counter()
    speed = Speed(ARRAY_WEIGHT[args.workload])
    speed.sample()
    import_wall = t1 - t0
    import_ref = import_wall * speed.scale(t0, t1)
    if Path(qcover.__file__).resolve().parent != (src / "qcover").resolve():
        print(f"error: imported qcover from {qcover.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](root, work)
    try:
        if args.trace:
            t0 = time.perf_counter()
            ops = wl.setup(args.seed)
            setup_s = import_wall + time.perf_counter() - t0
            tracer = Tracer()
            plain, traced = measure_traced(wl, ops, tracer)
            records = plain + traced
            metrics = per_layer(wl, tracer, plain, traced, cli_probes(root))
            spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_file)
            extra = {"spans_file": str(spans_file.relative_to(root))}
        else:
            wall, ref = [], []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                ops = wl.setup(args.seed)
                t1 = time.perf_counter()
                speed.sample()
                wall.append(t1 - t0)
                ref.append((t1 - t0) * speed.scale(t0, t1))
            setup_s = import_wall + statistics.median(wall)
            setup = (import_ref + statistics.median(ref), setup_s)
            passes = measure(wl, ops, args.seconds, speed)
            records = [r for p in passes for r in p]
            metrics, extra = end_to_end(wl, passes, setup, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = judge(wl, records)
    # One count per operation of the pass, however many times it ran, so
    # that attempted and failed depend on the seed and not on how many
    # passes fitted in the time.
    failed_ops = {r.op[0]: r.failure for r in records if r.failure is not None}
    failures = Counter(failed_ops.values())
    attempted = len(ops)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "ops_per_pass": len(ops),
        "setup_s": setup_s,
        "import_s": import_wall,
        "failed_ratio": sum(failures.values()) / attempted,
        "failed_by_type": dict(failures),
        "wrong": wrong[:10],
        **extra,
    }
    print(json.dumps(info))
    for line in wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
