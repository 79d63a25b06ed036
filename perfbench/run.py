"""defring benchmark: one seeded workload through the public pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ladder_search --seed 1 --seconds 35 --trace 0

Each item goes `.alg` text -> parse -> classify -> serialize_report, then
verify_report replays the report.  A pass runs every item once; passes
repeat while another one fits in `--seconds` (at least MIN_PASSES).  Every
verdict is checked against the generator's expected answer, every report
must verify, and the report bytes must agree between passes.  Times are
in reference seconds (see `Clock`), which takes out most of the drift in
host speed that other tenants of a shared machine cause.

`--trace 0` prints the end-to-end metrics, untraced.  `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, the tracing overhead, the coverage check and the determinism guard
(traced report bytes equal untraced ones).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from tracer import Tracer  # noqa: E402

MIN_PASSES = 3
SETUP_REPS = 9
# median time of calibration_kernel on the machine the benchmark was tuned
# on (2 cores, x86-64, Python 3.11.7)
KERNEL_REFERENCE_S = 0.0035
KERNEL_WINDOW = 3
OUT_DIR = HERE / "out"

END_TO_END_UNITS = {"classify_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# spans that must fire on each workload; the union covers every span
EXPECTED_SPANS = {
    "ladder_search": ["classify.ladder_search", "lift.extend_step",
                      "lift.residual_coefficients", "linalg.Matrix.mul"],
    "ext_wide": ["rep.DeformationSystem", "rep.ext1_cocycle", "rep.ext1_syzygy",
                 "rep.hom_basis", "rep.hom_stable", "classify.tangent_dimension",
                 "linalg.rref", "linalg.Matrix.from_rows"],
    "long_ladder": ["lift.verify_ladder", "lift.as_representation", "linalg.Matrix.power",
                    "linalg.Matrix.mul", "rep.ext1_hereditary"],
}
ALWAYS_SPANS = ["dsl.parse", "dsl.serialize_report", "algebra.from_source",
                "classify.classify", "certificates.verify_report"]


@dataclass
class PassResult:
    classify_s: float  # reference seconds (see Clock)
    verify_s: float
    classify_wall_s: float
    verify_wall_s: float
    blobs: list
    errors: dict = field(default_factory=dict)  # item index -> reason


# ----------------------------------------------------------------------
# timing


def calibration_kernel() -> float:
    """Wall seconds of a fixed piece of pure-Python work; measures host speed.

    Elimination mod p, Fraction sums and dict updates: the kind of work
    defring's inner loops do, written here so that no change to defring
    changes it.
    """
    t0 = time.perf_counter()
    p = 10007
    n = 28
    rows = [[(i * 7 + j * j * 13 + i * j + 1) % p for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i, 7 + i % 5)
    acc, seen = 0, {}
    for i in range(12000):
        acc = (acc * 31 + i) % 1000003
        seen[i % 97] = acc
    return time.perf_counter() - t0


class Clock:
    """Times steps in reference seconds: wall time scaled to the host's speed.

    The kernel runs before the first step and after every step.  A step's
    wall time is multiplied by KERNEL_REFERENCE_S over the median of the
    kernel times nearest to it (KERNEL_WINDOW on each side).  On a host
    that runs the kernel in KERNEL_REFERENCE_S, reference seconds equal
    wall seconds.
    """

    def __init__(self):
        self.kernels = [calibration_kernel()]
        self.walls = []

    def time(self, step, *args):
        t0 = time.perf_counter()
        try:
            return step(*args)
        finally:
            self.walls.append(time.perf_counter() - t0)
            self.kernels.append(calibration_kernel())

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def reference(self) -> float:
        total = 0.0
        for i, wall in enumerate(self.walls):
            # step i ran between kernels i and i + 1
            near = self.kernels[max(0, i + 1 - KERNEL_WINDOW):i + 1 + KERNEL_WINDOW]
            total += wall * KERNEL_REFERENCE_S / statistics.median(near)
        return total


# ----------------------------------------------------------------------
# environment and set-up


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_defring():
    """A fresh import of defring from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "defring" or m.startswith("defring.")]:
        del sys.modules[name]
    return importlib.import_module("defring")


def set_up(args) -> tuple:
    """Import defring, generate the inputs and parse each once; SETUP_REPS times.

    Returns (defring module, items, median set-up seconds).
    """
    src = ROOT / "src"
    if not (src / "defring").is_dir():
        raise FileNotFoundError(f"no defring sources under {src}")
    sys.path.insert(0, str(src))

    def set_up_once():
        api = import_defring()
        items = workloads.generate(args.workload, args.seed, ROOT / "corpus")
        for item in items:
            api.parse(item.text, item.id)
        return api, items

    times = []
    for _ in range(SETUP_REPS):
        # free the previous set-up's modules first, or each set-up adds to the peak memory
        api = items = None
        gc.collect()
        clock = Clock()
        api, items = clock.time(set_up_once)
        times.append(clock.reference)
    return api, items, statistics.median(times)


# ----------------------------------------------------------------------
# one pass


def run_pass(api, items, tracer=None) -> PassResult:
    blobs = [None] * len(items)
    errors = {}

    def classify(item):
        source = api.parse(item.text, item.id)
        report = api.classify(source, item.module, api.ClassifyConfig(max_order=item.max_order))
        return api.serialize_report(report)

    classify_clock = Clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        try:
            blobs[i] = classify_clock.time(classify, item)
        except Exception as exc:  # any failure of the program is a failed item
            errors[i] = f"classify raised {type(exc).__name__}: {exc}"
    verify_clock = Clock()
    for i, item in enumerate(items):
        if blobs[i] is None:
            continue
        if tracer is not None:
            tracer.item = i
        try:
            result = verify_clock.time(api.verify_report, item.text, item.module, blobs[i],
                                       item.id)
            if not result.ok:
                errors[i] = f"verify_report rejects: {', '.join(result.failures)}"
        except Exception as exc:
            errors[i] = f"verify_report raised {type(exc).__name__}: {exc}"
    return PassResult(classify_clock.reference, verify_clock.reference,
                      classify_clock.wall, verify_clock.wall, blobs, errors)


def verdict_mismatch(blob: str, expect: dict) -> str | None:
    """Why a report's verdict differs from the expected one, or None."""
    verdict = json.loads(blob)["verdict"]
    got = {"type": verdict.get("type"), "n": verdict.get("N"),
           "proved": verdict.get("proved"), "max_order_checked": verdict.get("max_order_checked")}
    wrong = [f"{k} {got[k]!r} != {v!r}" for k, v in expect.items() if got[k] != v]
    if "n" not in expect and got["n"] is not None:
        wrong.append(f"unexpected N {got['n']!r}")
    return "; ".join(wrong) or None


def check_pass(items, result: PassResult, reference: list | None, differs: str) -> dict:
    """Item index -> reason, for every item of the pass that failed."""
    errors = dict(result.errors)
    for i, item in enumerate(items):
        blob = result.blobs[i]
        if i in errors or blob is None:
            continue
        reason = verdict_mismatch(blob, item.expect)
        if reason:
            errors[i] = f"verdict: {reason}"
        elif reference is not None and blob != reference[i]:
            errors[i] = differs
    return errors


def proved_ratio(items, blobs) -> tuple:
    """(proved, eligible): reports proved among items expected finite or power_series."""
    eligible = [i for i, it in enumerate(items) if it.expect["type"] in ("finite", "power_series")]
    proved = sum(1 for i in eligible
                 if blobs[i] is not None and json.loads(blobs[i])["verdict"].get("proved") is True)
    return proved, len(eligible)


# ----------------------------------------------------------------------
# runs


def describe(values: list) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"median {statistics.median(values):.4f} over {len(values)} passes "
            f"(q1 {q[0]:.4f}, q3 {q[2]:.4f}, min {min(values):.4f}, max {max(values):.4f})")


class Budget:
    """Measuring time: another lap starts only if a typical lap still fits."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.laps = []

    def lap(self):
        now = time.perf_counter()
        self.laps.append(now - self.last)
        self.last = now

    def room_for_another(self) -> bool:
        return self.last - self.start + statistics.median(self.laps) <= self.seconds


class Run:
    def __init__(self, args, api, items):
        self.args = args
        self.api = api
        self.items = items
        self.reference = None
        self.attempted = 0
        self.failures = []  # (pass label, item id, reason)

    def record(self, label: str, result: PassResult,
               differs: str = "report bytes differ from the first pass"):
        errors = check_pass(self.items, result, self.reference, differs)
        if self.reference is None:
            self.reference = result.blobs
        else:
            # only the first pass's reports are kept, so that the peak memory
            # does not grow with the number of passes that fit in the budget
            result.blobs = None
        self.attempted += len(self.items)
        for i, reason in sorted(errors.items()):
            self.failures.append((label, self.items[i].id, reason))

    def untraced(self) -> list:
        passes = []
        budget = Budget(self.args.seconds)
        while len(passes) < MIN_PASSES or budget.room_for_another():
            result = run_pass(self.api, self.items)
            self.record(f"pass {len(passes) + 1}", result)
            passes.append(result)
            budget.lap()
        return passes

    def traced(self) -> tuple:
        """Alternate untraced and traced passes; returns both lists and the tracer."""
        tracer = Tracer()
        plain, traced, layers = [], [], []
        budget = Budget(self.args.seconds)
        while not traced or budget.room_for_another():
            result = run_pass(self.api, self.items)
            self.record(f"untraced pass {len(plain) + 1}", result)
            plain.append(result)
            tracer.install()
            try:
                mark = tracer.start_pass()
                result = run_pass(self.api, self.items, tracer)
            finally:
                tracer.uninstall()
            self.record(f"traced pass {len(traced) + 1}", result,
                        "determinism guard: traced report bytes differ from untraced ones")
            traced.append(result)
            layers.append(tracer.summary(mark, len(self.items)))
            budget.lap()
        return plain, traced, layers, tracer


def header(args, api, n_items: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "items": n_items, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit_of(ROOT),
        "defring": getattr(api, "__version__", "unknown"),
    }


def end_to_end(run: Run, passes: list, setup_s: float) -> dict:
    classify_s = [p.classify_s for p in passes]
    verify_s = [p.verify_s for p in passes]
    print("times in reference seconds: wall time scaled to the host speed the "
          "calibration kernel measures")
    print(f"classify_s   {describe(classify_s)} s")
    print(f"verify_s     {describe(verify_s)} s")
    print(f"setup_s      median {setup_s:.4f} over {SETUP_REPS} set-ups s")
    print(f"wall time    classify {statistics.median(p.classify_wall_s for p in passes):.4f} s, "
          f"verify {statistics.median(p.verify_wall_s for p in passes):.4f} s "
          f"(medians over {len(passes)} passes)")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb  {peak:.2f} MB")
    failed = len(run.failures)
    print(f"error_rate   {failed}/{run.attempted} = {failed / run.attempted:.4f} ratio")
    proved, eligible = proved_ratio(run.items, run.reference)
    if eligible:
        print(f"proved_ratio {proved}/{eligible} = {proved / eligible:.4f} ratio")
    else:
        print("proved_ratio undefined: no item expects finite or power_series")
    values = {"classify_s": statistics.median(classify_s),
              "verify_s": statistics.median(verify_s),
              "setup_s": setup_s, "peak_rss_mb": peak}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def isolation(workload: str, value) -> tuple:
    """The claim that the workload isolates its layer, and whether it holds."""
    if workload == "ext_wide":
        calls = value("classify.ladder_search.calls")
        return f"classify.ladder_search.calls = {calls} (expected 0)", calls == 0
    if workload == "ladder_search":
        part, whole = "lift.extend_step.total_s", value("classify.classify.total_s")
        label = f"{part} / classify.classify.total_s"
    else:
        part = "lift.verify_ladder.total_s"
        whole = value("classify.classify.total_s") + value("certificates.verify_report.total_s")
        label = f"{part} / (classify.classify + certificates.verify_report).total_s"
    share = value(part) / whole if whole else 0.0
    return f"{label} = {share:.4f} (expected > 0.5)", share > 0.5


def per_layer(run: Run, plain: list, traced: list, layers: list) -> tuple:
    """Medians of the per-layer values over traced passes, plus the checks."""
    metrics = {}
    for name in layers[0]:
        value = statistics.median(layer[name] for layer in layers)
        unit = ("s" if name.endswith("_s") else "ratio" if name.endswith("_ratio")
                else "count/item" if name.endswith("per_item") else "count")
        metrics[name] = {"value": value, "unit": unit}
    untraced = statistics.median(p.classify_s + p.verify_s for p in plain)
    with_trace = statistics.median(p.classify_s + p.verify_s for p in traced)
    metrics["trace.overhead_s"] = {"value": with_trace - untraced, "unit": "s"}
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    print(f"tracing overhead: traced {with_trace:.4f} s - untraced {untraced:.4f} s "
          f"= {with_trace - untraced:.4f} s of classify_s + verify_s")

    def value(name):
        return metrics[name]["value"]

    expected = EXPECTED_SPANS[run.args.workload] + ALWAYS_SPANS
    silent = [s for s in expected if value(f"{s}.calls") == 0]
    print(f"coverage check: {'ok' if not silent else 'FAILED'}"
          f" ({len(expected) - len(silent)}/{len(expected)} expected spans fire"
          + (f"; silent: {', '.join(silent)}" if silent else "") + ")")
    label, holds = isolation(run.args.workload, value)
    print(f"isolation: {label}: {'holds' if holds else 'does not hold'}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name} = {m['value']} {m['unit']}")
    return metrics, not silent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        api, items, setup_s = set_up(args)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    info = header(args, api, len(items))
    print("defring benchmark " + " ".join(f"{k}={v}" for k, v in info.items()))
    run = Run(args, api, items)
    checks_ok = True
    if args.trace:
        plain, traced, layers, tracer = run.traced()
        metrics, checks_ok = per_layer(run, plain, traced, layers)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(spans_path, dict(info, passes_traced=len(traced),
                                     items_by_index=[it.id for it in items]))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        passes = run.untraced()
        metrics = end_to_end(run, passes, setup_s)
    for label, item_id, reason in run.failures:
        print(f"FAILED {label} {item_id}: {reason}")
    failed = len(run.failures)
    correct = failed == 0 and checks_ok
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
