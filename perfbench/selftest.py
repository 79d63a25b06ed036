"""Smoke self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For each workload it runs one cheap item untraced and traced, with the
workload's own checks (the coverage check included), and checks the result
line against BENCHMARK.json; then it flips the item's expected verdict and
checks that the harness reports the failure and exits non-zero.  Runs in
process, in a few seconds; exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1
GENERATE = workloads.generate


def cheap_item(workload: str) -> workloads.Item:
    """A small item of the workload that fires every span the workload expects."""
    items = GENERATE(workload, SEED, run.ROOT / "corpus")
    if workload == "ladder_search":
        return next(it for it in items if it.id == "kx2_f2")
    if workload == "ext_wide":
        return next(it for it in items if it.id == "J3_2loops_q:S")
    return min((it for it in items if it.id.startswith("loop_f2_")), key=lambda it: it.max_order)


def tampered(item: workloads.Item) -> workloads.Item:
    flipped = "point" if item.expect["type"] != "point" else "out_of_scope"
    return dataclasses.replace(item, expect={"type": flipped})


def invoke(workload: str, item: workloads.Item, trace: int) -> tuple:
    """run.main on the contract's arguments, with the workload cut to `item`."""
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    out = io.StringIO()
    workloads.generate = lambda *_: [item]
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(argv)
    finally:
        workloads.generate = GENERATE
    return code, out.getvalue().splitlines()


def check_result(lines: list, names: dict, label: str, problems: list):
    head = lines[0]
    for key in ("python=", "nproc=", "commit=", f"seed={SEED}"):
        if key not in head:
            problems.append(f"{label}: header line lacks {key}")
    if not any("passes" in line for line in lines[1:-1]):
        problems.append(f"{label}: no pass count printed")
    if any(line.startswith("coverage check: FAILED") for line in lines):
        problems.append(f"{label}: coverage check failed")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: {result['correct']=} {result['failed']=}")
    if set(result["metrics"]) != set(names):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(names))}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or metric["unit"] != names.get(name):
            problems.append(f"{label}: bad metric {name} {metric}")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        return print("workloads differ from BENCHMARK.json") or 1
    problems = []
    for workload in workloads.WORKLOADS:
        item = cheap_item(workload)
        for trace, names in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} {item.id} trace={trace}"
            code, lines = invoke(workload, item, trace)
            if code != 0:
                problems.append(f"{label}: exit code {code}")
            check_result(lines, names, label, problems)
            print(f"ran {label}: exit {code}")
        code, lines = invoke(workload, tampered(item), 0)
        result = json.loads(lines[-1])
        if code == 0 or result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: tampered verdict not caught: exit {code}, {result}")
        print(f"ran {workload} {item.id} with a tampered expected verdict: exit {code}, "
              f"failed {result['failed']}")
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "ok" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
