"""Smoke check of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --smoke`` untraced once and traced twice,
one process at a time, and fails unless:

- every metric BENCHMARK.json names is reported, with its unit, and no
  operation failed (error_ratio is 0);
- the counts the per-layer figures rest on repeat exactly between the two
  traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "sparse_scaling", "cli_oneshot")
REPEATED_COUNTS = (
    "translate.plan_nodes",
    "translate.product_nodes",
    "relalg.rows_out",
    "kripke.satisfies_calls",
    "kripke.validate_calls",
)


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "42",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, specs: list[dict], where: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    metrics = result["metrics"]
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{where}: metric {spec['name']} missing")
        elif got["unit"] != spec["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {spec['name']} reads {got}")
    extra = set(metrics) - {spec["name"] for spec in specs}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        problems += check_result(run(workload, 0), spec["end_to_end"], f"{workload} trace=0")
        first, second = run(workload, 1), run(workload, 1)
        for where, result in (("first", first), ("second", second)):
            problems += check_result(result, spec["per_layer"], f"{workload} trace=1 {where}")
        for name in REPEATED_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs: {a} != {b}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
