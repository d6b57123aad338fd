"""modalrel benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it hold the environment and diagnostic rows, and the whole
report, spans included, goes to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 10
COUNT_METRICS = (
    "kripke.successors_calls",
    "kripke.satisfies_calls",
    "kripke.validate_calls",
    "translate.plan_nodes",
    "translate.product_nodes",
    "relalg.rows_out",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "sparse_scaling", "cli_oneshot"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for perfbench/smoke.py")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args):
    """Import the package from the checkout and build the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliOneshot:
        return cls(args.seed, args.smoke, in_process=bool(args.trace))
    return cls(args.seed, args.smoke)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
    }


def timed_passes(workload, seconds: float, traced: bool):
    """Run whole passes until the next one would overrun ``seconds``.

    Untraced: returns [(ops, wall)].  Traced: each pass runs once untraced
    and once traced on the same inputs, and the entries are
    (plain ops, plain wall, traced ops, traced wall, tracer).
    """
    from tracing import Tracer

    def plain_pass(k):
        start = perf_counter()
        ops = workload.run_pass(k)
        return ops, perf_counter() - start

    def traced_pass(k):
        tracer = Tracer()
        tracer.install()
        try:
            start = perf_counter()
            ops = workload.run_pass(k, tracer)
            return ops, perf_counter() - start, tracer
        finally:
            tracer.uninstall()

    runs = []
    loop_start = perf_counter()
    while True:
        k = len(runs)
        if not traced:
            runs.append(plain_pass(k))
        elif k % 2:
            # Alternate which side runs first, so that warming up is not
            # charged to one side of the overhead.
            traced_ops, wall, tracer = traced_pass(k)
            runs.append((*plain_pass(k), traced_ops, wall, tracer))
        else:
            ops, plain = plain_pass(k)
            runs.append((ops, plain, *traced_pass(k)))
        step = runs[-1][1] + (runs[-1][3] if traced else 0.0)
        # One traced pass is enough for per-layer figures; the untraced
        # metrics need the workload's minimum of repeats.
        enough = len(runs) >= (1 if traced else workload.min_passes)
        if enough and perf_counter() - loop_start + step > seconds:
            return runs


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus that of fresh interpreters, one at a time."""
    samples = [first]
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def layer_metrics(workload, runs) -> dict[str, float]:
    """Per traced pass: median seconds and per-call ms; counts from pass 0."""
    per_pass = [tracer.layers() for *_, tracer in runs]
    values = {
        name: per_pass[0][name] if name in COUNT_METRICS
        else statistics.median(layers[name] for layers in per_pass)
        for name in per_pass[0]
    }
    values["cli.import_ms"] = workload.import_ms() if workload.name == "cli_oneshot" else 0.0
    values["trace.overhead_s"] = statistics.median(wall - plain for _, plain, _, wall, _ in runs)
    return values


def check_digests(workload, first_pass, args, expected) -> list[dict]:
    """Answers digests against the stored ones: the default seed's reference
    subset on every run, and the whole first pass on default-seed runs."""
    import workloads

    want = expected[workload.name]
    reference = workload.reference_answers()
    checks = [{
        "digest": "reference",
        "got": workloads.answers_digest(reference),
        "want": want["reference"],
        "ops_ok": all(op.ok for op in reference),
    }]
    if args.seed == workloads.DEFAULT_SEED and not args.smoke and "default_seed" in want:
        checks.append({
            "digest": "default_seed",
            "got": workloads.answers_digest(first_pass),
            "want": want["default_seed"],
            "ops_ok": True,  # its operations are already counted one by one
        })
    for check in checks:
        check["ok"] = check["ops_ok"] and check["got"] == check["want"]
    return checks


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/modalrel/__init__.py", "tests/data/example_model.yaml") if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a modalrel source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        start = perf_counter()
        make_workload(args)
        print(perf_counter() - start)
        return 0

    env = environment(args)
    start = perf_counter()
    workload = make_workload(args)
    setup_first = perf_counter() - start

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = timed_passes(workload, args.seconds, traced=bool(args.trace))
    passes = [run[0] for run in runs]
    ops = [op for run in runs for ops in run[0:3:2] for op in ops]
    report = {"env": env, "pass_walls_s": [run[1:4:2] for run in runs]}
    values, named, diag = workload.summarise(passes)
    if args.trace:
        kind = "per_layer"
        values = layer_metrics(workload, runs)
        report["spans"] = [span for *_, tracer in runs for span in tracer.spans]
    else:
        kind = "end_to_end"
        usage = resource.RUSAGE_CHILDREN if workload.name == "cli_oneshot" else resource.RUSAGE_SELF
        values["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
        values["setup_s"] = statistics.median(setup_samples(args, setup_first))

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    digests = check_digests(workload, passes[0], args, expected)
    failed = sum(not op.ok for op in ops) + sum(not check["ok"] for check in digests)
    attempted = len(ops) + len(digests)
    named["error_ratio"] = failed / attempted
    env["loadavg_end"] = os.getloadavg()
    probes = workload.ref_loop.samples
    env["reference_loop_ms"] = {
        "median": 1e3 * statistics.median(probes), "min": 1e3 * min(probes), "max": 1e3 * max(probes),
    }
    failures = [op.label for op in ops if not op.ok][:20]

    rows = [{"named": named}, *({"diag": row} for row in diag), *({"check": c} for c in digests)]
    if failures:
        rows.append({"failed_ops": failures})
    report.update(named=named, diag=diag, checks=digests, values=values)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    out_file.write_text(json.dumps(report), encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }
    print(json.dumps({"env": env}))
    for row in rows:
        print(json.dumps(row))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
