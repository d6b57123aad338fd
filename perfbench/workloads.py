"""The three benchmark workloads.

Each workload builds its inputs from a seed, runs one *pass* of timed
operations at a time, and checks every answer it gets.  A pass is the unit the
per-layer counts are taken over: 1000 campaign cases, the 12 (n, shape) pairs
of the sparse family, or one shuffled round of the CLI query list.

The package is called through its module attributes (``harness.check``,
``kripke.answer_direct`` ...), never through names bound here, so that the
tracer's run-time wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from modalrel import errors, harness, kripke, relalg, schema, syntax, translate

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 42
CHILD_TIMEOUT_S = 60

# The acceptance suite's campaign bounds (CAMPAIGN_PARAMS in tests/test_acceptance.py).
CAMPAIGN_BOUNDS = dict(
    max_states=6, max_objects=8, max_concepts=3, max_relations=2, max_depth=4, max_free_vars=2
)

# n=200 is left out: one box-diamond query takes 63-75 s there, and the
# algebra side's intermediate rows grow by n^3 (about 8x per doubling).
SCALING_SIZES = (25, 50, 100)
SCALING_SHAPES = (
    ("diamond", "<R> @c = 'o1'", ()),
    ("box_diamond", "[R] <R> @c = ?x", ("?x",)),
    ("exists", "exists ?y . <R> @c = ?y & @id != ?y", ()),
    ("lambda", "<lam ?y . <R> @c = ?y>(@c)", ()),
)
SCALING_OUT_DEGREE = 4

EXAMPLE_MODEL = "tests/data/example_model.yaml"
# (query, targets, engine, header): both engines, with and without targets,
# a lambda, a 2-target query, and a concept variable (direct engine only).
CLI_QUERIES = (
    ("@code = 'b'", (), "both", False),
    ("@code = 'b'", (), "both", True),
    ("@id = '3' & @code = ?a", ("?a",), "both", False),
    ("<COMP> @code = ?x", ("?x",), "direct", False),
    ("<COMP> @code = ?x", ("?x",), "algebra", False),
    ("[COMP] @code != 'a'", (), "algebra", False),
    ("<lam ?y . [COMP] @code != ?y>(@code)", (), "both", False),
    ("exists ?y . <COMP> @code = ?y & @id != ?y", (), "both", False),
    ("@code = ?x & <COMP> @id = ?y", ("?x", "?y"), "both", False),
    ("forall ?x . ?x = @id | ?x != @code", (), "direct", False),
    ("exists %g . @%g = 'b'", (), "direct", False),
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    """One timed operation and the outcome of its correctness gate."""

    label: str
    seconds: float
    ok: bool
    answer: str  # digest of the canonical answer text; only the digest is kept
    extra: dict = field(default_factory=dict)
    ref: float = 0.0  # reference-loop seconds measured around the operation

    def __post_init__(self):
        self.answer = _digest(self.answer)

    @property
    def cost(self) -> float:
        """The operation's time in units of the reference loop."""
        return self.seconds / self.ref


def reference_loop() -> float:
    """Seconds taken by a fixed, interpreter-bound piece of stdlib work."""
    start = perf_counter()
    table = {}
    for i in range(3000):
        key = (i, i & 7, str(i & 63))
        table[key] = table.get(key[1:], 0) + 1
    frozenset(table)
    return perf_counter() - start


class ReferenceLoop:
    """The reference loop, timed between operations every PERIOD_S.

    The shared machine this benchmark was written on changes speed by up to
    2x within a minute.  The end-to-end timings are therefore stated in units
    of this loop, timed next to each operation: the drift both share cancels,
    and the loop itself never changes with the program.
    """

    PERIOD_S = 0.1
    WINDOW = 5

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def now(self) -> float:
        """Median of the latest probes, probing first if one is due."""
        if perf_counter() - self._last >= self.PERIOD_S:
            self.samples.append(reference_loop())
            self._last = perf_counter()
        return statistics.median(self.samples[-self.WINDOW:])

    def measure(self, operation, *args) -> Op:
        before = self.now()
        op = operation(*args)
        op.ref = (before + self.now()) / 2
        return op


def rows_text(instance) -> str:
    return "\n".join("\t".join(row) for row in sorted(instance.tuples))


def answers_digest(ops: list[Op]) -> str:
    return _digest("\n".join(f"{op.label}\t{op.answer}" for op in sorted(ops, key=lambda op: op.label)))


def quantile(values: list[float], percent: int) -> float:
    return statistics.quantiles(values, n=100)[percent - 1]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Campaign:
    """run_campaign's own loop, timed per case from outside ``check``.

    Pass k runs case indices [1000k, 1000k+1000) of one GenParams seed, so
    pass 0 is the acceptance suite's 1000-case campaign and later passes add
    fresh cases rather than repeat them.
    """

    name = "campaign"

    def __init__(self, seed: int, smoke: bool):
        self.params = harness.GenParams(seed=seed, **CAMPAIGN_BOUNDS)
        self.cases = 25 if smoke else 1000
        self.min_passes = 1
        self.ref_loop = ReferenceLoop()

    def run_pass(self, k: int, tracer=None) -> list[Op]:
        ops = []
        for index in range(k * self.cases, (k + 1) * self.cases):
            if tracer is not None:
                tracer.op = index
            ops.append(self.ref_loop.measure(self.case, self.params, index))
        return ops

    @staticmethod
    def case(params, index: int) -> Op:
        start = perf_counter()
        local = harness.case_params(params, index)
        model = harness.gen_model(local)
        query = harness.gen_query(local, model)
        report = harness.check(model, query, translate.Translator.for_model(model))
        seconds = perf_counter() - start
        answer = rows_text(report.direct) if report.direct is not None else f"error {report.error}"
        return Op(str(index), seconds, report.equal, answer, {"case_seed": local.seed})

    def reference_answers(self) -> list[Op]:
        params = harness.GenParams(seed=DEFAULT_SEED, **CAMPAIGN_BOUNDS)
        return [self.case(params, index) for index in range(100)]

    def summarise(self, passes: list[list[Op]]) -> tuple[dict, dict, list[dict]]:
        ops = [op for ops in passes for op in ops]
        times = [op.seconds for op in ops]
        costs = [op.cost for op in ops]
        rate = len(times) / sum(times)
        p50 = 1e3 * statistics.median(times)
        p99 = 1e3 * quantile(times, 99)
        metrics = {
            "ops_per_ref": len(costs) / sum(costs),
            "op_mid_ref": statistics.median(costs),
            "op_tail_ref": quantile(costs, 99),
        }
        named = {
            "campaign.cases_per_s": rate,
            "campaign.case_p50_ms": p50,
            "campaign.case_p99_ms": p99,
            "campaign.cases": len(times),
        }
        slowest = sorted(ops, key=lambda op: op.seconds, reverse=True)[:10]
        diag = [
            {"slow_case": int(op.label), "case_seed": op.extra["case_seed"], "ms": 1e3 * op.seconds}
            for op in slowest
        ]
        return metrics, named, diag


def sparse_model(n: int, rng: random.Random):
    """n states whose ids are the objects o1..on, SCALING_OUT_DEGREE edges
    out of each state on relation R, and one extra concept c."""
    states = tuple(f"s{i}" for i in range(1, n + 1))
    objects = [f"o{i}" for i in range(1, n + 1)]
    edges = frozenset(
        (state, f"s{j}")
        for state in states
        for j in rng.sample(range(1, n + 1), min(SCALING_OUT_DEGREE, n))
    )
    model = kripke.KripkeModel(
        states=states,
        relations={"R": edges},
        objects=frozenset(objects),
        concepts={
            kripke.ID_CONCEPT: dict(zip(states, objects)),
            "c": {state: rng.choice(objects) for state in states},
        },
        object_constants=frozenset(objects),
    )
    kripke.validate_model(model)
    return model


class SparseScaling:
    """Four fixed query shapes on sparse models of growing size, each answered
    the way ``modalrel eval --engine both`` does."""

    name = "sparse_scaling"

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        sizes = (6, 9) if smoke else SCALING_SIZES
        self.models = [(n, sparse_model(n, rng)) for n in sizes]
        self.min_passes = 1 if smoke else 3
        self.ref_loop = ReferenceLoop()

    def run_pass(self, k: int, tracer=None) -> list[Op]:
        ops = []
        for n, model in self.models:
            for shape in SCALING_SHAPES:
                ops.append(self.ref_loop.measure(self.answer, n, model, shape, tracer))
        return ops

    @staticmethod
    def answer(n: int, model, shape, tracer=None) -> Op:
        name, text, target = shape
        label = f"n{n:03d}/{name}"
        if tracer is not None:
            tracer.op = label
        start = perf_counter()
        try:
            query = syntax.parse_query(text, list(target))
            direct_start = perf_counter()
            direct = kripke.answer_direct(model, query)
            algebra_start = perf_counter()
            db = schema.build_database(model)
            algebra = relalg.evaluate(translate.translate_query(query, model), db)
        except errors.ModalRelError as exc:
            return Op(label, perf_counter() - start, False, f"error {exc}")
        end = perf_counter()
        extra = {
            "direct_s": algebra_start - direct_start,
            "algebra_s": end - algebra_start,
            "rows": len(direct.tuples),
        }
        return Op(label, end - start, direct == algebra, rows_text(direct), extra)

    def reference_answers(self) -> list[Op]:
        model = sparse_model(SCALING_SIZES[0], random.Random(DEFAULT_SEED))
        return [self.answer(SCALING_SIZES[0], model, shape) for shape in SCALING_SHAPES]

    def summarise(self, passes: list[list[Op]]) -> tuple[dict, dict, list[dict]]:
        ops = [op for ops in passes for op in ops]
        by_pair: dict[str, list[Op]] = {}
        for op in ops:
            by_pair.setdefault(op.label, []).append(op)

        def pair_medians(key) -> dict[str, float]:
            return {label: statistics.median(key(op) for op in runs) for label, runs in by_pair.items()}

        eval_s = pair_medians(lambda op: op.seconds)
        eval_cost = pair_medians(lambda op: op.cost)
        direct_s = pair_medians(lambda op: op.extra.get("direct_s", op.seconds))
        algebra_s = pair_medians(lambda op: op.extra.get("algebra_s", op.seconds))
        eval_geomean = 1e3 * geomean(list(eval_s.values()))
        eval_total = sum(eval_s.values())
        metrics = {
            "ops_per_ref": len(ops) / sum(op.cost for op in ops),
            "op_mid_ref": geomean(list(eval_cost.values())),
            "op_tail_ref": sum(eval_cost.values()),
        }
        named = {
            "scaling.eval_geomean_ms": eval_geomean,
            "scaling.algebra_geomean_ms": 1e3 * geomean(list(algebra_s.values())),
            "scaling.direct_geomean_ms": 1e3 * geomean(list(direct_s.values())),
            "scaling.eval_total_s": eval_total,
            "scaling.pairs_per_s": len(ops) / sum(op.seconds for op in ops),
            "scaling.repeats": len(passes),
        }
        diag = []
        for label in sorted(by_pair):
            n, shape = label.split("/")
            rows = by_pair[label][0].extra.get("rows")
            for engine, medians in (("direct", direct_s), ("algebra", algebra_s)):
                diag.append(
                    {"pair": label, "n": int(n[1:]), "shape": shape, "engine": engine,
                     "ms": 1e3 * medians[label], "rows": rows}
                )
        return metrics, named, diag


class CliOneshot:
    """``modalrel eval`` on the example model, one process per call.

    The traced run drives the same argv through ``modalrel.cli.main`` in
    process instead, since wrappers cannot reach into a child interpreter.
    """

    name = "cli_oneshot"

    def __init__(self, seed: int, smoke: bool, in_process: bool = False):
        from modalrel import cli

        self.cli = cli
        self.seed = seed
        self.in_process = in_process
        # At least 100 calls, so that ten or more samples lie beyond p90.
        self.min_passes = 1 if smoke else -(-100 // len(CLI_QUERIES))
        self.argvs = []
        self.expected = []
        model = kripke.load_model(ROOT / EXAMPLE_MODEL)
        for text, target, engine, header in CLI_QUERIES:
            argv = ["eval", EXAMPLE_MODEL, text, "--engine", engine]
            for name in target:
                argv += ["-t", name]
            if header:
                argv.append("--header")
            self.argvs.append(argv)
            self.expected.append(self.in_process_answer(model, text, target, engine, header))
        self.command = [sys.executable, "-m", "modalrel.cli"]
        self.env = child_env()
        self.ref_loop = ReferenceLoop()

    @staticmethod
    def in_process_answer(model, text, target, engine, header) -> str | None:
        """to_tsv of the in-process answer; None when the engines disagree."""
        query = syntax.parse_query(text, list(target))
        answers = []
        if engine in ("direct", "both"):
            answers.append(kripke.answer_direct(model, query))
        if engine in ("algebra", "both"):
            db = schema.build_database(model)
            answers.append(relalg.evaluate(translate.translate_query(query, model), db))
        if any(answer != answers[0] for answer in answers):
            return None
        return relalg.to_tsv(answers[0], header=header)

    def run_pass(self, k: int, tracer=None) -> list[Op]:
        order = list(range(len(CLI_QUERIES)))
        random.Random(f"{self.seed}:{k}").shuffle(order)
        ops = []
        for index in order:
            if tracer is not None:
                tracer.op = index
            ops.append(self.ref_loop.measure(self.call_in_process if self.in_process else self.call, index))
        return ops

    def call(self, index: int) -> Op:
        start = perf_counter()
        try:
            proc = subprocess.run(
                self.command + self.argvs[index],
                cwd=ROOT, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Op(str(index), perf_counter() - start, False, "timeout")
        seconds = perf_counter() - start
        out = proc.stdout.decode("utf-8", "replace")
        expected = self.expected[index]
        ok = proc.returncode == 0 and expected is not None and proc.stdout == expected.encode("utf-8")
        return Op(str(index), seconds, ok, out)

    def call_in_process(self, index: int) -> Op:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argvs[index])
        except SystemExit as exc:
            code = exc.code
        seconds = perf_counter() - start
        ok = code in (0, None) and out.getvalue() == self.expected[index]
        return Op(str(index), seconds, ok, out.getvalue())

    def reference_answers(self) -> list[Op]:
        return [
            Op(str(index), 0.0, expected is not None, expected or "")
            for index, expected in enumerate(self.expected)
        ]

    def import_ms(self, samples: int = 5) -> float:
        """Median time for a fresh interpreter to run ``import modalrel.cli``."""
        probe = "import time; t = time.perf_counter(); import modalrel.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(samples):
            proc = subprocess.run(
                [sys.executable, "-c", probe],
                cwd=ROOT, env=self.env, capture_output=True, check=True, timeout=CHILD_TIMEOUT_S,
            )
            times.append(float(proc.stdout))
        return 1e3 * statistics.median(times)

    def summarise(self, passes: list[list[Op]]) -> tuple[dict, dict, list[dict]]:
        ops = [op for ops in passes for op in ops]
        times = [op.seconds for op in ops]
        costs = [op.cost for op in ops]
        metrics = {
            "ops_per_ref": len(costs) / sum(costs),
            "op_mid_ref": statistics.median(costs),
            "op_tail_ref": quantile(costs, 90),
        }
        named = {
            "cli.calls_per_s": len(times) / sum(times),
            "cli.eval_p50_ms": 1e3 * statistics.median(times),
            "cli.eval_p90_ms": 1e3 * quantile(times, 90),
            "cli.calls": len(times),
        }
        diag = []
        for index, argv in enumerate(self.argvs):
            mine = [op.seconds for op in ops if op.label == str(index)]
            diag.append({"cli_query": index, "argv": argv[2:], "ms": 1e3 * statistics.median(mine)})
        return metrics, named, diag


WORKLOADS = {w.name: w for w in (Campaign, SparseScaling, CliOneshot)}
