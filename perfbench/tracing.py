"""Run-time spans around the calls one modalrel module makes into another.

Nothing in the package is edited: ``Tracer.install`` replaces, for the length
of one traced pass, the public names that modules look up in each other
(``modalrel.harness.evaluate``, ``modalrel.relalg.degree_of``,
``KripkeModel.successors`` ...) with timing wrappers, and ``uninstall`` puts
the originals back.  Every wrapped call is timed and counted; a span
(op, id, parent, name, start, end) is kept in memory for the layer-boundary
calls.  Recursive functions get a span for the outermost call only and a count
for every call.  ``KripkeModel.successors`` runs millions of times on the large
models, so it is counted and timed but keeps no spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

from modalrel.relalg import Product


def _plan_size(expr) -> tuple[int, int]:
    """(nodes, Product nodes) of an algebra tree, counting shared subtrees again."""
    nodes = products = 0
    pending = [expr]
    while pending:
        node = pending.pop()
        nodes += 1
        if isinstance(node, Product):
            products += 1
        for child in ("input", "left", "right"):
            sub = getattr(node, child, None)
            if sub is not None:
                pending.append(sub)
    return nodes, products


def _count_plan(tracer: Tracer, expr) -> None:
    nodes, products = _plan_size(expr)
    tracer.counts["plan_nodes"] += nodes
    tracer.counts["product_nodes"] += products


def _count_rows(tracer: Tracer, instance) -> None:
    tracer.counts["rows_out"] += len(instance.tuples)


# (defining module, attribute, span kept, recursive, result hook)
TARGETS = (
    ("modalrel.harness", "gen_model", True, False, None),
    ("modalrel.harness", "gen_query", True, False, None),
    ("modalrel.harness", "check", True, False, None),
    ("modalrel.kripke", "model_fingerprint", True, False, None),
    ("modalrel.kripke", "answer_direct", True, False, None),
    ("modalrel.kripke", "satisfies", True, True, None),
    ("modalrel.kripke", "KripkeModel.successors", False, False, None),
    ("modalrel.kripke", "validate_model", True, False, None),
    ("modalrel.kripke", "load_model", True, False, None),
    ("modalrel.schema", "build_database", True, False, None),
    ("modalrel.syntax", "parse_query", True, False, None),
    ("modalrel.syntax", "render_formula", True, False, None),
    ("modalrel.translate", "Translator.translate_query", True, False, _count_plan),
    ("modalrel.relalg", "evaluate", True, False, _count_rows),
    ("modalrel.relalg", "degree_of", True, True, None),
    ("modalrel.relalg", "to_tsv", True, False, None),
)


class Tracer:
    """Timings, counts and spans for one traced pass."""

    def __init__(self):
        self.op = None  # label of the workload operation now running
        self.spans: list[tuple] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open frames: [child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, keep_span: bool, recursive: bool, hook):
        stack = self._stack
        depth = [0]

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if recursive and depth[0]:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[0] -= 1
                stack.pop()
                duration = end - start
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    self.spans.append((self.op, span_id, parent, name, start, end))
            if hook is not None:
                # The hook's own time is tracing cost: keep it out of the
                # enclosing span's self time.
                hook_start = perf_counter()
                hook(self, result)
                if stack:
                    stack[-1][0] += perf_counter() - hook_start
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, in every loaded modalrel module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "modalrel" or n.startswith("modalrel.")]
        for module_name, attr, keep_span, recursive, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = getattr(cls, method)
                self._patch(cls, method, self.wrap(original, attr, keep_span, recursive, hook))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, attr, keep_span, recursive, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_call_ms(self, name: str) -> float:
        calls = self.calls[name]
        return 1e3 * self.total[name] / calls if calls else 0.0

    def layers(self) -> dict[str, float]:
        """Per-layer figures for this pass: seconds, per-call ms, and counts."""
        return {
            "harness.gen_s": self.self_time["gen_model"] + self.self_time["gen_query"],
            "harness.check_s": self.self_time["check"],
            "kripke.fingerprint_s": self.total["model_fingerprint"],
            "kripke.answer_direct_s": self.total["answer_direct"],
            "kripke.successors_s": self.total["KripkeModel.successors"],
            "kripke.successors_calls": self.calls["KripkeModel.successors"],
            "kripke.satisfies_calls": self.calls["satisfies"],
            "kripke.validate_calls": self.calls["validate_model"],
            "kripke.validate_s": self.total["validate_model"],
            "kripke.load_model_ms": self.per_call_ms("load_model"),
            "schema.build_database_s": self.self_time["build_database"],
            "syntax.parse_ms": self.per_call_ms("parse_query"),
            "syntax.render_s": self.total["render_formula"],
            "translate.translate_s": self.total["Translator.translate_query"],
            "translate.plan_nodes": self.counts["plan_nodes"],
            "translate.product_nodes": self.counts["product_nodes"],
            "relalg.evaluate_self_s": self.self_time["evaluate"],
            "relalg.degree_check_s": self.total["degree_of"],
            "relalg.rows_out": self.counts["rows_out"],
            "relalg.to_tsv_ms": self.per_call_ms("to_tsv"),
        }
