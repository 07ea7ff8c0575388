"""Span tracing of exform's layers, installed from outside the package.

Each boundary is wrapped at its module attribute.  exform's modules call one
another through module attributes (``ex.partial``, ``_kernels.rk4``, ...), so
the wrappers also see calls made inside the package.  A wrapper records a span
only while an operation is open (``Tracer.op`` is set) and only when no span of
the same name is already open, so a recursive call counts once, in its
outermost span.  Spans stay in memory; ``dump`` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (span name, module, attributes); "Class.method" wraps a method on a class.
# Metric names must start with a letter or digit: `_kernels` spans are "kernels.*".
BOUNDARIES = [
    ("schemas", "schemas", ["load_json_file", "form_from_json", "cell_from_json",
                            "connection_from_json", "scalar_from_json",
                            "pde_from_json", "hj_from_json"]),
    ("expr.parse", "expr", ["parse_expr"]),
    ("expr.partial", "expr", ["partial"]),
    ("expr.simplify", "expr", ["simplify"]),
    ("expr.compose", "expr", ["compose"]),
    ("expr.sample", "expr", ["probably_zero", "sampled_abs_max"]),
    ("expr.eval", "expr", ["evaluate", "evaluate_many", "evaluate_masked"]),
    ("tape.compile", "tape", ["compile_expr", "pack_exprs"]),
    ("kernels.eval", "_kernels", ["eval_tape", "eval_pack"]),
    ("kernels.rk4", "_kernels", ["rk4"]),
    ("forms.d", "forms", ["exterior_derivative"]),
    ("forms.wedge", "forms", ["wedge"]),
    ("forms.closure", "forms", ["is_closed", "closure_residual"]),
    ("forms.integrate", "forms", ["integrate_form", "stokes_residual"]),
    ("forms.homotopy", "forms", ["HomotopyField.coefficients_at"]),
    ("dual", "dual", ["hodge_star", "cauchy_riemann_residuals",
                      "harmonic_residual", "dual_closure_check"]),
    ("evolution.curvature", "evolution", ["curvature"]),
    ("evolution.torsion", "evolution", ["torsion"]),
    ("evolution.commutator", "evolution", ["evolutionary_commutator"]),
    ("charpde.strips", "charpde", ["solve_hj", "integrate_strips",
                                   "integrate_canonical_strips"]),
    ("charpde.caustic", "charpde", ["detect_caustic"]),
    ("charpde.poincare", "charpde", ["poincare_residual"]),
    ("cli.main", "cli", ["main"]),
    ("cli.write", "cli", ["_write_text"]),
]


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    return int(shape[0]) if shape else len(points)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.op = None              # id of the open operation, or None
        self.spans = []             # (name, start, end, parent index, op)
        self.counts = defaultdict(float)
        self._stack = []            # indices into spans of open spans
        self._open = defaultdict(int)

    def install(self, package) -> None:
        """Wrap every boundary of the imported exform package."""
        import importlib
        for name, module_name, attrs in BOUNDARIES:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                continue  # e.g. cli is not imported by an in-process workload
            for attr in attrs:
                owner = module
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(module, cls)
                orig = getattr(owner, attr)
                setattr(owner, attr, self._wrap(orig, name, attr))

    def _wrap(self, orig, name, attr):
        tracer = self
        count = getattr(self, "_count_" + attr, None)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.op is None or tracer._open[name]:
                return orig(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _is_open(self, name) -> bool:
        return self._open[name] > 0

    # -- counters, keyed by the wrapped attribute's name ------------------

    def _eval_points(self, n, ok=None):
        self.counts["expr.eval.points"] += n
        if self._is_open("expr.sample") and ok is not None:
            self.counts["expr.sample.points_drawn"] += n
            self.counts["expr.sample.points_rejected"] += n - int(ok.sum())
        if self._is_open("forms.integrate"):
            self.counts["forms.integrate.points"] += n

    def _count_evaluate(self, args, result):
        self._eval_points(1)

    def _count_evaluate_many(self, args, result):
        self._eval_points(_rows(args[1]))

    def _count_evaluate_masked(self, args, result):
        self._eval_points(_rows(args[1]), result[1])

    def _count_kernel_eval(self, args, result):
        rows = _rows(args[1])
        self.counts["kernels.eval.points"] += rows
        self.counts["kernels.eval.instr_points"] += rows * int(args[0].codes.size)

    _count_eval_tape = _count_kernel_eval
    _count_eval_pack = _count_kernel_eval

    def _count_rk4(self, args, result):
        self.counts["kernels.rk4.strip_steps"] += _rows(args[1]) * int(args[3])
        if result[1] is not None:
            self.counts["kernels.rk4.failures"] += 1

    def _count_compile(self, args, result):
        self.counts["tape.compile.instructions"] += int(result.codes.size)

    _count_compile_expr = _count_compile
    _count_pack_exprs = _count_compile

    def _count__write_text(self, args, result):
        self.counts["cli.write.bytes"] += len(args[1].encode("utf-8"))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[k]
        return dict(totals)

    def summary(self) -> dict:
        """Self seconds and counters, summed over every recorded operation."""
        out = dict(self.counts)
        for name, seconds in self.self_times().items():
            out[name + ".self_s"] = seconds
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
