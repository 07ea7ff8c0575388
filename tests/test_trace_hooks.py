"""The benchmark's tracing hooks and workload API resolve on the package.

`perfbench/tracer.py` wraps every (module, attribute) in its BOUNDARIES and
fails on a missing one, `perfbench/worker.py` reads
`expr._tape_for.cache_info`, the `fan` workload reads what `charpde`
returns, and the `verdicts` workload what `forms`, `dual` and `evolution`
return.  A rename or a return type that would crash a benchmark run fails
here first.  The perfbench modules are loaded by path and only read.
"""

import importlib
import importlib.util
import itertools
import pathlib

import numpy as np
import pytest

from exform import _kernels, expr as ex, tape

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _load("exform_bench_tracer", PERFBENCH / "tracer.py")


def _boundaries():
    return [(module, attr) for _, module, attrs in _tracer_module().BOUNDARIES
            for attr in attrs]


@pytest.mark.parametrize("module, attr", _boundaries(),
                         ids=lambda value: str(value))
def test_boundary_resolves(module, attr):
    owner = importlib.import_module(f"exform.{module}")
    for part in attr.split("."):   # "Class.method" resolves on the class
        owner = getattr(owner, part)
    assert callable(owner)


def test_tape_cache_info():
    assert callable(ex._tape_for.cache_info)


def test_tape_counters_read_compiled_tapes():
    """The compile and kernel-eval counters run on the tapes the package makes."""
    tracer = _tracer_module().Tracer()
    x1, x2 = ex.coords(ex.chart("x1", "x2"))
    exprs = [ex.sin(x1) * x2, x1 + 2.0]
    pts = np.ones((3, 2))
    one, pack = tape.compile_expr(exprs[0]), tape.pack_exprs(exprs)
    tracer._count_compile_expr((exprs[0],), one)
    tracer._count_pack_exprs((exprs,), pack)
    tracer._count_eval_tape((one, pts), _kernels.eval_tape(one, pts))
    tracer._count_eval_pack((pack, pts), _kernels.eval_pack(pack, pts))
    assert tracer.counts["tape.compile.instructions"] == one.codes.size + pack.codes.size
    assert tracer.counts["kernels.eval.points"] == 6
    assert tracer.counts["kernels.eval.instr_points"] == 3 * (one.codes.size
                                                              + pack.codes.size)


def test_compile_counter_counts_a_repeated_subexpression_once():
    """`tape.compile.instructions` counts operations: sin(x1) * x2 is two
    of them however often it repeats, by identity or by structure."""
    tracer = _tracer_module().Tracer()
    x1, x2 = ex.coords(ex.chart("x1", "x2"))
    e = ex.sin(x1) * x2
    exprs = [e + e, ex.sin(x1) * x2, e]
    tracer._count_pack_exprs((exprs,), tape.pack_exprs(exprs))
    assert tracer.counts["tape.compile.instructions"] == 3


@pytest.mark.parametrize("kind", ["quad", "osc", "eik", "growth"])
def test_fan_workload_reads_what_charpde_returns(kind, monkeypatch):
    """One 8-strip operation of each timed `fan` kind runs and passes the
    workload's own closed-form checks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))     # the workload imports gen
    fan = _load("exform_bench_fan", PERFBENCH / "workloads" / "fan.py")
    i = next(i for i in itertools.count()
             if fan.KINDS[i % len(fan.KINDS)] == kind
             and fan.STRIP_COUNTS[i % len(fan.STRIP_COUNTS)] == 8)
    spec = fan.make_op(101, i)
    runner = fan.Runner(101)
    digest = runner.digest(spec, runner.run(spec))
    assert (spec["kind"], spec["strips"]) == (kind, 8)
    assert digest["problems"] == []


def test_verdicts_workload_reads_what_forms_returns(monkeypatch):
    """One operation of each `verdicts` category runs and passes the
    workload's own check against its known answer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))     # the workload imports gen
    verdicts = _load("exform_bench_verdicts", PERFBENCH / "workloads" / "verdicts.py")
    runner = verdicts.Runner(101)
    for i, cat in enumerate(verdicts.CATEGORIES):
        spec = verdicts.make_op(101, i)
        assert spec["cat"] == cat
        digest = runner.digest(spec, runner.run(spec))
        assert verdicts.check(spec, digest) is None, cat


def test_symbolic_workload_reads_what_evolution_returns(monkeypatch):
    """One operation of each `symbolic` task runs and passes the workload's
    own check against its reference values."""
    monkeypatch.syspath_prepend(str(PERFBENCH))     # the workload imports gen
    symbolic = _load("exform_bench_symbolic", PERFBENCH / "workloads" / "symbolic.py")
    runner = symbolic.Runner(101)
    for task in ("curvature", "commutator", "partial"):
        i = symbolic.TASKS.index(task)
        spec = symbolic.make_op(101, i)
        assert spec["task"] == task
        digest = runner.digest(spec, runner.run(spec))
        assert symbolic.check(spec, digest) is None, task
