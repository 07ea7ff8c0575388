"""The benchmark's tracing hooks resolve on the package.

`perfbench/tracer.py` wraps every (module, attribute) in its BOUNDARIES and
fails on a missing one, and `perfbench/worker.py` reads
`expr._tape_for.cache_info`.  A rename that would crash a traced benchmark
run fails here first.  The tracer module is loaded by path and only read.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from exform import _kernels, expr as ex, tape

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("exform_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
