"""The benchmark's tracing hooks resolve on the package.

`perfbench/tracer.py` wraps every (module, attribute) in its BOUNDARIES and
fails on a missing one, and `perfbench/worker.py` reads
`expr._tape_for.cache_info`.  A rename that would crash a traced benchmark
run fails here first.  The tracer module is loaded by path and only read.
"""

import importlib
import importlib.util
import pathlib

import pytest

from exform import expr as ex

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("exform_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attrs in tracer.BOUNDARIES
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
