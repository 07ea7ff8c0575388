import numpy as np
import pytest
from hypothesis import strategies as st

from exform import _kernels
from exform import expr as ex
from exform import forms
from exform.expr import Binary, Const, Coord, Power, Unary

FIXTURES = __import__("pathlib").Path(__file__).resolve().parent.parent / "fixtures"


def rand_expr(rng, chart, depth=3, trig=True):
    """Random smooth expression: polynomial with optional sin/cos, no division,
    built raw from the node classes (the operators would simplify it)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ex.const(chart, float(rng.integers(-3, 4)))
        return ex.coord(chart, int(rng.integers(chart.dim)))
    r = rng.random()
    if trig and r < 0.2:
        fn = "sin" if rng.integers(2) == 0 else "cos"
        return Unary(chart, fn, rand_expr(rng, chart, depth - 1, trig))
    if r < 0.35:
        return Power(chart, rand_expr(rng, chart, depth - 1, trig), int(rng.integers(2, 4)))
    op = ("+", "-", "*")[int(rng.integers(3))]
    return Binary(chart, op,
                  rand_expr(rng, chart, depth - 1, trig),
                  rand_expr(rng, chart, depth - 1, trig))


def smooth_trees(ch):
    """Polynomial and trig trees with small integer coefficients, whose
    derivatives stay O(1) on the sampling box."""
    leaves = st.one_of(st.builds(Const, st.just(ch), st.integers(-3, 3).map(float)),
                       st.builds(Coord, st.just(ch), st.integers(0, ch.dim - 1)))

    def extend(sub):
        return st.one_of(
            st.builds(Binary, st.just(ch), st.sampled_from("+-*"), sub, sub),
            st.builds(Power, st.just(ch), sub, st.integers(2, 3)),
            st.builds(Unary, st.just(ch), st.sampled_from(["sin", "cos"]), sub))

    return st.recursive(leaves, extend, max_leaves=6)


def unread_pool_slots(t):
    """Constant-pool slots that no operation and no component reads."""
    binary = t.codes <= _kernels.OP_DIV
    read = set(t.args[:, 1].tolist()) | set(t.args[binary, 2].tolist())
    read |= set(t.outputs.tolist())
    pool = range(t.nreg + t.dim, t.nreg + t.dim + t.consts.size)
    return [slot for slot in pool if slot not in read]


def rand_form(rng, chart, degree, depth=2, trig=True):
    import itertools
    all_indices = list(itertools.combinations(range(chart.dim), degree))
    count = int(rng.integers(1, len(all_indices) + 1))
    picks = rng.choice(len(all_indices), size=count, replace=False)
    coeffs = {all_indices[i]: rand_expr(rng, chart, depth, trig) for i in picks}
    return forms.DifferentialForm(chart, degree, coeffs)


def central_diff(e, point, axis, h=1e-5):
    lo = list(point)
    hi = list(point)
    lo[axis] -= h
    hi[axis] += h
    return (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
