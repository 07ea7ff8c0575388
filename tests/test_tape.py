"""One tape type: a scalar expression compiles to a one-component tape, a
list of expressions to one component each over one shared constant pool."""

import math

import numpy as np
import pytest

from exform import _kernels, expr as ex, tape

CH = ex.chart("a", "b")
A, B = ex.coords(CH)


def test_compile_expr_is_a_one_component_pack():
    e = ex.sin(A * 2.0) / (B - 2.0)
    one, packed = tape.compile_expr(e), tape.pack_exprs([e])
    assert one.offsets.tolist() == [0, one.codes.size]
    for field in ("codes", "args", "consts", "offsets"):
        assert getattr(one, field).tobytes() == getattr(packed, field).tobytes()
    assert (one.stack_need, one.dim) == (packed.stack_need, packed.dim)


def test_components_share_one_sign_exact_pool():
    t = tape.pack_exprs([A + 2.0, B * 2.0, ex.const(CH, 0.0),
                         ex.const(CH, -0.0), A * 0.0])
    assert t.offsets.tolist() == [0, 3, 6, 7, 8, 11]
    assert [(v, math.copysign(1.0, v)) for v in t.consts.tolist()] == [
        (2.0, 1.0), (0.0, 1.0), (-0.0, -1.0)]
    vals, errs = _kernels.eval_pack(t, np.array([[-1.0, 3.0]]))
    assert errs.max() == 0
    assert [(v, math.copysign(1.0, v)) for v in vals[:, 0].tolist()] == [
        (1.0, 1.0), (6.0, 1.0), (0.0, 1.0), (-0.0, -1.0), (-0.0, -1.0)]


def test_pack_needs_one_chart_and_an_expression():
    with pytest.raises(ValueError):
        tape.pack_exprs([])
    with pytest.raises(ValueError):
        tape.pack_exprs([A, ex.coords(ex.chart("x"))[0]])


def test_eval_tape_is_row_zero_of_eval_pack():
    t = tape.compile_expr(ex.ln(A) + B)
    pts = np.array([[1.0, 2.0], [0.0, 1.0], [2.5, -1.0]])
    vals, errs = _kernels.eval_tape(t, pts)
    pack_vals, pack_errs = _kernels.eval_pack(t, pts)
    assert vals.shape == errs.shape == (3,)
    assert errs.tolist() == pack_errs[0].tolist() == [0, _kernels.ERR_LN, 0]
    assert vals[[0, 2]].tobytes() == pack_vals[0, [0, 2]].tobytes()
    assert math.isnan(vals[1])


def test_eval_tape_rejects_several_components():
    with pytest.raises(ValueError, match="one component"):
        _kernels.eval_tape(tape.pack_exprs([A, B]), np.zeros((1, 2)))
