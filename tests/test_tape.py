"""One tape type: a scalar expression compiles to a one-component register
tape, a list of expressions to one component each over one shared constant
pool, and each distinct subexpression is one operation."""

import math

import numpy as np
import pytest

from exform import _kernels, charpde as cp, expr as ex, tape

CH = ex.chart("a", "b")
A, B = ex.coords(CH)
FIELDS = ("codes", "args", "consts", "outputs", "checks", "check_offsets")


def test_compile_expr_is_a_one_component_pack():
    e = ex.sin(A * 2.0) / (B - 2.0)
    one, packed = tape.compile_expr(e), tape.pack_exprs([e])
    assert one.outputs.shape == (1,) and one.check_offsets.tolist() == [0, 1]
    for field in FIELDS:
        assert getattr(one, field).tobytes() == getattr(packed, field).tobytes()
    assert (one.nreg, one.dim) == (packed.nreg, packed.dim)


def test_components_share_one_sign_exact_pool():
    t = tape.pack_exprs([A + 2.0, B * 2.0, ex.const(CH, 0.0),
                         ex.const(CH, -0.0), A * 0.0])
    assert t.codes.size == 3      # leaves are slots, not operations
    assert [(v, math.copysign(1.0, v)) for v in t.consts.tolist()] == [
        (2.0, 1.0), (0.0, 1.0), (-0.0, -1.0)]
    vals, errs = _kernels.eval_pack(t, np.array([[-1.0, 3.0]]))
    assert errs.max() == 0
    assert [(v, math.copysign(1.0, v)) for v in vals[:, 0].tolist()] == [
        (1.0, 1.0), (6.0, 1.0), (0.0, 1.0), (-0.0, -1.0), (-0.0, -1.0)]


def test_signed_zero_products_never_share_a_value_number():
    t = tape.pack_exprs([A * 0.0, A * -0.0, A * 0.0])
    assert t.codes.size == 2
    assert t.outputs[0] == t.outputs[2] != t.outputs[1]
    vals, _ = _kernels.eval_pack(t, np.array([[1.0, 0.0]]))
    assert [math.copysign(1.0, v) for v in vals[:, 0].tolist()] == [1.0, -1.0, 1.0]


def test_square_reads_one_slot_twice():
    leaf = tape.compile_expr(A * A)
    assert leaf.codes.tolist() == [_kernels.OP_MUL] and leaf.nreg == 1
    assert leaf.args[0, 1] == leaf.args[0, 2] == leaf.nreg   # coordinate a's slot
    # (a + b) * (a + b), built twice: the sum is computed once
    t = tape.compile_expr((A + B) * (A + B))
    assert t.codes.tolist() == [_kernels.OP_ADD, _kernels.OP_MUL]
    assert t.args[1, 1] == t.args[1, 2] == t.args[0, 0]


def test_repeats_within_and_across_components_run_once():
    shared = ex.ln(A) + B
    t = tape.pack_exprs([shared * shared, ex.ln(A) + B, 2.0 * ex.ln(A)])
    assert t.codes.size == 4      # ln, +, *, and 2 * ln
    assert t.checks.tolist() == [0, 0, 0] and t.check_offsets.tolist() == [0, 1, 2, 3]


def test_fan_quad_pack_has_no_repeats_and_free_constant_components():
    """The `fan` benchmark's quad canonical system: dx/dt is computed once
    although du/dt repeats it, and the constant components dt/dt = 1 and
    dp/dt = -0 cost no operation."""
    rhs, pack, _ = cp._canonical_system(cp.HJEquation.from_text(1, "1.1*p1^2/2 + (0.2)*p1"))
    assert pack.codes.size <= 12
    constant = [c for c, e in enumerate(rhs) if isinstance(e, ex.Const)]
    assert constant == [0, 3]
    assert all(pack.outputs[c] >= pack.nreg + pack.dim for c in constant)
    varying = tape.pack_exprs([e for e in rhs if not isinstance(e, ex.Const)])
    assert varying.codes.size == pack.codes.size


def test_constant_operands_that_cannot_fail_are_not_checked():
    """x / 4 and ln(2) cannot fail, so they have no checks; a constant that
    fails its test (x / 0, x / -0, ln(0), 0^-2) fails at every point."""
    zero, two = ex.const(CH, 0.0), ex.const(CH, 2.0)
    for e in (A / 4.0, ex.ln(two) + A, ex.sqrt(two) * B, two ** -3, A / -2.5):
        assert tape.compile_expr(e).checks.size == 0
    pts = np.array([[1.0, 2.0], [0.0, -1.0], [-3.0, 0.0]])
    for e, code in ((A / 0.0, _kernels.ERR_DIV), (A / -0.0, _kernels.ERR_DIV),
                    (ex.ln(zero) + A, _kernels.ERR_LN), (zero ** -2, _kernels.ERR_POW),
                    (ex.sqrt(ex.const(CH, -1.0)), _kernels.ERR_SQRT)):
        t = tape.compile_expr(e)
        assert t.checks.size == 1
        vals, errs = _kernels.eval_tape(t, pts)
        assert errs.tolist() == [code] * 3 and np.isnan(vals).all()
    # a checked operand that varies is still checked
    assert tape.compile_expr(two / A).checks.size == 1


def test_fan_quad_pack_has_no_checks():
    """The quad system's divisions are by the constants 2 and 4."""
    _, pack, _ = cp._canonical_system(cp.HJEquation.from_text(1, "1.1*p1^2/2 + (0.2)*p1"))
    assert _kernels.OP_DIV in pack.codes.tolist() and pack.checks.size == 0


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


@pytest.mark.parametrize("width", [1, 3])
def test_point_batch_must_match_the_chart(width):
    """A batch of the wrong width raises instead of reading its columns as
    other slots or running off the coordinate rows."""
    pts = np.ones((2, width))
    with pytest.raises(ValueError, match=r"\(m, 2\)"):
        ex.evaluate_masked(A + B, pts)
    with pytest.raises(ValueError, match=r"\(m, 2\)"):
        _kernels.eval_pack(tape.pack_exprs([A + B, A]), pts)
