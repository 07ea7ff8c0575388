"""One tape type: a scalar expression compiles to a one-component register
tape, a list of expressions to one component each over one shared constant
pool, and each distinct subexpression is one operation."""

import math

import numpy as np
import pytest

from conftest import rand_expr, unread_pool_slots
from exform import _kernels, charpde as cp, expr as ex, tape

CH = ex.chart("a", "b")
A, B = ex.coords(CH)
FIELDS = ("codes", "args", "consts", "outputs")
# edge points: zeros of either sign and negatives in both coordinates
EDGE = np.array([[1.0, 2.0], [0.0, -1.0], [-0.0, 0.0], [-3.0, -0.0], [2.5, 0.5]])


def raw(text):
    """The parsed tree of `text` over CH, as the tape compiler meets it: the
    operators would apply the simplification rules (a * 0 is 0) first."""
    return ex.parse_expr(text, CH)


def test_compile_expr_is_a_one_component_pack():
    e = ex.sin(A * 2.0) / (B - 2.0)
    one, packed = tape.compile_expr(e), tape.pack_exprs([e])
    assert one.outputs.shape == (1,)
    for field in FIELDS:
        assert getattr(one, field).tobytes() == getattr(packed, field).tobytes()
    assert (one.nreg, one.dim) == (packed.nreg, packed.dim)
    vals, errs = _kernels.eval_tape(one, EDGE)
    pack_vals, pack_errs = _kernels.eval_pack(packed, EDGE)
    assert errs.tolist() == pack_errs[0].tolist() == [_kernels.ERR_DIV] + [0] * 4  # b = 2
    assert vals.tobytes() == pack_vals[0].tobytes()


def test_components_share_one_sign_exact_pool():
    t = tape.pack_exprs([A + 2.0, B * 2.0, ex.const(CH, 0.0),
                         ex.const(CH, -0.0), raw("a * 0")])
    assert t.codes.size == 3      # leaves are slots, not operations
    assert [(v, math.copysign(1.0, v)) for v in t.consts.tolist()] == [
        (2.0, 1.0), (0.0, 1.0), (-0.0, -1.0)]
    vals, errs = _kernels.eval_pack(t, np.array([[-1.0, 3.0]]))
    assert errs.max() == 0
    assert [(v, math.copysign(1.0, v)) for v in vals[:, 0].tolist()] == [
        (1.0, 1.0), (6.0, 1.0), (0.0, 1.0), (-0.0, -1.0), (-0.0, -1.0)]


def test_signed_zero_products_never_share_a_value_number():
    t = tape.pack_exprs([raw("a * 0"), raw("a * -0"), raw("a * 0")])
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
    # every component reads the one ln, so each fails where a <= 0
    _, errs = _kernels.eval_pack(t, EDGE)
    assert errs.tolist() == [[0, _kernels.ERR_LN, _kernels.ERR_LN, _kernels.ERR_LN, 0]] * 3


def test_fan_quad_pack_has_no_repeats_and_free_constant_components():
    """The `fan` benchmark's quad canonical system: dx/dt is computed once
    although du/dt repeats it, and the constant components dt/dt = 1 and
    dp/dt = -0 cost no operation."""
    rhs, pack = _fan_pack("quad")
    assert pack.codes.size <= 8
    constant = [c for c, e in enumerate(rhs) if isinstance(e, ex.Const)]
    assert constant == [0, 3]
    assert all(pack.outputs[c] >= pack.nreg + pack.dim for c in constant)
    varying = tape.pack_exprs([e for e in rhs if not isinstance(e, ex.Const)])
    assert varying.codes.size == pack.codes.size


def test_constant_operands_that_cannot_fail_are_not_checked():
    """x / 4 and ln(2) cannot fail, so they never report an error; a constant
    that fails its test (x / 0, x / -0, ln(0), 0^-2) fails at every point."""
    zero, two = ex.const(CH, 0.0), ex.const(CH, 2.0)
    for e in (A / 4.0, raw("ln(2) + a"), raw("sqrt(2) * b"), raw("2^(-3)"), A / -2.5):
        vals, errs = _kernels.eval_tape(tape.compile_expr(e), EDGE)
        assert errs.tolist() == [0] * 5 and not np.isnan(vals).any(), ex.to_text(e)
    for e, code in ((A / 0.0, _kernels.ERR_DIV), (A / -0.0, _kernels.ERR_DIV),
                    (ex.ln(zero) + A, _kernels.ERR_LN), (zero ** -2, _kernels.ERR_POW),
                    (ex.sqrt(ex.const(CH, -1.0)), _kernels.ERR_SQRT)):
        vals, errs = _kernels.eval_tape(tape.compile_expr(e), EDGE)
        assert errs.tolist() == [code] * 5 and np.isnan(vals).all()
    # a checked operand that varies fails exactly where it is zero, in a
    # pack too, and only in the component that reads it
    vals, errs = _kernels.eval_pack(tape.pack_exprs([two / A, A + B]), EDGE)
    assert errs.tolist() == [[0, _kernels.ERR_DIV, _kernels.ERR_DIV, 0, 0], [0] * 5]
    assert np.isnan(vals[0]).tolist() == [False, True, True, False, False]


def test_fan_quad_pack_has_no_checks():
    """The quad system's divisions are by the constants 2 and 4, so they cannot
    fail, and they became multiplications by 1/2 and 1/4 (R1)."""
    rhs, pack = _fan_pack("quad")
    assert ["/ 4" in ex.to_text(e) for e in rhs] == [False, True, True, False]
    assert _kernels.OP_DIV not in pack.codes.tolist()
    y = np.vstack([np.zeros(4), -np.ones(4), [0.0, -0.0, 0.0, -0.0], [-2.0, 0.0, -0.0, 3.0]])
    vals, errs = _kernels.eval_pack(pack, y)
    assert not errs.any() and np.isfinite(vals).all()


def _strip_pack(system):
    """(right-hand sides, compiled tape) of an equation's strip system."""
    rhs = system._system[0]
    return rhs, ex._tape_for(rhs)


def _fan_pack(kind):
    if kind == "quad":
        return _strip_pack(cp.HJEquation.from_text(1, "1.1*p1^2/2 + (0.2)*p1"))
    if kind == "osc":
        return _strip_pack(cp.HJEquation.from_text(1, "p1^2/2 + 0.245*x1^2"))
    return _strip_pack(cp.FirstOrderPDE.from_text(2, "p1 + p2 - u"))


def test_fan_packs_fold_their_constant_chains():
    """dx/dt of the quad system, `1.1 * (2 * p1) * 2 / 4 + 0.2`, is 1.1 * p1 +
    0.2; the osc dx/dt `2 * p1 * 2 / 4` is p1 itself; the growth system's
    `-(p1 * -1)` is p1, so its pack is the one sum p1 + p2."""
    rhs, pack = _fan_pack("quad")
    assert ex.to_text(rhs[1]) == "1.1 * (2 * p1) * 2 / 4 + 0.2"
    dx = tape.compile_expr(rhs[1])
    assert dx.codes.tolist() == [_kernels.OP_MUL, _kernels.OP_ADD]
    assert dx.consts[dx.args[0, 1] - dx.nreg - dx.dim] == 1.1
    rhs, pack = _fan_pack("osc")
    assert pack.codes.size <= 8
    assert pack.outputs[1] == pack.nreg + 3            # the coordinate p1
    rhs, pack = _fan_pack("growth")
    assert [ex.to_text(e) for e in rhs[3:]] == ["-(p1 * -1)", "-(p2 * -1)"]
    assert pack.codes.tolist() == [_kernels.OP_ADD]
    assert pack.outputs[3:].tolist() == [pack.nreg + 3, pack.nreg + 4]


def test_every_pool_constant_is_read(rng):
    """A fold drops the constants it read through: the quad dx/dt reads 1.1
    and 0.2, not the 2, 2.2, 4.4 and 4 met on the way."""
    for kind in ("quad", "osc", "growth"):
        assert unread_pool_slots(_fan_pack(kind)[1]) == [], kind
    eik = _strip_pack(cp.FirstOrderPDE.from_text(2, "p1^2 + p2^2 - 0.81"))[1]
    assert unread_pool_slots(eik) == []
    dx = tape.compile_expr(_fan_pack("quad")[0][1])
    assert sorted(dx.consts.tolist()) == [0.2, 1.1]
    for _ in range(200):
        exprs = [rand_expr(rng, CH, depth=4) for _ in range(3)]
        texts = [ex.to_text(e) for e in exprs]
        exprs += [raw(f"2 * (({t}) * 1.1) / 4 - -(({t}) / 0.5)") for t in texts]
        assert unread_pool_slots(tape.pack_exprs(exprs)) == []


def _shape(e):
    """(opcodes, sorted constants read as first operands) of e's tape."""
    t = tape.compile_expr(e)
    return t.codes.tolist(), sorted(t.consts[t.args[:, 1][t.args[:, 1] >= t.nreg + t.dim]
                                           - t.nreg - t.dim].tolist())


def test_constant_folding_rules():
    M, N, D = _kernels.OP_MUL, _kernels.OP_NEG, _kernels.OP_DIV
    # R1: division by ±2^k is a multiplication; by 3, 0 or -0 it stays a division
    assert _shape(A / 4.0) == ([M], [0.25])
    assert _shape(A / -0.5) == ([M], [-2.0])
    assert _shape(A / 3.0)[0] == [D]
    for zero in (0.0, -0.0):
        t = tape.compile_expr(A / zero)
        assert t.codes.tolist() == [D]
        assert _kernels.eval_tape(t, EDGE)[1].tolist() == [_kernels.ERR_DIV] * 5
    # R2: scales multiply when one is a power of two and the product is normal
    assert _shape(3.0 * (A * 2.0))[0] == [M]
    assert _shape(0.5 * (1.1 * B) / 0.25) == ([M], [2.2])
    assert _shape(3.0 * (1.1 * A))[0] == [M, M]
    assert _shape(raw("3 * (a * 1)")) == ([M], [3.0])
    assert _shape(2.0 ** -1000 * (2.0 ** -100 * A))[0] == [M, M]    # 2^-1100 is subnormal
    assert _shape(2.0 ** 1000 * (2.0 ** 100 * A))[0] == [M, M]      # 2^1100 overflows
    # R3: neg flips the scale; a scale of -1 is one negation, of 1 nothing
    assert _shape(raw("-(-a)")) == ([], [])
    assert _shape(-(A * -1.0)) == ([], [])
    assert _shape(-(2.0 * A)) == ([M], [-2.0])
    assert _shape(-(A / 2.0) * -2.0) == ([], [])
    assert _shape(-A)[0] == _shape((A * 2.0) * -0.5)[0] == _shape(-(A / -4.0) * -4.0)[0] == [N]
    assert _shape(A * -1.0) == _shape(raw("a * -1 * 1")) == ([N], [])
    assert _shape(raw("1 * a")) == ([], [])
    assert _shape(raw("1 * sin(a) - sin(a) * 1"))[0] == [_kernels.OP_SIN, _kernels.OP_SUB]
    # R4: correctly rounded operations on constants only; the parser reads
    # -3 as a constant, so a negation over one is built from the node classes
    two, three = ex.const(CH, 2.0), ex.const(CH, 3.0)
    neg_two, neg_three = ex.Unary(CH, "neg", two), ex.Unary(CH, "neg", three)
    e = ex.Binary(CH, "-", raw("2 / 3"), ex.Binary(CH, "*", raw("sqrt(2)"), neg_three))
    assert tape.compile_expr(e).codes.size == 0
    assert _shape(raw("(2 + 3) * a")) == ([M], [5.0])
    for e in (*map(raw, ("sin(2)", "cos(2)", "exp(2)", "ln(2)", "2^2", "1e300 * 1e300")),
              ex.Unary(CH, "sqrt", neg_two)):
        assert tape.compile_expr(e).codes.size == 1


def test_folded_values_match_the_tree():
    """Each rule's tape gives the tree's bits; the reference evaluates the
    tree node by node in numpy."""
    pts = np.array([[1.5, -2.0], [-0.0, 0.0], [3.0e-300, 7.0], [1.0e300, -1.0e-300]])

    def tree(e):
        if isinstance(e, ex.Coord):
            return pts[:, e.axis]
        if isinstance(e, ex.Const):
            return np.full(len(pts), e.value)
        if isinstance(e, ex.Unary):
            return {"neg": np.negative, "sqrt": np.sqrt}[e.fn](tree(e.arg))
        f = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[e.op]
        return f(tree(e.left), tree(e.right))

    for e in (A / 4.0, 3.0 * (A * 2.0), 0.5 * (1.1 * B) / 0.25, raw("-(-a)"), -(A * -1.0),
              -(A / 2.0) * -2.0, (A * 2.0) * -0.5, raw("-(2 * a) + b * 0.125 / -4"),
              (2.0 * A) + 3.0 * (2.0 * A), raw("sqrt(2) * a")):
        vals, errs = _kernels.eval_tape(tape.compile_expr(e), pts)
        assert errs.max() == 0
        assert vals.tobytes() == tree(e).tobytes(), ex.to_text(e)


def test_an_operation_a_fold_reads_through_stays_if_shared():
    """`2 * a` folds into `6 * a` under `3 *`, yet the sum still reads it; in a
    pack, a component that is the inner product keeps it too.  Where nothing
    else has it, the fold takes it back."""
    inner = 2.0 * A
    t = tape.compile_expr(inner + 3.0 * inner)
    assert t.codes.tolist() == [_kernels.OP_MUL, _kernels.OP_MUL, _kernels.OP_ADD]
    t = tape.pack_exprs([3.0 * inner, inner, -inner])
    assert t.codes.size == 3
    vals, _ = _kernels.eval_pack(t, np.array([[1.25, 0.0]]))
    assert vals[:, 0].tolist() == [7.5, 2.5, -2.5]
    # `1 * tiny` cannot fold (2^-1030 is subnormal) and hands `tiny` up as
    # it is: `tiny` is then had twice and stays for the sum
    tiny = f"{2.0 ** -1030!r} * a"
    t = tape.compile_expr(raw(f"1024 * (1 * ({tiny})) + {tiny}"))
    assert t.codes.size == 3
    assert _kernels.eval_tape(t, np.array([[1.25, 0.0]]))[0].tolist() == [
        2.0 ** -1020 * 1.25 + 2.0 ** -1030 * 1.25]
    # a constant subtree met twice does not share `2 * a`
    two = raw("1 + 1")
    t = tape.compile_expr(ex.Binary(CH, "+", two, ex.Binary(CH, "*", 2.0 * A, two)))
    assert t.codes.tolist() == [_kernels.OP_MUL, _kernels.OP_ADD]
    assert _kernels.eval_tape(t, np.array([[1.25, 0.0]]))[0].tolist() == [7.0]


def test_finish_lays_out_a_hand_built_program():
    """The back end on a program no tree produced: x + y, a dead 2 * (x + y)
    and the square of the sum over the pool [2, 3], with the square, the
    coordinate x and the constant 3 as outputs.  The dead product and the
    pool entry only it reads are gone, and the square reuses the sum's
    register."""
    x, y, two, three = ~0, ~1, ~2, ~3          # value numbers at dim 2
    M = _kernels.OP_MUL
    t = tape._finish([_kernels.OP_ADD, M, M], [x, two, 0], [y, 0, 0], [2.0, 3.0],
                     [2, x, three], 2)
    assert t.codes.tolist() == [_kernels.OP_ADD, M]
    assert t.consts.tolist() == [3.0]
    assert (t.nreg, t.dim) == (1, 2)
    assert [tuple(row) for row in t.args.tolist()] == [(0, 1, 2), (0, 0, 0)]
    assert t.outputs.tolist() == [0, 1, 3]


def test_exponents_and_operand_order_keep_their_value_numbers():
    """One value-number key serves every opcode: exponents ±2^31 and the two
    orders of a difference are four operations."""
    t = tape.pack_exprs([A ** 2 ** 31, A ** -2 ** 31, A - B, B - A])
    assert t.codes.tolist() == [_kernels.OP_POW] * 2 + [_kernels.OP_SUB] * 2
    assert t.args[:2, 2].tolist() == [2 ** 31, -2 ** 31]


def test_pack_needs_one_chart_and_an_expression():
    with pytest.raises(ValueError):
        tape.pack_exprs([])
    with pytest.raises(ValueError):
        tape.pack_exprs([A, ex.coords(ex.chart("x"))[0]])


def test_pack_compares_charts_not_only_dimensions():
    """y2 over (y1, y2) is not the second coordinate of (x1, x2)."""
    x1 = ex.coords(ex.chart("x1", "x2"))[0]
    y2 = ex.coords(ex.chart("y1", "y2"))[1]
    with pytest.raises(ValueError, match="one chart"):
        tape.pack_exprs([x1 + 1, y2])
    with pytest.raises(ValueError, match="one chart"):
        ex.evaluate_pack([x1 + 1, y2], np.ones((1, 2)))


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
