"""Kernel parity: every case is compiled twice, to a register tape by
`exform.tape` and to a postfix tape by the reference compiler in
`kernels_reference`.  `_kernels` on the register tape must match the reference
interpreter and RK4 driver on the postfix tape bit for bit (NaN-equal),
error codes included."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernels_reference as ref
from exform import _kernels, charpde as cp, expr as ex, tape

from conftest import rand_expr, unread_pool_slots
from kernels_reference import _eval_pack_numpy, _eval_tape_numpy, _rk4_numpy

CH = ex.chart("x1", "x2", "x3")


def raw(text):
    """The parsed tree of `text` over CH: the operators would simplify it."""
    return ex.parse_expr(text, CH)


def edge_expr(rng, chart, depth=3):
    """rand_expr plus the partial operations: /, ln, sqrt and negative powers,
    built raw from the node classes."""
    if depth == 0 or rng.random() < 0.25:
        return rand_expr(rng, chart, depth=1)

    def sub():
        return edge_expr(rng, chart, depth - 1)

    r = rng.random()
    if r < 0.15:
        return ex.Binary(chart, "/", sub(), sub())
    if r < 0.25:
        return ex.Unary(chart, "ln", sub())
    if r < 0.35:
        return ex.Unary(chart, "sqrt", sub())
    if r < 0.45:
        return ex.Power(chart, sub(), -int(rng.integers(1, 4)))
    if r < 0.55:
        return ex.Unary(chart, ("sin", "cos", "exp", "neg")[int(rng.integers(4))], sub())
    return ex.Binary(chart, ("+", "-", "*")[int(rng.integers(3))], sub(), sub())


def edge_points(rng, m):
    """About half the coordinates are small integers, so sums, differences and
    products hit 0 exactly: zero divisors, ln(0), sqrt(0) and 0^-k."""
    pts = rng.uniform(-2, 2, size=(m, CH.dim))
    grid = rng.integers(-3, 4, size=(m, CH.dim)).astype(float)
    return np.where(rng.random((m, CH.dim)) < 0.5, grid, pts)


def assert_same(got, ref):
    """Identical bits, NaN matching NaN."""
    assert got.shape == ref.shape and got.dtype == ref.dtype
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def check_expr(e, pts):
    vals, errs = _kernels.eval_tape(tape.compile_expr(e), pts)
    r = ref.compile_expr(e)
    ref_vals, ref_errs = _eval_tape_numpy(r.codes, r.args, r.consts,
                                          np.ascontiguousarray(pts), r.stack_need)
    assert np.array_equal(errs, ref_errs) and errs.dtype == ref_errs.dtype
    assert_same(vals, ref_vals)
    return errs


def check_pack(exprs, pts):
    vals, errs = _kernels.eval_pack(tape.pack_exprs(exprs), pts)
    r = ref.pack_exprs(exprs)
    ref_vals, ref_errs = _eval_pack_numpy(r.codes, r.args, r.consts, r.offsets,
                                          np.ascontiguousarray(pts), r.stack_need)
    assert np.array_equal(errs, ref_errs) and errs.dtype == ref_errs.dtype
    assert_same(vals, ref_vals)
    return errs


def test_eval_tape_matches_reference_on_edge_corpus(rng):
    seen = set()
    for _ in range(240):
        e = edge_expr(rng, CH, depth=4)
        seen.update(check_expr(e, edge_points(rng, 48)).tolist())
    # the corpus reaches every domain edge and has in-domain points too
    assert seen >= {0, _kernels.ERR_DIV, _kernels.ERR_LN, _kernels.ERR_SQRT,
                    _kernels.ERR_POW}


def test_eval_pack_matches_reference(rng):
    x1, x2, _ = ex.coords(CH)
    for _ in range(40):
        exprs = [edge_expr(rng, CH, depth=3) for _ in range(3)]
        exprs += [ex.const(CH, 1.0), x2, x1 / 0.0]
        check_pack(exprs, edge_points(rng, 32))


def shared_packs(rng, x1, x2):
    """Packs whose components share subexpressions by identity and by
    structure, may-fail ones included, in varying component order."""
    ln_x1 = ex.ln(x1)
    base = [ln_x1 + x2, 2.0 * ln_x1, ex.Binary(CH, "/", x1, ex.Binary(CH, "-", x2, x2)),
            x1 / 0.0, x1 / -0.0, ex.const(CH, 1.0)]
    yield base
    yield [ex.ln(x1) + x2, 2.0 * ex.ln(x1), ex.ln(x1)]      # by structure only
    yield [1.0 / x2, ln_x1 + 1.0 / x2]      # second component fails ln first
    yield [raw("x1 * 0"), raw("x1 * -0"), raw("x1 * 0 + x1 * -0")]
    for _ in range(60):
        parts = [edge_expr(rng, CH, depth=3) for _ in range(3)]
        exprs = []
        for _ in range(int(rng.integers(2, 6))):
            a = parts[int(rng.integers(len(parts)))]
            b = parts[int(rng.integers(len(parts)))]
            r = rng.random()
            e = (a if r < 0.2
                 else ex.Binary(CH, "/", ex.Unary(CH, "sqrt", a), b) if r < 0.4
                 else ex.Binary(CH, ("+", "-", "*", "/")[int(rng.integers(4))], a, b))
            exprs.append(e)
            parts.append(e)
        # the same trees rebuilt node by node share by structure only
        exprs.append(ex.parse_expr(ex.to_text(exprs[0]), CH)
                     if rng.random() < 0.5 else exprs[-1])
        yield [base[int(i)] for i in rng.choice(len(base), 2, replace=False)] + exprs


def test_eval_pack_matches_reference_on_shared_subexpressions(rng):
    x1, x2, _ = ex.coords(CH)
    seen = set()
    for exprs in shared_packs(rng, x1, x2):
        pts = np.vstack([edge_points(rng, 24), [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]])
        seen.update(check_pack(exprs, pts).ravel().tolist())
    assert seen >= {0, _kernels.ERR_DIV, _kernels.ERR_LN, _kernels.ERR_SQRT}


def test_component_error_follows_its_own_postfix_order():
    """A may-fail operation shared with an earlier component still counts in
    the later component's own order: ln comes before the division there."""
    x1, x2, _ = ex.coords(CH)
    t = tape.pack_exprs([1.0 / x2, ex.ln(x1) + 1.0 / x2])
    _, errs = _kernels.eval_pack(t, np.zeros((1, 3)))
    assert errs[:, 0].tolist() == [_kernels.ERR_DIV, _kernels.ERR_LN]


_FN = st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "neg"])


def _trees(ch):
    leaves = st.one_of(
        st.builds(ex.Coord, st.just(ch), st.integers(0, ch.dim - 1)),
        st.builds(ex.Const, st.just(ch), st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5])))

    def extend(sub):
        return st.one_of(
            st.builds(ex.Binary, st.just(ch), st.sampled_from("+-*/"), sub, sub),
            st.builds(ex.Power, st.just(ch), sub, st.integers(-3, 3)),
            st.builds(ex.Unary, st.just(ch), _FN, sub))

    return st.recursive(leaves, extend, max_leaves=8)


def _partial_trees(ch):
    """The productions of conftest's smooth_trees (small integer constants,
    + - *, squares, cubes, sin, cos) plus the partial operations /, ln, sqrt
    and ^-1, so an error code meets every other operation on its way up."""
    leaves = st.one_of(st.builds(ex.Const, st.just(ch), st.integers(-3, 3).map(float)),
                       st.builds(ex.Coord, st.just(ch), st.integers(0, ch.dim - 1)))

    def extend(sub):
        return st.one_of(
            st.builds(ex.Binary, st.just(ch), st.sampled_from("+-*/"), sub, sub),
            st.builds(ex.Power, st.just(ch), sub, st.sampled_from([-1, 2, 3])),
            st.builds(ex.Unary, st.just(ch), st.sampled_from(["sin", "cos", "ln", "sqrt"]), sub))

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def _shared_pack(draw, trees):
    """Components built over a pool of subtrees, so that they share nodes by
    identity (one pool entry used twice) and by structure (equal draws)."""
    pool = draw(st.lists(trees(CH), min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    exprs = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.integers(0, 2))
        if shape == 0:
            e = draw(pick)
        elif shape == 1:
            e = ex.Unary(CH, draw(_FN), draw(pick))
        else:
            e = ex.Binary(CH, draw(st.sampled_from("+-*/")), draw(pick), draw(pick))
        exprs.append(e)
    return exprs


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 3.0])


@pytest.mark.parametrize("trees", [_trees, _partial_trees], ids=["trees", "partial_trees"])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(),
       points=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=6))
def test_shared_pack_parity_property(trees, data, points):
    check_pack(data.draw(_shared_pack(trees)), np.array(points))


# Constant chains: powers of two, -1 and others, through *, / and neg
_CHAIN_CONSTS = st.sampled_from([2.0, 0.5, -1.0, 4.0, 0.25, -2.0, 1.0, 1.1, 3.0, -0.7,
                                 0.0, -0.0])


def _chains(ch):
    """Trees whose constant factors chain, mixed with sums, products and
    quotients of subtrees and with sqrt and ln, so checks fail too.  No exp
    or power: on the points drawn, nothing nears overflow or the subnormals,
    where a folded chain may differ from the tree (see exform.tape)."""
    const = st.builds(ex.Const, st.just(ch), _CHAIN_CONSTS)
    leaves = st.one_of(st.builds(ex.Coord, st.just(ch), st.integers(0, ch.dim - 1)), const)

    def extend(sub):
        return st.one_of(
            st.builds(lambda k, e: ex.Binary(ch, "*", k, e), const, sub),
            st.builds(lambda e, k: ex.Binary(ch, "*", e, k), sub, const),
            st.builds(lambda e, k: ex.Binary(ch, "/", e, k), sub, const),
            st.builds(lambda e: ex.Unary(ch, "neg", e), sub),
            st.builds(ex.Binary, st.just(ch), st.sampled_from("+-*/"), sub, sub),
            st.builds(ex.Unary, st.just(ch), st.sampled_from(["sqrt", "ln"]), sub))

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def _chain_pack(draw):
    """Chain trees, plus constant multiples of them that share their nodes,
    so a fold reads through an operation another component still needs."""
    exprs = draw(st.lists(_chains(CH), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        e = draw(st.sampled_from(exprs))
        exprs.append(ex.Binary(CH, "*", ex.Const(CH, draw(_CHAIN_CONSTS)), e))
    return exprs


def unread_operations(t):
    """Operations whose register no later operation reads before it is
    written again, and that no component outputs."""
    codes, args = t.codes.tolist(), t.args.tolist()
    outputs = set(t.outputs.tolist())
    unread = []
    for i, (d, _, _) in enumerate(args):
        for c, (d2, a, b) in zip(codes[i + 1:], args[i + 1:]):
            if a == d or c <= _kernels.OP_DIV and b == d:
                break
            if d2 == d:
                unread.append(i)
                break
        else:
            if d not in outputs:
                unread.append(i)
    return unread


@settings(max_examples=120, deadline=None, database=None)
@given(_chain_pack(),
       st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=6))
def test_constant_chain_parity_property(exprs, points):
    """Folded chains give the tree's bits and error codes, and leave no
    operation and no pool constant that nothing reads."""
    check_pack(exprs, np.array(points))
    check_expr(exprs[-1], np.array(points))
    t = tape.pack_exprs(exprs)
    assert unread_operations(t) == [] and unread_pool_slots(t) == []


def test_a_product_the_fold_read_through_is_kept_where_read_again():
    """`(2 * x1) * 3 + 2 * x1`, its two `2 * x1` built apart: the fold makes
    6 * x1 after 2 * x1, the sum reads both, and the tape keeps three
    operations in that order and gives the tree's bits."""
    x1, _, _ = ex.coords(CH)
    e = (2.0 * x1) * 3.0 + 2.0 * x1
    t = tape.compile_expr(e)
    M = _kernels.OP_MUL
    assert t.codes.tolist() == [M, M, _kernels.OP_ADD]
    assert t.consts[t.args[:2, 1] - t.nreg - t.dim].tolist() == [2.0, 6.0]
    assert unread_operations(t) == [] and unread_pool_slots(t) == []
    check_expr(e, np.array([[1.25, 0.0, 0.0], [-3.0, 1.0, 2.0], [1e300, 0.0, 0.0]]))


def test_folded_chain_stays_finite_where_the_tree_overflowed():
    """The one place a folded tape differs: `(2 * x1) * 0.75` is one product
    `1.5 * x1`, finite at x1 = 1e308 where the tree's `2 * x1` is inf."""
    x1, _, _ = ex.coords(CH)
    e = (2.0 * x1) * 0.75
    t = tape.compile_expr(e)
    assert t.codes.tolist() == [_kernels.OP_MUL] and t.consts.tolist()[-1] == 1.5
    pts = np.array([[1e308, 0.0, 0.0], [1.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])
    vals, errs = _kernels.eval_tape(t, pts)
    r = ref.compile_expr(e)
    ref_vals, ref_errs = _eval_tape_numpy(r.codes, r.args, r.consts, pts, r.stack_need)
    assert errs.tolist() == ref_errs.tolist() == [0, 0, 0]
    assert vals.tolist() == [1.5e308, 1.5, -4.5]
    assert ref_vals.tolist() == [np.inf, 1.5, -4.5]


def test_single_leaves_and_constant_domain_edges(rng):
    x1, x2, x3 = ex.coords(CH)
    one = ex.const(CH, 1.0)
    neg_one = ex.Unary(CH, "neg", one)    # the parser reads -1 as a constant
    cases = [one, x2, neg_one, ex.sin(x3), raw("1 + 2"), x1 / 0.0, raw("0 / 0"),
             raw("x1 + 1 / 0"), raw("0^(-2)"), raw("0^3"), raw("ln(0)"),
             ex.Unary(CH, "sqrt", neg_one), raw("ln(x1) + 1 / (x2 - x2)"),
             ex.Binary(CH, "/", one, x3 - 1.0)]
    pts = edge_points(rng, 16)
    for e in cases:
        check_expr(e, pts)
        check_expr(e, pts[:1])


def _first_nonfinite(traj):
    """(step, component) whose new state first leaves the finite numbers, or
    None.  Step s makes sample s + 1; the initial sample is not a new state."""
    bad = ~np.isfinite(traj[1:]).all(axis=1)   # (steps, d)
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size == 0:
        return None
    s = int(rows[0])
    return s, int(np.argmax(bad[s]))


# (system, initial states, step, steps, outcome of the reference run)
HJ_OSC = cp.HJEquation.from_text(1, "p1^2/2 + 0.7*x1^2")
HJ_QUAD = cp.HJEquation.from_text(1, "1.1*p1^2/2 + (0.2)*p1")
HJ_LN = cp.HJEquation.from_text(1, "-p1 + ln(x1)")
HJ_BLOWUP = cp.HJEquation.from_text(1, "p1^2/2 - x1^4/4")
PDE_EIK = cp.FirstOrderPDE.from_text(2, "p1^2 + p2^2 - 1")
PDE_SQRT = cp.FirstOrderPDE.from_text(1, "p1 - 2*sqrt(1 - x1)")
PDE_BLOWUP = cp.FirstOrderPDE.from_text(1, "p1 - u^2")
PDE_GROWTH = cp.FirstOrderPDE.from_text(2, "p1 + p2 - u")

RK4_CASES = [
    (HJ_OSC, [[0.0, x, 0.5 * x, -x] for x in np.linspace(-1, 1, 9)], 0.01, 200, "ok"),
    (HJ_QUAD, [[0.0, x, 0.0, -0.3 * x] for x in np.linspace(-1, 1, 9)], 0.01, 200, "ok"),
    (HJ_LN, [[0.0, 0.5, 0.0, 1.0], [0.0, 2.0, 0.0, 0.5]], 0.1, 100, "domain"),
    (HJ_BLOWUP, [[0.0, 1.0, 0.0, 1.0], [0.0, 0.5, 0.0, 0.2]], 0.01, 400, "nonfinite"),
    (PDE_EIK, [[0.0, 0.0, 0.0, 0.6, 0.8], [1.0, -1.0, 2.0, 1.0, 0.0]], 0.01, 100, "ok"),
    (PDE_SQRT, [[0.0, 0.0, 2.0], [0.5, 0.0, 2.0 ** 0.5]], 0.03, 100, "domain"),
    (PDE_BLOWUP, [[0.0, 1.0, 1.0], [0.0, 0.6, 0.36]], 0.01, 200, "nonfinite"),
    (PDE_GROWTH, [[0.1, 0.2, 0.5, 0.3, 0.2]], 0.05, 40, "ok"),
]


def _system(system):
    """(right-hand sides, register tape) of a system's characteristic ODEs."""
    rhs = system._system[0]
    return rhs, ex._tape_for(rhs)


def test_rk4_matches_reference_on_canonical_and_charpit_systems():
    for system, initials, h, steps, outcome in RK4_CASES:
        rhs, pack = _system(system)
        r = ref.pack_exprs(rhs)
        y0 = np.array(initials)
        traj, err = _kernels.rk4(pack, y0, h, steps)
        ref_traj, ref_info = _rk4_numpy(r.codes, r.args, r.consts, r.offsets,
                                        r.stack_need, y0, h, steps)
        blowup = _first_nonfinite(ref_traj)
        # a step-major view of one (steps+1, d, m) buffer, not a copy
        assert traj.shape == ref_traj.shape and traj.base is not None
        assert traj.transpose(0, 2, 1).flags.c_contiguous
        if outcome == "nonfinite":
            assert blowup is not None and ref_info[0] < 0
            step, comp = blowup
            assert err == (step, comp, _kernels.ERR_NONFINITE)
            assert_same(traj[:step + 1], ref_traj[:step + 1])
            assert np.array_equal(traj[step + 1:],
                                  np.broadcast_to(ref_traj[step], traj[step + 1:].shape))
        else:
            assert blowup is None
            assert (err is None) == (outcome == "ok")
            expected = None if ref_info[0] < 0 else tuple(ref_info.tolist())
            assert err == expected
            assert_same(traj, ref_traj)


def _reuse_cases():
    """(right-hand sides, initial states, h, steps, whether rk4 reuses its
    first stage), the reuse rule's edge cases among them."""
    chart = ex.chart("a", "b", "c", "d")
    a, b, c, _ = ex.coords(chart)
    xu = ex.chart("x", "u")
    x, u = ex.coords(xu)

    def k(v):
        return ex.const(xu, v)

    signed_zeros = np.array([[-0.0, -0.0], [0.5, -0.0], [0.0, 0.0]])
    return [
        ([b * c, b * c, a, ex.const(chart, -0.0)],
         np.array([[0.1, 0.2, 0.3, 0.4], [1.0, -0.5, 0.25, 0.0]]), 0.01, 50, False),
        # eikonal Charpit strips: dp = -0, and only p is read
        (list(_system(PDE_EIK)[0]),
         np.array([[0.0, 0.0, 0.0, 0.6, 0.8], [1.0, -1.0, 2.0, 1.0, 0.0]]), 0.01, 100, True),
        # dx = u copies row u, which no operation reads, and du = 1
        ([u, k(1.0)], np.array([[0.0, 0.0]]), 0.1, 3, False),
        # -0 * (h/2) is +0 for h < 0, and -0 + +0 is +0: b = -0 moves to +0
        ([ex.sin(u), k(-0.0)], signed_zeros, -0.1, 3, False),
        ([ex.sin(u), k(0.0)], signed_zeros, -0.1, 3, True),
        # -1e-320 * h/2 and -1e-320 * h underflow to -0
        ([ex.sin(u), k(-1e-320)], signed_zeros, 1e-5, 4, True),
        # -5e-324 * h/2 rounds to -0, but -5e-324 * h does not
        ([u * 1e300, k(-5e-324)], np.array([[0.0, 0.0]]), 1.0, 2, False),
        # a domain error at the first stage and a blow-up, each under reuse
        ([ex.ln(u), k(-0.0)], np.array([[0.0, 0.5], [0.0, -1.0]]), 0.1, 5, True),
        ([ex.exp(u) * 1e307, k(-0.0)], np.array([[1.7e308, 1.0], [0.0, -1.0]]), 0.1, 8, True),
    ]


def test_rk4_matches_reference_with_repeated_coordinate_and_constant_components(monkeypatch):
    """Each case keeps the reference's bits and (step, component, code), and
    binds one stage program under reuse, four otherwise."""
    binds = []
    bind = _kernels._bind
    monkeypatch.setattr(_kernels, "_bind", lambda *args: binds.append(1) or bind(*args))
    outcomes = []
    for rhs, y0, h, steps, reuse in _reuse_cases():
        binds.clear()
        err = check_rk4(rhs, y0, h, steps)
        assert len(binds) == (1 if reuse else 4)
        outcomes.append(err)
    assert outcomes[-2:] == [(0, 0, _kernels.ERR_LN), (3, 0, _kernels.ERR_NONFINITE)]
    assert outcomes[:-2] == [None] * (len(outcomes) - 2)
    rhs, y0, h, steps, _ = _reuse_cases()[2]   # dx = u, du = 1: x = s^2/2
    traj, _ = _kernels.rk4(tape.pack_exprs(rhs), y0, h, steps)
    assert traj[-1, 0].tolist() == [0.045000000000000005, 0.30000000000000004]


def test_rk4_reports_domain_failure():
    chart = ex.chart("a",)
    a = ex.coords(chart)[0]
    # dy/ds = -1, with a log term (weight 0) that leaves the domain at y = 0
    rhs = ex.Binary(chart, "+", ex.const(chart, -1.0),
                    ex.Binary(chart, "*", ex.const(chart, 0.0), ex.ln(a)))
    pack = tape.pack_exprs([rhs])
    traj, err = _kernels.rk4(pack, np.array([[0.5]]), 0.1, 100)
    assert err is not None
    step, comp, code = err
    assert comp == 0 and code == _kernels.ERR_LN
    assert step == 5


def test_pack_offsets_and_shared_consts():
    chart = ex.chart("a", "b")
    a, b = ex.coords(chart)
    pack = tape.pack_exprs([a + 2.0, b * 2.0, ex.const(chart, 2.0)])
    vals, errs = _kernels.eval_pack(pack, np.array([[1.0, 3.0]]))
    assert errs.max() == 0
    assert vals[:, 0].tolist() == [3.0, 6.0, 2.0]


def _reference_rk4(rhs, y0, h, steps):
    r = ref.pack_exprs(rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_numpy(r.codes, r.args, r.consts, r.offsets, r.stack_need,
                          y0, h, steps)


def _reference_outcome(rhs, y0, h, steps):
    """The reference trajectory and error under the kernel's failure rule: the
    first non-finite new state wins over any domain error at a later step,
    and the trajectory repeats the last good state from the failing step on."""
    traj, info = _reference_rk4(rhs, y0, h, steps)
    blowup = _first_nonfinite(traj)
    if blowup is None:
        return traj, None if info[0] < 0 else tuple(info.tolist())
    step, comp = blowup
    assert info[0] < 0 or info[0] > step
    traj[step + 1:] = traj[step]
    return traj, (step, comp, _kernels.ERR_NONFINITE)


def check_rk4(rhs, y0, h, steps):
    traj, err = _kernels.rk4(tape.pack_exprs(rhs), y0, h, steps)
    ref_traj, ref_err = _reference_outcome(rhs, y0, h, steps)
    assert err == ref_err
    assert_same(traj, ref_traj)
    return err


def test_rk4_blowup_before_a_later_domain_error_reports_the_blowup():
    """a' = 1e308 overflows a to inf in step 0 although every stage is finite;
    step 1 then divides by 1/a = 0.  The non-finite state wins."""
    chart = ex.chart("a", "b")
    a, _ = ex.coords(chart)
    one = ex.const(chart, 1.0)
    rhs = [ex.const(chart, 1e308), one / (one / a)]
    y0 = np.array([[1.0, 0.0], [2.0, 1.0]])
    for steps in (1, 2, 5):
        assert check_rk4(rhs, y0, 0.1, steps) == (0, 0, _kernels.ERR_NONFINITE)
    _, info = _reference_rk4(rhs, y0, 0.1, 5)
    # the reference has no finiteness check and runs on to the division
    assert info.tolist() == [1, 1, _kernels.ERR_DIV]


def test_rk4_nonfinite_initial_state_fails_at_step_zero():
    rhs, _ = _system(HJ_OSC)
    # (t, x, u, p): nothing reads u, so an inf u stays in its own component,
    # while a NaN p reaches x (dx/dt = p) in step 0 and x is the first one
    for bad, comp in (([0.0, 0.5, np.inf, -1.0], 2), ([0.0, np.nan, 0.0, 1.0], 1),
                      ([0.0, 0.5, 0.0, np.nan], 1)):
        y0 = np.array([[0.0, 0.2, 0.0, 0.3], bad])
        for steps in (1, 3):
            assert check_rk4(rhs, y0, 0.01, steps) == (0, comp, _kernels.ERR_NONFINITE)


def test_rk4_blowup_on_the_last_step_is_reported():
    rhs, _ = _system(PDE_BLOWUP)
    y0 = np.array([[0.0, 1.0, 1.0], [0.0, 0.6, 0.36]])
    ref_traj, _ = _reference_rk4(rhs, y0, 0.01, 200)
    step, comp = _first_nonfinite(ref_traj)
    assert step > 0
    assert check_rk4(rhs, y0, 0.01, step) is None
    assert check_rk4(rhs, y0, 0.01, step + 1) == (step, comp, _kernels.ERR_NONFINITE)


def test_rk4_finite_states_whose_sum_overflows_report_no_error():
    """The finiteness scan starts from one sum of the new states; a sum that
    overflows while every state is finite is not a failure."""
    chart = ex.chart("a", "b")
    a, b = ex.coords(chart)
    rhs = [b * -1e-300, ex.const(chart, 0.0)]
    y0 = np.array([[1e308, 1e308], [1.5e308, -1e308], [1e308, 1e308]])
    traj, err = _kernels.rk4(tape.pack_exprs(rhs), y0, 0.1, 4)
    assert err is None and np.isfinite(traj).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite(traj[1:].transpose(0, 2, 1).sum())
    assert check_rk4(rhs, y0, 0.1, 4) is None


class _UfuncRecorder:
    """Stands in for numpy inside `_kernels`, recording every ufunc call and
    operand."""

    def __init__(self):
        self.operands = []
        self.calls = 0

    def wrap(self, f):
        def call(*args, **kwargs):
            self.calls += 1
            self.operands.extend(args)
            return f(*args, **kwargs)
        return call

    def __getattr__(self, name):
        f = getattr(np, name)
        return self.wrap(f) if isinstance(f, np.ufunc) else f


def _record_ufuncs(monkeypatch):
    """Route every ufunc and check test `_kernels` calls through a recorder."""
    rec = _UfuncRecorder()
    monkeypatch.setattr(_kernels, "np", rec)
    for code, f in _kernels._UFUNC.items():
        monkeypatch.setitem(_kernels._UFUNC, code, rec.wrap(f))
    for code, (err, test) in _kernels._CHECK.items():
        monkeypatch.setitem(_kernels._CHECK, code, (err, rec.wrap(test)))
    return rec


def test_ufunc_operands_are_arrays(monkeypatch):
    """Constants, exponents, check zeros and the RK4 step constants reach
    numpy as arrays, so no Python scalar is converted per call."""
    x1, x2, x3 = ex.coords(CH)
    pack = tape.pack_exprs([x1 / 4.0 + 0.5, raw("ln(2) * x2"), ex.sin(x3) ** 3, x1 ** -2,
                            ex.sqrt(x2) - ex.ln(x3), x1 / (x2 - 1.0), x1 / 0.0,
                            raw("exp(2)")])
    system = tape.pack_exprs([x2 * 0.5, -x1 * 1.5 + x3 ** 2, ex.const(CH, 1.0)])
    rec = _record_ufuncs(monkeypatch)
    _, errs = _kernels.eval_pack(pack, edge_points(np.random.default_rng(7), 8))
    assert errs.any()
    _, err = _kernels.rk4(system, np.array([[0.1, 0.2, 0.3]]), 0.01, 3)
    assert err is None
    assert rec.operands
    assert [v for v in rec.operands if not isinstance(v, np.ndarray)] == []
    assert any(v.ndim == 0 for v in rec.operands)


def test_rk4_step_runs_one_stage_program_when_every_read_row_is_frozen(monkeypatch):
    """The ufunc calls of one RK4 step, counted as the calls at 3 steps less
    those at 2.  A stage program is the calls of one `eval_pack` of the tape.
    The skeleton is three 2-call stage updates and the 7-call combination;
    under reuse it is the combination alone, forming 2 k2 once (6 calls)."""
    quad = _system(cp.HJEquation.from_text(1, "1.2*p1^2/2 + 0.3*p1"))[1]
    eik = _system(PDE_EIK)[1]
    osc = _system(HJ_OSC)[1]
    # dp (quad's last component, eik's last two) is the pool constant -0.0
    for t, dp in ((quad, [3]), (eik, [3, 4])):
        first_const = t.nreg + t.dim
        for s in t.outputs[dp].tolist():
            assert s >= first_const and t.consts[s - first_const] == 0
            assert np.signbit(t.consts[s - first_const])
    rec = _record_ufuncs(monkeypatch)

    def calls(f, *args):
        before = rec.calls
        err = f(*args)[1]
        assert err is None or not err.any()
        return rec.calls - before

    for t, stages, skeleton in ((quad, 1, 6), (eik, 1, 6), (osc, 4, 13)):
        y0 = np.linspace(0.1, 0.9, 8 * t.dim).reshape(8, t.dim)
        program = calls(_kernels.eval_pack, t, y0)
        step = calls(_kernels.rk4, t, y0, 0.01, 3) - calls(_kernels.rk4, t, y0, 0.01, 2)
        assert step == stages * program + skeleton


def test_eval_pack_reads_an_f_ordered_batch_bit_for_bit(rng):
    for _ in range(40):
        t = tape.pack_exprs([edge_expr(rng, CH, depth=3) for _ in range(3)])
        pts = edge_points(rng, 33)
        f_pts = np.asfortranarray(pts)
        assert f_pts.flags.f_contiguous and not f_pts.flags.c_contiguous
        vals, errs = _kernels.eval_pack(t, f_pts)
        c_vals, c_errs = _kernels.eval_pack(t, pts)
        assert np.array_equal(errs, c_errs)
        assert vals.tobytes() == c_vals.tobytes()


@pytest.mark.parametrize("samples, m", [(7, 13), (3, 64), (5, 1)])
def test_eval_pack_reads_a_step_major_buffer_bit_for_bit(rng, samples, m):
    """An (S, m, dim) view of an (S, dim, m) buffer, the layout of an RK4
    trajectory, gives the values and codes of its contiguous (S*m, dim) copy,
    for every opcode, at points where each may-fail operation fails."""
    x1, x2, x3 = ex.coords(CH)
    exprs = [ex.sin(x1) * ex.cos(x2) - ex.exp(x3), ex.ln(x1 + x2) / (x3 - 1.0),
             ex.sqrt(x2) + x1 ** 3, (x1 - x3) ** -1, -x2]
    t = tape.pack_exprs(exprs)
    assert set(t.codes.tolist()) >= {
        _kernels.OP_SIN, _kernels.OP_COS, _kernels.OP_EXP, _kernels.OP_LN, _kernels.OP_SQRT,
        _kernels.OP_POW, _kernels.OP_DIV, _kernels.OP_NEG}
    assert {b for c, (_, _, b) in zip(t.codes.tolist(), t.args.tolist())
            if c == _kernels.OP_POW} == {3, -1}
    seen = set()
    for _ in range(20):
        t = tape.pack_exprs(exprs + [edge_expr(rng, CH, depth=3) for _ in range(2)])
        pts = edge_points(rng, samples * m).reshape(samples, m, CH.dim)
        view = np.ascontiguousarray(pts.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert not view.flags.c_contiguous or m == 1
        vals, errs = _kernels.eval_pack(t, view)
        flat_vals, flat_errs = _kernels.eval_pack(t, view.reshape(-1, CH.dim))
        assert vals.shape == errs.shape == (len(exprs) + 2, samples, m)
        assert errs.dtype == np.int8
        assert np.array_equal(errs, flat_errs.reshape(errs.shape))
        assert vals.tobytes() == flat_vals.reshape(vals.shape).tobytes()
        seen.update(errs.ravel().tolist())
    assert seen >= {0, _kernels.ERR_DIV, _kernels.ERR_LN, _kernels.ERR_SQRT,
                    _kernels.ERR_POW}
