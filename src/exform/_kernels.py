"""Numeric hot kernels: a stack-machine interpreter for compiled expression
tapes, vectorised over a batch of points, plus a fixed-step RK4 driver that
advances a whole strip fan at once.

A tape (see :mod:`exform.tape`) is postfix ``codes`` with one ``args`` entry
each (constant-pool index, coordinate axis or integer exponent), cut into
components at ``offsets`` over one float constant pool.  Every call splits it
afresh with ``tolist`` (:func:`_components`); nothing is kept per tape.
:func:`eval_pack` and :func:`rk4` run every component, and :func:`eval_tape`
is :func:`eval_pack` on a one-component tape.  Leaves on the operand stack
stay unmaterialised: a constant is a Python float and a coordinate is a row
of the ``(dim, m)`` point array, both fed straight to the numpy binary
ufuncs, so stack rows hold only intermediate results.  Unary functions and
powers always run in place on a contiguous stack row, copying a leaf in
first.  Results are bit-reproducible run to run.

Error codes: 0 ok, 1 division by zero, 2 ln of non-positive, 3 sqrt of
negative, 4 zero base with negative exponent.  Each point keeps its first
error in instruction order, and its value is NaN.  :func:`rk4` also reports
5 for the first step whose new state is not finite (overflow or NaN), which
covers any non-finite stage value, since it propagates into the new state.
"""

from __future__ import annotations

import numpy as np

OP_CONST = 0
OP_COORD = 1
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_POW = 6
OP_SIN = 7
OP_COS = 8
OP_EXP = 9
OP_LN = 10
OP_SQRT = 11
OP_NEG = 12

ERR_DIV = 1
ERR_LN = 2
ERR_SQRT = 3
ERR_POW = 4
ERR_NONFINITE = 5

ERR_MESSAGES = {
    ERR_DIV: "division by zero",
    ERR_LN: "ln of non-positive argument",
    ERR_SQRT: "sqrt of negative argument",
    ERR_POW: "zero base with negative exponent",
    ERR_NONFINITE: "non-finite value",
}

_UNARY = {OP_SIN: np.sin, OP_COS: np.cos, OP_EXP: np.exp, OP_NEG: np.negative}
_MAY_FAIL = {OP_DIV, OP_POW, OP_LN, OP_SQRT}


def backend_name() -> str:
    return "numpy"


def _flag(errs, bad, code: int) -> None:
    """Give ``code`` to the points in ``bad`` (a bool or a bool row) that have
    no error yet."""
    if bad is True or (bad is not False and bad.any()):
        errs[bad & (errs == 0)] = code


def _run(codes, args, consts, coords, stack, errs):
    """Run one decoded tape over m points.

    ``coords`` holds one row per axis and ``stack`` one row buffer per stack
    slot; an intermediate at depth d always lives in ``stack[d]``.  Domain
    errors are marked in ``errs`` in place.  Returns the result operand: a
    float, a row of ``coords`` or a row of ``stack``.
    """
    ops = []
    for code, arg in zip(codes, args):
        if code == OP_CONST:
            ops.append(consts[arg])
        elif code == OP_COORD:
            ops.append(coords[arg])
        elif code <= OP_DIV:
            b = ops.pop()
            d = len(ops) - 1
            out = stack[d]
            if code == OP_MUL:
                np.multiply(ops[d], b, out)
            elif code == OP_ADD:
                np.add(ops[d], b, out)
            elif code == OP_SUB:
                np.subtract(ops[d], b, out)
            else:
                _flag(errs, b == 0.0, ERR_DIV)
                np.divide(ops[d], b, out)
            ops[d] = out
        else:
            d = len(ops) - 1
            out = stack[d]
            if ops[d] is not out:
                out[:] = ops[d]
                ops[d] = out
            if code == OP_POW:
                if arg < 0:
                    _flag(errs, out == 0.0, ERR_POW)
                np.power(out, arg, out)
            elif code == OP_LN:
                _flag(errs, out <= 0.0, ERR_LN)
                np.log(out, out)
            elif code == OP_SQRT:
                _flag(errs, out < 0.0, ERR_SQRT)
                np.sqrt(out, out)
            else:
                _UNARY[code](out, out)
    return ops[0]


def _components(t):
    """Decode a tape: its (codes, args) list pair per component, and its pool."""
    codes, args, offsets = t.codes.tolist(), t.args.tolist(), t.offsets.tolist()
    return ([(codes[lo:hi], args[lo:hi]) for lo, hi in zip(offsets, offsets[1:])],
            t.consts.tolist())


def eval_pack(t, pts: np.ndarray):
    """Evaluate every component of a tape at an (m, dim) batch:
    (values, error codes), each (ncomp, m)."""
    comps, consts = _components(t)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    m = pts.shape[0]
    coords = list(np.ascontiguousarray(pts.T))
    stack = list(np.empty((t.stack_need, m)))
    vals = np.empty((len(comps), m))
    errs = np.zeros((len(comps), m), np.int8)
    with np.errstate(all="ignore"):
        for c, (codes, args) in enumerate(comps):
            vals[c] = _run(codes, args, consts, coords, stack, errs[c])
    if errs.any():
        vals[errs != 0] = np.nan
    return vals, errs


def eval_tape(t, pts: np.ndarray):
    """Evaluate a one-component tape at an (m, dim) batch:
    (values (m,), error codes (m,))."""
    if t.offsets.shape[0] != 2:
        raise ValueError(f"eval_tape takes one component, got {t.offsets.shape[0] - 1}")
    vals, errs = eval_pack(t, pts)
    return vals[0], errs[0]


def rk4(t, y0: np.ndarray, h: float, nsteps: int):
    """Classical fixed-step RK4 on dy/ds = t(y).

    The tape must have exactly one component per state component.  Returns
    (trajectory (nsteps+1, m, d), err) where err is None on success or a
    (step, component, code) tuple naming the first failure: a domain error
    at the first (component, point) of the failing stage, or ERR_NONFINITE
    at the first component whose new state is not finite.  The trajectory
    repeats the last good state from the failing step on.
    """
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    comps, consts = _components(t)
    if y0.ndim != 2 or y0.shape[1] != len(comps):
        raise ValueError(f"expected states of shape (m, {len(comps)}), got {y0.shape}")
    h, nsteps = float(h), int(nsteps)
    m, d = y0.shape
    comps = [(cc, aa, not _MAY_FAIL.isdisjoint(cc)) for cc, aa in comps]
    # The state is kept as (d, m), so each component is a contiguous row.
    traj = np.empty((nsteps + 1, d, m))
    traj[0] = y0.T
    stage_state = np.empty((d, m))
    coords = list(stage_state)
    stack = list(np.empty((t.stack_need, m)))
    errs = np.zeros(m, np.int8)
    k1, k2, k3, k4, acc = np.empty((5, d, m))

    def rhs(k):
        for c, (cc, aa, may_fail) in enumerate(comps):
            k[c] = _run(cc, aa, consts, coords, stack, errs)
            if may_fail and errs.any():
                return c, int(errs[errs != 0][0])
        return None

    err = None
    with np.errstate(all="ignore"):
        for step in range(nsteps):
            y, new = traj[step], traj[step + 1]
            stage_state[:] = y
            bad = rhs(k1)
            if bad is None:
                np.add(y, np.multiply(k1, 0.5 * h, stage_state), stage_state)
                bad = rhs(k2)
            if bad is None:
                np.add(y, np.multiply(k2, 0.5 * h, stage_state), stage_state)
                bad = rhs(k3)
            if bad is None:
                np.add(y, np.multiply(k3, h, stage_state), stage_state)
                bad = rhs(k4)
            if bad is None:
                # y + (h/6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
                np.add(k1, np.multiply(k2, 2.0, acc), acc)
                np.add(acc, np.multiply(k3, 2.0, new), acc)
                np.add(acc, k4, acc)
                np.add(y, np.multiply(acc, h / 6.0, acc), new)
                finite = np.isfinite(new).all(axis=1)
                if not finite.all():
                    bad = int(np.argmin(finite)), ERR_NONFINITE
            if bad is not None:
                err = (step, *bad)
                traj[step + 1:] = y
                break
    return np.ascontiguousarray(traj.transpose(0, 2, 1)), err
