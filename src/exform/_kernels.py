"""Numeric hot kernels: an interpreter for compiled register tapes, vectorised
over a batch of points, plus a fixed-step RK4 driver that advances a whole
strip fan at once.

A tape (see :mod:`exform.tape`) is a straight-line program over slots laid
out as ``registers + coordinate rows + constants``.  Every call decodes it
afresh with ``tolist`` and binds it to that call's rows (:func:`_bind`);
nothing is kept per tape.  A batch of points has shape ``(..., dim)``; the
``(m, dim)`` batch is its one-axis case.  A register is one row of the batch
shape, a coordinate is a row of the ``(dim, ...)`` view of the points (so an
``(S, m, dim)`` view of an ``(S, dim, m)`` buffer is read where it lies), and
a constant is a 0-d float64 array built once per call.  That view is copied
only when its last axis is not unit-stride, as for a C-ordered ``(m, dim)``
batch, so every ufunc runs an inner loop over contiguous values, which
numpy's SIMD loops need for the same bits.  Every operand a ufunc gets is an
array, so numpy never converts a Python scalar per call; a 0-d float64
operand runs the same float64 loop, so the bits are those of the Python
float.  A component's output register is the caller's output row itself,
so results need no copy out; only components that are a coordinate, a
constant or a repeat of an earlier component are copied.  :func:`eval_pack`
runs the program once per batch and :func:`rk4` once per RK4 stage, or once
per step when every coordinate row the program reads has a constant
derivative that leaves it bit for bit unchanged (see :func:`rk4`);
:func:`eval_tape` is :func:`eval_pack` on a one-component tape.  :func:`rk4`
writes constant components into its stage rows once, before the step loop.
Results are bit-reproducible run to run.

Error codes: 0 ok, 1 division by zero, 2 ln of non-positive, 3 sqrt of
negative, 4 zero base with negative exponent.  A may-fail operation is
checked unless its checked operand is a constant that passes (``x / 4``,
``ln(2)``; ``x / 0`` fails everywhere).  A value's code at a point is the
first nonzero code among its operands, left to right; if there is none, it
is the value's own failure.  That is the first failure in the postfix order
of a component's own tree, and the component's value there is NaN.
:func:`rk4` also reports 5 for the first step whose new state is not finite
(overflow or NaN), which covers any non-finite stage value, since it
propagates into the new state.  It finds that step after the step loop,
not by one check per step: a non-finite state component stays non-finite
(``y + c * acc`` is inf or NaN when ``y`` is), so the first non-finite sample
is the step the per-step check would have stopped at.  One sum of the new
states comes first; it is finite only if every state is, since a non-finite
term keeps each partial sum non-finite, so the exact per-sample scan runs
only when the sum is not (a blow-up, or finite states whose sum overflows).
"""

from __future__ import annotations

import math
import operator

import numpy as np

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

_UFUNC = {OP_ADD: np.add, OP_SUB: np.subtract, OP_MUL: np.multiply,
          OP_DIV: np.divide, OP_POW: np.power, OP_SIN: np.sin, OP_COS: np.cos,
          OP_EXP: np.exp, OP_LN: np.log, OP_SQRT: np.sqrt, OP_NEG: np.negative}
# opcode of a may-fail operation (OP_POW only with a negative exponent) ->
# (error code, test that is true where its checked operand fails against zero)
_CHECK = {OP_DIV: (ERR_DIV, operator.eq), OP_POW: (ERR_POW, operator.eq),
          OP_LN: (ERR_LN, operator.le), OP_SQRT: (ERR_SQRT, operator.lt)}
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def backend_name() -> str:
    return "numpy"


def _bind(t, coords, out):
    """Bind a tape to one call's rows: the ``(dim, ...)`` coordinates and the
    ``(ncomp, ...)`` output rows ``out``, over one batch shape.

    Returns (steps, copies).  A step is (ufunc, arguments, check), where check
    is None or (operation index, error code, test, checked operand).
    ``copies`` are the (output row, slot value) pairs the program does not
    write: a coordinate row, a constant, or an earlier component's row.
    Constants and exponents are 0-d float64 arrays, as is the zero that
    :func:`_run` compares checked operands with.
    """
    nreg = t.nreg
    first_const = nreg + t.dim
    regs = list(np.empty((nreg, *coords.shape[1:])))
    copies, owned = [], set()
    for c, s in enumerate(t.outputs.tolist()):
        if s < nreg and s not in owned:
            owned.add(s)
            regs[s] = out[c]
        else:
            copies.append((c, s))
    slots = regs + list(coords) + [np.array(v) for v in t.consts.tolist()]
    steps = []
    for i, (code, (d, a, b)) in enumerate(zip(t.codes.tolist(), t.args.tolist())):
        f, res, x = _UFUNC[code], slots[d], slots[a]
        check = _CHECK.get(code)
        if check is not None:
            s = b if code == OP_DIV else a      # the checked operand's slot
            if code == OP_POW and b >= 0 or s >= first_const and not check[1](slots[s], _ZERO):
                check = None
        if code <= OP_DIV:
            v = slots[b]
            args = (x, v, res)
        else:
            if a >= first_const:
                # A constant is spread over the row first, so unary functions
                # and powers always run on a contiguous row, as numpy's SIMD
                # loops need for the same bits.
                steps.append((res.fill, (x,), None))
                x = res
            v = x
            args = (x, np.array(b, np.float64), res) if code == OP_POW else (x, res)
        steps.append((f, args, (i, *check, v) if check else None))
    return steps, [(out[c], slots[s]) for c, s in copies]


def _run(steps):
    """Run bound steps once.  Returns {operation index: (error code, failing
    points)} for each may-fail operation that failed somewhere."""
    fails = {}
    for f, args, check in steps:
        if check is not None:
            i, code, test, v = check
            bad = test(v, _ZERO)
            if bad.any():
                fails[i] = code, bad
        f(*args)
    return fails


def _errors(t, fails, batch):
    """(ncomp, *batch) error codes by the module docstring's rule, in one walk
    that keeps the int8 codes of each register's value, if it has any."""
    rows = {}
    for i, (code, (d, a, b)) in enumerate(zip(t.codes.tolist(), t.args.tolist())):
        row = rows.get(a)
        if code <= OP_DIV and b in rows:
            row = rows[b] if row is None else np.where(row != 0, row, rows[b])
        if i in fails:
            err, bad = fails[i]
            own = bad * np.int8(err)
            row = own if row is None else np.where(row != 0, row, own)
        if row is None:
            rows.pop(d, None)
        else:
            rows[d] = row
    errs = np.zeros((t.outputs.shape[0], *batch), np.int8)
    for c, s in enumerate(t.outputs.tolist()):
        if s in rows:
            errs[c] = rows[s]
    return errs


def eval_pack(t, pts: np.ndarray):
    """Evaluate every component of a tape at a batch of points (..., dim):
    (values, error codes), each (ncomp, ...).

    The coordinates are the view ``pts.transpose(ndim-1, 0, ..., ndim-2)``,
    copied only when its last axis is not unit-stride (a C-ordered
    ``(m, dim)`` batch).  An F-ordered ``(m, dim)`` batch, or an
    ``(S, m, dim)`` view of an ``(S, dim, m)`` buffer, is read without a copy.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != t.dim:
        raise ValueError(f"expected (m, {t.dim}) points or a batch (..., m, {t.dim}), "
                         f"got {pts.shape}")
    coords = pts.transpose(-1, *range(pts.ndim - 1))
    if coords.strides[-1] != coords.itemsize:
        coords = np.ascontiguousarray(coords)
    vals = np.empty((t.outputs.shape[0], *pts.shape[:-1]))
    steps, copies = _bind(t, coords, vals)
    with np.errstate(all="ignore"):
        fails = _run(steps)
    for row, v in copies:
        row[:] = v
    if not fails:
        return vals, np.zeros(vals.shape, np.int8)
    errs = _errors(t, fails, pts.shape[:-1])
    vals[errs != 0] = np.nan
    return vals, errs


def eval_tape(t, pts: np.ndarray):
    """Evaluate a one-component tape at a batch of points (..., dim):
    (values, error codes), each of the batch shape."""
    if t.outputs.shape[0] != 1:
        raise ValueError(f"eval_tape takes one component, got {t.outputs.shape[0]}")
    vals, errs = eval_pack(t, pts)
    return vals[0], errs[0]


def rk4(t, y0: np.ndarray, h: float, nsteps: int):
    """Classical fixed-step RK4 on dy/ds = t(y).

    The tape must have exactly one component per state component.  Returns
    (trajectory (nsteps+1, m, d), err) where err is None on success or a
    (step, component, code) tuple naming the first failure: ERR_NONFINITE at
    the first component whose new state is not finite, or a domain error at
    the first (component, point) of the failing stage.  The trajectory
    repeats the last good state from the failing step on.

    The state is kept step-major as ``(nsteps+1, d, m)``, so each component
    is a contiguous row, and the trajectory returned is the
    ``transpose(0, 2, 1)`` view of that buffer, not a copy.  The step
    constants ``h/2``, ``h``, ``2`` and ``h/6`` are 0-d float64 arrays.
    Finiteness is checked once, after the step loop (see the module
    docstring); a blown-up fan runs on to the end or to its first domain
    error, and that scan still reports the step where it left the finite
    numbers.

    A coordinate row is read when an operation takes it as an operand (both
    of ``+ - * /``, the first of the others) or a component copies it.  Row
    r is frozen when component r is a pool constant k and both ``k * (h/2)``
    and ``k * h`` are -0.0 (``dp = -0`` of an x-independent Hamiltonian, for
    h > 0).  Since ``y + -0.0`` is ``y`` for every float ``y``, each stage
    state then holds ``y`` itself in every frozen row.  When every row read
    is frozen, all four stages read the same bits, so one stage program is
    bound and run per step, k2 = k3 = k4 = k1, the three stage updates are
    skipped and ``2 * k2`` is formed once for both middle terms.  The result
    keeps every bit, error codes included: a later stage could fail only
    where the first did.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    d = t.outputs.shape[0]
    if y0.ndim != 2 or y0.shape[1] != d or t.dim != d:
        raise ValueError(f"expected states of shape (m, {d}) for a tape over "
                         f"{t.dim} coordinates, got {y0.shape}")
    h, nsteps = float(h), int(nsteps)
    m = y0.shape[0]
    traj = np.empty((nsteps + 1, d, m))
    traj[0] = y0.T
    # The coordinate rows the program reads: operands (both of + - * /, the
    # first of the others) and coordinates copied out as components.
    nreg, outs = t.nreg, t.outputs.tolist()
    read = set(outs)
    for code, (_, a, b) in zip(t.codes.tolist(), t.args.tolist()):
        read.update((a, b) if code <= OP_DIV else (a,))
    pool = dict(enumerate(t.consts.tolist(), nreg + d))   # constant slot -> value
    slope = [pool.get(s, math.nan) for s in outs]   # a constant component, or NaN
    # reuse when every row read is frozen: k*(h/2) and k*h are -0.0 (docstring)
    reuse = all((v, math.copysign(1.0, v)) == (0.0, -1.0)
                for r in range(d) if nreg + r in read
                for v in (slope[r] * (0.5 * h), slope[r] * h))
    stage_state = np.empty((d, m))
    ks = np.empty((1 if reuse else 4, d, m))
    acc = np.empty((d, m))
    stages = []
    for k in ks:
        steps, copies = _bind(t, stage_state, k)
        for row, v in copies:
            if v.ndim == 0:
                row[:] = v   # a constant component, written once
        stages.append((steps, [(row, v) for row, v in copies if v.ndim]))
    k1, k2, k3, k4 = (ks[0],) * 4 if reuse else ks
    half_h, full_h, two, sixth_h = (np.array(v) for v in (0.5 * h, h, 2.0, h / 6.0))
    # (previous stage, step fraction, stage) of stages 2-4; none under reuse
    later = list(zip((k1, k2, k3), (half_h, half_h, full_h), stages[1:]))

    def rhs(stage):
        steps, copies = stage
        fails = _run(steps)
        if fails:
            errs = _errors(t, fails, (m,))
            c = int(np.argmax(errs.any(axis=1)))
            return c, int(errs[c][errs[c] != 0][0])
        for row, v in copies:
            row[:] = v
        return None

    err, last = None, nsteps
    with np.errstate(all="ignore"):
        for step in range(nsteps):
            y, new = traj[step], traj[step + 1]
            stage_state[:] = y
            bad = rhs(stages[0])
            for k, frac, stage in later:
                if bad is not None:
                    break
                np.add(y, np.multiply(k, frac, stage_state), stage_state)
                bad = rhs(stage)
            if bad is not None:
                err, last = (step, *bad), step
                break
            # y + (h/6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.add(k1, np.multiply(k2, two, new), acc)
            if k3 is not k2:
                np.multiply(k3, two, new)
            np.add(acc, new, acc)
            np.add(acc, k4, acc)
            np.add(y, np.multiply(acc, sixth_h, acc), new)
        # the exact scan only when one sum is not finite (module docstring)
        done = traj[1:last + 1]
        if not math.isfinite(done.sum()):
            # finite[j, c]: component c of the state after step j is finite everywhere
            finite = np.isfinite(done).all(axis=2)
            if not finite.all():
                step, c = np.argwhere(~finite)[0].tolist()
                err, last = (step, c, ERR_NONFINITE), step
    if err is not None:
        traj[last + 1:] = traj[last]
    return traj.transpose(0, 2, 1), err
