"""Numeric hot kernels: an interpreter for compiled register tapes, vectorised
over a batch of points, plus a fixed-step RK4 driver that advances a whole
strip fan at once.

A tape (see :mod:`exform.tape`) is a straight-line program over slots laid
out as ``registers + coordinate rows + constants``.  Every call decodes it
afresh with ``tolist`` and binds it to that call's rows (:func:`_bind`);
nothing is kept per tape.  A register is one row of m values, a coordinate is
a row of the ``(dim, m)`` point array, and a constant is a 0-d float64 array
built once per call.  Every operand a ufunc gets is an array, so numpy never
converts a Python scalar per call; a 0-d float64 operand runs the same
float64 loop, so the bits are those of the Python float.  A component's
output register is the caller's output row itself, so results need no copy
out; only components that are a coordinate, a constant or a repeat of an
earlier component are copied.  :func:`eval_pack` and :func:`rk4` run the
program once per batch (once per RK4 stage), and :func:`eval_tape` is
:func:`eval_pack` on a one-component tape.  :func:`rk4` writes constant
components into its stage rows once, before the step loop.  Results are
bit-reproducible run to run.

Error codes: 0 ok, 1 division by zero, 2 ln of non-positive, 3 sqrt of
negative, 4 zero base with negative exponent.  Each may-fail operation runs
once and records the points where it fails; each component then takes, per
point, the first failure among its own may-fail operations in
first-occurrence postfix order (``Tape.checks``), which is the first error
in the instruction order of the component's own tree.  Its value there is
NaN.  :func:`rk4` also reports 5 for the first step whose new state is not
finite (overflow or NaN), which covers any non-finite stage value, since it
propagates into the new state.  It finds that step with one scan of the
trajectory after the step loop, not one check per step: a non-finite state
component stays non-finite (``y + c * acc`` is inf or NaN when ``y`` is), so
the first non-finite sample is the step the per-step check would have
stopped at.
"""

from __future__ import annotations

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
# opcode of a checked operation (see Tape.checks) -> (error code, test that
# is true where its checked operand fails when compared with zero)
_CHECK = {OP_DIV: (ERR_DIV, operator.eq), OP_POW: (ERR_POW, operator.eq),
          OP_LN: (ERR_LN, operator.le), OP_SQRT: (ERR_SQRT, operator.lt)}
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def backend_name() -> str:
    return "numpy"


def _bind(t, coords, out):
    """Bind a tape to one call's rows: the ``(dim, m)`` coordinates and the
    ``(ncomp, m)`` output rows ``out``.

    Returns (steps, copies).  A step is (ufunc, arguments, check), where check
    is None or (operation index, error code, test, checked operand).
    ``copies`` are the (output row, slot value) pairs the program does not
    write: a coordinate row, a constant, or an earlier component's row.
    Constants and exponents are 0-d float64 arrays, as is the zero that
    :func:`_run` compares checked operands with.
    """
    nreg = t.nreg
    first_const = nreg + t.dim
    regs = list(np.empty((nreg, coords.shape[1])))
    copies, owned = [], set()
    for c, s in enumerate(t.outputs.tolist()):
        if s < nreg and s not in owned:
            owned.add(s)
            regs[s] = out[c]
        else:
            copies.append((c, s))
    slots = regs + list(coords) + [np.array(v) for v in t.consts.tolist()]
    checked = set(t.checks.tolist())
    steps = []
    for i, (code, (d, a, b)) in enumerate(zip(t.codes.tolist(), t.args.tolist())):
        f, res, x = _UFUNC[code], slots[d], slots[a]
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
        steps.append((f, args, (i, *_CHECK[code], v) if i in checked else None))
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


def _errors(t, fails, m):
    """(ncomp, m) error codes: each component's first failed check at each point."""
    checks, offsets = t.checks.tolist(), t.check_offsets.tolist()
    errs = np.zeros((len(offsets) - 1, m), np.int8)
    for c, row in enumerate(errs):
        for i in checks[offsets[c]:offsets[c + 1]]:
            if i in fails:
                code, bad = fails[i]
                row[bad & (row == 0)] = code
    return errs


def eval_pack(t, pts: np.ndarray):
    """Evaluate every component of a tape at an (m, dim) batch:
    (values, error codes), each (ncomp, m).  An F-ordered batch (the
    transpose of C-ordered ``(dim, m)`` rows) is read without a copy."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != t.dim:
        raise ValueError(f"expected (m, {t.dim}) points, got {pts.shape}")
    m = pts.shape[0]
    vals = np.empty((t.outputs.shape[0], m))
    steps, copies = _bind(t, np.ascontiguousarray(pts.T), vals)
    with np.errstate(all="ignore"):
        fails = _run(steps)
    for row, v in copies:
        row[:] = v
    if not fails:
        return vals, np.zeros(vals.shape, np.int8)
    errs = _errors(t, fails, m)
    vals[errs != 0] = np.nan
    return vals, errs


def eval_tape(t, pts: np.ndarray):
    """Evaluate a one-component tape at an (m, dim) batch:
    (values (m,), error codes (m,))."""
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
    stage_state = np.empty((d, m))
    ks = np.empty((4, d, m))
    acc = np.empty((d, m))
    stages = []
    for k in ks:
        steps, copies = _bind(t, stage_state, k)
        for row, v in copies:
            if v.ndim == 0:
                row[:] = v   # a constant component, written once
        stages.append((steps, [(row, v) for row, v in copies if v.ndim]))
    k1, k2, k3, k4 = ks
    half_h, full_h, two, sixth_h = (np.array(v) for v in (0.5 * h, h, 2.0, h / 6.0))

    def rhs(stage):
        steps, copies = stage
        fails = _run(steps)
        if fails:
            errs = _errors(t, fails, m)
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
            if bad is None:
                np.add(y, np.multiply(k1, half_h, stage_state), stage_state)
                bad = rhs(stages[1])
            if bad is None:
                np.add(y, np.multiply(k2, half_h, stage_state), stage_state)
                bad = rhs(stages[2])
            if bad is None:
                np.add(y, np.multiply(k3, full_h, stage_state), stage_state)
                bad = rhs(stages[3])
            if bad is not None:
                err, last = (step, *bad), step
                break
            # y + (h/6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.add(k1, np.multiply(k2, two, acc), acc)
            np.add(acc, np.multiply(k3, two, new), acc)
            np.add(acc, k4, acc)
            np.add(y, np.multiply(acc, sixth_h, acc), new)
    # finite[j, c]: component c of the state after step j is finite everywhere
    finite = np.isfinite(traj[1:last + 1]).all(axis=2)
    if not finite.all():
        step, c = np.argwhere(~finite)[0].tolist()
        err, last = (step, c, ERR_NONFINITE), step
    if err is not None:
        traj[last + 1:] = traj[last]
    return traj.transpose(0, 2, 1), err
