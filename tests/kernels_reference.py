"""Reference tape interpreter and RK4 driver for the kernel parity tests.

These are the numpy interpreter and RK4 driver that `exform._kernels` used
before it kept leaves unmaterialised and the RK4 state as (d, m) rows, kept
verbatim.  `_kernels.eval_tape`, `eval_pack` and `rk4` must match them bit
for bit (NaN-equal), error codes included.
"""

import numpy as np

from exform._kernels import (ERR_DIV, ERR_LN, ERR_POW, ERR_SQRT, OP_ADD,
                             OP_CONST, OP_COORD, OP_COS, OP_DIV, OP_EXP, OP_LN,
                             OP_MUL, OP_POW, OP_SIN, OP_SQRT, OP_SUB)


def _eval_tape_numpy(codes, args, consts, pts, stack_need):
    m = pts.shape[0]
    stack = np.empty((stack_need, m), np.float64)
    errs = np.zeros(m, np.int8)
    sp = 0
    with np.errstate(all="ignore"):
        for i in range(codes.shape[0]):
            c = codes[i]
            if c == OP_CONST:
                stack[sp] = consts[args[i]]
                sp += 1
            elif c == OP_COORD:
                stack[sp] = pts[:, args[i]]
                sp += 1
            elif c == OP_ADD:
                sp -= 1
                np.add(stack[sp - 1], stack[sp], out=stack[sp - 1])
            elif c == OP_SUB:
                sp -= 1
                np.subtract(stack[sp - 1], stack[sp], out=stack[sp - 1])
            elif c == OP_MUL:
                sp -= 1
                np.multiply(stack[sp - 1], stack[sp], out=stack[sp - 1])
            elif c == OP_DIV:
                sp -= 1
                bad = stack[sp] == 0.0
                if bad.any():
                    errs[bad & (errs == 0)] = ERR_DIV
                np.divide(stack[sp - 1], stack[sp], out=stack[sp - 1], where=~bad)
            elif c == OP_POW:
                k = int(args[i])
                b = stack[sp - 1]
                if k < 0:
                    bad = b == 0.0
                    if bad.any():
                        errs[bad & (errs == 0)] = ERR_POW
                    np.power(b, k, out=b, where=~bad)
                else:
                    np.power(b, k, out=b)
            elif c == OP_SIN:
                np.sin(stack[sp - 1], out=stack[sp - 1])
            elif c == OP_COS:
                np.cos(stack[sp - 1], out=stack[sp - 1])
            elif c == OP_EXP:
                np.exp(stack[sp - 1], out=stack[sp - 1])
            elif c == OP_LN:
                b = stack[sp - 1]
                bad = b <= 0.0
                if bad.any():
                    errs[bad & (errs == 0)] = ERR_LN
                np.log(b, out=b, where=~bad)
            elif c == OP_SQRT:
                b = stack[sp - 1]
                bad = b < 0.0
                if bad.any():
                    errs[bad & (errs == 0)] = ERR_SQRT
                np.sqrt(b, out=b, where=~bad)
            else:  # OP_NEG
                np.negative(stack[sp - 1], out=stack[sp - 1])
    vals = stack[0].copy()
    vals[errs != 0] = np.nan
    return vals, errs


def _eval_pack_numpy(codes, args, consts, offsets, pts, stack_need):
    ncomp = offsets.shape[0] - 1
    m = pts.shape[0]
    vals = np.empty((ncomp, m), np.float64)
    errs = np.zeros((ncomp, m), np.int8)
    for c in range(ncomp):
        lo, hi = offsets[c], offsets[c + 1]
        vals[c], errs[c] = _eval_tape_numpy(codes[lo:hi], args[lo:hi], consts,
                                            pts, stack_need)
    return vals, errs


def _rk4_numpy(codes, args, consts, offsets, stack_need, y0, h, nsteps):
    m, d = y0.shape
    traj = np.empty((nsteps + 1, m, d), np.float64)
    traj[0] = y0
    err_info = np.full(3, -1, np.int64)
    y = y0.copy()

    def rhs(states):
        vals, errs = _eval_pack_numpy(codes, args, consts, offsets, states,
                                      stack_need)
        if errs.any():
            comp, pt = np.argwhere(errs != 0)[0]
            return None, (int(comp), int(errs[comp, pt]))
        return vals.T.copy(), None

    for step in range(nsteps):
        bad = None
        k1, bad = rhs(y)
        if bad is None:
            k2, bad = rhs(y + (0.5 * h) * k1)
        if bad is None:
            k3, bad = rhs(y + (0.5 * h) * k2)
        if bad is None:
            k4, bad = rhs(y + h * k3)
        if bad is not None:
            err_info[:] = (step, bad[0], bad[1])
            traj[step + 1:] = y
            return traj, err_info
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[step + 1] = y
    return traj, err_info

