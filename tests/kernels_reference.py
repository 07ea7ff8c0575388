"""Reference compiler, tape interpreter and RK4 driver for the kernel parity
tests.

`pack_exprs` and `compile_expr` are the postfix stack-tape compiler that
`exform.tape` used before register tapes, and the interpreter and RK4 driver
are the numpy ones `exform._kernels` used before it kept leaves
unmaterialised and the RK4 state as (d, m) rows, all kept verbatim.  The
reference runs each component separately, in tree order, with every repeated
subexpression computed again.  `_kernels.eval_tape`, `eval_pack` and `rk4`
on a register tape must match them bit for bit (NaN-equal), error codes
included.
"""

import math
from dataclasses import dataclass

import numpy as np

from exform import expr
from exform._kernels import (ERR_DIV, ERR_LN, ERR_POW, ERR_SQRT, OP_ADD,
                             OP_COS, OP_DIV, OP_EXP, OP_LN, OP_MUL, OP_NEG,
                             OP_POW, OP_SIN, OP_SQRT, OP_SUB)

# Leaf opcodes of the postfix tape; register tapes have no leaf operations.
OP_CONST = 0
OP_COORD = 1


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


_BINOP = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV}
_UNOP = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "ln": OP_LN,
         "sqrt": OP_SQRT, "neg": OP_NEG}


@dataclass(frozen=True)
class Tape:
    codes: np.ndarray    # int64 opcodes, postfix order
    args: np.ndarray     # int64: const index / coord axis / integer exponent
    consts: np.ndarray   # float64 constant pool shared by every component
    offsets: np.ndarray  # int64, ncomp+1 entries; component c is [offsets[c], offsets[c+1])
    stack_need: int
    dim: int


def compile_expr(e) -> Tape:
    """Compile one expression into a one-component tape."""
    return pack_exprs([e])


def pack_exprs(exprs) -> Tape:
    """Compile expressions over one chart into a tape, one component each."""
    codes, args, consts, offsets = [], [], [], [0]
    pool: dict[tuple[float, float], int] = {}  # (value, sign) -> slot in consts

    def emit(node) -> int:
        match node:
            case expr.Const(value=v):
                key = (v, math.copysign(1.0, v))
                if key not in pool:
                    pool[key] = len(consts)
                    consts.append(v)
                codes.append(OP_CONST)
                args.append(pool[key])
                return 1
            case expr.Coord(axis=a):
                codes.append(OP_COORD)
                args.append(a)
                return 1
            case expr.Binary(op=op, left=l, right=r):
                dl, dr = emit(l), emit(r)
                codes.append(_BINOP[op])
                args.append(0)
                return max(dl, dr + 1)
            case expr.Power(base=b, exponent=k):
                d = emit(b)
                codes.append(OP_POW)
                args.append(k)
                return d
            case expr.Unary(fn=fn, arg=a):
                d = emit(a)
                codes.append(_UNOP[fn])
                args.append(0)
                return d
        raise TypeError(f"not a ScalarExpr node: {node!r}")

    exprs = list(exprs)
    if not exprs:
        raise ValueError("need at least one expression")
    dim = exprs[0].chart.dim
    depth = 0
    for e in exprs:
        if e.chart.dim != dim:
            raise ValueError("all expressions must share one chart")
        depth = max(depth, emit(e))
        offsets.append(len(codes))
    return Tape(codes=np.asarray(codes, np.int64),
                args=np.asarray(args, np.int64),
                consts=np.asarray(consts, np.float64),
                offsets=np.asarray(offsets, np.int64),
                stack_need=depth,
                dim=dim)
