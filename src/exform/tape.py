"""Compilation of ScalarExpr trees to flat postfix tapes for the kernels.

A `Tape` has one component per compiled expression: component c is
``codes[offsets[c]:offsets[c + 1]]`` with the same slice of ``args``, and
every component reads the one constant pool.  A scalar expression is a
one-component tape; a vector-valued right-hand side has one component per
entry.  One tree walk builds codes, args and pool together, and the pool is
keyed on each constant's value and sign, so ``-0.0`` keeps its own slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (OP_ADD, OP_CONST, OP_COORD, OP_COS, OP_DIV, OP_EXP,
                       OP_LN, OP_MUL, OP_NEG, OP_POW, OP_SIN, OP_SQRT, OP_SUB)

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
    from . import expr  # local import: expr imports this module at top level

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
