"""Compilation of ScalarExpr trees to flat postfix tapes for the kernels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import (OP_ADD, OP_CONST, OP_COORD, OP_COS, OP_DIV, OP_EXP,
                       OP_LN, OP_MUL, OP_NEG, OP_POW, OP_SIN, OP_SQRT, OP_SUB)

_BINOP = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV}
_UNOP = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "ln": OP_LN,
         "sqrt": OP_SQRT, "neg": OP_NEG}


@dataclass(frozen=True)
class Tape:
    codes: np.ndarray   # int64 opcodes, postfix order
    args: np.ndarray    # int64: const index / coord axis / integer exponent
    consts: np.ndarray  # float64 constant pool
    stack_need: int
    dim: int


@dataclass(frozen=True)
class TapePack:
    """Several tapes over one chart sharing a constant pool (vector-valued RHS)."""

    codes: np.ndarray
    args: np.ndarray
    consts: np.ndarray
    offsets: np.ndarray  # int64, len ncomp+1; tape c occupies [offsets[c], offsets[c+1])
    stack_need: int
    dim: int

    @property
    def ncomp(self) -> int:
        return len(self.offsets) - 1


def compile_expr(e) -> Tape:
    from . import expr  # local import: expr imports this module at top level

    codes: list[int] = []
    args: list[int] = []
    consts: list[float] = []
    pool: dict[float, int] = {}

    def intern(v: float) -> int:
        if v not in pool:
            pool[v] = len(consts)
            consts.append(v)
        return pool[v]

    def emit(node) -> int:
        match node:
            case expr.Const(value=v):
                codes.append(OP_CONST)
                args.append(intern(v))
                return 1
            case expr.Coord(axis=a):
                codes.append(OP_COORD)
                args.append(a)
                return 1
            case expr.Binary(op=op, left=l, right=r):
                dl = emit(l)
                dr = emit(r)
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

    depth = emit(e)
    return Tape(codes=np.asarray(codes, np.int64),
                args=np.asarray(args, np.int64),
                consts=np.asarray(consts, np.float64),
                stack_need=depth,
                dim=e.chart.dim)


def pack_exprs(exprs) -> TapePack:
    """Compile several expressions over a shared chart into one TapePack."""
    tapes = [compile_expr(e) for e in exprs]
    if not tapes:
        raise ValueError("need at least one expression")
    dim = tapes[0].dim
    if any(t.dim != dim for t in tapes):
        raise ValueError("all expressions must share one chart")
    codes, args, consts, offsets = [], [], [], [0]
    for t in tapes:
        base = len(consts)
        consts.extend(t.consts.tolist())
        codes.extend(t.codes.tolist())
        # rebase constant-pool references onto the shared pool
        for code, arg in zip(t.codes.tolist(), t.args.tolist()):
            args.append(arg + base if code == OP_CONST else arg)
        offsets.append(len(codes))
    return TapePack(codes=np.asarray(codes, np.int64),
                    args=np.asarray(args, np.int64),
                    consts=np.asarray(consts, np.float64),
                    offsets=np.asarray(offsets, np.int64),
                    stack_need=max(t.stack_need for t in tapes),
                    dim=dim)
