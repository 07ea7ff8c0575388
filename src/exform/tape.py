"""Compilation of ScalarExpr trees to register tapes for the kernels.

A `Tape` is one straight-line program over numbered slots, laid out as
``registers + coordinate rows + constants``: slot s < ``nreg`` is a scratch
register, the next ``dim`` slots are the coordinates, and the rest is the
constant pool.  Constants and coordinates are operands, never operations.
Operation i computes ``codes[i]`` on the slots in ``args[i, 1:]`` into
register ``args[i, 0]``; the second operand of ``OP_POW`` is its integer
exponent, and unary operations ignore it.  Component c is the value in slot
``outputs[c]``.  A scalar expression is a one-component tape; a vector-valued
right-hand side has one component per entry.

One compile pass numbers each operation by (opcode, exponent, operand
numbers), so a subexpression repeated within or across components, by
identity or by structure, is computed once; a per-compile ``id(node)`` memo
walks a subtree shared by identity only once.  Reusing a value does the same
IEEE operation on the same operands, so results keep every bit.  The pool is
keyed on each constant's value and sign, so ``-0.0`` keeps its own slot.  A
register is reused after the last read of its value; component outputs stay
live to the end of the program.

Error rule: component c owns the may-fail operations (division, negative
power, ln, sqrt) of its expression, listed in ``checks[check_offsets[c]:
check_offsets[c + 1]]`` in first-occurrence postfix order.  At each point the
first of these that fails gives the component's error code, which is the
first error in the postfix order of the component's own tree.  An operation
whose checked operand (the divisor, the base of a power, the argument of ln
or sqrt) is a constant that passes its test cannot fail and is not listed:
``x / 4`` and ``ln(2)`` have no checks, while ``x / 0`` and ``x / -0`` fail
everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (_CHECK, OP_ADD, OP_COS, OP_DIV, OP_EXP, OP_LN, OP_MUL,
                       OP_NEG, OP_POW, OP_SIN, OP_SQRT, OP_SUB)

_BINOP = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV}
_UNOP = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "ln": OP_LN,
         "sqrt": OP_SQRT, "neg": OP_NEG}
_MAY_FAIL = {OP_DIV, OP_POW, OP_LN, OP_SQRT}  # OP_POW only with a negative exponent
_LOW = (1 << 32) - 1  # value numbers are packed into int keys 32 bits apart


@dataclass(frozen=True)
class Tape:
    codes: np.ndarray          # int64 (nops,): opcode of each operation, in program order
    args: np.ndarray           # int64 (nops, 3): destination register, operand slot, operand slot or exponent
    consts: np.ndarray         # float64 constant pool, slots nreg + dim onward
    outputs: np.ndarray        # int64 (ncomp,): slot holding each component's value
    checks: np.ndarray         # int64: may-fail operation indices, component after component
    check_offsets: np.ndarray  # int64 (ncomp+1,): component c's checks are [check_offsets[c], check_offsets[c+1])
    nreg: int
    dim: int


def compile_expr(e) -> Tape:
    """Compile one expression into a one-component tape."""
    return pack_exprs([e])


def pack_exprs(exprs) -> Tape:
    """Compile expressions over one chart into a tape, one component each."""
    from . import expr  # local import: expr imports this module at top level

    exprs = list(exprs)
    if not exprs:
        raise ValueError("need at least one expression")
    dim = exprs[0].chart.dim
    Binary, Unary, Power = expr.Binary, expr.Unary, expr.Power
    Const, Coord = expr.Const, expr.Coord

    # Value numbers: operation i is i; coordinate a is ~a and constant-pool
    # entry c is ~(dim + c), so a leaf's slot is nreg + ~v.
    codes, lhs, rhs = [], [], []
    consts: list[float] = []
    pool: dict[float, int] = {}                # value, or ±inf for ±0.0 -> value number
    numbered: dict[int, int] = {}              # int key of an operation -> value number
    seen: dict[int, int] = {}                  # id(operation node) -> value number

    def emit(node) -> int:
        kind = type(node)
        if kind is Coord:
            return ~node.axis
        if kind is Const:
            x = node.value
            k = x or math.copysign(math.inf, x)  # finite constants: ±inf keys ±0.0
            v = pool.get(k)
            if v is None:
                v = pool[k] = ~(dim + len(consts))
                consts.append(x)
            return v
        v = seen.get(id(node))
        if v is not None:
            return v
        if kind is Binary:
            a, b = emit(node.left), emit(node.right)
            code = _BINOP[node.op]
            key = ((a << 32) | (b & _LOW)) << 4 | code
        elif kind is Unary:
            a, b = emit(node.arg), 0
            code = _UNOP[node.fn]
            key = a << 4 | code
        elif kind is Power:
            a, b, code = emit(node.base), node.exponent, OP_POW
            key = ((b << 32) | (a & _LOW)) << 4 | code
        else:
            raise TypeError(f"not a ScalarExpr node: {node!r}")
        v = numbered.get(key)
        if v is None:
            v = numbered[key] = len(codes)
            codes.append(code)
            lhs.append(a)
            rhs.append(b)
        seen[id(node)] = v
        return v

    outs = []
    for e in exprs:
        if e.chart.dim != dim:
            raise ValueError("all expressions must share one chart")
        outs.append(emit(e))

    nops = len(codes)
    # In program order: the last read of each value (outputs are read at the
    # end), which operations may fail, and which read a value that may.
    last = [0] * nops
    fails = [False] * nops
    risky = [False] * nops
    for i, (c, a, b) in enumerate(zip(codes, lhs, rhs)):
        r = c in _MAY_FAIL and (c != OP_POW or b < 0)
        if r:
            v = b if c == OP_DIV else a           # the checked operand
            if v < 0 and ~v >= dim:               # a constant fails everywhere or nowhere
                r = _CHECK[c][1](consts[~v - dim], 0.0)
        fails[i] = r
        if a >= 0:
            last[a] = i
            r = r or risky[a]
        if c <= OP_DIV and b >= 0:
            last[b] = i
            r = r or risky[b]
        risky[i] = r
    for v in outs:
        if v >= 0:
            last[v] = nops

    # Registers: an operand read for the last time frees its register before
    # the destination is chosen, so an operation may write over its operand.
    reg = [0] * nops
    free: list[int] = []
    nreg = 0
    for i, (c, a, b) in enumerate(zip(codes, lhs, rhs)):
        if a >= 0 and last[a] == i:
            free.append(reg[a])
        if c <= OP_DIV and b >= 0 and b != a and last[b] == i:
            free.append(reg[b])
        if free:
            reg[i] = free.pop()
        else:
            reg[i] = nreg
            nreg += 1

    def slot(v: int) -> int:
        return reg[v] if v >= 0 else nreg + ~v

    # slot() inlined: this runs once per operation on every compile
    args = [(r, reg[a] if a >= 0 else nreg + ~a,
             b if c > OP_DIV else reg[b] if b >= 0 else nreg + ~b)
            for r, c, a, b in zip(reg, codes, lhs, rhs)]

    # Each component's may-fail operations in first-occurrence postfix
    # order: a depth-first walk that enters only values that may fail.
    checks, check_offsets = [], [0]

    def walk(i: int) -> None:
        visited.add(i)
        a, b = lhs[i], rhs[i]
        if a >= 0 and risky[a] and a not in visited:
            walk(a)
        if codes[i] <= OP_DIV and b >= 0 and risky[b] and b not in visited:
            walk(b)
        if fails[i]:
            checks.append(i)

    for v in outs:
        visited: set[int] = set()
        if v >= 0 and risky[v]:
            walk(v)
        check_offsets.append(len(checks))

    return Tape(codes=np.asarray(codes, np.int64),
                args=np.asarray(args, np.int64).reshape(nops, 3),
                consts=np.asarray(consts, np.float64),
                outputs=np.asarray([slot(v) for v in outs], np.int64),
                checks=np.asarray(checks, np.int64),
                check_offsets=np.asarray(check_offsets, np.int64),
                nreg=nreg,
                dim=dim)
