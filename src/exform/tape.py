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

The compiler has two halves.  The front end lowers each tree node to one
call of ``op``, the one entry for an operation: it folds constants by four
rules and squares by a fifth, all of which give the IEEE result of the tree
itself except at the edge below, and hands anything else to the value
numbering.

* R1: ``x / c`` with ``c = ±2^k`` and ``1/c`` normal is ``x * (1/c)``, which
  is exact everywhere.
* R2: a constant times a non-constant ``w`` keeps its scale ``c``; a constant
  ``k`` times that is ``(k·c) * w``, one operation, when ``k`` or ``c`` is a
  power of two and ``k·c`` is normal.  ``k * round(c·w)`` then equals
  ``round(k·c·w)`` unless ``c·w`` overflows or leaves the normal range.
* R3: ``neg`` flips a scale, ``-w`` being ``-1 * w``: ``-(c * w)`` is
  ``(-c) * w`` and ``neg(neg(w))`` is ``w``.  A scale of -1 is ``OP_NEG``
  and a scale of 1 is ``w`` itself, so ``-(p1 * -1)`` and ``1 * p1`` cost
  nothing.
* R4: an operation on constants that is correctly rounded (``+ - *``,
  division by a nonzero constant, ``sqrt`` of a constant >= 0, ``neg``) is
  done in Python float arithmetic, when its result is finite.  ``sin``,
  ``cos``, ``exp``, ``ln`` and ``^`` are never folded, nor is ``x / 0``.
* R5: ``w^2`` of a non-constant ``w`` is ``w * w``, so it shares one value
  with a product ``w * w`` elsewhere (the osc system's ``p1^2`` and
  ``p1 * p1``).  The kernels' ``np.power(w, 2.0)`` and ``w * w`` agree bit
  for bit, signed zeros, infinities, NaN and the subnormal and overflow
  edges included; ``tests/test_tape.py`` pins that for numpy's power loop.

The edge is R2's: where the tree's intermediate ``c·w`` overflows, the folded
tape can stay finite (``(2 * x) * 0.75`` at ``x = 1e308`` is inf in the tree
and 1.5e308 folded), and where ``c·w`` falls below the normal range, the tree
rounds it and the folded tape does not.  Nowhere else do the two differ,
but in the sign of a NaN.

A fold only adds operations and constants, so it may leave unread the ones
it read through.  The back end, ``_finish``, then walks back once from the
outputs, recording each value's last read; a value nothing reads is dead
(Cooper & Torczon, *Engineering a Compiler*, 2nd ed., §10.2) and is dropped,
and one walk forward gives each live operation its register.  The quad
system's dx/dt ``1.1 * (2 * p1) * 2 / 4 + 0.2`` is thus the two operations of
``1.1 * p1 + 0.2`` over the pool [1.1, 0.2].  A fold reads only through
products and negations, which cannot fail, so it moves no error code (see
:mod:`exform._kernels` for the error rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (OP_ADD, OP_COS, OP_DIV, OP_EXP, OP_LN, OP_MUL, OP_NEG,
                       OP_POW, OP_SIN, OP_SQRT, OP_SUB)

_BINOP = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV}
_UNOP = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "ln": OP_LN,
         "sqrt": OP_SQRT, "neg": OP_NEG}
_LOW = (1 << 32) - 1  # value numbers are packed into int keys 32 bits apart
_MIN_NORMAL = 2.0 ** -1022  # the smallest normal float64


def _pow2(x: float) -> bool:
    """Whether x is ±2^k (a subnormal power of two included)."""
    return math.frexp(x)[0] in (0.5, -0.5)


@dataclass(frozen=True)
class Tape:
    codes: np.ndarray          # int64 (nops,): opcode of each operation, in program order
    args: np.ndarray           # int64 (nops, 3): destination register, operand slot, operand slot or exponent
    consts: np.ndarray         # float64 constant pool, slots nreg + dim onward
    outputs: np.ndarray        # int64 (ncomp,): slot holding each component's value
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
    # entry c is ~(dim + c), so v < -dim is a constant.
    codes, lhs, rhs = [], [], []
    consts: list[float] = []
    pool: dict[float, int] = {}                # value, or ±inf for ±0.0 -> value number
    numbered: dict[int, int] = {}              # int key of an operation -> value number
    seen: dict[int, int] = {}                  # id(operation node) -> value number
    lo = -dim

    def const(x: float) -> int:
        k = x or math.copysign(math.inf, x)    # finite constants: ±inf keys ±0.0
        v = pool.get(k)
        if v is None:
            v = pool[k] = ~(dim + len(consts))
            consts.append(x)
        return v

    def number(code: int, a: int, b: int) -> int:
        """The value number of code on a and b, new unless numbered before."""
        key = ((b << 32) | (a & _LOW)) << 4 | code   # b in the high bits: any exponent fits
        v = numbered.get(key)
        if v is None:
            v = numbered[key] = len(codes)
            codes.append(code)
            lhs.append(a)
            rhs.append(b)
        return v

    def scale(k: float, v: int) -> int:
        """k * v for a constant k and a non-constant v.  If v is c * w (a
        constant times a non-constant, or -w), this is (k·c) * w when that
        is exact (R2, R3); a scale of -1 is -w, and of 1 is w."""
        c, w = 1.0, v
        if v >= 0:
            if codes[v] == OP_NEG:
                c, w = -1.0, lhs[v]
            elif codes[v] == OP_MUL and lhs[v] < lo <= rhs[v]:
                c, w = consts[~lhs[v] - dim], rhs[v]
        if w != v:
            kc = k * c
            if (k == -1.0 or c == -1.0
                    or (_pow2(k) or _pow2(c)) and _MIN_NORMAL <= abs(kc) < math.inf):
                k = kc
            else:
                w = v
        if k == 1.0:
            return w
        return number(OP_NEG, w, 0) if k == -1.0 else number(OP_MUL, const(k), w)

    def op(code: int, a: int, b: int) -> int:
        """code on a and b (the exponent of OP_POW, 0 for a unary operation),
        folded where R1-R5 apply."""
        if code == OP_NEG:
            return const(-consts[~a - dim]) if a < lo else scale(-1.0, a)
        if code == OP_SQRT and a < lo and consts[~a - dim] >= 0.0:
            return const(math.sqrt(consts[~a - dim]))
        if code == OP_POW and b == 2 and a >= lo:
            return number(OP_MUL, a, a)        # R5
        if code <= OP_DIV and (a < lo or b < lo):
            if code == OP_MUL and b < lo <= a:
                a, b = b, a                    # the constant factor first
            if code == OP_MUL and b >= lo:
                return scale(consts[~a - dim], b)
            if b < lo:
                y = consts[~b - dim]
                if a < lo and (y or code != OP_DIV):
                    x = consts[~a - dim]
                    r = (x + y if code == OP_ADD else x - y if code == OP_SUB
                         else x * y if code == OP_MUL else x / y)
                    if math.isfinite(r):
                        return const(r)
                elif (a >= lo and code == OP_DIV and _pow2(y)
                      and _MIN_NORMAL <= abs(1.0 / y) < math.inf):
                    return scale(1.0 / y, a)
        return number(code, a, b)

    def emit(node) -> int:
        kind = type(node)
        if kind is Coord:
            return ~node.axis
        if kind is Const:
            return const(node.value)
        v = seen.get(id(node))
        if v is None:
            if kind is Binary:
                v = op(_BINOP[node.op], emit(node.left), emit(node.right))
            elif kind is Unary:
                v = op(_UNOP[node.fn], emit(node.arg), 0)
            elif kind is Power:
                v = op(OP_POW, emit(node.base), node.exponent)
            else:
                raise TypeError(f"not a ScalarExpr node: {node!r}")
            seen[id(node)] = v
        return v

    outs = []
    for e in exprs:
        if e.chart != exprs[0].chart:
            raise ValueError("all expressions must share one chart")
        outs.append(emit(e))
    return _finish(codes, lhs, rhs, consts, outs, dim)


def _finish(codes, lhs, rhs, consts, outs, dim) -> Tape:
    """The back end: a program over value numbers, numbered as in
    `pack_exprs`, laid out as a tape whose components are the values `outs`.

    A walk back from the outputs records the last read of each value (an
    output is read at the end); a value nothing reads is dead, and neither
    a dead operation nor an unread pool entry reaches the tape.  A walk
    forward over the live operations gives each a register: an operand read
    for the last time frees its register before the destination is chosen,
    so an operation may write over its operand, and the register freed last
    is taken first.  Survivors keep program and pool order.
    """
    nops = len(codes)
    # last[v] is where value v is last read, -1 if nowhere; a leaf's v < 0
    # indexes from the end, as does slot[v], the slot that holds v
    last = [-1] * (nops + dim + len(consts))
    for v in outs:
        last[v] = nops
    for i in range(nops - 1, -1, -1):
        if last[i] >= 0:
            if last[lhs[i]] < 0:
                last[lhs[i]] = i
            if codes[i] <= OP_DIV and last[rhs[i]] < 0:
                last[rhs[i]] = i
    live = [i for i in range(nops) if last[i] >= 0]
    slot = [0] * len(last)
    free: list[int] = []
    nreg = 0
    for i in live:
        a, b = lhs[i], rhs[i]
        if a >= 0 and last[a] == i:
            free.append(slot[a])
        if codes[i] <= OP_DIV and b >= 0 and b != a and last[b] == i:
            free.append(slot[b])
        if free:
            slot[i] = free.pop()
        else:
            slot[i] = nreg
            nreg += 1
    for a in range(dim):
        slot[~a] = nreg + a
    kept = [c for c in range(len(consts)) if last[~(dim + c)] >= 0]
    for j, c in enumerate(kept):
        slot[~(dim + c)] = nreg + dim + j
    args = [(slot[i], slot[lhs[i]], slot[rhs[i]] if codes[i] <= OP_DIV else rhs[i])
            for i in live]
    return Tape(codes=np.asarray([codes[i] for i in live], np.int64),
                args=np.asarray(args, np.int64).reshape(len(live), 3),
                consts=np.asarray([consts[c] for c in kept], np.float64),
                outputs=np.asarray([slot[v] for v in outs], np.int64),
                nreg=nreg,
                dim=dim)
