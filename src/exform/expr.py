"""Symbolic scalar expressions over a named coordinate chart.

The expression grammar is deliberately small and closed under exact
partial differentiation: constants, coordinates, + - * /, integer powers,
and sin/cos/exp/ln/sqrt.  Identity checking is done by seeded numeric
sampling, not by canonical-form rewriting.  The one sampler, `sampled_abs_max`,
is max |e| over `trials` in-domain points of a seeded uniform cloud in
[-2, 2]^n (inf if a value is not finite); undefined points are redrawn, and
past RESAMPLE_CAP_FACTOR * trials draws it raises ResampleExhaustedError.
The one rule, `is_zero_residual(r, tol)`: r is zero iff it is finite and
r <= tol, so a non-finite value is never zero, even at tol = inf.
`probably_zero` is that rule on that sampler.

Trees are immutable.  Two caches live on the nodes themselves, outside the
dataclass fields, so they never take part in `==`, `hash` or `repr`:

* `simplify` marks every node it returns as simplified and returns a marked
  node unchanged; leaves are marked by their class.  The simplification rules
  live in one constructor per kind of inner node (`_bin`, `_pow`, `_un`),
  which tests them on the operands before building anything: a rule that
  fires builds nothing, and a node is built and marked only when none does.
  `simplify`, `partial` and `sum_of` make every inner node through them.  A
  node whose children simplify to themselves is kept, not rebuilt, so a
  simplified tree may share nodes with its input;
* `partial` keeps a dict from axis to derivative on the differentiated node.
  Inside one call, a memo keyed by `id` differentiates each distinct inner
  node of the argument once; that memo lives only for the call, on no node
  and in no global table, and a result may share subtrees.

Numeric evaluation goes through `evaluate_pack`: expressions over one chart
run as one tape, cached per tuple, in one kernel call, and `evaluate_many`
and `evaluate` are its one-expression cases.  Error rule: the first
expression that fails, at its first failing point, raises DomainError;
`evaluate_masked` returns the in-domain mask instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _kernels, tape

DEFAULT_TRIALS = 64
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42
SAMPLE_BOX = 2.0          # the sampler draws uniform in [-2, 2]^n
RESAMPLE_CAP_FACTOR = 50  # max total draws = factor * trials

FUNCTION_NAMES = ("sin", "cos", "exp", "ln", "sqrt")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ExformError(Exception):
    """Base class for all package errors."""


class ChartMismatchError(ExformError):
    """Two expressions or forms over different charts were combined."""


class ParseError(ExformError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


class DomainError(ExformError):
    """Evaluation hit a point outside the expression's domain (1/0, ln<=0, sqrt<0)."""


class ResampleExhaustedError(ExformError):
    """sampled_abs_max could not collect enough in-domain sample points."""


@dataclass(frozen=True)
class CoordinateChart:
    """Ordered list of coordinate names; the dimension is the list length."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate coordinate names: {self.names}")
        for name in self.names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid coordinate name {name!r}")
            if name in FUNCTION_NAMES:
                raise ValueError(f"coordinate name {name!r} collides with a function")

    @property
    def dim(self) -> int:
        return len(self.names)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"{name!r} is not a coordinate of {self.names}") from None


def chart(*names: str) -> CoordinateChart:
    return CoordinateChart(tuple(names))


@dataclass(frozen=True)
class ScalarExpr:
    """Base node; concrete nodes are Const, Coord, Binary, Power, Unary."""

    chart: CoordinateChart

    # -- construction helpers ------------------------------------------

    def _coerce(self, other) -> "ScalarExpr":
        if isinstance(other, ScalarExpr):
            if other.chart != self.chart:
                raise ChartMismatchError(
                    f"charts differ: {self.chart.names} vs {other.chart.names}")
            return other
        if isinstance(other, (int, float)):
            return Const(self.chart, float(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "+", self, o)

    def __radd__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "+", o, self)

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "-", self, o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "-", o, self)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "*", self, o)

    def __rmul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "*", o, self)

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "/", self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Binary(self.chart, "/", o, self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be a plain integer")
        return Power(self.chart, self, exponent)

    def __neg__(self):
        return Unary(self.chart, "neg", self)

    def __call__(self, point: Sequence[float]) -> float:
        return evaluate(self, point)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(ScalarExpr):
    value: float
    _simple = True  # not a field: every leaf is simplified, marked by its class

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite constant {self.value}")

    # 0.0 and -0.0 are different constants (x * -0 is -0 at x > 0), so equal
    # nodes, and the tapes cached for them, agree in every bit.  The generated
    # hash of (chart, value) still agrees with ==, as hash(-0.0) == hash(0.0).
    def __eq__(self, other):
        if other.__class__ is not Const:
            return NotImplemented
        v, w = self.value, other.value
        return (v == w and (v != 0.0 or math.copysign(1.0, v) == math.copysign(1.0, w))
                and self.chart == other.chart)


@dataclass(frozen=True)
class Coord(ScalarExpr):
    axis: int
    _simple = True

    def __post_init__(self):
        if not 0 <= self.axis < self.chart.dim:
            raise ValueError(f"axis {self.axis} out of range for {self.chart.names}")


@dataclass(frozen=True)
class Binary(ScalarExpr):
    op: str  # one of + - * /
    left: ScalarExpr
    right: ScalarExpr


@dataclass(frozen=True)
class Power(ScalarExpr):
    base: ScalarExpr
    exponent: int

    def __post_init__(self):
        if abs(self.exponent) > 2**31:
            raise ExformError(f"exponent {self.exponent} out of range: |exponent| > 2^31")


@dataclass(frozen=True)
class Unary(ScalarExpr):
    fn: str  # sin cos exp ln sqrt neg
    arg: ScalarExpr


def const(ch: CoordinateChart, value: float) -> Const:
    return Const(ch, float(value))


def coord(ch: CoordinateChart, axis: int) -> Coord:
    return Coord(ch, axis)


def variable(ch: CoordinateChart, name: str) -> Coord:
    return Coord(ch, ch.axis(name))


def coords(ch: CoordinateChart) -> tuple[Coord, ...]:
    return tuple(Coord(ch, i) for i in range(ch.dim))


def sin(e: ScalarExpr) -> ScalarExpr:
    return Unary(e.chart, "sin", e)


def cos(e: ScalarExpr) -> ScalarExpr:
    return Unary(e.chart, "cos", e)


def exp(e: ScalarExpr) -> ScalarExpr:
    return Unary(e.chart, "exp", e)


def ln(e: ScalarExpr) -> ScalarExpr:
    return Unary(e.chart, "ln", e)


def sqrt(e: ScalarExpr) -> ScalarExpr:
    return Unary(e.chart, "sqrt", e)


def free_axes(e: ScalarExpr) -> frozenset[int]:
    """Set of coordinate axes the expression actually references."""
    match e:
        case Const():
            return frozenset()
        case Coord(axis=a):
            return frozenset((a,))
        case Binary(left=l, right=r):
            return free_axes(l) | free_axes(r)
        case Power(base=b):
            return free_axes(b)
        case Unary(arg=a):
            return free_axes(a)
    raise TypeError(f"not a ScalarExpr node: {e!r}")


# ---------------------------------------------------------------------------
# parsing


_TOKEN_NUM = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._run()

    def _run(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            # ASCII only: str.isdigit and str.isalpha accept '²' and 'é' too
            if c in "0123456789." and (m := _TOKEN_NUM.match(text, i)):
                end = m.end()
                if end < n and (text[end].isalnum() or text[end] in "._"):
                    raise ParseError("malformed number", text, i)
                if not math.isfinite(value := float(m.group())):
                    raise ParseError("number out of range", text, i)
                self.tokens.append(("num", value, i))
                i = end
                continue
            if m := _IDENT_RE.match(text, i):
                self.tokens.append(("ident", m.group(), i))
                i = m.end()
                continue
            raise ParseError(f"unexpected character {c!r}", text, i)
        self.tokens.append(("end", None, n))


class _Parser:
    """Precedence climbing: ^  >  unary -  >  * /  >  + -, binaries left-assoc."""

    def __init__(self, text: str, ch: CoordinateChart):
        self.text = text
        self.chart = ch
        self.tokens = _Tokenizer(text).tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", self.text, tok[2])
        return tok

    def parse(self) -> ScalarExpr:
        e = self.additive()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", self.text, tok[2])
        return e

    def additive(self) -> ScalarExpr:
        e = self.multiplicative()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.multiplicative()
            e = Binary(self.chart, op, e, rhs)
        return e

    def multiplicative(self) -> ScalarExpr:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = Binary(self.chart, op, e, rhs)
        return e

    def unary(self) -> ScalarExpr:
        if self.peek()[0] == "-":
            self.advance()
            operand = self.unary()
            # a negated numeric literal is a negative constant
            if isinstance(operand, Const):
                return Const(self.chart, -operand.value)
            return Unary(self.chart, "neg", operand)
        return self.power()

    def power(self) -> ScalarExpr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Power(self.chart, base, self.exponent())
        return base

    def exponent(self) -> int:
        # constant integer exponents only; general powers go through exp/ln
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            k = self.exponent()
            self.expect(")")
            return k
        neg = False
        if tok[0] == "-":
            self.advance()
            neg = True
            tok = self.peek()
        if tok[0] != "num":
            raise ParseError("exponent must be a constant integer", self.text, tok[2])
        self.advance()
        value = tok[1]
        if value != int(value):
            raise ParseError("exponent must be a constant integer", self.text, tok[2])
        if value > 2**31:
            raise ParseError("exponent out of range", self.text, tok[2])
        return -int(value) if neg else int(value)

    def atom(self) -> ScalarExpr:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            return Const(self.chart, value)
        if kind == "(":
            e = self.additive()
            self.expect(")")
            return e
        if kind == "ident":
            if value in FUNCTION_NAMES:
                self.expect("(")
                arg = self.additive()
                self.expect(")")
                return Unary(self.chart, value, arg)
            try:
                axis = self.chart.axis(value)
            except KeyError:
                raise ParseError(f"unknown identifier {value!r}", self.text, pos) from None
            return Coord(self.chart, axis)
        raise ParseError(f"unexpected token {value!r}", self.text, pos)


def parse_expr(text: str, ch: CoordinateChart) -> ScalarExpr:
    """Parse expression text over the chart.  Whitespace-insensitive."""
    return _Parser(text, ch).parse()


# ---------------------------------------------------------------------------
# printing (round-trips through parse_expr with identical structure)


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: ScalarExpr) -> int:
    match e:
        case Binary(op="+") | Binary(op="-"):
            return _PREC_ADD
        case Binary():
            return _PREC_MUL
        case Unary(fn="neg"):
            return _PREC_NEG
        case Const(value=v) if math.copysign(1.0, v) < 0:
            # prints with a leading minus (-0.0 as "-0"), so binds like a negation
            return _PREC_NEG
        case Power():
            return _PREC_POW
        case _:
            return _PREC_ATOM


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: ScalarExpr) -> str:
    match e:
        case Const(value=v):
            return f"-{_fmt_const(-v)}" if math.copysign(1.0, v) < 0 else _fmt_const(v)
        case Coord(axis=a):
            return e.chart.names[a]
        case Binary(op=op, left=l, right=r):
            my = _prec(e)
            ls = to_text(l)
            rs = to_text(r)
            if _prec(l) < my:
                ls = f"({ls})"
            # parenthesize right operands of equal precedence so the printed
            # text re-parses to the identical tree (left-assoc grammar)
            if _prec(r) <= my:
                rs = f"({rs})"
            return f"{ls} {op} {rs}"
        case Power(base=b, exponent=k):
            bs = to_text(b)
            if _prec(b) <= _PREC_POW:
                bs = f"({bs})"
            return f"{bs}^{k}" if k >= 0 else f"{bs}^(-{-k})"
        case Unary(fn="neg", arg=a):
            s = to_text(a)
            if _prec(a) < _PREC_NEG:
                s = f"({s})"
            return f"-{s}"
        case Unary(fn=fn, arg=a):
            return f"{fn}({to_text(a)})"
    raise TypeError(f"not a ScalarExpr node: {e!r}")


# ---------------------------------------------------------------------------
# simplification


def _fold_binary(op: str, a: float, b: float) -> float | None:
    if op == "+":
        v = a + b
    elif op == "-":
        v = a - b
    elif op == "*":
        v = a * b
    else:
        if b == 0.0:
            return None
        v = a / b
    return v if math.isfinite(v) else None


_UNARY_FOLD = {
    "neg": lambda x: -x,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}

# One constructor per kind of inner node holds its rules, tried in order; a
# rule that makes a new node calls a constructor again.  Given simplified
# operands, each returns a simplified tree.  `node`, from `simplify`, is the
# node to keep when no rule fires.  Marks are set by object.__setattr__ and
# read by getattr, never __dict__, which makes CPython build a dict per node.


def _bin(ch: CoordinateChart, op: str, l: ScalarExpr, r: ScalarExpr,
         node: ScalarExpr | None = None) -> ScalarExpr:
    if isinstance(l, Const):
        lv = l.value
        if isinstance(r, Const):
            v = _fold_binary(op, lv, r.value)
            if v is not None:
                return Const(ch, 0.0 if v == 0.0 else v)
    else:
        lv = None  # never == 0.0 or 1.0
    rv = r.value if isinstance(r, Const) else None
    if op == "+":
        if lv == 0.0:
            return r
        if rv == 0.0:
            return l
        if isinstance(l, Unary) and l.fn == "neg":
            return _bin(ch, "-", r, l.arg)
        if isinstance(r, Unary) and r.fn == "neg":
            return _bin(ch, "-", l, r.arg)
    elif op == "-":
        if rv == 0.0:
            return l
        if lv == 0.0:
            return _un(ch, "neg", r)
        if isinstance(r, Unary) and r.fn == "neg":
            return _bin(ch, "+", l, r.arg)
        if l == r:
            return Const(ch, 0.0)
        # a*b - b*a cancels exactly (IEEE multiplication commutes)
        if (isinstance(l, Binary) and isinstance(r, Binary)
                and l.op == "*" and r.op == "*"
                and l.left == r.right and l.right == r.left):
            return Const(ch, 0.0)
    elif op == "*":
        if lv == 0.0 or rv == 0.0:
            return Const(ch, 0.0)
        if lv == 1.0:
            return r
        if rv == 1.0:
            return l
    else:  # /
        if lv == 0.0 and rv != 0.0:
            return Const(ch, 0.0)
        if rv == 1.0:
            return l
    if node is None:
        node = Binary(ch, op, l, r)
    object.__setattr__(node, "_simple", True)
    return node


def _pow(ch: CoordinateChart, b: ScalarExpr, k: int,
         node: ScalarExpr | None = None) -> ScalarExpr:
    if k == 0:
        return Const(ch, 1.0)
    if k == 1:
        return b
    # |k| > 2^31 is never folded, so that Power below raises on it
    if isinstance(b, Const) and not (b.value == 0.0 and k < 0) and abs(k) <= 2**31:
        try:
            v = b.value**k
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return Const(ch, v)
    if node is None:
        node = Power(ch, b, k)
    object.__setattr__(node, "_simple", True)
    return node


def _un(ch: CoordinateChart, fn: str, a: ScalarExpr,
        node: ScalarExpr | None = None) -> ScalarExpr:
    if isinstance(a, Unary):
        if fn == "neg" and a.fn == "neg":
            return a.arg
    elif isinstance(a, Const):
        v = a.value
        if fn in _UNARY_FOLD:
            try:
                v = _UNARY_FOLD[fn](v)
            except OverflowError:
                v = math.inf
            if math.isfinite(v):
                return Const(ch, v)
        elif fn == "ln" and v > 0.0:
            return Const(ch, math.log(v))
        elif fn == "sqrt" and v >= 0.0:
            return Const(ch, math.sqrt(v))
    if node is None:
        node = Unary(ch, fn, a)
    object.__setattr__(node, "_simple", True)
    return node


def simplify(e: ScalarExpr) -> ScalarExpr:
    """Constant folding, 0/1 identities, double negation; idempotent.

    Every node it returns is marked, and a marked node is returned as it is.
    A node whose children simplify to themselves is kept, not rebuilt."""
    if getattr(e, "_simple", False):
        return e
    match e:
        case Binary(op=op, left=l, right=r):
            sl, sr = simplify(l), simplify(r)
            return _bin(e.chart, op, sl, sr, e if sl is l and sr is r else None)
        case Power(base=b, exponent=k):
            sb = simplify(b)
            return _pow(e.chart, sb, k, e if sb is b else None)
        case Unary(fn=fn, arg=a):
            sa = simplify(a)
            return _un(e.chart, fn, sa, e if sa is a else None)
    raise TypeError(f"not a ScalarExpr node: {e!r}")


def sum_of(terms: Iterable[ScalarExpr]) -> ScalarExpr:
    """The simplified left-associated sum of one or more terms: `simplify` of
    ((t0 + t1) + t2) + ..., each sum made by the `+` constructor."""
    first, *rest = terms
    total = simplify(first)
    for t in rest:
        total = _bin(total.chart, "+", total, simplify(t))
    return total


# ---------------------------------------------------------------------------
# differentiation


def partial(e: ScalarExpr, axis: int) -> ScalarExpr:
    """Exact partial derivative with respect to the given axis, simplified;
    memoised per axis on `e`.  Each distinct inner node of `e` is
    differentiated once per call, so the result may share subtrees."""
    if not 0 <= axis < e.chart.dim:
        raise ValueError(f"axis {axis} out of range for {e.chart.names}")
    memo = getattr(e, "_partials", None)
    if memo is None:
        memo = {}
        object.__setattr__(e, "_partials", memo)
    if axis not in memo:
        memo[axis] = _diff(e, axis, {})
    return memo[axis]


def _copy(e: ScalarExpr) -> ScalarExpr:
    """An operand copied into a derivative: kept if marked, else simplified."""
    return e if getattr(e, "_simple", False) else simplify(e)


def _diff(e: ScalarExpr, axis: int, seen: dict) -> ScalarExpr:
    """`simplify` of the derivative tree, made by the constructors that hold
    the rules, so no node a rule fires on is built; operands copied from `e`
    go through `_copy`.  `seen`, a memo that lives for one `partial` call,
    maps the `id` of each inner node differentiated so far to its derivative:
    a node on several paths is differentiated once and its derivative is
    shared.  Leaves get no entry.  The call's argument keeps every keyed node
    alive, so no id is reused."""
    ch = e.chart
    match e:
        case Const() | Power(exponent=0):
            return Const(ch, 0.0)
        case Coord(axis=a):
            return Const(ch, 1.0 if a == axis else 0.0)
    d = seen.get(id(e))
    if d is not None:
        return d
    match e:
        case Binary(op="+" | "-" as op, left=l, right=r):
            d = _bin(ch, op, _diff(l, axis, seen), _diff(r, axis, seen))
        case Binary(op="*", left=l, right=r):
            d = _bin(ch, "+", _bin(ch, "*", _diff(l, axis, seen), _copy(r)),
                     _bin(ch, "*", _copy(l), _diff(r, axis, seen)))
        case Binary(op="/", left=l, right=r):
            sr = _copy(r)
            num = _bin(ch, "-", _bin(ch, "*", _diff(l, axis, seen), sr),
                       _bin(ch, "*", _copy(l), _diff(r, axis, seen)))
            d = _bin(ch, "/", num, _pow(ch, sr, 2))
        case Power(base=b, exponent=k):
            scaled = _bin(ch, "*", Const(ch, float(k)), _pow(ch, _copy(b), k - 1))
            d = _bin(ch, "*", scaled, _diff(b, axis, seen))
        case Unary(fn="neg", arg=a):
            d = _un(ch, "neg", _diff(a, axis, seen))
        case Unary(fn="sin", arg=a):
            d = _bin(ch, "*", _un(ch, "cos", _copy(a)), _diff(a, axis, seen))
        case Unary(fn="cos", arg=a):
            d = _un(ch, "neg", _bin(
                ch, "*", _un(ch, "sin", _copy(a)), _diff(a, axis, seen)))
        case Unary(fn="exp", arg=a):
            d = _bin(ch, "*", _copy(e), _diff(a, axis, seen))
        case Unary(fn="ln", arg=a):
            d = _bin(ch, "/", _diff(a, axis, seen), _copy(a))
        case Unary(fn="sqrt", arg=a):
            denom = _bin(ch, "*", Const(ch, 2.0), _copy(e))
            d = _bin(ch, "/", _diff(a, axis, seen), denom)
        case _:
            raise TypeError(f"not a ScalarExpr node: {e!r}")
    seen[id(e)] = d
    return d


# ---------------------------------------------------------------------------
# substitution


def compose(e: ScalarExpr, new_chart: CoordinateChart,
            replacements: Sequence[ScalarExpr]) -> ScalarExpr:
    """Rebuild `e` over `new_chart`, replacing coordinate i by replacements[i]."""
    if len(replacements) != e.chart.dim:
        raise ValueError("need one replacement per source coordinate")
    for r in replacements:
        if r.chart != new_chart:
            raise ChartMismatchError("replacement is not over the target chart")
    return _compose(e, new_chart, tuple(replacements))


def _compose(e, new_chart, repl):
    match e:
        case Const(value=v):
            return Const(new_chart, v)
        case Coord(axis=a):
            return repl[a]
        case Binary(op=op, left=l, right=r):
            return Binary(new_chart, op,
                          _compose(l, new_chart, repl), _compose(r, new_chart, repl))
        case Power(base=b, exponent=k):
            return Power(new_chart, _compose(b, new_chart, repl), k)
        case Unary(fn=fn, arg=a):
            return Unary(new_chart, fn, _compose(a, new_chart, repl))
    raise TypeError(f"not a ScalarExpr node: {e!r}")


# ---------------------------------------------------------------------------
# numeric evaluation


@lru_cache(maxsize=4096)
def _tape_for(exprs: tuple[ScalarExpr, ...]) -> tape.Tape:
    return tape.pack_exprs(exprs)


def evaluate(e: ScalarExpr, point: Sequence[float]) -> float:
    """Evaluate at a single point; domain violations raise DomainError."""
    pts = np.asarray(point, dtype=np.float64).reshape(1, -1)
    if pts.shape[1] != e.chart.dim:
        raise ValueError(
            f"point has {pts.shape[1]} components, chart has {e.chart.dim}")
    return float(evaluate_many(e, pts)[0])


def evaluate_pack(exprs: Sequence[ScalarExpr], points) -> np.ndarray:
    """Evaluate expressions over one chart at an (m, dim) array of points as
    one compiled pack: values (len(exprs), m), and (0, m) for none.  The first
    expression that fails, at its first failing point, raises DomainError
    with the message `evaluate_many` gives for that expression alone."""
    exprs = tuple(exprs)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if not exprs:
        return np.empty((0, len(pts)))
    vals, errs = _kernels.eval_pack(_tape_for(exprs), pts)
    if errs.any():
        c, k = np.argwhere(errs)[0].tolist()
        raise DomainError(
            f"{_kernels.ERR_MESSAGES[int(errs[c, k])]} at point {tuple(pts[k].tolist())}")
    return vals


def evaluate_many(e: ScalarExpr, points: np.ndarray) -> np.ndarray:
    """Evaluate at an (m, dim) array of points; any domain violation raises."""
    return evaluate_pack((e,), points)[0]


def evaluate_masked(e: ScalarExpr, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at a batch of points (..., dim), returning (values, ok_mask),
    each of the batch shape, instead of raising.  The points are read as
    `_kernels.eval_pack` reads them: a view whose inner batch axis is
    unit-stride is not copied."""
    vals, errs = _kernels.eval_pack(_tape_for((e,)), points)
    return vals[0], errs[0] == 0


def _in_domain_values(e: ScalarExpr, trials: int, seed: int):
    """Yield the in-domain values of each batch of the sampling cloud."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    cap = RESAMPLE_CAP_FACTOR * trials
    remaining = trials
    drawn = 0
    while remaining > 0:
        batch = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(remaining, e.chart.dim))
        drawn += remaining
        vals, ok = evaluate_masked(e, batch)
        yield vals[ok]
        remaining -= int(ok.sum())
        if remaining > 0 and drawn >= cap:
            raise ResampleExhaustedError(
                f"could not collect {trials} in-domain points after {drawn} draws")


def sampled_abs_max(e: ScalarExpr, trials: int = DEFAULT_TRIALS,
                    seed: int = DEFAULT_SEED) -> float:
    """Max |e| over the seeded sampling cloud; inf if any value is not finite."""
    worst = 0.0
    for good in _in_domain_values(e, trials, seed):
        m = float(np.max(np.abs(good), initial=0.0))
        worst = max(worst, math.inf if math.isnan(m) else m)
    return worst


def is_zero_residual(r: float, tol: float) -> bool:
    """The zero rule: a sampled residual is zero iff it is finite and <= tol."""
    return math.isfinite(r) and r <= tol


def probably_zero(e: ScalarExpr, trials: int = DEFAULT_TRIALS,
                  tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> bool:
    """Seeded randomized zero test: the zero rule on `sampled_abs_max`."""
    return is_zero_residual(sampled_abs_max(e, trials, seed), tol)


def is_zero_const(e: ScalarExpr) -> bool:
    return isinstance(e, Const) and e.value == 0.0
