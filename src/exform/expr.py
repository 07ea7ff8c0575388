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

Trees are immutable by convention: only a node class's `__init__` sets a
field, which `tests/test_eval_entry.py` checks.  A node's `__slots__` hold
its fields (`_fields`: `chart`, then its class's own) and two caches, which
never take part in `==` or `repr` (a node has no hash):

* `simplify` marks every node it returns as simplified and returns a marked
  node unchanged; leaves are marked when built.  The simplification rules
  live in one constructor per kind of inner node (`_bin`, `_pow`, `_un`),
  which tests them on the operands before building anything: a rule that
  fires builds nothing, and a node is built and marked only when none does.
  `simplify`, `partial`, the operators + - * / ** and unary -, and the helpers
  sin, cos, exp, ln and sqrt make every inner node through them, so an
  operator's result is `simplify` of the raw node it names.  Raw trees come
  only from `parse_expr`, `compose` and the node classes.  A node whose
  children simplify to themselves is kept, not rebuilt, so a simplified tree
  may share nodes with its input;
* `partial` keeps a dict from axis to derivative on the differentiated node.
  Inside one call, a memo keyed by `id` differentiates each distinct inner
  node of the argument once; that memo lives only for the call, on no node
  and in no global table, and a result may share subtrees.

Leaves and constants may be shared within one `parse_expr`, `partial` or
`compose` call, never through a global table: a parse makes one Coord per
name and one Const per number text, a `partial` call one zero and one one for
every leaf it differentiates, `compose` one copy of each distinct node, and
`_bin` returns a Const operand that is its fold's value, to the sign of zero,
instead of a copy.  `compose` visits each distinct node once per call,
through a memo keyed by `id` as in `partial`.

Numeric evaluation goes through `evaluate_pack`: expressions over one chart
run as one tape, cached per tuple of the same objects (keyed by their ids,
so a lookup never walks a tree), in one kernel call, and `evaluate_many`
and `evaluate` are its one-expression cases.  Error rule: the first
expression that fails, at its first failing point, raises DomainError;
`evaluate_masked` returns the in-domain mask instead.  `rk4` integrates
ds/dt = exprs(s) on the same cached tape and names its first failure.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
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


def _operator(op: str, reflected: bool = False):
    """The ScalarExpr method for `op`: `_bin` of the simplified operands,
    the other operand first if `reflected`."""
    def method(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        l, r = (o, self) if reflected else (self, o)
        return _bin(self.chart, op, _copy(l), _copy(r))
    return method


class ScalarExpr:
    """Base node; concrete nodes are Const, Coord, Binary, Power, Unary.

    The operators + - * / ** and unary -, and the helpers sin, cos, exp, ln
    and sqrt, apply the simplification rules: each returns `simplify` of the
    raw node it names.  Raw trees come only from `parse_expr`, `compose` and
    the node classes.  `__init__` sets every slot, and `repr` and `==` read
    `_fields` as a frozen dataclass's would; a node is unhashable."""

    __slots__ = ("chart", "_simple", "_partials")

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = ("chart", *cls.__slots__)
        cls._values = operator.attrgetter(*cls._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

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

    __add__, __radd__ = _operator("+"), _operator("+", reflected=True)
    __sub__, __rsub__ = _operator("-"), _operator("-", reflected=True)
    __mul__, __rmul__ = _operator("*"), _operator("*", reflected=True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", reflected=True)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be a plain integer")
        return _pow(self.chart, _copy(self), exponent)

    def __neg__(self):
        return _un(self.chart, "neg", _copy(self))

    def __call__(self, point: Sequence[float]) -> float:
        return evaluate(self, point)

    def __str__(self) -> str:
        return to_text(self)


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, chart: CoordinateChart, value: float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite constant {value}")
        self.chart, self.value = chart, value
        self._simple, self._partials = True, None

    # 0.0 and -0.0 are different constants (x * -0 is -0 at x > 0), so equal
    # nodes agree in every bit
    def __eq__(self, other):
        if other.__class__ is not Const:
            return NotImplemented
        v, w = self.value, other.value
        return (v == w and (v != 0.0 or math.copysign(1.0, v) == math.copysign(1.0, w))
                and self.chart == other.chart)


class Coord(ScalarExpr):
    __slots__ = ("axis",)

    def __init__(self, chart: CoordinateChart, axis: int):
        if not 0 <= axis < chart.dim:
            raise ValueError(f"axis {axis} out of range for {chart.names}")
        self.chart, self.axis = chart, axis
        self._simple, self._partials = True, None


class Binary(ScalarExpr):
    __slots__ = ("op", "left", "right")  # op: one of + - * /

    def __init__(self, chart: CoordinateChart, op: str, left: ScalarExpr, right: ScalarExpr):
        self.chart, self.op = chart, op
        self.left, self.right = left, right
        self._simple, self._partials = False, None


class Power(ScalarExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, chart: CoordinateChart, base: ScalarExpr, exponent: int):
        if abs(exponent) > 2**31:
            raise ExformError(f"exponent {exponent} out of range: |exponent| > 2^31")
        self.chart, self.base, self.exponent = chart, base, exponent
        self._simple, self._partials = False, None


class Unary(ScalarExpr):
    __slots__ = ("fn", "arg")  # fn: sin cos exp ln sqrt neg

    def __init__(self, chart: CoordinateChart, fn: str, arg: ScalarExpr):
        self.chart, self.fn, self.arg = chart, fn, arg
        self._simple, self._partials = False, None


def const(ch: CoordinateChart, value: float) -> Const:
    return Const(ch, float(value))


def coord(ch: CoordinateChart, axis: int) -> Coord:
    return Coord(ch, axis)


def variable(ch: CoordinateChart, name: str) -> Coord:
    return Coord(ch, ch.axis(name))


def coords(ch: CoordinateChart) -> tuple[Coord, ...]:
    return tuple(Coord(ch, i) for i in range(ch.dim))


def sin(e: ScalarExpr) -> ScalarExpr:
    return _un(e.chart, "sin", _copy(e))


def cos(e: ScalarExpr) -> ScalarExpr:
    return _un(e.chart, "cos", _copy(e))


def exp(e: ScalarExpr) -> ScalarExpr:
    return _un(e.chart, "exp", _copy(e))


def ln(e: ScalarExpr) -> ScalarExpr:
    return _un(e.chart, "ln", _copy(e))


def sqrt(e: ScalarExpr) -> ScalarExpr:
    return _un(e.chart, "sqrt", _copy(e))


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

# One scan makes every token: an operator, a name, a number with the letter,
# digit, '_' or '.' that follows it if any (then it is malformed: it does not
# match _NUMBER_RE), or any other non-space character.  Digits are ASCII only,
# as \d, str.isdigit and float() accept '٣' too; \s is str.isspace and \w is
# str.isalnum or '_'.
_NUMBER_RE = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")
_TOKEN_RE = re.compile(rf"\s*([-+*/^()]|{_IDENT_RE.pattern}|{_NUMBER_RE.pattern}[\w.]?|\S)")
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _is_number(t: str) -> bool:
    return t[:1] in _DIGITS or t[:1] == "." and len(t) > 1


def _parse_error(text: str, k: int, message: str, found: bool = False) -> ParseError:
    """The error of a parse that stopped at token k (the end if there is no
    token k).  A lexical error (unexpected character, malformed or infinite
    number) anywhere in the text comes first, the earliest one; otherwise
    `message`, followed by the token's value if `found`.  Positions are found
    only here, by a second scan."""
    pos, value = len(text), None
    for n, m in enumerate(_TOKEN_RE.finditer(text)):
        t = m.group(1)
        if _is_number(t):
            if not _NUMBER_RE.fullmatch(t):
                return ParseError("malformed number", text, m.start(1))
            if not math.isfinite(float(t)):
                return ParseError("number out of range", text, m.start(1))
        elif t[0] not in _NAME_START and t not in "+-*/^()":  # t is one character
            return ParseError(f"unexpected character {t!r}", text, m.start(1))
        if n == k:
            pos, value = m.start(1), float(t) if _is_number(t) else t
    return ParseError(f"{message} {value!r}" if found else message, text, pos)


def parse_expr(text: str, ch: CoordinateChart) -> ScalarExpr:
    """Parse expression text over the chart.  Whitespace-insensitive.

    Precedence climbing: ^  >  unary -  >  * /  >  + -, binaries left-assoc.
    Each name and each number text makes one leaf, shared by its uses."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end
    leaves: dict[str, ScalarExpr] = {}
    i = 0

    def binary(min_prec: int) -> ScalarExpr:
        nonlocal i
        e = operand()
        op = tokens[i]
        while _BINARY_PREC.get(op, 0) >= min_prec:
            i += 1
            e = Binary(ch, op, e, operand() if op in "*/" else binary(2))
            op = tokens[i]
        return e

    def operand() -> ScalarExpr:
        nonlocal i
        t = tokens[i]
        i += 1
        e = leaves.get(t)
        if e is None:
            if t == "(":
                e = binary(1)
                expect(")")
            elif t == "-":
                e = operand()
                # a negated numeric literal is a negative constant
                return Const(ch, -e.value) if e.__class__ is Const else Unary(ch, "neg", e)
            elif t in FUNCTION_NAMES:
                expect("(")
                e = Unary(ch, t, binary(1))
                expect(")")
            else:
                e = leaves[t] = leaf(t, i - 1)
        if tokens[i] == "^":
            i += 1
            return Power(ch, e, exponent())
        return e

    def leaf(t: str, k: int) -> ScalarExpr:
        if _is_number(t):
            return Const(ch, number(t, k))
        if t[:1] in _NAME_START:
            try:
                return Coord(ch, ch.axis(t))
            except KeyError:
                raise _parse_error(text, k, f"unknown identifier {t!r}") from None
        raise _parse_error(text, k, "unexpected token", found=True)

    def number(t: str, k: int) -> float:
        if _NUMBER_RE.fullmatch(t) and math.isfinite(v := float(t)):
            return v
        raise _parse_error(text, k, "malformed number")  # the scan names the fault

    def expect(t: str):
        nonlocal i
        if tokens[i] != t:
            raise _parse_error(text, i, f"expected {t!r}, found", found=True)
        i += 1

    def exponent() -> int:
        # constant integer exponents only; general powers go through exp/ln
        nonlocal i
        if tokens[i] == "(":
            i += 1
            k = exponent()
            expect(")")
            return k
        neg = tokens[i] == "-"
        i += neg
        if not _is_number(tokens[i]):
            raise _parse_error(text, i, "exponent must be a constant integer")
        value = number(tokens[i], i)
        if value != int(value):
            raise _parse_error(text, i, "exponent must be a constant integer")
        if value > 2**31:
            raise _parse_error(text, i, "exponent out of range")
        i += 1
        return -int(value) if neg else int(value)

    try:
        e = binary(1)
    finally:
        # the closures call each other, a reference cycle that would outlive
        # the call until the cyclic collector ran; cut it so it is freed now
        binary = operand = exponent = None
    if tokens[i]:
        raise _parse_error(text, i, "unexpected token", found=True)
    return e


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
# node to keep when no rule fires.


def _const(ch: CoordinateChart, v: float, l: ScalarExpr, r: ScalarExpr) -> Const:
    """Const(ch, v) for a value `_bin` folds to (never -0.0): an operand that
    is that constant, to the sign of zero, is returned instead of a new node."""
    if l.__class__ is Const and l.value == v and (v or math.copysign(1.0, l.value) > 0):
        return l
    if r.__class__ is Const and r.value == v and (v or math.copysign(1.0, r.value) > 0):
        return r
    return Const(ch, v)


def _bin(ch: CoordinateChart, op: str, l: ScalarExpr, r: ScalarExpr,
         node: ScalarExpr | None = None) -> ScalarExpr:
    if isinstance(l, Const):
        lv = l.value
        if isinstance(r, Const):
            v = _fold_binary(op, lv, r.value)
            if v is not None:
                return _const(ch, 0.0 if v == 0.0 else v, l, r)
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
            return _const(ch, 0.0, l, r)
        if lv == 1.0:
            return r
        if rv == 1.0:
            return l
    else:  # /
        if lv == 0.0 and rv != 0.0:
            return _const(ch, 0.0, l, r)
        if rv == 1.0:
            return l
    if node is None:
        node = Binary(ch, op, l, r)
    node._simple = True
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
    node._simple = True
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
    node._simple = True
    return node


def simplify(e: ScalarExpr) -> ScalarExpr:
    """Constant folding, 0/1 identities, double negation; idempotent.

    A bottom-up fold: a raw node simplifies to what its operator or helper
    builds from its simplified children.  Every node it returns is marked,
    and a marked node is returned as it is.  A node whose children simplify
    to themselves is kept, not rebuilt."""
    if e._simple:
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


def _copy(e: ScalarExpr) -> ScalarExpr:
    """An operand of a new node: kept if marked, else simplified."""
    return e if e._simple else simplify(e)


def sum_of(terms: Iterable[ScalarExpr]) -> ScalarExpr:
    """The simplified left-associated sum ((t0 + t1) + t2) + ... of one or
    more terms."""
    first, *rest = terms
    return reduce(operator.add, rest, _copy(first))


# ---------------------------------------------------------------------------
# differentiation


def partial(e: ScalarExpr, axis: int) -> ScalarExpr:
    """Exact partial derivative with respect to the given axis, simplified;
    memoised per axis on `e`.  Each distinct inner node of `e` is
    differentiated once per call, so the result may share subtrees."""
    if not 0 <= axis < e.chart.dim:
        raise ValueError(f"axis {axis} out of range for {e.chart.names}")
    memo = e._partials
    if memo is None:
        memo = e._partials = {}
    if axis not in memo:
        ch = e.chart
        memo[axis] = _diff(e, axis, {}, (Const(ch, 0.0), Const(ch, 1.0)))
    return memo[axis]


def _diff(e: ScalarExpr, axis: int, seen: dict, leaf: tuple[Const, Const]) -> ScalarExpr:
    """`simplify` of the derivative tree, made by the constructors that hold
    the rules, so no node a rule fires on is built; operands copied from `e`
    go through `_copy`.  `seen`, a memo that lives for one `partial` call,
    maps the `id` of each inner node differentiated so far to its derivative:
    a node on several paths is differentiated once and its derivative is
    shared.  Leaves get no entry.  The call's argument keeps every keyed node
    alive, so no id is reused.  `leaf` is the call's zero and one, the
    derivative of every leaf and of every x^0."""
    ch = e.chart
    match e:
        case Const() | Power(exponent=0):
            return leaf[0]
        case Coord(axis=a):
            return leaf[a == axis]
    d = seen.get(id(e))
    if d is not None:
        return d
    match e:
        case Binary(op="+" | "-" as op, left=l, right=r):
            d = _bin(ch, op, _diff(l, axis, seen, leaf), _diff(r, axis, seen, leaf))
        case Binary(op="*", left=l, right=r):
            d = _bin(ch, "+", _bin(ch, "*", _diff(l, axis, seen, leaf), _copy(r)),
                     _bin(ch, "*", _copy(l), _diff(r, axis, seen, leaf)))
        case Binary(op="/", left=l, right=r):
            sr = _copy(r)
            num = _bin(ch, "-", _bin(ch, "*", _diff(l, axis, seen, leaf), sr),
                       _bin(ch, "*", _copy(l), _diff(r, axis, seen, leaf)))
            d = _bin(ch, "/", num, _pow(ch, sr, 2))
        case Power(base=b, exponent=k):
            scaled = _bin(ch, "*", Const(ch, float(k)), _pow(ch, _copy(b), k - 1))
            d = _bin(ch, "*", scaled, _diff(b, axis, seen, leaf))
        case Unary(fn="neg", arg=a):
            d = _un(ch, "neg", _diff(a, axis, seen, leaf))
        case Unary(fn="sin", arg=a):
            d = _bin(ch, "*", _un(ch, "cos", _copy(a)), _diff(a, axis, seen, leaf))
        case Unary(fn="cos", arg=a):
            d = _un(ch, "neg", _bin(
                ch, "*", _un(ch, "sin", _copy(a)), _diff(a, axis, seen, leaf)))
        case Unary(fn="exp", arg=a):
            d = _bin(ch, "*", _copy(e), _diff(a, axis, seen, leaf))
        case Unary(fn="ln", arg=a):
            d = _bin(ch, "/", _diff(a, axis, seen, leaf), _copy(a))
        case Unary(fn="sqrt", arg=a):
            denom = _bin(ch, "*", Const(ch, 2.0), _copy(e))
            d = _bin(ch, "/", _diff(a, axis, seen, leaf), denom)
        case _:
            raise TypeError(f"not a ScalarExpr node: {e!r}")
    seen[id(e)] = d
    return d


# ---------------------------------------------------------------------------
# substitution


def compose(e: ScalarExpr, new_chart: CoordinateChart,
            replacements: Sequence[ScalarExpr]) -> ScalarExpr:
    """Rebuild `e` over `new_chart`, replacing coordinate i by replacements[i]:
    a raw copy, in which no rule folds, that keeps the sharing of `e`."""
    if len(replacements) != e.chart.dim:
        raise ValueError("need one replacement per source coordinate")
    for r in replacements:
        if r.chart != new_chart:
            raise ChartMismatchError("replacement is not over the target chart")
    return _compose(e, new_chart, tuple(replacements), {})


def _compose(e, new_chart, repl, seen):
    c = seen.get(id(e))
    if c is None:
        match e:
            case Const(value=v):
                c = Const(new_chart, v)
            case Coord(axis=a):
                c = repl[a]
            case Binary(op=op, left=l, right=r):
                c = Binary(new_chart, op, _compose(l, new_chart, repl, seen),
                           _compose(r, new_chart, repl, seen))
            case Power(base=b, exponent=k):
                c = Power(new_chart, _compose(b, new_chart, repl, seen), k)
            case Unary(fn=fn, arg=a):
                c = Unary(new_chart, fn, _compose(a, new_chart, repl, seen))
            case _:
                raise TypeError(f"not a ScalarExpr node: {e!r}")
        seen[id(e)] = c
    return c


# ---------------------------------------------------------------------------
# numeric evaluation


class _Same:
    """A tape-cache key equal to a key of the same expression objects.  The
    cache keeps the key, and so the expressions: no id is reused while its
    entry lives."""

    __slots__ = ("exprs", "ids")

    def __init__(self, exprs: tuple[ScalarExpr, ...]):
        self.exprs, self.ids = exprs, tuple(map(id, exprs))

    def __hash__(self) -> int:
        return hash(self.ids)  # once per lookup: lru_cache keeps the hash

    def __eq__(self, other) -> bool:
        return self.ids == other.ids


@lru_cache(maxsize=4096)
def _compile(key: _Same) -> tape.Tape:
    return tape.pack_exprs(key.exprs)


def _tape_for(exprs: tuple[ScalarExpr, ...]) -> tape.Tape:
    return _compile(_Same(exprs))


_tape_for.cache_info, _tape_for.cache_clear = _compile.cache_info, _compile.cache_clear


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


def rk4(exprs: Sequence[ScalarExpr], states: np.ndarray, h: float, steps: int):
    """Fixed-step RK4 of ds/dt = exprs(s) from (m, dim) states: the trajectory
    (steps+1, m, dim), and None or the first (step, component, message)."""
    traj, err = _kernels.rk4(_tape_for(tuple(exprs)), states, h, steps)
    if err is not None:
        err = *err[:2], _kernels.ERR_MESSAGES[err[2]]
    return traj, err


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
