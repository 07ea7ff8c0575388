"""Reference simplifier and differentiator for the memoised symbolic layer.

These are `simplify`, `_rewrite` and `partial` (with the helpers they call
and `_diff`) as `exform.expr` had them before `simplify` marked its results
and `partial` kept a per-node memo, kept verbatim.  They rebuild every node
on every call.  `exform.expr.simplify` and `partial` must return trees that
print and compare equal to theirs.
"""

import math

from exform.expr import Binary, Const, Coord, Power, ScalarExpr, Unary


def _is_const(e: ScalarExpr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


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


def _rewrite(e: ScalarExpr) -> ScalarExpr:
    """One local rewriting step on a node whose children are simplified."""
    ch = e.chart
    match e:
        case Binary(op=op, left=l, right=r):
            if isinstance(l, Const) and isinstance(r, Const):
                v = _fold_binary(op, l.value, r.value)
                if v is not None:
                    return Const(ch, 0.0 if v == 0.0 else v)
            if op == "+":
                if _is_const(l, 0.0):
                    return r
                if _is_const(r, 0.0):
                    return l
                if isinstance(l, Unary) and l.fn == "neg":
                    return Binary(ch, "-", r, l.arg)
                if isinstance(r, Unary) and r.fn == "neg":
                    return Binary(ch, "-", l, r.arg)
            elif op == "-":
                if _is_const(r, 0.0):
                    return l
                if _is_const(l, 0.0):
                    return Unary(ch, "neg", r)
                if isinstance(r, Unary) and r.fn == "neg":
                    return Binary(ch, "+", l, r.arg)
                if l == r:
                    return Const(ch, 0.0)
                # a*b - b*a cancels exactly (IEEE multiplication commutes)
                if (isinstance(l, Binary) and isinstance(r, Binary)
                        and l.op == "*" and r.op == "*"
                        and l.left == r.right and l.right == r.left):
                    return Const(ch, 0.0)
            elif op == "*":
                if _is_const(l, 0.0) or _is_const(r, 0.0):
                    return Const(ch, 0.0)
                if _is_const(l, 1.0):
                    return r
                if _is_const(r, 1.0):
                    return l
            else:  # /
                if _is_const(l, 0.0) and not _is_const(r, 0.0):
                    return Const(ch, 0.0)
                if _is_const(r, 1.0):
                    return l
            return e
        case Power(base=b, exponent=k):
            if k == 0:
                return Const(ch, 1.0)
            if k == 1:
                return b
            if isinstance(b, Const) and not (b.value == 0.0 and k < 0):
                v = b.value**k
                if math.isfinite(v):
                    return Const(ch, v)
            return e
        case Unary(fn="neg", arg=Unary(fn="neg", arg=inner)):
            return inner
        case Unary(fn=fn, arg=Const(value=v)):
            if fn in _UNARY_FOLD:
                try:
                    folded = _UNARY_FOLD[fn](v)
                except OverflowError:
                    return e
                if math.isfinite(folded):
                    return Const(ch, folded)
            elif fn == "ln" and v > 0.0:
                return Const(ch, math.log(v))
            elif fn == "sqrt" and v >= 0.0:
                return Const(ch, math.sqrt(v))
            return e
        case _:
            return e


def simplify(e: ScalarExpr) -> ScalarExpr:
    """Constant folding, 0/1 identities, double negation; idempotent."""
    match e:
        case Const() | Coord():
            node = e
        case Binary(op=op, left=l, right=r):
            node = Binary(e.chart, op, simplify(l), simplify(r))
        case Power(base=b, exponent=k):
            node = Power(e.chart, simplify(b), k)
        case Unary(fn=fn, arg=a):
            node = Unary(e.chart, fn, simplify(a))
        case _:
            raise TypeError(f"not a ScalarExpr node: {e!r}")
    while True:
        rewritten = _rewrite(node)
        if rewritten == node:
            return node
        node = rewritten


def partial(e: ScalarExpr, axis: int) -> ScalarExpr:
    """Exact partial derivative with respect to the given axis, simplified."""
    if not 0 <= axis < e.chart.dim:
        raise ValueError(f"axis {axis} out of range for {e.chart.names}")
    return simplify(_diff(e, axis))


def _diff(e: ScalarExpr, axis: int) -> ScalarExpr:
    ch = e.chart
    zero = Const(ch, 0.0)
    match e:
        case Const():
            return zero
        case Coord(axis=a):
            return Const(ch, 1.0) if a == axis else zero
        case Binary(op="+", left=l, right=r):
            return Binary(ch, "+", _diff(l, axis), _diff(r, axis))
        case Binary(op="-", left=l, right=r):
            return Binary(ch, "-", _diff(l, axis), _diff(r, axis))
        case Binary(op="*", left=l, right=r):
            return Binary(ch, "+",
                          Binary(ch, "*", _diff(l, axis), r),
                          Binary(ch, "*", l, _diff(r, axis)))
        case Binary(op="/", left=l, right=r):
            num = Binary(ch, "-",
                         Binary(ch, "*", _diff(l, axis), r),
                         Binary(ch, "*", l, _diff(r, axis)))
            return Binary(ch, "/", num, Power(ch, r, 2))
        case Power(base=b, exponent=k):
            if k == 0:
                return zero
            scaled = Binary(ch, "*", Const(ch, float(k)), Power(ch, b, k - 1))
            return Binary(ch, "*", scaled, _diff(b, axis))
        case Unary(fn="neg", arg=a):
            return Unary(ch, "neg", _diff(a, axis))
        case Unary(fn="sin", arg=a):
            return Binary(ch, "*", Unary(ch, "cos", a), _diff(a, axis))
        case Unary(fn="cos", arg=a):
            return Unary(ch, "neg",
                         Binary(ch, "*", Unary(ch, "sin", a), _diff(a, axis)))
        case Unary(fn="exp", arg=a):
            return Binary(ch, "*", Unary(ch, "exp", a), _diff(a, axis))
        case Unary(fn="ln", arg=a):
            return Binary(ch, "/", _diff(a, axis), a)
        case Unary(fn="sqrt", arg=a):
            denom = Binary(ch, "*", Const(ch, 2.0), Unary(ch, "sqrt", a))
            return Binary(ch, "/", _diff(a, axis), denom)
    raise TypeError(f"not a ScalarExpr node: {e!r}")
