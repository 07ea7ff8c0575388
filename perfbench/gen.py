"""Expression trees for the generators, with two printers and a derivative.

Inputs reach exform only as text.  A tree is a nested tuple:

    ("c", value) | ("v", axis) | (op, a, b) for op in + - * /
    ("^", a, k) with integer k | (fn, a) for fn in sin cos exp sqrt

``text`` prints exform syntax; ``py`` prints Python syntax that both ``eval``
(with the ``math`` namespace below) and sympy read, so references never pass
through exform.  ``diff`` is the textbook derivative without simplification.
"""

from __future__ import annotations

import math
import random

PY_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


def rng_for(seed: int, *key) -> random.Random:
    """Independent, reproducible stream for one (seed, key...) pair."""
    return random.Random(repr((seed,) + key))


def c(value):
    return ("c", float(value))


def v(axis):
    return ("v", axis)


def add(*terms):
    out = terms[0]
    for t in terms[1:]:
        out = ("+", out, t)
    return out


def mul(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = ("*", out, f)
    return out


def _num(x: float) -> str:
    s = repr(float(x))
    return f"({s})" if s.startswith("-") else s


def _show(t, names, power) -> str:
    kind = t[0]
    if kind == "c":
        return _num(t[1])
    if kind == "v":
        return names[t[1]]
    if kind == "^":
        return power.format(_show(t[1], names, power), t[2])
    if kind in PY_NAMESPACE:
        return f"{kind}({_show(t[1], names, power)})"
    return f"({_show(t[1], names, power)} {kind} {_show(t[2], names, power)})"


def text(t, names) -> str:
    return _show(t, names, "({})^({})")


def py(t, names) -> str:
    return _show(t, names, "({})**({})")


def evaluate(t, point) -> float:
    """Reference value at a point, in plain Python floats."""
    names = [f"_x{i}" for i in range(len(point))]
    env = dict(PY_NAMESPACE)
    env.update(zip(names, map(float, point)))
    return float(eval(py(t, names), {"__builtins__": {}}, env))


def diff(t, axis):
    kind = t[0]
    if kind == "c":
        return c(0)
    if kind == "v":
        return c(1 if t[1] == axis else 0)
    if kind in ("+", "-"):
        return (kind, diff(t[1], axis), diff(t[2], axis))
    if kind == "*":
        return add(mul(diff(t[1], axis), t[2]), mul(t[1], diff(t[2], axis)))
    if kind == "/":
        num = ("-", mul(diff(t[1], axis), t[2]), mul(t[1], diff(t[2], axis)))
        return ("/", num, ("^", t[2], 2))
    if kind == "^":
        return mul(c(t[2]), ("^", t[1], t[2] - 1), diff(t[1], axis))
    if kind == "sin":
        return mul(("cos", t[1]), diff(t[1], axis))
    if kind == "cos":
        return mul(c(-1), ("sin", t[1]), diff(t[1], axis))
    if kind == "exp":
        return mul(t, diff(t[1], axis))
    if kind == "sqrt":
        return ("/", diff(t[1], axis), mul(c(2), t))
    raise ValueError(f"unknown node {kind!r}")


def linear(r: random.Random, axes, lo=0.3, hi=1.2):
    """sum of a_i x_i + b over the given axes, |a_i| in [lo, hi]."""
    terms = [mul(c(round(r.choice((-1, 1)) * r.uniform(lo, hi), 3)), v(a))
             for a in axes]
    return add(*terms, c(round(r.uniform(-0.5, 0.5), 3)))


def polynomial(r: random.Random, dim: int, degree: int, terms: int):
    """Sum of `terms` monomials of total degree <= degree, integer-ish coefficients."""
    out = []
    for _ in range(terms):
        mono = [c(r.choice((-3, -2, -1, 1, 2, 3)) * r.choice((0.5, 1.0)))]
        for _ in range(r.randint(1, degree)):
            mono.append(v(r.randrange(dim)))
        out.append(mul(*mono))
    return add(*out)


# ---------------------------------------------------------------------------
# mixed partials by nilpotent (multi-dual) numbers


class Jet:
    """a + sum over subsets S of c_S prod_{m in S} e_m, with e_m^2 = 0.

    Evaluating f at x_j = p_j + sum of the e_m assigned to axis j leaves the
    mixed partial of f along those axes as the coefficient of e_1 ... e_k.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = coeffs

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return Jet([float(other)] + [0.0] * (len(self.c) - 1))

    def __add__(self, other):
        other = self._lift(other)
        return Jet([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        other = self._lift(other)
        return Jet([a - b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        other = self._lift(other)
        x, y = self.c, other.c
        out = [0.0] * len(x)
        for mask in range(len(x)):
            sub, total = mask, 0.0
            while True:
                total += x[sub] * y[mask ^ sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            out[mask] = total
        return Jet(out)

    def apply(self, derivs):
        """f(a + n) = sum_j derivs[j] n^j, derivs[j] = f^(j)(a) / j!."""
        nil = Jet([0.0] + self.c[1:])
        out = Jet([derivs[0]] + [0.0] * (len(self.c) - 1))
        power = Jet([1.0] + [0.0] * (len(self.c) - 1))
        for coef in derivs[1:]:
            power = power * nil
            out = out + Jet([coef * p for p in power.c])
        return out


def _taylor(kind, a, order, k=None):
    """f^(j)(a) / j! for j = 0..order."""
    out, fact = [], 1.0
    for j in range(order + 1):
        fact *= max(j, 1)
        if kind == "exp":
            d = math.exp(a)
        elif kind in ("sin", "cos"):
            shift = j + (1 if kind == "cos" else 0)
            d = (math.sin(a), math.cos(a), -math.sin(a), -math.cos(a))[shift % 4]
        else:  # integer power k
            falling = 1.0
            for m in range(j):
                falling *= k - m
            d = falling * a ** (k - j) if falling else 0.0
        out.append(d / fact)
    return out


def mixed_partial(t, point, axes) -> float:
    """d^k t / dx_{axes[0]} ... dx_{axes[k-1]} at the point, in floats."""
    size = 1 << len(axes)

    def leaf(value, axis=None):
        coeffs = [float(value)] + [0.0] * (size - 1)
        if axis is not None:
            for m, a in enumerate(axes):
                if a == axis:
                    coeffs[1 << m] = 1.0
        return Jet(coeffs)

    def walk(node):
        kind = node[0]
        if kind == "c":
            return leaf(node[1])
        if kind == "v":
            return leaf(point[node[1]], node[1])
        if kind == "+":
            return walk(node[1]) + walk(node[2])
        if kind == "-":
            return walk(node[1]) - walk(node[2])
        if kind == "*":
            return walk(node[1]) * walk(node[2])
        if kind == "/":
            den = walk(node[2])
            return walk(node[1]) * den.apply(_taylor("^", den.c[0], len(axes), -1))
        inner = walk(node[1])
        if kind == "^":
            return inner.apply(_taylor("^", inner.c[0], len(axes), node[2]))
        return inner.apply(_taylor(kind, inner.c[0], len(axes)))

    return walk(t).c[size - 1]
