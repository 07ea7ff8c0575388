"""Reference parser for `exform.expr.parse_expr`.

This is the tokenizer and recursive-descent parser `exform.expr` had before
`parse_expr` tokenized in one regular-expression scan, kept verbatim but for
one fix: its number pattern matches ASCII digits only, as its comment says
(with \\d, "1٣" parsed as 13).  It builds a new leaf for every
occurrence.  `parse_expr` must give a tree that compares and prints equal to
its tree, or raise the same `ParseError` message at the same position.
"""

import math
import re

from exform.expr import (FUNCTION_NAMES, Binary, Const, Coord, CoordinateChart, ParseError,
                         Power, ScalarExpr, Unary)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOKEN_NUM = re.compile(r"([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?")


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
    return _Parser(text, ch).parse()
