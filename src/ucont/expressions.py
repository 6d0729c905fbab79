"""Closed-form coefficient expressions.

A small fixed grammar (sums, products, integer powers, exp/sin/cos/atan,
variables t and x1..x9) is parsed into sympy trees.  Keeping the grammar
closed guarantees that exact symbolic derivatives up to the orders needed
by the operator machinery (3 in the coefficients, 4 in the weights) always
exist.  Numbers parse to exact rationals (``0.1`` is 1/10), so symbolic
identities hold exactly and :func:`coeff_is_zero` decides them.
Coefficients and weights are plain sympy expressions; every numeric
evaluation of one goes through :func:`sample`.

Grammar (whitespace insignificant)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | "t" | "x" digit | "(" expr ")" | func "(" expr ")"
    func   := "exp" | "sin" | "cos" | "atan"
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
import sympy as sp

T_SYMBOL = sp.Symbol("t", real=True)
X_SYMBOLS = tuple(sp.Symbol(f"x{i}", real=True) for i in range(1, 10))

Partials = Callable[..., sp.Expr]

_FUNCTIONS = {"exp": sp.exp, "sin": sp.sin, "cos": sp.cos, "atan": sp.atan,
              "arctan": sp.atan}


class ExpressionError(ValueError):
    """Parse failure, with the 0-based position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SamplingError(ValueError):
    """An expression that does not sample to the finite numbers required."""


@dataclass(frozen=True)
class _Token:
    kind: str   # 'num' | 'name' | 'op' | 'end'
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {stripped[0]!r}", bad_pos)
        if m.lastgroup == "num":
            yield _Token("num", m.group("num"), m.start("num"))
        elif m.lastgroup == "name":
            yield _Token("name", m.group("name"), m.start("name"))
        else:
            yield _Token("op", m.group("op"), m.start("op"))
        pos = m.end()
    yield _Token("end", "", len(text))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionError(f"expected {op!r}", tok.pos)

    def parse(self) -> sp.Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self) -> sp.Expr:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        e = sign * self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                e = e + rhs if tok.text == "+" else e - rhs
            else:
                return e

    def term(self) -> sp.Expr:
        e = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                e = e * rhs if tok.text == "*" else e / rhs
            else:
                return e

    def factor(self) -> sp.Expr:
        e = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            e = e ** self.integer()
        return e

    def integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        tok = self.advance()
        if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            raise ExpressionError("exponent must be an integer", tok.pos)
        return sign * int(tok.text)

    def base(self) -> sp.Expr:
        tok = self.advance()
        if tok.kind == "num":
            return sp.Rational(tok.text)
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "name":
            name = tok.text
            if name == "t":
                return T_SYMBOL
            if re.fullmatch(r"x[1-9]", name):
                return X_SYMBOLS[int(name[1]) - 1]
            if name in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _FUNCTIONS[name](arg)
            raise ExpressionError(f"unknown identifier {name!r}", tok.pos)
        raise ExpressionError(f"unexpected token {tok.text!r}", tok.pos)


def with_stand_ins(expr: sp.Expr) -> sp.Expr:
    """Replace abstract applied functions (the generic weight profile) by
    fixed smooth stand-ins, then evaluate the derivatives they carried.

    The stand-in depends on the function name only, through a checksum that
    is the same in every process."""
    subs = {}
    for f in expr.atoms(sp.core.function.AppliedUndef):
        h = zlib.crc32(f.func.__name__.encode()) % 7 + 2
        subs[f] = sp.sin(sp.Rational(h, 3) * f.args[0] + sp.Rational(1, 7)) + h
    return expr.xreplace(subs).doit() if subs else expr


@lru_cache(maxsize=512)
def _lambdify(expr: sp.Expr, syms: tuple[sp.Symbol, ...]):
    ready = with_stand_ins(expr)
    unbound = ready.free_symbols - set(syms)
    if unbound:
        raise SamplingError(f"expression has unbound symbols "
                            f"{sorted(s.name for s in unbound)}")
    # the module object, not "numpy": the string makes sympy run
    # `from numpy import *`, which imports numpy.f2py, .testing and .ma
    return sp.lambdify(syms, ready, modules=np)


def sample(expr: sp.Expr, mesh, syms=None):
    """Evaluate ``expr`` on broadcastable coordinate arrays ``mesh`` bound,
    in order, to ``syms`` (default x1..xn for n arrays).

    The value keeps its natural shape: a scalar for a constant, and only the
    axes of the variables it depends on otherwise (on an open mesh).  Each
    (expression, symbols) pair is compiled once per process; symbols left
    unbound, or a function numpy lacks, raise :class:`SamplingError`.
    """
    syms = X_SYMBOLS[:len(mesh)] if syms is None else tuple(syms)
    try:
        return _lambdify(expr, syms)(*mesh)
    except NameError as exc:    # a function the numpy printer left by name
        raise SamplingError(f"numpy has no counterpart of {exc.name}") from exc


def partials() -> Partials:
    """A fresh memoized table of partial derivatives for one build:
    ``d(expr, *axes, t=0)`` is dx_{axes[-1]} ... dx_{axes[0]} dt^t expr, the
    time derivatives first and then the space derivatives in the order
    given, one step at a time, so that each (expression, variable)
    derivative is taken once per table."""
    steps: dict[tuple[sp.Expr, sp.Symbol], sp.Expr] = {}

    def d(expr: sp.Expr, *axes: int, t: int = 0) -> sp.Expr:
        for var in (T_SYMBOL,) * t + tuple(X_SYMBOLS[i] for i in axes):
            if (expr, var) not in steps:
                steps[expr, var] = sp.diff(expr, var)
            expr = steps[expr, var]
        return expr
    return d


def coeff_is_zero(expr: sp.Expr) -> bool:
    """Exact zero test: the expansion of ``expr`` is 0 or cancels to 0."""
    expr = sp.expand(expr)
    return expr == 0 or sp.cancel(expr) == 0


def parse_expression(text: str) -> sp.Expr:
    """Parse ``text`` in the coefficient grammar into a sympy expression.

    Raises :class:`ExpressionError` with a position on syntax errors or
    unknown identifiers.
    """
    return _Parser(text).parse()


def const(value) -> sp.Expr:
    return sp.sympify(value)
