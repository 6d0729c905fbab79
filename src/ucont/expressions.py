"""Closed-form coefficient expressions.

A small fixed grammar (sums, products, integer powers, exp/sin/cos/atan,
variables t and x1..x9) is parsed into sympy trees.  Keeping the grammar
closed guarantees that exact symbolic derivatives up to the orders needed
by the operator machinery (3 in the coefficients, 4 in the weights) always
exist.  Numbers parse to exact rationals (``0.1`` is 1/10), so symbolic
identities hold exactly and :func:`coeff_is_zero` decides them.
Coefficients and weights are plain sympy expressions; every numeric
evaluation of one goes through :func:`sample`, and every symbolic
derivative the operator machinery takes comes from a :func:`partials`
table.

Grammar (whitespace insignificant)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | "t" | "x" digit | "(" expr ")" | func "(" expr ")"
    func   := "exp" | "sin" | "cos" | "atan"
"""

from __future__ import annotations

import ast
import operator
import re
from functools import lru_cache
from typing import Callable

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .grids import NumericGuardError

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


class SamplingError(NumericGuardError, ValueError):
    """An expression that does not sample to the finite numbers required."""


class _ExactFloatPrinter(NumPyPrinter):
    """numpy's printer with each Float at its exact binary value: the
    default prints 15 significant digits, so 2/2.2^2 sampled as
    0.413223140495868, not the double 0.4132231404958677."""

    def _print_Float(self, expr: sp.Float) -> str:
        return repr(float(expr))


@lru_cache(maxsize=512)
def _lambdify(expr: sp.Expr, syms: tuple[sp.Symbol, ...]):
    unbound = [*(expr.free_symbols - set(syms)),
               *expr.atoms(sp.core.function.AppliedUndef)]
    if unbound:
        raise SamplingError(f"expression has unbound symbols or abstract "
                            f"functions {sorted(map(str, unbound))}")
    # the module object, not "numpy": the string makes sympy run
    # `from numpy import *`, which imports numpy.f2py, .testing and .ma.
    # A printer keeps state while it prints, so each compile has its own.
    printer = _ExactFloatPrinter({"fully_qualified_modules": False, "inline": True,
                                  "allow_unknown_functions": True})
    return sp.lambdify(syms, expr, modules=np, printer=printer)


def sample(expr: sp.Expr, mesh, syms=None):
    """Evaluate ``expr`` on broadcastable coordinate arrays ``mesh`` bound,
    in order, to ``syms`` (default x1..xn for n arrays).

    The value keeps its natural shape: a scalar for a constant, and only the
    axes of the variables it depends on otherwise (on an open mesh).  A
    number is its value (an int or a float); any other (expression,
    symbols) pair is compiled once per process.  Symbols left unbound, an
    abstract function such as the weight profile vp(t) (no value is made up
    for it), a function numpy lacks, or a NaN or inf in the value raise
    :class:`SamplingError`, the last naming the first point not finite.
    """
    syms = X_SYMBOLS[:len(mesh)] if syms is None else tuple(syms)
    if expr.is_Number:
        value = int(expr) if expr.is_Integer else float(expr)
    else:
        try:
            # a pole or a 0/0 is reported below, naming its point
            with np.errstate(all="ignore"):
                value = _lambdify(expr, syms)(*mesh)
        except NameError as exc:    # a function the numpy printer left by name
            raise SamplingError(f"numpy has no counterpart of {exc.name}") from exc
    finite = np.isfinite(value)
    if not finite.all():
        shape = np.broadcast_shapes(finite.shape, *map(np.shape, mesh))
        first = tuple(np.argwhere(~np.broadcast_to(finite, shape))[0])
        at = ", ".join(f"{s} = {np.broadcast_to(m, shape)[first]:g}"
                       for s, m in zip(syms, mesh))
        raise SamplingError(f"{expr} is not finite at {at}")
    return value


def partials() -> Partials:
    """A fresh memoized table of partial derivatives, the symbolic layer's
    one derivative engine, for one build or call: ``d(expr, *axes, t=0)`` is
    dx_{axes[-1]} ... dx_{axes[0]} dt^t expr, the time derivatives first and
    then the space derivatives in the order given, one step at a time.

    A step differentiates a sum term by term and a product by the product
    rule over sympy's own factor order, taking the terms' and factors'
    steps from the table itself, so each step builds the tree that
    ``sp.diff`` builds.  Any other node (a power, exp, atan, vp(t), ...) is
    handed to ``sp.diff`` once per (subexpression, variable) in the table.
    """
    steps: dict[tuple[sp.Expr, sp.Symbol], sp.Expr] = {}

    def step(expr: sp.Expr, var: sp.Symbol) -> sp.Expr:
        if (expr, var) not in steps:
            if isinstance(expr, sp.Add):
                out = sp.Add(*(step(e, var) for e in expr.args))
            elif isinstance(expr, sp.Mul):
                # sympy's Mul._eval_derivative_n_times at n = 1
                args = expr.args
                out = sp.Add(*(sp.Mul(*args[:i], da, *args[i + 1:])
                               for i, da in enumerate(step(e, var) for e in args)
                               if da != 0))
            else:
                out = sp.diff(expr, var)
            steps[expr, var] = out
        return steps[expr, var]

    def d(expr: sp.Expr, *axes: int, t: int = 0) -> sp.Expr:
        for var in (T_SYMBOL,) * t + tuple(X_SYMBOLS[i] for i in axes):
            expr = step(expr, var)
        return expr
    return d


def coeff_is_zero(expr: sp.Expr) -> bool:
    """Exact zero test: the expansion of ``expr`` is 0 or cancels to 0.
    When it does not and ``expr`` holds sin or cos, the test repeats on
    ``expr`` rewritten in exponentials, which decides trigonometric zeros
    such as sin(2 x1) - 2 sin(x1) cos(x1)."""
    expr = sp.expand(expr)
    if expr == 0 or sp.cancel(expr) == 0:
        return True
    if not expr.has(sp.sin, sp.cos):
        return False
    return sp.cancel(sp.expand(expr.rewrite(sp.exp))) == 0


_SYMBOLS = {"t": T_SYMBOL, **{s.name: s for s in X_SYMBOLS}}
_SUMS = {ast.Add: operator.add, ast.Sub: operator.sub}
_PRODUCTS = {ast.Mult: operator.mul, ast.Div: operator.truediv}
_SIGNS = {ast.UAdd: 1, ast.USub: -1}
_OPERATORS = {*_SUMS, *_PRODUCTS, ast.Pow, *_SIGNS}
# what the grammar excludes but Python reads: a character outside the
# grammar's alphabet (ASCII letters, digits, "_", whitespace, ".", "+", "-",
# "*", "/", "^" and parentheses), "**" and a sign after an operator
_EXCLUDED = re.compile(r"[^\x00-\x7f]|[^\w\s.+*/^()-]|\*\*|[-+*/]\s*[-+]")
# the zeros that open a decimal integer such as "07", which Python rejects
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")


def parse_expression(text: str) -> sp.Expr:
    """Parse ``text`` in the coefficient grammar into a sympy expression.

    Python's parser reads the text, with ``^`` for ``**``, and the sympy
    tree is built from the grammar's nodes alone, in the grammar's order (a
    leading sign signs its whole term).  Python syntax outside the grammar,
    syntax errors, unknown identifiers and a piece without a value (a
    division by zero, ``0^-1``) raise :class:`ExpressionError` with the
    position in ``text``.
    """
    bad = _EXCLUDED.search(text)
    if bad:
        raise ExpressionError(f"unexpected {bad.group()[-1]!r}", bad.end() - 1)
    # Python's text is ``text`` with one space for each whitespace character
    # and leading zero and "**" for "^": its position p is back[p] in ``text``
    python = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()),
                                re.sub(r"\s", " ", text)).replace("^", "**")
    back = [i for i, c in enumerate(text) for _ in range(1 + (c == "^"))] + [len(text)]
    body = python.lstrip()
    lead = len(python) - len(body)

    def fail(message: str, node: ast.expr):
        raise ExpressionError(message, back[lead + node.col_offset])

    def source(node: ast.expr) -> str:
        return body[node.col_offset:node.end_col_offset]

    def defined(e: sp.Expr, node: ast.expr) -> sp.Expr:
        # sympy evaluates 1/0 to zoo, sin(zoo) to nan, atan(zoo) to an
        # interval, and raises on some expressions of those
        if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo, sp.AccumBounds):
            fail("division by zero", node)
        return e

    def chain(node: ast.expr, level: dict) -> sp.Expr:
        """An expr (``level`` the sums) or a term (the products): the
        left-associative chain of the level's operators from ``node``.  An
        operand in parentheses starts after the chain and ends it."""
        start, rest, sign = node.col_offset, [], 1
        while isinstance(node, ast.BinOp) and type(node.op) in level \
                and node.col_offset == start:
            rest.append((level[type(node.op)], node.right))
            node = node.left
        if level is _PRODUCTS and isinstance(node, ast.UnaryOp) \
                and type(node.op) in _SIGNS and node.col_offset == start:
            sign, node = _SIGNS[type(node.op)], node.operand
        operand = factor if level is _PRODUCTS else lambda n: chain(n, _PRODUCTS)
        e = operand(node)
        for op, right in reversed(rest):
            e = defined(op(e, operand(right)), right)
        return sign * e

    def factor(node: ast.expr) -> sp.Expr:
        """A base, or a base "^" a signed integer in no parentheses."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            left, digits = factor(node.left), source(node.right).replace(" ", "")
            if not re.fullmatch(r"[+-]?\d+", digits) \
                    or not body[:node.right.col_offset].rstrip().endswith("*"):
                fail("exponent must be an integer", node.right)
            return defined(left ** int(digits), node.right)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float) \
                and set(source(node)) <= set("0123456789.eE+-"):
            return sp.Rational(source(node))
        if isinstance(node, ast.Name) and node.id in _SYMBOLS:
            return _SYMBOLS[node.id]
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in _FUNCTIONS \
                and len(node.args) == 1 and node.func.col_offset == node.col_offset:
            return defined(_FUNCTIONS[node.func.id](chain(node.args[0], _SUMS)),
                           node)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _OPERATORS:
            return chain(node, _SUMS)       # in parentheses
        name = getattr(node, "func", node)
        if isinstance(name, ast.Name) and name.id not in _SYMBOLS | _FUNCTIONS:
            fail(f"unknown identifier {name.id!r}", name)
        fail(f"{source(node)!r} is not in the grammar", node)

    try:
        return chain(ast.parse(body, mode="eval").body, _SUMS)
    except SyntaxError as exc:
        column = min(max((exc.offset or 1) - 1, 0), len(body))
        raise ExpressionError(exc.msg, back[lead + column]) from None
    except RecursionError:
        raise ExpressionError("expression nested too deeply", 0) from None


def const(value) -> sp.Expr:
    return sp.sympify(value)
