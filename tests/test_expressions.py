import math
import operator
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ucont.expressions import (T_SYMBOL, X_SYMBOLS, ExpressionError,
                               SamplingError, coeff_is_zero, const,
                               parse_expression, partials, sample)
from ucont.grids import Grid, SpaceTimeGrid
from ucont.operators import VARIANTS, WeightSpec


def test_constant_identity():
    assert parse_expression("1") == sp.Integer(1)


def test_direct_arithmetic():
    e = parse_expression("x1^2 + x2^2")
    assert sample(e, (1.0, 2.0)) == pytest.approx(5.0)


def test_parse_normalization_commutes():
    assert parse_expression("x1 + 1") == parse_expression("1 + x1")


def test_grammar_pieces():
    e = parse_expression("2*exp(-x1^2)/(1 + x1^2) - sin(t)*cos(x1) + atan(x1)")
    val = sample(e, (0.3, 0.7), (T_SYMBOL, X_SYMBOLS[0]))
    expect = 2 * math.exp(-0.49) / 1.49 - math.sin(0.3) * math.cos(0.7) \
        + math.atan(0.7)
    assert val == pytest.approx(expect, rel=1e-12)


def test_unary_minus_and_signed_exponent():
    assert sample(parse_expression("-x1"), (2.0,)) == -2.0
    assert sample(parse_expression("x1^-2"), (2.0,)) == pytest.approx(0.25)


@pytest.mark.parametrize("text,value", [("0.1", sp.Rational(1, 10)),
                                        ("1e-12", sp.Rational(1, 10 ** 12))])
def test_decimals_parse_to_rationals(text, value):
    assert parse_expression(text) == value


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1 + * 2")
    assert err.value.position == 5


def test_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier 'y'"):
        parse_expression("y + 1")
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_expression("sinh(x1)")


@pytest.mark.parametrize("text, position", [
    ("1/0", 2), ("x1/(t-t)", 4), ("0^-1", 2), ("sin(x1/0)", 7),
    ("(atan(t/0)+t)^-1", 8)])
def test_division_by_zero_rejected(text, position):
    with pytest.raises(ExpressionError, match="division by zero") as err:
        parse_expression(text)
    assert err.value.position == position


def test_non_integer_exponent_rejected():
    with pytest.raises(ExpressionError, match="integer"):
        parse_expression("x1^1.5")


# Python reads each of these, or part of it; the grammar does not
@pytest.mark.parametrize("text", [
    "2*-x1", "1+-x1", "x1**2", "x1^2^3", "0x10", "1_0", "1j", "True",
    "x1.real", "[x1]", "exp(x1, x2)", "exp(x=1)", "exp", "x1 if t else 1",
    "'x1'", "x10", "(x1", "x1 2", "\u0661", "1\x00"])
def test_python_syntax_outside_the_grammar_rejected(text):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert 0 <= err.value.position <= len(text)


def test_signs_open_expressions_and_exponents():
    x1 = X_SYMBOLS[0]
    assert parse_expression("2*(-x1)") == -2 * x1
    assert parse_expression("x1^ - 2") == x1 ** -2
    # a leading sign signs its whole term, not only the first factor
    assert sp.srepr(parse_expression("-(x1+1)*(x1+2)")) \
        == sp.srepr(-1 * ((x1 + 1) * (x1 + 2)))


# an oracle apart from the parser: random trees of the grammar, rendered as
# text with random whitespace and redundant parentheses, next to the sympy
# tree the grammar defines (a leading sign signs its whole term; the
# operators of one level associate to the left), or None where a piece of
# the tree has no value (a division by zero)
_WS = st.sampled_from(["", " ", "  ", "\n", "\t", " \n "])
_NUMBERS = st.sampled_from([
    ("0", sp.Integer(0)), ("1", sp.Integer(1)), ("3", sp.Integer(3)),
    ("07", sp.Integer(7)), ("0.25", sp.Rational(1, 4)), (".5", sp.Rational(1, 2)),
    ("2.", sp.Integer(2)), ("1e-2", sp.Rational(1, 100)), ("3E1", sp.Integer(30))])
_NAMES = st.sampled_from([("t", T_SYMBOL), *((f"x{i}", X_SYMBOLS[i - 1])
                                             for i in (1, 2, 9))])
_CALLS = st.sampled_from([("exp", sp.exp), ("sin", sp.sin), ("cos", sp.cos),
                          ("atan", sp.atan), ("arctan", sp.atan)])


def _valued(build, *args):
    if None in args:
        return None
    value = build(*args)
    undefined = value.has(sp.zoo, sp.nan, sp.oo, -sp.oo, sp.AccumBounds)
    return None if undefined else value


@st.composite
def _grammar_expr(draw, depth):
    def ws():
        return draw(_WS)

    def base():
        kind = draw(st.integers(0, 3 if depth else 1))
        if kind < 2:
            return draw(_NUMBERS if kind == 0 else _NAMES)
        text, value = draw(_grammar_expr(depth - 1))
        if kind == 2:
            return f"({ws()}{text}{ws()})", value
        name, func = draw(_CALLS)
        return f"{name}{ws()}({ws()}{text}{ws()})", _valued(func, value)

    def factor():
        text, value = base()
        if draw(st.booleans()):
            sign, digits = draw(st.sampled_from(["", "-", "+"])), draw(
                st.sampled_from(["0", "1", "2", "3", "02"]))
            exponent = int(digits) * (-1 if sign == "-" else 1)
            return (f"{text}{ws()}^{ws()}{sign}{ws()}{digits}",
                    _valued(lambda v: v ** exponent, value))
        return text, value

    def term():
        text, value = factor()
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from("*/"))
            t, v = factor()
            text += f"{ws()}{op}{ws()}{t}"
            value = _valued(operator.mul if op == "*" else operator.truediv,
                            value, v)
        return text, value

    sign = draw(st.sampled_from(["", "", "-", "+"]))
    text, value = term()
    text, value = f"{sign}{ws()}{text}", _valued(
        lambda v: (-1 if sign == "-" else 1) * v, value)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from("+-"))
        t, v = term()
        text += f"{ws()}{op}{ws()}{t}"
        value = _valued(operator.add if op == "+" else operator.sub, value, v)
    return text, value


# about half the trees divide by zero somewhere; 300 examples keep some 150
# defined trees
@settings(max_examples=300, deadline=None)
@given(_WS, _grammar_expr(3), _WS)
def test_parse_matches_grammar_trees(before, pair, after):
    text, value = pair
    if value is None:
        with pytest.raises(ExpressionError, match="division by zero"):
            parse_expression(before + text + after)
    else:
        assert sp.srepr(parse_expression(before + text + after)) == sp.srepr(value)


def test_derivative_matches_central_difference():
    # the finite-difference oracle for symbolic differentiation
    e = parse_expression("exp(-x1^2)")
    d = sp.diff(e, X_SYMBOLS[0])
    h = 1e-5
    x0 = 0.7
    fd = (sample(e, (x0 + h,)) - sample(e, (x0 - h,))) / (2 * h)
    assert sample(d, (x0,)) == pytest.approx(fd, rel=1e-6)


def test_derivative_fd_second_order():
    e = parse_expression("sin(x1)*exp(-x1^2/2)")
    d = sp.diff(e, X_SYMBOLS[0])
    x0 = 0.4
    errs = []
    for h in (1e-2, 5e-3):
        fd = (sample(e, (x0 + h,)) - sample(e, (x0 - h,))) / (2 * h)
        errs.append(abs(fd - sample(d, (x0,))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_vectorized_evaluation():
    e = parse_expression("x1^2 + t")
    xs = np.linspace(-1, 1, 11)
    out = sample(e, (0.5, xs), (T_SYMBOL, X_SYMBOLS[0]))
    assert np.allclose(out, xs ** 2 + 0.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 3))
def test_polynomial_round_trip(a, b, k):
    text = f"({a}) + ({b})*x1^{k}" if k else f"({a}) + ({b})"
    e = parse_expression(text)
    x = 0.37
    expected = a + b * x ** k if k else a + b
    assert sample(e, (x,)) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the derivative engine
# ---------------------------------------------------------------------------

# an oracle apart from the engine, which compose, commutator and the graded
# pieces share, so that their own tests cannot catch a wrong derivative:
# random grammar trees in t, x1, x2, x3 and the four weights (two of them
# with the abstract profile vp(t)), each differentiated up to 4 times by the
# table and by sp.diff
_LEAVES = st.sampled_from([T_SYMBOL, *X_SYMBOLS[:3], sp.Integer(2),
                           sp.Rational(1, 10), sp.Rational(-3, 2)])
_UNARY = st.sampled_from([sp.exp, sp.sin, sp.cos, sp.atan,
                          lambda e: 1 / (1 + e ** 2)])


def _compound(children):
    return st.one_of(
        st.builds(lambda f, e: f(e), _UNARY, children),
        st.builds(operator.mul, children, children),
        st.builds(operator.add, children, children))


_BETA, _R = sp.Symbol("beta", positive=True), sp.Symbol("R", positive=True)
_WEIGHTS = st.builds(
    lambda variant, beta, R, n: WeightSpec(variant, beta, sp.Rational(3, 2),
                                           R).phi(n),
    st.sampled_from(VARIANTS),
    st.sampled_from([1, 0.5, sp.Rational(1, 2), _BETA]),
    st.sampled_from([2, _R]), st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.recursive(_LEAVES, _compound, max_leaves=6), _WEIGHTS),
       st.lists(st.sampled_from([None, 0, 1, 2]), min_size=1, max_size=4))
def test_partials_match_sympy(expr, steps):
    """``steps`` lists dt (None) and dx_i (i), the time steps taken first."""
    k, axes = steps.count(None), [i for i in steps if i is not None]
    variables = [T_SYMBOL] * k + [X_SYMBOLS[i] for i in axes]
    d = partials()
    got = d(expr, *axes, t=k)
    assert coeff_is_zero(got - sp.diff(expr, *variables))
    # each single step builds sp.diff's own tree
    for var in variables:
        step = d(expr, t=1) if var == T_SYMBOL else d(expr, X_SYMBOLS.index(var))
        assert sp.srepr(step) == sp.srepr(sp.diff(expr, var))
        expr = step
    assert expr == got


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------

ST2 = SpaceTimeGrid(8, Grid((4.0, 2.0), (16, 8)))
ST2_SYMS = (T_SYMBOL, *X_SYMBOLS[:2])


def test_sample_constant_is_scalar():
    val = sample(parse_expression("2 + 1/4"), ST2.open_mesh, ST2_SYMS)
    assert np.ndim(val) == 0 and val == 2.25


def test_sample_keeps_natural_shape():
    e = parse_expression("1 + 0.1*exp(-x2^2)")
    val = sample(e, ST2.open_mesh, ST2_SYMS)
    assert val.shape == (1, 1, 8)
    x2 = ST2.space.axis(1)
    assert np.allclose(val[0, 0], 1 + 0.1 * np.exp(-x2 ** 2), rtol=0, atol=1e-15)
    beta = sp.Symbol("beta", positive=True)
    with pytest.raises(ValueError, match="unbound symbols"):
        sample(beta * e, ST2.open_mesh, ST2_SYMS)


def test_sample_takes_floats_at_their_binary_value():
    # lambdify's own printer writes a Float with 15 significant digits:
    # 2/2.2^2 would sample as 0.413223140495868
    x1 = X_SYMBOLS[0]
    c = sp.Float(2) / sp.Float(2.2) ** 2
    assert sample(c * x1, (np.array([1.0]),))[0] == float(c) == 2 / 2.2 ** 2
    assert sample(-sp.Float(0.1) * x1 ** sp.Float(1.5), (2.0,)) == -0.1 * 2.0 ** 1.5


@pytest.mark.parametrize("text", [
    "sin(2*x1) - 2*sin(x1)*cos(x1)",
    "4*cos(x1)^2 - 4*sin(x1)^2 - 4*cos(2*x1)",
    "sin(x1 + x2) - sin(x1)*cos(x2) - cos(x1)*sin(x2)"])
def test_trigonometric_zeros_read_as_zero(text):
    assert coeff_is_zero(parse_expression(text))


@pytest.mark.parametrize("text", ["sin(x1) - cos(x1)", "atan(x1) - x1",
                                  "sin(x1)^2 + cos(x1)^2",
                                  "exp(x1)*sin(x1) - sin(x1)"])
def test_trigonometric_nonzeros_read_as_nonzero(text):
    assert not coeff_is_zero(parse_expression(text))


@pytest.mark.parametrize("expr", [const(1), sp.Rational(1, 3), sp.Float(0.1)],
                         ids=["integer", "rational", "float"])
def test_constant_samples_compile_nothing(expr):
    # a number is its value, the value and type its compiled lambda returns
    from ucont import expressions
    mesh = (np.linspace(-1.0, 1.0, 5),)
    expressions._lambdify.cache_clear()
    got = sample(expr, mesh)
    assert expressions._lambdify.cache_info().misses == 0
    want = expressions._lambdify(expr, X_SYMBOLS[:1])(*mesh)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("expr, mesh, where", [
    (sp.Float("nan"), (np.array([-1.0, 0.0]),), "nan is not finite at x1 = -1"),
    (sp.oo, (2.0,), "oo is not finite at x1 = 2"),
    (1 / X_SYMBOLS[0], (np.array([-1.0, 0.0, 1.0]),), "1/x1 is not finite at x1 = 0"),
    (1 / X_SYMBOLS[0], (np.array([[1.0], [0.0]]), np.array([[3.0, 4.0]])),
     "1/x1 is not finite at x1 = 0, x2 = 3")],
    ids=["nan-constant", "infinite-constant", "pole", "pole-on-open-mesh"])
def test_sample_names_the_first_point_not_finite(expr, mesh, where):
    with pytest.raises(SamplingError, match=re.escape(where)):
        sample(expr, mesh)


def test_sample_reports_a_pole_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SamplingError, match="1/x1 is not finite at x1 = 0"):
            sample(1 / X_SYMBOLS[0], (np.array([0.0, 1.0]),))


def test_sample_raises_on_an_abstract_function():
    vp = sp.Function("vp")(T_SYMBOL)
    for expr in (vp + X_SYMBOLS[0], sp.Derivative(vp, T_SYMBOL)):
        with pytest.raises(SamplingError, match="abstract functions"):
            sample(expr, (0.5, 1.0), (T_SYMBOL, X_SYMBOLS[0]))


def test_stand_in_same_in_every_process():
    # the numeric probes of a generic weight sample vp(t) at one fixed
    # stand-in, whatever the process's hash seed
    code = ("import sympy as sp; from ucont.expressions import T_SYMBOL, "
            "X_SYMBOLS; from ucont.operators import PROFILE, probe_max_abs; "
            "print(repr(probe_max_abs(sp.diff(PROFILE ** 2, T_SYMBOL) "
            "* X_SYMBOLS[0], 1)))")
    out = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out.append(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True, timeout=120).stdout)
    assert out[0] == out[1] and 0 < float(out[0]) < math.inf


def test_import_and_sample_load_no_scipy():
    # scipy serves only the subordination check, the numpy module object
    # keeps lambdify off `from numpy import *`, and the gauge reduction
    # builds its quadrature nodes without scipy
    code = ("import sys\nimport numpy as np\nimport ucont\n"
            "from ucont.expressions import parse_expression, sample\n"
            "sample(parse_expression('1 + 0.06*exp(-x1^2/4)'),\n"
            "       (np.linspace(-1.0, 1.0, 5),))\n"
            "print(sorted(m for m in ('scipy', 'numpy.f2py', "
            "'numpy.polynomial') if m in sys.modules))\n"
            "from ucont.coefficients import TransversalField, gauge_reduce, "
            "verify_gauge_transport\n"
            "gr = gauge_reduce(TransversalField(1, parse_expression("
            "'1 + 0.5*exp(-x1^2)'), ()), (-10.0, 10.0))\n"
            "verify_gauge_transport(gr, n_tests=1)\n"
            "print(sorted(m for m in ('scipy', 'numpy.f2py') "
            "if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.split() == ["[]", "[]"]
