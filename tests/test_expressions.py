import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ucont.expressions import (T_SYMBOL, X_SYMBOLS, ExpressionError,
                               parse_expression, sample)
from ucont.grids import Grid, SpaceTimeGrid


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


def test_non_integer_exponent_rejected():
    with pytest.raises(ExpressionError, match="integer"):
        parse_expression("x1^1.5")


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


def test_stand_in_same_in_every_process():
    code = ("import sympy as sp; from ucont.expressions import T_SYMBOL, "
            "with_stand_ins; print(with_stand_ins(sp.Function('vp')(T_SYMBOL)))")
    out = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out.append(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True, timeout=120).stdout)
    assert out[0] == out[1] and "sin" in out[0]


def test_import_and_sample_load_no_scipy():
    # scipy serves only the gauge reduction and the subordination check, and
    # the numpy module object keeps lambdify off `from numpy import *`
    code = ("import sys\nimport numpy as np\nimport ucont\n"
            "from ucont.expressions import parse_expression, sample\n"
            "sample(parse_expression('1 + 0.06*exp(-x1^2/4)'),\n"
            "       (np.linspace(-1.0, 1.0, 5),))\n"
            "print(sorted(m for m in ('scipy', 'numpy.f2py') "
            "if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.strip() == "[]"
