import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ucont import coefficients, experiments
from ucont.carleman import _require_block
from ucont.coefficients import (CoefficientField, EllipticityError, GaugeError,
                                SamplingBox, TransversalField, decay_smallness,
                                ellipticity_bounds, gauge_reduce,
                                transversal_smallness, verify_gauge_transport)
from ucont.expressions import SamplingError, const, parse_expression

pe = parse_expression


def test_ellipticity_identity():
    lam, Lam = ellipticity_bounds(CoefficientField.identity(2),
                                  SamplingBox.cube(2, 3.0, 9))
    assert (lam, Lam) == (pytest.approx(1.0), pytest.approx(1.0))


def test_ellipticity_constant_diagonal():
    fld = CoefficientField.diagonal((const(2), const(3)))
    lam, Lam = ellipticity_bounds(fld, SamplingBox.cube(2, 3.0, 9))
    assert (lam, Lam) == (pytest.approx(2.0), pytest.approx(3.0))


def test_ellipticity_dense_eigen_oracle():
    # A(x) = I2 + 0.2 sin(x1) e1 x e1 on [-pi, pi]^2: eigenvalues are
    # 1 + 0.2 sin(x1) and 1, so the 64^2 brute-force extremes are (0.8, 1.2)
    fld = CoefficientField(
        2, ((pe("1 + 0.2*sin(x1)"), const(0)), (const(0), const(1))))
    box = SamplingBox((-math.pi,) * 2, (math.pi,) * 2, (64, 64))
    lam, Lam = ellipticity_bounds(fld, box)
    coords = box.lattice()
    mats = fld.matrix_at(coords)
    eigs = np.linalg.eigvalsh(mats)
    assert lam == pytest.approx(float(eigs.min()))
    assert Lam == pytest.approx(float(eigs.max()))
    assert lam == pytest.approx(0.8, abs=1e-3)
    assert Lam == pytest.approx(1.2, abs=1e-3)


def test_ellipticity_rejects_nonpositive():
    fld = CoefficientField(1, ((pe("x1"),),))
    with pytest.raises(EllipticityError, match="non-positive-definite"):
        ellipticity_bounds(fld, SamplingBox.cube(1, 2.0, 33))


def test_rayleigh_quotient_bracketed():
    fld = CoefficientField(
        2, ((pe("1 + 0.2*sin(x1)"), pe("0.1*cos(x2)")),
            (pe("0.1*cos(x2)"), pe("2 + 0.1*sin(x2)"))))
    box = SamplingBox.cube(2, 3.0, 17)
    lam, Lam = ellipticity_bounds(fld, box)
    rng = np.random.default_rng(0)
    coords = box.lattice()
    mats = fld.matrix_at(coords)
    idx = rng.integers(0, coords[0].size, size=1000)
    xi = rng.standard_normal((1000, 2))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    quot = np.einsum("ni,nij,nj->n", xi, mats[idx], xi)
    assert np.all(quot >= lam - 1e-12)
    assert np.all(quot <= Lam + 1e-12)


def test_smallness_constant_zero():
    assert decay_smallness(CoefficientField.identity(2),
                           SamplingBox.cube(2, 4.0, 17)) == 0.0


def test_smallness_rational_calculus_oracle():
    # a(x) = 1 + d/(1+x^2): |x||a'| = 2d x^2/(1+x^2)^2, max d/2 at |x| = 1
    fld = CoefficientField(1, ((pe("1 + 0.1/(1+x1^2)"),),))
    val = decay_smallness(fld, SamplingBox((-6.0,), (6.0,), (4001,)))
    assert val == pytest.approx(0.05, rel=1e-5)


def test_smallness_transversal_uses_prime_metric():
    tf = TransversalField(2, pe("1 + 0.5*exp(-x1^2)"),
                          ((pe("1 + 0.1/(1+x2^2)"),),))
    val = transversal_smallness(tf, SamplingBox.cube(2, 6.0, 201))
    assert val == pytest.approx(0.05, rel=1e-3)   # a11 variation ignored
    assert transversal_smallness(TransversalField(1, pe("1 + 0.5*exp(-x1^2)"), ()),
                                 SamplingBox.cube(1, 6.0, 201)) == 0.0


def test_smallness_is_read_from_the_matrix():
    # a11 = 1, Atilde = 1 + 0.1 exp(-x2^2): both hypotheses' metrics on the
    # field a config builds; an off-block a12 has no transversal metric
    text = _block_config(2, "1", {"a22": "1 + 0.1*exp(-x2^2)"})
    fld = experiments._build_field(experiments.validate(text))
    assert type(fld) is CoefficientField
    box = SamplingBox.cube(2, 6.0, 201)
    assert transversal_smallness(fld, box) == 0.07351743736485779
    assert decay_smallness(fld, box) == 0.5181793517096994
    off_block = CoefficientField(2, ((const(1), const(0.1)),
                                     (const(0.1), const(1))))
    with pytest.raises(ValueError, match="block form"):
        transversal_smallness(off_block, box)


def _block_config(dim: int, a11: str, atilde: dict) -> str:
    """A translated carleman-sweep config of the field diag(a11, Atilde)."""
    entries = "".join(f'{key} = "{text}"\n' for key, text in atilde.items())
    return (f'[experiment]\nkind = carleman-sweep\n[field]\ndimension = {dim}\n'
            f'a11 = "{a11}"\n{entries}[grid]\nextents = {[8.0] * dim}\n'
            f'points = {[16] * dim}\n[params]\nmode = "translated"\n')


def _outcome(check, *args):
    """None when ``check(*args)`` passes, else its ValueError's message."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


_PROFILES = {2: ("exp(-x2^2)", "1/(1+x2^2)", "cos(x2)"),
             3: ("exp(-x2^2-x3^2)", "x2*x3/(1+x2^2+x3^2)", "cos(x2)*sin(x3)")}


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from((2, 3)),
       a11=st.sampled_from(("1", "2.5", "0.5", "1 + 0.2*exp(-x1^2)", "2 + cos(x1)")),
       eps=st.floats(-0.4, 0.4).map(lambda v: round(v, 3)),
       g=st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_block_metrics_do_not_depend_on_the_field_type(dim, a11, eps, g):
    """A block field's smallness metrics, its translated-weight hypothesis
    and its config's validation are read from A(x): a TransversalField, its
    plain copy and the field a config builds give the same answers."""
    prof = _PROFILES[dim]
    texts = {"a22": f"1 + ({eps})*{prof[g[0]]}"}
    if dim == 3:
        texts.update(a33=f"1 + ({eps})*{prof[g[1]]}",
                     a23=f"({eps / 2})*{prof[g[2]]}")
    rows = [[pe(texts["a22"])]] if dim == 2 else \
        [[pe(texts["a22"]), pe(texts["a23"])], [pe(texts["a23"]), pe(texts["a33"])]]
    tf = TransversalField(dim, pe(a11), tuple(tuple(r) for r in rows))
    text = _block_config(dim, a11, texts)
    try:
        experiments.validate(text)
        errors = []
    except experiments.ConfigError as exc:
        errors = exc.errors
    built = experiments._build_field(experiments.ExperimentConfig(
        "carleman-sweep", {"field": {"dimension": dim, "a11": a11, **texts}}))
    box = SamplingBox.cube(dim, 4.0, 9)
    answers = {(decay_smallness(f, box), transversal_smallness(f, box),
                _outcome(_require_block, f)) for f in (tf, tf.to_field(), built)}
    assert len(answers) == 1
    (*_, block_error), = answers
    assert errors == ([] if block_error is None else [f"[field]: {block_error}"])
    assert (block_error is None) == (a11 in ("1", "2.5", "0.5"))


def test_smallness_permutation_invariance():
    f12 = CoefficientField.diagonal((pe("1 + 0.1*exp(-x1^2)"), const(1)))
    f21 = CoefficientField.diagonal((const(1), pe("1 + 0.1*exp(-x2^2)")))
    box = SamplingBox.cube(2, 4.0, 41)
    assert decay_smallness(f12, box) == pytest.approx(
        decay_smallness(f21, box), rel=1e-12)


def test_symmetry_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        CoefficientField(2, ((const(1), const(0.5)), (const(0), const(1))))


def test_transversal_structure_enforced():
    with pytest.raises(ValueError, match="x1 only"):
        TransversalField(2, pe("x2"), ((const(1),),))
    with pytest.raises(ValueError, match="x' only"):
        TransversalField(2, const(1), ((pe("x1"),),))


def test_block_view_is_read_from_the_entries():
    plain = CoefficientField(2, ((pe("1 + 0.5*exp(-x1^2)"), const(0)),
                                 (const(0), pe("2 + cos(x2)"))), pe("sin(x1)"))
    view = TransversalField.of(plain)
    assert isinstance(view, TransversalField)
    assert (view.entries, view.potential) == (plain.entries, plain.potential)
    tf = TransversalField(2, const(1), ((const(1),),))
    assert TransversalField.of(tf) is tf
    off_block = CoefficientField(2, ((const(1), const(0.1)),
                                     (const(0.1), const(1))))
    for fld in (off_block,
                CoefficientField.diagonal((pe("1 + 0.1*x2^2"), const(1))),
                CoefficientField.diagonal((const(1), pe("2 + cos(x1)")))):
        assert TransversalField.of(fld) is None
    with pytest.raises(GaugeError, match="block form"):
        gauge_reduce(off_block, (-8.0, 8.0))


def _nodes(tree: ast.Module):
    """(qualified name of the enclosing definition, node) of each node."""
    def visit(node, qual):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qual = f"{qual}.{node.name}".lstrip(".")
        yield qual, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, qual)
    return visit(tree, "")


def test_block_form_is_decided_in_one_place():
    """TransversalField.of alone decides block form: no code in ucont tests
    a field's type against TransversalField (isinstance, issubclass or a
    type(...) comparison), refers to is_assumption_61, or converts a field
    with to_field()."""
    found = []
    for path in sorted(Path(coefficients.__file__).parent.glob("*.py")):
        for qual, node in _nodes(ast.parse(path.read_text())):
            where = f"{path.name} in {qual or 'the module'}"
            if "is_assumption_61" in (getattr(node, "attr", None),
                                      getattr(node, "name", None),
                                      getattr(node, "id", None)):
                found.append(f"{where}: is_assumption_61")
            if not isinstance(node, (ast.Call, ast.Compare)):
                continue
            func = getattr(node, "func", None)
            if getattr(func, "attr", None) == "to_field":
                found.append(f"{where}: to_field()")
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if "TransversalField" not in names:
                continue
            if getattr(func, "id", None) in ("isinstance", "issubclass"):
                found.append(f"{where}: {func.id}")
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) == "type"
                    for n in ast.walk(node)):
                found.append(f"{where}: type comparison")
    assert not found


# the sp.diff calls outside the derivative engine, each of which a table
# would change: the direct-conjugation oracle of the split, the gauge check's
# ODE side, and gauge_reduce's a11' and a11'' (stepping twice builds another
# a11'' tree, which moves gauge.csv)
_DIFF_SITES = {("expressions.py", "partials.step"),
               ("operators.py", "conjugated_operator"),
               ("coefficients.py", "verify_gauge_transport"),
               ("coefficients.py", "gauge_reduce")}


def test_derivatives_are_taken_in_one_place():
    """expressions.partials is the symbolic layer's one derivative engine:
    no other code in ucont calls sp.diff or an expression's diff method,
    apart from the sites named above."""
    found = []
    for path in sorted(Path(coefficients.__file__).parent.glob("*.py")):
        for qual, call in _nodes(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "diff" \
                    and getattr(call.func.value, "id", None) != "np" \
                    and (path.name, qual) not in _DIFF_SITES:
                found.append(f"{path.name}:{call.lineno} in {qual or 'the module'}")
    assert not found


def _called_name(call: ast.Call) -> str | None:
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def test_expressions_are_compiled_in_one_place():
    """expressions.sample is the one evaluator, and so the one finiteness
    guard, of an expression: sp.lambdify is called only in
    expressions._lambdify, and _lambdify only in expressions.sample."""
    sites = {"lambdify": ("expressions.py", "_lambdify"),
             "_lambdify": ("expressions.py", "sample")}
    found = []
    for path in sorted(Path(coefficients.__file__).parent.glob("*.py")):
        for qual, call in _nodes(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and _called_name(call) in sites \
                    and (path.name, qual) != sites[_called_name(call)]:
                found.append(f"{path.name}:{call.lineno} in {qual or 'the module'}")
    assert not found


@pytest.mark.parametrize("a11", ["1 + 1/x1^2", "2 + sin(x1)/x1"])
def test_ellipticity_rejects_a_field_that_is_not_finite(a11):
    # (1.015625, inf) and (nan, nan) before sample checked its values
    with pytest.raises(SamplingError, match=re.escape(
            f"{pe(a11)} is not finite at x1 = 0")):
        ellipticity_bounds(CoefficientField(1, ((pe(a11),),)),
                           SamplingBox.cube(1, 8.0, 17))


# ---------------------------------------------------------------------------
# gauge reduction
# ---------------------------------------------------------------------------

def test_gauge_identity_case():
    tf = TransversalField(1, const(1), ())
    gr = gauge_reduce(tf, (-8.0, 8.0))
    assert np.allclose(gr.y1_grid, gr.x1_grid, atol=1e-10)
    ys = np.linspace(-5, 5, 7)
    assert np.allclose(gr.psi(ys), 0.0, atol=1e-12)
    assert np.allclose(gr.reduced_potential(ys), 0.0, atol=1e-10)


def test_gauge_constant_rescaling():
    tf = TransversalField(1, const(4), (), pe("sin(x1)"))
    gr = gauge_reduce(tf, (-8.0, 8.0))
    assert np.allclose(gr.y1_grid, gr.x1_grid / 2.0, atol=1e-10)
    ys = np.linspace(-3, 3, 7)
    assert np.allclose(gr.psi(ys), 0.0, atol=1e-12)
    # potential unchanged, only composed with the map
    assert np.allclose(gr.reduced_potential(ys), np.sin(gr.x_of_y(ys)),
                       atol=1e-10)


def test_gauge_transport_oracle():
    tf = TransversalField(1, pe("1 + 0.5*exp(-x1^2)"), (), pe("sin(x1)"))
    gr = gauge_reduce(tf, (-10.0, 10.0))
    assert np.all(np.diff(gr.y1_grid) > 0)
    err = verify_gauge_transport(gr, n_tests=10, seed=2)
    assert err < 1e-6


def _transport_or_guard(a11: str, seed: int) -> float:
    """The transport error on x1_range [-10, 10], or 0 when a guard raises
    GaugeError: the check never passes on a cut test function."""
    try:
        gr = gauge_reduce(TransversalField(1, pe(a11), ()), (-10.0, 10.0))
        return verify_gauge_transport(gr, n_tests=3, seed=seed)
    except GaugeError:
        return 0.0


# fields of wavenumber up to 5; over 60 seeds at eps = -0.5 and 0.5, on
# 2001 and 4001 points, the largest transport error read 1.1e-7, and the
# y-box guard ended 306 of the 1920 runs, most of them atan(x1) ones
@settings(max_examples=20, deadline=None)
@example(g="cos(4*x1)", eps=0.3, seed=0)    # 1.18e-6 by a spline
@given(g=st.sampled_from(["exp(-x1^2)", "cos(x1)", "atan(x1)", "1/(1+x1^2)",
                          "cos(2*x1)", "cos(3*x1)", "cos(4*x1)", "sin(5*x1)"]),
       eps=st.floats(-0.5, 0.5), seed=st.integers(0, 99))
def test_gauge_transport_holds_or_is_guarded(g, eps, seed):
    assert _transport_or_guard(f"1 + ({eps!r})*({g})", seed) < 1e-6


def test_gauge_transport_of_a_faster_field_on_a_coarse_map():
    # a spline through the map's grid values read 1.08e-6 here
    assert _transport_or_guard("1 + 0.5*cos(3*x1)", 5) < 1e-6


def test_gauge_map_matches_an_adaptive_quadrature():
    # y1(x1) is the integral of a11^(-1/2) from 0, so x1(y1) must land where
    # scipy's adaptive quadrature of that integral reads y1
    from scipy.integrate import quad
    tf = TransversalField(1, pe("1 + 0.5*cos(3*x1)"), ())
    gr = gauge_reduce(tf, (-10.0, 10.0))
    ys = np.linspace(-0.9, 0.9, 41) * gr.y1_grid[-1]
    xs = gr.x_of_y(ys)
    arc = [quad(lambda x: (1 + 0.5 * np.cos(3 * x)) ** -0.5, 0.0, x,
                epsabs=1e-13, epsrel=1e-13, limit=200)[0] for x in xs]
    assert np.max(np.abs(np.array(arc) - ys)) < 1e-12


def test_gauge_map_inversion_is_guarded(monkeypatch):
    # one Newton step from the linear interpolant leaves x1(y1) far from
    # roundoff, which must raise rather than return
    monkeypatch.setattr(coefficients, "_NEWTON_STEPS", 1)
    gr = gauge_reduce(TransversalField(1, pe("1 + 0.5*cos(3*x1)"), ()),
                      (-10.0, 10.0))
    with pytest.raises(GaugeError, match="Newton"):
        gr.x_of_y(np.linspace(-5.0, 5.0, 11))


def test_gauge_rejects_vanishing_a11():
    tf = TransversalField(1, pe("exp(-x1^2)"), ())
    with pytest.raises(GaugeError, match="bounded below"):
        gauge_reduce(tf, (-10.0, 10.0))
