import itertools
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ucont.carleman import CutoffSpec
from ucont.coefficients import CoefficientField, SamplingBox, TransversalField
from ucont.expressions import T_SYMBOL, X_SYMBOLS, SamplingError, \
    coeff_is_zero, const, parse_expression, sample
from ucont.grids import Grid, SpaceTimeGrid, band_limited_noise, l2_inner, \
    l2_norm_sq
from ucont.operators import (PROFILE, ConjugatedGridOps, DiffOperator,
                             OrderOverflowError, WeightSpec, commutator,
                             conjugate_decompose, conjugated_operator,
                             remainder_grouping_report, t_decomposition_terms,
                             verify_T_decomposition)

pe = parse_expression
BETA = sp.Symbol("beta", positive=True)
RSYM = sp.Symbol("R", positive=True)


def operators_equal(p: DiffOperator, q: DiffOperator) -> bool:
    return all(coeff_is_zero(c) for c in (p - q).terms.values())


def full_sym_field():
    return CoefficientField(
        2, ((pe("1 + 0.2*sin(x1)"), pe("0.1*x1*x2")),
            (pe("0.1*x1*x2"), pe("2 + 0.2*cos(x2)"))))


# ---------------------------------------------------------------------------
# the split and its direct-conjugation oracle
# ---------------------------------------------------------------------------

def test_split_specialization_identity_quadratic():
    # A = I_n, phi = beta|x|^2: S = i dt + Lap + 4 beta^2 |x|^2,
    # antisymmetric part = -4 beta x.grad - 2 beta n
    n = 2
    s_op, a_op = conjugate_decompose(CoefficientField.identity(n),
                                     WeightSpec("quadratic", BETA))
    x1, x2 = X_SYMBOLS[:2]
    s_expect = DiffOperator.build(2, {
        (1, (0, 0)): sp.I, (0, (2, 0)): 1, (0, (0, 2)): 1,
        (0, (0, 0)): 4 * BETA ** 2 * (x1 ** 2 + x2 ** 2)})
    a_expect = DiffOperator.build(2, {
        (0, (1, 0)): -4 * BETA * x1, (0, (0, 1)): -4 * BETA * x2,
        (0, (0, 0)): -2 * BETA * n})
    assert operators_equal(s_op, s_expect)
    assert operators_equal(a_op, a_expect)


def test_zero_weight_gives_trivial_split():
    fld = full_sym_field()
    s_op, a_op = conjugate_decompose(fld, WeightSpec("quadratic", 0.0))
    assert a_op.terms == {}
    direct = conjugated_operator(fld, WeightSpec("quadratic", 0.0))
    assert operators_equal(s_op, direct)


@pytest.mark.parametrize("variant,kwargs", [
    ("quadratic", {}),
    ("power", {"alpha": sp.Rational(3, 2)}),
    ("translated", {"R": RSYM}),
])
def test_split_equals_direct_conjugation(variant, kwargs):
    fld = full_sym_field()
    w = WeightSpec(variant, BETA, **kwargs)
    s_op, a_op = conjugate_decompose(fld, w)
    assert operators_equal(s_op + a_op, conjugated_operator(fld, w))


@lru_cache(maxsize=None)
def _decimal_field_split():
    """S + A and the direct conjugation for a field written with a decimal."""
    fld = CoefficientField(1, ((pe("1 + 0.1/(1+x1^2)"),),))
    w = WeightSpec("quadratic", BETA)
    s_op, a_op = conjugate_decompose(fld, w)
    return s_op + a_op, conjugated_operator(fld, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(-15, -4), st.integers(0, 3))
def test_operators_equal_is_exact(digit, exponent, k):
    # a decimal perturbation eps x1^k of the zero-order term, eps in
    # [1e-15, 9e-4], is nonzero however small
    split, direct = _decimal_field_split()
    assert operators_equal(split, direct)
    eps = pe(f"{digit}e{exponent}")
    bump = DiffOperator.build(1, {(0, (0,)): eps * X_SYMBOLS[0] ** k})
    assert not operators_equal(split + bump, direct)


@pytest.mark.parametrize("kwargs", [
    {"variant": "power", "beta": BETA, "alpha": sp.Rational(1, 2)},
    {"variant": "quadratic", "beta": sp.Integer(-1)},
    {"variant": "translated", "beta": BETA, "R": sp.Rational(1, 2)},
])
def test_weight_range_checks_take_exact_numbers(kwargs):
    with pytest.raises(ValueError):
        WeightSpec(**kwargs)


# ---------------------------------------------------------------------------
# commutator algebra
# ---------------------------------------------------------------------------

def test_commutator_identity_quadratic_exact():
    # [S, A] = -8 beta Lap + 32 beta^3 |x|^2 exactly
    n = 2
    s_op, a_op = conjugate_decompose(CoefficientField.identity(n),
                                     WeightSpec("quadratic", BETA))
    comm = commutator(s_op, a_op, max_spatial_order=2)
    x1, x2 = X_SYMBOLS[:2]
    expect = DiffOperator.build(2, {
        (0, (2, 0)): -8 * BETA, (0, (0, 2)): -8 * BETA,
        (0, (0, 0)): 32 * BETA ** 3 * (x1 ** 2 + x2 ** 2)})
    assert comm.terms.keys() == expect.terms.keys()
    for key in comm.terms:
        assert sp.expand(comm.terms[key] - expect.terms[key]) == 0


def test_commutator_monomial_application_oracle():
    # apply S A - A S to monomial x gaussian functions and compare against
    # the closed-form operator, coefficient by coefficient
    beta = sp.Rational(2, 7)
    s_op, a_op = conjugate_decompose(CoefficientField.identity(1),
                                     WeightSpec("quadratic", beta))
    comm = commutator(s_op, a_op, max_spatial_order=2)
    x = X_SYMBOLS[0]
    target = DiffOperator.build(1, {(0, (2,)): -8 * beta,
                                    (0, (0,)): 32 * beta ** 3 * x ** 2})
    for k in range(4):
        probe = x ** k * sp.exp(-x ** 2)
        direct = sp.expand(s_op.apply_symbolic(a_op.apply_symbolic(probe))
                           - a_op.apply_symbolic(s_op.apply_symbolic(probe)))
        assert sp.simplify(direct - target.apply_symbolic(probe)) == 0


def test_commutator_zero_operand():
    s_op, a_op = conjugate_decompose(full_sym_field(),
                                     WeightSpec("quadratic", BETA))
    zero = DiffOperator(2, {})
    assert commutator(s_op, zero).terms == {}


def test_commutator_antisymmetry_and_bilinearity():
    s_op, a_op = conjugate_decompose(full_sym_field(),
                                     WeightSpec("quadratic", BETA))
    lhs = commutator(s_op, a_op)
    rhs = DiffOperator(2, {}) - commutator(a_op, s_op)
    assert operators_equal(lhs, rhs)
    both = commutator(s_op + s_op, a_op)
    assert operators_equal(both, lhs + lhs)


def assert_commutator_is_product_difference(p, q, comm):
    """``comm`` has the key set of p q - q p expanded from the full
    products, with equal coefficients; returns that difference."""
    full = p.compose(q) - q.compose(p)
    assert comm.terms.keys() == full.terms.keys()
    assert all(coeff_is_zero(comm.terms[k] - full.terms[k]) for k in full.terms)
    return full


def test_order_collapse_for_conjugate_pairs():
    for fld, w in [(full_sym_field(), WeightSpec("quadratic", BETA)),
                   (CoefficientField.identity(3),
                    WeightSpec("translated", BETA, R=RSYM))]:
        s_op, a_op = conjugate_decompose(fld, w)
        comm = commutator(s_op, a_op, max_spatial_order=2)
        full = assert_commutator_is_product_difference(s_op, a_op, comm)
        # the order-3 and order-4 products of S A and A S cancel
        assert max((sum(al) for (_, al), c in full.terms.items()
                    if not coeff_is_zero(c)), default=0) <= 2


@st.composite
def small_operators(draw, dim):
    """Up to three terms of time order <= 1 and spatial order <= 2 whose
    coefficients are polynomials and exponentials in t and x."""
    x1, x2, t = X_SYMBOLS[0], X_SYMBOLS[dim - 1], T_SYMBOL
    coefficients = st.sampled_from([
        sp.Integer(1), sp.Integer(-3), x1, x2 ** 2, x1 * x2, t * x1, t ** 2,
        sp.exp(-x1 ** 2), sp.exp(t) * x2, sp.Rational(1, 2) + sp.exp(-x1 * x2)])
    keys = st.tuples(st.integers(0, 1), st.tuples(
        *[st.integers(0, 2)] * dim).filter(lambda al: sum(al) <= 2))
    return DiffOperator.build(dim, draw(st.dictionaries(keys, coefficients,
                                                        max_size=3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda dim: st.tuples(small_operators(dim), small_operators(dim))))
def test_commutator_matches_full_products(pq):
    p, q = pq
    assert_commutator_is_product_difference(p, q, commutator(p, q))


def test_order_overflow_raises_only_when_bounded():
    # [x1 dx1^2, dx1^2] = -2 dx1^3
    x1 = X_SYMBOLS[0]
    p = DiffOperator.build(1, {(0, (2,)): x1})
    q = DiffOperator.build(1, {(0, (2,)): sp.Integer(1)})
    with pytest.raises(OrderOverflowError, match="spatial order > 2"):
        commutator(p, q, max_spatial_order=2)
    assert commutator(p, q).terms == {(0, (3,)): -2}


def test_order_bound_drops_vanishing_high_order_terms():
    # (x1 + 1)/(x1 + 1) dx1^2 commutes with dx1^2, but its dx1^3 coefficient
    # is an unsimplified zero that the bounded commutator drops
    x1 = X_SYMBOLS[0]
    p = DiffOperator.build(1, {(0, (2,)): x1 / (x1 + 1) + 1 / (x1 + 1)})
    q = DiffOperator.build(1, {(0, (2,)): sp.Integer(1)})
    full = commutator(p, q)
    assert full.spatial_order() == 3
    bounded = commutator(p, q, max_spatial_order=2)
    assert bounded.terms == {k: c for k, c in full.terms.items() if k != (0, (3,))}
    assert all(coeff_is_zero(c) for c in full.terms.values())


def test_order_bound_drops_trigonometric_zeros():
    # the coefficient 1 + sin(2 x1) - 2 sin(x1) cos(x1) is the constant 1,
    # so the bounded commutator's dx1^3 term is a trigonometric zero
    p = DiffOperator.build(1, {(0, (2,)): pe("sin(2*x1) - 2*sin(x1)*cos(x1) + 1")})
    q = DiffOperator.build(1, {(0, (2,)): sp.Integer(1)})
    bounded = commutator(p, q, max_spatial_order=2)
    assert bounded.spatial_order() <= 2
    assert all(coeff_is_zero(c) for c in bounded.terms.values())


# ---------------------------------------------------------------------------
# T-decomposition
# ---------------------------------------------------------------------------

def test_t_decomposition_identity_quadratic_zero_residuals():
    rep = verify_T_decomposition(CoefficientField.identity(2),
                                 WeightSpec("quadratic", BETA))
    assert rep.identically_zero
    assert all(v == 0.0 for v in rep.residual_max.values())


def test_t_decomposition_calls_no_simplify(monkeypatch):
    # criterion 01's decimal field: every residual is decided exactly
    calls = []
    simplify = sp.simplify

    def counting(expr, *args, **kwargs):
        calls.append(expr)
        return simplify(expr, *args, **kwargs)
    monkeypatch.setattr(sp, "simplify", counting)
    fld = CoefficientField(1, ((pe("1 + 0.1/(1+x1^2)"),),))
    rep = verify_T_decomposition(fld, WeightSpec("quadratic", BETA))
    assert rep.identically_zero
    assert calls == []


@pytest.mark.parametrize("w", [WeightSpec("quadratic", 1.0),
                               WeightSpec("translated", 1.0, R=2.0),
                               WeightSpec("scaled-time", 0.5, R=1.5)])
def test_t_decomposition_is_exact_for_float_parameters(w):
    # a Float beta or R would leave roundoff in the exact zero test; the
    # check reads a number as the rational of its decimal text, as the
    # same weight with rational parameters shows
    fld = CoefficientField(2, ((pe("1 + 0.2*sin(x1)"), pe("0.1*x1*x2")),
                               (pe("0.1*x1*x2"), pe("2 + 0.2*cos(x2)"))))
    rep = verify_T_decomposition(fld, w)
    assert rep.identically_zero
    assert all(v == 0.0 for v in rep.residual_max.values())
    exact = WeightSpec(w.variant, sp.Rational(str(w.beta)),
                       R=sp.Rational(str(w.R)))
    assert w.phi(2) != exact.phi(2)
    assert verify_T_decomposition(fld, exact).residual_exprs \
        == rep.residual_exprs


def test_t_first_order_reduction_constant_diagonal_scaled_time():
    # constant-coefficient gradient terms vanish; with the radial-in-x
    # profile-shifted weight the first-order piece collapses to the two
    # principal families (both zero here since the weight has no t-x cross
    # derivative and no third derivatives)
    fld = CoefficientField.diagonal((const(2), const(3)))
    w = WeightSpec("scaled-time", BETA, R=RSYM)
    parts = t_decomposition_terms(fld, w)
    assert all(coeff_is_zero(c) for c in parts["order1"].terms.values())
    rep = verify_T_decomposition(fld, w)
    assert rep.identically_zero


def test_translated_first_order_coefficient_block_field():
    # under the block assumption the dx1 coefficient of [S,A] is exactly
    # -8i (beta/R) profile'(t) a11
    tf = TransversalField(2, const(2), ((pe("1 + 0.1/(1+x2^2)"),),))
    w = WeightSpec("translated", BETA, R=RSYM)
    s_op, a_op = conjugate_decompose(tf, w)
    comm = commutator(s_op, a_op, max_spatial_order=2)
    vp = sp.Function("vp")(T_SYMBOL)
    expect = -8 * sp.I * (BETA / RSYM) * sp.diff(vp, T_SYMBOL) * 2
    got = comm.terms[(0, (1, 0))]
    assert sp.simplify(sp.expand(got - expect)) == 0


def test_transversal_index_cancellation_quadratic():
    # every summand a_kj (d_k a_ml) x_l with an index equal to 1 vanishes:
    # the order-2 gradient families must involve only the x'-block
    tf = TransversalField(2, const(2), ((pe("1 + 0.1*exp(-x2^2)"),),))
    parts = t_decomposition_terms(tf, WeightSpec("quadratic", BETA))
    t2 = parts["order2"]
    # coefficient of d^2/dx1^2 must be constant in x (no gradient residue)
    c11 = t2.terms[(0, (2, 0))]
    assert sp.diff(c11, X_SYMBOLS[0]) == 0 and sp.diff(c11, X_SYMBOLS[1]) == 0
    rep = verify_T_decomposition(tf, WeightSpec("quadratic", BETA))
    assert rep.identically_zero


def test_transversal_field_is_one_coefficient_field():
    # the block field is realized once: the grid split samples the same
    # arrays from it as from its plain copy
    tf = TransversalField(2, const(1), ((pe("1 + 0.06*exp(-x2^2/4)"),),),
                          pe("sin(x1)"))
    plain = tf.to_field()
    assert isinstance(tf, CoefficientField) and type(plain) is CoefficientField
    assert plain.entries == tf.entries and plain.potential == tf.potential
    stg = SpaceTimeGrid(16, Grid((8.0, 4.0), (64, 16)))
    cut = CutoffSpec(r0=1.0, R=1.5, space_width=1.0)
    prof = (cut.profile_values(stg.times), cut.profile_slope(stg.times))
    ops = [ConjugatedGridOps.build(f, WeightSpec("translated", 1, R=1.5), stg,
                                   profile=prof) for f in (tf, plain)]
    arrays = [[*itertools.chain(*o.a_entries), *o.grad_phi, o.dt_phi,
               o.zero_order] for o in ops]
    assert all(np.array_equal(a, b) for a, b in zip(*arrays))


def test_remainder_grouping_containment_finite():
    fld = full_sym_field()
    out = remainder_grouping_report(fld, WeightSpec("quadratic", 1.0),
                                    SamplingBox.cube(2, 3.0, 7))
    assert np.isfinite(out["order1_containment_C"])
    assert out["order1_containment_C"] >= 0.0


@pytest.mark.parametrize("w", [WeightSpec("power", 1.0, alpha=2),
                               WeightSpec("translated", 1.0, R=2.0)],
                         ids=["power", "translated"])
def test_remainder_grouping_report_takes_off_the_principal_families(w):
    # the two principal first-order families, written out here, taken off
    # the graded order1 piece: the report must measure this remainder
    # against the majorant |D^2 phi||DA| + |D phi||DA|^2 + |D phi||D^2 A|
    fld, n = full_sym_field(), 2
    xs, phi = X_SYMBOLS[:n], w.phi(n)
    a = [[fld.entry(k, j) for j in range(n)] for k in range(n)]
    order1 = t_decomposition_terms(fld, w)["order1"]
    remainder = []
    for m in range(n):
        principal = sum(-4 * sp.I * a[m][l] * sp.diff(phi, T_SYMBOL, xs[l])
                        for l in range(n))
        principal += sum(-4 * a[k][j] * a[m][l] * sp.diff(phi, xs[k], xs[j], xs[l])
                         for k in range(n) for j in range(n) for l in range(n))
        key = (0, tuple(int(i == m) for i in range(n)))
        remainder.append(order1.terms.get(key, sp.Integer(0)) - principal)

    box = SamplingBox.cube(n, 3.0, 6)       # an even count leaves out x = 0
    coords = box.lattice()
    shape = (9, coords[0].size)
    mesh = (np.linspace(0.0, 1.0, 9)[:, None], *(c[None] for c in coords))

    # the report's probes take vp(t) at sin(4t/3 + 1/7) + 4
    stand_in = {PROFILE: sp.sin(sp.Rational(4, 3) * T_SYMBOL + sp.Rational(1, 7)) + 4}

    def norm(exprs):
        return np.sqrt(sum(np.abs(np.broadcast_to(sample(
            e.xreplace(stand_in).doit(), mesh, (T_SYMBOL, *xs)), shape)) ** 2
            for e in exprs))
    entries = [e for row in a for e in row]
    g1 = norm([sp.diff(phi, x) for x in xs])
    g2 = norm([sp.diff(phi, x, y) for x in xs for y in xs])
    a1 = norm([sp.diff(e, x) for e in entries for x in xs])
    a2 = norm([sp.diff(e, x, y) for e in entries
               for x, y in itertools.combinations_with_replacement(xs, 2)])
    rem = norm(remainder)
    majorant = g2 * a1 + g1 * a1 ** 2 + g1 * a2
    assert np.min(majorant) > 0 and np.max(rem) > 0

    out = remainder_grouping_report(fld, w, box)
    assert out["remainder_sup"] == pytest.approx(float(np.max(rem)), rel=1e-9)
    assert out["majorant_sup"] == pytest.approx(float(np.max(majorant)), rel=1e-9)
    assert out["order1_containment_C"] == pytest.approx(
        float(np.max(rem / majorant)), rel=1e-9)


def test_order1_containment_constant_is_scale_free():
    # every first-order remainder term and every majorant term is linear in
    # phi, so C does not depend on beta, nor on R for the scaled-time weight
    # (the translated weight moves its centre with R, so it is left out)
    fld = CoefficientField(
        2, ((pe("1 + 0.1*exp(-x1^2)"), pe("0.05*x1*x2")),
            (pe("0.05*x1*x2"), pe("1 + 0.1*exp(-x2^2)"))))
    box = SamplingBox.cube(2, 4.0, 9)

    def c(w):
        return remainder_grouping_report(fld, w, box)["order1_containment_C"]
    for weights in ([WeightSpec("quadratic", b) for b in (1.0, 7.0)],
                    [WeightSpec("scaled-time", b, R=r)
                     for b in (1.0, 7.0) for r in (2.0, 3.0)]):
        values = [c(w) for w in weights]
        assert np.isfinite(values[0]) and values[0] > 0
        assert values == pytest.approx([values[0]] * len(values), rel=1e-12)


def test_symbolic_builders_take_each_partial_once(monkeypatch):
    calls = []
    diff = sp.diff

    def counting(expr, *args, **kwargs):
        calls.append((expr, args))
        return diff(expr, *args, **kwargs)
    monkeypatch.setattr(sp, "diff", counting)
    fld, w = full_sym_field(), WeightSpec("translated", 1.0, R=2.0)
    s_op, a_op = conjugate_decompose(fld, w)
    x1, x2 = X_SYMBOLS[:2]
    probe = x1 * x2 * sp.exp(sp.I * T_SYMBOL - x1 ** 2 - x2 ** 2)
    for build in (lambda: conjugate_decompose(fld, w),
                  lambda: t_decomposition_terms(fld, w),
                  lambda: remainder_grouping_report(
                      fld, w, SamplingBox.cube(2, 3.0, 6)),
                  lambda: commutator(s_op, a_op),
                  lambda: verify_T_decomposition(fld, w),
                  lambda: s_op.apply_symbolic(probe)):
        calls.clear()
        build()
        assert calls and len(set(calls)) == len(calls)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def test_apply_identity_operator():
    op = DiffOperator.build(1, {(0, (0,)): sp.Integer(1)})
    f = sp.exp(-X_SYMBOLS[0] ** 2)
    assert sp.simplify(op.apply_symbolic(f) - f) == 0


def test_apply_laplacian_gaussian_origin():
    op = DiffOperator.build(1, {(0, (2,)): sp.Integer(1)})
    val = op.apply_symbolic(sp.exp(-X_SYMBOLS[0] ** 2)).subs(X_SYMBOLS[0], 0)
    assert val == -2


def test_apply_time_derivative_phase():
    op = DiffOperator.build(1, {(1, (0,)): sp.I})
    out = op.apply_symbolic(sp.exp(sp.I * T_SYMBOL))
    assert sp.simplify(out + sp.exp(sp.I * T_SYMBOL)) == 0


def test_operator_text_form_golden():
    s_op, a_op = conjugate_decompose(CoefficientField.identity(1),
                                     WeightSpec("quadratic", BETA))
    comm = commutator(s_op, a_op, max_spatial_order=2)
    assert comm.terms == {(0, (0,)): 32 * BETA ** 3 * X_SYMBOLS[0] ** 2,
                          (0, (2,)): -8 * BETA}


# ---------------------------------------------------------------------------
# discrete adjoint structure and reconstruction
# ---------------------------------------------------------------------------

def _random_field(st, seed, k_cut=6.0):
    rng = np.random.default_rng(seed)
    noise = band_limited_noise(st.space, rng, k_cut)
    tt = st.times
    win = np.exp(-((tt - 0.5) / 0.18) ** 2)
    env = np.exp(-st.space.radius_sq / 2.0)
    return (win.reshape((st.nt,) + (1,) * st.space.dim)
            * (noise * env)[None]).astype(complex)


def test_discrete_symmetry_antisymmetry():
    st = SpaceTimeGrid(32, Grid((8.0,), (128,)))
    fld = CoefficientField(1, ((pe("1 + 0.3*exp(-x1^2/2)"),),))
    ops = ConjugatedGridOps.build(fld, WeightSpec("quadratic", 0.2), st)
    for seed in range(5):
        f = _random_field(st, seed)
        g = _random_field(st, seed + 50)
        sf, sg = ops.apply_S(f), ops.apply_S(g)
        af, ag = ops.apply_A(f), ops.apply_A(g)
        dt = st.dt
        sym = abs(l2_inner(sf, g, st.space) - l2_inner(f, sg, st.space)) * dt
        anti = abs(l2_inner(af, g, st.space) + l2_inner(f, ag, st.space)) * dt
        scale = np.sqrt(l2_norm_sq(f, st.space) * l2_norm_sq(g, st.space)) * dt
        assert sym < 1e-9 * scale
        assert anti < 1e-9 * scale


_DIAGONALS = ("1 + 0.3*exp(-x1^2/2)", "1 + 0.2*cos(x2)", "2 + 0.1*sin(x3)")


@settings(max_examples=8, deadline=None)
@given(dim=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 16),
       beta=st.floats(0.05, 2.0), translated=st.booleans())
def test_discrete_adjoint_identities_2d_3d(dim, seed, beta, translated):
    # <Sf, g> = <f, Sg> and <Af, g> = -<f, Ag> to roundoff on a variable
    # diagonal field, for the quadratic and the x1-translated weight
    stg = SpaceTimeGrid(16, Grid((4.0,) * dim, (32 if dim == 2 else 16,) * dim))
    fld = CoefficientField.diagonal(tuple(pe(e) for e in _DIAGONALS[:dim]))
    cut = CutoffSpec(R=2)
    w = WeightSpec("translated", beta, R=2) if translated \
        else WeightSpec("quadratic", beta)
    ops = ConjugatedGridOps.build(
        fld, w, stg, profile=(cut.profile_values(stg.times),
                              cut.profile_slope(stg.times)))
    f, g = _random_field(stg, seed), _random_field(stg, seed + 1)

    def inner(u, v):
        return l2_inner(u, v, stg.space) * stg.dt

    def norm(u):
        return np.sqrt(l2_norm_sq(u, stg.space) * stg.dt)
    for apply, sign in ((ops.apply_S, -1), (ops.apply_A, 1)):
        pf, pg = apply(f), apply(g)
        scale = norm(pf) * norm(g) + norm(f) * norm(pg)
        assert abs(inner(pf, g) + sign * inner(f, pg)) < 1e-9 * scale


def test_time_dependent_split_needs_profile_samples():
    # no stand-in profile reaches the grid: a scaled-time or translated
    # weight built without the profile's samples is an error
    stg = SpaceTimeGrid(16, Grid((8.0,), (64,)))
    fld = CoefficientField.identity(1)
    for variant in ("scaled-time", "translated"):
        with pytest.raises(SamplingError, match="profile samples"):
            ConjugatedGridOps.build(fld, WeightSpec(variant, 1, R=2.0), stg)


_SPLIT_FIELDS = {
    "1d": (CoefficientField.identity(1), SpaceTimeGrid(16, Grid((8.0,), (64,)))),
    "2d-block": (TransversalField(2, const(1), ((pe("1 + 0.06*exp(-x2^2/4)"),),)),
                 SpaceTimeGrid(16, Grid((8.0, 4.0), (32, 16))))}


def _unit_split(fld, stg, variant, R, beta=1):
    cut = CutoffSpec(R=R)
    return ConjugatedGridOps.build(
        fld, WeightSpec(variant, beta, R=R), stg,
        profile=(cut.profile_values(stg.times), cut.profile_slope(stg.times)))


@pytest.mark.parametrize("variant", ["scaled-time", "translated"])
@pytest.mark.parametrize("name", list(_SPLIT_FIELDS))
def test_split_is_derived_and_compiled_once_per_field(name, variant):
    # beta and R are sample arguments: after the first build, builds at new
    # beta and R take no derivative and compile nothing
    from ucont import expressions, operators
    fld, stg = _SPLIT_FIELDS[name]
    operators._grid_split.cache_clear()
    expressions._lambdify.cache_clear()
    _unit_split(fld, stg, variant, 1.0)
    misses = (operators._grid_split.cache_info().misses,
              expressions._lambdify.cache_info().misses)
    for R, beta in ((1.1, 1), (2.8, 4.0), (2.0, 0.5), (7.0, 40)):
        _unit_split(fld, stg, variant, R, beta)
    assert (operators._grid_split.cache_info().misses,
            expressions._lambdify.cache_info().misses) == misses


@pytest.mark.parametrize("R", [1.1, 1.5, 2.8, 2.0])
@pytest.mark.parametrize("variant", ["scaled-time", "translated"])
@pytest.mark.parametrize("name", list(_SPLIT_FIELDS))
def test_split_weights_are_exact_float64(name, variant, R):
    # grad phi and dt phi are the float64 closed forms to 1 ulp, and at a
    # dyadic R bit for bit
    fld, stg = _SPLIT_FIELDS[name]
    ops = _unit_split(fld, stg, variant, R)
    cut = CutoffSpec(R=R)
    vp = cut.profile_values(stg.times).reshape(-1, *(1,) * fld.dim)
    dvp = cut.profile_slope(stg.times).reshape(vp.shape)
    xs = stg.space.meshes
    grad = [2 * x[None] / R ** 2 for x in xs]
    dt = dvp
    if variant == "translated":
        shifted = xs[0][None] / R + vp
        grad[0], dt = 2 * shifted / R, 2 * shifted * dvp
    shape = np.broadcast_shapes(vp.shape, xs[0][None].shape)
    for got, want in zip((*ops.grad_phi, ops.dt_phi), (*grad, dt)):
        got, want = np.broadcast_to(got, shape), np.broadcast_to(want, shape)
        if R == 2.0:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_array_max_ulp(got, want, maxulp=1)


def test_split_with_a_symbolic_beta_names_it():
    fld, stg = _SPLIT_FIELDS["1d"]
    with pytest.raises(SamplingError, match=r"\['beta'\]"):
        _unit_split(fld, stg, "translated", 1.5, BETA)


def test_reconstruction_against_direct_conjugation():
    # apply(S,f) + apply(A,f) == e^phi (i dt + L)(e^{-phi} f), 100 fields;
    # the direct route multiplies by e^{+phi} at the end, so it needs the
    # intermediate spectrally clean: use a well-resolved grid and moderate beta.
    st = SpaceTimeGrid(32, Grid((8.0,), (256,)))
    fld = CoefficientField(1, ((pe("1 + 0.3*exp(-x1^2/2)"),),))
    beta = 0.1
    ops = ConjugatedGridOps.build(fld, WeightSpec("quadratic", beta), st)
    x = st.space.meshes[0]
    phi = beta * x ** 2
    a_vals = 1 + 0.3 * np.exp(-x ** 2 / 2)
    from ucont.grids import spectral_derivative
    for seed in range(100):
        f = _random_field(st, seed)
        inner = np.exp(-phi)[None] * f
        df = spectral_derivative(inner, st.space, 0, 1, time_offset=1)
        lf = spectral_derivative(a_vals[None] * df, st.space, 0, 1,
                                 time_offset=1)
        lf = lf + 1j * st.time_derivative(inner)
        direct = np.exp(phi)[None] * lf
        ours = ops.apply_S(f) + ops.apply_A(f)
        num = np.sqrt(l2_norm_sq(ours - direct, st.space))
        den = np.sqrt(l2_norm_sq(direct, st.space))
        assert num < 1e-8 * den
