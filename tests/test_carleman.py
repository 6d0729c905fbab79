import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ucont import carleman, expressions
from ucont.carleman import (SMOOTHSTEP_D1_MAX, SMOOTHSTEP_D2_MAX, BetaForms,
                            CutoffSpec, FrontierError, SupportError,
                            SweepConfig, beta_threshold_cubic,
                            carleman_sides_cubic, carleman_sides_translated,
                            carleman_sweep, frontier_root, make_test_function,
                            smoothstep5)
from ucont.coefficients import CoefficientField, TransversalField
from ucont.expressions import const, parse_expression
from ucont.grids import Grid, SpaceTimeGrid, l2_norm_sq, spectral_derivative
from ucont.operators import ConjugatedGridOps, WeightSpec

pe = parse_expression


@pytest.fixture(scope="module")
def st_grid():
    return SpaceTimeGrid(64, Grid((8.0,), (512,)))


@pytest.fixture(scope="module")
def st_grid_2d():
    return SpaceTimeGrid(128, Grid((8.0, 4.0), (128, 64)))


def test_smoothstep_derivative_norms():
    u = np.linspace(0, 1, 100001)
    s = smoothstep5(u)
    d1 = np.gradient(s, u)
    d2 = np.gradient(d1, u)
    assert np.max(np.abs(d1)) == pytest.approx(SMOOTHSTEP_D1_MAX, rel=1e-3)
    assert np.max(np.abs(d2)) == pytest.approx(SMOOTHSTEP_D2_MAX, rel=1e-3)


def test_cutoff_profile_shape_and_norms():
    cut = CutoffSpec()
    t = np.linspace(0, 1, 2001)
    prof = cut.profile_values(t)
    assert np.all(prof[(t <= 0.125) | (t >= 0.875)] == 0.0)
    assert np.all(prof[(t >= 0.25) & (t <= 0.75)] == pytest.approx(3.0))
    assert np.all((prof >= 0) & (prof <= 3.0 + 1e-12))
    # explicit derivative sup norms: plateau * smoothstep bounds / width^k
    assert cut.profile_d1_max == pytest.approx(3 * SMOOTHSTEP_D1_MAX / 0.125)
    assert cut.profile_d2_max == pytest.approx(3 * SMOOTHSTEP_D2_MAX / 0.125 ** 2)
    d1 = np.gradient(prof, t)
    assert np.max(np.abs(d1)) <= cut.profile_d1_max * 1.001


def test_make_test_function_deterministic(st_grid):
    cut = CutoffSpec(r0=1.0, R=1.0)
    f1 = make_test_function("annulus", st_grid, cut, 42)
    f2 = make_test_function("annulus", st_grid, cut, 42)
    assert np.array_equal(f1.values, f2.values)
    f3 = make_test_function("annulus", st_grid, cut, 43)
    assert not np.array_equal(f1.values, f3.values)


def test_annulus_support_scan(st_grid):
    cut = CutoffSpec(r0=1.5, R=1.0)
    f = make_test_function("annulus", st_grid, cut, 3)
    rad = np.abs(st_grid.space.meshes[0])
    assert np.all(f.values[:, rad < 1.5] == 0)
    assert np.abs(f.values).max() > 0
    # time support inside (1/8, 7/8)
    tt = st_grid.times
    assert np.all(f.values[(tt < 0.125) | (tt > 0.875)] == 0)


def test_translated_support_scan():
    stg = SpaceTimeGrid(128, Grid((8.0,), (512,)))
    cut = CutoffSpec(r0=1.0, R=1.5)
    f = make_test_function("translated", stg, cut, 5)
    from ucont.carleman import translated_shift
    q = translated_shift(cut, stg)
    assert np.all(f.values[q < 1.0] == 0)
    assert np.abs(f.values).max() > 0


def test_degenerate_inner_radius_rejected(st_grid):
    cut = CutoffSpec(r0=7.6, R=1.0)
    with pytest.raises(SupportError, match="empty admissible region"):
        make_test_function("annulus", st_grid, cut, 1)


def test_transition_resolution_guard():
    st_small = SpaceTimeGrid(32, Grid((8.0,), (64,)))
    with pytest.raises(SupportError, match="cells"):
        make_test_function("annulus", st_small, CutoffSpec(), 1)


def test_zero_field_vacuous_pass(st_grid):
    cut = CutoffSpec(r0=1.0, R=1.0)
    f = make_test_function("annulus", st_grid, cut, 7)
    f.values = np.zeros_like(f.values)
    rep = carleman_sides_cubic(f, CoefficientField.identity(1), 40.0, cut,
                               lam=1.0)
    assert rep.lhs == 0.0 and rep.raw_rhs == pytest.approx(0.0, abs=1e-20)
    assert rep.passed


def test_cubic_inequality_at_threshold_bump(st_grid):
    # pinned by the quadrature oracle runs: generic admissible samples hold
    # the inequality with slack far above 1 at the admissibility threshold
    cut = CutoffSpec(r0=1.0, R=1.0)
    fld = CoefficientField.identity(1)
    beta1 = beta_threshold_cubic(1.0, cut, 1.0)
    assert beta1 == pytest.approx(math.sqrt(cut.profile_d2_max), rel=1e-12)
    for seed in range(5):
        f = make_test_function("annulus", st_grid, cut, seed)
        rep = carleman_sides_cubic(f, fld, beta1, cut, lam=1.0)
        assert rep.admissible
        assert rep.slack >= 1.0 - 1e-6
        assert rep.comm_slack > 1.0


def test_sub_threshold_marked_exploratory(st_grid):
    cut = CutoffSpec(r0=1.0, R=1.0)
    f = make_test_function("annulus", st_grid, cut, 2)
    rep = carleman_sides_cubic(f, CoefficientField.identity(1), 1.0, cut,
                               lam=1.0)
    assert not rep.admissible


def test_slack_homogeneity(st_grid):
    # f -> c f multiplies both sides by c^2 and leaves the slack invariant
    cut = CutoffSpec(r0=1.0, R=1.0)
    fld = CoefficientField.identity(1)
    f = make_test_function("annulus", st_grid, cut, 11)
    rep1 = carleman_sides_cubic(f, fld, 40.0, cut, lam=1.0)
    f.values = 2.0 * f.values
    rep2 = carleman_sides_cubic(f, fld, 40.0, cut, lam=1.0)
    assert rep2.lhs == pytest.approx(4 * rep1.lhs, rel=1e-12)
    assert rep2.raw_rhs == pytest.approx(4 * rep1.raw_rhs, rel=1e-12)
    assert rep2.slack == pytest.approx(rep1.slack, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 10.0))
def test_slack_homogeneity_property(c):
    stg = SpaceTimeGrid(64, Grid((8.0,), (256,)))
    cut = CutoffSpec(r0=1.0, R=1.0)
    fld = CoefficientField.identity(1)
    f = make_test_function("annulus", stg, cut, 4)
    base = carleman_sides_cubic(f, fld, 40.0, cut, lam=1.0).slack
    f.values = c * f.values
    scaled = carleman_sides_cubic(f, fld, 40.0, cut, lam=1.0).slack
    assert scaled == pytest.approx(base, rel=1e-9)


def test_conjugated_evaluation_identity():
    # || (S+A) f || computed by the structured grid operators agrees with the
    # direct conjugation e^{phi}(i dt + L)(e^{-phi} f); verified with a fully
    # smooth profile and field so both routes are spectrally clean (piecewise
    # cutoff profiles cap the common accuracy of either route well above 1e-7)
    from ucont.expressions import T_SYMBOL
    from ucont.grids import spectral_derivative
    import sympy as sp
    from ucont.operators import ConjugatedGridOps, WeightSpec
    stg = SpaceTimeGrid(64, Grid((8.0,), (256,)))
    fld = CoefficientField.identity(1)
    beta = 0.05
    prof_sym = 3 * sp.exp(-((T_SYMBOL - sp.Rational(1, 2)) / sp.Float(0.12)) ** 2)
    w = WeightSpec("scaled-time", beta, R=1.0, profile=prof_sym)
    ops = ConjugatedGridOps.build(fld, w, stg)
    x = stg.space.meshes[0][None]
    tt = stg.times.reshape((-1, 1))
    rng = np.random.default_rng(13)
    from ucont.grids import band_limited_noise
    noise = band_limited_noise(stg.space, rng, 5.0)
    f = (np.exp(-((tt - 0.5) / 0.1) ** 2) * noise[None]
         * np.exp(-x ** 2 / 2)).astype(complex)
    ours = ops.apply_sum(f)
    phi = beta * (x ** 2 + 3 * np.exp(-((tt - 0.5) / 0.12) ** 2))
    inner = np.exp(-phi) * f
    lap = spectral_derivative(inner, stg.space, 0, 2, time_offset=1)
    direct = np.exp(phi) * (1j * stg.time_derivative(inner) + lap)
    num = math.sqrt(l2_norm_sq(ours - direct, stg.space, stg.dt))
    den = math.sqrt(l2_norm_sq(direct, stg.space, stg.dt))
    assert num < 1e-7 * den


def test_translated_requires_block_assumption(st_grid_2d):
    cut = CutoffSpec(r0=1.0, R=1.0, space_width=1.0)
    f = make_test_function("translated", st_grid_2d, cut, 1)
    varying = TransversalField(2, pe("1 + 0.1*exp(-x1^2)"), ((const(1),),))
    with pytest.raises(ValueError, match="constant a11"):
        carleman_sides_translated(f, varying, 10.0, cut)


def test_translated_inequality_block_field(st_grid_2d):
    cut = CutoffSpec(r0=1.0, R=1.0, space_width=1.0)
    tf = TransversalField(2, const(1), ((const(1),),))
    for seed in (1, 2, 3):
        f = make_test_function("translated", st_grid_2d, cut, seed)
        rep = carleman_sides_translated(f, tf, 4.0, cut, c0=4.0)
        assert rep.admissible
        assert rep.slack >= 1.0 - 1e-6


def test_worker_count_env(monkeypatch):
    import os
    from ucont.carleman import ThreadCountError, worker_count
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("UCONT_THREADS", "2")
    assert worker_count() == min(2, cpus)
    # capped at the CPU count (only the number is checked; no pool starts)
    monkeypatch.setenv("UCONT_THREADS", "100000")
    assert worker_count() == cpus
    for bad in ("two", "0", "-3", "1.5"):
        monkeypatch.setenv("UCONT_THREADS", bad)
        with pytest.raises(ThreadCountError, match="positive integer"):
            worker_count()
    monkeypatch.delenv("UCONT_THREADS")
    assert worker_count() >= 1


def test_slack_stable_under_refinement():
    # the sides converge under doubling the grid in both t and x
    cut = CutoffSpec(r0=1.0, R=1.0)
    fld = CoefficientField.identity(1)
    vals = []
    for nt, nx in ((64, 512), (128, 1024)):
        stg = SpaceTimeGrid(nt, Grid((8.0,), (nx,)))
        f = make_test_function("annulus", stg, cut, 21, k_cut=4.0)
        vals.append(carleman_sides_cubic(f, fld, 40.0, cut, lam=1.0).slack)
    assert vals[0] == pytest.approx(vals[1], rel=0.05)


# ---------------------------------------------------------------------------
# the beta-polynomial engine
# ---------------------------------------------------------------------------

ST_1D = SpaceTimeGrid(64, Grid((8.0,), (512,)))


@settings(max_examples=12, deadline=None)
@given(st.floats(0.05, 200.0), st.integers(0, 40))
def test_sides_match_direct_realization_at_beta(beta, seed):
    # the sides scaled from the unit-weight split agree with the split
    # realized at beta itself, whose form is read off the three norms
    cut = CutoffSpec(r0=1.0, R=1.0)
    fld = CoefficientField.identity(1)
    f = make_test_function("annulus", ST_1D, cut, seed)
    rep = carleman_sides_cubic(f, fld, beta, cut, lam=1.0)
    ops = ConjugatedGridOps.build(
        fld, WeightSpec("scaled-time", beta, R=1.0,
                        profile=cut.profile_expression()), ST_1D)
    g, dt = ST_1D.space, ST_1D.dt
    sf, af = ops.apply_S(f.values), ops.apply_A(f.values)
    raw = l2_norm_sq(sf + af, g, dt)
    comm = raw - l2_norm_sq(sf, g, dt) - l2_norm_sq(af, g, dt)
    grad = l2_norm_sq(spectral_derivative(f.values, g, 0, 1, time_offset=1),
                      g, dt)
    lhs = beta * grad + beta ** 3 * l2_norm_sq(g.meshes[0] * f.values, g, dt)
    assert rep.comm_form == pytest.approx(comm, rel=1e-9)
    assert rep.raw_rhs == pytest.approx(raw, rel=1e-9)
    assert rep.lhs == pytest.approx(lhs, rel=1e-9)


@pytest.mark.parametrize("mode, cfg, fld", [
    ("annulus", SweepConfig(mode="annulus", nt=64, extents=(8.0,),
                            points=(512,), R_values=(), n_samples=0,
                            seed0=3, frontier_R_values=(2.0,),
                            frontier_probes=2),
     CoefficientField.identity(1)),
    ("translated", SweepConfig(mode="translated", nt=256, extents=(6.0,),
                               points=(256,), R_values=(), n_samples=0,
                               seed0=3, frontier_R_values=(1.1,),
                               frontier_probes=2),
     TransversalField(1, const(1), ())),
])
def test_frontier_is_the_commutator_crossing(mode, cfg, fld):
    # just above beta* every probe's form dominates lambda^2 lhs; just
    # below it at least one probe's does not
    R = cfg.frontier_R_values[0]
    beta_star = float(carleman_sweep(cfg, fld).frontier_beta[0])
    cut = CutoffSpec(r0=cfg.r0, R=R, space_width=cfg.space_width)
    st_grid = SpaceTimeGrid(cfg.nt, Grid(cfg.extents, cfg.points))
    probes = [make_test_function(mode, st_grid, cut, **kw)
              for kw in carleman._frontier_variants(
                  mode, cut, R, cfg.frontier_probes, cfg.seed0 + 1000)]
    assert len(probes) >= 2

    def slacks(beta):
        if mode == "annulus":
            return [carleman_sides_cubic(f, fld, beta, cut, lam=1.0)
                    .comm_slack for f in probes]
        return [carleman_sides_translated(f, fld, beta, cut, lam=1.0)
                .comm_slack for f in probes]
    assert min(slacks(1.000001 * beta_star)) >= 1.0
    assert min(slacks(0.999 * beta_star)) < 1.0


def _forms(seed, c1, c3, g1=1.0, g3=1.0):
    return BetaForms(seed, c1, c3, g1, g3, 1.0, 1.0, 1.0)


def test_frontier_root_closed_form_and_errors():
    # lam = 2: probe 0 needs beta^2 = (4 - 1) / (7 - 4), probe 1 (4-2)/(6-4)
    beta = frontier_root([_forms(10, 1.0, 7.0), _forms(11, 2.0, 6.0)],
                         2.0, 1.5)
    assert beta == pytest.approx(1.0, rel=1e-15)
    # a probe that holds at every beta contributes a root of 0
    beta = frontier_root([_forms(10, 1.0, 7.0), _forms(11, 5.0, 8.0)],
                         2.0, 1.5)
    assert beta == pytest.approx(1.0, rel=1e-15)
    # no root: the cubic coefficient c3 - lam^2 g3 is not positive
    with pytest.raises(FrontierError, match=r"R = 1.5, probe seed 11"):
        frontier_root([_forms(10, 1.0, 7.0), _forms(11, 1.0, 4.0)], 2.0, 1.5)
    with pytest.raises(FrontierError, match="probe seed 12"):
        frontier_root([_forms(12, 1.0, math.nan)], 2.0, 1.5)
    # every probe holds at all beta: the ensemble fixes no frontier
    with pytest.raises(FrontierError, match=r"R = 3, probe seeds \[4, 5\]"):
        frontier_root([_forms(4, 5.0, 7.0), _forms(5, 4.0, 6.0)], 2.0, 3.0)


def test_sides_at_new_beta_compile_nothing(monkeypatch):
    compiled = []
    lambdify = sp.lambdify

    def counting(syms, expr, *args, **kwargs):
        compiled.append(expr)
        return lambdify(syms, expr, *args, **kwargs)
    monkeypatch.setattr(sp, "lambdify", counting)
    expressions._lambdify.cache_clear()
    cut = CutoffSpec(r0=1.0, R=1.3)
    fld = CoefficientField.identity(1)
    f = make_test_function("annulus", ST_1D, cut, 8)
    carleman_sides_cubic(f, fld, 5.0, cut)
    assert compiled
    compiled.clear()
    carleman_sides_cubic(f, fld, 40.0, cut)
    assert compiled == []


def test_one_task_sweep_starts_one_worker(monkeypatch):
    widths = []
    pool = carleman.ThreadPoolExecutor

    class Recording(pool):
        def __init__(self, max_workers=None, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)
    monkeypatch.setattr(carleman, "ThreadPoolExecutor", Recording)
    monkeypatch.setenv("UCONT_THREADS", "4")
    rep = carleman_sweep(SweepConfig(mode="annulus", R_values=(1.0,),
                                     n_samples=1))
    assert widths == [1] and len(rep.rows) == 1


def test_sweep_builds_one_split_per_R(monkeypatch):
    builds = []
    build = ConjugatedGridOps.build.__func__

    def counting(cls, fld, w, grid):
        builds.append(w.R)
        return build(cls, fld, w, grid)
    monkeypatch.setattr(ConjugatedGridOps, "build", classmethod(counting))
    rep = carleman_sweep(SweepConfig(mode="annulus", R_values=(1.0, 1.5),
                                     n_samples=3, frontier_R_values=(2.0,),
                                     frontier_probes=2))
    assert sorted(builds) == [1.0, 1.5, 2.0] and len(rep.rows) == 6


def test_frontier_probes_run_in_the_pool(monkeypatch):
    mapped = []
    pool = carleman.ThreadPoolExecutor

    class Recording(pool):
        def map(self, fn, *iterables, **kwargs):
            tasks = list(iterables[0])
            mapped.append(len(tasks))
            return super().map(fn, tasks, **kwargs)
    monkeypatch.setattr(carleman, "ThreadPoolExecutor", Recording)
    rep = carleman_sweep(SweepConfig(mode="annulus", R_values=(1.0,),
                                     n_samples=0, frontier_R_values=(2.0,),
                                     frontier_probes=2))
    assert mapped == [2] and rep.rows == [] and rep.frontier_beta[0] > 0


def test_beta_forms_take_each_derivative_once(monkeypatch, st_grid,
                                              st_grid_2d):
    # one gradient of f serves ||grad f||^2, S0 f and A1 f: d/dt, grad f,
    # div of the flux and A1's dx(c f) make 1 + 2 + 2 + 2 forward
    # transforms in 2-D and 1 + 1 + 1 + 1 in 1-D
    cut2 = CutoffSpec(r0=1.0, R=1.0, space_width=1.0)
    block = carleman._block_field(TransversalField(
        2, const(1), ((pe("1 + 0.06*exp(-x2^2/4)"),),)))
    cut1 = CutoffSpec(r0=1.0, R=1.0)
    mild = CoefficientField(1, ((pe("1 + 0.06*exp(-x1^2/4)"),),))
    cases = [(make_test_function("translated", st_grid_2d, cut2, 3),
              carleman._unit_ops(block, cut2, "translated", st_grid_2d),
              cut2, 7),
             (make_test_function("annulus", st_grid, cut1, 5),
              carleman._unit_ops(mild, cut1, "annulus", st_grid), cut1, 4)]
    fft = np.fft.fft
    for f, ops, cut, want in cases:
        calls = []
        monkeypatch.setattr(np.fft, "fft",
                            lambda *a, **k: calls.append(1) or fft(*a, **k))
        carleman._beta_forms(f, ops, cut)
        monkeypatch.undo()
        assert len(calls) == want
        # the shared gradient gives the split's own values, bit for bit
        grads = [spectral_derivative(f.values, f.st.space, i, 1,
                                     time_offset=1)
                 for i in range(f.st.space.dim)]
        assert np.array_equal(ops.apply_S0(f.values, grads),
                              ops.apply_S0(f.values))
        assert np.array_equal(ops.apply_A(f.values, grads),
                              ops.apply_A(f.values))
