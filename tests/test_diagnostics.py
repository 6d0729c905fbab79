import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucont.diagnostics import (AnnulusResolutionError, BoundaryMassError,
                               annulus_mass_profile, decay_schedule_companion,
                               derivative_bound_check, gaussian_decay_schedule,
                               logconvexity_check, weighted_norm)
from ucont.evolution import (HEAT, SCHRODINGER, Trajectory, WaveState,
                             mass, propagate)
from ucont.expressions import parse_expression
from ucont.grids import Grid, band_limited_noise, spectral_gradient

pe = parse_expression


def H_closed(beta, sigma, tau, t, n=1):
    st2 = sigma ** 2 + (tau + t) ** 2
    s02 = sigma ** 2 + tau ** 2
    amp2 = (math.sqrt(s02) / math.sqrt(st2)) ** n
    rate = sigma / (2 * st2) - 2 * beta
    return amp2 * (math.pi / rate) ** (n / 2)


def test_weighted_norm_unit_weight_is_mass(line_grid, unit_packet):
    u = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    assert weighted_norm(u, 0.0) == pytest.approx(mass(u), rel=1e-14)


def test_weighted_norm_zero_state(line_grid):
    u = WaveState(0.0, np.zeros(line_grid.points, dtype=complex), line_grid)
    assert weighted_norm(u, 0.3) == 0.0


def test_weighted_norm_quadrature_oracle(line_grid):
    # u = e^{-x^2}, beta = 1/2: int e^{x^2} e^{-2x^2} dx = sqrt(pi)
    u = WaveState(0.0, np.exp(-line_grid.meshes[0] ** 2).astype(complex),
                  line_grid)
    assert weighted_norm(u, 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_weighted_norm_boundary_guard(line_grid):
    u = WaveState(0.0, np.exp(-0.05 * line_grid.meshes[0] ** 2).astype(complex),
                  line_grid)
    with pytest.raises(BoundaryMassError):
        weighted_norm(u, 0.3)


def test_weighted_norm_strict_rejects_overflow(line_grid):
    # e^{2 beta x^2} alone overflows at the box edge while |u|^2 underflows
    # to 0; formed in the log domain the integrand e^{-6.8 x^2} is finite
    x = line_grid.meshes[0]
    u = WaveState(0.0, np.exp(-5 * x ** 2).astype(complex), line_grid)
    exact = math.sqrt(math.pi / 6.8)
    for strict in (True, False):
        assert weighted_norm(u, 1.6, strict=strict) == \
            pytest.approx(exact, rel=1e-12)
    # a truly overflowing integrand e^{59.9 x^2}: the strict guard must not
    # pass it
    wide = WaveState(0.0, np.exp(-0.05 * x ** 2).astype(complex), line_grid)
    with np.errstate(over="ignore"):
        with pytest.raises(BoundaryMassError, match="not finite"):
            weighted_norm(wide, 30.0, strict=True)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 0.2), st.floats(0.0, 0.2))
def test_weighted_norm_monotone_in_beta(b1, b2):
    g = Grid((10.0,), (256,))
    u = WaveState(0.0, np.exp(-g.meshes[0] ** 2).astype(complex), g)
    lo, hi = sorted((b1, b2))
    assert weighted_norm(u, lo, strict=False) <= \
        weighted_norm(u, hi, strict=False) * (1 + 1e-12)


def test_logconvexity_free_flow_matches_closed_form(identity_field_1d,
                                                    chirped_packet):
    g = Grid((11.25,), (1024,))
    u0 = WaveState(0.0, chirped_packet.sample(g), g)
    traj = propagate(u0, identity_field_1d, SCHRODINGER, steps=64, n_frames=65)
    for beta in (0.05, 0.1, 0.2):
        tr = logconvexity_check(traj, beta, 0.0, boundary_budget=1e-4)
        ref = np.array([H_closed(beta, 0.5, -0.5, float(t)) for t in tr.times])
        assert np.max(np.abs(tr.H / ref - 1)) < 1e-6
        assert not tr.violation
        assert tr.min_d2_logH > 0


def test_logconvexity_stationary_trace(line_grid, unit_packet):
    vals = unit_packet.sample(line_grid)
    frames = np.stack([vals] * 9)
    traj = Trajectory(line_grid, np.linspace(0, 1, 9), frames)
    tr = logconvexity_check(traj, 0.05, 0.0)
    assert np.allclose(np.diff(np.log(tr.H)), 0.0, atol=1e-13)
    assert abs(tr.min_d2_logH) < 1e-9
    assert not tr.violation


def test_logconvexity_vacuous_zero_endpoint(line_grid, unit_packet):
    vals = unit_packet.sample(line_grid)
    frames = np.stack([np.zeros_like(vals), vals, vals])
    traj = Trajectory(line_grid, np.linspace(0, 1, 3), frames)
    tr = logconvexity_check(traj, 0.05, 0.0)
    assert tr.vacuous and not tr.violation


def test_logconvexity_nan_ratio_is_a_violation(line_grid, unit_packet):
    # frames all at t = 0 rescale time by 0/0: the interpolation ratio is
    # NaN, which no C bounds
    frames = np.stack([unit_packet.sample(line_grid)] * 3)
    traj = Trajectory(line_grid, np.zeros(3), frames)
    with np.errstate(invalid="ignore"):
        tr = logconvexity_check(traj, 0.05, 0.0)
    assert math.isnan(tr.max_interp_ratio_c1)
    assert tr.violation


def test_derivative_bound_stable_under_refinement(identity_field_1d,
                                                  chirped_packet):
    vals = []
    for n in (1024, 2048):
        g = Grid((11.25,), (n,))
        u0 = WaveState(0.0, chirped_packet.sample(g), g)
        traj = propagate(u0, identity_field_1d, SCHRODINGER, steps=64,
                         n_frames=33)
        vals.append(derivative_bound_check(traj, 0.1))
    assert vals[0] == pytest.approx(vals[1], rel=0.02)


def test_derivative_bound_weighs_each_endpoint_once(monkeypatch,
                                                    identity_field_1d,
                                                    chirped_packet):
    from ucont import diagnostics
    g = Grid((11.25,), (256,))
    traj = propagate(WaveState(0.0, chirped_packet.sample(g), g),
                     identity_field_1d, SCHRODINGER, steps=8, n_frames=5)
    calls = []
    norm = diagnostics.weighted_norm

    def counting(u, beta, *args, **kwargs):
        calls.append(kwargs.get("strict"))
        return norm(u, beta, *args, **kwargs)
    monkeypatch.setattr(diagnostics, "weighted_norm", counting)
    derivative_bound_check(traj, 0.1)
    assert calls == [False, False]


def test_decay_schedule_formula_specialization():
    # b = 0, lam = Lam = 1, a = 1: alpha(t) = gamma / (1 + 4 gamma t)
    sch = gaussian_decay_schedule(0.3, HEAT, 1.0, 1.0, 1.0)
    assert np.allclose(sch.alphas, 0.3 / (1 + 1.2 * sch.times), rtol=1e-14)
    assert sch.alphas[0] == pytest.approx(0.3)
    assert np.all(np.diff(sch.alphas) <= 0)
    # endpoint value exactly by formula
    expect = 0.3 * 1.0 / (1.0 + 4 * 0.3 * (1.0 * 1.0 + 0.0))
    assert sch.alphas[-1] == pytest.approx(expect, rel=1e-14)


def test_decay_schedule_degenerate_a0():
    sch = gaussian_decay_schedule(0.3, SCHRODINGER, 1.0, 1.0, 1.0)
    assert sch.degenerate
    assert sch.alphas[0] == pytest.approx(0.3)
    assert np.all(sch.alphas[1:] == 0.0)


def test_heat_flow_decay_companion(identity_field_1d, unit_packet):
    # heat flow of e^{-|x|^2/4} (gamma = 1/4): the exact maintained rate
    # 1/(4(1+t)) coincides with the schedule, and the bound holds on the box
    g = Grid((10.0,), (1024,))
    u0 = WaveState(0.0, unit_packet.sample(g), g)
    traj = propagate(u0, identity_field_1d, HEAT, steps=64, n_frames=65)
    sch = gaussian_decay_schedule(0.25, HEAT, 1.0, 1.0, 1.0)
    exact = 1.0 / (4.0 * (1.0 + sch.times))
    assert np.all(exact >= sch.alphas - 1e-12)
    margins = decay_schedule_companion(traj, sch)
    assert margins.min() >= 1.0 - 1e-9


def test_persistence_companion_free_flow(identity_field_1d, unit_packet):
    # with the flat-coefficient threshold at zero, a small super-Gaussian
    # weight persists along the free flow with the interpolation bound
    g = Grid((15.0,), (1024,))
    u0 = WaveState(0.0, unit_packet.sample(g), g)
    traj = propagate(u0, identity_field_1d, SCHRODINGER, steps=64, n_frames=17)
    kappa = 0.005
    H = np.array([weighted_norm(traj.state(i), kappa, alpha=1.5, strict=False)
                  for i in range(17)])
    tt = np.linspace(0, 1, 17)
    bound = H[0] ** (1 - tt) * H[-1] ** tt
    assert np.max(H / bound) <= 1.0 + 1e-6


def test_annulus_profile_compact_support_zero(line_grid):
    # bump supported in |x| <= 1: larger annuli carry no mass beyond the
    # spectral-gradient leakage floor
    x = line_grid.meshes[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.where(np.abs(x) < 1.0,
                        np.exp(1.0 - 1.0 / np.maximum(1.0 - x ** 2, 1e-300)),
                        0.0)
    frames = np.stack([vals.astype(complex)] * 5)
    traj = Trajectory(line_grid, np.linspace(0, 1, 5), frames)
    prof = annulus_mass_profile(traj, [3.0, 5.0, 7.0])
    assert np.all(prof.deltas < 1e-9)


def test_annulus_profile_quadratic_fit(identity_field_1d, unit_packet):
    g = Grid((18.0,), (2048,))
    u0 = WaveState(0.0, unit_packet.sample(g), g)
    traj = propagate(u0, identity_field_1d, SCHRODINGER, steps=1024,
                     n_frames=65)
    prof = annulus_mass_profile(traj, np.linspace(2, 6, 9))
    assert prof.preferred_p == 2
    assert prof.fits[2]["rel_residual"] < 0.05
    assert prof.fits[3]["rel_residual"] > prof.fits[2]["rel_residual"]
    assert np.all(prof.deltas >= 0)


def test_annulus_e2_gate(identity_field_1d, unit_packet):
    g = Grid((18.0,), (2048,))
    u0 = WaveState(0.0, unit_packet.sample(g), g)
    traj = propagate(u0, identity_field_1d, SCHRODINGER, steps=256, n_frames=33)
    prof = annulus_mass_profile(traj, [2.0, 3.0], R0=1.0, E2=100.0)
    assert not prof.hypothesis_met
    assert prof.label == "hypothesis not met"
    ok = annulus_mass_profile(traj, [2.0, 3.0], R0=1.0, E2=0.01)
    assert ok.hypothesis_met


def test_annulus_resolution_guard(unit_packet):
    g = Grid((18.0,), (64,))
    u0 = unit_packet.sample(g)
    traj = Trajectory(g, np.linspace(0, 1, 5), np.stack([u0] * 5))
    with pytest.raises(AnnulusResolutionError):
        annulus_mass_profile(traj, [3.0])


def test_frame_stack_gradients_match_per_frame_loop():
    # derivative_bound_check and annulus_mass_profile take one gradient of
    # the frame stack; the per-frame loop is the reference
    g = Grid((8.0, 8.0), (128, 128))
    rng = np.random.default_rng(4)
    envelope = np.exp(-g.radius_sq / 8)
    frames = np.stack([envelope * band_limited_noise(g, rng, 2.0)
                       for _ in range(9)])
    times = np.linspace(0.0, 1.0, 9)
    traj = Trajectory(g, times, frames)
    beta = 0.02
    vals = []
    for t, u in zip(times, frames):
        weight = np.exp(beta * g.radius_sq)
        g2 = sum(np.abs(weight * d) ** 2 for d in spectral_gradient(u, g))
        integ = beta * g2 + beta ** 3 * g.radius_sq * np.abs(weight * u) ** 2
        vals.append(float(integ.sum() * g.cell_volume) * t * (1 - t))
    rhs = sum(weighted_norm(traj.state(i), beta, strict=False) for i in (0, 8))
    assert derivative_bound_check(traj, beta) == pytest.approx(
        float(np.trapezoid(vals, times)) / rhs, rel=1e-12)
    rad = np.sqrt(g.radius_sq)
    dens = [np.abs(u) ** 2
            + sum(np.abs(d) ** 2 for d in spectral_gradient(u, g))
            for u in frames[1:8]]
    radii = [2.0, 3.0, 4.5]
    shells = [(rad > R - 1) & (rad <= R) for R in radii]
    expected = [np.trapezoid([dn[s].sum() * g.cell_volume for dn in dens],
                             times[1:8]) for s in shells]
    prof = annulus_mass_profile(traj, radii)
    np.testing.assert_allclose(prof.deltas, expected, rtol=1e-12)
