"""Each benchmark check passes on real program values and fails when one of
the values it checks is perturbed.  Also checks that the layer tracer counts
calls and restores what it patched.

    python3 -m pytest perfbench/test_checks.py -q

(run from the root of the checkout; the Tier-1 suite does not collect it)
"""

import json
import math
import os
import sys

import numpy as np
import pytest
import sympy as sp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks as C  # noqa: E402
import layers  # noqa: E402
from ucont import carleman, coefficients, evolution, grids, operators  # noqa
from ucont.analysis import poincare_weighted_check  # noqa: E402
from ucont.expressions import T_SYMBOL, X_SYMBOLS, const, \
    parse_expression  # noqa: E402

PLATEAU, KNOTS = 3.0, (0.125, 0.25, 0.75, 0.875)


def ok(result):
    return result[0]


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

def test_exponent():
    R = (2.0, 2.8, 4.0)
    beta = [5.0 * r ** 3 for r in R]
    e = C.fit_exponent(R, beta)
    assert ok(C.check_exponent(R, beta, e, 3.0))
    assert not ok(C.check_exponent(R, [beta[0], beta[1], 1.8 * beta[2]], e,
                                   3.0))
    assert not ok(C.check_exponent(R, beta, e + 0.01, 3.0))
    assert not ok(C.check_exponent(R, beta, e, 2.0))


def test_exponent_order():
    assert ok(C.check_exponent_order(2.05, 3.02))
    assert not ok(C.check_exponent_order(3.1, 3.02))


def test_bracket():
    refs = [C.cubic_reference_beta(R, 1.0, 1.0, PLATEAU, KNOTS)
            for R in (2.0, 2.8, 4.0)]
    betas = [0.5 * r for r in refs]
    assert ok(C.check_bracket(betas, refs))
    assert not ok(C.check_bracket([betas[0], refs[1] / 256, betas[2]], refs))
    assert not ok(C.check_bracket([betas[0], betas[1], 4 * refs[2]], refs))


def test_cubic_reference_matches_program():
    cut = carleman.CutoffSpec(r0=1.0, R=2.8)
    assert C.cubic_reference_beta(2.8, 1.0, 1.0, PLATEAU, KNOTS) == \
        pytest.approx(carleman.beta_threshold_cubic(1.0, cut, 2.8), rel=1e-14)


@pytest.mark.parametrize("beta,R", [(0.5, 1.0), (40.0, 2.8)])
def test_commutator_oracle(beta, R):
    st = grids.SpaceTimeGrid(64, grids.Grid((8.0,), (2048,)))
    cut = carleman.CutoffSpec(r0=1.0, R=R)
    f = carleman.make_test_function("annulus", st, cut, 5001)
    rep = carleman.carleman_sides_cubic(
        f, coefficients.CoefficientField.identity(1), beta, cut)
    own = C.commutator_form_identity(f.values, 8.0, R, beta, PLATEAU, KNOTS)
    assert ok(C.check_commutator(own, rep.comm_form))
    assert not ok(C.check_commutator(own, rep.comm_form * (1 + 1e-6)))
    bent = C.commutator_form_identity(f.values * (1 + 1e-6 * np.arange(64)
                                                  [:, None] / 64),
                                      8.0, R, beta, PLATEAU, KNOTS)
    assert not ok(C.check_commutator(bent, rep.comm_form))


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cubic_sample():
    st = grids.SpaceTimeGrid(64, grids.Grid((8.0,), (512,)))
    cut = carleman.CutoffSpec(r0=1.0, R=1.0)
    f = carleman.make_test_function("annulus", st, cut, 3)
    beta = carleman.beta_threshold_cubic(1.0, cut, 1.0)
    rep = carleman.carleman_sides_cubic(
        f, coefficients.CoefficientField.identity(1), beta, cut, lam=1.0)
    return f.values, rep


def test_sample(cubic_sample):
    values, rep = cubic_sample
    own = C.carleman_lhs(values, (8.0,), 1.0, rep.beta, PLATEAU, KNOTS, False)
    assert ok(C.check_sample(rep.slack, rep.lhs, rep.rhs, own))
    assert not ok(C.check_sample(rep.slack, rep.lhs * (1 + 1e-9), rep.rhs,
                                 own))
    assert not ok(C.check_sample(rep.slack * (1 + 1e-9), rep.lhs, rep.rhs,
                                 own))
    moved = C.carleman_lhs(values * 1.00001, (8.0,), 1.0, rep.beta, PLATEAU,
                           KNOTS, False)
    assert not ok(C.check_sample(rep.slack, rep.lhs, rep.rhs, moved))
    # consistent values below the slack floor
    low = 1.0 - 2e-6
    assert not ok(C.check_sample(low, own, low * own, own))


def test_threshold():
    box = coefficients.SamplingBox.cube(1, 8.0, 65)
    fld = coefficients.CoefficientField(
        1, ((parse_expression("1 + 0.06*exp(-x1^2/4)"),),))
    lam, _ = coefficients.ellipticity_bounds(fld, box)
    beta = carleman.beta_threshold_cubic(lam, carleman.CutoffSpec(r0=1.0,
                                                                  R=1.0), 1.0)
    x = np.linspace(-8.0, 8.0, 65)
    own_lam = float(np.min(1 + 0.06 * np.exp(-x ** 2 / 4)))
    own = C.cubic_reference_beta(1.0, own_lam, 1.0, PLATEAU, KNOTS)
    assert ok(C.check_threshold(beta, own))
    assert not ok(C.check_threshold(beta * (1 + 1e-10), own))
    assert not ok(C.check_threshold(beta, C.cubic_reference_beta(
        1.0, 1.0, 1.0, PLATEAU, KNOTS)))


def test_translated_lhs_matches_program():
    st = grids.SpaceTimeGrid(128, grids.Grid((8.0, 4.0), (128, 64)))
    cut = carleman.CutoffSpec(r0=1.0, R=1.5, space_width=1.0)
    f = carleman.make_test_function("translated", st, cut, 11)
    tfld = coefficients.TransversalField(
        2, const(1), ((const(1),),))
    rep = carleman.carleman_sides_translated(f, tfld, 9.0, cut)
    own = C.carleman_lhs(f.values, (8.0, 4.0), 1.5, 9.0, PLATEAU, KNOTS, True)
    assert ok(C.check_sample(rep.slack, rep.lhs, rep.rhs, own))
    shifted = C.carleman_lhs(f.values, (8.0, 4.0), 1.5, 9.0, PLATEAU,
                             (0.13, 0.25, 0.75, 0.875), True)
    assert not ok(C.check_sample(rep.slack, rep.lhs, rep.rhs, shifted))


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

def test_t_decomposition_check():
    zero = {"order0": 0.0, "order1": 0.0, "order2": 0.0}
    assert ok(C.check_t_decomposition(True, zero, 2))
    assert not ok(C.check_t_decomposition(False, zero, 2))
    assert not ok(C.check_t_decomposition(True, dict(zero, order1=1e-12), 2))
    assert not ok(C.check_t_decomposition(True, zero, 3))


@pytest.fixture(scope="module")
def quadratic_commutator():
    beta = sp.Symbol("beta", positive=True)
    s_op, a_op = operators.conjugate_decompose(
        coefficients.CoefficientField.identity(2),
        operators.WeightSpec("quadratic", beta))
    return beta, operators.commutator(s_op, a_op, max_spatial_order=2)


def test_commutator_terms(quadratic_commutator):
    beta, comm = quadratic_commutator
    xs = X_SYMBOLS[:2]
    target = C.quadratic_commutator_target(beta, xs)
    assert ok(C.check_commutator_terms(comm.terms, target))
    bumped = dict(comm.terms)
    bumped[(0, (2, 0))] = bumped[(0, (2, 0))] + beta ** 2
    assert not ok(C.check_commutator_terms(bumped, target))
    dropped = {k: v for k, v in comm.terms.items() if k != (0, (0, 2))}
    assert not ok(C.check_commutator_terms(dropped, target))


def test_applied_commutator(quadratic_commutator):
    beta, comm = quadratic_commutator
    x1, x2 = X_SYMBOLS[:2]
    probe = x1 ** 2 * x2 * sp.exp(-(x1 ** 2 + x2 ** 2))
    own = C.identity_commutator_applied(probe, beta, T_SYMBOL, (x1, x2))
    program = comm.apply_symbolic(probe)
    assert ok(C.check_applied_commutator(own, program))
    assert not ok(C.check_applied_commutator(own, program + beta * probe))


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def line():
    grid = grids.Grid((15.0,), (1024,))
    packet = evolution.GaussianPacket(1.0, (0.0,))
    return grid, evolution.WaveState(0.0, packet.sample(grid), grid)


def test_free_flow(line):
    grid, u0 = line
    end = evolution.propagate(u0, coefficients.CoefficientField.identity(1),
                              evolution.SCHRODINGER, steps=128,
                              n_frames=2).frames[-1]
    x, h = C.axis_points(15.0, 1024), grid.spacings[0]
    exact = C.free_gaussian(x, 1.0, 1.0)
    assert ok(C.check_free_flow(C.l2_distance(end, exact, h)))
    assert not ok(C.check_free_flow(C.l2_distance(end * (1 + 2e-6), exact,
                                                  h)))


def test_step_halving(line):
    grid, u0 = line
    lin = coefficients.CoefficientField.identity(
        1, parse_expression("x1/2"))
    x, h = C.axis_points(15.0, 1024), grid.spacings[0]
    ref = C.boosted_gaussian(x, 1.0, 1.0, 0.5)
    errs = [C.l2_distance(evolution.propagate(
        u0, lin, evolution.SCHRODINGER, steps=s, n_frames=2).frames[-1],
        ref, h) for s in (64, 128)]
    assert ok(C.check_step_halving(*errs))
    assert not ok(C.check_step_halving(errs[0], errs[0] / 3.5))
    assert not ok(C.check_step_halving(errs[0], errs[0] / 4.5))


def test_free_H():
    times = np.linspace(0.0, 1.0, 65)
    H = np.array([C.free_packet_H(0.1, 0.5, -0.5, t) for t in times])
    assert ok(C.check_free_H(times, H, 0.1, 0.5, -0.5))
    H[30] *= 1 + 2e-6
    assert not ok(C.check_free_H(times, H, 0.1, 0.5, -0.5))


def test_free_H_matches_program_quadrature():
    grid = grids.Grid((11.25,), (1024,))
    x = C.axis_points(11.25, 1024)
    u = C.free_gaussian(x, 0.5 - 0.5j, 0.25)
    H = float(np.sum(np.exp(0.2 * x ** 2) * np.abs(u) ** 2)
              * grid.spacings[0])
    assert math.isclose(H, C.free_packet_H(0.1, 0.5, -0.5, 0.25),
                        rel_tol=1e-9)


def test_mass_drift():
    frames = np.ones((5, 64), dtype=complex)
    assert ok(C.check_mass_drift(frames, 0.1))
    frames[-1] *= 1 + 1e-6
    assert not ok(C.check_mass_drift(frames, 0.1))


def test_log_convexity():
    times = np.linspace(0.0, 1.0, 65)
    H = np.exp(times ** 2)
    assert ok(C.check_log_convexity(times, H, 0.044))
    assert not ok(C.check_log_convexity(times, H, 0.06))
    bent = H.copy()
    bent[32] *= 1.001
    assert not ok(C.check_log_convexity(times, bent, 0.044))


def test_field_smallness():
    assert C.field_smallness(0.06, 4.0, 13.5) == pytest.approx(
        0.12 / math.e, rel=1e-5)
    box = coefficients.SamplingBox.cube(1, 13.5, 2001)
    fld = coefficients.CoefficientField(
        1, ((parse_expression("1 + 0.06*exp(-x1^2/4)"),),))
    assert C.field_smallness(0.06, 4.0, 13.5) == pytest.approx(
        coefficients.decay_smallness(fld, box), rel=1e-12)


def test_annulus():
    R = np.linspace(2.0, 6.0, 9)
    assert ok(C.check_annulus(R, np.exp(-0.5 * R ** 2)))
    assert not ok(C.check_annulus(R, np.exp(-0.1 * R ** 3)))
    noisy = np.exp(-0.5 * R ** 2 + 0.8 * np.sin(3 * R))
    assert not ok(C.check_annulus(R, noisy))


def test_poincare():
    grid = grids.Grid((4.0, 4.0), (64, 64))
    f = grids.band_limited_noise(grid, np.random.default_rng(2), 6.0)
    rows, own = [], []
    for r in (0.5, 1.0, 2.0):
        chk = poincare_weighted_check(f, grid, r)
        rows.append((r, chk.lhs, chk.rhs_grad, chk.rhs_moment, chk.ratio))
        own.append(C.poincare_terms(f, grid.extents, r))
    assert ok(C.check_poincare(rows, own))
    bad_ratio = [rows[0][:4] + (rows[0][4] * 1.01,)] + rows[1:]
    assert not ok(C.check_poincare(bad_ratio, own))
    big = rows[0][2] + rows[0][3]
    huge = [(rows[0][0], 2.5 * big, rows[0][2], rows[0][3], 2.5)] + rows[1:]
    assert not ok(C.check_poincare(huge, own))
    moved = [C.poincare_terms(f * 1.001, grid.extents, r)
             for r in (0.5, 1.0, 2.0)]
    assert not ok(C.check_poincare(rows, moved))


def test_reports():
    statuses = {"simulate": {"mass": "pass", "budget": "pass"},
                "poincare": {"ratio": "pass"}}
    written = [("simulate", "simulate"), ("poincare", "poincare")]
    assert ok(C.check_reports(statuses, written))
    failed = dict(statuses, poincare={"ratio": "fail"})
    assert not ok(C.check_reports(failed, written))
    assert not ok(C.check_reports(statuses, [("simulate", "simulate"),
                                             ("poincare", None)]))
    assert not ok(C.check_reports(statuses, [("simulate", "convexity"),
                                             ("poincare", "poincare")]))


def test_checkpoint(tmp_path, line):
    grid, u0 = line
    traj = evolution.propagate(u0, coefficients.CoefficientField.identity(1),
                               evolution.SCHRODINGER, steps=8, n_frames=5)
    path = tmp_path / "t.uctj"
    evolution.write_checkpoint(path, traj)
    _, _, times, frames = C.read_checkpoint(path)
    assert ok(C.check_checkpoint(times, frames, traj.times, traj.frames))
    assert not ok(C.check_checkpoint(times, frames, traj.times,
                                     traj.frames * (1 + 1e-6)))
    assert not ok(C.check_checkpoint(times + 1e-9, frames, traj.times,
                                     traj.frames))
    assert not ok(C.check_checkpoint(times, frames[:-1], traj.times,
                                     traj.frames))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        C.read_checkpoint(path)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_counts_and_restores():
    import ucont.experiments as experiments
    build = operators.ConjugatedGridOps.__dict__["build"]
    propagate = evolution.propagate
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        assert experiments.propagate is not propagate
        tracer.active = True
        st = grids.SpaceTimeGrid(16, grids.Grid((8.0,), (64,)))
        ops = operators.ConjugatedGridOps.build(
            coefficients.CoefficientField.identity(1),
            operators.WeightSpec("quadratic", 0.1), st)
        ops.apply_S(np.ones(st.shape, dtype=complex))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert operators.ConjugatedGridOps.__dict__["build"] is build
    assert experiments.propagate is propagate
    metrics = layers.summarise(tracer.spans)
    assert metrics["operators.build.calls"] == 1
    assert metrics["operators.apply.calls"] == 1
    # apply_S: one time derivative and two space derivatives, two FFTs each
    assert metrics["grids.fft.calls"] == 6
    assert metrics["grids.fft.points"] == 6 * 16 * 64
    assert metrics["operators.build.self_s"] > 0


def test_benchmark_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert listed == set(layers.LAYER_METRICS) | {
        "carleman.sides_per_point", "trace.overhead_s"}
