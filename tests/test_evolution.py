import math
import re

import numpy as np
import pytest

from ucont.coefficients import CoefficientField
from ucont.evolution import (HEAT, SCHRODINGER, BlowUpError, CheckpointError,
                             DissipationParams, GaussianPacket,
                             StabilityError, WaveState,
                             _remainder_step,
                             linear_potential_closed_form, mass, propagate,
                             read_checkpoint, write_checkpoint)
from ucont.expressions import SamplingError, parse_expression, sample
from ucont.grids import Grid, band_limited_noise, spectral_derivative

pe = parse_expression


def l2_dist(a, b, grid):
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2) * grid.cell_volume))


def test_dissipation_params_validation():
    with pytest.raises(ValueError):
        DissipationParams(0.0, 0.0)
    with pytest.raises(ValueError, match=">= 0"):
        DissipationParams(-0.1, 1.0)


def test_packet_modulus_rate_examples():
    p = GaussianPacket(1.0, (0.0,))
    assert p.modulus_rate() == pytest.approx(0.25)
    evolved = p.flow(1j, 1.0)
    assert evolved.s == pytest.approx(1.0 + 1.0j)
    assert evolved.modulus_rate() == pytest.approx(0.125)
    assert p.flow(1j, 0.0).s == pytest.approx(p.s)


def test_hardy_product_family():
    # AB = 1/(16(s^2+1)), approaching but never exceeding 1/16
    prods = []
    for s in (1.0, 0.5, 0.1, 0.01):
        p = GaussianPacket(complex(s), (0.0,))
        ab = p.modulus_rate() * p.flow(1j, 1.0).modulus_rate()
        assert ab == pytest.approx(1.0 / (16 * (s ** 2 + 1)), rel=1e-12)
        assert ab <= 1.0 / 16 + 1e-15
        prods.append(ab)
    assert all(prods[i] < prods[i + 1] for i in range(len(prods) - 1))


def test_free_flow_matches_closed_form(line_grid, identity_field_1d,
                                       unit_packet):
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    traj = propagate(u0, identity_field_1d, SCHRODINGER, steps=64, n_frames=3)
    ref = unit_packet.flow(1j, 1.0).sample(line_grid)
    assert l2_dist(traj.frames[-1], ref, line_grid) < 1e-6


def test_heat_flow_matches_kernel(line_grid, identity_field_1d, unit_packet):
    # e^{t Lap} of e^{-|x|^2/4}: (1+t)^{-1/2} e^{-|x|^2/(4(1+t))}
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    traj = propagate(u0, identity_field_1d, HEAT, steps=64, n_frames=2)
    x = line_grid.meshes[0]
    ref = (1 + 1.0) ** -0.5 * np.exp(-x ** 2 / (4 * 2.0))
    assert l2_dist(traj.frames[-1], ref, line_grid) < 1e-6


def test_constant_potential_global_phase(line_grid, unit_packet):
    fld = CoefficientField.identity(1, pe("2"))
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    traj = propagate(u0, fld, SCHRODINGER, steps=32, n_frames=2)
    free = unit_packet.flow(1j, 1.0).sample(line_grid)
    assert l2_dist(traj.frames[-1], np.exp(2j) * free, line_grid) < 1e-9
    assert mass(traj.state(-1)) == pytest.approx(mass(traj.state(0)), rel=1e-12)


def test_mass_examples(line_grid):
    zero = WaveState(0.0, np.zeros(line_grid.points, dtype=complex), line_grid)
    assert mass(zero) == 0.0
    u = WaveState(0.0, np.exp(-line_grid.meshes[0] ** 2 / 2).astype(complex),
                  line_grid)
    assert mass(u) == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    fine = Grid((15.0,), (2048,))
    u2 = WaveState(0.0, np.exp(-fine.meshes[0] ** 2 / 2).astype(complex), fine)
    assert abs(mass(u2) - mass(u)) < 1e-9


def test_second_order_convergence_linear_potential(line_grid, unit_packet):
    # boosted-frame closed form as the oracle; halving steps quarters error
    fld = CoefficientField.identity(1, pe("x1/2"))
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    ref = linear_potential_closed_form(unit_packet, 0.5, 1.0, line_grid)
    errs = [l2_dist(propagate(u0, fld, SCHRODINGER, steps=s, n_frames=2)
                    .frames[-1], ref, line_grid) for s in (64, 128, 256)]
    assert 3.6 < errs[0] / errs[1] < 4.4
    assert 3.6 < errs[1] / errs[2] < 4.4


def test_mass_conservation_variable_coefficients(mild_field_1d, chirped_packet):
    g = Grid((13.5,), (2048,))
    u0 = WaveState(0.0, chirped_packet.sample(g), g)
    traj = propagate(u0, mild_field_1d, SCHRODINGER, steps=2048, n_frames=5)
    drift = abs(mass(traj.state(-1)) - mass(traj.state(0))) / mass(traj.state(0))
    assert drift < 1e-7


def test_dissipation_monotone(mild_field_1d, chirped_packet):
    g = Grid((13.5,), (2048,))
    u0 = WaveState(0.0, chirped_packet.sample(g), g)
    traj = propagate(u0, mild_field_1d, DissipationParams(0.5, 0.5),
                     steps=2048, n_frames=9)
    masses = [mass(traj.state(i)) for i in range(9)]
    assert all(m1 <= m0 * (1 + 1e-12) for m0, m1 in zip(masses, masses[1:]))


def test_time_reversal(mild_field_1d, chirped_packet):
    g = Grid((13.5,), (2048,))
    u0 = WaveState(0.0, chirped_packet.sample(g), g)
    fwd = propagate(u0, mild_field_1d, SCHRODINGER, steps=2048, n_frames=2)
    back_state = WaveState(0.0, np.conj(fwd.frames[-1]), g)
    back = propagate(back_state, mild_field_1d, SCHRODINGER, steps=2048,
                     n_frames=2)
    assert l2_dist(np.conj(back.frames[-1]), u0.values, g) < 1e-6


def test_negative_a_rejected():
    with pytest.raises(ValueError, match="a must be >= 0"):
        DissipationParams(-0.1, 1.0)


@pytest.mark.parametrize("steps, n_frames", [(0, 2), (0, 5), (-4, 5),
                                             (100, 65), (64, 1)])
def test_propagate_rejects_step_counts(line_grid, identity_field_1d,
                                       unit_packet, steps, n_frames):
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    with pytest.raises(ValueError, match="positive multiple"):
        propagate(u0, identity_field_1d, SCHRODINGER, steps=steps,
                  n_frames=n_frames)


def test_stability_guard(mild_field_1d, chirped_packet):
    g = Grid((13.5,), (2048,))
    u0 = WaveState(0.0, chirped_packet.sample(g), g)
    with pytest.raises(StabilityError, match="increase steps"):
        propagate(u0, mild_field_1d, SCHRODINGER, steps=128, n_frames=2)


def test_blowup_guard_catches_a_nan_norm(line_grid, unit_packet):
    # e^{1000 t} overflows after about 45 of 64 steps and the transforms
    # turn inf into NaN, whose norm compares False against any bound
    fld = CoefficientField.identity(1, pe("1000"))
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    with pytest.raises(BlowUpError), np.errstate(all="ignore"):
        propagate(u0, fld, HEAT, steps=64, n_frames=2)


@pytest.mark.parametrize("a11, potential, bad", [
    ("1", "1/x1", "1/x1"),
    ("1 + 0.06*exp(-x1^2/4)", "1/x1", "1/x1"),
    ("1 + 0.06*sin(x1)/x1", "0", "1 + 0.06*sin(x1)/x1"),
], ids=["potential", "potential-variable-a11", "entry"])
def test_non_finite_field_rejected(line_grid, unit_packet, a11, potential,
                                   bad):
    # x1 = 0 is a node of the 1024-point grid
    fld = CoefficientField(1, ((pe(a11),),), pe(potential))
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    with pytest.raises(SamplingError,
                       match=re.escape(f"{pe(bad)} is not finite at x1 = 0")):
        propagate(u0, fld, SCHRODINGER, steps=1024, n_frames=2)


def test_blowup_guard(line_grid, unit_packet):
    # backwards heat (a > 0 with negative potential sign trick is not
    # available; instead force blow-up with a large positive potential under
    # dissipative sign conventions reversed via b only is stable, so use a
    # potential gain)
    fld = CoefficientField.identity(1, pe("40"))
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    with pytest.raises(BlowUpError):
        propagate(u0, fld, DissipationParams(0.2, 0.0), steps=64, n_frames=5)


def test_regularized_flow_converges(line_grid, identity_field_1d, unit_packet):
    # e^{t (eps + i)(L+V)} tends to the Schrodinger flow as eps -> 0
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    schr = propagate(u0, identity_field_1d, SCHRODINGER, steps=64, n_frames=3)
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        reg = propagate(u0, identity_field_1d, DissipationParams(eps, 1.0),
                        steps=64, n_frames=3)
        dists.append(l2_dist(reg.frames[-1], schr.frames[-1], line_grid))
    assert dists[0] < 0.05 * 10  # eps = 0.1 is coarse but bounded
    assert dists[1] < 0.05
    assert dists[2] < dists[1] < dists[0]


def test_semigroup_composition(line_grid, identity_field_1d, unit_packet):
    # e^{(t1+t2)(eps+i)L} equals the composition of the two flows
    eps = 1e-2
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    d = DissipationParams(eps, 1.0)
    direct = propagate(u0, identity_field_1d, d, (0.0, 1.0), 128, 2)
    first = propagate(u0, identity_field_1d, d, (0.0, 0.4), 64, 2)
    second = propagate(WaveState(0.4, first.frames[-1], line_grid),
                       identity_field_1d, d, (0.4, 1.0), 96, 2)
    rel = l2_dist(second.frames[-1], direct.frames[-1], line_grid) \
        / math.sqrt(mass(direct.state(-1)))
    assert rel < 1e-7


def test_heat_then_schrodinger_identity(line_grid, identity_field_1d,
                                        unit_packet):
    # e^{t(eps+i)L} u0 == e^{t eps L} (e^{itL} u0) for the same t
    eps = 1e-2
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    reg = propagate(u0, identity_field_1d, DissipationParams(eps, 1.0),
                    steps=64, n_frames=2)
    schr = propagate(u0, identity_field_1d, SCHRODINGER, steps=64, n_frames=2)
    heat_after = propagate(WaveState(0.0, schr.frames[-1], line_grid),
                           identity_field_1d, HEAT, (0.0, eps), 64, 2)
    rel = l2_dist(heat_after.frames[-1], reg.frames[-1], line_grid) \
        / math.sqrt(mass(reg.state(-1)))
    assert rel < 1e-7


def test_checkpoint_roundtrip(tmp_path, line_grid, identity_field_1d,
                              unit_packet):
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    traj = propagate(u0, identity_field_1d, SCHRODINGER, steps=32, n_frames=5)
    path = tmp_path / "traj.uctj"
    write_checkpoint(path, traj)
    back = read_checkpoint(path)
    assert back.grid == traj.grid
    assert np.allclose(back.times, traj.times)
    # frames stored as complex64
    assert np.max(np.abs(back.frames - traj.frames)) < 1e-6


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:-10],                              # cut short
    lambda data: data[:4] + (7).to_bytes(4, "little") + data[8:],  # version 7
    lambda data: data + b"\0" * 8,                        # trailing bytes
], ids=["truncated", "version", "trailing"])
def test_checkpoint_corruption_raises(tmp_path, line_grid, identity_field_1d,
                                      unit_packet, corrupt):
    u0 = WaveState(0.0, unit_packet.sample(line_grid), line_grid)
    path = tmp_path / "traj.uctj"
    write_checkpoint(path, propagate(u0, identity_field_1d, SCHRODINGER,
                                     steps=8, n_frames=3))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


# ---------------------------------------------------------------------------
# oracle: the physical-space Strang step with explicit RK4 stages
# ---------------------------------------------------------------------------

def _reference_remainder(grid, fld):
    """(abar, R) with R w = V w + sum_k D_k sum_j delta_kj D_j w applied in
    physical space, one spectral derivative at a time."""
    n = grid.dim
    a = [[sample(fld.entry(k, j), grid.open_mesh) for j in range(n)]
         for k in range(n)]
    v = sample(fld.potential, grid.open_mesh)
    abar = np.array([[np.mean(a[k][j]) for j in range(n)] for k in range(n)])

    def R(w):
        out = v * w
        grads = [spectral_derivative(w, grid, j) for j in range(n)]
        for k in range(n):
            flux = sum((a[k][j] - abar[k, j]) * grads[j] for j in range(n))
            out = out + spectral_derivative(flux, grid, k)
        return out
    return abar, R


def _reference_propagate(u0, fld, zeta, t_end, steps):
    grid = u0.grid
    abar, R = _reference_remainder(grid, fld)
    kmesh = np.meshgrid(*(grid.wavenumbers(i) for i in range(grid.dim)),
                        indexing="ij")
    sym = -sum(abar[k, j] * kmesh[k] * kmesh[j]
               for k in range(grid.dim) for j in range(grid.dim))
    dt = t_end / steps
    half = np.exp(zeta * sym * dt / 2)
    u = u0.values
    for _ in range(steps):
        u = np.fft.ifftn(half * np.fft.fftn(u))
        k1 = zeta * R(u)
        k2 = zeta * R(u + dt / 2 * k1)
        k3 = zeta * R(u + dt / 2 * k2)
        k4 = zeta * R(u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        u = np.fft.ifftn(half * np.fft.fftn(u))
    return u


ORACLE_FIELDS = {
    "1d": (Grid((15.0,), (512,)), CoefficientField(
        1, ((pe("1 + 0.06*exp(-x1^2/4)"),),)), 1.0, 128),
    # off-diagonal delta and a nonzero potential
    "2d": (Grid((6.0, 6.0), (32, 32)), CoefficientField(
        2, ((pe("1 + 0.05*exp(-x1^2/4)"), pe("0.03*exp(-(x1^2 + x2^2)/4)")),
            (pe("0.03*exp(-(x1^2 + x2^2)/4)"), pe("1"))),
        pe("0.1*x1*x2/(1 + x1^2)")), 0.5, 64),
    "3d": (Grid((6.0, 6.0, 6.0), (16, 16, 16)), CoefficientField(
        3, ((pe("1 + 0.05*exp(-x1^2/4)"), pe("0"), pe("0")),
            (pe("0"), pe("1"), pe("0")),
            (pe("0"), pe("0"), pe("1 + 0.04*exp(-x3^2/4)")))), 0.5, 32),
}


@pytest.mark.parametrize("d", [SCHRODINGER, DissipationParams(0.3, 1.0)],
                         ids=["zeta=i", "dissipative"])
@pytest.mark.parametrize("case", ORACLE_FIELDS)
def test_propagate_matches_physical_space_rk4(case, d):
    grid, fld, t_end, steps = ORACLE_FIELDS[case]
    values = band_limited_noise(grid, np.random.default_rng(5), 1.5)
    u0 = WaveState(0.0, values, grid)
    ref = _reference_propagate(u0, fld, d.zeta, t_end, steps)
    got = propagate(u0, fld, d, (0.0, t_end), steps, 3).frames[-1]
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_horner_step_is_the_degree_four_taylor_polynomial():
    # |c R| is of order one here, so each power of c R shows in the sum
    grid = Grid((8.0,), (64,))
    fld = CoefficientField(1, ((pe("1 + 0.3*exp(-x1^2/4)"),),),
                           pe("cos(x1)"))
    abar, R = _reference_remainder(grid, fld)
    delta = [[sample(fld.entry(0, 0), grid.open_mesh) - abar[0, 0]]]
    c = 0.15 * (0.5 + 1j)
    w = band_limited_noise(grid, np.random.default_rng(2), 6.0)
    term, expected = w, w.copy()
    for m in range(1, 5):
        term = c * R(term) / m
        expected += term
    assert np.linalg.norm(term) > 1e-2 * np.linalg.norm(w)
    what = np.fft.fft(w)
    _remainder_step(grid, delta, sample(fld.potential, grid.open_mesh),
                    c)(what)
    got = np.fft.ifft(what)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
