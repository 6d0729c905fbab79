"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the tolerances used and asserting within its runtime budget."""

import math
import time

import numpy as np
import sympy as sp

from ucont.carleman import (CutoffSpec, SweepConfig, beta_threshold_cubic,
                            carleman_sides_cubic, carleman_sweep,
                            make_test_function)
from ucont.coefficients import (CoefficientField, SamplingBox,
                                TransversalField, decay_smallness,
                                ellipticity_bounds)
from ucont.analysis import SubordinationCase, poincare_weighted_check, \
    subordination_ratio
from ucont.diagnostics import (INTERP_C, decay_schedule_companion,
                               gaussian_decay_schedule, logconvexity_check,
                               annulus_mass_profile)
from ucont.evolution import (HEAT, SCHRODINGER, DissipationParams,
                             GaussianPacket, WaveState,
                             linear_potential_closed_form, mass, propagate)
from ucont.expressions import const, parse_expression
from ucont.grids import Grid, SpaceTimeGrid, band_limited_noise, l2_inner, \
    l2_norm_sq
from ucont.operators import (ConjugatedGridOps, DiffOperator, WeightSpec,
                             commutator, conjugate_decompose,
                             verify_T_decomposition)
from ucont.expressions import X_SYMBOLS

pe = parse_expression
BETA = sp.Symbol("beta", positive=True)
RSYM = sp.Symbol("R", positive=True)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}]: {verdict} - {detail} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def l2_dist(a, b, grid):
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2) * grid.cell_volume))


# ---------------------------------------------------------------------------
# criterion 1: symbolic T-decomposition over ten configurations
# ---------------------------------------------------------------------------

def test_acceptance_01_t_decomposition():
    t0 = time.perf_counter()

    def tf2():
        return TransversalField(2, const(2), ((pe("1 + 0.1/(1+x2^2)"),),))

    def tf3():
        at = ((pe("1 + 0.1*exp(-x2^2)"), pe("0.05*x2*x3")),
              (pe("0.05*x2*x3"), pe("1 + 0.1*exp(-x3^2)")))
        return TransversalField(3, const(1), at)

    configs = [
        (CoefficientField.identity(1), WeightSpec("quadratic", BETA)),
        (CoefficientField.identity(2), WeightSpec("quadratic", BETA)),
        (CoefficientField.diagonal((const(2), const(3))),
         WeightSpec("scaled-time", BETA, R=RSYM)),
        (CoefficientField(1, ((pe("1 + 0.1/(1+x1^2)"),),)),
         WeightSpec("quadratic", BETA)),
        (CoefficientField(2, ((pe("1 + 0.2*sin(x1)"), pe("0.1*x1*x2")),
                              (pe("0.1*x1*x2"), pe("2 + 0.2*cos(x2)")))),
         WeightSpec("quadratic", BETA)),
        (tf2(), WeightSpec("translated", BETA, R=RSYM)),
        (CoefficientField.identity(3), WeightSpec("translated", BETA, R=RSYM)),
        (CoefficientField.identity(2),
         WeightSpec("power", BETA, alpha=sp.Rational(3, 2))),
        (tf3(), WeightSpec("translated", BETA, R=RSYM)),
        (CoefficientField.diagonal((pe("1+0.1*exp(-x1^2)"),
                                    pe("1+0.1*exp(-x2^2)"))),
         WeightSpec("scaled-time", BETA, R=RSYM)),
    ]
    worst = 0.0
    all_ok = True
    for fld, w in configs:
        rep = verify_T_decomposition(fld, w)
        all_ok &= rep.identically_zero
        worst = max(worst, max(rep.residual_max.values()))
    _report(1, "symbolic T-decomposition", all_ok and worst == 0.0,
            f"10 configurations, residuals identically zero (max {worst})",
            time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 2: commutator specialization
# ---------------------------------------------------------------------------

def test_acceptance_02_commutator_specialization():
    t0 = time.perf_counter()
    n = 2
    s_op, a_op = conjugate_decompose(CoefficientField.identity(n),
                                     WeightSpec("quadratic", BETA))
    comm = commutator(s_op, a_op, max_spatial_order=2)
    x1, x2 = X_SYMBOLS[:2]
    target = DiffOperator.build(2, {
        (0, (2, 0)): -8 * BETA, (0, (0, 2)): -8 * BETA,
        (0, (0, 0)): 32 * BETA ** 3 * (x1 ** 2 + x2 ** 2)})
    symbolic_ok = comm.terms.keys() == target.terms.keys() and all(
        sp.expand(comm.terms[k] - target.terms[k]) == 0 for k in comm.terms)
    oracle_ok = True
    for k in range(3):
        probe = x1 ** k * x2 * sp.exp(-(x1 ** 2 + x2 ** 2))
        direct = sp.expand(
            s_op.apply_symbolic(a_op.apply_symbolic(probe))
            - a_op.apply_symbolic(s_op.apply_symbolic(probe)))
        oracle_ok &= sp.simplify(direct - target.apply_symbolic(probe)) == 0
    _report(2, "commutator specialization", symbolic_ok and oracle_ok,
            "[S,A] = -8 b Lap + 32 b^3 |x|^2 exactly (symbolic + monomial "
            "application oracle)", time.perf_counter() - t0, 1.0)


# ---------------------------------------------------------------------------
# criterion 3: symmetry / antisymmetry quadratic forms
# ---------------------------------------------------------------------------

def _random_st_field(st, seed, k_cut=6.0):
    rng = np.random.default_rng(seed)
    noise = band_limited_noise(st.space, rng, k_cut)
    win = np.exp(-((st.times - 0.5) / 0.18) ** 2)
    env = np.exp(-st.space.radius_sq / 2.0)
    return (win.reshape((st.nt,) + (1,) * st.space.dim)
            * (noise * env)[None]).astype(complex)


def test_acceptance_03_symmetry_antisymmetry():
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for dim, pts in ((1, (256,)), (2, (64, 64))):
        st = SpaceTimeGrid(32, Grid((8.0,) * dim, pts))
        fld = CoefficientField.identity(dim) if dim == 2 else \
            CoefficientField(1, ((pe("1 + 0.3*exp(-x1^2/2)"),),))
        ops = ConjugatedGridOps.build(fld, WeightSpec("quadratic", 0.15), st)
        for seed in range(50):
            f = _random_st_field(st, seed)
            g = _random_st_field(st, 1000 + seed)
            sf, sg = ops.apply_S(f), ops.apply_S(g)
            af, ag = ops.apply_A(f), ops.apply_A(g)
            dt = st.dt
            nf = math.sqrt(l2_norm_sq(f, st.space) * dt)
            ng = math.sqrt(l2_norm_sq(g, st.space) * dt)
            nsf = math.sqrt(l2_norm_sq(sf, st.space) * dt)
            nsg = math.sqrt(l2_norm_sq(sg, st.space) * dt)
            naf = math.sqrt(l2_norm_sq(af, st.space) * dt)
            nag = math.sqrt(l2_norm_sq(ag, st.space) * dt)
            sym = abs(l2_inner(sf, g, st.space) * dt
                      - l2_inner(f, sg, st.space) * dt) / (nsf * ng + nf * nsg)
            anti = abs(l2_inner(af, g, st.space) * dt
                       + l2_inner(f, ag, st.space) * dt) / (naf * ng + nf * nag)
            worst = max(worst, sym, anti)
            pairs += 1
    _report(3, "symmetry/antisymmetry", worst < 1e-7,
            f"{pairs} random pairs, worst normalized defect {worst:.2e} < 1e-7",
            time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 4: free-flow fidelity and second-order convergence
# ---------------------------------------------------------------------------

def test_acceptance_04_free_flow():
    t0 = time.perf_counter()
    grid = Grid((15.0,), (1024,))
    packet = GaussianPacket(1.0, (0.0,))
    u0 = WaveState(0.0, packet.sample(grid), grid)
    fld = CoefficientField.identity(1)
    traj = propagate(u0, fld, SCHRODINGER, steps=128, n_frames=2)
    err = l2_dist(traj.frames[-1], packet.flow(1j, 1.0).sample(grid), grid)
    # order measured against the boosted-frame closed form (linear potential),
    # where the splitting error is genuinely second order
    lin = CoefficientField.identity(1, pe("x1/2"))
    ref = linear_potential_closed_form(packet, 0.5, 1.0, grid)
    errs = [l2_dist(propagate(u0, lin, SCHRODINGER, steps=s, n_frames=2)
                    .frames[-1], ref, grid) for s in (64, 128)]
    ratio = errs[0] / errs[1]
    ok = err < 1e-6 and 3.6 < ratio < 4.4
    _report(4, "free-flow fidelity", ok,
            f"L2 error {err:.2e} < 1e-6; step-halving ratio {ratio:.3f} in "
            f"[3.6, 4.4]", time.perf_counter() - t0, 10.0)


# ---------------------------------------------------------------------------
# criterion 5: Hardy saturation sweep
# ---------------------------------------------------------------------------

def test_acceptance_05_hardy_sweep():
    t0 = time.perf_counter()
    svals = (1.0, 0.5, 0.1, 0.01)
    prods = []
    worst = 0.0
    for s in svals:
        p = GaussianPacket(complex(s), (0.0,))
        ab = p.modulus_rate() * p.flow(1j, 1.0).modulus_rate()
        worst = max(worst, abs(ab - 1.0 / (16 * (s ** 2 + 1))))
        prods.append(ab)
    below = all(ab <= 1 / 16 + 1e-15 for ab in prods)
    mono = all(a < b for a, b in zip(prods, prods[1:]))
    ok = worst < 1e-8 and below and mono
    _report(5, "Hardy saturation sweep", ok,
            f"AB = 1/(16(s^2+1)) within {worst:.1e} (tol 1e-8), always <= "
            f"1/16, monotone", time.perf_counter() - t0, 5.0)


# ---------------------------------------------------------------------------
# criterion 6: log-convexity
# ---------------------------------------------------------------------------

def _free_H_closed(beta, sigma, tau, t):
    st2 = sigma ** 2 + (tau + t) ** 2
    amp2 = math.sqrt(sigma ** 2 + tau ** 2) / math.sqrt(st2)
    rate = sigma / (2 * st2) - 2 * beta
    return amp2 * math.sqrt(math.pi / rate)


def test_acceptance_06_log_convexity():
    t0 = time.perf_counter()
    packet = GaussianPacket(0.5 - 0.5j, (0.0,))
    g = Grid((11.25,), (1024,))
    fld = CoefficientField.identity(1)
    u0 = WaveState(0.0, packet.sample(g), g)
    traj = propagate(u0, fld, SCHRODINGER, steps=64, n_frames=65)
    details = []
    ok = INTERP_C == 1 + 1e-6       # the C the line states
    for beta in (0.05, 0.1, 0.2):
        tr = logconvexity_check(traj, beta, 0.0, boundary_budget=1e-4)
        closed = np.array([_free_H_closed(beta, 0.5, -0.5, float(t))
                           for t in tr.times])
        agree = float(np.max(np.abs(tr.H / closed - 1)))
        ok &= (not tr.violation) and tr.min_d2_logH >= -1e-3 and agree < 1e-6
        details.append(f"b={beta}: ratio {tr.max_interp_ratio_c1:.9f}, "
                       f"d2min {tr.min_d2_logH:.3f}, oracle {agree:.1e}")
    # variable-coefficient run: smallness 0.044 <= 0.05, V = 0
    var = CoefficientField(1, ((pe("1 + 0.06*exp(-x1^2/4)"),),))
    small = decay_smallness(var, SamplingBox.cube(1, 13.5, 2001))
    gv = Grid((13.5,), (2048,))
    u0v = WaveState(0.0, packet.sample(gv), gv)
    trajv = propagate(u0v, var, SCHRODINGER, steps=2048, n_frames=65)
    trv = logconvexity_check(trajv, 0.05, 0.0, boundary_budget=1e-8)
    ok &= small <= 0.05 and trv.min_d2_logH >= -1e-3 and not trv.violation
    details.append(f"var field (smallness {small:.3f}): d2min "
                   f"{trv.min_d2_logH:.3f}")
    _report(6, "log-convexity", ok,
            "C = 1+1e-6, d2 floor -1e-3, 65 samples: " + "; ".join(details),
            time.perf_counter() - t0, 300.0)


# ---------------------------------------------------------------------------
# criterion 7: regularized-flow convergence and the semigroup identity
# ---------------------------------------------------------------------------

def test_acceptance_07_regularized_flow():
    t0 = time.perf_counter()
    grid = Grid((15.0,), (1024,))
    packet = GaussianPacket(1.0, (0.0,))
    fld = CoefficientField.identity(1)
    u0 = WaveState(0.0, packet.sample(grid), grid)
    schr = propagate(u0, fld, SCHRODINGER, steps=128, n_frames=2)
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        reg = propagate(u0, fld, DissipationParams(eps, 1.0), steps=128,
                        n_frames=2)
        dists.append(l2_dist(reg.frames[-1], schr.frames[-1], grid))
    decreasing = dists[0] > dists[1] > dists[2]

    eps = 1e-2
    d = DissipationParams(eps, 1.0)
    direct = propagate(u0, fld, d, (0.0, 1.0), 128, 2)
    first = propagate(u0, fld, d, (0.0, 0.4), 64, 2)
    second = propagate(WaveState(0.4, first.frames[-1], grid), fld, d,
                       (0.4, 1.0), 96, 2)
    comp_err = l2_dist(second.frames[-1], direct.frames[-1], grid) \
        / math.sqrt(mass(direct.state(-1)))
    heat_after = propagate(WaveState(0.0, schr.frames[-1], grid), fld, HEAT,
                           (0.0, eps), 64, 2)
    reg_end = propagate(u0, fld, d, (0.0, 1.0), 128, 2).frames[-1]
    mix_err = l2_dist(heat_after.frames[-1], reg_end, grid) \
        / math.sqrt(mass(direct.state(-1)))
    ok = decreasing and comp_err < 1e-7 and mix_err < 1e-7
    _report(7, "regularized-flow convergence", ok,
            f"endpoint distances {[f'{d_:.3e}' for d_ in dists]} strictly "
            f"decreasing; composition {comp_err:.1e} and heat-after-flow "
            f"identity {mix_err:.1e} < 1e-7",
            time.perf_counter() - t0, 120.0)


# ---------------------------------------------------------------------------
# criterion 8: Gaussian decay schedule of the heat flow
# ---------------------------------------------------------------------------

def test_acceptance_08_decay_schedule():
    t0 = time.perf_counter()
    g = Grid((10.0,), (1024,))
    packet = GaussianPacket(1.0, (0.0,))     # gamma = 1/4
    fld = CoefficientField.identity(1)
    u0 = WaveState(0.0, packet.sample(g), g)
    traj = propagate(u0, fld, HEAT, steps=64, n_frames=65)
    sch = gaussian_decay_schedule(0.25, HEAT, 1.0, 1.0, 1.0)
    exact = 1.0 / (4.0 * (1.0 + sch.times))
    dominated = bool(np.all(exact >= sch.alphas - 1e-12))
    margins = decay_schedule_companion(traj, sch)
    finite = bool(np.all(np.isfinite(margins)))
    held = bool(margins.min() >= 1.0 - 1e-9)
    ok = dominated and finite and held
    _report(8, "Gaussian decay schedule", ok,
            f"weighted norm finite at beta = alpha(t) with bound margin >= "
            f"{margins.min():.6f} (tol 1-1e-9); exact rate 1/(4(1+t)) "
            f"dominates alpha(t)", time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 9: cubic-regime inequality at threshold
# ---------------------------------------------------------------------------

def test_acceptance_09_carleman_cubic():
    t0 = time.perf_counter()
    st = SpaceTimeGrid(64, Grid((8.0,), (512,)))
    cut = CutoffSpec(r0=1.0, R=1.0)
    fields = {
        "identity": CoefficientField.identity(1),
        "mild": CoefficientField(1, ((pe("1 + 0.06*exp(-x1^2/4)"),),)),
    }
    small = decay_smallness(fields["mild"], SamplingBox.cube(1, 8.0, 2001))
    min_slack = math.inf
    for name, fld in fields.items():
        lam, _ = ellipticity_bounds(fld, SamplingBox.cube(1, 8.0, 65))
        beta1 = beta_threshold_cubic(lam, cut, 1.0)
        for seed in range(100):
            f = make_test_function("annulus", st, cut, seed)
            rep = carleman_sides_cubic(f, fld, beta1, cut, lam=lam)
            min_slack = min(min_slack, rep.slack)
    ok = min_slack >= 1.0 - 1e-6 and small <= 0.05
    _report(9, "cubic-regime inequality", ok,
            f"100 samples x (identity, smallness {small:.3f} field) at "
            f"beta = beta1: min slack {min_slack:.1f} >= 1-1e-6",
            time.perf_counter() - t0, 600.0)


# ---------------------------------------------------------------------------
# criterion 10: translated-weight inequality and frontier exponents
# ---------------------------------------------------------------------------

def test_acceptance_10_carleman_translated():
    t0 = time.perf_counter()
    # frontier exponents on matched one-dimensional configurations
    cub = carleman_sweep(SweepConfig(
        mode="annulus", points=(512,), R_values=(1.0,), n_samples=2,
        frontier_R_values=(2.0, 2.8, 4.0, 5.6), frontier_probes=6))
    tra = carleman_sweep(SweepConfig(
        mode="translated", nt=128, points=(2048,), extents=(10.0,),
        R_values=(1.0,), n_samples=2,
        frontier_R_values=(1.5, 2.1, 3.0, 4.2), frontier_probes=8))
    e_c, e_t = cub.frontier_exponent, tra.frontier_exponent
    c0 = tra.fitted_c0

    # 100 admissible samples under the block assumption at beta = c0 R^2
    tf = TransversalField(2, const(1),
                          ((pe("1 + 0.06*exp(-x2^2/4)"),),))
    sweep = carleman_sweep(SweepConfig(
        mode="translated", nt=128, extents=(8.0, 4.0), points=(128, 64),
        space_width=1.0, R_values=(1.0, 1.5), n_samples=50, c0=c0), tf)
    ok = (abs(e_t - 2.0) <= 0.2 and abs(e_c - 3.0) <= 0.2 and e_t < e_c
          and sweep.min_slack >= 1.0 - 1e-6 and not sweep.failures)
    _report(10, "translated-weight inequality", ok,
            f"frontier exponents: translated {e_t:.2f} (2 +- 0.2) vs cubic "
            f"{e_c:.2f} (3 +- 0.2); 100 block-field samples at beta = "
            f"{c0:.2f} R^2: min slack {sweep.min_slack:.1f}",
            time.perf_counter() - t0, 900.0)


# ---------------------------------------------------------------------------
# criterion 11: lower-bound exponent fit
# ---------------------------------------------------------------------------

def test_acceptance_11_lowerbound_fit():
    t0 = time.perf_counter()
    g = Grid((18.0,), (2048,))
    packet = GaussianPacket(1.0, (0.0,))
    fld = CoefficientField.identity(1)
    u0 = WaveState(0.0, packet.sample(g), g)
    traj = propagate(u0, fld, SCHRODINGER, steps=1024, n_frames=65)
    prof = annulus_mass_profile(traj, np.linspace(2.0, 6.0, 9))
    res2 = prof.fits[2]["rel_residual"]
    ok = prof.preferred_p == 2 and res2 < 0.05
    _report(11, "lower-bound exponent fit", ok,
            f"preferred exponent p = {prof.preferred_p} with relative "
            f"residual {res2:.4f} < 0.05 (cubic-fit residual "
            f"{prof.fits[3]['rel_residual']:.4f})",
            time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 12: subordination inequality band
# ---------------------------------------------------------------------------

def test_acceptance_12_subordination():
    t0 = time.perf_counter()
    # band limit pinned before the build by 50-digit quadrature: 1.19152
    pinned_limit = 1.20
    rs = tuple(float(10 ** (-1 + 2 * i / 19)) for i in range(20))
    res = subordination_ratio(SubordinationCase(1.5, 10.0, 1.0, rs))
    mono = bool(np.all(np.diff(res.log_integrals) > 0))
    ok = res.band < pinned_limit and mono
    _report(12, "subordination band", ok,
            f"20 log-spaced r in [0.1, 10]: band max/min {res.band:.6f} < "
            f"{pinned_limit} (oracle-pinned), integral strictly increasing",
            time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 13: weighted Poincare worst ratio
# ---------------------------------------------------------------------------

def _embed_fine(coarse, fine_shape):
    ch = np.fft.fftn(coarse)
    out = np.zeros(fine_shape, dtype=complex)
    sl = tuple(np.r_[0:m // 2, -(m // 2):0] for m in coarse.shape)
    out[np.ix_(*sl)] = ch
    return np.fft.ifftn(out) * (np.prod(fine_shape) / np.prod(coarse.shape))


def test_acceptance_13_poincare():
    t0 = time.perf_counter()
    g = Grid((4.0, 4.0), (256, 256))
    gf = Grid((4.0, 4.0), (512, 512))
    radii = (0.5, 1.0, 2.0)
    worst, worst_f = 0.0, 0.0
    for i in range(200):
        f = band_limited_noise(g, np.random.default_rng(7000 + i), 6.0)
        ff = _embed_fine(f, gf.points)
        for chk in poincare_weighted_check(f, g, radii):
            worst = max(worst, chk.ratio)
        for chk in poincare_weighted_check(ff, gf, radii):
            worst_f = max(worst_f, chk.ratio)
    stable = abs(worst - worst_f) / worst < 0.05
    ok = stable and worst < 2.0
    _report(13, "weighted Poincare ratio", ok,
            f"worst ratio over 200 fields x 3 radii: {worst:.4f} (refined "
            f"{worst_f:.4f}, within 5%), below C(n) = 2",
            time.perf_counter() - t0, 120.0)


# ---------------------------------------------------------------------------
# criterion 14: CLI determinism, byte-identical CSVs
# ---------------------------------------------------------------------------

_DET_CONFIGS = {
    "hardy": """
[experiment]
kind = hardy
seed = 1
output = {out}
""",
    "subordination": """
[experiment]
kind = subordination
seed = 1
output = {out}

[params]
r_values = [0.1, 0.5, 1.0, 5.0]
""",
    "symbolic-verify": """
[experiment]
kind = symbolic-verify
seed = 1
output = {out}

[field]
dimension = 1

[weight]
variant = quadratic
""",
    "poincare": """
[experiment]
kind = poincare
seed = 2
output = {out}

[grid]
extents = [4.0, 4.0]
points = [128, 128]

[params]
radii = [0.5, 1.0]
n_fields = 10
""",
    "simulate": """
[experiment]
kind = simulate
seed = 4
output = {out}

[field]
dimension = 1

[grid]
extents = [12.0]
points = [512]

[evolution]
steps = 32
frames = 5
""",
    "convexity": """
[experiment]
kind = convexity
seed = 6
output = {out}

[field]
dimension = 1

[grid]
extents = [11.25]
points = [512]

[initial]
s_re = 0.5
s_im = -0.5

[evolution]
steps = 32
frames = 17

[weight]
beta_values = [0.05]
""",
    "lowerbound-fit": """
[experiment]
kind = lowerbound-fit
seed = 7
output = {out}

[field]
dimension = 1

[grid]
extents = [18.0]
points = [1024]

[evolution]
steps = 256
frames = 33

[params]
radii = [2.0, 3.0, 4.0, 5.0, 6.0]
""",
    "gauge-reduce": """
[experiment]
kind = gauge-reduce
seed = 8
output = {out}

[field]
dimension = 1
a11 = 1 + 0.5*exp(-x1^2)
potential = sin(x1)

[params]
npts = 2001
n_tests = 5
""",
    "carleman-sweep": """
[experiment]
kind = carleman-sweep
seed = 9
output = {out}

[grid]
extents = [8.0]
points = [256]
nt = 64

[params]
mode = "annulus"
R_values = [1.0]
n_samples = 5
""",
}


def test_acceptance_14_determinism(tmp_path):
    from ucont.experiments import run, validate
    t0 = time.perf_counter()
    mismatches = []
    for name, template in _DET_CONFIGS.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            run(validate(template.format(out=out)))
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        if not csvs:
            mismatches.append(f"{name}: no CSV artifacts")
        for csv in csvs:
            if (outs[0] / csv).read_bytes() != (outs[1] / csv).read_bytes():
                mismatches.append(f"{name}/{csv}")
    ok = not mismatches
    _report(14, "determinism", ok,
            f"{len(_DET_CONFIGS)} experiment kinds rerun with fixed seeds: "
            + ("all CSVs byte-identical" if ok else f"mismatch {mismatches}"),
            time.perf_counter() - t0, 300.0)
