"""Oracles and checks for the benchmark, written apart from ucont.

Every oracle here uses numpy or sympy directly and never imports ucont:
closed-form Gaussian flows, the identity-field commutator form, the
Carleman left-hand side, an independent checkpoint reader, least-squares
fits.  Each ``check_*`` function takes plain values and returns
``(ok, detail)``, so a test can feed it perturbed values and watch it fail.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import sympy as sp

SLACK_TOL = 1e-6
COMM_REL_TOL = 1e-7
LHS_REL_TOL = 1e-10
EXPONENT_TOL = 0.2


# ---------------------------------------------------------------------------
# spectral helpers
# ---------------------------------------------------------------------------

def axis_points(L: float, n: int) -> np.ndarray:
    return -L + (2 * L / n) * np.arange(n)


def spectral_dx(values: np.ndarray, L: float, axis: int) -> np.ndarray:
    """First derivative along ``axis`` on [-L, L), Nyquist mode zeroed."""
    n = values.shape[axis]
    k = 2 * np.pi * np.fft.fftfreq(n, d=2 * L / n)
    k[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis)
                       * (1j * k).reshape(shape), axis=axis)


def smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return 10 * u ** 3 - 15 * u ** 4 + 6 * u ** 5


def smoothstep_d1(u):
    inside = (u > 0.0) & (u < 1.0)
    return np.where(inside, 30 * u ** 2 * (1 - u) ** 2, 0.0)


def profile(t, plateau, knots):
    k0, k1, k2, k3 = knots
    return plateau * smoothstep((t - k0) / (k1 - k0)) \
        * smoothstep((k3 - t) / (k3 - k2))


def profile_d1(t, plateau, knots):
    k0, k1, k2, k3 = knots
    u1, u2 = (t - k0) / (k1 - k0), (k3 - t) / (k3 - k2)
    return plateau * (smoothstep_d1(u1) / (k1 - k0) * smoothstep(u2)
                      - smoothstep(u1) * smoothstep_d1(u2) / (k3 - k2))


# ---------------------------------------------------------------------------
# Carleman layer: frontier and samples
# ---------------------------------------------------------------------------

def fit_exponent(R, beta) -> float:
    """Least-squares slope of log beta against log R."""
    x, y = np.log(np.asarray(R, float)), np.log(np.asarray(beta, float))
    design = np.column_stack([np.ones_like(x), x])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(sol[1])


def check_exponent(R, beta, program_exponent, target):
    own = fit_exponent(R, beta)
    agrees = abs(own - program_exponent) <= 1e-9 * max(1.0, abs(own))
    ok = abs(own - target) <= EXPONENT_TOL and agrees
    return ok, (f"exponent {own:.4f} (target {target} +- {EXPONENT_TOL}); "
                f"program reports {program_exponent:.4f}")


def check_exponent_order(e_translated, e_cubic):
    return e_translated < e_cubic, \
        f"translated {e_translated:.4f} < cubic {e_cubic:.4f}"


def cubic_reference_beta(R, lam, r0, plateau, knots, C1=1.0) -> float:
    """The cubic threshold max(lam^-1 |p''|^{1/2} R^3 / r0, C1 (1+1/r0) R^2),
    with |p''| <= plateau * (10/sqrt 3) / w^2 for the quintic smoothstep."""
    w = min(knots[1] - knots[0], knots[3] - knots[2])
    d2max = plateau * (10.0 / math.sqrt(3.0)) / w ** 2
    return max(math.sqrt(d2max) * R ** 3 / (lam * r0),
               C1 * (1.0 + 1.0 / r0) * R ** 2)


def check_bracket(betas, refs):
    """No frontier beta may sit on the bisection floor ref/256 or cap 4 ref."""
    hits = [(b, r) for b, r in zip(betas, refs)
            if math.isclose(b, r / 256.0, rel_tol=1e-9)
            or math.isclose(b, 4.0 * r, rel_tol=1e-9)]
    return not hits, f"{len(hits)} of {len(betas)} beta* on a bracket end"


def commutator_form_identity(values, L, R, beta, plateau, knots) -> float:
    """<[S,A]f, f> for the identity field in 1-D under the radial weight
    beta (|x/R|^2 + p(t)), from the closed form

        8 b ||D_x f||^2 + 32 b^3 ||x f||^2 + beta <(D_t p' - p' D_t) f, f>

    with b = beta / R^2 and D_t the periodic spectral time derivative."""
    nt, nx = values.shape
    h, dt = 2 * L / nx, 1.0 / nt
    x = axis_points(L, nx)[None, :]
    t = (np.arange(nt) * dt)[:, None]
    b = beta / R ** 2
    grad = spectral_dx(values, L, 1)
    dp = profile_d1(t, plateau, knots)
    # the time axis [0, 1) is a periodic box of half-length 1/2
    time_term = spectral_dx(dp * values, 0.5, 0) \
        - dp * spectral_dx(values, 0.5, 0)
    vol = h * dt
    return float(8 * b * np.sum(np.abs(grad) ** 2) * vol
                 + 32 * b ** 3 * np.sum(x ** 2 * np.abs(values) ** 2) * vol
                 + beta * np.real(np.sum(time_term * np.conj(values))) * vol)


def check_commutator(own, program):
    rel = abs(program - own) / max(abs(own), 1e-300)
    return rel <= COMM_REL_TOL, \
        f"<[S,A]f,f> {program:.9e} vs oracle {own:.9e} (rel {rel:.1e})"


def carleman_lhs(values, extents, R, beta, plateau, knots, translated):
    """beta/R^2 ||grad f||^2 + beta^3/R^6 ||q f||^2 on the space-time grid,
    q = |x/R + p(t) e1| (translated) or |x| (radial)."""
    nt = values.shape[0]
    shape = values.shape[1:]
    meshes = np.meshgrid(*(axis_points(L, n) for L, n in zip(extents, shape)),
                         indexing="ij")
    vol = float(np.prod([2 * L / n for L, n in zip(extents, shape)])) / nt
    grad_sq = sum(np.abs(spectral_dx(values, L, 1 + i)) ** 2
                  for i, L in enumerate(extents))
    if translated:
        t = np.arange(nt) / nt
        p = profile(t, plateau, knots).reshape((nt,) + (1,) * len(shape))
        q2 = (meshes[0][None] / R + p) ** 2 \
            + sum((m[None] / R) ** 2 for m in meshes[1:])
    else:
        q2 = sum(m ** 2 for m in meshes)[None]
    return float(beta / R ** 2 * np.sum(grad_sq) * vol
                 + beta ** 3 / R ** 6 * np.sum(q2 * np.abs(values) ** 2) * vol)


def check_threshold(beta, own):
    """The program's threshold beta1 against the oracle's formula value."""
    ok = abs(beta - own) <= 1e-12 * own
    return ok, f"beta1 {beta:.12g} vs oracle {own:.12g}"


def check_sample(slack, lhs, rhs, own_lhs):
    lhs_rel = abs(lhs - own_lhs) / own_lhs
    slack_rel = abs(slack - rhs / own_lhs) / abs(slack)
    ok = slack >= 1.0 - SLACK_TOL and lhs_rel <= LHS_REL_TOL \
        and slack_rel <= LHS_REL_TOL
    return ok, (f"slack {slack:.4g} >= 1-{SLACK_TOL:g}; lhs rel diff "
                f"{lhs_rel:.1e}, slack rel diff {slack_rel:.1e}")


# ---------------------------------------------------------------------------
# symbolic layer
# ---------------------------------------------------------------------------

def check_t_decomposition(identically_zero, residual_max, spatial_order):
    worst = max(residual_max.values())
    ok = bool(identically_zero) and worst == 0.0 and spatial_order <= 2
    return ok, (f"residuals identically zero: {identically_zero} (max "
                f"{worst}); commutator spatial order {spatial_order} <= 2")


def quadratic_commutator_target(beta, xs):
    """[S, A] = -8 beta Lap + 32 beta^3 |x|^2 for the identity field and
    the weight beta |x|^2, keyed like ucont's operator terms."""
    n = len(xs)
    out = {(0, (0,) * n): 32 * beta ** 3 * sum(x ** 2 for x in xs)}
    for i in range(n):
        out[(0, tuple(2 if j == i else 0 for j in range(n)))] = -8 * beta
    return out


def check_commutator_terms(terms, target):
    same_keys = set(terms) == set(target)
    diffs = [k for k in target
             if k not in terms or sp.expand(terms[k] - target[k]) != 0]
    return same_keys and not diffs, \
        f"{len(terms)} terms; keys equal: {same_keys}; differing: {diffs}"


def identity_commutator_applied(probe, beta, t, xs):
    """S(A p) - A(S p) with S = i d_t + Lap + |grad phi|^2 and
    A = -2 grad phi . grad - Lap phi - i d_t phi, phi = beta |x|^2."""
    phi = beta * sum(x ** 2 for x in xs)
    grad = [sp.diff(phi, x) for x in xs]
    lap_phi = sum(sp.diff(phi, x, 2) for x in xs)

    def S(u):
        return sp.I * sp.diff(u, t) + sum(sp.diff(u, x, 2) for x in xs) \
            + sum(g ** 2 for g in grad) * u

    def A(u):
        return -2 * sum(g * sp.diff(u, x) for g, x in zip(grad, xs)) \
            - lap_phi * u - sp.I * sp.diff(phi, t) * u

    return S(A(probe)) - A(S(probe))


def check_applied_commutator(own, program):
    diff = sp.expand(own - program)
    if diff != 0:
        diff = sp.simplify(diff)
    return diff == 0, f"SA - AS minus program commutator = {diff}"


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def free_gaussian(x, s, t, center=0.0):
    """exp(-(x-c)^2 / 4s) evolved by d_t u = i u_xx for time t (1-D)."""
    st = s + 1j * t
    return np.sqrt(s / st) * np.exp(-(x - center) ** 2 / (4 * st))


def boosted_gaussian(x, s, t, c):
    """Same packet under d_t u = i (u_xx + c x u): the free solution moved by
    c t^2, times the phase exp(i (c t x - c^2 t^3 / 3))."""
    return np.exp(1j * (c * t * x - c ** 2 * t ** 3 / 3.0)) \
        * free_gaussian(x - c * t ** 2, s, t)


def l2_distance(a, b, h) -> float:
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2) * h))


def check_free_flow(err):
    return err < 1e-6, f"free-flow endpoint L2 error {err:.2e} < 1e-6"


def check_step_halving(err_coarse, err_fine):
    ratio = err_coarse / err_fine
    return 3.6 <= ratio <= 4.4, f"step-halving ratio {ratio:.3f} in [3.6, 4.4]"


def free_packet_H(beta, sigma, tau, t):
    """int e^{2 beta x^2} |u(t)|^2 for the packet exp(-x^2/(4(sigma+i tau)))
    under the free flow."""
    m2 = sigma ** 2 + (tau + t) ** 2
    rate = sigma / (2 * m2) - 2 * beta
    return math.sqrt((sigma ** 2 + tau ** 2) / m2) * math.sqrt(math.pi / rate)


def check_free_H(times, H, beta, sigma, tau):
    closed = np.array([free_packet_H(beta, sigma, tau, t) for t in times])
    worst = float(np.max(np.abs(np.asarray(H) / closed - 1)))
    return worst < 1e-6, f"beta={beta}: max |H/closed - 1| {worst:.1e} < 1e-6"


def check_mass_drift(frames, h):
    masses = np.sum(np.abs(frames) ** 2, axis=1) * h
    drift = abs(masses[-1] - masses[0]) / masses[0]
    return drift < 1e-7, f"mass drift {drift:.2e} < 1e-7"


def field_smallness(amp, width2, L, npts=2001):
    """sup |x| |a'(x)| for a = 1 + amp exp(-x^2 / width2) on [-L, L]."""
    x = np.linspace(-L, L, npts)
    return float(np.max(np.abs(x * amp * (-2 * x / width2)
                               * np.exp(-x ** 2 / width2))))


def check_log_convexity(times, H, smallness):
    logH = np.log(np.asarray(H, float))
    tt = np.asarray(times, float)
    dt = tt[1] - tt[0]
    d2 = (logH[2:] - 2 * logH[1:-1] + logH[:-2]) / dt ** 2
    worst = float(np.min(d2))
    return worst >= -1e-3 and smallness <= 0.05, \
        f"min d2 log H {worst:.4f} >= -1e-3 at smallness {smallness:.4f}"


def annulus_fits(R, delta):
    """Relative residuals of log delta ~ c - C0 R^p for p = 2, 3."""
    R = np.asarray(R, float)
    logd = np.log(np.asarray(delta, float))
    spread = float(np.linalg.norm(logd - logd.mean()))
    out = {}
    for p in (2, 3):
        design = np.column_stack([np.ones_like(R), -(R ** p)])
        sol, *_ = np.linalg.lstsq(design, logd, rcond=None)
        out[p] = float(np.linalg.norm(logd - design @ sol)) / spread
    return out


def check_annulus(R, delta):
    fits = annulus_fits(R, delta)
    ok = fits[2] < fits[3] and fits[2] < 0.05
    return ok, (f"p=2 residual {fits[2]:.4f} (< 0.05) vs p=3 "
                f"{fits[3]:.4f}")


def poincare_terms(values, extents, r):
    """(||f||_{B_r}, r ||grad f||_{B_2r}, r^-1 ||x f||_{B_2r})."""
    shape = values.shape
    meshes = np.meshgrid(*(axis_points(L, n) for L, n in zip(extents, shape)),
                         indexing="ij")
    vol = float(np.prod([2 * L / n for L, n in zip(extents, shape)]))
    r2 = sum(m ** 2 for m in meshes)
    rad = np.sqrt(r2)
    inner, outer = rad <= r, rad <= 2 * r
    f2 = np.abs(values) ** 2
    g2 = sum(np.abs(spectral_dx(values, L, i)) ** 2
             for i, L in enumerate(extents))
    return (math.sqrt(float(f2[inner].sum() * vol)),
            r * math.sqrt(float(g2[outer].sum() * vol)),
            math.sqrt(float((r2 * f2)[outer].sum() * vol)) / r)


def check_poincare(rows, own_rows):
    """rows: (r, lhs, rhs_grad, rhs_moment, ratio) from the program;
    own_rows: (lhs, rhs_grad, rhs_moment) recomputed for the first rows."""
    ratios = [lhs / (g + m) for _, lhs, g, m, _ in rows]
    worst = max(ratios)
    consistent = all(math.isclose(q, row[4], rel_tol=1e-12)
                     for q, row in zip(ratios, rows))
    agree = all(math.isclose(a, b, rel_tol=1e-10)
                for own, row in zip(own_rows, rows)
                for a, b in zip(own, row[1:4]))
    return worst < 2.0 and consistent and agree, \
        (f"worst ratio {worst:.4f} < 2 over {len(rows)} rows; "
         f"recomputed terms agree: {agree}")


def check_reports(statuses, written):
    """statuses: {run: {check: status}} from the program's run reports;
    written: [(expected kind, kind read from report.json or None)]."""
    bad = [f"{run}:{name}" for run, checks in statuses.items()
           for name, status in checks.items() if status == "fail"]
    missing = [want for want, found in written if found != want]
    return not bad and not missing, \
        (f"{len(written) - len(missing)} of {len(written)} reports written; "
         f"failed checks: {bad}")


def read_checkpoint(path):
    """Independent reader of the trajectory container: magic, version,
    dimension, points, extents, times, little-endian complex64 frames."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"UCTJ":
        raise ValueError("bad magic")
    _, n = struct.unpack_from("<II", data, 4)
    pos = 12
    points = struct.unpack_from(f"<{n}I", data, pos)
    pos += 4 * n
    extents = struct.unpack_from(f"<{n}d", data, pos)
    pos += 8 * n
    (ntimes,) = struct.unpack_from("<I", data, pos)
    pos += 4
    times = np.frombuffer(data, "<f8", ntimes, pos)
    pos += 8 * ntimes
    count = ntimes * int(np.prod(points))
    if len(data) != pos + 8 * count:
        raise ValueError("checkpoint size does not match its header")
    frames = np.frombuffer(data, "<c8", count, pos).reshape((ntimes, *points))
    return points, extents, times, frames


def check_checkpoint(ckpt_times, ckpt_frames, times, frames):
    frames = np.asarray(frames)
    if ckpt_frames.shape != frames.shape:
        return False, f"shape {ckpt_frames.shape} != {frames.shape}"
    tol = 2.0 ** -23 * np.abs(frames) + 1e-37
    err = np.abs(ckpt_frames.astype(complex) - frames)
    ok = np.array_equal(ckpt_times, times) and bool(np.all(err <= tol))
    return ok, (f"{frames.shape[0]} frames read back; worst error / "
                f"complex64 rounding {float(np.max(err / tol)):.3f} <= 1")
