"""Numeric instantiation of the two weighted a-priori inequalities.

Both inequalities bound gradient and moment energies of an admissible test
function by the conjugated-operator energy ||(S+A)f||^2, with the weight
scale beta admissible above a power of R: proportional to R^3 for the
radial (cubic-regime) weight and to R^2 for the x1-translated weight.

The right-hand side is always evaluated in conjugated form, so the
exponential weight itself is never instantiated and large beta causes no
overflow.  Both sides are polynomials in beta, evaluated from inner
products of the split realized once at unit weight scale.  The
admissibility frontier is measured on the commutator quadratic form
<[S,A]f, f> = 2 Re<Sf, Af>, whose sign change is what the beta thresholds
gate: a probe's frontier is the exact root of
c1 beta + c3 beta^3 = lambda^2 (g1 beta + g3 beta^3).  The inequality
itself holds with large slack well below threshold for generic test
functions, so its pass/fail carries no frontier information.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField, SamplingBox, TransversalField, \
    ellipticity_bounds
from .grids import Grid, NumericGuardError, ResolutionError, SpaceTimeGrid, \
    band_limited_noise, check_resolved, pairwise_total, slabs, \
    spectral_gradient
from .operators import ConjugatedGridOps, WeightSpec

SMOOTHSTEP_D1_MAX = 15.0 / 8.0
SMOOTHSTEP_D2_MAX = 10.0 / math.sqrt(3.0)


def smoothstep5(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 across the transition."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def smoothstep5_slope(u: np.ndarray) -> np.ndarray:
    """Derivative of :func:`smoothstep5`: 30 u^2 (1 - u)^2 on [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u * u * (1.0 - u) ** 2


class SupportError(NumericGuardError, ValueError):
    """Requested support constraint unsatisfiable or violated on the grid."""


# the time profile rises from 0 to PROFILE_HEIGHT between the first two
# knots, stays flat through the third and falls back to 0 at the fourth; the
# transitions are quintic smoothsteps, so the derivative sup-norms are
# explicit.  Test functions vanish OUTER_PAD inside the box.
PROFILE_HEIGHT = 3.0
PROFILE_KNOTS = (0.125, 0.25, 0.75, 0.875)
OUTER_PAD = 0.5
_EDGE_WIDTH = min(PROFILE_KNOTS[1] - PROFILE_KNOTS[0],
                  PROFILE_KNOTS[3] - PROFILE_KNOTS[2])


@dataclass(frozen=True)
class CutoffSpec:
    """Inner radius, weight scale and spatial transition width used by the
    weighted inequalities and their test functions."""

    r0: float = 1.0
    R: float = 1.0
    space_width: float = 0.5

    def __post_init__(self):
        if self.R < 1.0:
            raise ValueError("weight scale R must be >= 1")

    @property
    def profile_d1_max(self) -> float:
        return PROFILE_HEIGHT * SMOOTHSTEP_D1_MAX / _EDGE_WIDTH

    @property
    def profile_d2_max(self) -> float:
        return PROFILE_HEIGHT * SMOOTHSTEP_D2_MAX / _EDGE_WIDTH ** 2

    def profile_values(self, t: np.ndarray) -> np.ndarray:
        return PROFILE_HEIGHT * self.time_window(t)

    def profile_slope(self, t: np.ndarray) -> np.ndarray:
        """d/dt of :meth:`profile_values`."""
        k = PROFILE_KNOTS
        w1, w2 = k[1] - k[0], k[3] - k[2]
        u1, u2 = (t - k[0]) / w1, (k[3] - t) / w2
        return PROFILE_HEIGHT * (smoothstep5_slope(u1) / w1 * smoothstep5(u2)
                                 - smoothstep5(u1) * smoothstep5_slope(u2) / w2)

    def time_window(self, t: np.ndarray) -> np.ndarray:
        """[0,1]-valued window supported exactly on the outer knots."""
        k = PROFILE_KNOTS
        return smoothstep5((t - k[0]) / (k[1] - k[0])) \
            * smoothstep5((k[3] - t) / (k[3] - k[2]))


def translated_shift(cutoff: CutoffSpec, st: SpaceTimeGrid,
                     rows: slice = slice(None)) -> np.ndarray:
    """|x/R + profile(t) e1| on the time rows ``rows`` of the space-time
    mesh."""
    prof = cutoff.profile_values(st.times[rows])
    shape = (prof.size,) + (1,) * st.space.dim
    q2 = (st.space.meshes[0][None] / cutoff.R + prof.reshape(shape)) ** 2
    for m in st.space.meshes[1:]:
        q2 = q2 + (m[None] / cutoff.R) ** 2
    return np.sqrt(q2)


@dataclass
class TestField:
    """Admissible space-time test function with its support certificate."""

    values: np.ndarray
    st: SpaceTimeGrid
    mode: str
    seed: int


def make_test_function(mode: str, st: SpaceTimeGrid, cutoff: CutoffSpec,
                       seed: int, *, carrier: float = 0.0,
                       t_center: float | None = None, t_width: float = 0.1,
                       x_center: float | None = None,
                       x_width: float | None = None,
                       resolution_budget: float | None = None) -> TestField:
    """Smooth compactly supported random field satisfying the mode's support
    constraint exactly on the grid (verified by exhaustive scan).

    mode 'annulus':    supp f within {|x| >= r0}, time support (1/8, 7/8)
    mode 'translated': supp f within {|x/R + profile(t) e1| >= 1}

    Optional knobs localize the band-limited noise: a plane-wave ``carrier``
    along x1, a Gaussian time window at ``t_center``, a spatial envelope at
    ``x_center`` (along x1).
    """
    if mode not in ("annulus", "translated"):
        raise ValueError(f"unknown test-function mode {mode!r}")
    if resolution_budget is None:
        # the moving support edge of the translated mode carries slow
        # C^2-cutoff harmonics in time; its quadratic forms converge anyway
        resolution_budget = 5e-4 if mode == "annulus" else 5e-3
    g = st.space
    h = max(g.spacings)
    w = cutoff.space_width
    if w / h < 8:
        raise SupportError(
            f"cutoff transition {w} spans {w/h:.1f} cells (< 8); refine grid")
    outer = min(g.extents) - OUTER_PAD
    rad = np.sqrt(g.radius_sq)
    if mode == "annulus" and cutoff.r0 + w >= outer - w:
        raise SupportError("empty admissible region: r0 too close to the box")

    k_cut = min(5.0, 0.15 * math.pi / h)
    k_nyq = math.pi / g.spacings[0]
    if abs(carrier) + k_cut > 0.45 * k_nyq:
        raise SupportError(
            f"carrier {carrier:+.1f} + band {k_cut:.1f} exceeds the "
            f"quadratic-form aliasing cap 0.45 * {k_nyq:.1f}")
    rng = np.random.default_rng(seed)
    noise = band_limited_noise(g, rng, k_cut,
                               carrier=(carrier, *(0.0,) * (g.dim - 1))
                               if carrier else None)
    tau = cutoff.time_window(st.times)
    if t_center is not None:
        tau = tau * np.exp(-((st.times - t_center) / t_width) ** 2)
    shape_t = (st.nt,) + (1,) * g.dim
    tau = tau.reshape(shape_t)
    outer_cut = smoothstep5((outer - rad) / w)
    if mode == "annulus":
        spatial = noise * (smoothstep5((rad - cutoff.r0) / w) * outer_cut)
        bad = rad[None] < cutoff.r0
    env = None
    if x_center is not None:
        xw = x_width if x_width is not None else 1.0
        env = np.exp(-((g.meshes[0] - x_center) / xw) ** 2)[None]

    # the field is built and its support scanned one time slab at a time
    f = np.empty(st.shape, dtype=complex)
    peak = 0.0
    for rows in slabs(st.shape):
        if mode == "annulus":
            f[rows] = tau[rows] * spatial[None] if env is None \
                else tau[rows] * spatial[None] * env
        else:
            q = translated_shift(cutoff, st, rows)
            bad = q < 1.0
            moving = smoothstep5((q - 1.0) / w)
            del q
            fs = tau[rows] * noise[None] * moving * outer_cut[None]
            f[rows] = fs if env is None else fs * env
            del moving, fs
        fs = f[rows]
        if np.any(fs[np.broadcast_to(bad, fs.shape)] != 0):
            raise SupportError("support constraint violated on the grid")
        peak = np.maximum(peak, np.abs(fs).max())
    if peak == 0.0:
        raise SupportError("generated field is identically zero")
    f /= peak
    check_resolved(f, resolution_budget)
    return TestField(f, st, mode, seed)


# ---------------------------------------------------------------------------
# the two sides
# ---------------------------------------------------------------------------

SLACK_FLOOR = 1.0 - 1e-6    # a sample passes when rhs / lhs is at least this

@dataclass
class CarlemanReport:
    mode: str
    beta: float
    R: float
    seed: int
    lhs: float
    rhs: float                # lambda^-2 (radial) or 1 (translated) x raw_rhs
    raw_rhs: float            # ||(S+A) f||^2
    admissible: bool
    slack: float
    comm_form: float          # <[S,A] f, f>
    comm_slack: float
    passed: bool

    def row(self) -> tuple:
        return (self.mode, self.beta, self.R, self.seed, self.lhs, self.rhs,
                self.slack, self.passed)


def beta_threshold_cubic(lam: float, cutoff: CutoffSpec, R: float) -> float:
    """max(lam^-1 ||profile''||^{1/2} r0^-1 R^3, (1 + r0^-1) R^2)."""
    return max(math.sqrt(cutoff.profile_d2_max) * R ** 3 / (lam * cutoff.r0),
               (1.0 + 1.0 / cutoff.r0) * R ** 2)


def beta_threshold_translated(c0: float, R: float) -> float:
    return c0 * R ** 2


class FrontierError(NumericGuardError):
    """The probe ensemble fixes no admissibility frontier at this R."""


@dataclass(frozen=True)
class BetaForms:
    """The sides of one test function as polynomials in beta.  With
    phi = beta psi, S = S0 + beta^2 S2 and A = beta A1, so

        <[S,A]f, f> = 2 Re<Sf, Af> = c1 beta + c3 beta^3
        lhs = g1 beta + g3 beta^3,  g1 = ||grad f||^2/R^2, g3 = ||q f||^2/R^6
        ||(S+A)f||^2 = ||S0f + beta^2 S2f||^2 + beta^2 ||A1f||^2 + comm
                     = n0 + n2 beta^2 + n4 beta^4 + c1 beta + c3 beta^3
    """

    seed: int
    c1: float
    c3: float
    g1: float
    g3: float
    n0: float
    n2: float
    n4: float


def _unit_ops(fld: CoefficientField, cutoff: CutoffSpec, mode: str,
              st: SpaceTimeGrid) -> ConjugatedGridOps:
    """The mode's conjugated split at unit weight scale (phi = psi)."""
    variant = "translated" if mode == "translated" else "scaled-time"
    return ConjugatedGridOps.build(
        fld, WeightSpec(variant, 1, R=float(cutoff.R)), st,
        profile=(cutoff.profile_values(st.times),
                 cutoff.profile_slope(st.times)))


def _beta_forms(f: TestField, ops: ConjugatedGridOps,
                cutoff: CutoffSpec) -> BetaForms:
    """The beta-polynomial coefficients of f from the unit-scale split.

    Only dt f is a full-size transform.  Everything else, from the spatial
    gradient to the inner products, is taken one time slab at a time, so
    besides f the pass holds one full-size field, dt f, which S0 f
    overwrites slab by slab.  Each sum is combined over the slabs in
    numpy's pairwise order, so the floats are those of whole-array sums."""
    st = f.st
    g = st.space
    vals = f.values

    def dot(u, v) -> list:
        # Re<u, v> as its two sums, by numpy, not BLAS: BLAS threads left
        # spinning after each call would bill their idle time to the process
        return [np.sum(u.real * v.real), np.sum(u.imag * v.imag)]
    dtf = st.time_derivative(vals)
    parts = []
    for rows in slabs(vals.shape):
        split, fs = ops.on_rows(rows), vals[rows]
        q2 = translated_shift(cutoff, st, rows) ** 2 \
            if f.mode == "translated" else g.radius_sq[None]
        sums = [np.sum(q2 * np.abs(fs) ** 2)]
        del q2
        # one gradient serves ||grad f||^2, S0 f and A1 f
        grads = spectral_gradient(fs, g, time_offset=1)
        for d in grads:
            sums += dot(d, d)
        s0 = split.apply_S0(fs, grads, dtf=dtf[rows])
        a1 = split.apply_A(fs, grads)
        del grads
        s2 = split.zero_order * fs
        for u, v in ((s0, a1), (s2, a1), (s0, s0), (a1, a1), (s0, s2),
                     (s2, s2)):
            sums += dot(u, v)
        del s0, a1, s2
        parts.append(np.array(sums))
    total = pairwise_total(parts)
    vol = g.cell_volume * st.dt
    moment = float(total[0]) * vol
    dots = [float(re + im) * vol for re, im in total[1:].reshape(-1, 2)]
    grad = sum(dots[:g.dim])
    s0a1, s2a1, s0s0, a1a1, s0s2, s2s2 = dots[g.dim:]
    return BetaForms(f.seed, c1=2 * s0a1, c3=2 * s2a1,
                     g1=grad / cutoff.R ** 2, g3=moment / cutoff.R ** 6,
                     n0=s0s0, n2=a1a1 + 2 * s0s2, n4=s2s2)


def frontier_root(forms: list[BetaForms], lam: float, R: float) -> float:
    """Smallest beta with <[S,A]f, f> >= lambda^2 lhs for every probe: the
    largest root of (c1 - lambda^2 g1) + (c3 - lambda^2 g3) beta^2 over the
    probes.  A probe without a root, or a frontier of 0, raises
    :class:`FrontierError` instead of returning a number."""
    roots = []
    for p in forms:
        num, den = lam ** 2 * p.g1 - p.c1, p.c3 - lam ** 2 * p.g3
        if not (den > 0 and math.isfinite(num)):
            raise FrontierError(f"R = {R:g}, probe seed {p.seed}: no root "
                                f"(c3 - lam^2 g3 = {den:.3e} <= 0)")
        roots.append(math.sqrt(max(num, 0.0) / den))
    beta = max(roots, default=0.0)
    if not beta > 0:
        raise FrontierError(
            f"R = {R:g}, probe seeds {[p.seed for p in forms]}: the "
            f"commutator form dominates at every beta > 0, so the ensemble "
            f"fixes no frontier")
    return beta


def _sides(p: BetaForms, mode: str, beta: float, R: float, lam: float,
           threshold: float) -> CarlemanReport:
    """Both sides at beta from a test function's beta-polynomial
    coefficients; the right-hand side carries lambda^-2 for the radial
    weight, 1 for the translated one."""
    b2 = beta ** 2
    lhs = beta * (p.g1 + p.g3 * b2)
    comm = beta * (p.c1 + p.c3 * b2)
    raw = p.n0 + b2 * (p.n2 + b2 * p.n4) + comm
    rhs = (lam ** -2 if mode == "annulus" else 1.0) * raw
    slack = rhs / lhs if lhs > 0 else math.inf
    comm_denom = lam ** 2 * lhs
    comm_slack = comm / comm_denom if comm_denom > 0 else math.inf
    return CarlemanReport(mode, float(beta), float(R), p.seed, lhs, rhs, raw,
                          beta >= threshold - 1e-12, slack, comm, comm_slack,
                          slack >= SLACK_FLOOR)


def _lower_ellipticity(fld: CoefficientField, g: Grid) -> float:
    """lambda: the smallest eigenvalue of the field sampled over the box."""
    lam, _ = ellipticity_bounds(
        fld, SamplingBox.cube(fld.dim, min(g.extents), 17))
    return lam


def carleman_sides_cubic(f: TestField, fld: CoefficientField, beta: float,
                         cutoff: CutoffSpec, *, lam: float | None = None
                         ) -> CarlemanReport:
    """Radial-weight inequality sides: the right-hand side carries the
    ellipticity constant lambda^{-2}."""
    if f.mode != "annulus":
        raise SupportError("cubic-regime sides need an annulus-mode field")
    lam = _lower_ellipticity(fld, f.st.space) if lam is None else lam
    p = _beta_forms(f, _unit_ops(fld, cutoff, f.mode, f.st), cutoff)
    return _sides(p, f.mode, beta, cutoff.R, lam,
                  beta_threshold_cubic(lam, cutoff, cutoff.R))


def _require_block(fld: CoefficientField) -> None:
    block = TransversalField.of(fld)
    if block is None or block.a11.free_symbols or block.a11.is_positive is not True:
        raise ValueError("the translated weight needs block form diag(a11, "
                         "Atilde(x')) with constant a11 > 0 (block assumption)")


def carleman_sides_translated(f: TestField, fld: CoefficientField, beta: float,
                              cutoff: CutoffSpec, *, c0: float = 4.0
                              ) -> CarlemanReport:
    """Translated-weight inequality sides under the block assumption
    (constant a11 > 0); the right-hand side is the raw conjugated energy."""
    if f.mode != "translated":
        raise SupportError("translated sides need a translated-mode field")
    _require_block(fld)
    lam = _lower_ellipticity(fld, f.st.space)
    p = _beta_forms(f, _unit_ops(fld, cutoff, f.mode, f.st), cutoff)
    return _sides(p, f.mode, beta, cutoff.R, lam,
                  beta_threshold_translated(c0, cutoff.R))


# ---------------------------------------------------------------------------
# parameter sweeps and the admissibility frontier
# ---------------------------------------------------------------------------

class ThreadCountError(ValueError):
    """UCONT_THREADS is not a positive integer."""


def worker_count() -> int:
    """Sweep pool width: UCONT_THREADS (a positive integer) capped at the CPU
    count, or min(4, CPU count) when unset."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("UCONT_THREADS")
    if not env:
        return min(4, cpus)
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ThreadCountError(
            f"UCONT_THREADS={env!r} is not a positive integer")
    return min(value, cpus)


@dataclass(frozen=True)
class SweepConfig:
    mode: str                         # 'annulus' | 'translated'
    nt: int = 64
    extents: tuple[float, ...] = (8.0,)
    points: tuple[int, ...] = (512,)
    r0: float = 1.0
    R_values: tuple[float, ...] = (1.0, 1.5, 2.0)
    n_samples: int = 20
    seed0: int = 1
    c0: float = 4.0
    space_width: float = 0.5
    frontier_R_values: tuple[float, ...] | None = None
    frontier_probes: int = 8


@dataclass
class SweepReport:
    config: SweepConfig
    rows: list                     # CarlemanReport.row tuples
    min_slack: float
    failures: list
    frontier_R: np.ndarray | None = None
    frontier_beta: np.ndarray | None = None
    frontier_exponent: float | None = None
    frontier_coef: float | None = None
    fitted_c0: float | None = None


def _frontier_variants(mode: str, cutoff: CutoffSpec, R: float, n: int,
                       seed0: int) -> list[dict]:
    """Deterministic probe ensemble for the commutator sign change.

    Radial mode: plain noise localized where the time profile bends down and
    near the inner radius (weak moment term).  Translated mode: plane-wave
    probes with frequency comparable to R x (profile slope), time-localized
    on the rise/fall, both carrier signs.
    """
    k = PROFILE_KNOTS
    out = []
    if mode == "annulus":
        t_bend = k[0] + 0.79 * (k[1] - k[0])
        t_bend2 = k[3] - 0.79 * (k[3] - k[2])
        for i in range(n):
            out.append(dict(seed=seed0 + i, t_center=t_bend if i % 2 else t_bend2,
                            t_width=0.06,
                            x_center=(cutoff.r0 + 1.0) * (1 if i % 4 < 2 else -1),
                            x_width=1.0 + (i % 3) * 0.7,
                            resolution_budget=5e-3))
    else:
        slope = cutoff.profile_d1_max
        t_rise = k[0] + 0.6 * (k[1] - k[0])
        t_fall = k[3] - 0.6 * (k[3] - k[2])
        for i in range(n):
            scale = (0.5, 0.8, 1.1, 1.4)[i % 4]
            omega = 0.5 * slope * R * scale
            on_rise = i % 2 == 0
            # probes sit on the positive-x1 side late enough in the rise that
            # the moving support edge has already passed them
            out.append(dict(seed=seed0 + i,
                            carrier=-omega if on_rise else omega,
                            t_center=t_rise if on_rise else t_fall,
                            t_width=0.04,
                            x_center=(1.3 + 0.4 * (i % 3)) * R,
                            x_width=0.8 * R,
                            resolution_budget=5e-3))
    return out


def carleman_sweep(cfg: SweepConfig, fld=None) -> SweepReport:
    """Run the sides on ``fld`` (the identity by default) over all (R, seed)
    pairs at the mode's threshold beta, then fit the admissibility frontier
    exponent over the frontier R grid.

    Threshold samples and frontier probes are one task list: each test
    function is drawn and reduced to its beta forms in the pool, against the
    unit-scale split built once per distinct R."""
    st = SpaceTimeGrid(cfg.nt, Grid(cfg.extents, cfg.points))
    if fld is None:
        fld = CoefficientField.identity(len(cfg.extents))
    if cfg.mode == "translated":
        _require_block(fld)
    lam = _lower_ellipticity(fld, st.space)
    fr = cfg.frontier_R_values or ()
    cutoffs = {R: CutoffSpec(r0=cfg.r0, R=R, space_width=cfg.space_width)
               for R in (*cfg.R_values, *fr)}
    splits = {R: _unit_ops(fld, cut, cfg.mode, st)
              for R, cut in cutoffs.items()}
    samples = [(R, "sample", {"seed": cfg.seed0 + i})
               for R in cfg.R_values for i in range(cfg.n_samples)]
    probes = [(R, "probe", kw) for R in fr
              for kw in _frontier_variants(cfg.mode, cutoffs[R], R,
                                           cfg.frontier_probes,
                                           cfg.seed0 + 1000)]

    def forms(task):
        R, role, kw = task
        try:
            f = make_test_function(cfg.mode, st, cutoffs[R], **kw)
        except (ResolutionError, SupportError) as exc:    # name the task
            raise type(exc)(f"R = {R:g}, {role} seed {kw['seed']}: {exc}") from exc
        return _beta_forms(f, splits[R], cutoffs[R])

    tasks = samples + probes
    with ThreadPoolExecutor(
            max_workers=max(1, min(worker_count(), len(tasks)))) as pool:
        all_forms = list(pool.map(forms, tasks))

    reports = []
    for (R, *_), p in zip(samples, all_forms):
        beta = beta_threshold_cubic(lam, cutoffs[R], R) \
            if cfg.mode == "annulus" else beta_threshold_translated(cfg.c0, R)
        reports.append(_sides(p, cfg.mode, beta, R, lam, beta))
    rows = [rep.row() for rep in reports]
    failures = [rep.row() for rep in reports if not rep.passed]
    min_slack = min((rep.slack for rep in reports), default=math.inf)

    frontier_R = frontier_beta = exponent = coef = fitted_c0 = None
    if fr:
        frontier_R = np.asarray(fr, dtype=float)
        probe_forms = all_forms[len(samples):]
        n = cfg.frontier_probes
        frontier_beta = np.array(
            [frontier_root(probe_forms[i * n:(i + 1) * n], lam, R)
             for i, R in enumerate(fr)])
        design = np.column_stack([np.ones_like(frontier_R),
                                  np.log(frontier_R)])
        sol, *_ = np.linalg.lstsq(design, np.log(frontier_beta), rcond=None)
        coef, exponent = float(math.exp(sol[0])), float(sol[1])
        if cfg.mode == "translated":
            fitted_c0 = float(np.max(frontier_beta / frontier_R ** 2))
    return SweepReport(cfg, rows, min_slack, failures, frontier_R,
                       frontier_beta, exponent, coef, fitted_c0)
