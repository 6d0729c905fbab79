"""Weighted quantities along trajectories: the exponential-weight energies
H(t), their log-convexity and derivative bounds, Gaussian decay schedules of
the dissipative flows, and the annulus mass profiles whose decay exponent
separates the quadratic from the cubic lower-bound regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import DissipationParams, Trajectory, WaveState
from .grids import Grid, NumericGuardError, spectral_gradient


class BoundaryMassError(NumericGuardError):
    """The weighted integrand is not negligible at the box boundary."""


def _weighted(u: np.ndarray, grid: Grid, beta: float,
              alpha: float = 1.0) -> np.ndarray:
    """e^{beta |x|^{2 alpha}} u, formed as exp(beta |x|^{2 alpha} + log u):
    the weight is never instantiated, so where it would overflow while u
    underflows the product is its true (finite) value instead of inf * 0."""
    with np.errstate(divide="ignore"):
        return np.exp(beta * grid.radius_sq ** alpha + np.log(u + 0j))


def _boundary_fraction(values: np.ndarray) -> float:
    peak = float(np.max(values))
    if peak == 0.0:
        return 0.0
    worst = 0.0
    for ax in range(values.ndim):
        sl0 = [slice(None)] * values.ndim
        sl0[ax] = 0
        worst = max(worst, float(np.max(values[tuple(sl0)])))
    return worst / peak


def weighted_norm(u: WaveState, beta: float, alpha: float = 1.0, *,
                  strict: bool = True, boundary_budget: float = 1e-12) -> float:
    """int e^{2 beta |x|^{2 alpha}} |u|^2 dx on the box.

    With ``strict`` the weighted integrand must be finite and below
    ``boundary_budget`` (relative to its peak) on the box boundary, otherwise
    the box does not faithfully represent the whole-space integral.
    """
    integrand = np.abs(_weighted(u.values, u.grid, beta, alpha)) ** 2
    if strict:
        if not np.all(np.isfinite(integrand)):
            raise BoundaryMassError(
                "weighted integrand is not finite (the weight overflows on "
                "the box); enlarge the box or reduce beta")
        frac = _boundary_fraction(integrand)
        if frac > boundary_budget:
            raise BoundaryMassError(
                f"weighted integrand boundary/peak fraction {frac:.2e} exceeds "
                f"{boundary_budget:.1e}; enlarge the box or reduce beta")
    return float(integrand.sum() * u.grid.cell_volume)


# ---------------------------------------------------------------------------
# log-convexity of H(t)
# ---------------------------------------------------------------------------

INTERP_C = 1.0 + 1e-6       # the C of the interpolation bound on H(t)

@dataclass
class ConvexityTrace:
    times: np.ndarray
    H: np.ndarray
    beta: float
    max_interp_ratio_c1: float       # with C = 1, recorded separately
    violation: bool                  # the ratio exceeds C, or is NaN
    vacuous: bool = False

    def d2_logH(self) -> np.ndarray:
        """Second differences of log H in time rescaled to [0, 1], the
        variable of the interpolation bound."""
        tt = (self.times - self.times[0]) / (self.times[-1] - self.times[0])
        logH = np.log(self.H)
        return (logH[2:] - 2 * logH[1:-1] + logH[:-2]) / (tt[1] - tt[0]) ** 2

    @property
    def min_d2_logH(self) -> float:
        return -math.inf if self.vacuous else \
            float(np.min(self.d2_logH(), initial=math.inf))


def logconvexity_check(traj: Trajectory, beta: float, M1: float, *,
                       boundary_budget: float = 1e-12) -> ConvexityTrace:
    """Weighted-energy trace with the interpolation-bound and discrete
    second-difference diagnostics.

    The bound checked is H(t) <= INTERP_C e^{M1^2} H(0)^{1-t} H(1)^t; the
    max ratio with C = 1 is recorded separately.
    """
    times = np.asarray(traj.times, dtype=float)
    H = np.array([weighted_norm(traj.state(i), beta,
                                boundary_budget=boundary_budget)
                  for i in range(len(times))])
    if H[0] <= 0.0 or H[-1] <= 0.0:
        return ConvexityTrace(times, H, beta, math.inf, False, True)

    tt = (times - times[0]) / (times[-1] - times[0])
    interp = H[0] ** (1 - tt) * H[-1] ** tt
    max_c1 = float(np.max(H / (math.exp(M1 ** 2) * interp)))
    return ConvexityTrace(times, H, beta, max_c1,
                          not (max_c1 / INTERP_C <= 1.0), False)


def derivative_bound_check(traj: Trajectory, beta: float, M1: float = 0.0, *,
                           strict: bool = True) -> float:
    """Ratio of the time-weighted gradient/moment energy to the endpoint
    bound:

        [beta ||sqrt(t(1-t)) e^{b|x|^2} grad u||^2
         + beta^3 ||sqrt(t(1-t)) e^{b|x|^2} x u||^2]
        / [C e^{M1^2} (H(0) + H(1))]
    """
    grid = traj.grid
    times = np.asarray(traj.times, dtype=float)
    # the endpoint norms first, so a strict boundary check fails fast
    H0 = weighted_norm(traj.state(0), beta, strict=strict)
    H1 = weighted_norm(traj.state(len(times) - 1), beta, strict=strict)
    u = traj.frames
    g2 = sum(np.abs(_weighted(g, grid, beta)) ** 2
             for g in spectral_gradient(u, grid, time_offset=1))
    integ = beta * g2 \
        + beta ** 3 * grid.radius_sq * np.abs(_weighted(u, grid, beta)) ** 2
    space = tuple(range(1, u.ndim))
    vals = integ.sum(axis=space) * grid.cell_volume * times * (1 - times)
    lhs = float(np.trapezoid(vals, times))
    rhs = math.exp(M1 ** 2) * (H0 + H1)
    return lhs / rhs


# ---------------------------------------------------------------------------
# Gaussian decay schedule of the dissipative flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecaySchedule:
    gamma: float
    times: np.ndarray
    alphas: np.ndarray
    degenerate: bool = False


def gaussian_decay_schedule(gamma: float, d: DissipationParams, lam: float,
                            Lam: float, normA: float) -> DecaySchedule:
    """Maintained Gaussian rate of the dissipative flow:

        alpha(t) = gamma lam a / (lam a + 4 gamma (lam a^2 Lam
                                                   + 4 b^2 normA^2) t)

    Degenerate for a = 0 (no maintained rate for t > 0).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    ts = np.linspace(0.0, 1.0, 65)
    if d.a == 0.0:
        return DecaySchedule(gamma, ts, np.where(ts == 0.0, gamma, 0.0), True)
    denom = lam * d.a + 4 * gamma * (lam * d.a ** 2 * Lam
                                     + 4 * d.b ** 2 * normA ** 2) * ts
    return DecaySchedule(gamma, ts, gamma * lam * d.a / denom, False)


def decay_schedule_companion(traj: Trajectory, schedule: DecaySchedule
                             ) -> np.ndarray:
    """Margins of the maintained-decay bound along the trajectory:

        ||e^{alpha(t)|x|^2} u(t)|| <= ||e^{gamma |x|^2} u(0)||

    returned as bound/actual per sample (>= 1 means the bound holds).  The
    schedule is typically critical (equality for the exact heat kernel), so
    the boundary-mass check is relaxed and the comparison is made on the
    common box.
    """
    ts = np.asarray(traj.times, dtype=float)
    alphas = np.interp(ts, schedule.times, schedule.alphas)
    rhs0 = math.sqrt(weighted_norm(traj.state(0), schedule.gamma, strict=False))
    margins = np.empty_like(ts)
    for i, al in enumerate(alphas):
        lhs = math.sqrt(weighted_norm(traj.state(i), al, strict=False))
        margins[i] = rhs0 / max(lhs, 1e-300)
    return margins


# ---------------------------------------------------------------------------
# annulus mass profile delta(R)
# ---------------------------------------------------------------------------

class AnnulusResolutionError(NumericGuardError):
    """Fewer than 8 grid cells across an annulus."""


def _in_window(times: np.ndarray, window) -> np.ndarray:
    """Which frame times lie in [start, end], with 1e-12 slack at each end."""
    return (times >= window[0] - 1e-12) & (times <= window[1] + 1e-12)


@dataclass
class LowerBoundProfile:
    radii: np.ndarray
    deltas: np.ndarray
    E1: float
    core_mass: float | None
    hypothesis_met: bool
    fits: dict               # p -> dict(c=..., C0=..., rel_residual=...)
    preferred_p: int | None
    label: str = "ok"


def annulus_mass_profile(traj: Trajectory, radii, t_window=(0.125, 0.875), *,
                         R0: float | None = None, E2: float | None = None
                         ) -> LowerBoundProfile:
    """delta(R_j) = int over the time window and the shell B_R \\ B_{R-1} of
    |u|^2 + |grad u|^2, with least-squares fits of log delta against R^p for
    p in {2, 3}."""
    grid = traj.grid
    h = max(grid.spacings)
    if 1.0 / h < 8:
        raise AnnulusResolutionError(
            f"annulus width 1 spans only {1.0/h:.1f} cells (need >= 8)")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii > min(grid.extents)):
        raise ValueError("radii exceed the grid box")

    times = np.asarray(traj.times, dtype=float)
    sel = _in_window(times, t_window)
    if sel.sum() < 2:
        raise ValueError("trajectory has too few samples inside the window")
    tsel = times[sel]

    rad = np.sqrt(grid.radius_sq)
    u = traj.frames[sel]
    dens = np.abs(u) ** 2 + sum(np.abs(g) ** 2 for g in
                                spectral_gradient(u, grid, time_offset=1))

    deltas = np.empty_like(radii)
    for j, R in enumerate(radii):
        mask = (rad > R - 1.0) & (rad <= R)
        shell = dens[:, mask].sum(axis=1) * grid.cell_volume
        deltas[j] = float(np.trapezoid(shell, tsel))

    E1 = math.sqrt(float(np.trapezoid(dens.sum(axis=tuple(range(1, dens.ndim)))
                                      * grid.cell_volume, tsel)))

    core_mass = None
    hypothesis_met = True
    if R0 is not None and E2 is not None:
        core_sel = _in_window(times, (0.25, 0.75))
        core_mask = rad <= R0
        vals = np.array([np.abs(traj.frames[i][core_mask]) ** 2
                         for i in np.nonzero(core_sel)[0]]).sum(axis=1) \
            * grid.cell_volume
        core_mass = float(np.trapezoid(vals, times[core_sel]))
        hypothesis_met = core_mass >= E2 ** 2

    fits = {}
    positive = deltas > 0
    preferred = None
    if positive.sum() >= 3:
        logd = np.log(deltas[positive])
        rr = radii[positive]
        spread = float(np.linalg.norm(logd - logd.mean()))
        for p in (2, 3):
            design = np.column_stack([np.ones_like(rr), -(rr ** p)])
            sol, *_ = np.linalg.lstsq(design, logd, rcond=None)
            resid = logd - design @ sol
            fits[p] = {"c": float(sol[0]), "C0": float(sol[1]),
                       "rel_residual": float(np.linalg.norm(resid) / spread)
                       if spread > 0 else 0.0}
        preferred = min(fits, key=lambda p: fits[p]["rel_residual"])

    label = "ok" if hypothesis_met else "hypothesis not met"
    return LowerBoundProfile(radii, deltas, E1, core_mass, hypothesis_met,
                             fits, preferred, label)
