"""Numeric verification of the two appendix inequalities: the subordination
equivalence that trades a one-parameter family of Gaussian weights for a
single super-Gaussian weight, and the weighted Poincare inequality on balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grids import Grid, spectral_gradient


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class SubordinationCase:
    """Parameters of the subordination check.

    q is the conjugate exponent of p (1/p + 1/q = 1, exact by construction);
    the admissibility condition is kappa > 2 lambda0 (2/(q-2))^{1/q}.
    """

    p: float
    kappa: float
    lambda0: float
    r_values: tuple[float, ...]

    def __post_init__(self):
        if not 1.0 < self.p < 2.0:
            raise ValueError("p must lie in (1, 2)")
        if self.kappa <= 0 or self.lambda0 <= 0:
            raise ValueError("kappa and lambda0 must be positive")
        if any(r <= 0 for r in self.r_values):
            raise ValueError("r grid must be positive")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def admissible(self) -> bool:
        return self.kappa > 2.0 * self.lambda0 * (2.0 / (self.q - 2.0)) ** (1.0 / self.q)


@dataclass
class SubordinationResult:
    case: SubordinationCase
    log_integrals: np.ndarray
    log_targets: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        return np.exp(self.log_integrals - self.log_targets)

    @property
    def band(self) -> float:
        r = self.ratios
        return float(r.max() / r.min())


def _log_subordination_integral(r: float, q: float, kappa: float,
                                lambda0: float) -> float:
    """log of int_{lambda0}^inf e^{lambda r - lambda^q/(q kappa^q)}
    lambda^{(q-2)/2} d lambda; peak factored out, tail cut at 1e-14."""
    kq = kappa ** q

    def exponent(lam: float) -> float:
        return lam * r - lam ** q / (q * kq)

    lam_star = (r * kq) ** (1.0 / (q - 1.0))
    peak = max(lam_star, lambda0)
    M = exponent(peak)

    upper = max(2.0 * peak, lambda0 + 1.0)
    for _ in range(200):
        if exponent(upper) - M < math.log(1e-14) - 0.5 * abs(q - 2) * math.log(
                max(upper, 2.0)):
            break
        upper *= 1.5
    else:
        raise QuadratureError("could not truncate the integrand tail")

    def integrand(lam: float) -> float:
        return math.exp(exponent(lam) - M) * lam ** ((q - 2.0) / 2.0)

    pts = [lam_star] if lambda0 < lam_star < upper else None
    val, err = quad(integrand, lambda0, upper, points=pts, limit=400,
                    epsabs=1e-13, epsrel=1e-11)
    if not np.isfinite(val) or val <= 0 or err > 1e-6 * val:
        raise QuadratureError(
            f"quadrature did not converge (value {val:.3e}, err {err:.3e})")
    return M + math.log(val)


def subordination_ratio(case: SubordinationCase) -> SubordinationResult:
    """Per-r ratios integral / e^{kappa^p r^p / p}, in log space so that no
    intermediate value overflows."""
    if not case.admissible:
        raise ValueError(
            "inadmissible kappa: need kappa > 2 lambda0 (2/(q-2))^{1/q}")
    q = case.q
    logs = np.array([_log_subordination_integral(r, q, case.kappa, case.lambda0)
                     for r in case.r_values])
    targets = np.array([case.kappa ** case.p * r ** case.p / case.p
                        for r in case.r_values])
    return SubordinationResult(case, logs, targets)


# ---------------------------------------------------------------------------
# weighted Poincare inequality on balls
# ---------------------------------------------------------------------------

@dataclass
class PoincareCheck:
    r: float
    lhs: float         # ||f||_{L^2(B_r)}
    rhs_grad: float    # r ||grad f||_{L^2(B_2r)}
    rhs_moment: float  # r^{-1} ||x f||_{L^2(B_2r)}
    ratio: float


def poincare_weighted_check(values: np.ndarray, grid: Grid, r: float
                            ) -> PoincareCheck:
    """lhs and right-hand components of

        ||f||_{L^2(B_r)} <= C ( r ||grad f||_{L^2(B_2r)}
                                + r^{-1} ||x f||_{L^2(B_2r)} )

    with cell-center ball membership; returns the ratio lhs / (sum)."""
    if 2 * r > min(grid.extents):
        raise ValueError(f"ball B_{{2r}} with r={r} not contained in the grid")
    rad = np.sqrt(grid.radius_sq)
    inner = rad <= r
    outer = rad <= 2 * r
    vol = grid.cell_volume
    lhs = math.sqrt(float((np.abs(values) ** 2)[inner].sum() * vol))
    grads = spectral_gradient(values, grid)
    g2 = sum(np.abs(g) ** 2 for g in grads)
    rhs_grad = r * math.sqrt(float(g2[outer].sum() * vol))
    rhs_moment = math.sqrt(float((grid.radius_sq * np.abs(values) ** 2)[outer]
                                 .sum() * vol)) / r
    denom = rhs_grad + rhs_moment
    ratio = lhs / denom if denom > 0 else 0.0
    return PoincareCheck(r, lhs, rhs_grad, rhs_moment, ratio)
