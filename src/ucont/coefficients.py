"""Elliptic operator data: the matrix A(x), the potential V(x), their
ellipticity and smallness metrics, and the one-dimensional gauge reduction
that normalizes a block coefficient a11(x1) to 1.

Metrics are numeric sups over a bounded sampling box; the analytic entries
come from the closed-form expression grammar so gradients up to third
order are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from .expressions import X_SYMBOLS, Partials, coeff_is_zero, const, \
    partials, sample
from .grids import Grid, spectral_derivative


class EllipticityError(ValueError):
    """A sampled coefficient matrix failed positive definiteness."""


class GaugeError(ValueError):
    """Gauge reduction preconditions violated (a11 not bounded below, etc.)."""


@dataclass(frozen=True)
class SamplingBox:
    """Cartesian sampling lattice prod_i [lo_i, hi_i] with pts_i points."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    pts: tuple[int, ...]

    @classmethod
    def cube(cls, dim: int, half_width: float, pts: int = 64) -> "SamplingBox":
        return cls((-half_width,) * dim, (half_width,) * dim, (pts,) * dim)

    def lattice(self) -> list[np.ndarray]:
        axes = [np.linspace(l, h, p) for l, h, p in zip(self.lo, self.hi, self.pts)]
        return [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric coefficient table A(x) = (a_kj) plus real potential V(x)."""

    dim: int
    entries: tuple[tuple[sp.Expr, ...], ...]
    potential: sp.Expr = field(default_factory=lambda: const(0))

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError("dimension must be 1..3")
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise ValueError("entry table must be dim x dim")
        for k in range(self.dim):
            for j in range(k + 1, self.dim):
                if not coeff_is_zero(self.entries[k][j] - self.entries[j][k]):
                    raise ValueError(f"entry table not symmetric at ({k},{j})")
        allowed = set(X_SYMBOLS[:self.dim])
        for row in self.entries:
            for e in row:
                if not e.free_symbols <= allowed:
                    raise ValueError(f"entry {e} uses variables outside x1..x{self.dim}")
        if not self.potential.free_symbols <= allowed:
            raise ValueError("potential uses variables outside the field dimension")

    @classmethod
    def identity(cls, dim: int, potential: sp.Expr | None = None) -> "CoefficientField":
        rows = tuple(tuple(const(1 if k == j else 0) for j in range(dim))
                     for k in range(dim))
        return cls(dim, rows, const(0) if potential is None else potential)

    @classmethod
    def diagonal(cls, diag: Sequence[sp.Expr]) -> "CoefficientField":
        dim = len(diag)
        rows = tuple(tuple(diag[k] if k == j else const(0) for j in range(dim))
                     for k in range(dim))
        return cls(dim, rows)

    def entry(self, k: int, j: int) -> sp.Expr:
        return self.entries[k][j]

    def matrix_at(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Stacked matrices, shape (npts, dim, dim)."""
        npts = coords[0].size
        out = np.empty((npts, self.dim, self.dim))
        for k in range(self.dim):
            for j in range(self.dim):
                out[:, k, j] = sample(self.entry(k, j), coords)
        return out

    def m1_norm(self, box: SamplingBox) -> float:
        """sup |V| over the box (the bound called M1 in the convexity checks)."""
        return float(np.max(np.abs(sample(self.potential, box.lattice()))))


@dataclass(frozen=True)
class TransversalField:
    """Block structure A = diag(a11(x1), Atilde(x')) of the anisotropic case."""

    dim: int
    a11: sp.Expr
    atilde: tuple[tuple[sp.Expr, ...], ...]
    potential: sp.Expr = field(default_factory=lambda: const(0))

    def __post_init__(self):
        m = self.dim - 1
        if not (self.dim >= 1 and len(self.atilde) == m
                and all(len(r) == m for r in self.atilde)):
            raise ValueError("atilde must be (dim-1) x (dim-1)")
        if not self.a11.free_symbols <= {X_SYMBOLS[0]}:
            raise ValueError("a11 must depend on x1 only")
        prim = set(X_SYMBOLS[1:self.dim])
        for row in self.atilde:
            for e in row:
                if not e.free_symbols <= prim:
                    raise ValueError("atilde entries must depend on x' only")

    def is_assumption_61(self) -> bool:
        """Constant a11 > 0 (the translated-weight Carleman hypothesis)."""
        return not self.a11.free_symbols and float(self.a11) > 0

    def to_field(self) -> CoefficientField:
        zero = const(0)
        rows = [(self.a11, *(zero,) * (self.dim - 1))]
        rows += [(zero, *row) for row in self.atilde]
        return CoefficientField(self.dim, tuple(rows), self.potential)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def ellipticity_bounds(fld: CoefficientField, box: SamplingBox) -> tuple[float, float]:
    """(lambda, Lambda): extreme eigenvalues of A(x) over the sample lattice.

    Raises :class:`EllipticityError` with the offending location if any
    sampled matrix is not positive definite.
    """
    coords = box.lattice()
    mats = fld.matrix_at(coords)
    eigs = np.linalg.eigvalsh(mats)
    lam = float(eigs[:, 0].min())
    Lam = float(eigs[:, -1].max())
    if lam <= 0:
        idx = int(np.argmin(eigs[:, 0]))
        loc = tuple(float(c[idx]) for c in coords)
        raise EllipticityError(
            f"non-positive-definite sample (min eigenvalue {lam:.3e}) at x={loc}")
    return lam, Lam


def derivative_sq_sums(table: Sequence[Sequence[sp.Expr]], order: int,
                       coords: Sequence[np.ndarray],
                       syms: Sequence[sp.Symbol],
                       d: Partials | None = None) -> list[np.ndarray]:
    """For each multi-index alpha over ``syms`` with |alpha| = ``order``, the
    pointwise sum over the entries of ``table`` of (d^alpha entry)^2 sampled
    on the lattice ``coords`` (bound to ``syms``).  Partials come from ``d``,
    the caller's memoized table if it has one, so none is taken twice."""
    d = partials() if d is None else d
    axes = [X_SYMBOLS.index(s) for s in syms]
    out = []
    for alpha in itertools.combinations_with_replacement(axes, order):
        total = np.zeros_like(coords[0], dtype=float)
        for row in table:
            for e in row:
                de = d(e, *alpha)
                if de != 0:
                    total += sample(de, coords, syms) ** 2
        out.append(total)
    return out


def decay_smallness(fld: CoefficientField | TransversalField, box: SamplingBox) -> float:
    """sup over the box of |x| |grad A| (|x'| |grad_{x'} Atilde| in the
    transversal case), with the Frobenius-style gradient norm."""
    if isinstance(fld, TransversalField):
        if fld.dim == 1:
            return 0.0
        if len(box.lo) == fld.dim:
            box = SamplingBox(box.lo[1:], box.hi[1:], box.pts[1:])
        table, syms = fld.atilde, X_SYMBOLS[1:fld.dim]
    else:
        table, syms = fld.entries, X_SYMBOLS[:fld.dim]
    coords = box.lattice()
    grad_sq = sum(derivative_sq_sums(table, 1, coords, syms))
    rad = np.sqrt(sum(c ** 2 for c in coords))
    return float(np.max(rad * np.sqrt(grad_sq)))


def grad_order_norm(fld: CoefficientField, box: SamplingBox, order: int) -> float:
    """sup_x max_{|alpha|=order} |grad^alpha A|(x)."""
    return max(float(np.max(np.sqrt(total))) for total in derivative_sq_sums(
        fld.entries, order, box.lattice(), X_SYMBOLS[:fld.dim]))


def c3_norm(fld: CoefficientField, box: SamplingBox) -> float:
    """Numeric estimate of ||A||_{C^3} = sum_{i=1..3} sup_{x,|alpha|=i} |grad^alpha A|."""
    return sum(grad_order_norm(fld, box, i) for i in (1, 2, 3))


# ---------------------------------------------------------------------------
# gauge reduction (Liouville-type change of variables in x1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeReduction:
    """Tabulated reduction of a11(x1) d/dx1^2-type block to the flat one.

    y1(x1) is the arclength-type coordinate with dy1/dx1 = a11^{-1/2}; the
    gauge factor e^psi with psi = (1/4) log(a11/a11(0)) (in y-units) removes
    the first-order term, and the potential picks up -(psi')^2 - psi''.
    """

    original: TransversalField
    reduced: TransversalField
    x1_grid: np.ndarray
    y1_grid: np.ndarray
    psi: Callable[[np.ndarray], np.ndarray]
    x_of_y: Callable[[np.ndarray], np.ndarray]
    reduced_potential: Callable[[np.ndarray], np.ndarray]   # of y1 (x'-part unchanged)


def verify_gauge_transport(gr: GaugeReduction, n_tests: int = 10,
                           seed: int = 0) -> float:
    """Max relative error of the transport identity over random smooth test
    functions u(x1):

        [d^2/dy1^2 + V_red(y1)] (e^psi u)(x(y1))  ==  e^psi [(a11 u')' + V u](x(y1))

    The original side is evaluated from exact symbolic derivatives; the
    reduced side differentiates the transported samples spectrally.
    """
    x1 = X_SYMBOLS[0]
    n_grid = 2048
    rng = np.random.default_rng(seed)
    ymax = 0.88 * min(-gr.y1_grid[0], gr.y1_grid[-1])
    grid = Grid((ymax,), (n_grid,))
    ys = grid.axis(0)
    xv = np.asarray(gr.x_of_y(ys), dtype=float)
    a11 = gr.original.a11
    vpot = gr.original.potential.subs(
        {s: 0 for s in X_SYMBOLS[1:gr.original.dim]})
    worst = 0.0
    for _ in range(n_tests):
        c0, c1, c2 = rng.normal(size=3)
        ctr = rng.uniform(-1.5, 1.5)
        width = rng.uniform(0.6, 1.0)
        u = (c0 + c1 * x1 + c2 * x1 ** 2) * sp.exp(-(x1 - ctr) ** 2 / (2 * width ** 2))
        orig = sp.diff(a11 * sp.diff(u, x1), x1) + vpot * u
        w = np.exp(gr.psi(ys)) * sample(u, (xv,))
        wyy = spectral_derivative(w, grid, 0, 2).real
        lhs = wyy + gr.reduced_potential(ys) * w
        rhs = np.exp(gr.psi(ys)) * sample(orig, (xv,))
        scale = np.max(np.abs(rhs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    return worst


def gauge_reduce(fld: TransversalField, x1_range: tuple[float, float] = (-12.0, 12.0),
                 npts: int = 4001) -> GaugeReduction:
    """Normalize a11 to 1 by the change of variables dy1/dx1 = a11(x1)^{-1/2}
    plus the quarter-log gauge; returns tabulated maps and the modified
    bounded potential."""
    # imported here, so `import ucont` loads no scipy
    from scipy.integrate import quad
    from scipy.interpolate import CubicSpline

    a11 = fld.a11
    x1 = X_SYMBOLS[0]
    xs = np.linspace(x1_range[0], x1_range[1], npts)
    amin = float(np.min(sample(a11, (xs,))))
    if amin <= 1e-10:
        raise GaugeError(f"a11 not bounded below on {x1_range} "
                         f"(min {amin:.3e})")

    integrand = lambda s: float(sample(a11, (s,))) ** -0.5
    cells = np.array([quad(integrand, a, b, limit=200)[0]
                      for a, b in zip(xs[:-1], xs[1:])])
    if not np.all(np.isfinite(cells)):
        raise GaugeError("quadrature failure building the coordinate map")
    # y1 = 0 at x1 = 0: anchor the cumulative cell integrals at the grid
    # point nearest the origin
    i0 = int(np.argmin(np.abs(xs)))
    ys = np.concatenate(([0.0], np.cumsum(cells)))
    ys += quad(integrand, 0.0, xs[i0], limit=400)[0] - ys[i0]
    if np.any(np.diff(ys) <= 0):
        raise GaugeError("coordinate map is not strictly increasing")

    x_of_y = CubicSpline(ys, xs)
    a0 = float(sample(a11, (0.0,)))
    a11p = sp.diff(a11, x1)
    a11pp = sp.diff(a11, x1, 2)
    # the potential on the x1-axis (x' = 0)
    v_axis = fld.potential.subs({s: 0 for s in X_SYMBOLS[1:fld.dim]})

    def _at_x(expr, xv):
        return np.broadcast_to(sample(expr, (xv,)), np.shape(xv))

    def psi(y1: np.ndarray) -> np.ndarray:
        xv = x_of_y(y1)
        return 0.25 * np.log(_at_x(a11, xv) / a0)

    def reduced_potential(y1: np.ndarray) -> np.ndarray:
        # psi' and psi'' with respect to y1, expressed through x1 derivatives:
        # psi'(y) = a11'/(4 sqrt(a11)),  psi''(y) = a11''/4 - a11'^2/(8 a11)
        xv = np.asarray(x_of_y(y1), dtype=float)
        a = _at_x(a11, xv)
        ap = _at_x(a11p, xv)
        app = _at_x(a11pp, xv)
        psip = 0.25 * ap / np.sqrt(a)
        psipp = 0.25 * app - 0.125 * ap ** 2 / a
        return _at_x(v_axis, xv) - psip ** 2 - psipp

    reduced = TransversalField(fld.dim, const(1), fld.atilde, fld.potential)
    return GaugeReduction(fld, reduced, xs, ys, psi, x_of_y, reduced_potential)
