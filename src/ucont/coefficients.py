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
from .grids import Grid, NumericGuardError, spectral_derivative


class EllipticityError(NumericGuardError, ValueError):
    """A sampled coefficient matrix failed positive definiteness."""


class GaugeError(NumericGuardError, ValueError):
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
        for e in itertools.chain(*self.entries):
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
        out = np.empty((coords[0].size, self.dim, self.dim))
        for k in range(self.dim):
            for j in range(self.dim):
                out[:, k, j] = sample(self.entry(k, j), coords)
        return out

    def m1_norm(self, box: SamplingBox) -> float:
        """sup |V| over the box (the bound called M1 in the convexity checks)."""
        return float(np.max(np.abs(sample(self.potential, box.lattice()))))


class TransversalField(CoefficientField):
    """Block structure A = diag(a11(x1), Atilde(x')) of the anisotropic case:
    its entries are the block matrix, and a11 and Atilde are views of them."""

    def __init__(self, dim: int, a11: sp.Expr, atilde: tuple[tuple[sp.Expr, ...], ...],
                 potential: sp.Expr | None = None):
        m = dim - 1
        if not (len(atilde) == m and all(len(r) == m for r in atilde)):
            raise ValueError("atilde must be (dim-1) x (dim-1)")
        if not a11.free_symbols <= {X_SYMBOLS[0]}:
            raise ValueError("a11 must depend on x1 only")
        prim = set(X_SYMBOLS[1:dim])
        if any(not e.free_symbols <= prim for e in itertools.chain(*atilde)):
            raise ValueError("atilde entries must depend on x' only")
        zero = const(0)
        rows = ((a11, *(zero,) * m), *((zero, *row) for row in atilde))
        super().__init__(dim, rows, const(0) if potential is None else potential)

    @classmethod
    def of(cls, fld: CoefficientField) -> "TransversalField | None":
        """The block view of ``fld``: ``fld`` itself when it is one, else its
        entries when a1j (j >= 2) vanish, a11 depends on x1 alone and Atilde
        on x' alone; None when A(x) is not of block form."""
        if isinstance(fld, cls):
            return fld
        if not all(coeff_is_zero(e) for e in fld.entries[0][1:]):
            return None
        try:
            return cls(fld.dim, fld.entries[0][0],
                       tuple(row[1:] for row in fld.entries[1:]), fld.potential)
        except ValueError:
            return None

    @property
    def a11(self) -> sp.Expr:
        return self.entries[0][0]

    @property
    def atilde(self) -> tuple[tuple[sp.Expr, ...], ...]:
        return tuple(row[1:] for row in self.entries[1:])

    def to_field(self) -> CoefficientField:
        """A plain copy, kept for the benchmark's ``symbolic`` workload."""
        return CoefficientField(self.dim, self.entries, self.potential)


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
    lam, Lam = float(eigs[:, 0].min()), float(eigs[:, -1].max())
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
        for e in itertools.chain(*table):
            de = d(e, *alpha)
            if de != 0:
                total += sample(de, coords, syms) ** 2
        out.append(total)
    return out


def _radial_gradient_sup(table: Sequence, syms: Sequence, box: SamplingBox) -> float:
    """sup over the box (on ``syms``) of |x| |grad table|, Frobenius-style."""
    coords = box.lattice()
    grad_sq = sum(derivative_sq_sums(table, 1, coords, syms))
    rad = np.sqrt(sum(c ** 2 for c in coords))
    return float(np.max(rad * np.sqrt(grad_sq)))


def decay_smallness(fld: CoefficientField, box: SamplingBox) -> float:
    """sup over the box of |x| |grad A|: the smallness of the cubic-weight
    uniqueness hypothesis, on any field."""
    return _radial_gradient_sup(fld.entries, X_SYMBOLS[:fld.dim], box)


def transversal_smallness(fld: CoefficientField, box: SamplingBox) -> float:
    """sup of |x'| |grad_{x'} Atilde| over the x' axes of the box, on the block
    view of ``fld``: the Gaussian-rate hypothesis; 0.0 in 1-D, raises off block form."""
    block = TransversalField.of(fld)
    if block is None:
        raise ValueError("transversal smallness needs block form diag(a11, Atilde(x'))")
    if fld.dim == 1:
        return 0.0
    return _radial_gradient_sup(block.atilde, X_SYMBOLS[1:fld.dim],
                                SamplingBox(box.lo[1:], box.hi[1:], box.pts[1:]))


# ---------------------------------------------------------------------------
# gauge reduction (Liouville-type change of variables in x1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeReduction:
    """Reduction of an a11(x1) d/dx1^2-type block to the flat one.

    y1(x1) is the arclength-type coordinate with dy1/dx1 = a11^{-1/2}; the
    gauge factor e^psi with psi = (1/4) log(a11/a11(0)) (in y-units) removes
    the first-order term, and the potential picks up -(psi')^2 - psi''.
    """

    original: TransversalField
    x1_grid: np.ndarray
    y1_grid: np.ndarray
    psi: Callable[[np.ndarray], np.ndarray]
    x_of_y: Callable[[np.ndarray], np.ndarray]
    reduced_potential: Callable[[np.ndarray], np.ndarray]   # of y1 (x'-part unchanged)


# the largest |e^psi u| on the edge of the periodic y-box, relative to its
# peak and times k_max^2 (k_max = pi / h, the grid's largest wavenumber):
# the spectral second derivative amplifies the wrap-around jump by about
# k_max^2, so a larger value pollutes it
_EDGE_BUDGET = 1e-6


def verify_gauge_transport(gr: GaugeReduction, n_tests: int = 10,
                           seed: int = 0) -> float:
    """Max relative error of the transport identity over random smooth test
    functions u(x1):

        [d^2/dy1^2 + V_red(y1)] (e^psi u)(x(y1))  ==  e^psi [(a11 u')' + V u](x(y1))

    The original side is evaluated from exact symbolic derivatives; the
    reduced side differentiates the transported samples spectrally.  A test
    function that the y-box cuts (edge fraction times k_max^2 above 1e-6)
    raises :class:`GaugeError`.
    """
    x1, fld = X_SYMBOLS[0], gr.original
    rng = np.random.default_rng(seed)
    ymax = 0.88 * min(-gr.y1_grid[0], gr.y1_grid[-1])
    grid = Grid((ymax,), (2048,))
    ys = grid.axis(0)
    kmax2 = (np.pi / grid.spacings[0]) ** 2
    xv, epsi, vred = gr.x_of_y(ys), np.exp(gr.psi(ys)), gr.reduced_potential(ys)
    vpot = fld.potential.subs({s: 0 for s in X_SYMBOLS[1:fld.dim]})
    # one test family, compiled once: its parameters are sample arguments
    c0, c1, c2, ctr, width = family = sp.symbols("c0 c1 c2 m w", real=True)
    u = (c0 + c1 * x1 + c2 * x1 ** 2) * sp.exp(-(x1 - ctr) ** 2 / (2 * width ** 2))
    orig = sp.diff(fld.a11 * sp.diff(u, x1), x1) + vpot * u
    worst = 0.0
    for _ in range(n_tests):
        values = (*rng.normal(size=3), rng.uniform(-1.5, 1.5), rng.uniform(0.6, 1.0))
        w = epsi * sample(u, (xv, *values), (x1, *family))
        edge = max(abs(w[0]), abs(w[-1])) / np.max(np.abs(w))
        if edge * kmax2 > _EDGE_BUDGET:
            raise GaugeError(f"the y-box |y1| <= {ymax:.3g} cuts a test function (edge "
                             f"value {edge:.1e} of its peak, times k_max^2 = "
                             f"{kmax2:.3g} over {_EDGE_BUDGET:.0e}); widen x1_range")
        lhs = spectral_derivative(w, grid, 0, 2).real + vred * w
        rhs = epsi * sample(orig, (xv, *values), (x1, *family))
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))))
    return worst


# x1(y1) ends with the first Newton step that starts within this fraction of
# the map's span, which lands at roundoff (1-4 steps), or raises GaugeError
_NEWTON_TOL, _NEWTON_STEPS = 1e-13, 8


def gauge_reduce(fld: CoefficientField, x1_range: tuple[float, float] = (-12.0, 12.0)
                 ) -> GaugeReduction:
    """Normalize a11 to 1 by the change of variables dy1/dx1 = a11(x1)^{-1/2}
    plus the quarter-log gauge; returns the maps and the modified bounded
    potential of a block field diag(a11(x1), Atilde(x')).  y1(x1) sums the
    8-point Gauss-Legendre rule over the 4000 cells of x1_range, exact to
    roundoff for a smooth a11; x1(y1) inverts it by Newton's method."""
    # imported here, so that `import ucont` does not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss
    fld = TransversalField.of(fld)
    if fld is None:
        raise GaugeError("the gauge reduction needs block form "
                         "diag(a11(x1), Atilde(x'))")
    nodes, weights = leggauss(8)
    a11, x1 = fld.a11, X_SYMBOLS[0]
    xs = np.linspace(x1_range[0], x1_range[1], 4001)
    amin = float(np.min(sample(a11, (xs,))))
    if amin <= 1e-10:
        raise GaugeError(f"a11 not bounded below on {x1_range} (min {amin:.3e})")

    def arclength(lo, hi):
        """int_lo^hi a11^{-1/2} elementwise, in one sample; numpy sums the
        rule, not BLAS, so a value does not depend on the batch shape."""
        lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
        f = sample(a11, ((hi + lo) / 2 + (hi - lo) / 2 * nodes,)) ** -0.5
        return np.sum((hi - lo) / 2 * weights * f, axis=-1)
    cum = np.concatenate(([0.0], np.cumsum(arclength(xs[:-1], xs[1:]))))
    if not np.all(np.isfinite(cum)):
        raise GaugeError("the coordinate map is not finite")

    def from_start(xv):
        # y1(xv) - y1(x1_range[0]), summed from the start of xv's cell
        i = np.clip(np.searchsorted(xs, xv, side="right") - 1, 0, xs.size - 2)
        return cum[i] + arclength(xs[i], xv)
    origin = from_start(0.0)    # y1 = 0 at x1 = 0

    def at_x(expr, xv):
        return np.broadcast_to(sample(expr, (xv,)), np.shape(xv))

    def x_of_y(y1: np.ndarray) -> np.ndarray:
        target = np.asarray(y1, dtype=float) + origin
        xv = np.interp(target, cum, xs)
        for _ in range(_NEWTON_STEPS):
            res = from_start(xv) - target
            xv = xv - res * np.sqrt(at_x(a11, xv))
            if np.max(np.abs(res), initial=0.0) <= _NEWTON_TOL * cum[-1]:
                return xv
        raise GaugeError(f"Newton's method left x1(y1) {np.max(np.abs(res)):.1e} "
                         f"off the map after {_NEWTON_STEPS} steps")

    a0 = float(sample(a11, (0.0,)))
    a11p, a11pp = sp.diff(a11, x1), sp.diff(a11, x1, 2)
    v_axis = fld.potential.subs({s: 0 for s in X_SYMBOLS[1:fld.dim]})   # at x' = 0

    def psi(y1: np.ndarray) -> np.ndarray:
        return 0.25 * np.log(at_x(a11, x_of_y(y1)) / a0)

    def reduced_potential(y1: np.ndarray) -> np.ndarray:
        # V - psi'^2 - psi'' with the y1 derivatives psi' = a11'/(4 sqrt(a11))
        # and psi'' = a11''/4 - a11'^2/(8 a11)
        xv = x_of_y(y1)
        a, ap, app = (at_x(e, xv) for e in (a11, a11p, a11pp))
        return at_x(v_axis, xv) + ap ** 2 / (16 * a) - app / 4

    return GaugeReduction(fld, xs, cum - origin, psi, x_of_y, reduced_potential)
