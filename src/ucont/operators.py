"""Symbolic differential-operator machinery.

A :class:`DiffOperator` is a finite sum of terms (coefficient expression)
x (dt^a dx^alpha), closed under composition and commutators and kept in a
canonical normal form (sorted derivative keys, expanded and merged
coefficients).  The module builds, for a coefficient field A(x) and an
exponential weight e^phi, the symmetric/antisymmetric split of the
conjugated operator e^phi (i dt + L) e^{-phi}, expands the commutator
[S, A] from its Leibniz cross terms alone, and machine-checks the graded
T-decomposition of that commutator term by term.

Numeric application of operators to sampled space-time fields is spectral;
the symmetric and antisymmetric parts are also exposed in structured
(divergence / antisymmetrized) form so their discrete adjoint identities
hold to roundoff, which the quadratic-form checks downstream rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np
import sympy as sp

from .coefficients import CoefficientField, SamplingBox, derivative_sq_sums
from .expressions import T_SYMBOL, X_SYMBOLS, Partials, SamplingError, \
    coeff_is_zero, partials, sample
from .grids import Grid, SpaceTimeGrid, spectral_derivative

Key = tuple[int, tuple[int, ...]]
Pairs = Iterable[tuple[Key, sp.Expr]]


class OrderOverflowError(RuntimeError):
    """Commutator retained derivatives beyond the expected collapse order."""


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def probe_max_abs(expr: sp.Expr, dim: int) -> float:
    """Max |expr| over 64 random points (deterministic seed), the size of a
    residual already proven nonzero, with vp(t) at its stand-in."""
    syms = [T_SYMBOL, *X_SYMBOLS[:dim]]
    syms += sorted(expr.free_symbols - set(syms), key=lambda s: s.name)
    rng = np.random.default_rng(0xC0FFEE)
    pts = rng.uniform(0.25, 1.75, size=(64, len(syms)))
    return float(np.max(np.abs(sample(_stand_in(expr), pts.T, syms))))


def _key(n: int, *axes: int, t: int = 0) -> Key:
    """The key of dt^t dx_{axes[0]} dx_{axes[1]} ... in n space dimensions."""
    return (t, tuple(axes.count(i) for i in range(n)))


def _accumulate(dim: int, pairs: Pairs) -> "DiffOperator":
    """The normal-form operator summing (key, coefficient) pairs."""
    terms: dict[Key, sp.Expr] = {}
    for key, coef in pairs:
        terms[key] = terms.get(key, sp.Integer(0)) + coef
    return DiffOperator.build(dim, terms)


@dataclass(frozen=True)
class DiffOperator:
    """Normal-form sum of (coefficient) x dt^a dx^alpha terms."""

    dim: int
    terms: Mapping[Key, sp.Expr]

    @classmethod
    def build(cls, dim: int, raw: Mapping[Key, sp.Expr]) -> "DiffOperator":
        expanded = {key: sp.expand(coef) for key, coef in sorted(raw.items())}
        return cls(dim, {key: c for key, c in expanded.items() if c != 0})

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        return _accumulate(self.dim, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return _accumulate(self.dim, [*self.terms.items(),
                                      *((k, -c) for k, c in other.terms.items())])

    def spatial_order(self) -> int:
        return max((sum(a) for (_, a) in self.terms), default=0)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Leibniz expansion of self applied after other."""
        return _accumulate(self.dim, _leibniz(self, other, partials()))

    def apply_symbolic(self, f: sp.Expr) -> sp.Expr:
        d = partials()
        out = sp.Integer(0)
        for (a, al), coef in self.terms.items():
            out += coef * d(f, *_axes(al), t=a)
        return sp.expand(out)


def _axes(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """The axes of dx^alpha in order, each as often as its order."""
    return tuple(i for i, m in enumerate(alpha) for _ in range(m))


def _leibniz(p: DiffOperator, q: DiffOperator, d: Partials,
             cross: bool = False) -> Pairs:
    """The Leibniz pairs of p applied after q, their partials from ``d``;
    with ``cross``, only those in which a derivative of p lands on a
    coefficient of q."""
    for (a1, al1), c1 in p.terms.items():
        for (a2, al2), c2 in q.terms.items():
            for jt in range(a1 + 1):
                for gamma in itertools.product(*(range(m + 1) for m in al1)):
                    if cross and not (jt or any(gamma)):
                        continue
                    binom = math.comb(a1, jt)
                    for m, g in zip(al1, gamma):
                        binom *= math.comb(m, g)
                    dc2 = d(c2, *_axes(gamma), t=jt)
                    if dc2 != 0:
                        yield ((a1 - jt + a2, tuple(
                            m - g + n2 for m, g, n2 in zip(al1, gamma, al2))),
                            binom * c1 * dc2)


def commutator(s: DiffOperator, a: DiffOperator,
               max_spatial_order: int | None = None) -> DiffOperator:
    """[S, A] = SA - AS summed from the Leibniz pairs of SA and of AS in
    which a derivative lands on the other operator's coefficient; the
    products c1 c2 dx^(alpha+beta) cancel exactly and are never formed.

    When ``max_spatial_order`` is given, surviving higher-order terms (after
    zero-pruning) raise :class:`OrderOverflowError`.
    """
    return _commutator(s, a, partials(), max_spatial_order)


def _commutator(s: DiffOperator, a: DiffOperator, d: Partials,
                max_spatial_order: int | None = None) -> DiffOperator:
    comm = _accumulate(s.dim, itertools.chain(
        _leibniz(s, a, d, cross=True),
        ((k, -c) for k, c in _leibniz(a, s, d, cross=True))))
    if max_spatial_order is not None and comm.spatial_order() > max_spatial_order:
        high = {k: v for k, v in comm.terms.items() if sum(k[1]) > max_spatial_order}
        survivors = {k: v for k, v in high.items() if not coeff_is_zero(v)}
        if survivors:
            raise OrderOverflowError(
                f"commutator kept spatial order > {max_spatial_order}: "
                f"{sorted(survivors)}")
        comm = DiffOperator(comm.dim,
                            {k: v for k, v in comm.terms.items() if k not in high})
    return comm


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

VARIANTS = ("quadratic", "power", "scaled-time", "translated")
_NUMBER = (int, float, sp.Number)
PROFILE = sp.Function("vp")(T_SYMBOL)


def _stand_in(expr: sp.Expr) -> sp.Expr:
    """``expr`` with vp(t) at the fixed smooth profile that the numeric
    probes of a generic weight sample, sin(h t/3 + 1/7) + h with
    h = crc32("vp") % 7 + 2 = 4, and the derivatives it carried evaluated.
    Built here, not at import: sympy's first sin of a sum costs 40 ms."""
    if not expr.has(PROFILE):
        return expr
    h = 4
    profile = sp.sin(sp.Rational(h, 3) * T_SYMBOL + sp.Rational(1, 7)) + h
    return expr.xreplace({PROFILE: profile}).doit()


@dataclass(frozen=True)
class WeightSpec:
    """Exponential weight parameters.

    variant 'quadratic':   phi = beta |x|^2
    variant 'power':       phi = beta |x|^{2 alpha},  alpha > 1
    variant 'scaled-time': phi = beta (|x/R|^2 + profile(t))
    variant 'translated':  phi = beta |x/R + profile(t) e1|^2

    profile(t) is always the abstract ``vp(t)`` (:data:`PROFILE`): the
    symbolic identity checks keep it generic, and
    :meth:`ConjugatedGridOps.build` takes the samples of a concrete profile.
    """

    variant: str
    beta: float | sp.Expr
    alpha: float | sp.Expr = 1
    R: float | sp.Expr = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown weight variant {self.variant!r}")
        if isinstance(self.beta, _NUMBER) and not self.beta >= 0:
            raise ValueError("beta must be positive (0 allowed for the trivial weight)")
        if isinstance(self.R, _NUMBER) and self.R < 1:
            raise ValueError("R must be >= 1")
        if self.variant == "power" and isinstance(self.alpha, _NUMBER) \
                and not self.alpha > 1:
            raise ValueError("power variant requires alpha > 1")

    def phi(self, dim: int) -> sp.Expr:
        xs = X_SYMBOLS[:dim]
        r2 = sum(x ** 2 for x in xs)
        beta = sp.sympify(self.beta)
        if self.variant == "quadratic":
            return beta * r2
        if self.variant == "power":
            return beta * r2 ** sp.sympify(self.alpha)
        R = sp.sympify(self.R)
        if self.variant == "scaled-time":
            return beta * (r2 / R ** 2 + PROFILE)
        shifted = (xs[0] / R + PROFILE) ** 2 \
            + sum((x / R) ** 2 for x in xs[1:])
        return beta * shifted


# ---------------------------------------------------------------------------
# conjugated split S + A
# ---------------------------------------------------------------------------

def conjugate_decompose(fld: CoefficientField, w: WeightSpec
                        ) -> tuple[DiffOperator, DiffOperator]:
    """Split e^phi (i dt + L) e^{-phi} into symmetric and antisymmetric parts."""
    return _split(fld, w.phi(fld.dim), partials())


def _split(fld: CoefficientField, phi: sp.Expr, d: Partials
           ) -> tuple[DiffOperator, DiffOperator]:
    n = fld.dim
    s_pairs = [(_key(n, t=1), sp.I)]
    a_pairs = [(_key(n), -sp.I * d(phi, t=1))]
    for k, j in itertools.product(range(n), repeat=2):
        akj = fld.entry(k, j)
        s_pairs += [(_key(n, k, j), akj), (_key(n, j), d(akj, k)),
                    (_key(n), d(phi, k) * d(phi, j) * akj)]
        # the antisymmetric part's (m, l) = (k, j) terms
        a_pairs += [(_key(n, k), -2 * d(phi, j) * akj),
                    (_key(n), -d(phi, j) * d(akj, k)),
                    (_key(n), -d(phi, k, j) * akj)]
    return _accumulate(n, s_pairs), _accumulate(n, a_pairs)


def conjugated_operator(fld: CoefficientField, w: WeightSpec) -> DiffOperator:
    """e^phi (i dt + L) e^{-phi} expanded directly (the oracle route for the
    split: it must equal S + A)."""
    n = fld.dim
    phi = w.phi(n)
    F = sp.Function("Fprobe")(T_SYMBOL, *X_SYMBOLS[:n])
    inner = sp.exp(-phi) * F
    expr = sp.I * sp.diff(inner, T_SYMBOL)
    for k in range(n):
        for j in range(n):
            expr += sp.diff(fld.entry(k, j) * sp.diff(inner, X_SYMBOLS[j]), X_SYMBOLS[k])
    expr = sp.expand(sp.powsimp(sp.expand(sp.exp(phi) * expr), deep=True))
    return _collect_operator(expr, F, n)


def _collect_operator(expr: sp.Expr, F: sp.Expr, dim: int) -> DiffOperator:
    def pairs() -> Pairs:
        for part in sp.Add.make_args(sp.expand(expr)):
            derivs = [d for d in part.atoms(sp.Derivative) if d.expr == F]
            if len(derivs) > 1:
                raise ValueError("nonlinear term while collecting an operator")
            if derivs:
                counts = {var: int(cnt) for var, cnt in derivs[0].variable_count}
                yield ((counts.get(T_SYMBOL, 0),
                        tuple(counts.get(x, 0) for x in X_SYMBOLS[:dim])),
                       part / derivs[0])
            elif part.has(F):
                yield _key(dim), part / F
            else:
                raise ValueError(f"term without the probe function: {part}")
    return _accumulate(dim, pairs())


# ---------------------------------------------------------------------------
# the graded T-decomposition of [S, A]
# ---------------------------------------------------------------------------

def _principal_order1(fld: CoefficientField, phi: sp.Expr, d: Partials) -> Pairs:
    """The principal first-order families of [S, A], which the graded
    formulas keep explicit: -4 a_kj a_ml (d_kjl phi) dx_m and
    -4i a_ml (d_l dt phi) dx_m."""
    n = fld.dim
    for k, j, m, l in itertools.product(range(n), repeat=4):
        yield _key(n, m), -4 * fld.entry(k, j) * fld.entry(m, l) * d(phi, k, j, l)
    for m, l in itertools.product(range(n), repeat=2):
        yield _key(n, m), -4 * sp.I * fld.entry(m, l) * d(phi, l, t=1)


def _order1_remainder(fld: CoefficientField, phi: sp.Expr, d: Partials) -> Pairs:
    """The first-order families of [S, A] that are not principal, the O(1)
    remainder that the smallness of A's derivatives keeps under control."""
    n = fld.dim
    for k, j, m, l in itertools.product(range(n), repeat=4):
        akj, aml = fld.entry(k, j), fld.entry(m, l)
        yield from [(_key(n, m), -4 * akj * d(phi, k, l) * d(aml, j)),
                    (_key(n, m), -4 * aml * d(phi, j, l) * d(akj, k)),
                    (_key(n, j), -2 * akj * d(phi, m, l) * d(aml, k)),
                    (_key(n, m), -2 * d(phi, l) * d(aml, j) * d(akj, k)),
                    (_key(n, j), -2 * akj * d(phi, l) * d(aml, k, m)),
                    (_key(n, j), 2 * aml * d(phi, l) * d(akj, k, m)),
                    # second-derivative-of-A family paired with dx_m (dropped
                    # from the printed display but produced by the composition)
                    (_key(n, m), -2 * akj * d(phi, l) * d(aml, k, j))]


def t_decomposition_terms(fld: CoefficientField, w: WeightSpec
                          ) -> dict[str, DiffOperator]:
    """The four graded commutator pieces built from their closed formulas:

    order2        second-order piece
    order1        first-order piece (including the i (dt dx phi) family)
    order0_cubic  zero-order piece cubic in the weight gradient
    order0_rest   remaining zero-order piece (linear in the weight)
    """
    return _graded_pieces(fld, w.phi(fld.dim), partials())


def _graded_pieces(fld: CoefficientField, phi: sp.Expr, d: Partials
                   ) -> dict[str, DiffOperator]:
    n = fld.dim
    k0 = _key(n)
    t2, t01, t02 = [], [], []
    for k, j, m, l in itertools.product(range(n), repeat=4):
        akj, aml = fld.entry(k, j), fld.entry(m, l)
        t2 += [(_key(n, m, j), -4 * akj * aml * d(phi, k, l)),
               (_key(n, m, j), -4 * akj * d(aml, k) * d(phi, l)),
               (_key(n, k, j), 2 * aml * d(akj, m) * d(phi, l))]

        t01 += [(k0, 4 * aml * akj * d(phi, l) * d(phi, k, m) * d(phi, j)),
                (k0, 2 * aml * d(akj, m) * d(phi, l) * d(phi, k) * d(phi, j))]

        t02 += [(k0, -akj * aml * d(phi, k, j, m, l)),
                (k0, -2 * akj * d(phi, k, j, l) * d(aml, m)),
                (k0, -2 * akj * d(phi, k, m, l) * d(aml, j)),
                (k0, -d(akj, k) * d(phi, j, l) * d(aml, m)),
                (k0, -d(akj, k) * d(phi, m, l) * d(aml, j)),
                (k0, -2 * akj * d(phi, k, l) * d(aml, j, m)),
                (k0, -akj * d(phi, m, l) * d(aml, k, j)),
                (k0, -d(akj, k) * d(phi, l) * d(aml, j, m)),
                (k0, -akj * d(phi, l) * d(aml, k, j, m))]

    t02 += [(k0, -2 * sp.I * d(phi, l, t=1) * d(fld.entry(m, l), m))
            for m, l in itertools.product(range(n), repeat=2)]
    t02.append((k0, d(phi, t=2)))
    t02 += [(k0, -2 * sp.I * fld.entry(k, j) * d(phi, k, j, t=1))
            for k, j in itertools.product(range(n), repeat=2)]

    return {"order2": _accumulate(n, t2),
            "order1": _accumulate(n, itertools.chain(
                _order1_remainder(fld, phi, d), _principal_order1(fld, phi, d))),
            "order0_cubic": _accumulate(n, t01), "order0_rest": _accumulate(n, t02)}


@dataclass(frozen=True)
class TDecompositionReport:
    dim: int
    residual_max: dict[str, float]
    residual_exprs: dict[str, str]
    identically_zero: bool
    commutator_spatial_order: int


def verify_T_decomposition(fld: CoefficientField, w: WeightSpec
                           ) -> TDecompositionReport:
    """Check that the graded pieces built from their closed formulas sum to
    the brute-force commutator of the conjugated split: the residual
    [S, A] - (sum of the pieces) is formed once and its terms reported by
    spatial order.

    The check is exact: a numeric weight parameter is taken as the rational
    of its decimal text (beta = 0.1 as 1/10), since Float coefficients would
    leave roundoff where the identity cancels."""
    exact = {k: sp.Rational(str(v)) for k, v in
             (("beta", w.beta), ("alpha", w.alpha), ("R", w.R))
             if isinstance(v, _NUMBER)}
    phi, d = replace(w, **exact).phi(fld.dim), partials()
    s_op, a_op = _split(fld, phi, d)
    comm = _commutator(s_op, a_op, d, max_spatial_order=2)
    residual = _accumulate(fld.dim, itertools.chain(comm.terms.items(), (
        (k, -c) for piece in _graded_pieces(fld, phi, d).values()
        for k, c in piece.terms.items())))
    # no key is above order 2: _commutator raised on such terms or dropped them
    bad: dict[str, list[str]] = {"order2": [], "order1": [], "order0": []}
    residual_max = dict.fromkeys(bad, 0.0)
    for key, coef in residual.terms.items():
        if coeff_is_zero(coef):
            continue
        label = f"order{sum(key[1])}"
        residual_max[label] = max(residual_max[label], probe_max_abs(coef, fld.dim))
        bad[label].append(f"{key}: {sp.sstr(sp.cancel(sp.expand(coef)))}")
    all_zero = not any(bad.values())
    residual_exprs = {label: "; ".join(b) for label, b in bad.items()}
    return TDecompositionReport(fld.dim, residual_max, residual_exprs,
                                all_zero, comm.spatial_order())


# ---------------------------------------------------------------------------
# remainder-grouping containment (the O(1) bounds, checked not assumed)
# ---------------------------------------------------------------------------

def remainder_grouping_report(fld: CoefficientField, w: WeightSpec,
                              box: SamplingBox) -> dict[str, float]:
    """Smallest C with |first-order remainder| <= C * majorant on the box
    and 9 times in [0, 1], and the sups of both sides.  A side that does not
    sample to finite numbers raises :class:`SamplingError` naming where."""
    t_samples = 9
    n = fld.dim
    phi = w.phi(n)
    d = partials()
    coords = box.lattice()
    shape = (t_samples, coords[0].size)
    mesh = (np.linspace(0.0, 1.0, t_samples)[:, None], *(c[None] for c in coords))

    def grad_norm(exprs) -> np.ndarray:
        return np.broadcast_to(np.sqrt(sum(
            np.abs(sample(_stand_in(e), mesh, (T_SYMBOL, *X_SYMBOLS[:n]))) ** 2
            for e in exprs)), shape)

    g1 = grad_norm([d(phi, i) for i in range(n)])
    g2 = grad_norm([d(phi, i, j) for i, j in itertools.product(range(n), repeat=2)])
    a1, a2 = (np.sqrt(sum(derivative_sq_sums(fld.entries, order, coords,
                                             X_SYMBOLS[:n], d)))
              for order in (1, 2))

    remainder = _accumulate(n, _order1_remainder(fld, phi, d))
    rem_norm = grad_norm([remainder.terms.get(_key(n, m), sp.Integer(0))
                          for m in range(n)])
    majorant = g2 * a1 + g1 * a1 ** 2 + g1 * a2
    for name, values in (("majorant", majorant), ("remainder", rem_norm)):
        if not np.isfinite(values).all():
            it, ip = np.argwhere(~np.isfinite(values))[0]
            raise SamplingError(f"the {name} is not finite at t = {mesh[0][it, 0]:g}, "
                                f"x = {tuple(float(c[ip]) for c in coords)}")
    mask = majorant > 1e-14
    c1 = float(np.max(rem_norm[mask] / majorant[mask])) if mask.any() else 0.0
    if np.any(~mask) and float(np.max(rem_norm[~mask])) > 1e-12:
        c1 = float("inf")
    return {"order1_containment_C": c1,
            "majorant_sup": float(np.max(majorant)),
            "remainder_sup": float(np.max(rem_norm))}


# ---------------------------------------------------------------------------
# numeric application
# ---------------------------------------------------------------------------

# the symbols that a numeric beta and R bind to in the grid split, which no
# field or user weight can name
_SCALES = {"beta": sp.Dummy("beta", real=True), "R": sp.Dummy("R", real=True)}


@lru_cache(maxsize=32)
def _grid_split(fld: CoefficientField, w: WeightSpec,
                scales: tuple[sp.Symbol, ...]
                ) -> tuple[tuple[sp.Expr, ...], tuple[sp.Symbol, ...], bool]:
    """The expressions that :meth:`ConjugatedGridOps.build` samples: the
    entries a_kj row by row, d_i phi and dt phi, with vp(t) and its slope
    bound to symbols; the symbols they sample on, t, x1..xn, vp and dvp
    when phi holds vp(t) (the third item), then ``scales``."""
    n = fld.dim
    phi, d = w.phi(n), partials()
    timed = phi.has(PROFILE)
    bind = dict(zip((PROFILE, sp.Derivative(PROFILE, T_SYMBOL)),
                    sp.symbols("vp dvp", real=True))) if timed else {}
    exprs = (*(fld.entry(k, j) for k in range(n) for j in range(n)),
             *(d(phi, i) for i in range(n)), d(phi, t=1))
    return (tuple(e.xreplace(bind) for e in exprs),
            (T_SYMBOL, *X_SYMBOLS[:n], *bind.values(), *scales), timed)


@dataclass
class ConjugatedGridOps:
    """Structured space-time grid realizations of the symmetric and
    antisymmetric parts of e^phi (i dt + L) e^{-phi} for one (field,
    weight) pair.

    The symmetric part is applied in divergence form and the antisymmetric
    part in antisymmetrized form, so the discrete adjoint identities (and
    hence ||(S+A)f||^2 = ||Sf||^2 + ||Af||^2 + <[S,A]f, f>) hold to roundoff.
    Coefficients keep their natural sampled shapes.
    """

    grid: SpaceTimeGrid
    a_entries: list[list[np.ndarray]]
    grad_phi: list[np.ndarray]
    dt_phi: np.ndarray

    @classmethod
    def build(cls, fld: CoefficientField, w: WeightSpec, grid: SpaceTimeGrid,
              profile: tuple[np.ndarray, np.ndarray] | None = None
              ) -> "ConjugatedGridOps":
        """``profile`` holds the values and slope of the time profile on
        ``grid.times``, which a time-dependent weight needs: they stand in
        for vp(t) and its derivative, so no profile expression is compiled.
        A numeric beta and R are sample arguments too, so the split's
        expressions are derived and compiled once per (field, variant,
        alpha), and a new beta or R costs no symbolic work."""
        n = fld.dim
        scales = {name: s for name, s in _SCALES.items()
                  if isinstance(getattr(w, name), _NUMBER)}
        exprs, syms, timed = _grid_split(fld, replace(w, **scales),
                                         tuple(scales.values()))
        mesh = grid.open_mesh
        if timed:
            if profile is None:
                raise SamplingError(f"{w.variant} weight without profile samples")
            mesh += tuple(np.reshape(v, mesh[0].shape) for v in profile)
        mesh += tuple(float(getattr(w, name)) for name in scales)
        values = [sample(e, mesh, syms) for e in exprs]
        return cls(grid, [values[k * n:(k + 1) * n] for k in range(n)],
                   values[n * n:n * n + n], values[-1])

    @property
    def space(self) -> Grid:
        return self.grid.space

    def on_rows(self, rows: slice) -> "ConjugatedGridOps":
        """The split on the time rows ``rows``, which applies its spatial
        parts to the slab f[rows] with the same arithmetic as the whole
        field; :meth:`apply_S0` on it takes dt f on those rows."""
        def cut(c):
            return c if np.ndim(c) == 0 or np.shape(c)[0] == 1 else c[rows]
        return ConjugatedGridOps(
            self.grid, [[cut(c) for c in row] for row in self.a_entries],
            [cut(c) for c in self.grad_phi], cut(self.dt_phi))

    def _dx(self, f: np.ndarray, i: int, overwrite: bool = False
            ) -> np.ndarray:
        return spectral_derivative(f, self.space, i, 1, time_offset=1,
                                   overwrite=overwrite)

    @property
    def zero_order(self) -> np.ndarray:
        """The zero-order multiplier grad phi . A grad phi of the symmetric
        part (quadratic in the weight scale)."""
        n = self.space.dim
        return sum(self.grad_phi[k] * self.grad_phi[j] * self.a_entries[k][j]
                   for k in range(n) for j in range(n))

    def apply_S0(self, f: np.ndarray, grads: list[np.ndarray] | None = None,
                 *, dtf: np.ndarray | None = None) -> np.ndarray:
        """The weight-free part i dt + div(A grad) of the symmetric part.
        ``grads`` is the spatial gradient of f and ``dtf`` its time
        derivative, when the caller has them; ``dtf`` is overwritten with
        the result."""
        n = self.space.dim
        out = self.grid.time_derivative(f) if dtf is None else dtf
        out *= 1j
        if grads is None:
            grads = [self._dx(f, j) for j in range(n)]
        for k in range(n):
            flux = sum(self.a_entries[k][j] * grads[j] for j in range(n))
            out += self._dx(flux, k, overwrite=True)
        return out

    def apply_S(self, f: np.ndarray) -> np.ndarray:
        out = self.apply_S0(f)
        out += self.zero_order * f
        return out

    def apply_A(self, f: np.ndarray,
                grads: list[np.ndarray] | None = None) -> np.ndarray:
        """The antisymmetric part; ``grads`` as for :meth:`apply_S0`."""
        n = self.space.dim
        out = 0.0
        c = [sum(self.a_entries[m][l] * self.grad_phi[l] for l in range(n))
             for m in range(n)]
        for m in range(n):
            # c dx f + dx(c f), summed into the transform's own array, which
            # then takes out - term: 0 - term_0 - term_1 - ...
            term = self._dx(c[m] * f, m, overwrite=True)
            term += c[m] * (self._dx(f, m) if grads is None else grads[m])
            out = np.subtract(out, term, out=term)
        out += -1j * self.dt_phi * f
        return out
