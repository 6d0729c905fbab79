"""Symbolic differential-operator machinery.

A :class:`DiffOperator` is a finite sum of terms (coefficient expression)
x (dt^a dx^alpha), closed under composition and commutators and kept in a
canonical normal form (sorted derivative keys, expanded and merged
coefficients).  The module builds, for a coefficient field A(x) and an
exponential weight e^phi, the symmetric/antisymmetric split of the
conjugated operator e^phi (i dt + L) e^{-phi}, expands the commutator
[S, A] by brute-force composition, and machine-checks the graded
T-decomposition of that commutator term by term.

Numeric application of operators to sampled space-time fields is spectral;
the symmetric and antisymmetric parts are also exposed in structured
(divergence / antisymmetrized) form so their discrete adjoint identities
hold to roundoff, which the quadratic-form checks downstream rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import sympy as sp

from .coefficients import CoefficientField, SamplingBox, derivative_sq_sums
from .expressions import Expression, T_SYMBOL, X_SYMBOLS, sample
from .grids import Grid, SpaceTimeGrid, spectral_derivative

Key = tuple[int, tuple[int, ...]]


class OrderOverflowError(RuntimeError):
    """Commutator retained derivatives beyond the expected collapse order."""


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def _is_structurally_zero(expr: sp.Expr) -> bool:
    return sp.expand(expr) == 0


_PROBE_RNG_SEED = 0xC0FFEE


def probe_max_abs(expr: sp.Expr, dim: int, npoints: int = 64) -> float:
    """Max |expr| over random points (deterministic seed); 0 for the zero
    expr.  Abstract profiles are evaluated through their stand-ins."""
    expr = sp.expand(expr)
    if expr == 0:
        return 0.0
    syms = [T_SYMBOL, *X_SYMBOLS[:dim]]
    free = sorted(expr.free_symbols - set(syms), key=lambda s: s.name)
    syms += free
    rng = np.random.default_rng(_PROBE_RNG_SEED)
    pts = rng.uniform(0.25, 1.75, size=(npoints, len(syms)))
    return float(np.max(np.abs(sample(expr, pts.T, syms))))


def coeff_is_zero(expr: sp.Expr, dim: int, tol: float = 1e-10) -> bool:
    """Symbolic simplification plus randomized evaluation at 64 points."""
    if _is_structurally_zero(expr):
        return True
    if sp.simplify(expr) == 0:
        return True
    return probe_max_abs(expr, dim) <= tol


@dataclass(frozen=True)
class DiffOperator:
    """Normal-form sum of (coefficient) x dt^a dx^alpha terms."""

    dim: int
    terms: Mapping[Key, sp.Expr]

    @classmethod
    def build(cls, dim: int, raw: Mapping[Key, sp.Expr]) -> "DiffOperator":
        merged: dict[Key, sp.Expr] = {}
        for key, coef in raw.items():
            coef = sp.expand(coef)
            if coef == 0:
                continue
            if key in merged:
                merged[key] = sp.expand(merged[key] + coef)
                if merged[key] == 0:
                    del merged[key]
            else:
                merged[key] = coef
        return cls(dim, dict(sorted(merged.items())))

    @classmethod
    def zero(cls, dim: int) -> "DiffOperator":
        return cls(dim, {})

    @classmethod
    def identity(cls, dim: int) -> "DiffOperator":
        return cls.build(dim, {(0, (0,) * dim): sp.Integer(1)})

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.terms)
        for key, coef in other.terms.items():
            out[key] = out.get(key, sp.Integer(0)) + coef
        return DiffOperator.build(self.dim, out)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + other.scale(-1)

    def scale(self, c) -> "DiffOperator":
        return DiffOperator.build(self.dim, {k: c * v for k, v in self.terms.items()})

    def spatial_order(self) -> int:
        return max((sum(a) for (_, a) in self.terms), default=0)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Leibniz expansion of self applied after other."""
        out: dict[Key, sp.Expr] = {}
        for (a1, al1), c1 in self.terms.items():
            for (a2, al2), c2 in other.terms.items():
                t_range = range(a1 + 1)
                x_ranges = [range(m + 1) for m in al1]
                for jt in t_range:
                    for gamma in itertools.product(*x_ranges):
                        binom = math.comb(a1, jt)
                        for m, g in zip(al1, gamma):
                            binom *= math.comb(m, g)
                        dc2 = c2
                        if jt:
                            dc2 = sp.diff(dc2, T_SYMBOL, jt)
                        for i, g in enumerate(gamma):
                            if g:
                                dc2 = sp.diff(dc2, X_SYMBOLS[i], g)
                        if dc2 == 0:
                            continue
                        key = (a1 - jt + a2,
                               tuple(m - g + n2 for m, g, n2 in zip(al1, gamma, al2)))
                        out[key] = out.get(key, sp.Integer(0)) + binom * c1 * dc2
        return DiffOperator.build(self.dim, out)

    def order_part(self, spatial_order: int) -> "DiffOperator":
        return DiffOperator.build(
            self.dim, {k: v for k, v in self.terms.items() if sum(k[1]) == spatial_order})

    def prune_zeros(self, tol: float = 1e-10) -> "DiffOperator":
        """Drop terms whose coefficients are zero under full simplification."""
        kept = {k: v for k, v in self.terms.items()
                if not coeff_is_zero(v, self.dim, tol)}
        return DiffOperator(self.dim, dict(sorted(kept.items())))

    def apply_symbolic(self, f: sp.Expr | Expression) -> sp.Expr:
        fx = f.sym if isinstance(f, Expression) else sp.sympify(f)
        out = sp.Integer(0)
        for (a, al), coef in self.terms.items():
            df = fx
            if a:
                df = sp.diff(df, T_SYMBOL, a)
            for i, m in enumerate(al):
                if m:
                    df = sp.diff(df, X_SYMBOLS[i], m)
            out += coef * df
        return sp.expand(out)

    def to_text(self) -> str:
        lines = []
        for (a, al), coef in sorted(self.terms.items()):
            alpha = ",".join(str(m) for m in al)
            lines.append(f"({sp.sstr(sp.expand(coef))}) ⊗ dt^{a} dx^({alpha})")
        return "\n".join(lines)


def operators_equal(p: DiffOperator, q: DiffOperator, tol: float = 1e-10) -> bool:
    diff = p - q
    return all(coeff_is_zero(c, p.dim, tol) for c in diff.terms.values())


def commutator(s: DiffOperator, a: DiffOperator,
               max_spatial_order: int | None = None) -> DiffOperator:
    """[S, A] = SA - AS, fully expanded and normalized.

    When ``max_spatial_order`` is given, surviving higher-order terms (after
    zero-pruning) raise :class:`OrderOverflowError`: for conjugate pairs the
    order-3 and order-4 compositions must cancel identically.
    """
    comm = s.compose(a) - a.compose(s)
    if max_spatial_order is not None and comm.spatial_order() > max_spatial_order:
        high = {k: v for k, v in comm.terms.items() if sum(k[1]) > max_spatial_order}
        survivors = {k: v for k, v in high.items()
                     if not coeff_is_zero(v, comm.dim)}
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


@dataclass(frozen=True)
class WeightSpec:
    """Exponential weight parameters.

    variant 'quadratic':   phi = beta |x|^2
    variant 'power':       phi = beta |x|^{2 alpha},  alpha > 1
    variant 'scaled-time': phi = beta (|x/R|^2 + profile(t))
    variant 'translated':  phi = beta |x/R + profile(t) e1|^2

    ``profile=None`` on the time-dependent variants stands for a generic
    smooth profile symbol, used by the symbolic identity checks; numeric
    work requires a concrete compactly supported profile.
    """

    variant: str
    beta: float | sp.Expr
    alpha: float | sp.Expr = 1
    R: float | sp.Expr = 1
    profile: Expression | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown weight variant {self.variant!r}")
        if isinstance(self.beta, (int, float)) and not self.beta >= 0:
            raise ValueError("beta must be positive (0 allowed for the trivial weight)")
        if isinstance(self.R, (int, float)) and self.R < 1:
            raise ValueError("R must be >= 1")
        if self.variant == "power" and isinstance(self.alpha, (int, float)) \
                and not self.alpha > 1:
            raise ValueError("power variant requires alpha > 1")

    def _profile_expr(self) -> sp.Expr:
        if self.profile is None:
            return sp.Function("vp")(T_SYMBOL)
        return self.profile.sym

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
            return beta * (r2 / R ** 2 + self._profile_expr())
        shifted = (xs[0] / R + self._profile_expr()) ** 2 \
            + sum((x / R) ** 2 for x in xs[1:])
        return beta * shifted


# ---------------------------------------------------------------------------
# conjugated split S + A
# ---------------------------------------------------------------------------

def conjugate_decompose(fld: CoefficientField, w: WeightSpec
                        ) -> tuple[DiffOperator, DiffOperator]:
    """Split e^phi (i dt + L) e^{-phi} into symmetric and antisymmetric parts."""
    n = fld.dim
    phi = w.phi(n)
    s_terms: dict[Key, sp.Expr] = {}
    a_terms: dict[Key, sp.Expr] = {}

    def add(terms, key, coef):
        terms[key] = terms.get(key, sp.Integer(0)) + coef

    add(s_terms, (1, (0,) * n), sp.I)
    add(a_terms, (0, (0,) * n), -sp.I * sp.diff(phi, T_SYMBOL))
    for k in range(n):
        for j in range(n):
            akj = fld.entry(k, j)
            key2 = [0] * n
            key2[k] += 1
            key2[j] += 1
            add(s_terms, (0, tuple(key2)), akj)
            key1 = [0] * n
            key1[j] += 1
            add(s_terms, (0, tuple(key1)), sp.diff(akj, X_SYMBOLS[k]))
            add(s_terms, (0, (0,) * n),
                sp.diff(phi, X_SYMBOLS[k]) * sp.diff(phi, X_SYMBOLS[j]) * akj)
    for m in range(n):
        for l in range(n):
            aml = fld.entry(m, l)
            dphi_l = sp.diff(phi, X_SYMBOLS[l])
            key1 = [0] * n
            key1[m] += 1
            add(a_terms, (0, tuple(key1)), -2 * dphi_l * aml)
            add(a_terms, (0, (0,) * n), -dphi_l * sp.diff(aml, X_SYMBOLS[m]))
            add(a_terms, (0, (0,) * n),
                -sp.diff(phi, X_SYMBOLS[m], 1).diff(X_SYMBOLS[l]) * aml)
    return DiffOperator.build(n, s_terms), DiffOperator.build(n, a_terms)


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
    terms: dict[Key, sp.Expr] = {}
    expr = sp.expand(expr)
    parts = expr.args if isinstance(expr, sp.Add) else (expr,)
    for part in parts:
        derivs = [d for d in part.atoms(sp.Derivative) if d.expr == F]
        if len(derivs) > 1:
            raise ValueError("nonlinear term while collecting an operator")
        if derivs:
            d = derivs[0]
            a = 0
            al = [0] * dim
            for var, cnt in d.variable_count:
                if var == T_SYMBOL:
                    a = int(cnt)
                else:
                    al[X_SYMBOLS.index(var)] = int(cnt)
            coef = part / d
            key = (a, tuple(al))
        elif part.has(F):
            coef = part / F
            key = (0, (0,) * dim)
        else:
            raise ValueError(f"term without the probe function: {part}")
        terms[key] = terms.get(key, sp.Integer(0)) + coef
    return DiffOperator.build(dim, terms)


# ---------------------------------------------------------------------------
# the graded T-decomposition of [S, A]
# ---------------------------------------------------------------------------

def t_decomposition_terms(fld: CoefficientField, w: WeightSpec
                          ) -> dict[str, DiffOperator]:
    """The four graded commutator pieces built from their closed formulas:

    order2        second-order piece
    order1        first-order piece (including the i (dt dx phi) family)
    order0_cubic  zero-order piece cubic in the weight gradient
    order0_rest   remaining zero-order piece (linear in the weight)
    """
    n = fld.dim
    phi = w.phi(n)
    xs = X_SYMBOLS[:n]
    d = sp.diff

    def dphi(*idx):
        e = phi
        for i in idx:
            e = d(e, xs[i])
        return e

    t2: dict[Key, sp.Expr] = {}
    t1: dict[Key, sp.Expr] = {}
    t01: dict[Key, sp.Expr] = {}
    t02: dict[Key, sp.Expr] = {}

    def add(terms, key, coef):
        terms[key] = terms.get(key, sp.Integer(0)) + coef

    def k2(i, j):
        al = [0] * n
        al[i] += 1
        al[j] += 1
        return (0, tuple(al))

    def k1(i):
        al = [0] * n
        al[i] += 1
        return (0, tuple(al))

    k0 = (0, (0,) * n)

    a = [[fld.entry(k, j) for j in range(n)] for k in range(n)]
    for k in range(n):
     for j in range(n):
      for m in range(n):
       for l in range(n):
        akj, aml = a[k][j], a[m][l]
        add(t2, k2(m, j), -4 * akj * aml * dphi(k, l))
        add(t2, k2(m, j), -4 * akj * d(aml, xs[k]) * dphi(l))
        add(t2, k2(k, j), 2 * aml * d(akj, xs[m]) * dphi(l))

        add(t1, k1(m), -4 * akj * aml * dphi(k, j, l))
        add(t1, k1(m), -4 * akj * dphi(k, l) * d(aml, xs[j]))
        add(t1, k1(m), -4 * aml * dphi(j, l) * d(akj, xs[k]))
        add(t1, k1(j), -2 * akj * dphi(m, l) * d(aml, xs[k]))
        add(t1, k1(m), -2 * dphi(l) * d(aml, xs[j]) * d(akj, xs[k]))
        add(t1, k1(j), -2 * akj * dphi(l) * d(d(aml, xs[k]), xs[m]))
        add(t1, k1(j), 2 * aml * dphi(l) * d(d(akj, xs[k]), xs[m]))
        # second-derivative-of-A family paired with dx_m (dropped from the
        # printed display but produced by the composition; see ledger)
        add(t1, k1(m), -2 * akj * dphi(l) * d(d(aml, xs[k]), xs[j]))

        add(t01, k0, 4 * aml * akj * dphi(l) * dphi(k, m) * dphi(j))
        add(t01, k0, 2 * aml * d(akj, xs[m]) * dphi(l) * dphi(k) * dphi(j))

        add(t02, k0, -akj * aml * dphi(k, j, m, l))
        add(t02, k0, -2 * akj * dphi(k, j, l) * d(aml, xs[m]))
        add(t02, k0, -2 * akj * dphi(k, m, l) * d(aml, xs[j]))
        add(t02, k0, -d(akj, xs[k]) * dphi(j, l) * d(aml, xs[m]))
        add(t02, k0, -d(akj, xs[k]) * dphi(m, l) * d(aml, xs[j]))
        add(t02, k0, -2 * akj * dphi(k, l) * d(d(aml, xs[j]), xs[m]))
        add(t02, k0, -akj * dphi(m, l) * d(d(aml, xs[k]), xs[j]))
        add(t02, k0, -d(akj, xs[k]) * dphi(l) * d(d(aml, xs[j]), xs[m]))
        add(t02, k0, -akj * dphi(l) * d(d(d(aml, xs[k]), xs[j]), xs[m]))

    dtphi = d(phi, T_SYMBOL)
    for m in range(n):
        for l in range(n):
            add(t1, k1(m), -4 * sp.I * a[m][l] * d(dtphi, xs[l]))
            add(t02, k0, -2 * sp.I * d(dtphi, xs[l]) * d(a[m][l], xs[m]))
    add(t02, k0, d(dtphi, T_SYMBOL))
    for k in range(n):
        for j in range(n):
            add(t02, k0, -2 * sp.I * a[k][j] * d(d(dtphi, xs[k]), xs[j]))

    return {
        "order2": DiffOperator.build(n, t2),
        "order1": DiffOperator.build(n, t1),
        "order0_cubic": DiffOperator.build(n, t01),
        "order0_rest": DiffOperator.build(n, t02),
    }


@dataclass(frozen=True)
class TDecompositionReport:
    dim: int
    weight_variant: str
    residual_max: dict[str, float]
    residual_exprs: dict[str, str]
    identically_zero: bool
    commutator_spatial_order: int

    @property
    def ok(self) -> bool:
        return self.identically_zero


def verify_T_decomposition(fld: CoefficientField, w: WeightSpec
                           ) -> TDecompositionReport:
    """Check that the graded pieces built from their closed formulas sum to
    the brute-force commutator of the conjugated split, grade by grade."""
    s_op, a_op = conjugate_decompose(fld, w)
    comm = commutator(s_op, a_op, max_spatial_order=2)
    parts = t_decomposition_terms(fld, w)
    grouped = {
        "order2": comm.order_part(2) - parts["order2"],
        "order1": comm.order_part(1) - parts["order1"],
        "order0": comm.order_part(0) - (parts["order0_cubic"] + parts["order0_rest"]),
    }
    residual_max: dict[str, float] = {}
    residual_exprs: dict[str, str] = {}
    all_zero = True
    for label, op in grouped.items():
        worst = 0.0
        bad = []
        for key, coef in op.terms.items():
            if coeff_is_zero(coef, fld.dim):
                continue
            all_zero = False
            worst = max(worst, probe_max_abs(coef, fld.dim))
            bad.append(f"{key}: {sp.sstr(sp.simplify(coef))}")
        residual_max[label] = worst
        residual_exprs[label] = "; ".join(bad)
    return TDecompositionReport(fld.dim, w.variant, residual_max, residual_exprs,
                                all_zero, comm.spatial_order())


# ---------------------------------------------------------------------------
# remainder-grouping containment (the O(1) bounds, checked not assumed)
# ---------------------------------------------------------------------------

def remainder_grouping_report(fld: CoefficientField, w: WeightSpec,
                              box: SamplingBox) -> dict[str, float]:
    """Smallest constants C with |remainder coefficients| <= C * majorant on
    the box and 9 times in [0, 1], for the first-order and zero-order
    remainder groupings."""
    t_samples = 9
    n = fld.dim
    phi = w.phi(n)
    xs = X_SYMBOLS[:n]
    coords = box.lattice()
    shape = (t_samples, coords[0].size)
    mesh = (np.linspace(0.0, 1.0, t_samples)[:, None], *(c[None] for c in coords))

    def grad_norm(exprs) -> np.ndarray:
        sq = sum(np.abs(sample(e, mesh, (T_SYMBOL, *xs))) ** 2 for e in exprs)
        return np.broadcast_to(np.sqrt(sq), shape)

    g1 = grad_norm([sp.diff(phi, x) for x in xs])
    g2 = grad_norm([sp.diff(phi, xi, xj) for xi in xs for xj in xs])
    a1 = np.sqrt(sum(derivative_sq_sums(fld.entries, 1, coords, xs)))[None, :]
    a2 = np.sqrt(sum(derivative_sq_sums(fld.entries, 2, coords, xs)))[None, :]

    parts = t_decomposition_terms(fld, w)
    s_full = parts["order1"]
    # principal first-order families (kept explicitly in the abbreviated form)
    princ: dict[Key, sp.Expr] = {}
    for m in range(n):
        key = (0, tuple(1 if i == m else 0 for i in range(n)))
        coef = sp.Integer(0)
        for l in range(n):
            coef += -4 * sp.I * fld.entry(m, l) * sp.diff(phi, T_SYMBOL).diff(X_SYMBOLS[l])
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    coef += -4 * fld.entry(k, j) * fld.entry(m, l) * \
                        sp.diff(phi, X_SYMBOLS[k]).diff(X_SYMBOLS[j]).diff(X_SYMBOLS[l])
        princ[key] = coef
    remainder = s_full - DiffOperator.build(n, princ)
    rem_norm = grad_norm([remainder.terms.get(
        (0, tuple(1 if i == m else 0 for i in range(n))), sp.Integer(0))
        for m in range(n)])
    majorant = g2 * a1 + g1 * a1 ** 2 + g1 * a2
    mask = majorant > 1e-14
    c1 = float(np.max(rem_norm[mask] / majorant[mask])) if mask.any() else 0.0
    if np.any(~mask):
        if float(np.max(rem_norm[~mask])) > 1e-12:
            c1 = float("inf")
    return {"order1_containment_C": c1,
            "majorant_sup": float(np.max(majorant)),
            "remainder_sup": float(np.max(rem_norm))}


# ---------------------------------------------------------------------------
# numeric application
# ---------------------------------------------------------------------------

@dataclass
class ConjugatedGridOps:
    """Structured grid realizations of the symmetric part, antisymmetric part
    and their sum for one (field, weight) pair on one grid.

    On a :class:`SpaceTimeGrid` these realize the split of
    e^phi (i dt + L) e^{-phi}; on a spatial :class:`Grid` they realize the
    fixed-time split of e^phi L e^{-phi}, which needs a time-independent
    weight.  The symmetric part is applied in divergence form and the
    antisymmetric part in antisymmetrized form, so the discrete adjoint
    identities (and hence ||(S+A)f||^2 = ||Sf||^2 + ||Af||^2 + <[S,A]f, f>)
    hold to roundoff.  Coefficients keep their natural sampled shapes.
    """

    grid: SpaceTimeGrid | Grid
    a_entries: list[list[np.ndarray]]
    grad_phi: list[np.ndarray]
    dt_phi: np.ndarray | None       # None on a spatial grid

    @classmethod
    def build(cls, fld: CoefficientField, w: WeightSpec,
              grid: SpaceTimeGrid | Grid) -> "ConjugatedGridOps":
        n = fld.dim
        phi = w.phi(n)
        xs = X_SYMBOLS[:n]
        dt_phi = sp.diff(phi, T_SYMBOL)
        timed = isinstance(grid, SpaceTimeGrid)
        if not timed and dt_phi != 0:
            raise ValueError("the fixed-time split on a spatial grid needs a "
                             "time-independent weight")
        syms = (T_SYMBOL, *xs) if timed else xs

        def on_grid(e: sp.Expr):
            return sample(e, grid.open_mesh, syms)
        return cls(grid,
                   [[on_grid(fld.entry(k, j)) for j in range(n)]
                    for k in range(n)],
                   [on_grid(sp.diff(phi, x)) for x in xs],
                   on_grid(dt_phi) if timed else None)

    @property
    def timed(self) -> bool:
        return isinstance(self.grid, SpaceTimeGrid)

    @property
    def space(self) -> Grid:
        return self.grid.space if self.timed else self.grid

    def _dx(self, f: np.ndarray, i: int) -> np.ndarray:
        return spectral_derivative(f, self.space, i, 1,
                                   time_offset=int(self.timed))

    @property
    def zero_order(self) -> np.ndarray:
        """The zero-order multiplier grad phi . A grad phi of the symmetric
        part (quadratic in the weight scale)."""
        n = self.space.dim
        return sum(self.grad_phi[k] * self.grad_phi[j] * self.a_entries[k][j]
                   for k in range(n) for j in range(n))

    def apply_S0(self, f: np.ndarray) -> np.ndarray:
        """The weight-free part i dt + div(A grad) of the symmetric part."""
        n = self.space.dim
        out = np.zeros_like(f, dtype=complex)
        if self.timed:
            out += 1j * self.grid.time_derivative(f)
        grads = [self._dx(f, j) for j in range(n)]
        for k in range(n):
            flux = sum(self.a_entries[k][j] * grads[j] for j in range(n))
            out += self._dx(flux, k)
        return out

    def apply_S(self, f: np.ndarray) -> np.ndarray:
        out = self.apply_S0(f)
        out += self.zero_order * f
        return out

    def apply_A(self, f: np.ndarray) -> np.ndarray:
        n = self.space.dim
        out = np.zeros_like(f, dtype=complex)
        c = [sum(self.a_entries[m][l] * self.grad_phi[l] for l in range(n))
             for m in range(n)]
        for m in range(n):
            out -= c[m] * self._dx(f, m) + self._dx(c[m] * f, m)
        if self.timed:
            out += -1j * self.dt_phi * f
        return out

    def apply_sum(self, f: np.ndarray) -> np.ndarray:
        return self.apply_S(f) + self.apply_A(f)
