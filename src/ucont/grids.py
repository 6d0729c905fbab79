"""Periodic tensor grids and spectral calculus.

All fields live on periodic boxes [-L_i, L_i) with power-of-two point
counts, so derivatives are Fourier multipliers.  The Nyquist mode is
zeroed for odd derivative orders, which keeps the discrete derivative
exactly antisymmetric with respect to the uniform-grid inner product;
that discrete antisymmetry is what the operator symmetry checks and the
Carleman quadratic forms rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ResolutionError(RuntimeError):
    """Spectral tail of a field exceeds the resolution budget."""


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box prod_i [-L_i, L_i)."""

    extents: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if len(self.extents) != len(self.points):
            raise ValueError("extents and points must have equal length")
        if not 1 <= self.dim <= 3:
            raise ValueError("dimension must be 1, 2, or 3")
        if any(l <= 0 for l in self.extents):
            raise ValueError("extents must be positive")
        if any(not _is_pow2(n) for n in self.points):
            raise ValueError("point counts must be powers of two")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2 * L / n for L, n in zip(self.extents, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axis(self, i: int) -> np.ndarray:
        L, n = self.extents[i], self.points[i]
        return -L + (2 * L / n) * np.arange(n)

    @cached_property
    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*(self.axis(i) for i in range(self.dim)),
                                 indexing="ij"))

    @cached_property
    def open_mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate axes: axis i has shape n_i along i, 1 elsewhere."""
        return np.ix_(*(self.axis(i) for i in range(self.dim)))

    @cached_property
    def radius_sq(self) -> np.ndarray:
        return sum(m ** 2 for m in self.meshes)

    def wavenumbers(self, i: int) -> np.ndarray:
        n, h = self.points[i], self.spacings[i]
        return 2 * np.pi * np.fft.fftfreq(n, d=h)


def _fourier_derivative(values: np.ndarray, k: np.ndarray, order: int,
                        axis: int) -> np.ndarray:
    """d^order along ``axis`` as the Fourier multiplier (ik)^order, with the
    Nyquist mode zeroed for odd orders."""
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[len(k) // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = len(k)
    vhat = np.fft.fft(values, axis=axis)
    return np.fft.ifft(vhat * mult.reshape(shape), axis=axis)


def spectral_derivative(values: np.ndarray, grid: Grid, axis: int,
                        order: int = 1, *, time_offset: int = 0) -> np.ndarray:
    """d^order/dx_axis^order via FFT along ``axis + time_offset`` of ``values``."""
    return _fourier_derivative(values, grid.wavenumbers(axis), order,
                               axis + time_offset)


def spectral_gradient(values: np.ndarray, grid: Grid, *,
                      time_offset: int = 0) -> list[np.ndarray]:
    return [spectral_derivative(values, grid, i, 1, time_offset=time_offset)
            for i in range(grid.dim)]


def spectral_tail_fraction(values: np.ndarray, axes: tuple[int, ...] | None = None
                           ) -> float:
    """Max magnitude in the top-sixth wavenumber shell relative to the peak."""
    vhat = np.fft.fftn(values, axes=axes)
    peak = np.abs(vhat).max()
    if peak == 0.0:
        return 0.0
    frac = 0.0
    ndim = values.ndim
    use_axes = range(ndim) if axes is None else axes
    for ax in use_axes:
        n = values.shape[ax]
        lo, hi = n // 2 - n // 6, n // 2 + n // 6
        sl = [slice(None)] * ndim
        sl[ax] = slice(lo, hi + 1)
        frac = max(frac, np.abs(vhat[tuple(sl)]).max() / peak)
    return float(frac)


def check_resolved(values: np.ndarray, budget: float = 1e-10,
                   axes: tuple[int, ...] | None = None) -> None:
    frac = spectral_tail_fraction(values, axes)
    if frac > budget:
        raise ResolutionError(
            f"spectral tail fraction {frac:.3e} exceeds budget {budget:.1e}")


def integrate(values: np.ndarray, grid: Grid) -> complex:
    """Periodic trapezoid rule (= uniform sum) over the box."""
    return complex(values.sum() * grid.cell_volume)


def l2_inner(f: np.ndarray, g: np.ndarray, grid: Grid, dt: float | None = None
             ) -> complex:
    """<f, g> = int f conj(g); space-time when ``dt`` is given (axis 0 = t)."""
    val = np.sum(f * np.conj(g)) * grid.cell_volume
    if dt is not None:
        val = val * dt
    return complex(val)


def l2_norm_sq(f: np.ndarray, grid: Grid, dt: float | None = None) -> float:
    val = np.sum(np.abs(f) ** 2) * grid.cell_volume
    if dt is not None:
        val = val * dt
    return float(val)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform samples of [0, 1) (periodic embedding in t) times a spatial Grid."""

    nt: int
    space: Grid

    def __post_init__(self):
        if not _is_pow2(self.nt):
            raise ValueError("nt must be a power of two")

    @property
    def dt(self) -> float:
        return 1.0 / self.nt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.nt) * self.dt

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nt, *self.space.points)

    @cached_property
    def open_mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcastable (t, x1, .., xn) axes, like :attr:`Grid.open_mesh`."""
        g = self.space
        return np.ix_(self.times, *(g.axis(i) for i in range(g.dim)))

    def time_derivative(self, values: np.ndarray) -> np.ndarray:
        k = 2 * np.pi * np.fft.fftfreq(self.nt, d=self.dt)
        return _fourier_derivative(values, k, 1, 0)


def band_limited_noise(grid: Grid, rng: np.random.Generator,
                       k_cut: float, *, carrier: tuple[float, ...] | None = None
                       ) -> np.ndarray:
    """Smooth complex periodic noise with modes |k_i| <= k_cut, optionally
    modulated by a plane-wave carrier snapped to the grid."""
    coeffs = np.zeros(grid.points, dtype=complex)
    masks = []
    for i in range(grid.dim):
        masks.append(np.abs(grid.wavenumbers(i)) <= k_cut)
    mask = masks[0]
    for m in masks[1:]:
        mask = np.multiply.outer(mask, m)
    nsel = int(mask.sum())
    vals = rng.standard_normal(nsel) + 1j * rng.standard_normal(nsel)
    coeffs[mask] = vals
    out = np.fft.ifftn(coeffs)
    out /= max(np.abs(out).max(), 1e-300)
    if carrier is not None:
        phase = np.zeros(grid.points)
        for i, w in enumerate(carrier):
            k_axis = grid.wavenumbers(i)
            w_snap = k_axis[np.argmin(np.abs(k_axis - w))]
            shape = [1] * grid.dim
            shape[i] = grid.points[i]
            phase = phase + w_snap * grid.axis(i).reshape(shape)
        out = out * np.exp(1j * phase)
    return out
