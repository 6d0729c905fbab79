"""Periodic tensor grids and spectral calculus.

All fields live on periodic boxes [-L_i, L_i) with power-of-two point
counts, so derivatives are Fourier multipliers.  The Nyquist mode is
zeroed for odd derivative orders, which keeps the discrete derivative
exactly antisymmetric with respect to the uniform-grid inner product;
that discrete antisymmetry is what the operator symmetry checks and the
Carleman quadratic forms rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class NumericGuardError(RuntimeError):
    """A numeric guard stopped a computation whose result would be unsound;
    ``experiments.run`` records it as one failed ``numeric_guard`` check."""


class ResolutionError(NumericGuardError):
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


@lru_cache(maxsize=128)
def _multiplier(n: int, h: float, order: int) -> np.ndarray:
    """(ik)^order on the n FFT wavenumbers of spacing h, with the Nyquist
    mode zeroed for odd orders.  Read-only: every caller shares it."""
    mult = (1j * (2 * np.pi * np.fft.fftfreq(n, d=h))) ** order
    if order % 2 == 1:
        mult[n // 2] = 0.0
    mult.flags.writeable = False
    return mult


def _fourier_derivative(values: np.ndarray, mult: np.ndarray, axis: int,
                        overwrite: bool = False) -> np.ndarray:
    """The Fourier multiplier ``mult`` applied along ``axis``: one forward
    transform, multiplied and inverse-transformed in place, so the result is
    the only array allocated and ``values`` is left unchanged; with
    ``overwrite``, a complex ``values`` holds the result and nothing is
    allocated."""
    shape = [1] * values.ndim
    shape[axis] = mult.size
    in_place = overwrite and values.dtype == complex
    vhat = np.fft.fft(values, axis=axis, out=values if in_place else None)
    vhat *= mult.reshape(shape)
    return np.fft.ifft(vhat, axis=axis, out=vhat)


def spectral_derivative(values: np.ndarray, grid: Grid, axis: int,
                        order: int = 1, *, time_offset: int = 0,
                        overwrite: bool = False) -> np.ndarray:
    """d^order/dx_axis^order via FFT along ``axis + time_offset`` of
    ``values``; ``overwrite`` as for :func:`_fourier_derivative`."""
    mult = _multiplier(grid.points[axis], grid.spacings[axis], order)
    return _fourier_derivative(values, mult, axis + time_offset, overwrite)


def spectral_gradient(values: np.ndarray, grid: Grid, *,
                      time_offset: int = 0) -> list[np.ndarray]:
    return [spectral_derivative(values, grid, i, 1, time_offset=time_offset)
            for i in range(grid.dim)]


# Streamed passes walk the leading (time) axis of a field in slabs of about
# this many bytes of complex data.  A slab's dozen temporaries then stay small
# beside the one or two full-size fields a pass keeps, while each FFT call
# still covers thousands of lines, so the per-slab Python cost is negligible.
_SLAB_BYTES = 1 << 20


def slabs(shape: tuple[int, ...]) -> list[slice]:
    """Slices of the leading axis of a complex array of ``shape``, each at
    most _SLAB_BYTES (or one row) and a power of two rows long, so on a
    power-of-two shape all slabs have one power-of-two size."""
    row = 16 * math.prod(shape[1:])
    step = 1 << max((_SLAB_BYTES // row).bit_length() - 1, 0)
    return [slice(i, min(i + step, shape[0]))
            for i in range(0, shape[0], step)]


def pairwise_total(parts: list):
    """The per-slab sums of :func:`slabs` combined in a balanced tree.  numpy
    sums a contiguous float array pairwise, halving it down to blocks of 128,
    so on a power-of-two shape this is ``np.sum`` of the whole array, bit for
    bit (a slab holds at least 2^15 values whenever there are two)."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] \
            + parts[len(parts) - len(parts) % 2:]
    return parts[0]


def spectral_tail_fraction(values: np.ndarray) -> float:
    """Max magnitude in the top-sixth wavenumber shell relative to the peak.

    The transform is ``np.fft.fftn``'s, in its own axis order (the last axis
    first), streamed: the trailing axes slab by slab, then axis 0 in place;
    the maxima are taken slab by slab.  A non-finite field raises."""
    vhat = np.empty(values.shape, dtype=complex)
    parts = slabs(values.shape)
    for rows in parts:
        vhat[rows] = np.fft.fftn(values[rows],
                                axes=tuple(range(1, values.ndim)))
    np.fft.fft(vhat, axis=0, out=vhat)
    shells = [(n // 2 - n // 6, n // 2 + n // 6 + 1) for n in values.shape]
    # np.maximum, like the whole-array max, carries a NaN to the peak test
    peak, tops = 0.0, [0.0] * values.ndim
    for rows in parts:
        mag = np.abs(vhat[rows])
        peak = np.maximum(peak, mag.max())
        lo, hi = (max(b - rows.start, 0) for b in shells[0])
        if mag[lo:hi].size:
            tops[0] = np.maximum(tops[0], mag[lo:hi].max())
        for ax in range(1, values.ndim):
            cut = (slice(None),) * ax + (slice(*shells[ax]),)
            tops[ax] = np.maximum(tops[ax], mag[cut].max())
    if not np.isfinite(peak):
        raise ResolutionError(f"non-finite field: its spectral peak is {peak}")
    if peak == 0.0:
        return 0.0
    frac = 0.0
    for top in tops:
        frac = max(frac, top / peak)
    return float(frac)


def check_resolved(values: np.ndarray, budget: float = 1e-10) -> None:
    frac = spectral_tail_fraction(values)
    if frac > budget:
        raise ResolutionError(
            f"spectral tail fraction {frac:.3e} exceeds budget {budget:.1e}")


def l2_inner(f: np.ndarray, g: np.ndarray, grid: Grid) -> complex:
    """<f, g> = int f conj(g) over the cells of ``grid``."""
    return complex(np.sum(f * np.conj(g)) * grid.cell_volume)


def l2_norm_sq(f: np.ndarray, grid: Grid) -> float:
    return float(np.sum(np.abs(f) ** 2) * grid.cell_volume)


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
        return _fourier_derivative(values, _multiplier(self.nt, self.dt, 1), 0)


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
