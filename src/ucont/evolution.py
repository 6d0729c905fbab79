"""Propagation of d_t u = (a+ib)(L u + V u) on periodic tensor grids.

Strang splitting: the constant-coefficient part (box-average of A) is an
exact Fourier multiplier; the variable-coefficient remainder plus the
potential is integrated in physical space (exact pointwise exponential
when the remainder is a pure potential, classical RK4 otherwise).  The
scheme is second order overall.  Closed-form complex-Gaussian flows serve
as oracles for the free, heat, and dissipative cases.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
import numpy as np

from .coefficients import CoefficientField
from .expressions import sample
from .grids import Grid, check_resolved, l2_norm_sq, spectral_derivative


class BlowUpError(RuntimeError):
    """Trajectory norm grew beyond the configured guard factor."""


class StabilityError(RuntimeError):
    """Requested step count violates the explicit-stage stability budget."""


@dataclass(frozen=True)
class DissipationParams:
    """Coefficients of d_t u = (a+ib)(L+V)u; a >= 0, a^2+b^2 != 0."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("dissipation a must be >= 0")
        if self.a ** 2 + self.b ** 2 == 0:
            raise ValueError("a^2 + b^2 must be nonzero")

    @property
    def zeta(self) -> complex:
        return complex(self.a, self.b)


SCHRODINGER = DissipationParams(0.0, 1.0)
HEAT = DissipationParams(1.0, 0.0)


@dataclass(frozen=True)
class WaveState:
    t: float
    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        if not np.all(np.isfinite(self.values.real)) or \
                not np.all(np.isfinite(self.values.imag)):
            raise ValueError("state contains non-finite values")


def mass(u: WaveState) -> float:
    """Trapezoidal L^2 norm squared on the periodic box."""
    return l2_norm_sq(u.values, u.grid)


@dataclass
class Trajectory:
    grid: Grid
    times: np.ndarray
    frames: np.ndarray            # (T, *space), complex
    meta: dict = dc_field(default_factory=dict)

    def state(self, i: int) -> WaveState:
        return WaveState(float(self.times[i]), self.frames[i], self.grid)

    @property
    def initial(self) -> WaveState:
        return self.state(0)

    @property
    def final(self) -> WaveState:
        return self.state(len(self.times) - 1)


# ---------------------------------------------------------------------------
# complex-Gaussian closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPacket:
    """amplitude * exp(-|x - center|^2 / (4 s)), Re s > 0."""

    s: complex
    center: tuple[float, ...] = (0.0,)
    amplitude: complex = 1.0

    def __post_init__(self):
        if not complex(self.s).real > 0:
            raise ValueError("Re s must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def modulus_rate(self) -> float:
        """A with |packet| = O(e^{-A |x|^2})."""
        return (1.0 / (4 * complex(self.s))).real

    def sample(self, grid: Grid) -> np.ndarray:
        r2 = sum((m - c) ** 2 for m, c in zip(grid.meshes, self.center))
        return self.amplitude * np.exp(-r2 / (4 * complex(self.s)))

    def flow(self, zeta: complex, t: float) -> "GaussianPacket":
        """Evolution under e^{t zeta Laplacian}: s -> s + zeta t with the
        dimensional amplitude factor."""
        s_new = complex(self.s) + zeta * t
        scale = (complex(self.s) / s_new) ** (self.dim / 2.0)
        return GaussianPacket(s_new, self.center, self.amplitude * scale)


def free_flow_closed_form(p: GaussianPacket, t: float) -> GaussianPacket:
    """Free propagator closed form: s -> s + i t, amplitude times
    (s/(s+it))^{n/2}; the modulus is again a Gaussian."""
    return p.flow(1j, t)


def linear_potential_closed_form(p: GaussianPacket, c: float, t: float,
                                 grid: Grid) -> np.ndarray:
    """Exact solution of d_t u = i(Lap u + c x1 u) from packet data: the free
    solution boosted by the accelerating frame, sampled on the grid."""
    free = p.flow(1j, t)
    shifted = GaussianPacket(free.s,
                             (free.center[0] + c * t ** 2, *free.center[1:]),
                             free.amplitude)
    vals = shifted.sample(grid)
    x1 = grid.meshes[0]
    phase = np.exp(1j * (c * t * x1 - c ** 2 * t ** 3 / 3.0))
    return phase * vals


# ---------------------------------------------------------------------------
# the split-step propagator
# ---------------------------------------------------------------------------

def _kinetic_symbol(abar: np.ndarray, grid: Grid) -> np.ndarray:
    kaxes = [grid.wavenumbers(i) for i in range(grid.dim)]
    kmesh = np.meshgrid(*kaxes, indexing="ij")
    sym = np.zeros(grid.points)
    for k in range(grid.dim):
        for j in range(grid.dim):
            sym -= abar[k, j] * kmesh[k] * kmesh[j]
    return sym


def propagate(u0: WaveState, fld: CoefficientField, d: DissipationParams,
              t_span: tuple[float, float] = (0.0, 1.0), steps: int = 256,
              n_frames: int = 2, *, blowup_factor: float = 1e3) -> Trajectory:
    """Second-order Strang trajectory of d_t u = (a+ib)(L+V)u.

    Frames are stored at n_frames uniformly spaced times (endpoints
    included); steps must be a multiple of n_frames - 1.
    """
    if n_frames < 2 or steps % (n_frames - 1) != 0:
        raise ValueError("steps must be a positive multiple of n_frames - 1")
    grid = u0.grid
    check_resolved(u0.values, 1e-10)

    entries = [[sample(fld.entry(k, j), grid.open_mesh)
                for j in range(grid.dim)] for k in range(grid.dim)]
    v = sample(fld.potential.sym, grid.open_mesh)
    abar = np.array([[np.mean(entries[k][j]) for j in range(grid.dim)]
                     for k in range(grid.dim)])
    delta = [[entries[k][j] - abar[k, j] for j in range(grid.dim)]
             for k in range(grid.dim)]
    delta_max = max(float(np.max(np.abs(delta[k][j])))
                    for k in range(grid.dim) for j in range(grid.dim))
    pure_potential = delta_max < 1e-14

    t0, t1 = t_span
    dt = (t1 - t0) / steps
    zeta = d.zeta
    sym = _kinetic_symbol(abar, grid)
    half_kin = np.exp(zeta * sym * (dt / 2.0))

    if not pure_potential:
        k2 = -sym / max(abar.diagonal().mean(), 1e-30)
        radius = abs(dt * zeta) * (delta_max * grid.dim * float(np.max(np.abs(k2)))
                                   + float(np.max(np.abs(v))))
        if radius > 2.7:
            raise StabilityError(
                f"explicit remainder stage unstable: |dt * spectrum| ~ {radius:.2f} "
                f"> 2.7; increase steps to >= {int(steps * radius / 2.5) + 1}")

    def remainder_rhs(w: np.ndarray) -> np.ndarray:
        out = v * w
        grads = [spectral_derivative(w, grid, j, 1) for j in range(grid.dim)]
        for k in range(grid.dim):
            flux = sum(delta[k][j] * grads[j] for j in range(grid.dim))
            out += spectral_derivative(flux, grid, k, 1)
        return zeta * out

    if pure_potential:
        pot_step = np.exp(zeta * v * dt)

        def remainder_step(w: np.ndarray) -> np.ndarray:
            return w * pot_step
    else:
        def remainder_step(w: np.ndarray) -> np.ndarray:
            k1 = remainder_rhs(w)
            k2_ = remainder_rhs(w + 0.5 * dt * k1)
            k3 = remainder_rhs(w + 0.5 * dt * k2_)
            k4 = remainder_rhs(w + dt * k3)
            return w + (dt / 6.0) * (k1 + 2 * k2_ + 2 * k3 + k4)

    frames = np.empty((n_frames, *grid.points), dtype=complex)
    times = np.linspace(t0, t1, n_frames)
    frames[0] = u0.values.astype(complex)
    m0 = l2_norm_sq(frames[0], grid)
    stride = steps // (n_frames - 1)

    u = frames[0]
    uhat = None
    for step in range(steps):
        # merge adjacent half kinetic steps except around stored frames; each
        # half step multiplies into the transform and inverts it in place
        if uhat is None:
            uhat = np.fft.fftn(u)
        uhat *= half_kin
        u = remainder_step(np.fft.ifftn(uhat, out=uhat))
        uhat = np.fft.fftn(u)
        uhat *= half_kin
        if (step + 1) % stride == 0:
            u = np.fft.ifftn(uhat, out=uhat)
            uhat = None
            idx = (step + 1) // stride
            frames[idx] = u
            if m0 > 0 and l2_norm_sq(u, grid) > blowup_factor * m0:
                raise BlowUpError(
                    f"norm exceeded {blowup_factor:.0e} x initial at t={times[idx]:.4f}")
    return Trajectory(grid, times, frames, {"steps": steps})


def regularized_flow(traj: Trajectory, fld: CoefficientField, eps: float
                     ) -> Trajectory:
    """Trajectory of e^{t (eps + i)(L+V)} from the same initial state, on the
    same sample times as ``traj``."""
    if not eps > 0:
        raise ValueError("regularization strength eps must be > 0")
    steps = traj.meta.get("steps", 256)
    n_frames = len(traj.times)
    steps = steps - steps % (n_frames - 1) if steps % (n_frames - 1) else steps
    return propagate(traj.initial, fld, DissipationParams(eps, 1.0),
                     (float(traj.times[0]), float(traj.times[-1])),
                     steps, n_frames)


# ---------------------------------------------------------------------------
# trajectory container file + CSV export
# ---------------------------------------------------------------------------

_MAGIC = b"UCTJ"
_VERSION = 1


class CheckpointError(ValueError):
    """Not a container this version writes, or its size does not match."""


def write_checkpoint(path, traj: Trajectory) -> None:
    """Binary container: header (n, N_i, L_i, times) + little-endian
    complex64 frames."""
    with open(path, "wb") as fh:
        n = traj.grid.dim
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, n))
        fh.write(struct.pack(f"<{n}I", *traj.grid.points))
        fh.write(struct.pack(f"<{n}d", *traj.grid.extents))
        fh.write(struct.pack("<I", len(traj.times)))
        fh.write(np.asarray(traj.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(traj.frames.astype("<c8")).tobytes())


def read_checkpoint(path) -> Trajectory:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, version, n = struct.unpack_from("<4sII", data)
        if magic != _MAGIC or version != _VERSION:
            raise CheckpointError(f"not a version {_VERSION} trajectory container")
        points = struct.unpack_from(f"<{n}I", data, 12)
        extents = struct.unpack_from(f"<{n}d", data, 12 + 4 * n)
        (ntimes,) = struct.unpack_from("<I", data, 12 + 12 * n)
    except struct.error as exc:
        raise CheckpointError(f"truncated header: {exc}") from exc
    pos, count = 16 + 12 * n, ntimes * int(np.prod(points))
    if len(data) != pos + 8 * (ntimes + count):
        raise CheckpointError(f"{len(data)} bytes, but the header describes "
                              f"{pos + 8 * (ntimes + count)}")
    times = np.frombuffer(data, "<f8", ntimes, pos).copy()
    frames = np.frombuffer(data, "<c8", count, pos + 8 * ntimes)
    return Trajectory(Grid(tuple(extents), tuple(points)), times,
                      frames.astype(complex).reshape((ntimes, *points)))
