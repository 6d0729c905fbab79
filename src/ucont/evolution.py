"""Propagation of d_t u = (a+ib)(L u + V u) on periodic tensor grids.

Strang splitting: the constant-coefficient part (box-average of A) is an
exact Fourier multiplier and the variable-coefficient remainder plus the
potential is the middle step.  The state stays in Fourier space between
frames, so the kinetic half steps are plain multiplies.  The remainder is
linear and time-independent, so classical RK4 for it is exactly its
degree-4 Taylor polynomial, applied in Horner form; each application of
the remainder is one batched inverse and one batched forward transform,
and entries that are identically zero (a zero potential, zero rows and
columns of the coefficient deviation) take no transform.  A pure potential
gets its exact pointwise exponential.  The scheme is second order overall.
Closed-form complex-Gaussian flows serve as oracles for the free, heat, and
dissipative cases.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
import numpy as np

from .coefficients import CoefficientField
from .expressions import sample
from .grids import Grid, NumericGuardError, _multiplier, check_resolved, l2_norm_sq


class BlowUpError(NumericGuardError):
    """Squared trajectory norm above BLOWUP_FACTOR times its initial value."""


class StabilityError(NumericGuardError):
    """Requested step count violates the explicit-stage stability budget."""


class ZeroMassError(NumericGuardError):
    """The initial squared norm is 0 in float64, so no ratio to it exists."""


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
BLOWUP_FACTOR = 1e3     # the largest ||u(t)||^2 / ||u(0)||^2 along a trajectory


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

    def state(self, i: int) -> WaveState:
        return WaveState(float(self.times[i]), self.frames[i], self.grid)


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


def _remainder_step(grid: Grid, delta, v, c: complex):
    """The in-place step e^{cR} on Fourier coefficients, or None when R = 0.

    R w = V w + sum_k D_k sum_j delta_kj D_j w with entries of ``delta`` set
    to None where they vanish.  Without delta it is the pointwise exponential
    of c V; otherwise it is the degree-4 Taylor polynomial of e^{cR}, which is
    what classical RK4 gives for a linear, time-independent R, in Horner form
    w + cR(w + c/2 R(w + c/3 R(w + c/4 R w))).  Each application of R inverts
    the stack [w, D_j w] in one batched transform and forward-transforms the
    stack [V w, flux_k] in another, leaving out every entry that is zero.
    """
    dim = grid.dim
    cols = [j for j in range(dim) if any(delta[k][j] is not None
                                         for k in range(dim))]
    rows = [k for k in range(dim) if any(delta[k][j] is not None
                                         for j in range(dim))]
    has_v = bool(np.any(v != 0))
    if not rows:
        if not has_v:
            return None
        pot_step = np.exp(c * v)

        def potential_step(what: np.ndarray) -> None:
            np.fft.ifftn(what, out=what)
            what *= pot_step
            np.fft.fftn(what, out=what)
        return potential_step

    def mult(axis: int) -> np.ndarray:
        shape = [1] * dim
        shape[axis] = grid.points[axis]
        return _multiplier(grid.points[axis], grid.spacings[axis],
                           1).reshape(shape)
    ik = [mult(i) for i in range(dim)]
    cv = c * v
    off = int(has_v)
    col_of = {j: off + n for n, j in enumerate(cols)}
    # flux_k = sum_j c delta_kj D_j w as (c delta_kj, row of D_j w) pairs
    fluxes = [[(c * delta[k][j], col_of[j]) for j in cols
               if delta[k][j] is not None] for k in rows]
    inv = np.empty((off + len(cols), *grid.points), dtype=complex)
    fwd = np.empty((off + len(rows), *grid.points), dtype=complex)
    arg = np.empty(grid.points, dtype=complex)
    out = np.empty(grid.points, dtype=complex)

    def apply(what: np.ndarray) -> np.ndarray:
        """c R what, into ``out``."""
        if has_v:
            inv[0] = what
        for j in cols:
            np.multiply(what, ik[j], out=inv[col_of[j]])
        # one batched one-axis transform per spatial axis of the whole stack
        for axis in range(1, dim + 1):
            np.fft.ifft(inv, axis=axis, out=inv)
        if has_v:
            np.multiply(cv, inv[0], out=fwd[0])
        for flux, terms in zip(fwd[off:], fluxes):
            (e, col), *rest = terms
            np.multiply(e, inv[col], out=flux)
            for e, col in rest:
                flux += np.multiply(e, inv[col], out=out)
        for axis in range(1, dim + 1):
            np.fft.fft(fwd, axis=axis, out=fwd)
        np.multiply(fwd[off], ik[rows[0]], out=out)
        for flux, k in zip(fwd[off + 1:], rows[1:]):
            np.add(out, np.multiply(flux, ik[k], out=flux), out=out)
        if has_v:
            np.add(out, fwd[0], out=out)
        return out

    def taylor_step(what: np.ndarray) -> None:
        src = what
        for frac in (0.25, 1.0 / 3.0, 0.5):
            np.multiply(apply(src), frac, out=arg)
            src = np.add(arg, what, out=arg)
        what += apply(arg)
    return taylor_step


def propagate(u0: WaveState, fld: CoefficientField, d: DissipationParams,
              t_span: tuple[float, float] = (0.0, 1.0), steps: int = 256,
              n_frames: int = 2) -> Trajectory:
    """Second-order Strang trajectory of d_t u = (a+ib)(L+V)u.

    Frames are stored at n_frames uniformly spaced times (endpoints
    included); steps must be a multiple of n_frames - 1.
    """
    if n_frames < 2 or steps <= 0 or steps % (n_frames - 1) != 0:
        raise ValueError("steps must be a positive multiple of n_frames - 1")
    grid = u0.grid
    check_resolved(u0.values, 1e-10)

    entries = [[sample(fld.entry(k, j), grid.open_mesh)
                for j in range(grid.dim)] for k in range(grid.dim)]
    v = sample(fld.potential, grid.open_mesh)
    abar = np.array([[np.mean(entries[k][j]) for j in range(grid.dim)]
                     for k in range(grid.dim)])
    delta = [[entries[k][j] - abar[k, j] for j in range(grid.dim)]
             for k in range(grid.dim)]
    size = [[float(np.max(np.abs(e))) for e in row] for row in delta]
    delta_max = max(map(max, size))
    # entries below roundoff of the box average are left out of the remainder
    delta = [[e if s >= 1e-14 else None for e, s in zip(row, srow)]
             for row, srow in zip(delta, size)]

    t0, t1 = t_span
    dt = (t1 - t0) / steps
    zeta = d.zeta
    sym = _kinetic_symbol(abar, grid)
    half_kin = np.exp(zeta * sym * (dt / 2.0))

    if delta_max >= 1e-14:
        k2 = -sym / max(abar.diagonal().mean(), 1e-30)
        radius = abs(dt * zeta) * (delta_max * grid.dim * float(np.max(np.abs(k2)))
                                   + float(np.max(np.abs(v))))
        if radius > 2.7:
            raise StabilityError(
                f"explicit remainder stage unstable: |dt * spectrum| ~ {radius:.2f} "
                f"> 2.7; increase steps to >= {int(steps * radius / 2.5) + 1}")
    remainder_step = _remainder_step(grid, delta, v, dt * zeta)

    frames = np.empty((n_frames, *grid.points), dtype=complex)
    times = np.linspace(t0, t1, n_frames)
    frames[0] = u0.values
    m0 = l2_norm_sq(frames[0], grid)
    if not m0 > 0:
        raise ZeroMassError(f"initial squared norm {m0} is not positive")
    stride = steps // (n_frames - 1)

    # the state stays in Fourier space; frames are inverse transforms of it
    uhat = np.fft.fftn(frames[0])
    for step in range(steps):
        uhat *= half_kin
        if remainder_step is not None:
            remainder_step(uhat)
        uhat *= half_kin
        if (step + 1) % stride == 0:
            idx = (step + 1) // stride
            np.fft.ifftn(uhat, out=frames[idx])
            # a NaN norm fails the comparison, so it counts as blow-up
            norm = l2_norm_sq(frames[idx], grid)
            if not norm <= BLOWUP_FACTOR * m0:
                raise BlowUpError(
                    f"norm exceeded {BLOWUP_FACTOR:.0e} x initial at t={times[idx]:.4f}")
    return Trajectory(grid, times, frames)


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
