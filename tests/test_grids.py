import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucont import grids
from ucont.grids import (Grid, ResolutionError, SpaceTimeGrid,
                         band_limited_noise, check_resolved,
                         spectral_derivative)


def test_grid_validation():
    with pytest.raises(ValueError, match="powers of two"):
        Grid((4.0,), (300,))
    with pytest.raises(ValueError, match="equal length"):
        Grid((4.0, 4.0), (64,))
    with pytest.raises(ValueError, match="dimension"):
        Grid((4.0,) * 4, (64,) * 4)


def test_spectral_derivative_exact_on_modes():
    g = Grid((math.pi,), (64,))
    x = g.axis(0)
    f = np.exp(3j * x)
    d = spectral_derivative(f, g, 0, 1)
    assert np.max(np.abs(d - 3j * f)) < 1e-12
    d2 = spectral_derivative(f, g, 0, 2)
    assert np.max(np.abs(d2 + 9 * f)) < 1e-11


def test_spectral_derivative_antisymmetric():
    g = Grid((5.0,), (128,))
    rng = np.random.default_rng(0)
    f = band_limited_noise(g, rng, 8.0)
    h = band_limited_noise(g, np.random.default_rng(1), 8.0)
    df = spectral_derivative(f, g, 0, 1)
    dh = spectral_derivative(h, g, 0, 1)
    lhs = np.sum(df * np.conj(h))
    rhs = -np.sum(f * np.conj(dh))
    assert abs(lhs - rhs) < 1e-10 * (abs(lhs) + 1)


def test_resolution_check_fires():
    g = Grid((4.0,), (64,))
    rough = np.sign(g.axis(0)) + 0j
    with pytest.raises(ResolutionError):
        check_resolved(rough, 1e-10)
    wide = Grid((8.0,), (128,))
    check_resolved(np.exp(-wide.axis(0) ** 2), 1e-10)


def test_space_time_grid_time_derivative():
    st = SpaceTimeGrid(64, Grid((4.0,), (32,)))
    f = np.exp(2j * np.pi * st.times)[:, None] * np.ones((1, 32))
    d = st.time_derivative(f.astype(complex))
    assert np.max(np.abs(d - 2j * np.pi * f)) < 1e-10


def test_band_limited_noise_band_and_determinism():
    g = Grid((4.0,), (128,))
    f1 = band_limited_noise(g, np.random.default_rng(9), 5.0)
    f2 = band_limited_noise(g, np.random.default_rng(9), 5.0)
    assert np.array_equal(f1, f2)
    spec = np.fft.fft(f1)
    k = g.wavenumbers(0)
    assert np.max(np.abs(spec[np.abs(k) > 5.0])) < 1e-12 * np.abs(spec).max()


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 2), st.sampled_from((0, 1)),
       st.booleans())
def test_spectral_kernel_is_the_textbook_multiplier(data, dim, order,
                                                    time_offset, real):
    points = tuple(data.draw(st.lists(st.sampled_from((2, 4, 8, 16)),
                                      min_size=dim, max_size=dim)))
    extents = tuple(data.draw(st.lists(st.floats(0.5, 20.0), min_size=dim,
                                       max_size=dim)))
    axis = data.draw(st.integers(0, dim - 1))
    g = Grid(extents, points)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = (8,) * time_offset + points
    v = rng.standard_normal(shape)
    if not real:
        v = v + 1j * rng.standard_normal(shape)
    before = v.copy()

    def textbook(values, n, h, order, ax):
        k = 2 * np.pi * np.fft.fftfreq(n, d=h)
        mult = (1j * k) ** order
        if order % 2 == 1:
            mult[n // 2] = 0.0
        bshape = [1] * values.ndim
        bshape[ax] = n
        return np.fft.ifft(np.fft.fft(values, axis=ax) * mult.reshape(bshape),
                           axis=ax)

    n, h = points[axis], 2 * extents[axis] / points[axis]
    got = spectral_derivative(v, g, axis, order, time_offset=time_offset)
    assert np.array_equal(got, textbook(v, n, h, order, axis + time_offset))
    if time_offset:
        stg = SpaceTimeGrid(8, g)
        assert np.array_equal(stg.time_derivative(v),
                              textbook(v, 8, stg.dt, 1, 0))
    assert np.array_equal(v, before)
    cached = grids._multiplier(n, g.spacings[axis], order)
    assert cached is grids._multiplier(n, g.spacings[axis], order)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 1.0
