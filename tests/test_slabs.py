"""The Carleman sample pipeline streams over time slabs; these tests hold it
to the whole-array formulas, bit for bit, and to its memory bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucont import carleman, grids
from ucont.carleman import (OUTER_PAD, BetaForms, CutoffSpec,
                            make_test_function, smoothstep5, translated_shift)
from ucont.coefficients import CoefficientField, TransversalField
from ucont.expressions import const, parse_expression as pe
from ucont.grids import Grid, SpaceTimeGrid, band_limited_noise, \
    spectral_derivative


def reference_values(mode, stg, cutoff, seed, carrier=0.0, t_center=None,
                     t_width=0.1, x_center=None, x_width=None):
    """make_test_function's field built on whole arrays, before its scan."""
    g = stg.space
    h, w = max(g.spacings), cutoff.space_width
    outer = min(g.extents) - OUTER_PAD
    rad = np.sqrt(g.radius_sq)
    noise = band_limited_noise(g, np.random.default_rng(seed),
                               min(5.0, 0.15 * math.pi / h),
                               carrier=(carrier, *(0.0,) * (g.dim - 1))
                               if carrier else None)
    tau = cutoff.time_window(stg.times)
    if t_center is not None:
        tau = tau * np.exp(-((stg.times - t_center) / t_width) ** 2)
    tau = tau.reshape((stg.nt,) + (1,) * g.dim)
    outer_cut = smoothstep5((outer - rad) / w)
    if mode == "annulus":
        space_cut = smoothstep5((rad - cutoff.r0) / w) * outer_cut
        f = tau * (noise * space_cut)[None]
    else:
        moving = smoothstep5((translated_shift(cutoff, stg) - 1.0) / w)
        f = tau * noise[None] * moving * outer_cut[None]
    if x_center is not None:
        xw = x_width if x_width is not None else 1.0
        f = f * np.exp(-((g.meshes[0] - x_center) / xw) ** 2)[None]
    f = f.astype(complex)
    return f / np.abs(f).max()


def reference_forms(f, ops, cutoff):
    """The beta forms from whole-array S0 f, A1 f and S2 f, each sum over the
    whole array, with the split's own coefficient samples."""
    stg, g, vals = f.st, f.st.space, f.values
    n, vol = g.dim, g.cell_volume * f.st.dt
    a, gp = ops.a_entries, ops.grad_phi

    def dx(u, i):
        return spectral_derivative(u, g, i, 1, time_offset=1)

    def dot(u, v):
        return float(np.sum(u.real * v.real) + np.sum(u.imag * v.imag)) * vol
    grads = [dx(vals, i) for i in range(n)]
    q2 = translated_shift(cutoff, stg) ** 2 if f.mode == "translated" \
        else g.radius_sq[None]
    s0 = 1j * stg.time_derivative(vals)
    for k in range(n):
        s0 += dx(sum(a[k][j] * grads[j] for j in range(n)), k)
    a1 = np.zeros_like(vals)
    for m in range(n):
        c = sum(a[m][l] * gp[l] for l in range(n))
        term = dx(c * vals, m)
        term += c * grads[m]
        a1 -= term
    a1 += -1j * ops.dt_phi * vals
    s2 = sum(gp[k] * gp[j] * a[k][j] for k in range(n) for j in range(n)) \
        * vals
    return BetaForms(f.seed, c1=2 * dot(s0, a1), c3=2 * dot(s2, a1),
                     g1=sum(dot(d, d) for d in grads) / cutoff.R ** 2,
                     g3=float(np.sum(q2 * np.abs(vals) ** 2)) * vol
                     / cutoff.R ** 6,
                     n0=dot(s0, s0), n2=dot(a1, a1) + 2 * dot(s0, s2),
                     n4=dot(s2, s2))


def reference_tail(values):
    """spectral_tail_fraction on np.fft.fftn of the whole array."""
    vhat = np.abs(np.fft.fftn(values))
    frac = 0.0
    for ax, n in enumerate(values.shape):
        shell = [slice(None)] * values.ndim
        shell[ax] = slice(n // 2 - n // 6, n // 2 + n // 6 + 1)
        frac = max(frac, vhat[tuple(shell)].max() / vhat.max())
    return float(frac)


BLOCK = TransversalField(2, const(1), ((pe("1 + 0.06*exp(-x2^2/4)"),),))
MILD = CoefficientField(1, ((pe("1 + 0.06*exp(-x1^2/4)"),),))
OFF2 = CoefficientField(2, ((pe("1 + 0.2*sin(x1)"), pe("0.05*exp(-x1^2-x2^2)")),
                            (pe("0.05*exp(-x1^2-x2^2)"), pe("2 + 0.2*cos(x2)"))))
OFF3 = CoefficientField(3, ((pe("1"), pe("0.05*exp(-x1^2)"), pe("0")),
                            (pe("0.05*exp(-x1^2)"), pe("1 + 0.1*cos(x2)"),
                             pe("0")),
                            (pe("0"), pe("0"), pe("1"))))
PROBE = dict(t_center=0.2, t_width=0.06, x_center=3.0, x_width=1.0)
CARRIER = dict(carrier=-10.0, t_center=0.2, t_width=0.04, x_center=1.5,
               x_width=0.9)

# (values mode, grid, cutoff, field, test-function knobs, slabs of a field)
CASES = {
    "1d-annulus-1": ("annulus", SpaceTimeGrid(64, Grid((8.0,), (512,))),
                     CutoffSpec(1.0, 1.0), MILD, {}, 1),
    "1d-translated-1": ("translated",
                        SpaceTimeGrid(256, Grid((6.0,), (256,))),
                        CutoffSpec(1.0, 1.1), CoefficientField.identity(1),
                        CARRIER, 1),
    "1d-annulus-8": ("annulus", SpaceTimeGrid(512, Grid((8.0,), (1024,))),
                     CutoffSpec(1.0, 2.0), MILD, PROBE, 8),
    "2d-annulus-1": ("annulus", SpaceTimeGrid(16, Grid((8.0, 8.0), (64, 64))),
                     CutoffSpec(1.0, 1.0, 2.0), OFF2, PROBE, 1),
    "2d-annulus-2": ("annulus", SpaceTimeGrid(32, Grid((8.0, 8.0), (64, 64))),
                     CutoffSpec(1.0, 1.0, 2.0), OFF2, {}, 2),
    "2d-translated-16": ("translated",
                         SpaceTimeGrid(128, Grid((8.0, 4.0), (128, 64))),
                         CutoffSpec(1.0, 1.5, 1.0), BLOCK, {}, 16),
    "3d-translated-2": ("translated",
                        SpaceTimeGrid(4, Grid((4.0,) * 3, (32,) * 3)),
                        CutoffSpec(1.0, 1.0, 2.0), OFF3, {}, 2),
    "3d-translated-8": ("translated",
                        SpaceTimeGrid(16, Grid((4.0,) * 3, (32,) * 3)),
                        CutoffSpec(1.0, 1.0, 2.0), OFF3, {}, 8),
}


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_streamed_pipeline_matches_whole_arrays(case, seed):
    mode, stg, cut, fld, knobs, n_slabs = CASES[case]
    assert len(grids.slabs(stg.shape)) == n_slabs
    # the scan and the resolution guard are not under test here
    f = make_test_function(mode, stg, cut, seed, resolution_budget=1.0,
                           **knobs)
    assert np.array_equal(f.values, reference_values(mode, stg, cut, seed,
                                                      **knobs))
    assert grids.spectral_tail_fraction(f.values) \
        == reference_tail(f.values)
    # both forms on the same values: the modes differ in the moment weight
    # and in the split's weight
    for form_mode in ("annulus", "translated"):
        g = carleman.TestField(f.values, stg, form_mode, seed)
        ops = carleman._unit_ops(fld, cut, form_mode, stg)
        assert carleman._beta_forms(g, ops, cut) \
            == reference_forms(g, ops, cut)


def _peak_fields(mode, stg, cut, fld, seed, **knobs):
    """tracemalloc peak of make_test_function plus _beta_forms above what
    was live before, in complex fields of the grid, after a warm-up."""
    ops = carleman._unit_ops(fld, cut, mode, stg)
    carleman._beta_forms(make_test_function(mode, stg, cut, seed, **knobs),
                         ops, cut)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        f = make_test_function(mode, stg, cut, seed, **knobs)
        carleman._beta_forms(f, ops, cut)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    return peak / (16 * math.prod(stg.shape))


def test_block_sample_holds_at_most_four_fields():
    # the 2-D block sample of the samples workload and criterion 10; the
    # whole-array pipeline peaked at 9.0 fields, the streamed one at 2.5
    stg = SpaceTimeGrid(128, Grid((8.0, 4.0), (128, 64)))
    assert _peak_fields("translated", stg, CutoffSpec(1.0, 1.0, 1.0), BLOCK,
                        500) <= 4.0


def test_one_slab_field_holds_no_more_than_whole_arrays():
    # a 1-D translated frontier field is one slab; the whole-array
    # pipeline peaked at 6.63 fields here, the streamed one at 5.63
    stg = SpaceTimeGrid(256, Grid((6.0,), (256,)))
    assert len(grids.slabs(stg.shape)) == 1
    assert _peak_fields("translated", stg, CutoffSpec(1.0, 1.1),
                        CoefficientField.identity(1), 1001,
                        resolution_budget=5e-3, **CARRIER) <= 6.6
