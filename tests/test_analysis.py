import math

import numpy as np
import pytest

from ucont.analysis import (QuadratureError, SubordinationCase,
                            poincare_weighted_check, subordination_ratio)
from ucont.grids import Grid, band_limited_noise

# high-precision pins (50-digit quadrature, computed before the build)
RATIO_R_MIN = 47.0368134494
RATIO_R_MAX = 56.0452345094
BAND_PIN = 1.19151852346
LIMIT_CONST = 31.6938392759   # int_1^inf e^{-l^3/3000} sqrt(l) dl


def standard_case():
    rs = tuple(float(10 ** (-1 + 2 * i / 19)) for i in range(20))
    return SubordinationCase(1.5, 10.0, 1.0, rs)


def test_case_invariants():
    case = standard_case()
    assert 1 / case.p + 1 / case.q == pytest.approx(1.0, abs=1e-15)
    assert case.q == pytest.approx(3.0)
    assert case.admissible


def test_inadmissible_kappa_rejected():
    case = SubordinationCase(1.5, 2.0, 1.0, (1.0,))
    assert not case.admissible
    with pytest.raises(ValueError, match="inadmissible"):
        subordination_ratio(case)


def test_integrand_overflow_is_a_quadrature_error_naming_r():
    # q = 101: kappa^q is 1e303 and lambda^q leaves the float range
    rs = tuple(10.0 ** k for k in range(-3, 4))
    with pytest.raises(QuadratureError, match="r = 0.001: the integrand "
                                              "overflows") as err:
        subordination_ratio(SubordinationCase(1.01, 1000.0, 1.0, rs))
    assert isinstance(err.value.__cause__, OverflowError)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SubordinationCase(2.5, 10.0, 1.0, (1.0,))
    with pytest.raises(ValueError):
        SubordinationCase(1.5, 10.0, -1.0, (1.0,))
    with pytest.raises(ValueError):
        SubordinationCase(1.5, 10.0, 1.0, (0.0,))


def test_ratios_match_high_precision_pins():
    res = subordination_ratio(standard_case())
    assert res.ratios[0] == pytest.approx(RATIO_R_MIN, rel=1e-9)
    assert res.ratios[-1] == pytest.approx(RATIO_R_MAX, rel=1e-9)
    assert res.band == pytest.approx(BAND_PIN, rel=1e-9)


def test_integral_strictly_increasing_in_r():
    res = subordination_ratio(standard_case())
    assert np.all(np.diff(res.log_integrals) > 0)


def test_small_r_limit_constant():
    res = subordination_ratio(SubordinationCase(1.5, 10.0, 1.0, (1e-6,)))
    assert res.ratios[0] == pytest.approx(LIMIT_CONST, rel=1e-4)


def test_band_scale_consistency_under_lambda0_doubling():
    # absorbing the head of the integral costs at most a factor 2
    base = subordination_ratio(standard_case())
    case2 = SubordinationCase(1.5, 10.0, 2.0, standard_case().r_values)
    doubled = subordination_ratio(case2)
    factor = base.ratios / doubled.ratios
    assert np.all(factor >= 1.0 - 1e-12)
    assert np.all(factor <= 2.0)


def test_normalized_band_matches_constant_scale():
    # the equivalence constant scales like kappa^{q/2}; normalized ratios for
    # two admissible kappas stay within a modest common band
    rs = standard_case().r_values
    r1 = subordination_ratio(SubordinationCase(1.5, 10.0, 1.0, rs))
    r2 = subordination_ratio(SubordinationCase(1.5, 14.0, 1.0, rs))
    n1 = r1.ratios / 10.0 ** 1.5
    n2 = r2.ratios / 14.0 ** 1.5
    assert max(n1.max(), n2.max()) / min(n1.min(), n2.min()) < 2.0


# ---------------------------------------------------------------------------
# weighted Poincare on balls
# ---------------------------------------------------------------------------

def test_poincare_zero_field():
    g = Grid((4.0,), (256,))
    [chk] = poincare_weighted_check(np.zeros(g.points, dtype=complex), g,
                                    (1.0,))
    assert (chk.lhs, chk.rhs_grad, chk.rhs_moment, chk.ratio) == (0, 0, 0, 0)


def test_poincare_constant_field_exact_integrals():
    # f == 1, n = 1, r = 1: lhs = sqrt(2), moment side = sqrt(16/3)
    g = Grid((4.0,), (2048,))
    [chk] = poincare_weighted_check(np.ones(g.points, dtype=complex), g,
                                    (1.0,))
    assert chk.lhs == pytest.approx(math.sqrt(2), rel=2e-3)
    assert chk.rhs_grad == pytest.approx(0.0, abs=1e-12)
    assert chk.rhs_moment == pytest.approx(math.sqrt(16 / 3), rel=2e-3)
    assert chk.ratio == pytest.approx(math.sqrt(2) / math.sqrt(16 / 3),
                                      rel=4e-3)


def test_poincare_scaling_invariance():
    g = Grid((3.0, 3.0), (128, 128))
    f = band_limited_noise(g, np.random.default_rng(5), 6.0)
    r1 = poincare_weighted_check(f, g, (1.0,))[0].ratio
    r2 = poincare_weighted_check(7.3 * f, g, (1.0,))[0].ratio
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_poincare_ball_containment():
    g = Grid((3.0,), (256,))
    with pytest.raises(ValueError, match="not contained"):
        poincare_weighted_check(np.ones(g.points, dtype=complex), g, (2.0,))


def _embed(coarse: np.ndarray, fine_shape) -> np.ndarray:
    """Spectral embedding of a band-limited field onto a finer grid."""
    ch = np.fft.fftn(coarse)
    out = np.zeros(fine_shape, dtype=complex)
    n = coarse.shape
    sl = tuple(np.r_[0:m // 2, -(m // 2):0] for m in n)
    idx = np.ix_(*sl)
    out[idx] = ch
    scale = np.prod(fine_shape) / np.prod(n)
    return np.fft.ifftn(out) * scale


def test_poincare_worst_ratio_stable_under_refinement():
    g_coarse = Grid((3.0, 3.0), (128, 128))
    g_fine = Grid((3.0, 3.0), (256, 256))
    worst_c, worst_f = 0.0, 0.0
    for i in range(60):
        f = band_limited_noise(g_coarse, np.random.default_rng(300 + i), 6.0)
        ff = _embed(f, g_fine.points)
        for chk in poincare_weighted_check(f, g_coarse, (0.5, 1.0)):
            worst_c = max(worst_c, chk.ratio)
        for chk in poincare_weighted_check(ff, g_fine, (0.5, 1.0)):
            worst_f = max(worst_f, chk.ratio)
    assert worst_c == pytest.approx(worst_f, rel=0.05)
    assert worst_c < 2.0


def test_poincare_radii_share_one_gradient(monkeypatch):
    g = Grid((4.0, 4.0), (64, 64))
    f = band_limited_noise(g, np.random.default_rng(3), 6.0)
    radii = (0.5, 1.0, 2.0)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft",
                        lambda *a, **k: calls.append(1) or fft(*a, **k))
    checks = poincare_weighted_check(f, g, radii)
    assert len(calls) == 2  # one gradient: one forward transform per axis
    monkeypatch.undo()
    assert checks == [poincare_weighted_check(f, g, (r,))[0] for r in radii]
    assert poincare_weighted_check(f, g, 1.0) == checks[1]
