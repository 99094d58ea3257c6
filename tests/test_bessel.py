import math

import mpmath
import numpy as np
import pytest

from torusppc.bessel import (
    T_MAX,
    bessel_asymptotic,
    bessel_j,
    fourier_coeff_ball,
    _gamma,
)


def test_gamma_half_integers():
    assert _gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert _gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)
    assert _gamma(2.5) == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-15)
    assert _gamma(4.0) == 6.0
    assert _gamma(0.3) == pytest.approx(math.gamma(0.3))


def test_bessel_examples():
    assert bessel_j(0, 0).value == 1.0
    assert bessel_j(2, 0).value == 0.0
    assert bessel_j(0.5, math.pi / 2).value == pytest.approx(2 / math.pi, abs=1e-12)
    assert bessel_j(1, 1).value == pytest.approx(0.4400505857449335, abs=1e-10)


def test_bessel_range_checks():
    with pytest.raises(ValueError):
        bessel_j(-0.1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(5.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1.0, 10001.0)
    with pytest.raises(ValueError):
        bessel_j(1.0, -1.0)


def test_half_integer_closed_forms():
    for t in np.geomspace(0.1, 5000, 120):
        t = float(t)
        want_h = math.sqrt(2 / (math.pi * t)) * math.sin(t)
        assert bessel_j(0.5, t).value == pytest.approx(want_h, abs=2e-11)
        want_3h = math.sqrt(2 / (math.pi * t)) * (math.sin(t) / t - math.cos(t))
        assert bessel_j(1.5, t).value == pytest.approx(want_3h, abs=2e-11)


def sweep_points():
    # seeded sweep of 2300 points: nu uniform on [0, 5], 30% of them rounded
    # to integers, t log-uniform on [1e-2, 1e4]
    rng = np.random.default_rng(12345)
    n = 2300
    nu = rng.uniform(0, 5, n)
    mask = rng.uniform(size=n) < 0.3
    nu[mask] = np.round(nu[mask])
    t = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), n))
    return list(zip(nu.tolist(), t.tolist()))


def test_against_high_precision_oracle():
    # a grid spanning every method branch and both integer and fractional
    # orders, then the seeded sweep; no certified bound may fail in any branch
    grid = [(nu, t) for nu in (0.0, 0.3, 0.5, 1.0, 2.0, 2.7, 3.5, 5.0)
            for t in (0.01, 0.9, 5.0, 9.9, 10.5, 25.0, 29.9, 31.0, 100.0, 2500.0, 1e4)]
    points = {"series": 0, "quadrature": 0, "asymptotic": 0}
    violations = {method: [] for method in points}
    with mpmath.workdps(40):
        for nu, t in grid + sweep_points():
            ev = bessel_j(nu, t)
            points[ev.method] += 1
            if abs(mpmath.mpf(ev.value) - mpmath.besselj(nu, t)) > ev.abs_error_bound:
                violations[ev.method].append((nu, t))
    assert min(points.values()) > 300, points
    assert violations == {method: [] for method in points}


def test_error_bound_invariant():
    # series/quadrature certificates stay below 1e-10 across the supported box
    for nu in (0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 5.0):
        for t in (0.0, 0.5, 3.0, 9.0, 12.0, 30.0, 50.0, 1e3, 1e4):
            ev = bessel_j(nu, t)
            if ev.method in ("series", "quadrature"):
                assert ev.abs_error_bound <= 1e-10, (nu, t, ev.method, ev.abs_error_bound)


def test_method_selection():
    assert bessel_j(1, 5).method == "series"
    assert bessel_j(1, 25).method == "series"
    assert bessel_j(1, 50).method == "quadrature"
    assert bessel_j(1.5, 50).method == "asymptotic"


def test_quadrature_and_expansion_agree():
    # dual routes above the series cutoff: integer order via quadrature vs the
    # expansion path used for fractional orders (evaluated at integances nearby)
    from torusppc.bessel import _hankel, _quad_integer

    for nu in (0, 1, 2, 3):
        for t in (35.0, 80.0, 300.0, 4000.0):
            q, qb = _quad_integer(nu, t)
            h, hb = _hankel(float(nu), t)
            assert abs(q - h) <= qb + hb + 1e-13


def test_recurrence_residual():
    worst = 0.0
    for nu in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        for t in np.geomspace(0.05, 1e4, 40):
            t = float(t)
            r = (bessel_j(nu - 1, t).value + bessel_j(nu + 1, t).value
                 - (2 * nu / t) * bessel_j(nu, t).value)
            worst = max(worst, abs(r))
    assert worst < 1e-9


def test_asymptotic_formula():
    # nu = 1/2: the leading term is exactly the closed form
    for t in (1.0, 7.3, 500.0):
        want = math.sqrt(2 / (math.pi * t)) * math.sin(t)
        assert bessel_asymptotic(0.5, t) == pytest.approx(want, abs=1e-12)
    # t = 1e4, nu = 0: within 1e-5 of the true value
    assert abs(bessel_asymptotic(0.0, 1e4) - bessel_j(0.0, 1e4).value) < 1e-5
    with pytest.raises(ValueError):
        bessel_asymptotic(1.0, 0.5)


def test_small_t_leading_behavior():
    # J_1(t)/t -> 1/2
    for t in (1e-3, 1e-2):
        assert bessel_j(1.0, t).value / t == pytest.approx(0.5, rel=1e-4)


def test_ball_coefficients():
    assert fourier_coeff_ball([0, 0], 1.0, 100, 2) == pytest.approx(math.pi / 100)
    c10 = fourier_coeff_ball([1, 0], 1.0, 100, 2)
    arg = 2 * math.pi * 0.1
    assert c10 == pytest.approx(0.1 * bessel_j(1.0, arg).value, rel=1e-12)
    assert c10 == pytest.approx(0.0299, abs=5e-5)
    # depends on r only through its norm: sign/permutation orbit
    for r in ([0, 1], [-1, 0], [0, -1]):
        assert fourier_coeff_ball(r, 1.0, 100, 2) == c10
    a = fourier_coeff_ball([3, 4], 1.0, 100, 2)
    b = fourier_coeff_ball([-4, 3], 1.0, 100, 2)
    assert a == b
    with pytest.raises(ValueError):
        fourier_coeff_ball([1, 0, 0], 1.0, 100, 2)
    with pytest.raises(ValueError):
        fourier_coeff_ball([1, 0], 1.0, 2, 2)   # threshold >= 1/2


def test_ball_coefficient_magnitude_scan():
    # |c_r| <= C s^d / N with a constant close to the volume of the unit disk
    s, n, d = 1.0, 100, 2
    c0 = fourier_coeff_ball([0, 0], s, n, d)
    worst = 0.0
    for rx in range(0, 21):
        for ry in range(0, 21):
            if rx == 0 and ry == 0:
                continue
            worst = max(worst, abs(fourier_coeff_ball([rx, ry], s, n, d)))
    assert worst <= 1.2 * c0


def test_ball_quadrature_oracle():
    quad = pytest.importorskip("scipy.integrate").quad
    s, n = 1.0, 100
    t = s / math.sqrt(n)

    def oracle(rnorm):
        f = lambda x: 2.0 * math.sqrt(max(t * t - x * x, 0.0)) * math.cos(2 * math.pi * rnorm * x)
        val, err = quad(f, -t, t, epsabs=1e-12, limit=400)
        return val

    for r in ([1, 0], [2, 2], [5, 1], [10, 10], [20, 0]):
        rnorm = math.hypot(*r)
        assert fourier_coeff_ball(r, s, n, 2) == pytest.approx(oracle(rnorm), abs=1e-8)


def test_check_bessel_bounds_report():
    t_grid = np.geomspace(1e-2, T_MAX, 241)
    large = t_grid > 1.0
    scans = {nu: np.abs([bessel_j(nu, float(t)).value for t in t_grid])
             for nu in (1.0, 1.5, 2.0, 2.5, 3.0)}
    assert all(v[~large].max() <= 1.0 for v in scans.values())      # |J| <= 1 below t = 1
    assert all(v.max() <= 1.0 + 1e-12 for nu, v in scans.items()
               if nu == int(nu))                                     # |J_mu| <= 1 for integer mu
    # scanned sqrt(t)-envelope constant
    assert max((v[large] * np.sqrt(t_grid[large])).max() for v in scans.values()) <= 1.0
    assert scans[1.0].max() <= 1.0
    assert scans[1.0][0] / t_grid[0] == pytest.approx(0.5, rel=1e-3)   # J_1(t)/t -> 1/2
    # t = 1e4 spot value from the sup-norm envelope
    assert abs(bessel_j(1, 1e4).value) <= 0.8 / math.sqrt(1e4)
