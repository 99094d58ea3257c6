"""Bessel function evaluation and indicator Fourier coefficients.

bessel_j targets absolute accuracy 1e-10 on nu in [0, 5], t in [0, 1e4], and
returns a bound on each value's absolute error:

* t <= 10: binary64 power series; alternating tail plus a roundoff budget;
* 10 < t <= 30: the same series at 40 significant digits (the largest term
  near t = 30 is ~1e11, which no binary64 summation can cancel to 1e-10);
* t > 30, integer nu: the P-point trapezoidal rule on the periodic integral
  form; aliasing tail plus the rounding of cosines of arguments up to
  2 pi nu + t, ~4e-11 at t = 1e4;
* t > 30, noninteger nu: the large-argument cosine expansion; first omitted
  term plus the rounding of cos/sin of an argument of size t and of the sums,
  ~1e-14 (exact termination at half-integer orders).

Fourier coefficients of the box and ball indicators used by the pair
correlation variance computations are built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .errors import InternalError
from .paircorr import threshold, unit_ball_volume

NU_MAX = 5.0
T_MAX = 1e4
_SERIES_F64_MAX = 10.0
_SERIES_MAX = 30.0
_EPS = 2.3e-16


def _gamma(x: float) -> float:
    """Gamma with exact closed forms at integers and half-integers.

    Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!); elsewhere the platform
    implementation (Lanczos-class, relative error well under 1e-12).
    """
    two_x = 2.0 * x
    if two_x == int(two_x) and x > 0:
        k = int(two_x)
        if k % 2 == 0:
            return float(math.factorial(k // 2 - 1))
        n = (k - 1) // 2
        return math.factorial(2 * n) * math.sqrt(math.pi) / (4 ** n * math.factorial(n))
    return math.gamma(x)


@dataclass(frozen=True)
class BesselEval:
    nu: float
    t: float
    value: float
    method: str                 # "series" | "quadrature" | "asymptotic"
    abs_error_bound: float


def _series_f64(nu: float, t: float) -> tuple[float, float]:
    """Power series sum_k (-1)^k (t/2)^(nu+2k) / (k! Gamma(nu+k+1)) in binary64."""
    half = t / 2.0
    term = half ** nu / _gamma(nu + 1.0)
    total = 0.0
    sum_abs = 0.0
    k = 0
    h2 = half * half
    while True:
        total += term if k % 2 == 0 else -term
        sum_abs += abs(term)
        nxt = term * h2 / ((k + 1) * (nu + k + 1))
        monotone = (k + 1) * (nu + k + 1) > h2
        if monotone and nxt < 1e-18:
            tail = nxt
            break
        term = nxt
        k += 1
        if k > 400:
            raise InternalError("series failed to converge")
    roundoff = sum_abs * _EPS * (k + 6)
    return total, tail + roundoff


def _series_mp(nu: float, t: float) -> tuple[float, float]:
    """Same series at 40 digits; tail certified alternating, rounding negligible."""
    with mpmath.workdps(40):
        nu_m = mpmath.mpf(nu)
        half = mpmath.mpf(t) / 2
        term = half ** nu_m / mpmath.gamma(nu_m + 1)
        total = mpmath.mpf(0)
        k = 0
        h2 = half * half
        while True:
            total += term if k % 2 == 0 else -term
            denom = (k + 1) * (nu_m + k + 1)
            nxt = term * h2 / denom
            if denom > h2 and nxt < mpmath.mpf(10) ** -30:
                break
            term = nxt
            k += 1
            if k > 2000:
                raise InternalError("series failed to converge")
        value = float(total)
    return value, 1e-14 + abs(value) * _EPS


def _quad_integer(nu: int, t: float) -> tuple[float, float]:
    """(1/2pi) integral_0^2pi cos(nu th - t sin th) dth by the P-point trapezoidal rule.

    On this periodic integrand the rule returns sum_k J_{nu+kP}(t) exactly
    (Jacobi-Anger; Trefethen & Weideman, SIAM Rev. 56, 2014).  The aliased
    orders kP +- nu (k >= 1) are >= m0 = P - nu and each occurs at most twice,
    so with |J_m(t)| <= (t/2)^m/m! (DLMF 10.14.4), m! >= sqrt(2 pi m)(m/e)^m
    and ratio r = t/(2 m0 + 2) < 1/e the alias error is below
    2 (e t/(2 m0))^m0 / (sqrt(2 pi m0)(1 - r)), ~1e-18.  Rounding (u = 2^-53,
    cos/sin within one ulp): nodes off by 6 pi u move the integrand by
    19u(nu + t), forming its argument costs u(12.6 nu + 4.02 t), cos, fsum and
    the division 4u; 32u(nu + t + 1) <= 16 _EPS (nu + t + 1) covers the sum.
    """
    P = int(math.e * t / 2.0) + nu + 40
    m0 = P - nu
    theta = np.arange(P) * (2.0 * math.pi / P)
    value = math.fsum(np.cos(nu * theta - t * np.sin(theta)).tolist()) / P
    alias = (2.0 * (math.e * t / (2.0 * m0)) ** m0 / math.sqrt(2.0 * math.pi * m0)
             / (1.0 - t / (2.0 * (m0 + 1))))
    return value, alias + 16.0 * _EPS * (nu + t + 1.0)


def _hankel(nu: float, t: float) -> tuple[float, float]:
    """Large-argument cosine expansion with first-omitted-term remainders.

    J_nu(t) ~ sqrt(2/(pi t)) [cos(w) P - sin(w) Q] with w = t - nu pi/2 - pi/4,
    a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k); P takes the even a_k with
    alternating signs, Q the odd ones.  For real orders each remainder is at
    most its first omitted term once enough terms are taken (DLMF 10.17(iii)).
    For t > 20 and k <= 40, |ratio(k)| = |a_k| / (t |a_{k-1}|) < 1, so terms
    shrink and 2(|last| + |next|) covers both remainders; at half-integer
    orders the expansion terminates.  Rounding (u = 2^-53, cos/sin within one
    ulp): a_k/t^k is off by 6.1 k u relative (six roundings per factor),
    summing n terms adds n u |a_k|; w is off by u(2|w| + 17.5), cos/sin by 2u,
    products, difference and prefactor by 6u(|P| + |Q|); all of it is below
    _EPS ((|w| + 13)(|P| + |Q|) + sum_k (4k + n)|a_k|).
    """
    def ratio(k: int) -> float:
        odd = 2 * k - 1
        return (2.0 * nu - odd) * (2.0 * nu + odd) / (8.0 * k * t)

    terms = [1.0]
    for k in range(1, 40):
        terms.append(terms[-1] * ratio(k))
        if terms[-1] == 0.0 or (k >= 8 and abs(terms[-1]) < 1e-19):
            break
    p = 0.0
    q = 0.0
    for k, a in enumerate(terms):
        if k % 2 == 0:
            p += (-1.0) ** (k // 2) * a
        else:
            q += (-1.0) ** ((k - 1) // 2) * a
    n = len(terms)
    rem = abs(terms[-1]) + abs(terms[-1] * ratio(n))
    omega = t - nu * math.pi / 2.0 - math.pi / 4.0
    pref = math.sqrt(2.0 / (math.pi * t))
    value = pref * (math.cos(omega) * p - math.sin(omega) * q)
    roundoff = _EPS * ((abs(omega) + 13.0) * (abs(p) + abs(q))
                       + sum((4 * k + n) * abs(a) for k, a in enumerate(terms)))
    return value, pref * (2.0 * rem + roundoff)


@lru_cache(maxsize=1 << 18)
def _eval(nu: float, t: float) -> tuple[float, str, float]:
    if t == 0.0:
        return (1.0 if nu == 0.0 else 0.0), "series", 0.0
    if t <= _SERIES_F64_MAX:
        value, bound = _series_f64(nu, t)
        return value, "series", bound
    if t <= _SERIES_MAX:
        value, bound = _series_mp(nu, t)
        return value, "series", bound
    if nu == int(nu):
        value, bound = _quad_integer(int(nu), t)
        return value, "quadrature", bound
    value, bound = _hankel(nu, t)
    return value, "asymptotic", bound


def bessel_j(nu: float, t: float) -> BesselEval:
    """J_nu(t) for nu in [0, 5], t in [0, 1e4], with a certified error bound."""
    if not 0.0 <= nu <= NU_MAX:
        raise ValueError(f"order nu = {nu} outside supported range [0, {NU_MAX}]")
    if not 0.0 <= t <= T_MAX:
        raise ValueError(f"argument t = {t} outside supported range [0, {T_MAX}]")
    value, method, bound = _eval(float(nu), float(t))
    return BesselEval(nu=float(nu), t=float(t), value=value, method=method,
                      abs_error_bound=bound)


def bessel_asymptotic(nu: float, t: float) -> float:
    """Leading large-argument approximation sqrt(2/(pi t)) cos(t - pi nu/2 - pi/4)."""
    if t < 1.0:
        raise ValueError("asymptotic form needs t >= 1")
    return math.sqrt(2.0 / (math.pi * t)) * math.cos(t - math.pi * nu / 2.0 - math.pi / 4.0)


# ---------------------------------------------------------------------------
# indicator Fourier coefficients
# ---------------------------------------------------------------------------

def fourier_coeff_ball(r, s: float, N: int, d: int) -> float:
    """Fourier coefficient of the ball indicator ||x||_2 <= s/N^(1/d) at r in Z^d.

    c_0 is the ball volume w_d s^d / N; for r != 0 the coefficient depends on
    r only through its Euclidean norm.
    """
    t = threshold(s, N, d)
    rv = np.asarray(r, dtype=np.int64).reshape(-1)
    if rv.shape[0] != d:
        raise ValueError(f"frequency vector has dimension {rv.shape[0]}, expected {d}")
    if not rv.any():
        return unit_ball_volume(d) * s ** d / N
    norm = math.sqrt(float((rv.astype(np.float64) ** 2).sum()))
    arg = 2.0 * math.pi * t * norm
    j = bessel_j(d / 2.0, arg)
    return s ** (d / 2.0) / (math.sqrt(N) * norm ** (d / 2.0)) * j.value


def fourier_coeff_box(r: int, s: float, N: int, d: int) -> float:
    """Per-coordinate Fourier coefficient of the box indicator |x| <= s/N^(1/d).

    The full d-dimensional coefficient is the product over coordinates;
    |c_r| <= min(2 s N^(-1/d), 1/|r|).
    """
    t = threshold(s, N, d)
    if r == 0:
        return 2.0 * t
    return math.sin(2.0 * math.pi * r * t) / (math.pi * r)

