import math

import numpy as np
import pytest

from torusppc.fixedpoint import (
    SCALE,
    frac_of_real,
    point_of_reals,
    points_to_array,
    sample_alpha,
)
from torusppc.paircorr import NormKind, ppc_grid, ppc_naive
from torusppc.sequences import SequenceSpec, generate, orbit


def test_frac_of_real_exact_dyadic():
    assert frac_of_real(0.5) == 2 ** 63
    assert frac_of_real(0.25) == 2 ** 62
    assert frac_of_real(1.25) / SCALE == 0.25
    assert frac_of_real(0.0) == 0


def test_frac_of_real_pi():
    # floor({pi} * 2**64) of the binary64 pi
    from fractions import Fraction

    expected = int((Fraction(math.pi) - 3) * SCALE)
    got = frac_of_real(math.pi)
    assert got == expected
    assert got / SCALE == pytest.approx(0.1415926535, abs=1e-9)


def test_frac_of_real_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            frac_of_real(bad)


def test_frac_of_real_negative_wraps():
    assert frac_of_real(-0.25) / SCALE == 0.75


def test_streams_pinned():
    # the streams every seeded table depends on
    assert sample_alpha(12345, 3).tolist() == [
        14836371521697013897, 13874807005802917134, 13335168863658432661]
    assert sample_alpha(0, 2).tolist() == [1490940365631266091, 7423666954494463881]
    assert frac_of_real(0.123) == 2268949521066274816
    assert point_of_reals([0.123, 0.5]).tolist() == [2268949521066274816, 2 ** 63]


def test_sample_alpha_deterministic_and_distinct():
    a = sample_alpha(12345, 3)
    b = sample_alpha(12345, 3)
    assert a.dtype == np.uint64 and a.shape == (3,)
    assert a.tolist() == b.tolist()
    seen = {tuple(sample_alpha(s, 2).tolist()) for s in range(10_000)}
    assert len(seen) == 10_000


def test_sample_alpha_mean():
    n = 100_000
    acc = 0.0
    for s in range(n):
        acc += int(sample_alpha(s, 1)[0]) / SCALE
    mean = acc / n
    se = math.sqrt(1.0 / 12.0 / n)
    assert abs(mean - 0.5) <= 3 * se


def test_points_to_array_roundtrip():
    arr = np.array([point_of_reals([0.1, 0.2]), point_of_reals([0.9, 0.4])])
    assert arr.dtype == np.uint64 and arr.shape == (2, 2)
    assert points_to_array(arr)[0, 0] == frac_of_real(0.1)
    with pytest.raises(ValueError):
        points_to_array(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        points_to_array(arr[0])


def test_array_form_is_the_only_form():
    seqs = [generate(SequenceSpec.identity(), 3)]
    for alpha in (np.array([0.25]), [frac_of_real(0.25)]):
        with pytest.raises(ValueError, match="uint64 numerator array"):
            orbit(seqs, alpha)
    rows = list(orbit(seqs, point_of_reals([0.25])))
    for count in (ppc_naive, ppc_grid):
        with pytest.raises(ValueError, match=r"\(N, d\) uint64 numerator array"):
            count(rows, 0.5, NormKind.SUP)
