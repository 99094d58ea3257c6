"""Exact fixed-point coordinates on the unit torus.

A fractional part is stored as an unsigned 64-bit numerator q standing for
the real number q / 2**64, and a point of [0,1)^d is a row of d such
numerators: a dilation alpha is a (d,) uint64 array and a point set an
(N, d) uint64 array.  Multiplying by a natural number a reduces the
numerator mod 2**64, which is exactly the fractional part of a*x on this
grid, so orbits {a_n * alpha} stay exact even when a_n is around 10**12
(n**2 at n = 10**6), where binary64 would have drifted across many grid
cells.  Threshold comparisons happen in exact integer arithmetic on the
numerators (see paircorr).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SCALE = 1 << 64


def frac_of_real(x: float) -> int:
    """Numerator of the fractional part of x, rounded down to the 2**-64 grid.

    The binary64 input is expanded exactly (via Fraction) before reduction,
    so e.g. frac_of_real(0.5) is exactly 2**63.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite input: {x}")
    return int((Fraction(x) % 1) * SCALE)


def point_of_reals(values) -> np.ndarray:
    """The (d,) uint64 numerator row of the binary64 coordinates values."""
    return np.array([frac_of_real(v) for v in values], dtype=np.uint64)


def sample_alpha(seed: int, d: int) -> np.ndarray:
    """Deterministic uniform draw of a dilation on the 2**-64 grid.

    Coordinates are independent uniform 64-bit numerators from a PCG64
    stream keyed by (seed, d); the same pair always returns the same (d,)
    uint64 array.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(d)))))
    return rng.integers(0, SCALE, size=d, dtype=np.uint64)


def points_to_array(points: np.ndarray) -> np.ndarray:
    """Check that points is an (N, d) uint64 numerator array (row n holds the
    d coordinates of point n) and return it C-contiguous."""
    if not isinstance(points, np.ndarray) or points.ndim != 2 or points.dtype != np.uint64:
        raise ValueError("points must be an (N, d) uint64 numerator array")
    return np.ascontiguousarray(points)
