"""Exact fixed-point arithmetic on the unit torus.

A fractional part is stored as an unsigned 64-bit numerator q standing for
the real number q / 2**64.  Multiplying by a natural number a reduces the
numerator mod 2**64, which is exactly the fractional part of a*x on this
grid, so orbits {a_n * alpha} stay exact even when a_n is around 10**12
(n**2 at n = 10**6), where binary64 would have drifted across many grid
cells.  Distances are kept as integer numerators and only converted to
binary64 for reporting; threshold comparisons happen in exact integer
arithmetic (see paircorr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

FRAC_BITS = 64
SCALE = 1 << FRAC_BITS
_MASK = SCALE - 1
MAX_MULTIPLIER = 1 << 63


@dataclass(frozen=True, slots=True)
class Frac64:
    """A point of [0,1) on the 2**-64 grid; all arithmetic wraps mod 1 exactly."""

    numerator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator < SCALE:
            raise ValueError(f"Frac64 numerator out of range: {self.numerator}")

    @property
    def value(self) -> float:
        """Nearest binary64 to numerator / 2**64 (reporting only, may round)."""
        return self.numerator / SCALE

    def __add__(self, other: "Frac64") -> "Frac64":
        return Frac64((self.numerator + other.numerator) & _MASK)

    def __sub__(self, other: "Frac64") -> "Frac64":
        return Frac64((self.numerator - other.numerator) & _MASK)


@dataclass(frozen=True, slots=True)
class TorusPoint:
    """A point of [0,1)^d with exact Frac64 coordinates."""

    coords: tuple[Frac64, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise ValueError("TorusPoint needs dimension >= 1")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @classmethod
    def from_floats(cls, values: Iterable[float]) -> "TorusPoint":
        return cls(tuple(frac_of_real(v) for v in values))

    def shift(self, offset: "TorusPoint") -> "TorusPoint":
        """Translate every coordinate by the matching offset coordinate (mod 1)."""
        if offset.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return TorusPoint(tuple(a + b for a, b in zip(self.coords, offset.coords)))


def frac_of_real(x: float) -> Frac64:
    """Fractional part of x, rounded down to the 2**-64 grid.

    The binary64 input is expanded exactly (via Fraction) before reduction,
    so e.g. frac_of_real(0.5) has numerator exactly 2**63.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite input: {x}")
    return Frac64(int((Fraction(x) % 1) * SCALE))


def frac_mul(a: int, x: Frac64) -> Frac64:
    """Exact fractional part of a*x on the grid: (a * numerator) mod 2**64.

    The product is taken in unbounded Python integers, so there is no
    rounding for any a up to 2**63.
    """
    if a < 0:
        raise ValueError("multiplier must be a natural number")
    if a > MAX_MULTIPLIER:
        raise ValueError(f"multiplier {a} exceeds 2**63")
    return Frac64((a * x.numerator) & _MASK)


def _coord_dist_num(u: int, v: int) -> int:
    """Nearest-integer distance numerator between two grid fractions."""
    d = (u - v) & _MASK
    return min(d, SCALE - d)


def dist_sup(p: TorusPoint, q: TorusPoint) -> float:
    """Sup-norm torus distance: max over coordinates of nearest-integer distance."""
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    m = max(_coord_dist_num(a.numerator, b.numerator) for a, b in zip(p.coords, q.coords))
    return m / SCALE


def dist_2(p: TorusPoint, q: TorusPoint) -> float:
    """Euclidean norm of the vector of nearest-integer coordinate distances."""
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    acc = 0.0
    for a, b in zip(p.coords, q.coords):
        f = _coord_dist_num(a.numerator, b.numerator) / SCALE
        acc += f * f
    return math.sqrt(acc)


def sample_alpha(seed: int, d: int) -> TorusPoint:
    """Deterministic uniform draw of a dilation point on the 2**-64 grid.

    Coordinates are independent uniform 64-bit numerators from a PCG64
    stream keyed by (seed, d); the same pair always returns the same point.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(d)))))
    nums = rng.integers(0, SCALE, size=d, dtype=np.uint64)
    return TorusPoint(tuple(Frac64(int(n)) for n in nums))


def points_to_array(points: "Sequence[TorusPoint] | np.ndarray") -> np.ndarray:
    """Coerce a list of TorusPoint (or an (N,d) uint64 array) to numerators.

    The array form is the working representation for the counting kernels:
    row n holds the d coordinate numerators of point n.
    """
    if isinstance(points, np.ndarray):
        if points.ndim != 2:
            raise ValueError("point array must be 2-dimensional (N, d)")
        if points.dtype != np.uint64:
            raise ValueError("point array must have dtype uint64")
        return np.ascontiguousarray(points)
    if len(points) == 0:
        raise ValueError("empty point set")
    d = points[0].dimension
    out = np.empty((len(points), d), dtype=np.uint64)
    for i, p in enumerate(points):
        if p.dimension != d:
            raise ValueError("dimension mismatch within point set")
        for j, c in enumerate(p.coords):
            out[i, j] = c.numerator
    return out
