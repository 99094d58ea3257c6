"""Pair correlation statistics on the d-torus.

Two counters produce the statistic: ppc_naive scans all ordered pairs in
O(N^2) and is the reference; ppc_grid is a linked-cell counter (Allen &
Tildesley, Computer Simulation of Liquids, ch. 5).  It sorts the points into
toroidal cells of side >= threshold, tests each unordered pair within a cell
once, and tests neighbouring cells through the half shell of offsets whose
first nonzero component is +1, so every candidate pair is examined exactly
once with no deduplication pass.  Grids with at most 2 cells per axis, where
every cell neighbours every other, use one cell instead.  Both counters call
the same exact comparison predicate, so their counts agree pair for pair,
not just statistically.

The predicate is exact: with threshold t (a binary64 value), a pair is
"near" iff its torus distance is <= t as real numbers.  Sup-norm compares
integer numerators against floor(t * 2**64); 2-norm compares the integer
sum of squared coordinate numerators against floor(t**2 * 2**128), using a
float64 filter plus an exact big-integer re-check for the rare borderline
pairs.  Boundary ties (distance exactly t) count as inside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .fixedpoint import SCALE, points_to_array

_CHUNK_PAIRS = 1 << 22          # pair-predicate evaluations per vectorized chunk
_BORDER_BAND = 1e-11            # relative width of the exact-recheck band (2-norm)


class NormKind(Enum):
    SUP = "sup"
    TWO = "two"

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        t = text.strip().lower()
        if t in ("sup", "inf", "max"):
            return cls.SUP
        if t in ("two", "2", "euclidean"):
            return cls.TWO
        raise ValueError(f"unknown norm {text!r}")


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def ppc_limit(s: float, d: int, norm: NormKind) -> float:
    """Poissonian limit of the statistic: (2s)^d for boxes, w_d s^d for balls."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if norm is NormKind.SUP:
        return (2.0 * s) ** d
    return unit_ball_volume(d) * s ** d


@dataclass(frozen=True)
class PairCountResult:
    near_pairs: int            # ordered pairs m != n within the threshold
    N: int
    s: float
    statistic: float           # near_pairs / N
    limit: float               # Poissonian limit for (s, d, norm)
    expectation: float         # finite-size expectation limit * (N-1)/N
    norm: NormKind


@dataclass(frozen=True)
class _Threshold:
    """Exact comparison data for one threshold value t = s / N^(1/d)."""

    t: float
    sup_num: int               # floor(t * 2**64)
    two_num: int               # floor(t**2 * 2**128)
    two_num_f: float

    @classmethod
    def make(cls, t: float) -> "_Threshold":
        fr = Fraction(t)
        sup_num = int(fr * SCALE)
        two_num = int(fr * fr * SCALE * SCALE)
        return cls(t=t, sup_num=sup_num, two_num=two_num, two_num_f=float(two_num))


def _threshold_for(s: float, N: int, d: int) -> _Threshold:
    if s <= 0:
        raise ValueError("s must be > 0")
    t = s * N ** (-1.0 / d)
    if t >= 0.5:
        raise ValueError(
            f"threshold s/N^(1/d) = {t:.6g} >= 1/2: torus distances are capped "
            f"at 1/2, so the statistic would saturate (check s and N)"
        )
    return _Threshold.make(t)


def _count_near(pts: np.ndarray, ia: np.ndarray, ib: np.ndarray,
                norm: NormKind, thr: _Threshold) -> int:
    """Number of index pairs (ia[j], ib[j]) with torus distance <= t, exactly.

    This is the single comparison predicate shared by both counters.
    """
    if ia.size == 0:
        return 0
    d = pts.shape[1]
    if norm is NormKind.SUP:
        lim = np.uint64(thr.sup_num)    # < 2**63 since t < 1/2
        dmax = np.zeros(ia.size, dtype=np.uint64)
        for k in range(d):
            du = pts[ia, k] - pts[ib, k]
            dn = np.minimum(du, -du)
            np.maximum(dmax, dn, out=dmax)
        return int(np.count_nonzero(dmax <= lim))

    acc = np.zeros(ia.size, dtype=np.float64)
    for k in range(d):
        du = pts[ia, k] - pts[ib, k]
        dn = np.minimum(du, -du).astype(np.float64)
        acc += dn * dn
    bound = thr.two_num_f
    if bound == 0.0:
        inside = acc == 0.0
        return int(np.count_nonzero(inside))
    sure_in = acc <= bound * (1.0 - _BORDER_BAND)
    count = int(np.count_nonzero(sure_in))
    border = np.flatnonzero(~sure_in & (acc <= bound * (1.0 + _BORDER_BAND)))
    for j in border:
        ssq = 0
        for k in range(d):
            u = int(pts[ia[j], k])
            v = int(pts[ib[j], k])
            dd = (u - v) % SCALE
            dn = min(dd, SCALE - dd)
            ssq += dn * dn
        if ssq <= thr.two_num:
            count += 1
    return count


def _result(near: int, N: int, s: float, d: int, norm: NormKind) -> PairCountResult:
    limit = ppc_limit(s, d, norm)
    return PairCountResult(
        near_pairs=near,
        N=N,
        s=s,
        statistic=near / N,
        limit=limit,
        expectation=limit * (N - 1) / N,
        norm=norm,
    )


def ppc_naive(points, s: float, norm: NormKind) -> PairCountResult:
    """Reference O(N^2) counter over all ordered pairs m != n."""
    pts = points_to_array(points)
    N, d = pts.shape
    if N < 2:
        raise ValueError("need at least 2 points")
    thr = _threshold_for(s, N, d)
    rows_per_chunk = max(1, _CHUNK_PAIRS // N)
    near = 0
    all_idx = np.arange(N)
    for lo in range(0, N, rows_per_chunk):
        hi = min(N, lo + rows_per_chunk)
        ia = np.repeat(np.arange(lo, hi), N)
        ib = np.tile(all_idx, hi - lo)
        near += _count_near(pts, ia, ib, norm, thr)
    near -= N  # diagonal pairs m == n are always within threshold
    return _result(near, N, s, d, norm)


def _cells_per_axis(t: float, d: int) -> int:
    """Cells per axis: floor(1/t), capped so flattened cell ids fit an int64.

    The cap only lowers m, so the cell side 1/m stays >= t.  Below 3 cells
    per axis every cell is adjacent to every other, so one cell (m = 1)
    examines the same pairs and needs no wrap-around bookkeeping.
    """
    m_exact = int(1 / Fraction(t))
    cap = min((1 << 31) - 1, int((1 << 62) ** (1.0 / d)))
    m = min(m_exact, cap)
    return m if m >= 3 else 1


def _cell_coords(pts: np.ndarray, m: int) -> np.ndarray:
    """Exact cell index per coordinate: (numerator * m) >> 64, via 32-bit split."""
    m64 = np.uint64(m)
    lo32 = np.uint64(0xFFFFFFFF)
    hi = pts >> np.uint64(32)
    lo = pts & lo32
    a = hi * m64
    b = lo * m64
    return (a + (b >> np.uint64(32))) >> np.uint64(32)


def _half_shell(d: int) -> list[tuple[int, ...]]:
    """Neighbour offsets whose first nonzero component is +1: (3^d - 1)/2 of them."""
    return [delta for delta in itertools.product((0, 1, -1), repeat=d)
            if next((o for o in delta if o), 0) == 1]


def _segment_pairs(a: np.ndarray, b_start: np.ndarray, length: np.ndarray):
    """Yield (ia, ib) chunks pairing a[k] with b_start[k] + 0 .. length[k]-1.

    Chunks end at segment boundaries and hold at most _CHUNK_PAIRS pairs,
    unless a single segment is longer than that on its own.
    """
    keep = np.flatnonzero(length > 0)
    a, b_start, length = a[keep], b_start[keep], length[keep]
    ends = np.cumsum(length)
    lo = 0
    while lo < keep.size:
        base = ends[lo] - length[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK_PAIRS, side="right")))
        seg = length[lo:hi]
        ia = np.repeat(a[lo:hi], seg)
        ib = np.repeat(b_start[lo:hi] - (ends[lo:hi] - seg - base), seg)
        ib += np.arange(ib.size)
        yield ia, ib
        lo = hi


def ppc_grid(points, s: float, norm: NormKind) -> PairCountResult:
    """Half-shell cell-list counter; identical count to ppc_naive by construction.

    [0,1)^d is split into m^d congruent toroidal cells with side 1/m >= t,
    so any pair within distance t (either norm) lies in one cell or in two
    coordinate-adjacent cells.  Points are sorted by cell, so each occupied
    cell is a contiguous run.  Same-cell pairs are tested once as i < j.
    Cross-cell pairs are tested only against the half shell of neighbour
    offsets whose first nonzero component is +1; with m >= 3 every unordered
    pair of adjacent cells is reached by exactly one such offset.  Grids
    with m <= 2 collapse to the single cell m = 1, where every pair is a
    same-cell pair.  Each tested unordered pair counts twice (ordered pairs).
    """
    pts = points_to_array(points)
    N, d = pts.shape
    if N < 2:
        raise ValueError("need at least 2 points")
    thr = _threshold_for(s, N, d)
    m = _cells_per_axis(thr.t, d)

    coords = _cell_coords(pts, m).astype(np.int64)
    weights = m ** np.arange(d - 1, -1, -1, dtype=np.int64)
    ids = coords @ weights
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    pts = pts[order]

    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    ends = np.append(starts[1:], N)
    counts = ends - starts
    cell_of = np.repeat(np.arange(starts.size), counts)
    a = np.arange(N)

    def count(b_start, length):
        return sum(_count_near(pts, ia, ib, norm, thr)
                   for ia, ib in _segment_pairs(a, b_start, length))

    near = count(a + 1, ends[cell_of] - a - 1)
    if m >= 3:
        uniq = ids[starts]
        occ = coords[order[starts]]
        # id contribution of each axis after a -1 / 0 / +1 step, with wrap
        shifted = [{o: ((occ[:, k] + o) % m) * weights[k] for o in (-1, 0, 1)}
                   for k in range(d)]
        for delta in _half_shell(d):
            nids = sum(shifted[k][o] for k, o in enumerate(delta))
            j = np.minimum(np.searchsorted(uniq, nids), uniq.size - 1)
            hit = uniq[j] == nids
            near += count(np.where(hit, starts[j], 0)[cell_of],
                          np.where(hit, counts[j], 0)[cell_of])

    return _result(2 * near, N, s, d, norm)
