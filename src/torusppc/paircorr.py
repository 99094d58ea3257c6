"""Pair correlation statistics on the d-torus.

Two counters produce the statistic: ppc_naive scans all ordered pairs in
O(N^2) and is the reference; ppc_grid is a column sweep, the sorted-column
form of the linked-cell method (Allen & Tildesley, Computer Simulation of
Liquids, ch. 5).  It buckets the points into toroidal columns of side >= t
over the first d - 1 axes, sorts them by column and then by the last
coordinate, and pairs each point with a window of +-t on the last axis in
its own column and in the half shell of neighbour columns (offsets whose
first nonzero component is +1), each window found by binary search.  Every
candidate pair is examined exactly once with no deduplication pass.  d = 1,
and grids with at most 2 columns per axis, use one column: a sort and a
window sweep.  After the sort, ppc_grid walks the sorted points in blocks
of _BLOCK = 2**13, so that only the sort key and the sorted points are N
long: a count at N = 10**5 (d = 2) needs about 5 MB besides its input.
Both counters call the same exact comparison predicate, so their counts
agree pair for pair, not just statistically.  They hand it candidate pairs
in blocks of up to _CHUNK_PAIRS = 2**15 (only a longer single segment goes
whole), so that a block's index, gather and difference arrays fit in one
core's L2 cache together.

The predicate is exact: with threshold t (a binary64 value), a pair is
"near" iff its torus distance is <= t as real numbers.  Sup-norm compares
integer numerators against T = floor(t * 2**64), one wrapped compare
(du + T) mod 2**64 <= 2T per axis; 2-norm compares the integer
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

_CHUNK_PAIRS = 1 << 15          # pairs per predicate call: 256 KiB per uint64 temporary
_BLOCK = 1 << 13                # sorted points per sweep block: 64 KiB per uint64 temporary
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


def threshold(s: float, N: int, d: int) -> float:
    """The threshold t = s / N^(1/d); raises ValueError unless s > 0, N >= 1
    and t < 1/2."""
    if not s > 0:
        raise ValueError(f"s must be > 0, got {s}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    t = s * N ** (-1.0 / d)
    if t >= 0.5:
        raise ValueError(
            f"threshold s/N^(1/d) = {t:.6g} >= 1/2 at s = {s}, N = {N}, d = {d}: torus "
            f"distances are capped at 1/2, so the statistic would saturate"
        )
    return t


def _threshold_for(s: float, N: int, d: int) -> _Threshold:
    return _Threshold.make(threshold(s, N, d))


def _count_near(cols: np.ndarray, ia: np.ndarray, ib: np.ndarray,
                norm: NormKind, thr: _Threshold) -> int:
    """Number of index pairs (ia[j], ib[j]) with torus distance <= t, exactly.

    This is the single comparison predicate shared by both counters.  The
    points come coordinate-major: cols is a C-contiguous (d, N) array, so
    each axis is a 1-D gather.  For the sup norm each axis costs one wrapped
    compare of its difference du: the circle distance min(du, -du) is <= T
    iff (du + T) mod 2**64 <= 2T, exact because t < 1/2 gives T < 2**63.
    """
    if ia.size == 0:
        return 0
    if norm is NormKind.SUP:
        lim = np.uint64(thr.sup_num)
        width = np.uint64(2 * thr.sup_num)
        inside = None
        for col in cols:
            du = col[ia]
            du -= col[ib]
            du += lim
            near = du <= width
            inside = near if inside is None else np.logical_and(inside, near, out=inside)
        return int(np.count_nonzero(inside))

    acc = np.zeros(ia.size, dtype=np.float64)
    for col in cols:
        du = col[ia]
        du -= col[ib]
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
        for col in cols:
            dd = (int(col[ia[j]]) - int(col[ib[j]])) % SCALE
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
    cols = np.ascontiguousarray(pts.T)
    rows_per_chunk = max(1, _CHUNK_PAIRS // N)
    near = 0
    all_idx = np.arange(N)
    for lo in range(0, N, rows_per_chunk):
        hi = min(N, lo + rows_per_chunk)
        ia = np.repeat(np.arange(lo, hi), N)
        ib = np.tile(all_idx, hi - lo)
        near += _count_near(cols, ia, ib, norm, thr)
    near -= N  # diagonal pairs m == n are always within threshold
    return _result(near, N, s, d, norm)


def _columns_per_axis(t: float, d: int) -> int:
    """Columns per axis of the grid over the first d - 1 axes: floor(1/t), capped.

    The cap keeps the m^(d-1) column ids below 2**62, so the sort key holds
    at least two bits of the last coordinate, and keeps m * 2**32 inside a
    uint64 for _cell_coords.  It only lowers m, so the column side 1/m stays
    >= t.  Below 3 columns per axis every column is adjacent to every other,
    and for d = 1 there are no column axes: both use one column (m = 1).
    """
    m_exact = int(1 / Fraction(t))
    cap = min((1 << 31) - 1, int((1 << 62) ** (1.0 / d)))
    m = min(m_exact, cap)
    return m if m >= 3 and d > 1 else 1


def _cell_coords(x: np.ndarray, m: int) -> np.ndarray:
    """Exact cell index per coordinate: (numerator * m) >> 64, via 32-bit split.

    Works in place on two temporaries the shape of x.
    """
    m64 = np.uint64(m)
    half = np.uint64(32)
    hi = x >> half
    lo = x & np.uint64(0xFFFFFFFF)
    hi *= m64
    lo *= m64
    lo >>= half
    hi += lo
    hi >>= half
    return hi


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
    """Column-sweep counter; identical count to ppc_naive by construction.

    The first d - 1 axes are split into m^(d-1) toroidal columns of side
    1/m >= t, so a pair within distance t (either norm) lies in one column
    or in two adjacent ones, and its last coordinates y are within t on the
    circle.  Points are sorted by one uint64 key: the column id in the top B
    bits, then y shifted right by B.  With T = floor(t * 2**64), each point
    is paired with the later points of its own column inside [y, y + T],
    plus [y - T + 2**64, end) when y < T, and with each half-shell
    neighbour column (first nonzero offset +1; one at d = 2, four at d = 3)
    inside [y - T, y + T], two ranges where that wraps.  Every range comes
    from searchsorted on the key.  Truncating y widens a range by less than
    2**B / 2**64, so the ranges hold every near pair, and each unordered
    pair lies in exactly one of them.  d = 1 and m <= 2 use one column,
    where this is a sort and a window sweep.  Each tested unordered pair
    counts twice (ordered pairs).  Past the sort, the windows, cells and
    neighbour column ids are computed per block of _BLOCK sorted points.
    """
    pts = points_to_array(points)
    N, d = pts.shape
    if N < 2:
        raise ValueError("need at least 2 points")
    thr = _threshold_for(s, N, d)
    m = _columns_per_axis(thr.t, d)
    axes = d - 1 if m > 1 else 0
    bits = (m ** axes - 1).bit_length()
    shift = np.uint64(bits)
    weights = [np.uint64(m ** (axes - 1 - k) << (64 - bits)) for k in range(axes)]

    def column_base(cells, delta):
        # id of the column at offset delta from each point's, times 2**(64 - bits)
        base = np.zeros(cells.shape[1], dtype=np.uint64)
        for c, o, wk in zip(cells, delta, weights):
            base += ((c + np.uint64(o % m)) % np.uint64(m)) * wk
        return base

    # sort key, built in place: y >> bits plus each column term above it
    key = pts[:, -1] >> shift
    for k, wk in enumerate(weights):
        cell = _cell_coords(pts[:, k], m)
        cell *= wk
        key += cell
    order = np.argsort(key)
    key = key[order]
    cols = np.empty((d, N), dtype=np.uint64)     # sorted points, coordinate-major
    for j, col in enumerate(cols):
        col[:] = pts[:, j][order]
    del order

    lim = np.uint64(thr.sup_num)
    end = np.uint64(SCALE - 1) >> shift
    shell = _half_shell(axes)

    def count(rows, start, stop):
        return sum(_count_near(cols, ia, ib, norm, thr)
                   for ia, ib in _segment_pairs(rows, start, stop - start))

    near = 0
    for lo in range(0, N, _BLOCK):
        hi = min(N, lo + _BLOCK)
        a = np.arange(lo, hi)
        # key bits below the column id of each point's window [y - T, y + T]:
        # [first, last], or [0, last] then [second, end] where it wraps
        y = cols[-1, lo:hi]
        first = y - lim
        last = y + lim
        wrap = np.flatnonzero(first > last)
        second = first[wrap] >> shift
        first[wrap] = 0
        first >>= shift
        last >>= shift
        a_w = a[wrap]

        def sweep(nbase, own):
            # candidates of each point in column nbase; in its own, later positions only
            stop = np.searchsorted(key, nbase | last, side="right")
            start = a + 1 if own else np.searchsorted(key, nbase | first)
            # a wrapped window's second range starts after the first one ends:
            # bits > 0 needs m >= 3, so 2**64 - 2T > 2**62 >= 2**bits and second > last
            start_w = np.searchsorted(key, nbase[wrap] | second)
            if own:
                start_w = np.maximum(start_w, a_w + 1)
            stop_w = np.searchsorted(key, nbase[wrap] | end, side="right")
            return count(a, start, stop) + count(a_w, start_w, stop_w)

        near += sweep(key[lo:hi] & ~end, own=True)
        if shell:
            cells = _cell_coords(cols[:axes, lo:hi], m)
            for delta in shell:
                near += sweep(column_base(cells, delta), own=False)

    return _result(2 * near, N, s, d, norm)
