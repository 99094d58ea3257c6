"""Pair correlation statistics on the d-torus.

Two counters produce the statistic: ppc_naive scans all ordered pairs in
O(N^2) and is the reference; ppc_grid is the linked-cell method (Allen &
Tildesley, Computer Simulation of Liquids, ch. 5) in two parts.  The cell
layout (_grid_layout) buckets the points into toroidal cells of side >= t
on every axis, sorts them by cell with one value sort of 64-bit keys (cell
id above the point index), and builds a table of cell starts.  The
candidate stream (_candidates) reads it and yields every pair of points in
one cell or in adjacent cells exactly once; its docstring states the
stencil.  Both work in blocks of _BLOCK = 2**13 points, so that only the
keys (until the points are sorted), the sorted points and the cell-start
table (at most 2N + 1 entries) grow with N: a count at N = 10**5 (d = 2)
peaks at about 4.1 MiB besides its input, and one at N = 10**6 (d = 3,
2-norm) at about 35 MiB.  ppc_grid counts at most 2**31 - 1 points, and
writes nothing into its input.
Both counters call the same exact comparison predicate, so their counts
agree pair for pair, not just statistically.  They hand it candidate pairs
in blocks of up to _CHUNK_PAIRS = 2**15 (only a longer single segment goes
whole), so that a block's index, gather and difference arrays fit in one
core's L2 cache together.

The predicate is exact: with threshold t (a binary64 value), a pair is
"near" iff its torus distance is <= t as real numbers.  It compares with
one integer, _limit(t, norm), computed once per count from Fraction(t).
Sup-norm compares integer numerators against T = floor(t * 2**64), one
wrapped compare (du + T) mod 2**64 <= 2T per axis; 2-norm compares the
integer sum of squared coordinate numerators against floor(t**2 * 2**128),
using a float64 filter plus an exact big-integer re-check for the rare
borderline pairs.  Boundary ties (distance exactly t) count as inside.
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
_MAX_POINTS = (1 << 31) - 1     # ppc_grid: int32 cell starts; cell ids < 2N and indices fit 32 bits


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


def _limit(t: float, norm: NormKind) -> int:
    """The integer _count_near compares with at threshold t, exactly from
    Fraction(t): floor(t * 2**64) for the sup norm, floor(t**2 * 2**128) for
    the 2-norm."""
    fr = Fraction(t)
    if norm is NormKind.SUP:
        return int(fr * SCALE)
    return int(fr * fr * SCALE * SCALE)


def _count_near(cols: np.ndarray, ia: np.ndarray, ib: np.ndarray,
                norm: NormKind, limit: int) -> int:
    """Number of index pairs (ia[j], ib[j]) with torus distance <= t, exactly,
    for limit = _limit(t, norm).

    This is the single comparison predicate shared by both counters.  The
    points come coordinate-major: cols is a C-contiguous (d, N) array, so
    each axis is a 1-D gather.  For the sup norm each axis costs one wrapped
    compare of its difference du: the circle distance min(du, -du) is <= T =
    limit iff (du + T) mod 2**64 <= 2T, exact because t < 1/2 gives T < 2**63.
    """
    if ia.size == 0:
        return 0
    if norm is NormKind.SUP:
        lim = np.uint64(limit)
        width = np.uint64(2 * limit)
        inside = None
        for col in cols:
            du = col[ia]
            du -= col[ib]
            du += lim
            near = du <= width
            inside = near if inside is None else np.logical_and(inside, near, out=inside)
        return int(np.count_nonzero(inside))

    acc = None
    for col in cols:
        du = col[ia]
        du -= col[ib]
        dn = du.view(np.int64).astype(np.float64)   # same square as min(du, -du)
        dn *= dn
        acc = dn if acc is None else np.add(acc, dn, out=acc)
    low = float(limit) * (1.0 - _BORDER_BAND)
    high = float(limit) * (1.0 + _BORDER_BAND)
    count = int(np.count_nonzero(acc <= low))
    if int(np.count_nonzero(acc <= high)) == count:
        return count
    for j in np.flatnonzero((acc > low) & (acc <= high)):
        wrapped = ((int(col[ia[j]]) - int(col[ib[j]])) % SCALE for col in cols)
        count += sum(min(w, SCALE - w) ** 2 for w in wrapped) <= limit
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
    limit = _limit(threshold(s, N, d), norm)
    cols = np.ascontiguousarray(pts.T)
    rows_per_chunk = max(1, _CHUNK_PAIRS // N)
    near = 0
    all_idx = np.arange(N)
    for lo in range(0, N, rows_per_chunk):
        hi = min(N, lo + rows_per_chunk)
        ia = np.repeat(np.arange(lo, hi), N)
        ib = np.tile(all_idx, hi - lo)
        near += _count_near(cols, ia, ib, norm, limit)
    near -= N  # diagonal pairs m == n are always within threshold
    return _result(near, N, s, d, norm)


def _cells_per_axis(t: float, d: int, N: int) -> int:
    """Cells per axis of the grid: floor(1/t), capped so that m^d <= 2N.

    The cap keeps the cell-start table no longer than the point set, and
    m below 2**31 keeps m * 2**32 inside a uint64 for _cell_coords.  It only
    lowers m, so the cell side 1/m stays >= t.  Below 3 cells per axis the
    neighbours q - 1 and q + 1 of a cell coincide: one cell (m = 1).
    """
    m = min(int(1 / Fraction(t)), int((2 * N) ** (1.0 / d)) + 1, (1 << 31) - 1)
    while m ** d > 2 * N:
        m -= 1
    return m if m >= 3 else 1


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


def _segment_pairs(a: np.ndarray, b_start: np.ndarray, length: np.ndarray):
    """Yield (ia, ib) chunks pairing a[k] with b_start[k] + 0 .. length[k]-1.

    Chunks end at segment boundaries and hold at most _CHUNK_PAIRS pairs,
    unless a single segment is longer than that on its own.
    """
    ends = np.cumsum(length)
    lo = 0
    while lo < a.size:
        base = ends[lo] - length[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK_PAIRS, side="right")))
        seg = length[lo:hi]
        ia = np.repeat(a[lo:hi], seg)
        ib = np.repeat(b_start[lo:hi] - (ends[lo:hi] - seg - base), seg)
        ib += np.arange(ib.size)
        yield ia, ib
        lo = hi


def _grid_layout(pts: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(cols, starts, m) for the (N, d) points pts and the threshold t.

    m is the number of cells per axis (_cells_per_axis), each of side 1/m >= t.
    cols holds the points sorted by flat cell id, last axis fastest, as a
    coordinate-major (d, N) array, and cell c's points are cols[:, starts[c]:
    starts[c + 1]] (m^d + 1 int32 starts, from one bincount).  The keys
    cell << 32 | index are filled per block of _BLOCK points, and one value
    sort of them leaves the order in their low halves, read as a view; the
    rows are then gathered per block, and the key is freed on return.
    """
    N, d = pts.shape
    m = _cells_per_axis(t, d, N)
    # flat cell ids, one block at a time, then packed above the point index,
    # so that a plain value sort orders the points by cell
    key = np.empty(N, dtype=np.uint64)
    for lo in range(0, N, _BLOCK):
        block = key[lo:lo + _BLOCK]
        block[:] = _cell_coords(pts[lo:lo + _BLOCK, 0], m)
        for k in range(1, d):
            block *= np.uint64(m)
            block += _cell_coords(pts[lo:lo + _BLOCK, k], m)
    counts = np.bincount(key.view(np.int64), minlength=m ** d)
    starts = np.zeros(m ** d + 1, dtype=np.int32)
    starts[1:] = np.cumsum(counts, out=counts)
    del counts                                          # freed before the sort
    for lo in range(0, N, _BLOCK):
        block = key[lo:lo + _BLOCK]
        block <<= np.uint64(32)
        block |= np.arange(lo, lo + block.size, dtype=np.uint64)
    key.sort()
    low = 0 if np.little_endian else 1
    order = key.view(np.uint32)[low::2]                 # the low halves, as a view
    cols = np.empty((d, N), dtype=np.uint64)
    buf = np.empty((min(N, _BLOCK), d), dtype=np.uint64)
    for lo in range(0, N, _BLOCK):
        hi = min(N, lo + _BLOCK)
        rows = buf[:hi - lo]
        np.take(pts, order[lo:hi], axis=0, out=rows)
        cols[:, lo:hi] = rows.T
    return cols, starts, m


def _candidates(cols: np.ndarray, starts: np.ndarray, m: int):
    """Yield (ia, ib) blocks of indices into the sorted points of a
    _grid_layout, whose pairs are every unordered pair of points in one cell
    or in two adjacent cells, each exactly once.

    As the cell side is >= t, every pair within distance t (either norm) is
    among them.  A row is the m cells that share their first d - 1
    coordinates; in the sorted order a row is contiguous.  With q a point's
    cell on the last axis, it is paired with the later points of its own cell
    and the points of cell q + 1 (one range), and in each half-shell
    neighbour row (offsets whose first nonzero component is +1; one at
    d = 2, four at d = 3) with cells q - 1, q and q + 1 (one range).  Where
    q = 0 or q = m - 1 the last axis wraps: one more range per row, cell
    m - 1 or cell 0.  Each unordered pair of adjacent cells is paired once,
    from one side, so no deduplication pass and no search is needed.  With
    one cell (m = 1) each point is paired with all later points.  Per block
    of _BLOCK sorted points the cells are computed again from cols and the
    ranges built; a block's ranges come out in chunks of _segment_pairs.
    """
    d, N = cols.shape
    shell = [delta for delta in itertools.product((0, 1, -1), repeat=d - 1)
             if m > 1 and next((o for o in delta if o), 0) == 1]
    weights = [m ** (d - 1 - k) for k in range(d - 1)]

    def row(n, axes, delta):
        # first flat cell id of the row at offset delta from each point's
        base = np.zeros(n, dtype=np.int64)
        for c, o, w in zip(axes, delta, weights):
            c = c + o
            c[c == m] = 0                   # wrap without an integer division
            c[c < 0] = m - 1
            c *= w
            base += c
        return base

    for lo in range(0, N, _BLOCK):
        hi = min(N, lo + _BLOCK)
        a = np.arange(lo, hi)
        # cells on each axis (below 2**31, so the int64 view is exact)
        *axes, q = (_cell_coords(col[lo:hi], m).view(np.int64) for col in cols)
        own = row(hi - lo, axes, (0,) * (d - 1))     # first cell id of the own row
        first = np.maximum(q - 1, 0)
        stop = np.minimum(q + 1, m - 1) + 1
        # points whose last-axis neighbour wraps around (none with one cell)
        wrap = np.flatnonzero((q == 0) | (q == m - 1)) if m > 1 else a[:0]
        other = m - 1 - q[wrap]              # the cell across the wrap

        # own row: the later points of the cell and cell q + 1, and cell 0
        # from cell m - 1; each neighbour row: cells q - 1 .. q + 1, and the
        # cell across the wrap
        last = wrap[other == 0]
        pair_a = [a, a[last]]
        begin = [a + 1, starts[own[last]]]
        end = [starts[own + stop], starts[own[last] + 1]]
        for delta in shell:
            base = row(hi - lo, axes, delta)
            pair_a += [a, a[wrap]]
            begin += [starts[base + first], starts[base[wrap] + other]]
            end += [starts[base + stop], starts[base[wrap] + other + 1]]
        pair_a, begin = np.concatenate(pair_a), np.concatenate(begin)
        yield from _segment_pairs(pair_a, begin, np.concatenate(end) - begin)


def ppc_grid(points, s: float, norm: NormKind) -> PairCountResult:
    """Linked-cell counter; identical count to ppc_naive by construction.

    The points are laid out by cell (_grid_layout), and the predicate runs
    on the candidate pairs (_candidates), which hold every near pair once;
    each near candidate counts twice (ordered pairs).
    """
    pts = points_to_array(points)
    N, d = pts.shape
    if N < 2:
        raise ValueError("need at least 2 points")
    if N > _MAX_POINTS:
        raise ValueError(f"ppc_grid counts at most {_MAX_POINTS} points, got N = {N}")
    t = threshold(s, N, d)
    cols, starts, m = _grid_layout(pts, t)
    limit = _limit(t, norm)
    near = 0
    for ia, ib in _candidates(cols, starts, m):
        near += _count_near(cols, ia, ib, norm, limit)
        del ia, ib              # not held while the stream builds its next block
    return _result(2 * near, N, s, d, norm)
