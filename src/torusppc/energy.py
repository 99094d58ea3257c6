"""Additive energy, joint additive energy, representation functions and
Vinogradov-type counts.

Every SequenceData is strictly increasing, so a pair of indices i > j has a
difference vector v = a_i - a_j with every component >= 1, and the pairs
i < j give exactly the vectors -v.  With D(v) the number of ordered index
pairs whose componentwise differences equal v, the energy (index quadruples
with a_n + a_m = a_k + a_l in every component, rearranged as
a_n - a_k = a_l - a_m) is

    E = sum_v D(v)^2 = N^2 + 2 * sum_{v > 0} D(v)^2,

and the full table is the half table over i > j, negated and reversed, then
the zero row with count N, then the half table.  Only the N(N-1)/2 pairs
i > j are enumerated, in bands [L, U) of the first-component difference:
row i meets a band in one contiguous run of j, and each band holds at most a
fixed budget of 2^20 index pairs (_PAIR_BUDGET; a single first-difference
value is never split).  The edges are found by bisection on an estimate of
the pair count from every 16th row, checked by one exact count and cut by
exact bisection only when the band overflows.  A band is grouped by
_group_rows, the package's one grouping function: one integer key column,
the mixed-radix code of its difference vectors, sorted in place, whose runs
of equal keys are the counts D(v).  Every caller hands _group_rows its rows
in chunks with each column's exact min and max.  Every column increases
strictly, so each component's range over a band is read off the ends of the
rows' runs of j, and the key, the one band-long array, is filled 2^16 pairs
at a time (_CHUNK) from difference vectors that _band builds in place, one
component at a time, in one buffer of that length.  The calling thread
finds the band edges and _parallel.ordered_map counts the bands on one
thread per usable core.
Bands are disjoint in v, so each adds its sum of squared counts to E
directly: the energy walks its sorted key a chunk at a time and never makes
a per-vector array.  The table decodes each band's unique keys to rows,
which concatenate in lexicographic order in band order.  The same table
drives the GCD-sum variance proxy.

Brute-force oracles (O(N^4) quadruple and O(N^3) triple enumerations) live
here too; they exist for the test suite and stay independent of the banded
counting path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _parallel
from .errors import InternalError
from .sequences import SequenceData, common_length

MAX_ENERGY_N = 2_000_000        # keeps E <= N^3 < 2**63
_PAIR_BUDGET = 1 << 20          # index pairs per first-difference band
_CHUNK = 1 << 16                # band pairs keyed, and sorted keys walked, per step
_SAMPLE = 16                    # band edges are estimated from every 16th row


def _group_encode(columns: Iterable, spans: tuple):
    """(keys, lows, radices): mixed-radix integer keys (int64, or uint32, which
    sorts about twice as fast, when they fit) of the rows, ordered as the rows
    are lexicographically, or None when the value ranges do not fit in int64.

    spans = (rows, lows, highs) is the row count and each column's exact min
    and max (one stated too narrow would merge distinct rows); columns yields
    the rows in chunks, each an iterable of its column pieces, and the keys
    are written into one row-long array a chunk at a time, by Horner's rule
    on the columns less the key of the row of lows.  A column is only read,
    and read before the next is drawn, so one buffer may be refilled for the
    next; the partial sums may wrap in int64, but every key ends in
    [0, 2**63), so it comes out exact.
    """
    size, los, his = spans
    radix = [hi - lo + 1 for lo, hi in zip(los, his)]
    if math.prod(radix) >= 1 << 63:
        return None
    keys = np.empty(size, dtype=np.uint32 if math.prod(radix) < 1 << 32 else np.int64)
    low = 0
    for lo, r in zip(los, radix):
        low = low * r + lo
    low = (low + (1 << 63)) % (1 << 64) - (1 << 63)     # the same modulo 2**64, in int64
    p = 0
    for chunk in columns:
        pieces = iter(chunk)
        part = next(pieces)
        for r in radix[1:]:
            part = part * r             # a new array, before the buffer is refilled
            part += next(pieces)
        np.subtract(part, low, out=keys[p:p + part.size], casting="unsafe")
        p += part.size
    return keys, np.array(los), radix


def _runs(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal rows in nonempty columns sorted
    lexicographically as rows."""
    first = columns[0]
    change = np.empty(first.size, dtype=bool)
    change[0] = True
    np.not_equal(first[1:], first[:-1], out=change[1:])
    for col in columns[1:]:
        change[1:] |= col[1:] != col[:-1]
    firsts = np.flatnonzero(change)
    return firsts, np.diff(np.append(firsts, first.size))


def _key_run_squares(keys: np.ndarray) -> tuple[int, int]:
    """(the number of keys, the sum of the squared lengths of the runs of
    equal keys) of the nonempty sorted keys, walked about _CHUNK keys at a
    time, each chunk running on to the end of its last run.  As L^2 = L +
    L(L - 1), a chunk adds its size and L(L - 1) over its blocks of equal
    neighbours, so single keys cost no per-run work."""
    squares = p = 0
    while p < keys.size:
        q = int(np.searchsorted(keys, keys[min(p + _CHUNK, keys.size) - 1], side="right"))
        part = keys[p:q]
        same = part[1:] == part[:-1]
        edges = np.flatnonzero(np.diff(same, prepend=False, append=False))
        equal = edges[1::2] - edges[::2]          # L - 1 for each run of L >= 2
        squares += part.size + int(equal @ (equal + 1))
        p = q
    return keys.size, squares


def _group_rows(columns: Callable[[], Iterable], spans: tuple,
                weights: np.ndarray | None = None, square: bool = False):
    """(rows, counts): the distinct rows, in lexicographic order, of the
    nonempty int64 rows that columns() yields in chunks with the exact spans
    (see _group_encode), as a column-major (k, d) array, with their
    multiplicities or, when weights are given, their summed weights.  With
    square (and no weights) the result is (sum of the counts, sum of their
    squares), and no per-group array is made on the key path.

    The rows' mixed-radix keys are sorted, in place, or stably with weights so
    that each group sums in row order; the runs of equal keys are the groups,
    decoded from each run's first key.  When the key overflows, columns() is
    called again and its chunks are copied out and lexsorted instead.
    """
    enc = _group_encode(columns(), spans)
    if enc is None:
        cols = [np.empty(spans[0], dtype=np.int64) for _ in spans[1]]
        p = 0
        for chunk in columns():
            for col, piece in zip(cols, chunk):
                col[p:p + piece.size] = piece
            p += piece.size
        order = np.lexsort(cols[::-1])
        for k, col in enumerate(cols):
            cols[k] = col[order]
        firsts, counts = _runs(*cols)
        if square:
            return int(counts.sum()), int(counts @ counts)
        rows = np.array([col[firsts] for col in cols]).T
    else:
        keys, los, radix = enc
        if weights is None:
            keys.sort()
        else:
            order = np.argsort(keys, kind="stable")
            keys[:] = keys[order]
        if square:
            return _key_run_squares(keys)
        firsts, counts = _runs(keys)
        rest = keys[firsts].astype(np.int64)
        rows = np.empty((firsts.size, len(radix)), dtype=np.int64, order="F")
        for k in range(len(radix) - 1, 0, -1):
            quot = rest // radix[k]
            np.subtract(rest, quot * radix[k], out=rows[:, k])
            rest = quot
        rows[:, 0] = rest
        rows += los
    if weights is not None:
        counts = np.add.reduceat(weights[order], firsts)
    return rows, counts


def _difference_columns(seqs: Sequence[SequenceData]) -> list[np.ndarray]:
    """The value columns, each shifted to start at 0 so that a_i - x stays in
    int64 for every band edge x up to one past the largest difference (a
    SequenceData holds strictly increasing natural numbers below 2**63)."""
    n = common_length(seqs)
    if n > MAX_ENERGY_N:
        raise OverflowError(f"N = {n} too large: E <= N^3 must stay below 2**63")
    return [s.values - s.values[0] for s in seqs]


def _split_runs(length: np.ndarray) -> Iterator[tuple[int, int, slice, np.ndarray, np.ndarray]]:
    """(p, q, rows, skip, run) for each chunk [p, q) of at most _CHUNK items
    of the runs laid end to end, run r holding length[r] items: the chunk
    meets the runs in rows and takes run[r] items of run r after its first
    skip[r]."""
    ends = np.cumsum(length)
    offsets = ends - length             # run r's first item
    size = int(ends[-1])
    for p in range(0, size, _CHUNK):
        q = min(p + _CHUNK, size)
        rows = slice(int(np.searchsorted(ends, p, side="right")),
                     int(np.searchsorted(ends, q - 1, side="right")) + 1)
        skip = np.maximum(offsets[rows], p) - offsets[rows]
        yield p, q, rows, skip, np.minimum(ends[rows], q) - offsets[rows] - skip


def _band(cols: list[np.ndarray], lo: int, hi: int, table: bool):
    """(pairs, result) for the pairs i > j with first difference in [lo, hi),
    grouped by _group_rows: result is (rows, counts) of the band's distinct
    vectors when table is true, else the sum of their squared counts.  Row i
    meets the band in the run of j with a_i - hi < a_j <= a_i - lo; every
    column increases strictly, so a component's min and max over the band
    are at the runs' last and first j.  The difference vectors a_i - a_j
    come in chunks of at most _CHUNK pairs (_split_runs), each yielding its
    components one at a time, all written into one buffer, so a chunk must
    be read before the next is drawn.
    """
    a = cols[0]
    start = np.searchsorted(a, a - hi, side="right")
    length = np.searchsorted(a, a - lo, side="right") - start
    used = length > 0
    first = start[used]
    last = first + length[used] - 1
    spans = (int(length.sum()), [int((v[used] - v[last]).min()) for v in cols],
             [int((v[used] - v[first]).max()) for v in cols])

    def chunks():
        buf = np.empty(min(spans[0], _CHUNK), dtype=np.int64)
        ramp = np.arange(buf.size)
        for p, q, rows, skip, run in _split_runs(length):
            j = np.repeat(start[rows] + skip - np.cumsum(run) + run, run)
            j += ramp[:q - p]           # the indices j of the chunk's runs
            out = buf[:q - p]           # np.take is unbuffered: j is in range
            yield (np.subtract(np.repeat(v[rows], run), np.take(v, j, out=out, mode="clip"),
                               out=out) for v in cols)

    if not table:
        return _group_rows(chunks, spans, square=True)
    rows, counts = _group_rows(chunks, spans)
    return int(counts.sum()), (rows, counts)


def _probe(a: np.ndarray, rows: np.ndarray, x: int) -> tuple[int, int, int]:
    """(count, below, above) over the pairs i > j with i in rows: how many
    have a_i - a_j < x, the largest of those differences (0 if none) and the
    smallest difference >= x (a[-1] + 1 if none).  The count is the same for
    every x in (below, above]."""
    ai = a[rows]
    j = np.searchsorted(a, ai - x, side="right")    # a_i - a_j >= x exactly below j
    below = int((ai - a[j]).max())                   # j <= i, and j = i gives 0
    above = int(np.where(j > 0, ai - a[j - 1], a[-1] + 1).min())
    return int(rows.sum()) - int(j.sum()), below, above


def _band_edges(a: np.ndarray, half: int) -> Iterator[tuple[int, int]]:
    """Edges [L, U) of the first-difference bands of the half pairs i > j of
    the values a; none when there is one value.

    With C(x) = #{i > j : a_i - a_j < x}, a band holds C(U) - C(L) <=
    _PAIR_BUDGET pairs, unless the first difference value it holds exceeds
    the budget on its own: then the band is that one value.  U is chosen by
    bisection on the estimate of C from every _SAMPLE-th row, aiming at 90%
    of the budget and stopping within 5% of that aim, and counted once
    exactly; only a band that still holds more is cut by exact bisection
    inside [L, U), down to the largest U within the budget.  Both
    bisections step onto the nearest differences a probe returns (_probe),
    over which the count does not change, so they stop once no difference
    lies inside the bracket.
    """
    if half == 0:
        return
    top = int(a[-1]) + 1                # C(top) = half: every difference is < top
    every = np.arange(a.size)
    sample = every[(a.size - 1) % _SAMPLE::_SAMPLE]     # ends with the longest row
    s_top = int(sample.sum())
    room = 0.9 * _PAIR_BUDGET * s_top / half            # sampled pairs a band aims at
    lo_edge, c_lo = 1, 0
    nxt = int(np.diff(a).min())         # the smallest difference >= lo_edge
    while c_lo < half:
        cap = c_lo + _PAIR_BUDGET
        s_lo = _probe(a, sample, lo_edge)[0]
        lo, hi = (top, top) if s_top - s_lo <= room else (nxt + 1, top)
        while hi - lo > 1:              # U > nxt, so no band is empty
            mid = (lo + hi) // 2
            s, below, above = _probe(a, sample, mid)
            if s - s_lo <= room:
                lo = above
                if s - s_lo >= 0.95 * room:
                    break
            else:
                hi = below + 1
        c, below, above = (half, top - 1, top) if lo == top else _probe(a, every, lo)
        if c <= cap:
            yield lo_edge, lo
            lo_edge, c_lo, nxt = lo, c, above
            continue
        lo, c_at_lo, hi, c_at_hi, nxt_hi = nxt, c_lo, below + 1, c, above
        while hi - lo > 1:
            mid = (lo + hi) // 2
            c, below, above = _probe(a, every, mid)
            if c <= cap:
                lo, c_at_lo = above, c
            else:
                hi, c_at_hi, nxt_hi = below + 1, c, above
        if c_at_lo > c_lo:              # the band ends before the difference lo
            yield lo_edge, lo
            lo_edge, c_lo, nxt = lo, c_at_lo, lo
        else:                           # the difference lo alone exceeds the budget
            yield lo_edge, hi
            lo_edge, c_lo, nxt = hi, c_at_hi, nxt_hi


def _half_table_bands(cols: list[np.ndarray], table: bool) -> list:
    """_band's result for each first-difference band of the pairs i > j, in
    band order.

    The calling thread finds the band edges (_band_edges, mostly on a row
    sample) and _parallel.ordered_map hands each band to a thread as soon as
    its edges are known, so the edge search overlaps the counting and at
    most one band per usable core is alive at once: its key column (4 bytes
    a pair when the key fits in uint32, else 8) and one chunk's scratch.
    Raises InternalError if the grouped run lengths do not add up to the
    pairs.
    """
    n = cols[0].size
    half = n * (n - 1) // 2
    bands = _parallel.ordered_map(lambda edge: _band(cols, *edge, table),
                                  _band_edges(cols[0], half))
    held = sum(pairs for pairs, _ in bands)
    if held != half:
        raise InternalError(f"representation table holds {n + 2 * held} pairs, "
                            f"expected N^2 = {n * n}")
    return [result for _, result in bands]


def _energy(cols: list[np.ndarray]) -> int:
    n = cols[0].size
    return n * n + 2 * sum(_half_table_bands(cols, False))


@dataclass(frozen=True)
class RepresentationTable:
    """Sparse table v -> D(v) over all ordered index pairs, including v = 0.

    D(0) = N, D(v) = D(-v) and sum_v D(v) = N^2.  Because each sequence is
    strictly increasing, any vector with a zero component alongside a
    nonzero one never occurs; restricting to all-nonzero vectors recovers
    the representation function over pairs n != m.
    """

    d: int
    N: int
    vectors: np.ndarray        # (k, d) int64, unique difference vectors
    counts: np.ndarray         # (k,) int64

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)
        self.counts.setflags(write=False)

    def sum_sq(self) -> int:
        c = self.counts.astype(object)
        return int((c * c).sum())


def representation_counts(seqs: Sequence[SequenceData]) -> RepresentationTable:
    """Exact difference-vector table over all N^2 ordered index pairs.

    Built from the half table over i > j, enumerated in first-difference
    bands of at most _PAIR_BUDGET pairs, counted one per usable core and
    collected in band order, then mirrored.  Peak memory is one band key
    column and one chunk's scratch per usable core, plus the run starts and
    counts of the bands' distinct vectors, which are the size of the output,
    and the distinct-vector table itself; the bytes do not depend on the core
    count.
    """
    cols = _difference_columns(seqs)
    n, d = cols[0].size, len(cols)
    bands = _half_table_bands(cols, True)
    half_v = np.concatenate([v for v, _ in bands] or [np.empty((0, d), dtype=np.int64)])
    half_c = np.concatenate([c for _, c in bands] or [np.empty(0, dtype=np.int64)])
    del bands
    vectors = np.empty((2 * half_v.shape[0] + 1, d), dtype=np.int64)
    np.concatenate((-half_v[::-1], np.zeros((1, d), dtype=np.int64), half_v), out=vectors)
    counts = np.concatenate((half_c[::-1], np.array([n], dtype=np.int64), half_c))
    return RepresentationTable(d=d, N=n, vectors=vectors, counts=counts)


def additive_energy(A: SequenceData) -> int:
    """E(A) = #{(a,b,c,d) in A^4 : a+b = c+d}: the d = 1 banded difference count."""
    return _energy(_difference_columns([A]))


def joint_additive_energy(seqs: Sequence[SequenceData]) -> int:
    """Quadruples solving the energy equation in every component simultaneously."""
    return _energy(_difference_columns(seqs))


def additive_energy_brute(values: np.ndarray) -> int:
    """O(N^4) oracle: enumerate all quadruples through the pair-sum grid."""
    v = np.asarray(values, dtype=np.int64)
    sums = (v[:, None] + v[None, :]).ravel()
    eq = sums[:, None] == sums[None, :]
    return int(eq.sum())


def joint_additive_energy_brute(seq_values: Sequence[np.ndarray]) -> int:
    """O(N^4) oracle for the joint count: simultaneous pair-sum equality."""
    eq = None
    for values in seq_values:
        v = np.asarray(values, dtype=np.int64)
        sums = (v[:, None] + v[None, :]).ravel()
        this = sums[:, None] == sums[None, :]
        eq = this if eq is None else (eq & this)
    return int(eq.sum())


def count_Jl(f_seq: SequenceData, g_seq: SequenceData, l: int) -> int:
    """Solutions (x, y, z) of f(x)+f(y) = f(x+l)+f(z), g(x)+g(y) = g(x+l)+g(z)
    with 1 <= x < x+l <= z < y <= N (indices into the given arrays).

    f is strictly increasing, as every SequenceData is, so y is solved from
    the f-equation by binary search and the g-equation is then checked,
    O(N^2 log N) over (x, z).
    """
    n = common_length((f_seq, g_seq))
    if l < 1:
        raise ValueError("l must be >= 1")
    if l >= n:
        return 0
    f = f_seq.values
    g = g_seq.values
    if int(f[-1]) > 1 << 62 or int(g[-1]) > 1 << 62:
        raise OverflowError("sequence values too large for int64 sums")
    total = 0
    for x in range(1, n - l + 1):          # 1-based
        z = np.arange(x + l, n, dtype=np.int64)   # 1-based z, z < y <= N needs z <= N-1
        if z.size == 0:
            continue
        target = f[x + l - 1] + f[z - 1] - f[x - 1]
        yi = np.searchsorted(f, target)           # 0-based candidate index
        ok = (yi < n)
        yi_c = np.where(ok, yi, 0)
        ok &= f[yi_c] == target
        ok &= yi_c >= z                           # y (1-based) = yi+1 > z  <=>  yi >= z
        ok &= (g[x - 1] + g[yi_c]) == (g[x + l - 1] + g[z - 1])
        total += int(np.count_nonzero(ok))
    return total


def count_Jl_brute(f_seq: SequenceData, g_seq: SequenceData, l: int) -> int:
    """O(N^3)-style oracle: evaluate the defining system over the (x,z,y) grid."""
    n = f_seq.N
    if l >= n:
        return 0
    f = f_seq.values
    g = g_seq.values
    total = 0
    for x in range(1, n - l + 1):
        z = np.arange(1, n + 1, dtype=np.int64)
        y = np.arange(1, n + 1, dtype=np.int64)
        zz, yy = np.meshgrid(z, y, indexing="ij")
        cond = (x + l <= zz) & (zz < yy)
        feq = f[x - 1] + f[yy - 1] == f[x + l - 1] + f[zz - 1]
        geq = g[x - 1] + g[yy - 1] == g[x + l - 1] + g[zz - 1]
        total += int((cond & feq & geq).sum())
    return total


def vinogradov_J2d(N: int, d: int) -> int:
    """Number of solutions of x1^i + x2^i = y1^i + y2^i for 1 <= i <= d over [1,N]^4.

    Ordered pairs are grouped by their vector of power sums (_group_rows, one
    chunk, power sum i spanning exactly 2 to 2 N^i, at x1 = x2 = 1 and at
    x1 = x2 = N); the count is the sum of squared multiplicities.
    """
    if N < 1 or d < 1:
        raise ValueError("N and d must be >= 1")
    if 2 * N ** d >= 1 << 63:
        raise OverflowError(f"power sums overflow int64 for N = {N}, d = {d}")
    x = np.arange(1, N + 1, dtype=np.int64)
    spans = (N * N, [2] * d, [2 * N ** i for i in range(1, d + 1)])
    return _group_rows(lambda: [(np.add.outer(x ** i, x ** i).ravel() for i in range(1, d + 1))],
                       spans, square=True)[1]


@dataclass(frozen=True)
class EnergyReport:
    N: int
    E: int
    ratios: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.N ** 2 <= self.E <= self.N ** 3:
            raise InternalError("energy outside trivial bounds; counting bug")


ComparisonFn = Callable[[int], float]


def comparison_from_name(name: str) -> ComparisonFn:
    """Named growth functions for ratio columns: ``N^a`` or ``N^a log^b``.

    Examples: "N^2", "N^3 log^-1" (N^3 / log N), "N^2 log^0.5".
    Logs are natural.  The returned g raises ValueError, naming the ratio and
    N, unless g(N) is finite and > 0.
    """
    parts = name.replace("*", " ").split()
    exps = [p[len(pre):] for p, pre in zip(parts, ("N^", "log^")) if p.startswith(pre)]
    if not 1 <= len(exps) == len(parts):
        raise ValueError(f"cannot parse comparison function {name!r}")
    try:
        a, b = float(exps[0]), float(exps[1]) if len(exps) == 2 else 0.0
    except ValueError:
        raise ValueError(f"cannot parse comparison function {name!r}") from None

    def fn(N: int) -> float:
        if b != 0 and N == 1:
            raise ValueError(f"ratio {name!r} is undefined at N = 1, where log N = 0")
        try:
            g = N ** a * math.log(N) ** b
        except OverflowError:
            g = math.inf
        if not (math.isfinite(g) and g > 0):
            raise ValueError(f"ratio {name!r} divides by g(N) = {g} at N = {N}; "
                             f"g(N) must be finite and > 0")
        return g

    return fn


def energy_bound_report(seqs: Sequence[SequenceData],
                        comparisons: Sequence[str] = ()) -> EnergyReport:
    """Energy (joint for d >= 2) with observational ratios E / g(N).  A
    repeated ratio name, or a g that does not parse or fails at N, raises
    ValueError before the count; a ratio that is not finite, after it."""
    n = seqs[0].N
    gs = {}
    for name in comparisons:
        if name in gs:
            raise ValueError(f"ratio {name!r} is named twice")
        gs[name] = comparison_from_name(name)(n)
    if len(seqs) == 1:
        e = additive_energy(seqs[0])
    else:
        e = joint_additive_energy(seqs)
    ratios = {name: e / g for name, g in gs.items()}
    for name, ratio in ratios.items():
        if not math.isfinite(ratio):
            raise ValueError(f"ratio {name!r} overflows at N = {n}: E / g(N) = {ratio}")
    return EnergyReport(N=n, E=e, ratios=ratios)
