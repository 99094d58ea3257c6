"""Additive energy, joint additive energy, representation functions and
Vinogradov-type counts.

Every sequence here is strictly increasing, so a pair of indices i > j has a
difference vector v = a_i - a_j with every component >= 1, and the pairs
i < j give exactly the vectors -v.  With D(v) the number of ordered index
pairs whose componentwise differences equal v, the energy (index quadruples
with a_n + a_m = a_k + a_l in every component, rearranged as
a_n - a_k = a_l - a_m) is

    E = sum_v D(v)^2 = N^2 + 2 * sum_{v > 0} D(v)^2,

and the full table is the half table over i > j, negated and reversed, then
the zero row with count N, then the half table.  Only the N(N-1)/2 pairs
i > j are enumerated, in bands [L, U) of the first-component difference:
row i meets a band in one contiguous run of j, and the band edges are chosen
so each band holds at most a fixed budget of 2^20 index pairs (_PAIR_BUDGET;
a single first-difference value is never split).  A band is one integer key
column, the mixed-radix code of its difference vectors built one component
at a time, sorted in place: its runs of equal keys are the counts D(v).
The calling thread finds the band edges and _parallel.ordered_map counts
the bands on one thread per usable core.  Bands are disjoint in v, so each
adds its sum of squared counts to E directly (the energy never decodes a
vector), and the table decodes each band's unique keys to rows, which
concatenate in lexicographic order in band order.  The same table drives
the GCD-sum variance proxy.

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
from .sequences import SequenceData

MAX_ENERGY_N = 2_000_000        # keeps E <= N^3 < 2**63
_PAIR_BUDGET = 1 << 20          # index pairs per first-difference band


def _run_indices(lengths: np.ndarray, starts: np.ndarray | int = 0) -> np.ndarray:
    """starts[r] + 0, 1, ..., lengths[r] - 1 for each run r, concatenated."""
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)


def _group_encode(columns: Iterable[np.ndarray]):
    """(keys, lows, radices): mixed-radix integer keys (int64, or uint32 when
    they fit) of the rows whose columns are given one at a time, ordered as
    the rows are lexicographically, or None when the value ranges do not fit
    in int64.  A column is only read, so one buffer may be refilled for the
    next; the partial sums may wrap in int64, but every key ends in
    [0, 2**63)."""
    keys, los, radix = None, [], []
    for col in columns:
        lo = int(col.min())
        los.append(lo)
        radix.append(int(col.max()) - lo + 1)
        if math.prod(radix) >= 1 << 63:
            return None
        if keys is None:
            keys = col - lo
        else:
            keys *= radix[-1]
            keys += col
            keys -= lo
    if math.prod(radix) < 1 << 32:     # a uint32 key sorts about twice as fast
        keys = keys.astype(np.uint32)
    return keys, np.array(los), radix


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in a nonempty sorted array."""
    change = np.empty(keys.size, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    firsts = np.flatnonzero(change)
    return firsts, np.diff(np.append(firsts, keys.size))


def _key_groups(keys: np.ndarray, los: np.ndarray, radix: list[int]):
    """Unique rows of sorted mixed-radix keys, decoded column-major, with
    their multiplicities."""
    firsts, counts = _runs(keys)
    rest = keys[firsts].astype(np.int64)
    rows = np.empty((firsts.size, len(radix)), dtype=np.int64, order="F")
    for k in range(len(radix) - 1, 0, -1):
        quot = rest // radix[k]
        np.subtract(rest, quot * radix[k], out=rows[:, k])
        rest = quot
    rows[:, 0] = rest
    rows += los
    return rows, counts


def _unique_counts_rows(vectors: np.ndarray, weights: np.ndarray | None = None):
    """Unique rows in lexicographic order, with their multiplicities, or with
    their summed weights when weights are given.

    Without weights the keys are sorted in place and the unique rows
    decoded from them; with weights a stable order keeps each group's
    summation order.  Rows whose value ranges overflow the key are lexsorted.
    """
    enc = _group_encode(vectors.T)
    if enc is not None and weights is None:
        enc[0].sort()
        return _key_groups(*enc)
    order = np.argsort(enc[0], kind="stable") if enc is not None else np.lexsort(vectors.T[::-1])
    sv = vectors[order]
    change = np.ones(sv.shape[0], dtype=bool)
    change[1:] = (sv[1:] != sv[:-1]).any(axis=1)
    firsts = np.flatnonzero(change)
    if weights is None:
        return sv[firsts], np.diff(np.append(firsts, sv.shape[0]))
    return sv[firsts], np.add.reduceat(weights[order], firsts)


def _difference_columns(seqs: Sequence[SequenceData]) -> list[np.ndarray]:
    """Validated value columns, each shifted to start at 0 so that a_i - x
    stays in int64 for every band edge x up to one past the largest
    difference (values are natural numbers below 2**63)."""
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    n = seqs[0].N
    for s in seqs:
        if s.N != n:
            raise ValueError("all sequences must have equal length")
    if n < 1:
        raise ValueError("sequence must be nonempty")
    if n > MAX_ENERGY_N:
        raise OverflowError(f"N = {n} too large: E <= N^3 must stay below 2**63")
    cols = []
    for s in seqs:
        v = s.values
        if not (v[1:] > v[:-1]).all():
            raise ValueError("sequence values must be strictly increasing")
        cols.append(v - v[0])
    return cols


def _band_columns(cols: list[np.ndarray], j: np.ndarray, length: np.ndarray,
                  buf: np.ndarray) -> Iterator[np.ndarray]:
    """Component k of the band's difference vectors, a_i - a_j over the runs
    of j of each row i, written into buf for k = 0, 1, ... in turn."""
    for v in cols:
        np.take(v, j, out=buf, mode="clip")       # unbuffered; j is in range
        np.subtract(np.repeat(v, length), buf, out=buf)
        yield buf


def _band(cols: list[np.ndarray], lo: int, hi: int, table: bool):
    """(pairs, result) for the pairs i > j with first difference in [lo, hi):
    result is (rows, counts) of the band's distinct vectors when table is
    true, else the sum of their squared counts.

    Row i meets the band in the run of j with a_i - hi < a_j <= a_i - lo.
    The band's mixed-radix key is built one component at a time through one
    reused buffer and sorted in place; a band whose value ranges overflow the
    key is built as an (m, d) matrix and lexsorted instead.
    """
    a = cols[0]
    start = np.searchsorted(a, a - hi, side="right")
    length = np.searchsorted(a, a - lo, side="right") - start
    j = _run_indices(length, start)
    buf = np.empty(j.size, dtype=np.int64)
    enc = _group_encode(_band_columns(cols, j, length, buf))
    if enc is None:
        vectors = np.empty((j.size, len(cols)), dtype=np.int64, order="F")
        for k, col in enumerate(_band_columns(cols, j, length, buf)):
            vectors[:, k] = col
        del j, buf
        rows, counts = _unique_counts_rows(vectors)
    else:
        del j, buf
        enc[0].sort()
        rows, counts = _key_groups(*enc) if table else (None, _runs(enc[0])[1])
    return int(counts.sum()), (rows, counts) if table else int(counts @ counts)


def _band_edges(a: np.ndarray, half: int) -> Iterator[tuple[int, int]]:
    """Edges [L, U) of the first-difference bands of the half pairs i > j.

    U is the largest edge keeping the band within _PAIR_BUDGET pairs, found
    by bisection on C(x) = #{i > j : a_i - a_j < x}, unless the first value
    left alone exceeds the budget: then the band is that one value.
    """
    def below(x: int) -> int:
        return half - int(np.searchsorted(a, a - x, side="right").sum())

    top = int(a[-1]) + 1                # C(top) = half: every difference is < top
    lo_edge, c_lo = 1, 0
    while c_lo < half:
        lo, c_at_lo, hi, c_at_hi = lo_edge, c_lo, top, half
        while hi - lo > 1 and c_at_hi - c_lo > _PAIR_BUDGET:
            mid = (lo + hi) // 2
            c = below(mid)
            if c - c_lo <= _PAIR_BUDGET:
                lo, c_at_lo = mid, c
            else:
                hi, c_at_hi = mid, c
        if c_at_hi - c_lo > _PAIR_BUDGET and c_at_lo > c_lo:
            hi, c_at_hi = lo, c_at_lo
        yield lo_edge, hi
        lo_edge, c_lo = hi, c_at_hi


def _half_table_bands(cols: list[np.ndarray], table: bool) -> list:
    """_band's result for each first-difference band of the pairs i > j, in
    band order.

    The calling thread finds the band edges and _parallel.ordered_map hands
    each band to a thread as soon as its edges are known, so the bisection
    overlaps the counting and at most one band per usable core is alive at
    once.
    Raises InternalError if the grouped counts do not add up to the pairs.
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
    collected in band order, then mirrored; peak memory is one band key
    column per usable core plus the distinct-vector table itself, and the
    bytes do not depend on the core count.
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

    f is strictly increasing, so y is solved from the f-equation by binary
    search and the g-equation is then checked, O(N^2 log N) over (x, z).
    """
    if f_seq.N != g_seq.N:
        raise ValueError("sequences must have equal length")
    n = f_seq.N
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

    Ordered pairs are hashed by their vector of power sums; the count is the
    sum of squared multiplicities.
    """
    if N < 1 or d < 1:
        raise ValueError("N and d must be >= 1")
    if 2 * N ** d >= 1 << 63:
        raise OverflowError(f"power sums overflow int64 for N = {N}, d = {d}")
    x = np.arange(1, N + 1, dtype=np.int64)
    key = np.empty((N * N, d), dtype=np.int64)
    for i in range(1, d + 1):
        p = x ** i
        key[:, i - 1] = (p[:, None] + p[None, :]).ravel()
    _, counts = _unique_counts_rows(key)
    c = counts.astype(object)
    return int((c * c).sum())


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
        g = N ** a * math.log(N) ** b
        if not (math.isfinite(g) and g > 0):
            raise ValueError(f"ratio {name!r} divides by g(N) = {g} at N = {N}; "
                             f"g(N) must be finite and > 0")
        return g

    return fn


def energy_bound_report(seqs: Sequence[SequenceData],
                        comparisons: Sequence[str] = ()) -> EnergyReport:
    """Energy (joint for d >= 2) with observational ratios E / g(N); a ratio
    that is not finite raises ValueError."""
    if len(seqs) == 1:
        e = additive_energy(seqs[0])
    else:
        e = joint_additive_energy(seqs)
    n = seqs[0].N
    ratios = {name: e / comparison_from_name(name)(n) for name in comparisons}
    for name, ratio in ratios.items():
        if not math.isfinite(ratio):
            raise ValueError(f"ratio {name!r} overflows at N = {n}: E / g(N) = {ratio}")
    return EnergyReport(N=n, E=e, ratios=ratios)
