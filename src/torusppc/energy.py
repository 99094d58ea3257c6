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
so each band holds at most a pair budget (a single first-difference value
is never split).  Bands are disjoint in v, so each adds its sum of squared
counts to E directly, and their grouped rows concatenate in lexicographic
order.  The same table drives the GCD-sum variance proxy.

Brute-force oracles (O(N^4) quadruple and O(N^3) triple enumerations) live
here too; they exist for the test suite and stay independent of the banded
counting path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InternalError
from .sequences import SequenceData

MAX_ENERGY_N = 2_000_000        # keeps E <= N^3 < 2**63
DEFAULT_PAIR_BUDGET = 1 << 20   # index pairs per first-difference band


def _run_indices(lengths: np.ndarray, starts: np.ndarray | int = 0) -> np.ndarray:
    """starts[r] + 0, 1, ..., lengths[r] - 1 for each run r, concatenated."""
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)


def _group_encode(vectors: np.ndarray):
    """(keys, lows, radices): mixed-radix int64 keys of the rows, ordered as
    the rows are lexicographically, or None when the value ranges do not fit."""
    los = vectors.min(axis=0)
    radix = [int(h) - int(l) + 1 for l, h in zip(los, vectors.max(axis=0))]
    if math.prod(radix) >= 1 << 63:
        return None
    keys = vectors[:, 0] - los[0]
    for k in range(1, vectors.shape[1]):
        keys *= radix[k]
        keys += vectors[:, k] - los[k]
    return keys, los, radix


def _unique_counts_rows(vectors: np.ndarray, weights: np.ndarray | None = None):
    """Unique rows in lexicographic order, with their multiplicities, or with
    their summed weights when weights are given.

    Without weights the int64 keys are sorted in place and the unique rows
    decoded from them (column-major); with weights a stable order keeps each
    group's summation order.  Rows whose value ranges overflow the key are
    lexsorted.
    """
    enc = _group_encode(vectors)
    if enc is not None and weights is None:
        keys, los, radix = enc
        keys.sort()
        change = np.empty(keys.size, dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        firsts = np.flatnonzero(change)
        rest = keys[firsts]
        rows = np.empty((firsts.size, len(radix)), dtype=np.int64, order="F")
        for k in range(len(radix) - 1, 0, -1):
            quot = rest // radix[k]
            np.subtract(rest, quot * radix[k], out=rows[:, k])
            rest = quot
        rows[:, 0] = rest
        rows += los
        return rows, np.diff(np.append(firsts, keys.size))
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


def _half_table_bands(cols: list[np.ndarray],
                      pair_budget: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(vectors, counts) of D(v) over the pairs i > j, one band at a time.

    A band holds the pairs whose first difference lies in [L, U); row i
    meets it in the run of j with a_i - U < a_j <= a_i - L.  U is the
    largest edge keeping the band within pair_budget pairs, found by
    bisection on C(x) = #{i > j : a_i - a_j < x}, unless the first value
    left alone exceeds the budget: then the band is that one value.
    Raises InternalError if the grouped counts do not add up to the pairs.
    """
    a = cols[0]
    n = a.size
    half = n * (n - 1) // 2
    budget = max(1, int(pair_budget))

    def below(x: int) -> int:
        return half - int(np.searchsorted(a, a - x, side="right").sum())

    top = int(a[-1]) + 1                # C(top) = half: every difference is < top
    lo_edge, c_lo, held = 1, 0, 0
    while c_lo < half:
        lo, c_at_lo, hi, c_at_hi = lo_edge, c_lo, top, half
        while hi - lo > 1 and c_at_hi - c_lo > budget:
            mid = (lo + hi) // 2
            c = below(mid)
            if c - c_lo <= budget:
                lo, c_at_lo = mid, c
            else:
                hi, c_at_hi = mid, c
        if c_at_hi - c_lo > budget and c_at_lo > c_lo:
            hi, c_at_hi = lo, c_at_lo
        start = np.searchsorted(a, a - hi, side="right")
        length = np.searchsorted(a, a - lo_edge, side="right") - start
        j = _run_indices(length, start)
        vectors = np.empty((j.size, len(cols)), dtype=np.int64, order="F")
        for k, v in enumerate(cols):
            np.subtract(np.repeat(v, length), v[j], out=vectors[:, k])
        del j
        rows, counts = _unique_counts_rows(vectors)
        del vectors
        held += int(counts.sum())
        yield rows, counts
        lo_edge, c_lo = hi, c_at_hi
    if held != half:
        raise InternalError(f"representation table holds {n + 2 * held} pairs, "
                            f"expected N^2 = {n * n}")


def _energy(cols: list[np.ndarray], pair_budget: int) -> int:
    n = cols[0].size
    return n * n + 2 * sum(int(c @ c) for _, c in _half_table_bands(cols, pair_budget))


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

    def get(self, v: Sequence[int]) -> int:
        row = np.asarray(v, dtype=np.int64)
        match = (self.vectors == row).all(axis=1)
        hits = np.flatnonzero(match)
        return int(self.counts[hits[0]]) if hits.size else 0

    def restrict_nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectors with every component nonzero, and their counts."""
        mask = (self.vectors != 0).all(axis=1)
        return self.vectors[mask], self.counts[mask]

    def project(self, axis: int) -> "RepresentationTable":
        """Marginal table of a single component (sums counts over the rest)."""
        col = self.vectors[:, axis:axis + 1]
        uv, counts = _unique_counts_rows(col, self.counts)
        return RepresentationTable(d=1, N=self.N, vectors=uv, counts=counts)

    def sum_sq(self) -> int:
        c = self.counts.astype(object)
        return int((c * c).sum())


def representation_counts(seqs: Sequence[SequenceData],
                          pair_budget: int = DEFAULT_PAIR_BUDGET) -> RepresentationTable:
    """Exact difference-vector table over all N^2 ordered index pairs.

    Built from the half table over i > j, enumerated in first-difference
    bands of at most pair_budget pairs, then mirrored; peak memory is one
    band plus the distinct-vector table itself.
    """
    cols = _difference_columns(seqs)
    n, d = cols[0].size, len(cols)
    bands = list(_half_table_bands(cols, pair_budget))
    half_v = np.concatenate([v for v, _ in bands] or [np.empty((0, d), dtype=np.int64)])
    half_c = np.concatenate([c for _, c in bands] or [np.empty(0, dtype=np.int64)])
    del bands
    vectors = np.empty((2 * half_v.shape[0] + 1, d), dtype=np.int64)
    np.concatenate((-half_v[::-1], np.zeros((1, d), dtype=np.int64), half_v), out=vectors)
    counts = np.concatenate((half_c[::-1], np.array([n], dtype=np.int64), half_c))
    return RepresentationTable(d=d, N=n, vectors=vectors, counts=counts)


def additive_energy(A: SequenceData, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """E(A) = #{(a,b,c,d) in A^4 : a+b = c+d}: the d = 1 banded difference count."""
    return _energy(_difference_columns([A]), pair_budget)


def joint_additive_energy(seqs: Sequence[SequenceData],
                          pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Quadruples solving the energy equation in every component simultaneously."""
    return _energy(_difference_columns(seqs), pair_budget)


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
    E: int
    N: int
    lower_trivial: int          # N^2
    upper_trivial: int          # N^3
    ratios: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lower_trivial <= self.E <= self.upper_trivial:
            raise InternalError("energy outside trivial bounds; counting bug")


ComparisonFn = Callable[[int], float]


def comparison_from_name(name: str) -> ComparisonFn:
    """Named growth functions for ratio columns: ``N^a`` or ``N^a log^b``.

    Examples: "N^2", "N^3 log^-1" (N^3 / log N), "N^2 log^0.5".
    Logs are natural.
    """
    parts = name.replace("*", " ").split()
    if not parts or not parts[0].startswith("N^"):
        raise ValueError(f"cannot parse comparison function {name!r}")
    a = float(parts[0][2:])
    b = 0.0
    if len(parts) == 2:
        if not parts[1].startswith("log^"):
            raise ValueError(f"cannot parse comparison function {name!r}")
        b = float(parts[1][4:])
    elif len(parts) > 2:
        raise ValueError(f"cannot parse comparison function {name!r}")

    def fn(N: int) -> float:
        return N ** a * math.log(N) ** b

    return fn


def energy_bound_report(seqs: Sequence[SequenceData], comparisons: Sequence[str] = (),
                        pair_budget: int = DEFAULT_PAIR_BUDGET) -> EnergyReport:
    """Energy (joint for d >= 2) with observational ratios E / g(N)."""
    if len(seqs) == 1:
        e = additive_energy(seqs[0], pair_budget=pair_budget)
    else:
        e = joint_additive_energy(seqs, pair_budget=pair_budget)
    n = seqs[0].N
    ratios = {name: e / comparison_from_name(name)(n) for name in comparisons}
    return EnergyReport(E=e, N=n, lower_trivial=n * n, upper_trivial=n ** 3, ratios=ratios)
