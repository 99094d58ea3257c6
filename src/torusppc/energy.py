"""Additive energy, joint additive energy, representation functions and
Vinogradov-type counts.

The fast paths hash difference vectors: the number of index quadruples
(n,m,k,l) with a_n + a_m = a_k + a_l in every component equals
sum_v D(v)^2, where D(v) counts ordered index pairs whose componentwise
differences equal v (rearrange the energy equation as a_n - a_k = a_l - a_m).
The same table drives the GCD-sum variance proxy, so it is computed once.

Brute-force oracles (O(N^4) quadruple and O(N^3) triple enumerations) live
here too; they exist for the test suite and stay independent of the hashed
counting paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InternalError
from .sequences import SequenceData

MAX_ENERGY_N = 2_000_000        # keeps E <= N^3 < 2**63
DEFAULT_PAIR_BUDGET = 200_000_000


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("sequence must be nonempty")
    if n > MAX_ENERGY_N:
        raise OverflowError(f"N = {n} too large: E <= N^3 must stay below 2**63")


def _group_encode(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Mixed-radix encode rows to uint64 keys when the value ranges allow it."""
    d = vectors.shape[1]
    if d == 1:
        return vectors[:, 0].copy(), None
    los = vectors.min(axis=0).astype(object)
    his = vectors.max(axis=0).astype(object)
    radix = [int(h - l) + 1 for l, h in zip(los, his)]
    total = 1
    for r in radix:
        total *= r
    if total >= 1 << 63:
        return None
    keys = np.zeros(vectors.shape[0], dtype=np.int64)
    for k in range(d):
        keys *= np.int64(radix[k])
        keys += vectors[:, k] - np.int64(los[k])
    return keys, None


def _unique_counts_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unique rows, counts); uses integer encoding when possible, else lexsort."""
    enc = _group_encode(vectors)
    if enc is not None:
        keys = enc[0]
        uk, first, counts = np.unique(keys, return_index=True, return_counts=True)
        return vectors[first], counts
    idx = np.lexsort(vectors.T[::-1])
    sv = vectors[idx]
    change = np.ones(sv.shape[0], dtype=bool)
    change[1:] = (sv[1:] != sv[:-1]).any(axis=1)
    firsts = np.flatnonzero(change)
    counts = np.diff(np.concatenate((firsts, [sv.shape[0]])))
    return sv[firsts], counts


def _merge_runs(runs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Tree-merge sorted-by-content (vectors, counts) runs, collapsing duplicates."""
    while len(runs) > 1:
        merged = []
        for i in range(0, len(runs), 2):
            if i + 1 == len(runs):
                merged.append(runs[i])
                continue
            va, ca = runs[i]
            vb, cb = runs[i + 1]
            v = np.concatenate((va, vb))
            c = np.concatenate((ca, cb))
            uv, inv_first = _unique_counts_rows_with_sum(v, c)
            merged.append((uv, inv_first))
        runs = merged
    return runs[0]


def _unique_counts_rows_with_sum(vectors: np.ndarray, weights: np.ndarray):
    """Unique rows with summed weights (used when merging partial runs)."""
    enc = _group_encode(vectors)
    if enc is not None:
        keys = enc[0]
        order = np.argsort(keys, kind="stable")
    else:
        order = np.lexsort(vectors.T[::-1])
    sv = vectors[order]
    sw = weights[order]
    change = np.ones(sv.shape[0], dtype=bool)
    change[1:] = (sv[1:] != sv[:-1]).any(axis=1)
    firsts = np.flatnonzero(change)
    sums = np.add.reduceat(sw, firsts)
    return sv[firsts], sums


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
        uv, counts = _unique_counts_rows_with_sum(col, self.counts)
        return RepresentationTable(d=1, N=self.N, vectors=uv, counts=counts)

    def sum_sq(self) -> int:
        c = self.counts.astype(object)
        return int((c * c).sum())


def representation_counts(seqs: Sequence[SequenceData],
                          pair_budget: int = DEFAULT_PAIR_BUDGET) -> RepresentationTable:
    """Exact difference-vector table over all N^2 ordered index pairs.

    Above pair_budget pairs the differences are generated in row blocks,
    each block grouped and the sorted runs merged, bounding peak memory to
    the block size plus the distinct-vector table itself.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    n = seqs[0].N
    for s in seqs:
        if s.N != n:
            raise ValueError("all sequences must have equal length")
    _check_n(n)
    d = len(seqs)
    vals = [s.values for s in seqs]

    total_pairs = n * n
    rows_per_block = max(1, int(pair_budget) // max(1, n))
    runs: list[tuple[np.ndarray, np.ndarray]] = []
    for lo in range(0, n, rows_per_block):
        hi = min(n, lo + rows_per_block)
        block = np.empty(((hi - lo) * n, d), dtype=np.int64)
        for k in range(d):
            block[:, k] = (vals[k][lo:hi, None] - vals[k][None, :]).ravel()
        uv, counts = _unique_counts_rows(block)
        runs.append((uv, counts.astype(np.int64)))
        del block
    vectors, counts = _merge_runs(runs) if len(runs) > 1 else runs[0]
    if int(counts.sum()) != total_pairs:
        raise InternalError(f"representation table holds {int(counts.sum())} pairs, "
                            f"expected N^2 = {total_pairs}")
    return RepresentationTable(d=d, N=n, vectors=vectors, counts=counts)


def additive_energy(A: SequenceData, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """E(A) = #{(a,b,c,d) in A^4 : a+b = c+d}, via squared sum multiplicities."""
    _check_n(A.N)
    n = A.N
    vals = A.values.astype(np.uint64)
    rows_per_block = max(1, int(pair_budget) // max(1, n))
    runs: list[tuple[np.ndarray, np.ndarray]] = []
    for lo in range(0, n, rows_per_block):
        hi = min(n, lo + rows_per_block)
        sums = (vals[lo:hi, None] + vals[None, :]).ravel()
        uv, counts = np.unique(sums, return_counts=True)
        # uint64 sums can exceed int64; the cast wraps bijectively, which is
        # all grouping needs (keys are never interpreted as magnitudes)
        runs.append((uv.reshape(-1, 1).astype(np.int64, copy=False), counts.astype(np.int64)))
    if len(runs) > 1:
        _, counts = _merge_runs(runs)
    else:
        counts = runs[0][1]
    c = counts.astype(object)
    return int((c * c).sum())


def joint_additive_energy(seqs: Sequence[SequenceData],
                          pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Quadruples solving the energy equation in every component simultaneously."""
    table = representation_counts(seqs, pair_budget=pair_budget)
    return table.sum_sq()


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
            raise ValueError("energy outside trivial bounds; counting bug")


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


def energy_bound_report(seqs: Sequence[SequenceData],
                        comparisons: "Sequence[tuple[str, ComparisonFn]] | Sequence[str]" = (),
                        pair_budget: int = DEFAULT_PAIR_BUDGET) -> EnergyReport:
    """Energy (joint for d >= 2) with observational ratios E / g(N)."""
    if len(seqs) == 1:
        e = additive_energy(seqs[0], pair_budget=pair_budget)
    else:
        e = joint_additive_energy(seqs, pair_budget=pair_budget)
    n = seqs[0].N
    ratios: dict[str, float] = {}
    for item in comparisons:
        if isinstance(item, str):
            name, fn = item, comparison_from_name(item)
        else:
            name, fn = item
        ratios[name] = e / fn(n)
    return EnergyReport(E=e, N=n, lower_trivial=n * n, upper_trivial=n ** 3, ratios=ratios)
