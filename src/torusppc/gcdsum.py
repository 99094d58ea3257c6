"""Classical and d-dimensional GCD sums, plus a random multiplicative model.

A weight f is a WeightedSupport, two arrays checked once: its K points, the
sorted distinct rows of a (K, d) int64 array, and their complex128 weights.
support_from_representations slices them from a representation table.  The
Hermitian form S_f(d; alpha) = sum f(a) conj(f(b)) prod_i
gcd(a_i,b_i)^(2 alpha) / (a_i b_i)^alpha is evaluated as a sum of squares:
expanding each gcd^(2 alpha) over the common divisors with Jordan's totient
(the positive-definite form of Gal and Dyer-Harman) costs O(T log T) in the
number T <= sum_a prod_i tau(a_i) of divisor tuples of the support, not
the O(K^2) of the Gram matrix, which pays off when the coordinates have few
divisors (T << K^2), as differences of polynomial sequences do.  The tuples
are expanded one block of first divisors at a time, so memory holds one
block, not all T tuples.

A seeded random completely multiplicative function with values at primes
uniform on the 2^12-th roots of unity drives Monte Carlo checks of the
second-moment identity E|zeta_X zeta_Y D|^2 = zeta(2a)^2 S_f(2; a): under a
cutoff M the identity becomes exact and finite (the h-sums truncate), which
is what verify_eq0 tests against simulation.  _model_values is the one
place that model is drawn and extended, into buffers and from streams its
caller owns: field j (X, then Y) reads one PCG64 stream (seed, j), of which
sample i reads a fixed window (_model_streams); it extends the phases as
integers and takes the values from one table of roots.  Its arrays are
n-major, X(n) at index n of axis 0, and zeta_trunc sums any of them over
that axis.  verify_eq0 deals its batches in runs of consecutive batches,
one run per usable core, through _parallel.ordered_map; each worker draws
its run into buffers made once for it, from one stream per field that
starts at the run's first sample and reads on from batch to batch, so the
model's memory is the same few MB every call, whatever the allocator does
with freed pages.  D and the zeta sums are np.einsum sums, not BLAS, in a
fixed order per sample, so its output bytes depend neither on the core
count nor on the BLAS threads.
gcd_sum and truncated_rhs run on the calling thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _parallel
from .energy import RepresentationTable, _group_rows, _runs, _split_runs

_FACTOR_BLOCK = 1 << 20         # value-prime pairs tested per trial-division round
_TRIAL_BOUND = 1 << 16          # largest trial divisor; larger factors go to a coprime base
_BLOCK_TUPLES = 1 << 16         # divisor tuples of one block of first-divisor groups in gcd_sum
_MAX_HELD_TUPLES = 1 << 24      # divisor tuples gcd_sum holds expanded at once at most (~1-2 GB)
_MAX_DIVISOR_TUPLES = 1 << 28   # divisor tuples gcd_sum expands in all at most (~30 s at 0.11 us a tuple)
_PHASE_BATCH = 128              # Monte Carlo samples a batch (a worker's buffers: 3.1 MB at M = 400)
_PHASE_BITS = 12                # X(p) is a 2^12-th root of unity; see _model_values for why that suffices


@dataclass(frozen=True)
class WeightedSupport:
    """Finitely supported complex weight function on N^d: f(points[k]) = weights[k].

    points is (K, d) int64, K, d >= 1, every component >= 1, rows strictly
    increasing in lexicographic order; weights is (K,) complex128, finite with
    a finite squared 2-norm.  from_arrays, the one validator, keeps read-only
    copies; WeightedSupport(d=..., entries={point: weight}) and ones sort first.
    Frozen, so no field is replaced after that check.
    """

    d: int
    entries: InitVar[Mapping[tuple[int, ...], complex]]
    points: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    norm_l2_sq: float = field(init=False)

    def __post_init__(self, entries: Mapping[tuple[int, ...], complex]) -> None:
        f = self.from_arrays(*_lexsorted(list(entries.keys()), list(entries.values())))
        if f.d != self.d:
            raise ValueError(f"support points have {f.d} coordinates, not d = {self.d}")
        vars(self).update(vars(f))

    @property
    def K(self) -> int:
        return self.points.shape[0]

    @classmethod
    def ones(cls, points: Sequence[Sequence[int]]) -> "WeightedSupport":
        return cls.from_arrays(*_lexsorted(points, np.ones(len(points))))

    @classmethod
    def from_arrays(cls, points: np.ndarray, weights: np.ndarray) -> "WeightedSupport":
        """f(points[k]) = weights[k], points already sorted; see the class for what is refused."""
        if np.shape(points)[:1] == (0,):
            raise ValueError("support must be nonempty")
        if not (isinstance(points, np.ndarray) and points.dtype == np.int64 and points.ndim == 2
                and points.shape[1] >= 1 and isinstance(weights, np.ndarray)
                and weights.dtype == np.complex128 and weights.shape == points.shape[:1]):
            raise ValueError(f"support needs (K, d) int64 points, d >= 1, and (K,) complex128 "
                             f"weights, got {np.shape(points)} and {np.shape(weights)}")
        if points.min() < 1:
            raise ValueError(f"support points need every component >= 1, got {points.min()}")
        step = points[1:] - points[:-1]     # no wrap: every component is >= 1
        up = np.take_along_axis(step, (step != 0).argmax(axis=1)[:, None], 1)
        if (up <= 0).any():                 # a repeated point steps by 0
            raise ValueError(f"support points must increase strictly in lexicographic order, "
                             f"so none repeats, not at {points[up.argmin() + 1].tolist()}")
        with np.errstate(over="ignore"):     # an overflow is refused just below
            norm = float((np.abs(weights) ** 2).sum())
        if not math.isfinite(norm):
            raise ValueError(f"support weights must be finite with a finite squared 2-norm, "
                             f"got {norm}")
        points, weights = points.copy(), weights.copy()
        points.flags.writeable = weights.flags.writeable = False
        f = cls.__new__(cls)
        vars(f).update(d=points.shape[1], points=points, weights=weights, norm_l2_sq=norm)
        return f


def _lexsorted(points, weights) -> tuple[np.ndarray, np.ndarray]:
    """int64 points (OverflowError beyond int64) and complex128 weights, sorted by point.

    Points of unequal length are refused with a message that names the first
    one whose length differs from the first point's.
    """
    width = np.size(points[0]) if len(points) else 0
    bad = next((p for p in points if np.size(p) != width), None)
    if bad is not None:
        raise ValueError(f"support point {bad} has wrong dimension: "
                         f"{np.size(bad)} coordinates, not {width}")
    points, weights = np.array(points, dtype=np.int64), np.array(weights, dtype=np.complex128)
    order = np.lexsort(points.T[::-1]) if points.ndim == 2 and points.size else slice(None)
    return points[order], weights[order]


def _prime_powers(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, q, k) with q^k exactly dividing values[owner], the q pairwise coprime.

    Trial division by the primes up to min(sqrt(max value), _TRIAL_BOUND).
    Each round tests a block of primes, the smallest p0, against only the
    values whose unfactored part r still has r >= p0^2 (a smaller r is 1 or
    a prime), and holds about _FACTOR_BLOCK value-prime pairs.  The parts
    r > 1 left over go to _cofactor_powers.
    """
    rem = values.astype(np.int64)
    bound = min(math.isqrt(int(rem.max())), _TRIAL_BOUND)
    candidates = primes_up_to(bound)
    parts = []
    i = 0
    while i < candidates.size:
        live = np.flatnonzero(rem >= candidates[i] ** 2)
        if live.size == 0:
            break
        block = candidates[i:i + max(1, _FACTOR_BLOCK // live.size)]
        i += block.size
        row, col = np.nonzero(rem[live, None] % block == 0)
        owner, p = live[row], block[col]
        r, k = rem[owner], np.zeros(owner.size, dtype=np.int64)
        hit = np.ones(owner.size, dtype=bool)
        while hit.any():
            k += hit
            r = np.where(hit, r // p, r)
            hit = r % p == 0
        np.floor_divide.at(rem, owner, p ** k)
        parts.append((owner, p, k))
    left = np.flatnonzero(rem > 1)
    owner, q, k = _cofactor_powers(rem[left], bound + 1)
    parts.append((left[owner], q, k))
    return tuple(np.concatenate(c) for c in zip(*parts))


def _cofactor_powers(rem: np.ndarray,
                     bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, q, k) with rem[owner] = prod q^k over a coprime base of rem.

    No rem has a prime factor below bound, so one under bound^2 is a prime
    and only a larger one can share a factor with a different rem; np.gcd
    of those against all (|big| x |rem| pairs, in blocks) finds the rem that
    do, and these are split over a pairwise coprime base.  The q need not be prime: for pairwise coprime q,
    gcd(a, b) = prod q^min(v_q(a), v_q(b)), which is all Jordan's totient
    J_beta(q^j) = q^(j beta) (1 - q^-beta) relies on.
    """
    big = np.flatnonzero(rem >= bound * bound)
    tangled = np.zeros(rem.size, dtype=bool)
    step = max(1, _FACTOR_BLOCK // max(1, rem.size))
    for lo in range(0, big.size, step):
        rows = big[lo:lo + step]
        shared = (np.gcd(rem[rows, None], rem) > 1) & (rem[rows, None] != rem)
        tangled |= shared.any(axis=0)
        tangled[rows] |= shared.any(axis=1)
    plain = np.flatnonzero(~tangled)
    owner, q, k = plain.tolist(), rem[plain].tolist(), [1] * plain.size
    knot = np.flatnonzero(tangled).tolist()
    base = _coprime_base([int(rem[i]) for i in knot])
    for i in knot:
        r = int(rem[i])
        for b in base:
            j = 0
            while r % b == 0:
                r //= b
                j += 1
            if j:
                owner.append(i)
                q.append(b)
                k.append(j)
    return tuple(np.array(c, dtype=np.int64) for c in (owner, q, k))


def _coprime_base(numbers: list[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every number is a product.

    An x sharing a factor g > 1 with a base element q takes q out of the
    base and comes back as g, q / g and x / g; the product over stack and
    base falls by g each time, so the loop ends.
    """
    base: list[int] = []
    stack = list(numbers)
    while stack:
        x = stack.pop()
        if x == 1:
            continue
        for i, q in enumerate(base):
            g = math.gcd(x, q)
            if g > 1:
                del base[i]
                stack += [g, q // g, x // g]
                break
        else:
            base.append(x)
    return base


def _run_indices(lengths: np.ndarray, starts: np.ndarray | int = 0) -> np.ndarray:
    """starts[r] + 0, 1, ..., lengths[r] - 1 for each run r, concatenated."""
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)


def _divisor_runs(n_values: int, owner: np.ndarray, q: np.ndarray, k: np.ndarray,
                  beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(tau, start, div, root_j): the divisors of each value as contiguous runs.

    (owner, q, k) is the factorization from _prime_powers.  Value v owns
    div[s : s + tau[v]] with s = start[v] = sum(tau[:v]); root_j holds
    sqrt(J_beta(e)) for each divisor e, where Jordan's totient
    J_beta(prod q^j) = prod_{j > 0} q^(j beta) (1 - q^-beta) >= 0.
    """
    order = np.argsort(owner, kind="stable")
    owner, q, k = owner[order], q[order], k[order]
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    run = np.arange(n_values)
    div = np.ones(n_values, dtype=np.int64)
    root_j = np.ones(n_values)
    # one round per factor slot: each value splits its divisors by q^0..q^k,
    # looked up in a table of q^j and sqrt(J_beta(q^j)) for this slot
    for slot in range(int(rank.max(initial=-1)) + 1):
        sel = rank == slot
        base = np.ones(n_values, dtype=np.int64)
        span = np.ones(n_values, dtype=np.int64)
        base[owner[sel]] = q[sel]
        span[owner[sel]] = k[sel] + 1
        j = _run_indices(span)
        qj = np.repeat(base, span)
        qf = qj.astype(np.float64)
        root_jt = np.where(j > 0, np.sqrt(qf ** (j * beta) * (1.0 - qf ** -beta)), 1.0)
        reps = span[run]
        entry = _run_indices(reps, (np.cumsum(span) - span)[run])
        run = np.repeat(run, reps)
        div = np.repeat(div, reps) * (qj ** j)[entry]
        root_j = np.repeat(root_j, reps) * root_jt[entry]
    tau = np.bincount(run, minlength=n_values)
    return tau, np.cumsum(tau) - tau, div, root_j


def _expand(rows: np.ndarray, w: np.ndarray, i: int, vals: np.ndarray,
            runs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]):
    """Rows repeated once per divisor of their i-th component, that component
    replaced by the divisor and the weight scaled by sqrt(J_beta), then equal
    rows merged by _group_rows, fed to it in chunks of the expansion
    (_split_runs), so that no other column is repeated whole.  vals are
    column i's distinct values, runs their _divisor_runs.  The spans are
    exact: a value's divisors run from 1 to itself, and every row repeats at
    least once."""
    tau, start, div, root_j = runs
    inv = np.searchsorted(vals, rows[:, i])     # column i is still unexpanded
    length = tau[inv]
    entry = _run_indices(length, start[inv])
    w = np.repeat(w, length)
    w *= root_j[entry]
    divisors = div[entry]
    del entry                           # free before the merge
    lows, highs = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
    lows[i] = 1                         # column i now holds divisors, from 1 up

    def columns():
        for p, q, sl, _, run in _split_runs(length):
            yield (divisors[p:q] if k == i else np.repeat(rows[sl, k], run)
                   for k in range(len(lows)))

    return _group_rows(columns, (divisors.size, lows, highs), w)


def _first_divisor_blocks(first: np.ndarray, tuples: np.ndarray) -> list[tuple[int, int, float]]:
    """(lo, hi, tuples) for the row ranges cutting the sorted column first
    into blocks of whole groups of equal values, each of at most
    _BLOCK_TUPLES tuples (tuples[r] for row r), or one group on its own when
    that group is larger."""
    starts, _ = _runs(first)
    edges = np.append(starts, first.size)
    before = np.concatenate(([0.0], np.cumsum(tuples)))[edges]
    blocks = []
    j = 0
    while j < starts.size:
        k = max(j + 1, int(np.searchsorted(before, before[j] + _BLOCK_TUPLES, side="right")) - 1)
        blocks.append((int(edges[j]), int(edges[k]), float(before[k] - before[j])))
        j = k
    return blocks


def _check_alpha(alpha: float) -> None:
    """Refuse an exponent of gcd_sum outside (0, 1]."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def gcd_sum(f: WeightedSupport, alpha: float) -> float:
    """S_f(d; alpha) as a sum of squares: real and >= 0 for any complex weights.

    With beta = 2 alpha, gcd(a, b)^beta = sum_{e | a, e | b} J_beta(e), so
        S_f = sum_{e in N^d} prod_i J_beta(e_i) |sum_{a : e_i | a_i} f(a) a^-alpha|^2.
    The inner sums are built one coordinate at a time (_expand): every row
    (a point, or a partly expanded tuple) is repeated once per divisor of
    its i-th component, and equal rows are merged.  Each distinct coordinate
    value is factored once.  Rows with different first divisors e_1 never
    merge, so after the first coordinate the rows, sorted by e_1, are cut
    into blocks of whole e_1 groups of at most _BLOCK_TUPLES divisor tuples
    each (a larger group is a block on its own).  One block at a time is
    expanded over the other coordinates and summed, and the block sums are
    added in block order.

    Cost is O(T log T) time in the number T = sum_a prod_i tau(a_i) of
    divisor tuples, against O(K^2) for the Gram form.  Memory holds the
    divisors of each column's distinct values and, at 55-120 bytes a tuple,
    two expansions: the support over its first coordinate (sum_a tau(a_1)
    tuples) and the block being summed.  A support where any of the three
    exceeds _MAX_HELD_TUPLES raises ValueError before the blocks are
    expanded.  The divisor form serves supports
    whose coordinates have few divisors, so that T << K^2: differences of
    (n, n^2) at N = 200 give K = 19 900 and T = 2.9e6, differences of n^8 at
    N = 200 (values up to 2.6e18) give K = 19 900 and T = 1.4e7.  A few
    points with highly composite coordinates make T > K^2, where the Gram
    form would be cheaper: the single point (720720,)*4 has T = 240^4.  T is
    computed from the factorizations before anything is expanded, and a
    support with T above _MAX_DIVISOR_TUPLES, a time cap, raises ValueError.
    Coordinates may be any int64: factors above _TRIAL_BOUND are not
    searched for but split over a coprime base.
    """
    _check_alpha(alpha)
    columns = []
    tuples = np.ones(f.K)
    divisors = 0.0
    for i in range(f.d):
        vals, inv = np.unique(f.points[:, i], return_inverse=True)
        owner, q, k = _prime_powers(vals)
        tau = np.ones(vals.size)
        np.multiply.at(tau, owner, k + 1.0)
        tuples *= tau[inv]
        divisors += tau.sum()
        columns.append((vals, owner, q, k))
        if i == 0:
            first_tuples = tuples.sum()
    if tuples.sum() > _MAX_DIVISOR_TUPLES:
        raise ValueError(
            f"the support expands to T = {tuples.sum():.4g} divisor tuples "
            f"(sum over points of prod_i tau(a_i)), above the limit {_MAX_DIVISOR_TUPLES}")
    if max(first_tuples, divisors) > _MAX_HELD_TUPLES:
        raise ValueError(
            f"the support's first coordinates expand to {first_tuples:.4g} divisor tuples "
            f"(sum over points of tau(a_1)) and its distinct coordinate values have "
            f"{divisors:.4g} divisors, above the limit {_MAX_HELD_TUPLES} held at once")

    def runs(i: int):
        vals, owner, q, k = columns[i]
        return vals, _divisor_runs(vals.size, owner, q, k, 2.0 * alpha)

    w = f.weights * np.prod(f.points.astype(np.float64) ** -alpha, axis=1)
    rows, w = _expand(f.points, w, 0, *runs(0))
    later = [runs(i) for i in range(1, f.d)]
    remaining = np.ones(rows.shape[0])
    for i, (vals, (tau, *_)) in enumerate(later, start=1):
        remaining *= tau[np.searchsorted(vals, rows[:, i])]

    blocks = _first_divisor_blocks(rows[:, 0], remaining)
    lo, _, held = max(blocks, key=lambda b: b[2])
    if held > _MAX_HELD_TUPLES:
        raise ValueError(
            f"the divisor tuples with first divisor {rows[lo, 0]} number {held:.4g}, "
            f"above the limit {_MAX_HELD_TUPLES} held at once")

    def block(lo: int, hi: int, _: float) -> float:
        b_rows, b_w = rows[lo:hi], w[lo:hi]
        for i, (vals, col_runs) in enumerate(later, start=1):
            b_rows, b_w = _expand(b_rows, b_w, i, vals, col_runs)
        return float(np.vdot(b_w, b_w).real)

    return float(sum(block(*b) for b in blocks))


def gcd_sum_enumerate(f: WeightedSupport, alpha: float) -> float:
    """Direct double-loop evaluation (test oracle for gcd_sum)."""
    total = 0.0 + 0.0j
    items = list(zip(f.points.tolist(), f.weights.tolist()))
    for a, fa in items:
        for b, fb in items:
            kern = 1.0
            for ai, bi in zip(a, b):
                kern *= math.gcd(ai, bi) ** (2 * alpha) / (ai * bi) ** alpha
            total += fa * fb.conjugate() * kern
    return total.real


def support_from_representations(table: RepresentationTable) -> WeightedSupport:
    """Weights f(v) = 2 D(v) on the difference vectors v with every component > 0.

    gcd and |v_i| ignore signs, and a table of strictly increasing sequences
    has D(-v) = D(v) and no vector mixing signs, so the double sum over the
    signed all-nonzero vectors equals the sum over this positive half with
    each weight doubled: the table's sorted rows after v = 0, sliced as they are.
    """
    half = table.vectors.shape[0] // 2 + 1
    if half == table.vectors.shape[0]:
        raise ValueError("no all-nonzero difference vectors: the sequences share no "
                         "repeated differences beyond the diagonal")
    return WeightedSupport.from_arrays(table.vectors[half:],
                                       (2 * table.counts[half:]).astype(np.complex128))


def gcd_sum_from_representations(table: RepresentationTable, alpha: float) -> float:
    """The variance-proxy GCD sum S_f(d; alpha) with f built from R_N."""
    return gcd_sum(support_from_representations(table), alpha)


# ---------------------------------------------------------------------------
# random multiplicative model
# ---------------------------------------------------------------------------

def _sieve_spf(m: int) -> np.ndarray:
    """Smallest prime factor for 0..m (spf[0] = spf[1] = 0)."""
    spf = np.zeros(m + 1, dtype=np.int64)
    for p in range(2, math.isqrt(m) + 1):
        if spf[p] == 0:
            spf[p * p::p][spf[p * p::p] == 0] = p
    n = np.arange(m + 1)
    prime = (spf == 0) & (n >= 2)
    spf[prime] = n[prime]
    return spf


def primes_up_to(m: int) -> np.ndarray:
    """The primes <= m, increasing, as int64."""
    return np.flatnonzero(_sieve_spf(m)[2:] == np.arange(2, m + 1)) + 2


def _omega_levels(spf: np.ndarray) -> list[np.ndarray]:
    """n = 2..M grouped by Omega(n), the number of prime factors counted
    with multiplicity: levels[k] holds the n with Omega(n) = k + 1, so each
    n // spf[n] is 1 or lies in levels[k - 1]."""
    n = np.arange(spf.size)
    parent = n // np.maximum(spf, 1)
    levels = []
    prev = n == 1
    while True:
        prev = prev[parent] & (n >= 2)
        if not prev.any():
            return levels
        levels.append(np.flatnonzero(prev))


@functools.lru_cache(maxsize=8)
def _model_plan(M: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """(primes <= M, steps) for _model_values at cutoff M, built once per
    cutoff: one step (n, the n // p followed by the p) for each level of
    Omega(n) >= 2, p = spf(n).  The arrays are shared and never written."""
    spf = _sieve_spf(M)
    return primes_up_to(M).astype(np.intp), [
        (lev, np.concatenate((lev // spf[lev], spf[lev]))) for lev in _omega_levels(spf)[1:]]


@functools.cache
def _roots() -> np.ndarray:
    """The read-only table exp(2 pi i k / Q), k = 0 .. Q - 1, Q = 2^_PHASE_BITS
    (64 KiB), made on first use so that an import builds nothing."""
    q = 1 << _PHASE_BITS
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.flags.writeable = False
    return table


def _model_workspace(M: int, samples: int, fields: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for _model_values batches of up to samples samples: the
    prime phases k(p), the phases k(n) for n <= M, one level's gathered
    pairs (k(n // p), k(p)), all intp, and the complex values X(n).  Each
    call reshapes their leading parts."""
    primes, steps = _model_plan(M)
    widest = max((pairs.size for _, pairs in steps), default=0)
    cols = fields * samples
    return (*(np.empty(rows * cols, dtype=np.intp) for rows in (primes.size, M + 1, widest)),
            np.empty((M + 1) * cols, dtype=np.complex128))


def _model_streams(seed: int, M: int, fields: int, first: int) -> list[np.random.PCG64]:
    """The PCG64 bit generator of each field j, seeded by SeedSequence((seed,
    j)) and advanced to sample first.  Sample i of field j reads the P = pi(M)
    draws [i P, (i + 1) P) of its stream, one per prime in increasing order,
    so a sample depends neither on the batching nor on how many samples or
    further fields are drawn."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_p = _model_plan(M)[0].size
    return [np.random.PCG64(np.random.SeedSequence((int(seed), j))).advance(first * n_p)
            for j in range(fields)]


def _model_values(M: int, samples: int, work: tuple[np.ndarray, ...],
                  streams: list[np.random.PCG64]) -> np.ndarray:
    """Values at n <= M of independent random completely multiplicative
    functions, the next samples samples of each field's stream.

    X(p) = w^k(p) with w = exp(2 pi i / Q), Q = 2^_PHASE_BITS, and k(p) the
    top _PHASE_BITS bits of one 64-bit draw, independently per prime p <= M;
    that is k(p) = floor(Q u_p) for the uniform u_p that random() makes from
    the same draw.  X(n) = X(n / p) X(p) for the smallest prime p | n, taken
    in the exponents: k(n) = k(n / p) + k(p), one gathered sum per level of
    Omega(n) (at most log2 M of them, so no sum overflows), reduced mod Q
    once, and X(n) = _roots()[k(n)].  So |X(n)| = 1, and X(mn) = X(m) X(n)
    holds exactly, through the exponents, whenever mn <= M.  Field j draws
    from streams[j], a _model_streams generator that stands at the batch's
    first sample and is left after its last.  Returns values of shape
    (M + 1, len(streams), samples), n on axis 0; row 0 is 0 and unused.

    The roots of unity stand in for uniform phases wherever verify_eq0
    looks.  truncated_rhs uses only E[X(m) conj X(n)] = [m = n] for m, n
    <= M^2 / 2 (an n <= M times a support coordinate <= M / 2).  Their
    exponents e, e' of any one prime differ by at most log2(M^2 / 2), which
    is below Q for every M below 2^2048, so E[w^(k(p) (e - e'))] = 0 unless
    e = e'.  The fourth moments behind its standard error pair products of
    two such numbers, so they match the uniform-phase model's for every M
    below 2^1024.

    work, from _model_workspace for at least samples samples and
    len(streams) fields, holds every array of the call but one draw of
    samples P per field, and the returned values are a view into it.
    """
    primes, steps = _model_plan(M)
    by_prime_buf, k_buf, pair_buf, value_buf = work
    fields = len(streams)
    cols = fields * samples
    by_prime = by_prime_buf[:primes.size * cols].reshape(primes.size, fields, samples)
    for j, stream in enumerate(streams):
        raw = stream.random_raw(samples * primes.size).reshape(samples, primes.size)
        np.right_shift(raw.T, 64 - _PHASE_BITS, out=by_prime[:, j], casting="unsafe")
    k = k_buf[:(M + 1) * cols].reshape(M + 1, fields, samples)
    k[:2] = 0
    k[primes] = by_prime
    for lev, pairs in steps:
        got = pair_buf[:pairs.size * cols].reshape(pairs.size, fields, samples)
        # mode="clip" (every index is in range): "raise" gathers into a temporary first
        np.take(k, pairs, axis=0, out=got, mode="clip")
        np.add(got[:lev.size], got[lev.size:], out=got[:lev.size])
        k[lev] = got[:lev.size]
    np.bitwise_and(k, (1 << _PHASE_BITS) - 1, out=k)
    values = value_buf[:(M + 1) * cols].reshape(M + 1, fields, samples)
    np.take(_roots(), k, out=values, mode="clip")
    values[0] = 0.0
    return values


def zeta_trunc(values: np.ndarray, alpha: float, M: int):
    """Truncated random zeta sum_{n <= M} X(n) / n^alpha over axis 0 of
    values (X(n) at index n, any trailing shape).

    The real and imaginary parts are summed by np.einsum, not BLAS, each
    entry over n in one fixed order, so an entry's bytes depend neither on
    the trailing shape, nor on its position in it, nor on the BLAS threads.
    """
    if not alpha > 0.5:
        raise ValueError(f"alpha must exceed 1/2, got {alpha}")
    if M > values.shape[0] - 1:
        raise ValueError(f"M = {M} exceeds sample cutoff {values.shape[0] - 1}")
    n = np.arange(1, M + 1, dtype=np.float64)
    parts = np.ascontiguousarray(values[1:M + 1], dtype=np.complex128).view(np.float64)
    total = np.einsum("n,nk->k", n ** -alpha, parts.reshape(M, -1))
    return total.view(np.complex128).reshape(values.shape[1:])


def zeta_riemann(s: float) -> float:
    """zeta(s) for s > 1 by Euler-Maclaurin with absolute error < 1e-10.

    Partial sum below 64 plus tail corrections at 64 through the B_8 term;
    for s in (1, 2] the first omitted term is below 1e-16.
    """
    if s <= 1:
        raise ValueError("need s > 1")
    k = 64.0
    total = sum(n ** -s for n in range(1, 64))
    total += k ** (1 - s) / (s - 1) + 0.5 * k ** -s
    # Bernoulli corrections B_2/2!, B_4/4!, B_6/6!, B_8/8! times rising factorials
    coeffs = [(1.0 / 12.0, 1), (-1.0 / 720.0, 3), (1.0 / 30240.0, 5), (-1.0 / 1209600.0, 7)]
    for c, depth in coeffs:
        rising = 1.0
        for j in range(depth):
            rising *= s + j
        total += c * rising * k ** (-s - depth)
    return total


@dataclass(frozen=True)
class Eq0Record:
    """Simulation-versus-identity record for the truncated second moment."""

    estimate: float             # Monte Carlo E|zeta_X zeta_Y D|^2
    std_error: float
    exact_truncated_rhs: float
    untruncated_rhs: float      # zeta(2 alpha)^2 * S_f(2; alpha)
    d_sq_estimate: float        # Monte Carlo E|D|^2
    d_sq_std_error: float
    d_sq_exact: float           # ||f||_2^2
    samples: int
    M: int
    alpha: float
    seed: int


def truncated_rhs(f: WeightedSupport, alpha: float, M: int) -> float:
    """Exact finite form of the second-moment identity under cutoff M.

    Expanding E|zeta_X^(M) zeta_Y^(M) D|^2 and matching n1*a = n2*c forces
    n1 = h c/(a,c), n2 = h a/(a,c); the truncation n1, n2 <= M caps h at
    floor(M (a,c) / max(a,c)).  Each coordinate pair contributes
        G(a,c) = (a,c)^(2 alpha) / (a c)^alpha * sum_{h <= cap} h^(-2 alpha),
    and the total is sum f(a,b) conj(f(c,d)) G(a,c) G(b,d).  With F the
    dense weight matrix over the distinct first and second coordinates and
    G_1, G_2 the symmetric G tables over them, that is
    Re sum_{a,b} F[a,b] (G_1 conj(F) G_2)[a,b]; verify_eq0 keeps every
    coordinate <= M/2, so no table there exceeds M/2 x M/2.
    """
    if f.d != 2:
        raise ValueError("identity check is two-dimensional")
    h = np.arange(1, M + 1, dtype=np.float64)
    h_cum = np.concatenate(([0.0], np.cumsum(h ** (-2.0 * alpha))))

    def g_table(vals: np.ndarray) -> np.ndarray:
        g = np.gcd.outer(vals, vals)
        cap = M * g // np.maximum.outer(vals, vals)
        v = vals.astype(np.float64)
        return g.astype(np.float64) ** (2 * alpha) / np.multiply.outer(v, v) ** alpha * h_cum[cap]

    (first, row), (second, col) = (np.unique(f.points[:, i], return_inverse=True)
                                   for i in range(2))
    weights = np.zeros((first.size, second.size), dtype=np.complex128)
    weights[row, col] = f.weights
    inner = g_table(first) @ weights.conj() @ g_table(second)
    return float((weights * inner).sum().real)


def _batched_mc_moments(f: WeightedSupport, alpha: float, M: int, samples: int, seed: int):
    """Per-sample |zeta_X zeta_Y D|^2 and |D|^2, X and Y the two fields of
    _model_values.

    The B batches of _PHASE_BATCH samples are dealt in runs of consecutive
    batches to W = min(usable cores, B) workers by _parallel.ordered_map:
    worker w draws, extends and sums batches B w // W up to B (w + 1) // W,
    at least one, and writes each to its own slices.  Its _model_workspace
    and its two streams are made once, at the first sample of its run, and
    each batch reads on from where the last one stopped.  D is an np.einsum
    sum like zeta_trunc's, so a sample's bytes depend neither on the core
    count nor on the batch it falls in.
    """
    a_idx = f.points[:, 0]
    b_idx = f.points[:, 1]
    zd_sq = np.empty(samples, dtype=np.float64)
    d_sq = np.empty(samples, dtype=np.float64)
    batch = _PHASE_BATCH
    starts = range(0, samples, batch)
    workers = min(_parallel.usable_cores(), len(starts))

    def run(w: int) -> None:
        mine = starts[len(starts) * w // workers:len(starts) * (w + 1) // workers]
        work = _model_workspace(M, min(batch, samples), 2)
        streams = _model_streams(seed, M, 2, mine[0])
        for lo in mine:
            hi = min(samples, lo + batch)
            values = _model_values(M, hi - lo, work, streams)
            d = np.einsum("k,kb->b", f.weights, values[a_idx, 0] * values[b_idx, 1])
            z_x, z_y = zeta_trunc(values, alpha, M)
            zd_sq[lo:hi] = np.abs(z_x * z_y * d) ** 2
            d_sq[lo:hi] = np.abs(d) ** 2

    _parallel.ordered_map(run, range(workers))
    return zd_sq, d_sq


def verify_eq0(f: WeightedSupport, alpha: float, M: int, samples: int, seed: int) -> Eq0Record:
    """Monte Carlo versus the exact truncated identity; see Eq0Record."""
    if f.d != 2:
        raise ValueError("verify_eq0 needs a two-dimensional support")
    if not 0.5 < alpha <= 1:
        raise ValueError(f"alpha must lie in (1/2, 1], got {alpha}")
    if samples < 100:
        raise ValueError("need at least 100 samples for meaningful error bars")
    if int(f.points.max()) > M // 2:
        raise ValueError("support components must stay <= M/2 for the truncated identity")
    zd_sq, d_sq = _batched_mc_moments(f, alpha, M, samples, seed)
    exact = truncated_rhs(f, alpha, M)
    untrunc = zeta_riemann(2 * alpha) ** 2 * gcd_sum(f, alpha)
    return Eq0Record(
        estimate=float(zd_sq.mean()),
        std_error=float(zd_sq.std(ddof=1) / math.sqrt(samples)),
        exact_truncated_rhs=float(exact),
        untruncated_rhs=float(untrunc),
        d_sq_estimate=float(d_sq.mean()),
        d_sq_std_error=float(d_sq.std(ddof=1) / math.sqrt(samples)),
        d_sq_exact=f.norm_l2_sq,
        samples=samples,
        M=M,
        alpha=alpha,
        seed=seed,
    )
