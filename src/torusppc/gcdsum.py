"""Classical and d-dimensional GCD sums, plus a random multiplicative model.

The Hermitian form S_f(d; alpha) = sum f(a) conj(f(b)) prod_i
gcd(a_i,b_i)^(2 alpha) / (a_i b_i)^alpha is evaluated as a sum of squares:
expanding each gcd^(2 alpha) over the common divisors with Jordan's totient
(the positive-definite form of Gal and Dyer-Harman) costs O(T log T) in the
number T <= sum_a prod_i tau(a_i) of divisor tuples of the support, not
the O(K^2) of the Gram matrix, which pays off when the coordinates have few
divisors (T << K^2), as differences of polynomial sequences do.

A seeded random completely multiplicative function with uniform unit-circle
values at primes drives Monte Carlo checks of the second-moment identity
E|zeta_X zeta_Y D|^2 = zeta(2a)^2 S_f(2; a): under a cutoff M the identity
becomes exact and finite (the h-sums truncate), which is what verify_eq0
tests against simulation.  _model_values is the one place that model is
drawn and extended, field j (X, then Y) from one PCG64 stream (seed, j) of
which sample i reads a fixed window, reached from any first sample by
advancing the stream.  Its arrays are n-major, X(n) at index n of axis 0,
and zeta_trunc sums any of them over that axis.  verify_eq0 draws and sums
its batches on one thread per usable core through _parallel.ordered_map; D
and the zeta sums are np.einsum sums, not BLAS, in a fixed order per sample,
so its output bytes depend neither on the core count nor on the BLAS
threads.  gcd_sum and truncated_rhs run on the calling thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _parallel
from .energy import RepresentationTable, _run_indices, _unique_counts_rows

_FACTOR_BLOCK = 1 << 20         # value-prime pairs tested per trial-division round
_TRIAL_BOUND = 1 << 16          # largest trial divisor; larger factors go to a coprime base
_MAX_DIVISOR_TUPLES = 1 << 24   # divisor tuples gcd_sum expands at most (~1.4 GB peak)
_PHASE_BATCH = 256              # Monte Carlo samples per batch (3.3 MB of X, Y at M = 400)


@dataclass
class WeightedSupport:
    """Finitely supported complex weight function on N^d.

    entries maps support tuples (all components >= 1) to complex weights;
    the canonical array form and the squared 2-norm are cached at construction,
    and a weight that is not finite, or a 2-norm that overflows, is refused.
    """

    d: int
    entries: Mapping[tuple[int, ...], complex]
    points: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    norm_l2_sq: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("support must be nonempty")
        if self.d < 1:
            raise ValueError("support points need at least one coordinate")
        keys = sorted(self.entries)
        for key in keys:
            if len(key) != self.d:
                raise ValueError(f"support point {key} has wrong dimension")
            if any(c < 1 for c in key):
                raise ValueError(f"support point {key} has a component < 1")
        self.points = np.array(keys, dtype=np.int64)
        self.weights = np.array([complex(self.entries[k]) for k in keys], dtype=np.complex128)
        with np.errstate(over="ignore"):     # an overflow is refused just below
            self.norm_l2_sq = float((np.abs(self.weights) ** 2).sum())
        if not math.isfinite(self.norm_l2_sq):
            raise ValueError(f"support weights must be finite with a finite squared 2-norm, "
                             f"got {self.norm_l2_sq}")

    @property
    def K(self) -> int:
        return self.points.shape[0]

    @classmethod
    def ones(cls, points: Sequence[Sequence[int]]) -> "WeightedSupport":
        pts = [tuple(int(c) for c in p) for p in points]
        return cls(d=len(pts[0]), entries={p: 1.0 for p in pts})


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
    candidates = np.array(primes_up_to(bound), dtype=np.int64)
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


def _divisor_runs(n_values: int, owner: np.ndarray, q: np.ndarray, k: np.ndarray,
                  beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, div, root_j): the divisors of each value as contiguous runs.

    (owner, q, k) is the factorization from _prime_powers.  Value v owns
    div[s : s + tau[v]] with s = sum(tau[:v]); root_j holds sqrt(J_beta(e))
    for each divisor e, where Jordan's totient
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
    return np.bincount(run, minlength=n_values), div, root_j


def gcd_sum(f: WeightedSupport, alpha: float) -> float:
    """S_f(d; alpha) as a sum of squares: real and >= 0 for any complex weights.

    With beta = 2 alpha, gcd(a, b)^beta = sum_{e | a, e | b} J_beta(e), so
        S_f = sum_{e in N^d} prod_i J_beta(e_i) |sum_{a : e_i | a_i} f(a) a^-alpha|^2.
    The inner sums are built one coordinate at a time: every row (a point,
    or a partly expanded tuple) is repeated once per divisor of its i-th
    component, that component replaced by the divisor and the weight scaled
    by sqrt(J_beta), and equal rows are merged.  Each distinct coordinate
    value is factored once.

    Cost is O(T log T) time and 60-85 bytes of peak memory a tuple in the
    number T = sum_a prod_i tau(a_i) of divisor tuples, against O(K^2) time
    for the Gram form.  The divisor form serves supports whose coordinates
    have few divisors, so that T << K^2: differences of (n, n^2) at N = 200
    give K = 19 900 and T = 2.9e6, differences of n^8 at N = 200 (values up
    to 2.6e18) give K = 19 900 and T = 1.4e7.  A few points with highly
    composite coordinates make T > K^2, where the Gram form would be
    cheaper: the single point (720720,)*4 has T = 240^4.  T is computed from
    the factorizations before anything is expanded, and a support with T
    above _MAX_DIVISOR_TUPLES raises ValueError.  Coordinates may be any
    int64: factors above _TRIAL_BOUND are not searched for but split over a
    coprime base.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    columns = []
    tuples = np.ones(f.K)
    for i in range(f.d):
        vals, inv = np.unique(f.points[:, i], return_inverse=True)
        owner, q, k = _prime_powers(vals)
        tau = np.ones(vals.size)
        np.multiply.at(tau, owner, k + 1.0)
        tuples *= tau[inv]
        columns.append((vals, owner, q, k))
    if tuples.sum() > _MAX_DIVISOR_TUPLES:
        raise ValueError(
            f"the support expands to T = {tuples.sum():.4g} divisor tuples "
            f"(sum over points of prod_i tau(a_i)), above the limit {_MAX_DIVISOR_TUPLES}")
    rows = f.points
    w = f.weights * np.prod(rows.astype(np.float64) ** -alpha, axis=1)
    for i, (vals, owner, q, k) in enumerate(columns):
        tau, div, root_j = _divisor_runs(vals.size, owner, q, k, 2.0 * alpha)
        inv = np.searchsorted(vals, rows[:, i])     # column i is still unexpanded
        length = tau[inv]
        entry = _run_indices(length, (np.cumsum(tau) - tau)[inv])
        rows = np.repeat(rows, length, axis=0)
        rows[:, i] = div[entry]
        w = np.repeat(w, length)
        w *= root_j[entry]
        del entry, div, root_j          # free before the merge
        rows, w = _unique_counts_rows(rows, w)
    return float(np.vdot(w, w).real)


def gcd_sum_enumerate(f: WeightedSupport, alpha: float) -> float:
    """Direct double-loop evaluation (test oracle for gcd_sum)."""
    total = 0.0 + 0.0j
    items = [(k, complex(v)) for k, v in sorted(f.entries.items())]
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
    each weight doubled.
    """
    positive = (table.vectors > 0).all(axis=1)
    if not positive.any():
        raise ValueError(
            "no all-nonzero difference vectors: the sequences share no repeated "
            "differences beyond the diagonal"
        )
    entries = {tuple(int(c) for c in row): float(2 * cnt)
               for row, cnt in zip(table.vectors[positive], table.counts[positive])}
    return WeightedSupport(d=table.d, entries=entries)


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


def _prime_table(m: int) -> tuple[np.ndarray, list[int]]:
    """(smallest-prime-factor sieve, primes <= m)."""
    spf = _sieve_spf(m)
    return spf, (np.flatnonzero(spf[2:] == np.arange(2, m + 1)) + 2).tolist()


def primes_up_to(m: int) -> list[int]:
    return _prime_table(m)[1]


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
def _model_plan(M: int) -> tuple[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """(P = pi(M), steps) for _model_values at cutoff M, built once per
    cutoff: one step (n, n // p, index of p among the primes) for each level
    of Omega(n), p = spf(n).  The arrays are shared and never written."""
    spf, primes = _prime_table(M)
    prime_index = np.zeros(M + 1, dtype=np.intp)
    prime_index[primes] = np.arange(len(primes))
    return len(primes), [(lev, lev // spf[lev], prime_index[spf[lev]])
                         for lev in _omega_levels(spf)]


def _model_values(seed: int, M: int, samples: int, fields: int, first: int = 0) -> np.ndarray:
    """Values at n <= M of independent random completely multiplicative
    functions X_1, ..., X_fields, samples first .. first + samples - 1.

    X(p) = exp(2 pi i u_p) with u_p uniform on [0, 1), independently per
    prime p <= M, and X(n) = X(n / p) X(p) for the smallest prime p | n, so
    |X(n)| = 1 and X(mn) = X(m) X(n) whenever mn <= M.  Field j draws from
    one PCG64 stream seeded by SeedSequence((seed, j)), and sample i of it
    reads the P = pi(M) uniforms [i P, (i + 1) P) of that stream, one per
    prime in increasing order (random() takes one 64-bit draw per uniform,
    so advancing the stream by first P reaches sample first); so a sample
    depends neither on the batching nor on how many samples or further
    fields are drawn.  Returns values of shape (M + 1, fields, samples), n
    on axis 0; row 0 is 0 and unused.  The extension takes one gathered
    product per level of Omega(n) (at most log2 M of them), each still
    X(n / p) X(p).
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_p, steps = _model_plan(M)
    u = np.empty((fields, samples * n_p))
    for j in range(fields):
        bit_generator = np.random.PCG64(np.random.SeedSequence((int(seed), j)))
        bit_generator.advance(first * n_p)
        u[j] = np.random.Generator(bit_generator).random(samples * n_p)
    phases = np.exp(2j * np.pi * u).reshape(fields, samples, n_p)
    phases = np.ascontiguousarray(phases.transpose(2, 0, 1))
    values = np.empty((M + 1, fields, samples), dtype=np.complex128)
    values[0] = 0.0
    values[1] = 1.0
    for lev, parent, pidx in steps:
        values[lev] = values[parent] * phases[pidx]
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

    Each batch of _PHASE_BATCH samples is drawn, extended and summed on one
    thread per usable core by _parallel.ordered_map and written to its own
    slices.  D is an np.einsum sum like zeta_trunc's, so a sample's bytes
    depend neither on the core count nor on the batch it falls in.
    """
    a_idx = f.points[:, 0]
    b_idx = f.points[:, 1]
    zd_sq = np.empty(samples, dtype=np.float64)
    d_sq = np.empty(samples, dtype=np.float64)

    def batch(lo: int) -> None:
        hi = min(samples, lo + _PHASE_BATCH)
        values = _model_values(seed, M, hi - lo, 2, lo)
        d = np.einsum("k,kb->b", f.weights, values[a_idx, 0] * values[b_idx, 1])
        z_x, z_y = zeta_trunc(values, alpha, M)
        zd_sq[lo:hi] = np.abs(z_x * z_y * d) ** 2
        d_sq[lo:hi] = np.abs(d) ** 2

    _parallel.ordered_map(batch, range(0, samples, _PHASE_BATCH))
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
