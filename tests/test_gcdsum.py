import copy
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusppc import _parallel, gcdsum
from torusppc.energy import representation_counts
from torusppc.gcdsum import (
    WeightedSupport,
    _batched_mc_moments,
    _coprime_base,
    _model_values,
    gcd_sum,
    gcd_sum_enumerate,
    gcd_sum_from_representations,
    primes_up_to,
    support_from_representations,
    truncated_rhs,
    verify_eq0,
    zeta_riemann,
    zeta_trunc,
)
from torusppc.sequences import SequenceData, SequenceSpec


def seq(vals):
    return SequenceData(values=np.array(sorted(vals), dtype=np.int64),
                        spec=SequenceSpec.explicit("inline"))


def test_gcd_sum_examples():
    assert gcd_sum(WeightedSupport.ones([(1,), (2,)]), 1.0) == pytest.approx(3.0)
    assert gcd_sum(WeightedSupport.ones([(1,)]), 0.7) == pytest.approx(1.0)
    # cross kernel per coordinate is gcd(1,2)/sqrt(1*2) = 1/sqrt(2), squared over
    # two coordinates: each ordered cross pair contributes 1/2
    assert gcd_sum(WeightedSupport.ones([(1, 1), (2, 2)]), 0.5) == pytest.approx(3.0)


def test_gcd_sum_validations():
    with pytest.raises(ValueError):
        WeightedSupport(d=1, entries={})
    with pytest.raises(ValueError):
        WeightedSupport(d=1, entries={(0,): 1.0})
    with pytest.raises(ValueError):
        WeightedSupport(d=2, entries={(1,): 1.0})
    f = WeightedSupport.ones([(1,), (2,)])
    with pytest.raises(ValueError):
        gcd_sum(f, 0.0)
    with pytest.raises(ValueError):
        gcd_sum(f, 1.5)
    with pytest.raises(ValueError, match="got nan"):
        gcd_sum(f, math.nan)


def test_cached_norms():
    f = WeightedSupport(d=1, entries={(1,): 3 + 4j, (2,): 1.0})
    assert f.norm_l2_sq == pytest.approx(26.0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    d=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=12),
    alpha=st.sampled_from([0.5, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_gcd_sum_matches_enumeration(d, k, alpha, seed):
    rng = np.random.default_rng(seed)
    pts = {tuple(int(x) for x in rng.integers(1, 500, size=d)) for _ in range(k)}
    weights = {p: complex(rng.normal(), rng.normal()) for p in pts}
    f = WeightedSupport(d=d, entries=weights)
    a = gcd_sum(f, alpha)
    b = gcd_sum_enumerate(f, alpha)
    assert a == pytest.approx(b, rel=1e-11, abs=1e-11)
    assert a >= -1e-10     # PSD form stays nonnegative


def test_gcd_sum_support_order_invariance():
    rng = np.random.default_rng(42)
    pts = {tuple(int(x) for x in rng.integers(1, 50, size=2)) for _ in range(20)}
    f = WeightedSupport(d=2, entries={p: complex(rng.normal(), rng.normal()) for p in pts})
    want = gcd_sum(f, 0.7)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(f.K)
        shuffled = copy.copy(f)
        shuffled.points, shuffled.weights = f.points[perm], f.weights[perm]
        assert gcd_sum(shuffled, 0.7) == pytest.approx(want, rel=1e-12)


def _complex_support(rng, d, k, pool):
    pts = {tuple(int(x) for x in rng.choice(pool, size=d)) for _ in range(k)}
    return WeightedSupport(d=d, entries={p: complex(rng.normal(), rng.normal()) for p in pts})


def test_gcd_sum_seeded_sweep_repeated_coordinates():
    # coordinates from a small pool, so values repeat across points and share
    # divisors: 1, prime powers, squarefree and highly composite numbers
    pool = np.array([1, 2, 3, 4, 6, 8, 9, 12, 30, 49, 60, 64, 97, 210, 360, 720, 1001])
    rng = np.random.default_rng(2024)
    for trial in range(40):
        d = 1 + trial % 4
        f = _complex_support(rng, d, int(rng.integers(1, 16)), pool)
        for alpha in (0.5, 0.75, 1.0):
            assert gcd_sum(f, alpha) == pytest.approx(gcd_sum_enumerate(f, alpha), rel=1e-11)


def test_gcd_sum_unit_coordinates():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        only_ones = WeightedSupport(d=d, entries={(1,) * d: 2 - 1j})
        assert gcd_sum(only_ones, 0.6) == pytest.approx(5.0, rel=1e-12)
        f = _complex_support(rng, d, 10, np.array([1, 1, 1, 2, 5, 10]))
        assert gcd_sum(f, 0.6) == pytest.approx(gcd_sum_enumerate(f, 0.6), rel=1e-11)


def test_gcd_sum_large_prime_coordinate():
    p = 10 ** 12 + 39          # prime, so trial division runs through every prime < 10^6
    f = WeightedSupport(d=2, entries={(p, 3): 1.0, (2 * p, 6): 2 - 1j, (6, p): 0.5j,
                                      (3 * p, 1): 1.5})
    for alpha in (0.5, 1.0):
        assert gcd_sum(f, alpha) == pytest.approx(gcd_sum_enumerate(f, alpha), rel=1e-11)


def test_gcd_sum_coordinates_near_int64_limit():
    # products of primes above the trial-division bound that share factors
    # with each other, next to a prime and a square near 10^18
    p, q, r = 1_000_000_007, 998_244_353, 1_000_000_009
    big = 10 ** 18 + 3                                   # prime
    f = WeightedSupport(d=2, entries={(p * q, 2 ** 59): 1.0, (p * r, 3 * p * q): 2 - 1j,
                                      (q * r, big): 0.5j, (p * p, p): -1.5,
                                      (big, 6 * q * r): 1 + 1j, (p, big): 0.25})
    for alpha in (0.5, 0.8, 1.0):
        assert gcd_sum(f, alpha) == pytest.approx(gcd_sum_enumerate(f, alpha), rel=1e-11)
    assert gcd_sum(WeightedSupport(d=1, entries={(big,): 2.0}), 0.5) == pytest.approx(4.0)


def test_gcd_sum_random_large_prime_products():
    # values built from primes above and below the trial-division bound,
    # so the coprime base sees shared, repeated and squared large factors
    large = [65537, 65539, 65543, 4_294_967_311, 1_000_000_007, 10 ** 12 + 39]
    rng = np.random.default_rng(7)

    def value():
        v = int(rng.choice([1, 2, 3, 12]))
        for _ in range(int(rng.integers(0, 4))):
            x = v * int(rng.choice(large))
            if x < 2 ** 63:
                v = x
        return v

    for trial in range(12):
        d = 1 + trial % 2
        pts = {tuple(value() for _ in range(d)) for _ in range(int(rng.integers(2, 14)))}
        f = WeightedSupport(d=d, entries={pt: complex(rng.normal(), rng.normal()) for pt in pts})
        assert gcd_sum(f, 0.75) == pytest.approx(gcd_sum_enumerate(f, 0.75), rel=1e-11)


def test_gcd_sum_twelfth_powers():
    # differences of n^12 reach 5.3e17 at N = 30
    n = np.arange(1, 31, dtype=np.int64)
    f = support_from_representations(representation_counts([seq(n ** 12)]))
    assert f.points.max() > 5 * 10 ** 17
    assert gcd_sum(f, 0.5) == pytest.approx(gcd_sum_enumerate(f, 0.5), rel=1e-11)


def test_coprime_base():
    nums = [6 * 35, 15, 77 * 77, 11, 2 ** 5, 1]
    base = _coprime_base(nums)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[:i])
    assert all(b > 1 for b in base)
    for x in nums:
        for b in base:
            while x % b == 0:
                x //= b
        assert x == 1


def test_gcd_sum_divisor_tuple_limit():
    # tau(720720) = 240: one point expands to 240^4 = 3.3e9 divisor tuples
    with pytest.raises(ValueError, match="divisor tuples"):
        gcd_sum(WeightedSupport.ones([(720720,) * 4]), 0.5)


def test_gcd_sum_above_former_support_guard():
    n = np.arange(1, 202, dtype=np.int64)
    table = representation_counts([seq(n), seq(n * n)])
    f = support_from_representations(table)
    assert f.K == 20_100
    assert gcd_sum(f, 0.5) >= f.norm_l2_sq


def test_pairwise_coprime_identity():
    # pairwise coprime support: off-diagonal kernel is 1/(ab)^alpha, so
    # S = ||f||_2^2 + (sum u)^2 - sum u^2 with u_a = f(a)/a^alpha
    alpha = 0.7
    pts = [(2,), (3,), (5,), (7,), (11,)]
    w = [1.0, 2.0, 0.5, 1.5, 1.0]
    f = WeightedSupport(d=1, entries=dict(zip(pts, w)))
    u = [wi / p[0] ** alpha for wi, p in zip(w, pts)]
    expected = f.norm_l2_sq + sum(u) ** 2 - sum(x * x for x in u)
    assert gcd_sum(f, alpha) == pytest.approx(expected, rel=1e-12)
    assert gcd_sum(f, alpha) > f.norm_l2_sq     # strict for K >= 2 positive weights


def test_dilation_invariance():
    rng = np.random.default_rng(1)
    pts = [tuple(int(x) for x in rng.integers(1, 40, size=2)) for _ in range(8)]
    pts = list(dict.fromkeys(pts))
    w = {p: complex(rng.normal(), rng.normal()) for p in pts}
    f = WeightedSupport(d=2, entries=w)
    scaled = WeightedSupport(d=2, entries={(3 * a, 3 * b): v for (a, b), v in w.items()})
    for alpha in (0.5, 1.0):
        assert gcd_sum(scaled, alpha) == pytest.approx(gcd_sum(f, alpha), rel=1e-12)


def test_representation_driven_sum():
    a = seq([1, 2, 3])
    table = representation_counts([a])
    sup = support_from_representations(table)
    assert sup.entries == {(1,): 4.0, (2,): 2.0}    # R(+-1)=2, R(+-2)=1 folded
    got = gcd_sum_from_representations(table, 0.5)
    # independent signed double sum
    nonzero = (table.vectors != 0).all(axis=1)
    vecs, counts = table.vectors[nonzero], table.counts[nonzero]
    acc = 0.0
    for v, cv in zip(vecs[:, 0], counts):
        for w_, cw in zip(vecs[:, 0], counts):
            g = math.gcd(abs(int(v)), abs(int(w_)))
            acc += int(cv) * int(cw) * g / math.sqrt(abs(int(v)) * abs(int(w_)))
    assert got == pytest.approx(acc, rel=1e-12)


def test_single_difference_vector():
    # one difference vector with multiplicity R collapses to R^2
    table = representation_counts([seq([5, 11])])    # diffs +-6 with count 1
    nonzero = (table.vectors != 0).all(axis=1)
    vecs, counts = table.vectors[nonzero], table.counts[nonzero]
    assert sorted(int(v) for v in vecs[:, 0]) == [-6, 6]
    sup = support_from_representations(table)
    assert sup.entries == {(6,): 2.0}
    assert gcd_sum_from_representations(table, 0.8) == pytest.approx(4.0)


def test_empty_restricted_table():
    table = representation_counts([seq([1])])
    with pytest.raises(ValueError, match="diagonal"):
        gcd_sum_from_representations(table, 0.5)


def test_random_multiplicative_invariants():
    s = _model_values(99, 120, 1, 1)[:, 0, 0]
    assert s[1] == 1
    assert np.allclose(np.abs(s[1:]), 1.0)
    assert s[12] == pytest.approx(s[2] ** 2 * s[3])
    for m, n in ((2, 3), (4, 5), (6, 20), (7, 17)):
        assert s[m * n] == pytest.approx(s[m] * s[n])
    assert _model_values(99, 120, 1, 1)[:, 0, 0][7] == s[7]   # deterministic
    assert _model_values(98, 120, 1, 1)[:, 0, 0][7] != s[7]


def test_prime_phase_mean():
    n = 20_000
    acc = 0j
    for seed in range(n):
        acc += _model_values(seed, 2, 1, 1)[:, 0, 0][2]
    mean = acc / n
    se = 1.0 / math.sqrt(2 * n)   # component std of a uniform phase is 1/sqrt(2)
    assert abs(mean.real) <= 3 * se and abs(mean.imag) <= 3 * se


def test_zeta_trunc():
    s = _model_values(3, 50, 1, 1)[:, 0, 0]
    assert zeta_trunc(s, 0.8, 1) == pytest.approx(1.0)
    # degenerate all-ones sample: the sum is the real partial zeta
    degenerate = np.ones(51, dtype=np.complex128)
    want = sum(n ** -0.8 for n in range(1, 51))
    assert zeta_trunc(degenerate, 0.8, 50) == pytest.approx(want)
    with pytest.raises(ValueError):
        zeta_trunc(s, 0.8, 51)
    with pytest.raises(ValueError):
        zeta_trunc(s, 0.5, 10)
    with pytest.raises(ValueError, match="alpha must exceed 1/2, got nan"):
        zeta_trunc(s, math.nan, 10)


def test_zeta_trunc_batch_matches_rows():
    vals = _model_values(5, 80, 6, 1)
    vals = vals[:, 0]
    batch = zeta_trunc(vals, 0.7, 50)
    assert batch.shape == (6,)
    for row, z in zip(vals.T, batch):
        assert zeta_trunc(row, 0.7, 50).tobytes() == z.tobytes()
    stacked = zeta_trunc(vals.reshape(81, 2, 3), 0.7, 50)
    assert stacked.shape == (2, 3)
    assert stacked.tobytes() == batch.tobytes()


def _model_oracle(seed, m, samples, fields):
    """The model one n at a time, X(n) = X(n / p) X(p) for p = spf(n), in the
    sample-major layout (fields, samples, m + 1)."""
    primes = primes_up_to(m)
    index = {p: i for i, p in enumerate(primes)}
    u = np.stack([np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, j))))
                  .random(samples * len(primes)) for j in range(fields)])
    phases = np.exp(2j * np.pi * u).reshape(fields, samples, len(primes))
    values = np.zeros((fields, samples, m + 1), dtype=np.complex128)
    values[..., 1] = 1.0
    for n in range(2, m + 1):
        p = min(q for q in primes if n % q == 0)
        values[..., n] = values[..., n // p] * phases[..., index[p]]
    return values


@pytest.mark.parametrize("m", [1, 2, 60, 401])
@pytest.mark.parametrize("fields", [1, 2])
def test_model_values_match_the_one_step_per_n_recurrence_bit_for_bit(m, fields):
    samples = 4 * gcdsum._PHASE_BATCH + 76          # four full batches and a part
    got = _model_values(13, m, samples, fields)
    want = np.ascontiguousarray(_model_oracle(13, m, samples, fields).transpose(2, 0, 1))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_model_values_sample_is_a_window_of_its_field_stream():
    seed, m, samples = 11, 60, 1200       # crosses the batch boundaries
    primes = primes_up_to(m)
    n_p = len(primes)
    vals = _model_values(seed, m, samples, 2)
    assert vals.shape == (m + 1, 2, samples)
    for j in (0, 1):
        for i in (0, 1, 255, 256, 511, 512, 777, 1199):
            bg = np.random.PCG64(np.random.SeedSequence((seed, j)))
            bg.advance(i * n_p)
            u = np.random.Generator(bg).random(n_p)
            assert np.array_equal(vals[primes, j, i], np.exp(2j * np.pi * u)), (i, j)


def test_model_values_field_zero_ignores_sample_and_field_counts():
    seed, m = 11, 60
    full = _model_values(seed, m, 1200, 2)[:, 0]
    assert np.array_equal(_model_values(seed, m, 5, 2)[:, 0], full[:, :5])
    assert np.array_equal(_model_values(seed, m, 1200, 1)[:, 0], full)
    assert np.array_equal(_model_values(seed, m, 5, 1)[:, 0], full[:, :5])


def test_model_values_seeds_one_stream_per_field(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    _model_values(3, 60, 2000, 2)
    assert len(built) == 2


def test_sample_is_the_x_of_verify_eq0_sample_zero():
    seed, m, alpha, samples = 7, 60, 0.75, 700
    f = WeightedSupport(d=2, entries={(1, 2): 1.0, (3, 1): 0.5 - 1j, (2, 5): 2.0})
    x = _model_values(seed, m, 1, 1)[:, 0, 0]
    vals = _model_values(seed, m, samples, 2)
    assert np.array_equal(vals[:, 0, 0], x)
    y = vals[:, 1, 0]
    d = sum(w * x[a] * y[b] for (a, b), w in f.entries.items())
    zd_sq, d_sq = _batched_mc_moments(f, alpha, m, samples, seed)
    assert d_sq[0] == pytest.approx(abs(d) ** 2, rel=1e-12)
    assert zd_sq[0] == pytest.approx(
        abs(zeta_trunc(x, alpha, m) * zeta_trunc(y, alpha, m) * d) ** 2, rel=1e-12)


def _eq0_support(k, seed=1, top=30):
    """k distinct points of [1, top]^2 with complex weights."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(top * top, size=k, replace=False)
    return WeightedSupport(d=2, entries={
        (int(c // top) + 1, int(c % top) + 1): complex(rng.normal(), rng.normal())
        for c in cells})


def test_mc_moments_of_a_sample_do_not_depend_on_its_batch(monkeypatch):
    # the same sample alone in its batch, or at any place in a full one
    seed, m, alpha, samples = 4, 61, 0.7, 3 * gcdsum._PHASE_BATCH + 45
    for f in (WeightedSupport.ones([(1, 1), (1, 2), (2, 1), (2, 2)]), _eq0_support(40)):
        want = _batched_mc_moments(f, alpha, m, samples, seed)
        for batch in (1, 7, 100):
            monkeypatch.setattr(gcdsum, "_PHASE_BATCH", batch)
            got = _batched_mc_moments(f, alpha, m, samples, seed)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], batch
        monkeypatch.undo()


def test_verify_eq0_bytes_do_not_depend_on_the_core_count(monkeypatch):
    # a partial last batch, and fewer batches than workers; the batches run
    # on the pool, gcd_sum and truncated_rhs on the calling thread
    f = _eq0_support(12, seed=5)
    threads = {"draw": set(), "gcd_sum": set(), "truncated_rhs": set()}

    def on_thread(name, fn):
        def recording(*args):
            threads[name].add(threading.current_thread())
            return fn(*args)
        return recording

    monkeypatch.setattr(gcdsum, "_model_values", on_thread("draw", gcdsum._model_values))
    for name in ("gcd_sum", "truncated_rhs"):
        monkeypatch.setattr(gcdsum, name, on_thread(name, getattr(gcdsum, name)))
    runs = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 5):
            monkeypatch.setattr(_parallel, "usable_cores", lambda: workers)
            for samples in (3 * gcdsum._PHASE_BATCH + 77, gcdsum._PHASE_BATCH + 1):
                rec = verify_eq0(f, 0.8, 60, samples, seed=2)
                moments = _batched_mc_moments(f, 0.8, 60, samples, 2)
                runs.setdefault(samples, set()).add(
                    (repr(rec), *(a.tobytes() for a in moments)))
    finally:
        sys.setswitchinterval(interval)
    assert all(len(seen) == 1 for seen in runs.values())
    assert threads["draw"] and threading.main_thread() not in threads["draw"]
    assert threads["gcd_sum"] == threads["truncated_rhs"] == {threading.main_thread()}


def test_zeta_trunc_second_moment():
    # E|zeta^(M)|^2 = sum n^(-2 alpha): Monte Carlo within 3 standard errors
    alpha, m, reps = 0.8, 40, 4000
    vals = np.empty(reps)
    for seed in range(reps):
        vals[seed] = abs(zeta_trunc(_model_values(seed, m, 1, 1)[:, 0, 0], alpha, m)) ** 2
    want = sum(n ** (-2 * alpha) for n in range(1, m + 1))
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - want) <= 3 * se


def test_zeta_riemann():
    scipy_special = pytest.importorskip("scipy.special")
    assert zeta_riemann(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
    for s in (1.2, 1.5, 1.9, 3.0):
        assert zeta_riemann(s) == pytest.approx(float(scipy_special.zeta(s, 1)), abs=1e-10)
    with pytest.raises(ValueError):
        zeta_riemann(1.0)


def test_truncated_rhs_matches_brute_force():
    # quadruple-sum definition of the truncated expectation, small cutoff
    pts = [(1, 1), (1, 2), (2, 1), (2, 2)]
    f = WeightedSupport.ones(pts)
    alpha, m = 0.75, 12
    total = 0.0
    for (a, b) in pts:
        for (c, d) in pts:
            for n1 in range(1, m + 1):
                for n2 in range(1, m + 1):
                    if n1 * a != n2 * c:
                        continue
                    for m1 in range(1, m + 1):
                        for m2 in range(1, m + 1):
                            if m1 * b == m2 * d:
                                total += (n1 * n2 * m1 * m2) ** -alpha
    assert truncated_rhs(f, alpha, m) == pytest.approx(total, rel=1e-12)


def _g_oracle(alpha, m):
    """G(a, c) of truncated_rhs's docstring, from math.gcd and a Python h-sum."""
    h_cum = [0.0]
    for h in range(1, m + 1):
        h_cum.append(h_cum[-1] + h ** (-2.0 * alpha))

    def g_factor(a, c):
        g = math.gcd(a, c)
        return g ** (2 * alpha) / (a * c) ** alpha * h_cum[(m * g) // max(a, c)]

    return g_factor


def truncated_rhs_enumerate(f, alpha, m):
    """Double loop over support pairs (test oracle for truncated_rhs)."""
    g_factor = _g_oracle(alpha, m)
    items = [(k, complex(v)) for k, v in sorted(f.entries.items())]
    total = 0j
    for (a, b), fab in items:
        for (c, d), fcd in items:
            total += fab * fcd.conjugate() * g_factor(a, c) * g_factor(b, d)
    return total.real


def test_truncated_rhs_matches_enumeration_real_weights():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        m = int(rng.choice([4, 20, 100, 400]))
        k = int(rng.integers(1, min(40, (m // 2) ** 2) + 1))
        alpha = float(rng.uniform(0.55, 1.0))
        pts = set()
        while len(pts) < k:
            pts.add(tuple(int(c) for c in rng.integers(1, m // 2 + 1, size=2)))
        f = WeightedSupport(d=2, entries={p: float(rng.uniform(0.1, 3.0)) for p in pts})
        want = truncated_rhs_enumerate(f, alpha, m)
        assert truncated_rhs(f, alpha, m) == pytest.approx(want, rel=1e-12), trial


def test_truncated_rhs_matches_enumeration_cancelling_weights():
    # weights along the bottom eigenvector of the form on a dense box of points,
    # so the total is a small fraction of sum |f(a,b)| |f(c,d)| G(a,c) G(b,d)
    rng = np.random.default_rng(2025)
    for trial in range(12):
        r = int(rng.integers(4, 9))
        m = int(rng.choice([2 * r, 100, 400]))
        alpha = float(rng.uniform(0.55, 1.0))
        box = [(a, b) for a in range(1, r + 1) for b in range(1, r + 1)]
        pts = [box[i] for i in sorted(rng.choice(len(box), size=len(box) * 3 // 4,
                                                 replace=False))]
        g_factor = _g_oracle(alpha, m)
        form = np.array([[g_factor(a, c) * g_factor(b, d) for c, d in pts] for a, b in pts])
        vec = np.linalg.eigh(form)[1][:, 0] * np.exp(2j * np.pi * rng.uniform())
        f = WeightedSupport(d=2, entries={p: complex(w) for p, w in zip(pts, vec)})
        scale = truncated_rhs_enumerate(
            WeightedSupport(d=2, entries={p: abs(w) for p, w in zip(pts, vec)}), alpha, m)
        want = truncated_rhs_enumerate(f, alpha, m)
        assert want < 0.2 * scale, trial
        assert abs(truncated_rhs(f, alpha, m) - want) <= 1e-12 * scale, trial


def test_truncated_rhs_degenerate_support():
    f = WeightedSupport.ones([(1, 1)])
    for m in (10, 100):
        want = sum(n ** -1.5 for n in range(1, m + 1)) ** 2
        assert truncated_rhs(f, 0.75, m) == pytest.approx(want, rel=1e-12)


def test_truncated_rhs_monotone_in_cutoff():
    f = WeightedSupport.ones([(1, 1), (1, 2), (2, 1), (2, 2)])
    vals = [truncated_rhs(f, 0.75, m) for m in (10, 100, 1000)]
    assert vals[0] < vals[1] < vals[2]
    untrunc = zeta_riemann(1.5) ** 2 * gcd_sum(f, 0.75)
    assert vals[2] < untrunc
    assert untrunc - vals[2] < 0.12 * untrunc


def test_verify_eq0_degenerate():
    f = WeightedSupport.ones([(1, 1)])
    rec = verify_eq0(f, 0.75, 100, 2000, seed=7)
    analytic = sum(n ** -1.5 for n in range(1, 101)) ** 2
    assert rec.exact_truncated_rhs == pytest.approx(analytic, rel=1e-12)
    assert abs(rec.estimate - analytic) <= 3 * rec.std_error
    assert rec.d_sq_exact == pytest.approx(1.0)
    assert abs(rec.d_sq_estimate - 1.0) <= 1e-12   # |D| = 1 identically


def test_verify_eq0_orthogonality():
    f = WeightedSupport.ones([(1, 1), (1, 2), (2, 1)])
    rec = verify_eq0(f, 0.8, 60, 3000, seed=11)
    assert rec.d_sq_exact == pytest.approx(3.0)
    assert abs(rec.d_sq_estimate - 3.0) <= 3 * rec.d_sq_std_error


def test_verify_eq0_repetitions_within_three_sigma():
    f = WeightedSupport.ones([(1, 1), (1, 2), (2, 1), (2, 2)])
    hits = 0
    reps = 20
    for seed in range(reps):
        rec = verify_eq0(f, 0.75, 50, 800, seed=seed)
        if abs(rec.estimate - rec.exact_truncated_rhs) <= 3 * rec.std_error:
            hits += 1
    assert hits >= reps - 2


def test_verify_eq0_validations():
    f = WeightedSupport.ones([(1, 1)])
    with pytest.raises(ValueError):
        verify_eq0(f, 0.75, 100, 50, seed=0)          # too few samples
    with pytest.raises(ValueError):
        verify_eq0(f, 0.4, 100, 200, seed=0)          # alpha too small
    with pytest.raises(ValueError):
        verify_eq0(WeightedSupport.ones([(60, 1)]), 0.75, 100, 200, seed=0)
    with pytest.raises(ValueError):
        verify_eq0(WeightedSupport.ones([(1,)]), 0.75, 100, 200, seed=0)


@pytest.mark.parametrize("alpha", [1.5, math.nan])
def test_verify_eq0_refuses_alpha_before_drawing(monkeypatch, alpha):
    def no_draw(*args):
        pytest.fail("verify_eq0 drew the random model before checking alpha")

    monkeypatch.setattr(gcdsum, "_model_values", no_draw)
    f = WeightedSupport.ones([(1, 1), (1, 2), (2, 1), (2, 2)])
    with pytest.raises(ValueError, match=rf"\(1/2, 1\], got {alpha}"):
        verify_eq0(f, alpha, 400, 40_000, seed=0)


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
