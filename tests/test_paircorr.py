import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torusppc import paircorr
from torusppc.fixedpoint import SCALE, point_of_reals
from torusppc.paircorr import NormKind, ppc_grid, ppc_limit, ppc_naive, unit_ball_volume


def rand_points(rng, n, d):
    return rng.integers(0, SCALE, size=(n, d), dtype=np.uint64)


def points(*rows):
    return np.array([point_of_reals(r) for r in rows])


def test_limits():
    assert ppc_limit(1.0, 2, NormKind.SUP) == 4.0
    assert ppc_limit(1.0, 2, NormKind.TWO) == pytest.approx(math.pi)
    assert ppc_limit(1.0, 1, NormKind.TWO) == pytest.approx(2.0)
    assert ppc_limit(0.5, 3, NormKind.SUP) == pytest.approx(1.0)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_hand_count_d1():
    pts = points([0.0], [0.1], [0.5])
    res = ppc_naive(pts, 0.45, NormKind.SUP)
    assert res.near_pairs == 2
    assert res.statistic == pytest.approx(2 / 3)
    assert ppc_grid(pts, 0.45, NormKind.SUP).near_pairs == 2


def test_identical_points():
    pts = points([0.37, 0.91], [0.37, 0.91])
    for norm in NormKind:
        res = ppc_naive(pts, 0.01, norm)
        assert res.statistic == 1.0


def test_far_points():
    pts = points([0.1], [0.5])
    res = ppc_naive(pts, 0.2, NormKind.SUP)   # threshold 0.1 < distance 0.4
    assert res.near_pairs == 0


def test_threshold_rejection():
    pts = points([0.1], [0.5])
    with pytest.raises(ValueError, match="1/2"):
        ppc_naive(pts, 1.0, NormKind.SUP)
    with pytest.raises(ValueError, match="1/2"):
        ppc_grid(pts, 1.0, NormKind.SUP)
    for count in (ppc_naive, ppc_grid):
        with pytest.raises(ValueError, match="s must be > 0, got nan"):
            count(pts, math.nan, NormKind.SUP)
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"N must be >= 1, got {n}"):
            paircorr.threshold(1.0, n, 2)


def test_result_invariants():
    rng = np.random.default_rng(0)
    pts = rand_points(rng, 100, 2)
    res = ppc_grid(pts, 1.5, NormKind.SUP)
    assert res.near_pairs % 2 == 0
    assert 0 <= res.near_pairs <= 100 * 99
    assert res.statistic == res.near_pairs / res.N
    assert res.expectation == pytest.approx(res.limit * 99 / 100)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=250),
    d=st.integers(min_value=1, max_value=4),
    t_log=st.floats(min_value=math.log(1e-4), max_value=math.log(0.45)),
    norm=st.sampled_from([NormKind.SUP, NormKind.TWO]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_grid_matches_naive_random(n, d, t_log, norm, seed):
    rng = np.random.default_rng(seed)
    t = math.exp(t_log)
    s = t * n ** (1.0 / d)
    pts = rand_points(rng, n, d)
    assert ppc_grid(pts, s, norm).near_pairs == ppc_naive(pts, s, norm).near_pairs


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=300),
    d=st.integers(min_value=1, max_value=3),
    spread=st.integers(min_value=4, max_value=60),
    norm=st.sampled_from([NormKind.SUP, NormKind.TWO]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_grid_matches_naive_clustered(n, d, spread, norm, seed):
    # all points inside one tiny ball: the grid degenerates to quadratic
    rng = np.random.default_rng(seed)
    base = rng.integers(0, SCALE, size=(1, d), dtype=np.uint64)
    pts = base + rng.integers(0, 2 ** spread, size=(n, d), dtype=np.uint64)
    s = 0.3 * n ** (1.0 / d) * 2 ** (spread - 64)
    s = min(s, 0.4 * n ** (1.0 / d))
    assert ppc_grid(pts, s, norm).near_pairs == ppc_naive(pts, s, norm).near_pairs


def test_grid_matches_naive_coarse_grid():
    # threshold >= 1/3 leaves at most 3 cells per axis; wrap dedup matters
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        n = 150
        pts = rand_points(rng, n, d)
        for t in (0.34, 0.45, 0.26):
            s = t * n ** (1.0 / d)
            for norm in NormKind:
                assert ppc_grid(pts, s, norm).near_pairs == ppc_naive(pts, s, norm).near_pairs


def test_boundary_tie_counts_inside():
    # distance exactly at the threshold: 0.25 apart with t = 0.25
    pts = points([0.0], [0.25])
    res = ppc_naive(pts, 0.5, NormKind.SUP)          # t = 0.25 exactly (dyadic)
    assert res.near_pairs == 2
    assert ppc_grid(pts, 0.5, NormKind.SUP).near_pairs == 2
    res2 = ppc_naive(pts, 0.5, NormKind.TWO)
    assert res2.near_pairs == 2


def test_monotone_in_s():
    rng = np.random.default_rng(11)
    pts = rand_points(rng, 120, 2)
    counts = [ppc_grid(pts, s, NormKind.SUP).near_pairs for s in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert counts == sorted(counts)


def test_sup_dominates_two():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        pts = rand_points(rng, 200, d)
        for s in (0.5, 1.0, 2.0):
            a = ppc_grid(pts, s, NormKind.SUP).near_pairs
            b = ppc_grid(pts, s, NormKind.TWO).near_pairs
            assert a >= b


def test_permutation_invariance():
    rng = np.random.default_rng(17)
    pts = rand_points(rng, 150, 2)
    perm = rng.permutation(150)
    for norm in NormKind:
        assert ppc_grid(pts, 1.0, norm).near_pairs == ppc_grid(pts[perm], 1.0, norm).near_pairs


def test_min_points():
    with pytest.raises(ValueError):
        ppc_naive(np.zeros((1, 1), dtype=np.uint64), 0.1, NormKind.SUP)


_count_near = paircorr._count_near


@pytest.mark.parametrize("t", [2.0 ** -4, 0.1, 0.49])
def test_sup_predicate_edges(t):
    # one axis differs by a value at an edge of the wrapped window; the other
    # axes differ by at most T, so that axis decides
    thr = paircorr._Threshold.make(t)
    T = thr.sup_num
    diffs = (0, T, T + 1, SCALE - T, SCALE - T - 1, 1 << 63)
    rng = np.random.default_rng(37)
    for d in (1, 2, 3):
        for axis in range(d):
            for diff in diffs:
                a = rng.integers(0, SCALE, size=d, dtype=np.uint64)
                step = [int(x) for x in rng.integers(0, T + 1, size=d)]
                step[axis] = diff
                b = np.array([(int(x) - k) % SCALE for x, k in zip(a, step)], dtype=np.uint64)
                cols = np.ascontiguousarray(np.stack([a, b]).T)
                dist = max(Fraction(min(k, SCALE - k), SCALE) for k in step)
                expect = 2 if dist <= Fraction(t) else 0
                got = _count_near(cols, np.array([0, 1]), np.array([1, 0]), NormKind.SUP, thr)
                assert got == expect, (t, d, axis, diff)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(min_value=1, max_value=3),
    T=st.integers(min_value=0, max_value=(1 << 63) - 1),
    # per pair and axis: a coordinate, and a difference that is either free
    # (sign 0) or +-T + k, on or next to an edge of the window
    axes=st.lists(st.tuples(st.integers(min_value=0, max_value=SCALE - 1),
                            st.sampled_from((0, 1, -1)), st.integers(min_value=-1, max_value=1),
                            st.integers(min_value=0, max_value=SCALE - 1)),
                  min_size=3, max_size=60),
)
def test_sup_predicate_matches_min_formula(d, T, axes):
    # against the two-sided form: max over axes of min(du, -du) <= T
    n = len(axes) // d
    x = np.array([a[0] for a in axes[:d * n]], dtype=np.uint64)
    du = np.array([(sign * T + k) % SCALE if sign else free
                   for _, sign, k, free in axes[:d * n]], dtype=np.uint64)
    cols = np.ascontiguousarray(np.concatenate([x, x - du]).reshape(2, n, d).transpose(2, 0, 1)
                                .reshape(d, 2 * n))
    thr = paircorr._Threshold(t=T / SCALE, sup_num=T, two_num=0, two_num_f=0.0)
    du = du.reshape(n, d)
    old = np.max(np.minimum(du, -du), axis=1) <= np.uint64(T)
    for j in range(n):
        got = _count_near(cols, np.array([j]), np.array([n + j]), NormKind.SUP, thr)
        assert got == int(old[j]), (j, T)
    assert _count_near(cols, np.arange(n), np.arange(n, 2 * n),
                       NormKind.SUP, thr) == int(np.count_nonzero(old))


@pytest.fixture
def predicate_calls(monkeypatch):
    """Record every (cols, ia, ib) handed to the shared predicate."""
    calls = []

    def recording(cols, ia, ib, norm, thr):
        calls.append((cols, ia.copy(), ib.copy()))
        return _count_near(cols, ia, ib, norm, thr)

    monkeypatch.setattr(paircorr, "_count_near", recording)
    return calls


def _stencil_inputs(rng, d):
    n = 120
    yield "random", rand_points(rng, n, d), (0.06, 1 / 3 - 1e-3, 1 / 3 + 1e-3)
    # a cluster around a corner of the torus, so it wraps on every axis
    base = np.uint64(SCALE - (1 << 58))
    clustered = base + rng.integers(0, 1 << 59, size=(n, d), dtype=np.uint64)
    yield "clustered", clustered, (0.02, 0.05, 1 / 3 - 1e-3)
    # t = 0.4999: a wrapped window's two ranges nearly meet
    yield "coarse", rand_points(rng, 40, d), (0.3, 1 / 3 - 1e-3, 1 / 3 + 1e-3, 0.45, 0.4999)
    # distinct rows in a few columns whose last coordinates tie: equal sort keys
    tied = rng.integers(0, 1 << 62, size=(n, d), dtype=np.uint64)
    tied[:, -1] = rng.choice(np.array([0, 7, SCALE - 3], dtype=np.uint64), size=n)
    yield "tied", tied, (0.06, 0.3, 1 / 3 + 1e-3)
    if d == 4:
        # about 2^46 columns leave 17 or 18 bits of the last coordinate in the key,
        # so keys tie between distinct last coordinates; the cluster straddles
        # the wrap of every axis
        base = np.uint64(SCALE - (1 << 49))
        narrow = base + rng.integers(0, 1 << 50, size=(n, d), dtype=np.uint64)
        yield "narrow", narrow, (3e-5, 2e-5)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_stencil_tests_each_candidate_pair_once(d, predicate_calls):
    # ppc_grid hands the predicate key-sorted points, coordinate-major: map
    # them back to input rows, then check that the column sweep covers every
    # near pair once
    rng = np.random.default_rng(100 + d)
    seen_m = set()
    for name, raw, t_values in _stencil_inputs(rng, d):
        pts = np.unique(raw, axis=0)
        pts = pts[rng.permutation(len(pts))]
        n = len(pts)
        index = {row.tobytes(): i for i, row in enumerate(pts)}
        lo, hi = np.triu_indices(n, 1)
        for t in t_values:
            seen_m.add(paircorr._columns_per_axis(t, d))
            s = t * n ** (1.0 / d)
            thr = paircorr._threshold_for(s, n, d)
            for norm in NormKind:
                naive = ppc_naive(pts, s, norm).near_pairs
                predicate_calls.clear()
                assert ppc_grid(pts, s, norm).near_pairs == naive, (name, t, norm)
                ia, ib = [], []
                for p, a_idx, b_idx in predicate_calls:
                    perm = np.array([index[r.tobytes()] for r in p.T])
                    ia.append(perm[a_idx])
                    ib.append(perm[b_idx])
                ia, ib = np.concatenate(ia), np.concatenate(ib)
                assert not np.any(ia == ib), (name, t)
                keys = np.minimum(ia, ib) * n + np.maximum(ia, ib)
                assert np.unique(keys).size == keys.size, (name, t)
                # the shared predicate finds no near pair outside the candidates
                missed = ~np.isin(lo * n + hi, keys)
                cols = np.ascontiguousarray(pts.T)
                assert _count_near(cols, lo[missed], hi[missed], norm, thr) == 0, (name, t)
    # d >= 2 needs the single column and the smallest grid, m = 3, where
    # every column has a neighbour across the wrap; d = 1 sweeps one column
    if d == 1:
        assert seen_m == {1}
    else:
        assert {1, 3} <= seen_m


def test_grid_matches_naive_across_chunk_boundaries(monkeypatch, predicate_calls):
    # all points in one or two cells and chunks of a few pairs, so each
    # call's pair segments are spread over many chunks
    monkeypatch.setattr(paircorr, "_CHUNK_PAIRS", 5)
    rng = np.random.default_rng(23)
    for d in (1, 2, 3):
        n = 60
        for base in (np.uint64(1 << 62), np.uint64((1 << 62) - (1 << 52))):
            pts = base + rng.integers(0, 1 << 53, size=(n, d), dtype=np.uint64)
            s = 0.05 * n ** (1.0 / d)      # m = 20 cells per axis
            for norm in NormKind:
                naive = ppc_naive(pts, s, norm).near_pairs
                predicate_calls.clear()
                assert ppc_grid(pts, s, norm).near_pairs == naive
                assert len(predicate_calls) > n // 2


@pytest.mark.parametrize("chunk", [paircorr._CHUNK_PAIRS, 1 << 18, 5, 1])
def test_grid_predicate_chunks_stay_bounded(chunk, monkeypatch, predicate_calls):
    # every predicate call from ppc_grid holds at most _CHUNK_PAIRS pairs,
    # unless it is one segment (one point against a run of neighbours)
    # longer than that on its own; this bounds the predicate's working set
    monkeypatch.setattr(paircorr, "_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(29)
    n = 60 if chunk == 5 else 1500
    for d in (1, 2, 3):
        pts = np.uint64(1 << 62) + rng.integers(0, 1 << 50, size=(n, d), dtype=np.uint64)
        s = 0.05 * n ** (1.0 / d)       # every pair is a candidate
        predicate_calls.clear()
        near = ppc_grid(pts, s, NormKind.SUP).near_pairs
        assert near == n * (n - 1)
        sizes = []
        for _, ia, ib in predicate_calls:
            sizes.append(ia.size)
            one_segment = np.all(ia == ia[0]) and np.all(np.diff(ib) == 1)
            assert ia.size <= chunk or one_segment, (d, ia.size)
        assert sum(sizes) == n * (n - 1) // 2
        if chunk == 5:
            assert max(sizes) > chunk       # a lone long segment was passed whole
        else:
            assert max(sizes) > chunk // 2  # chunks are filled, not one per segment


@pytest.mark.parametrize("block", [1, 7, 64])
def test_grid_matches_naive_across_block_boundaries(block, monkeypatch):
    # the sweep walks the sorted points in blocks of _BLOCK: N just below, at
    # and above block multiples, a third of the points with y < T (windows
    # that wrap past 0), and both single-column (m = 1) and m >= 3 grids
    monkeypatch.setattr(paircorr, "_BLOCK", block)
    rng = np.random.default_rng(41 + block)
    sizes = sorted({n for k in (1, 2, 3) for n in (k * block - 1, k * block, k * block + 1)
                    if n >= 2})
    for d in (1, 2, 3):
        seen_m = set()
        for n in sizes:
            for t in (0.05, 0.4):
                s = t * n ** (1.0 / d)
                thr = paircorr._threshold_for(s, n, d)
                seen_m.add(paircorr._columns_per_axis(thr.t, d))
                pts = rand_points(rng, n, d)
                low = rng.random(n) < 1 / 3
                pts[low, -1] = rng.integers(0, thr.sup_num, size=int(low.sum()), dtype=np.uint64)
                for norm in NormKind:
                    got = ppc_grid(pts, s, norm).near_pairs
                    assert got == ppc_naive(pts, s, norm).near_pairs, (d, n, t, norm)
        assert 1 in seen_m and (d == 1 or max(seen_m) >= 3)


def _lattice_s(t, n, d):
    """An s whose threshold s / n^(1/d) is exactly t, or None."""
    s = t * n ** (1.0 / d)
    for _ in range(8):
        got = paircorr.threshold(s, n, d)
        if got == t:
            return s
        s = math.nextafter(s, math.inf if got < t else -math.inf)
    return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=200),
    d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=2, max_value=7),
    j=st.integers(min_value=1, max_value=63),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_grid_matches_naive_lattice(n, d, k, j, seed):
    # points on the 2^-k lattice and t = j * 2^-k: last coordinates tie, many
    # distances equal t exactly (ties count as inside), points may repeat
    t = (j % (1 << (k - 1)) or 1) / (1 << k)
    s = _lattice_s(t, n, d)
    assume(s is not None)
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 1 << k, size=(n, d), dtype=np.uint64) << np.uint64(64 - k)
    for norm in NormKind:
        assert ppc_grid(pts, s, norm).near_pairs == ppc_naive(pts, s, norm).near_pairs
