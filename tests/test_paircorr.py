import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torusppc import cli, paircorr
from torusppc.cli import parse_and_dispatch
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


def test_two_norm_below_one_numerator_counts_only_coincident_points():
    # t < 2^-64 gives floor(t^2 2^128) = 0: a pair one numerator apart is out
    rng = np.random.default_rng(25)
    for d in (1, 2, 3):
        base = rand_points(rng, 40, d)
        shifted = base[:6].copy()
        shifted[:, d - 1] += np.uint64(1)
        pts = np.concatenate([base, base[:5], base[5:7], base[5:7], shifted])
        _, mult = np.unique(pts, axis=0, return_counts=True)
        coincident = int((mult * (mult - 1)).sum())
        assert coincident == 22
        for s in (1e-25, 1e-30):
            assert paircorr._limit(paircorr.threshold(s, len(pts), d), NormKind.TWO) == 0
            for counter in (ppc_naive, ppc_grid):
                assert counter(pts, s, NormKind.TWO).near_pairs == coincident, (d, s, counter)


@pytest.mark.parametrize("text, norm", [
    ("sup", NormKind.SUP), ("inf", NormKind.SUP), ("max", NormKind.SUP),
    ("two", NormKind.TWO), ("2", NormKind.TWO), ("euclidean", NormKind.TWO),
])
def test_norm_parse_names(text, norm):
    for form in (text, text.upper(), text.title(), f"  {text} ", f"\t{text.upper()}\n"):
        assert NormKind.parse(form) is norm, form


@pytest.mark.parametrize("text", ["l1", "", " ", "1", "sup norm", "infinity", "euclid", "l2"])
def test_norm_parse_refuses_other_names(text):
    with pytest.raises(ValueError, match=f"unknown norm {text!r}"):
        NormKind.parse(text)


def test_stat_refuses_an_unknown_norm(capsys):
    code = parse_and_dispatch(["stat", "--family", "n,n^2", "--N", "100", "--norm", "l1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "torusppc: invalid configuration: unknown norm 'l1'\n"


def test_limit_is_the_integer_floor_of_t_and_t_squared():
    # against floor(t 2^64) and floor(t^2 2^128) in Python integers from
    # t = p / q, for t from a subnormal and below 2^-64 up to just under 1/2
    rnd = random.Random(40)
    ts = [5e-324, 2.0 ** -70, math.nextafter(2.0 ** -64, 0), 2.0 ** -64, 2.0 ** -32,
          0.1, 1 / 3, math.nextafter(0.5, 0)]
    ts += [rnd.random() * 2.0 ** rnd.randint(-80, -1) for _ in range(400)]
    for t in ts:
        p, q = t.as_integer_ratio()
        sup, two = paircorr._limit(t, NormKind.SUP), paircorr._limit(t, NormKind.TWO)
        assert type(sup) is int and type(two) is int
        assert sup == p * SCALE // q, t
        assert two == p * p * SCALE * SCALE // (q * q), t
    assert paircorr._limit(2.0 ** -70, NormKind.TWO) == 0
    assert paircorr._limit(math.nextafter(0.5, 0), NormKind.SUP) == (1 << 63) - (1 << 10)


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
    T = paircorr._limit(t, NormKind.SUP)
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
                got = _count_near(cols, np.array([0, 1]), np.array([1, 0]), NormKind.SUP, T)
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
    du = du.reshape(n, d)
    old = np.max(np.minimum(du, -du), axis=1) <= np.uint64(T)
    for j in range(n):
        got = _count_near(cols, np.array([j]), np.array([n + j]), NormKind.SUP, T)
        assert got == int(old[j]), (j, T)
    assert _count_near(cols, np.arange(n), np.arange(n, 2 * n),
                       NormKind.SUP, T) == int(np.count_nonzero(old))


# (t, the wrapped numerator differences of a pair at distance exactly t):
# t * 2**64 is 2**61, 5 * 2**58 and 7 * 2**58, split by the right triangles
# 3-4-5 and 2-3-6-7
_TWO_NORM_TIES = {2.0 ** -3: (1 << 61,), 5 / 64: (3 << 58, 4 << 58),
                  7 / 64: (2 << 58, 3 << 58, 6 << 58)}


@pytest.mark.parametrize("t", [2.0 ** -3, 5 / 64, 7 / 64, 0.1, 0.49])
def test_two_norm_recheck_matches_integer_count(t):
    # pairs whose exact sum of squared wrapped numerators is at or just below
    # two_num - 1, two_num and two_num + 1 (the last axis by isqrt), and one
    # step of the last axis past that: all inside the float filter's border
    # band, so the big-integer recheck decides each; the reference is a count
    # in Python integers from the points themselves
    limit = paircorr._limit(t, NormKind.TWO)
    rnd = random.Random(53)

    def wrapped(x, y):
        w = (x - y) % SCALE
        return min(w, SCALE - w)

    for d in (1, 2, 3):
        tie = _TWO_NORM_TIES.get(t, ())
        diffs = [tie] if len(tie) == d else []
        for target in (limit - 1, limit, limit + 1):
            for _ in range(6):
                head = [rnd.randrange(math.isqrt(target // d)) for _ in range(d - 1)]
                last = math.isqrt(target - sum(h * h for h in head))
                diffs += [(*head, last), (*head, last + 1)]
        a = [[rnd.randrange(SCALE) for _ in range(d)] for _ in diffs]
        b = [[(x + k * rnd.choice((1, -1))) % SCALE for x, k in zip(p, diff)]
             for p, diff in zip(a, diffs)]
        ssq = [sum(wrapped(x, y) ** 2 for x, y in zip(p, q)) for p, q in zip(a, b)]
        assert all(abs(v - limit) <= limit * paircorr._BORDER_BAND / 2 for v in ssq)
        inside = [v <= limit for v in ssq]
        assert 0 < sum(inside) < len(inside), (t, d)
        if len(tie) == d:
            assert ssq[0] == limit
        n = len(diffs)
        cols = np.ascontiguousarray(np.array(a + b, dtype=np.uint64).T)
        for j in range(n):
            got = _count_near(cols, np.array([j]), np.array([n + j]), NormKind.TWO, limit)
            assert got == inside[j], (t, d, ssq[j] - limit)
        assert _count_near(cols, np.arange(n), np.arange(n, 2 * n), NormKind.TWO, limit) == sum(inside)


@pytest.fixture
def predicate_calls(monkeypatch):
    """Record every (cols, ia, ib) handed to the shared predicate."""
    calls = []

    def recording(cols, ia, ib, norm, limit):
        calls.append((cols, ia.copy(), ib.copy()))
        return _count_near(cols, ia, ib, norm, limit)

    monkeypatch.setattr(paircorr, "_count_near", recording)
    return calls


def _stencil_inputs(rng, d):
    n = 120
    yield "random", rand_points(rng, n, d), (0.06, 1 / 3 - 1e-3, 1 / 3 + 1e-3)
    # a cluster around a corner of the torus, so it wraps on every axis
    base = np.uint64(SCALE - (1 << 58))
    clustered = base + rng.integers(0, 1 << 59, size=(n, d), dtype=np.uint64)
    yield "clustered", clustered, (0.02, 0.05, 1 / 3 - 1e-3)
    # t around 1/3 and up to 0.4999: one cell, or the smallest grid m = 3
    yield "coarse", rand_points(rng, 40, d), (0.3, 1 / 3 - 1e-3, 1 / 3 + 1e-3, 0.45, 0.4999)
    # distinct rows in a few rows of cells whose last coordinates tie
    tied = rng.integers(0, 1 << 62, size=(n, d), dtype=np.uint64)
    tied[:, -1] = rng.choice(np.array([0, 7, SCALE - 3], dtype=np.uint64), size=n)
    yield "tied", tied, (0.06, 0.3, 1 / 3 + 1e-3)
    if d == 4:
        # a cluster of width 2^-14 that straddles the wrap of every axis, with
        # t far below the cell side
        base = np.uint64(SCALE - (1 << 49))
        narrow = base + rng.integers(0, 1 << 50, size=(n, d), dtype=np.uint64)
        yield "narrow", narrow, (3e-5, 2e-5)


def _input_rows(index, cols):
    """Input row of each of the sorted points cols (coordinate-major).  The
    copies of a repeated row take its input rows in order: any matching
    names the same pairs up to swapping identical points."""
    taken = {}
    perm = []
    for point in cols.T:
        key = point.tobytes()
        j = taken[key] = taken.get(key, -1) + 1
        perm.append(index[key][j])
    return np.array(perm)


def _check_each_pair_once(pts, s, calls, label):
    """ppc_grid matches ppc_naive on the rows pts (repeats allowed), hands the
    predicate the blocks of _candidates and nothing else, each candidate pair
    once, and leaves no near pair out of the candidates."""
    # ppc_grid hands the predicate cell-sorted points, coordinate-major: map
    # them back to input rows
    n, d = pts.shape
    index = {}
    for i, row in enumerate(pts):
        index.setdefault(row.tobytes(), []).append(i)
    lo, hi = np.triu_indices(n, 1)
    t = paircorr.threshold(s, n, d)
    layout = paircorr._grid_layout(pts, t)
    blocks = list(paircorr._candidates(*layout))
    for norm in NormKind:
        naive = ppc_naive(pts, s, norm).near_pairs
        calls.clear()
        assert ppc_grid(pts, s, norm).near_pairs == naive, (label, norm)
        # the predicate sees exactly the candidate stream, block for block
        assert len(calls) == len(blocks), label
        for (p, a_idx, b_idx), (ia, ib) in zip(calls, blocks):
            assert np.array_equal(p, layout[0]), label
            assert np.array_equal(a_idx, ia) and np.array_equal(b_idx, ib), label
        ia, ib = [], []
        for p, a_idx, b_idx in calls:
            perm = _input_rows(index, p)
            ia.append(perm[a_idx])
            ib.append(perm[b_idx])
        ia, ib = np.concatenate(ia), np.concatenate(ib)
        assert not np.any(ia == ib), label
        keys = np.minimum(ia, ib) * n + np.maximum(ia, ib)
        assert np.unique(keys).size == keys.size, label
        # the shared predicate finds no near pair outside the candidates
        missed = ~np.isin(lo * n + hi, keys)
        cols = np.ascontiguousarray(pts.T)
        assert _count_near(cols, lo[missed], hi[missed], norm, paircorr._limit(t, norm)) == 0, label


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_stencil_tests_each_candidate_pair_once(d, predicate_calls):
    rng = np.random.default_rng(100 + d)
    seen_m = set()
    for name, raw, t_values in _stencil_inputs(rng, d):
        pts = np.unique(raw, axis=0)
        pts = pts[rng.permutation(len(pts))]
        n = len(pts)
        for t in t_values:
            seen_m.add(paircorr._cells_per_axis(t, d, n))
            _check_each_pair_once(pts, t * n ** (1.0 / d), predicate_calls, (name, t))
    # every d needs the single cell and the smallest grid, m = 3, where
    # every cell has a neighbour across the wrap
    assert {1, 3} <= seen_m


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_capped_cells_edges_and_wrap(d, predicate_calls):
    # 64 points and t = 2^-20: the cap m^d <= 2N sets m (128, 11, 5, 3), so
    # each cell is thousands of times wider than t.  Clusters sit on cell
    # corners: coordinates on a cell edge, one numerator below it (the
    # previous cell), at +-T or +-(T + 1) from it, or anywhere within T + 2
    # of it; half the clusters straddle the wrap between last-axis cells
    # m - 1 and 0
    n, T = 64, 1 << 44
    t = T / SCALE
    m = int((2 * n) ** (1.0 / d) + 1e-9)
    assert m ** d <= 2 * n < (m + 1) ** d
    assert paircorr._cells_per_axis(t, d, n) == m and m < 1 / (1000 * t)
    edges = np.array([-(-k * SCALE // m) for k in range(m)], dtype=np.uint64)
    assert np.array_equal(paircorr._cell_coords(edges, m), np.arange(m))
    assert np.array_equal(paircorr._cell_coords(edges[1:] - np.uint64(1), m), np.arange(m - 1))
    offsets = np.array([0, -1, 1, T // 2, -T // 2, T, -T, T + 1, -T - 1], dtype=np.int64)
    rng = np.random.default_rng(300 + d)
    clusters = []
    for c in range(16):
        corner = edges[rng.integers(0, m, size=d)]
        if c % 2:
            corner[-1] = 0
        off = rng.choice(offsets, size=(8, d))
        free = rng.random((8, d)) < 0.4
        off[free] = rng.integers(-T - 2, T + 3, size=int(free.sum()))
        clusters.append(corner + off.astype(np.uint64))
    pts = np.unique(np.concatenate(clusters), axis=0)
    assert len(pts) >= n
    pts = pts[rng.choice(len(pts), size=n, replace=False)]
    s = _lattice_s(t, n, d)
    assert s is not None and paircorr._limit(paircorr.threshold(s, n, d), NormKind.SUP) == T
    _check_each_pair_once(pts, s, predicate_calls, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_packed_sort_keys_edges(d, monkeypatch, predicate_calls):
    # ppc_grid sorts cell id << 32 | point index: every point in one crowded
    # cell, with one cell (m = 1) and inside a finer grid (m >= 3); repeated
    # points, whose keys differ in the index bits only; and, at a block of
    # 64 points, N = _BLOCK - 1, _BLOCK, _BLOCK + 1, so that the last block
    # of the row gather is partial
    monkeypatch.setattr(paircorr, "_BLOCK", 64)
    rng = np.random.default_rng(700 + d)
    n = 120
    crowd = np.uint64(SCALE - (1 << 40)) + rng.integers(0, 1 << 39, size=(n, d), dtype=np.uint64)
    seen_m = set()
    for t in (0.45, 0.05, 2.0 ** -42):
        s = t * n ** (1.0 / d)
        m = paircorr._cells_per_axis(paircorr.threshold(s, n, d), d, n)
        seen_m.add(m)
        assert all(np.unique(paircorr._cell_coords(crowd[:, k], m)).size == 1 for k in range(d))
        _check_each_pair_once(crowd, s, predicate_calls, ("crowd", t))
    assert 1 in seen_m and max(seen_m) >= 3
    distinct = rand_points(rng, 30, d)
    repeated = distinct[rng.integers(0, 30, size=n)]
    for t in (0.05, 0.3, 0.45):
        _check_each_pair_once(repeated, t * n ** (1.0 / d), predicate_calls, ("repeated", t))
    for size in (63, 64, 65):
        pts = rand_points(rng, size, d)
        for t in (0.05, 0.3):
            _check_each_pair_once(pts, t * size ** (1.0 / d), predicate_calls, (size, t))


def test_grid_partial_last_block_at_full_block_size():
    # N = _BLOCK +- 1 at the block size counts run with (one norm each, as
    # the O(N^2) reference dominates the time)
    rng = np.random.default_rng(71)
    for n, norm in ((paircorr._BLOCK - 1, NormKind.SUP), (paircorr._BLOCK + 1, NormKind.TWO)):
        pts = rand_points(rng, n, 2)
        assert ppc_grid(pts, 2.0, norm).near_pairs == ppc_naive(pts, 2.0, norm).near_pairs


def test_grid_refuses_more_points_than_its_sort_key_holds(monkeypatch, capsys):
    # the point index fills the low 32 bits of the sort key and the cell
    # starts are int32: past _MAX_POINTS ppc_grid refuses before it allocates
    # anything, and the CLI turns the refusal into exit 3
    monkeypatch.setattr(paircorr, "_MAX_POINTS", 10)
    pts = rand_points(np.random.default_rng(3), 11, 2)
    with pytest.raises(ValueError, match="at most 10 points, got N = 11"):
        ppc_grid(pts, 0.5, NormKind.SUP)
    assert ppc_grid(pts[:10], 0.5, NormKind.SUP).N == 10
    code = parse_and_dispatch(["stat", "--family", "n", "--N", "11", "--s", "0.5",
                               "--alpha", "0.3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "at most 10 points" in captured.err


def test_grid_matches_naive_across_chunk_boundaries(monkeypatch, predicate_calls):
    # all points in one or two cells and chunks of a few pairs, so each
    # call's pair segments are spread over many chunks
    monkeypatch.setattr(paircorr, "_CHUNK_PAIRS", 5)
    rng = np.random.default_rng(23)
    for d in (1, 2, 3):
        n = 60
        for base in (np.uint64(1 << 62), np.uint64((1 << 62) - (1 << 52))):
            pts = base + rng.integers(0, 1 << 53, size=(n, d), dtype=np.uint64)
            s = 0.05 * n ** (1.0 / d)      # m = 20 at d = 1; the cap m^d <= 2N binds above
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
    # and above block multiples (and N = 40, enough points for m = 3 cells at
    # d = 3), a third of the points with y < T (in last-axis cell 0, whose
    # ranges wrap), and the single cell (m = 1), the smallest grid (m = 3)
    # and finer ones
    monkeypatch.setattr(paircorr, "_BLOCK", block)
    rng = np.random.default_rng(41 + block)
    sizes = sorted({n for k in (1, 2, 3) for n in (k * block - 1, k * block, k * block + 1)
                    if n >= 2} | {40})
    for d in (1, 2, 3):
        seen_m = set()
        for n in sizes:
            for t in (0.05, 0.3, 0.4):
                s = t * n ** (1.0 / d)
                thr = paircorr.threshold(s, n, d)
                seen_m.add(paircorr._cells_per_axis(thr, d, n))
                pts = rand_points(rng, n, d)
                low = rng.random(n) < 1 / 3
                pts[low, -1] = rng.integers(0, paircorr._limit(thr, NormKind.SUP),
                                            size=int(low.sum()), dtype=np.uint64)
                for norm in NormKind:
                    got = ppc_grid(pts, s, norm).near_pairs
                    assert got == ppc_naive(pts, s, norm).near_pairs, (d, n, t, norm)
        assert {1, 3} <= seen_m


# (d, N, norm, s values, bound in MiB) of the memory gate
_MEMORY_GATES = [
    (2, 10 ** 5, NormKind.SUP, (0.5, 1.0, 2.0), 5.5),
    (3, 2 * 10 ** 5, NormKind.TWO, (1.0,), 12.0),
]

# the same counts held to the peaks of a set-up with no N-long scratch
# arrays: an 8-byte key or cell array kept past the sort adds 0.8 / 1.5 MiB
_SETUP_GATES = [
    (2, 10 ** 5, NormKind.SUP, (0.5, 1.0, 2.0), 4.6),
    (3, 2 * 10 ** 5, NormKind.TWO, (1.0,), 10.3),
]


def _grid_peaks(d, n, norm, s_values):
    """Peak traced MiB of ppc_grid on random points at each s, input excluded."""
    pts = rand_points(np.random.default_rng(53), n, d)
    peaks = []
    for s in s_values:
        tracemalloc.start()
        try:
            ppc_grid(pts, s, norm)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("block", [None, 1 << 20])
@pytest.mark.parametrize("d, n, norm, s_values, bound", _MEMORY_GATES)
def test_grid_memory_gate(d, n, norm, s_values, bound, block, monkeypatch):
    # with blocks of 2^20 points the per-block arrays are N long and every
    # case must break its bound, which shows the gate can fail
    if block is not None:
        monkeypatch.setattr(paircorr, "_BLOCK", block)
    for s, peak in zip(s_values, _grid_peaks(d, n, norm, s_values)):
        if block is None:
            assert peak < bound, (s, peak)
        else:
            assert peak > bound, (s, peak)


@pytest.mark.parametrize("d, n, norm, s_values, bound", _SETUP_GATES)
def test_grid_setup_memory_gate(d, n, norm, s_values, bound):
    for s, peak in zip(s_values, _grid_peaks(d, n, norm, s_values)):
        assert peak < bound, (s, peak)


_STAT_ARGV = ["stat", "--family", "n,[n log^1 n],n^3", "--norm", "two", "--s", "1",
              "--seed", "5"]


@pytest.mark.parametrize("stash", [False, True])
def test_stat_memory_gate(stash, monkeypatch):
    # peak traced allocation of the whole stat command at d = 3, N = 2 * 10^5:
    # the orbit, its sorted columns and the cell starts, about 13.6 MiB; with
    # every generated sequence kept alive the count must break the bound
    if stash:
        kept, make = [], cli.generate
        monkeypatch.setattr(cli, "generate", lambda spec, n: kept.append(make(spec, n)) or kept[-1])
    assert parse_and_dispatch(_STAT_ARGV + ["--N", "1000"]) == 0   # first-call allocations
    tracemalloc.start()
    try:
        assert parse_and_dispatch(_STAT_ARGV + ["--N", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert (peak > 15.0) == stash, peak


@pytest.mark.parametrize("d", [1, 2, 3])
def test_counters_never_write_their_input(d):
    # stat --check-naive hands one orbit array to both counters
    pts = rand_points(np.random.default_rng(61), 1500, d)
    before = pts.tobytes()
    pts.flags.writeable = False
    for norm in NormKind:
        for count in (ppc_grid, ppc_naive):
            count(pts, 1.0, norm)
            assert pts.tobytes() == before, (count.__name__, norm)


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
