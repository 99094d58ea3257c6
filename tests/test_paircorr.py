import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusppc import paircorr
from torusppc.fixedpoint import SCALE, TorusPoint
from torusppc.paircorr import NormKind, ppc_grid, ppc_limit, ppc_naive, unit_ball_volume


def rand_points(rng, n, d):
    return rng.integers(0, SCALE, size=(n, d), dtype=np.uint64)


def test_limits():
    assert ppc_limit(1.0, 2, NormKind.SUP) == 4.0
    assert ppc_limit(1.0, 2, NormKind.TWO) == pytest.approx(math.pi)
    assert ppc_limit(1.0, 1, NormKind.TWO) == pytest.approx(2.0)
    assert ppc_limit(0.5, 3, NormKind.SUP) == pytest.approx(1.0)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_hand_count_d1():
    pts = [TorusPoint.from_floats([v]) for v in (0.0, 0.1, 0.5)]
    res = ppc_naive(pts, 0.45, NormKind.SUP)
    assert res.near_pairs == 2
    assert res.statistic == pytest.approx(2 / 3)
    assert ppc_grid(pts, 0.45, NormKind.SUP).near_pairs == 2


def test_identical_points():
    pts = [TorusPoint.from_floats([0.37, 0.91])] * 2
    for norm in NormKind:
        res = ppc_naive(pts, 0.01, norm)
        assert res.statistic == 1.0


def test_far_points():
    pts = [TorusPoint.from_floats([0.1]), TorusPoint.from_floats([0.5])]
    res = ppc_naive(pts, 0.2, NormKind.SUP)   # threshold 0.1 < distance 0.4
    assert res.near_pairs == 0


def test_threshold_rejection():
    pts = [TorusPoint.from_floats([0.1]), TorusPoint.from_floats([0.5])]
    with pytest.raises(ValueError, match="1/2"):
        ppc_naive(pts, 1.0, NormKind.SUP)
    with pytest.raises(ValueError, match="1/2"):
        ppc_grid(pts, 1.0, NormKind.SUP)


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
    d=st.integers(min_value=1, max_value=3),
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
    pts = [TorusPoint.from_floats([0.0]), TorusPoint.from_floats([0.25])]
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


def test_accepts_point_lists_and_arrays():
    pts_list = [TorusPoint.from_floats([0.1, 0.2]), TorusPoint.from_floats([0.15, 0.22]),
                TorusPoint.from_floats([0.7, 0.9])]
    from torusppc.fixedpoint import points_to_array

    arr = points_to_array(pts_list)
    for norm in NormKind:
        assert ppc_naive(pts_list, 0.6, norm).near_pairs == ppc_naive(arr, 0.6, norm).near_pairs


def test_min_points():
    with pytest.raises(ValueError):
        ppc_naive(np.zeros((1, 1), dtype=np.uint64), 0.1, NormKind.SUP)


_count_near = paircorr._count_near


@pytest.fixture
def predicate_calls(monkeypatch):
    """Record every (pts, ia, ib) handed to the shared predicate."""
    calls = []

    def recording(pts, ia, ib, norm, thr):
        calls.append((pts, ia.copy(), ib.copy()))
        return _count_near(pts, ia, ib, norm, thr)

    monkeypatch.setattr(paircorr, "_count_near", recording)
    return calls


def _stencil_inputs(rng, d):
    n = 120
    yield "random", rand_points(rng, n, d), (0.06, 1 / 3 - 1e-3, 1 / 3 + 1e-3)
    # a cluster around a corner of the torus, so it wraps on every axis
    base = np.uint64(SCALE - (1 << 58))
    clustered = base + rng.integers(0, 1 << 59, size=(n, d), dtype=np.uint64)
    yield "clustered", clustered, (0.02, 0.05, 1 / 3 - 1e-3)
    yield "coarse", rand_points(rng, 40, d), (0.3, 1 / 3 - 1e-3, 1 / 3 + 1e-3, 0.45)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_stencil_tests_each_candidate_pair_once(d, predicate_calls):
    # ppc_grid hands the predicate cell-sorted points: map rows back to input
    # indices, then check that the half shell covers every near pair once
    rng = np.random.default_rng(100 + d)
    seen_m = set()
    for name, raw, t_values in _stencil_inputs(rng, d):
        pts = np.unique(raw, axis=0)
        pts = pts[rng.permutation(len(pts))]
        n = len(pts)
        index = {row.tobytes(): i for i, row in enumerate(pts)}
        lo, hi = np.triu_indices(n, 1)
        for t in t_values:
            seen_m.add(paircorr._cells_per_axis(t, d))
            s = t * n ** (1.0 / d)
            thr = paircorr._threshold_for(s, n, d)
            for norm in NormKind:
                naive = ppc_naive(pts, s, norm).near_pairs
                predicate_calls.clear()
                assert ppc_grid(pts, s, norm).near_pairs == naive, (name, t, norm)
                ia, ib = [], []
                for p, a_idx, b_idx in predicate_calls:
                    perm = np.array([index[r.tobytes()] for r in p])
                    ia.append(perm[a_idx])
                    ib.append(perm[b_idx])
                ia, ib = np.concatenate(ia), np.concatenate(ib)
                assert not np.any(ia == ib), (name, t)
                keys = np.minimum(ia, ib) * n + np.maximum(ia, ib)
                assert np.unique(keys).size == keys.size, (name, t)
                # the shared predicate finds no near pair outside the candidates
                missed = ~np.isin(lo * n + hi, keys)
                assert _count_near(pts, lo[missed], hi[missed], norm, thr) == 0, (name, t)
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
