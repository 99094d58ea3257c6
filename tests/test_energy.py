import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusppc import _parallel, energy
from torusppc.energy import (
    EnergyReport,
    additive_energy,
    additive_energy_brute,
    comparison_from_name,
    count_Jl,
    count_Jl_brute,
    energy_bound_report,
    joint_additive_energy,
    joint_additive_energy_brute,
    representation_counts,
    vinogradov_J2d,
)
from torusppc.errors import InternalError
from torusppc.sequences import SequenceData, SequenceSpec, generate


def seq(vals):
    return SequenceData(values=np.array(sorted(vals), dtype=np.int64),
                        spec=SequenceSpec.explicit("inline"))


strictly_increasing_sets = st.lists(
    st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=30, unique=True
)


def test_additive_energy_examples():
    assert additive_energy(seq([1, 2, 3])) == 19
    assert additive_energy_brute([1, 2, 3]) == 19
    assert additive_energy(seq([1])) == 1
    assert additive_energy(seq([1, 2])) == 6    # multiplicities 1,2,1


def test_joint_energy_examples():
    a = seq([1, 2, 3])
    b = seq([1, 4, 9])
    assert joint_additive_energy([a, a]) == 19          # components coincide
    assert joint_additive_energy([a, b]) == 15          # = 2*3^2 - 3
    assert joint_additive_energy_brute([[1, 2, 3], [1, 4, 9]]) == 15
    assert joint_additive_energy([a]) == additive_energy(a)


def count_of(t):
    """The table as {difference vector: count}, in table order."""
    return dict(zip(map(tuple, t.vectors.tolist()), t.counts.tolist()))


def test_representation_table():
    t = representation_counts([seq([1, 2, 3])])
    D = count_of(t)
    assert D.get((0,), 0) == 3
    assert D.get((1,), 0) == 2 and D.get((-1,), 0) == 2
    assert D.get((2,), 0) == 1 and D.get((-2,), 0) == 1
    assert D.get((5,), 0) == 0
    assert int(t.counts.sum()) == 9
    assert t.sum_sq() == 19


@settings(max_examples=60, deadline=None, derandomize=True)
@given(strictly_increasing_sets)
def test_energy_equals_sum_sq_and_brute(vals):
    a = seq(vals)
    e = additive_energy(a)
    assert e == representation_counts([a]).sum_sq()
    assert e == additive_energy_brute(sorted(vals))
    # affine invariance
    shifted = seq([v + 17 for v in vals])
    scaled = seq([3 * v for v in vals])
    assert additive_energy(shifted) == e
    assert additive_energy(scaled) == e


@settings(max_examples=40, deadline=None, derandomize=True)
@given(strictly_increasing_sets, strictly_increasing_sets)
def test_joint_energy_properties(va, vb):
    n = min(len(va), len(vb))
    a = seq(sorted(va)[:n])
    b = seq(sorted(vb)[:n])
    e = joint_additive_energy([a, b])
    assert e == joint_additive_energy_brute([a.values, b.values])
    # trivial bound chain
    assert n * n <= e <= min(additive_energy(a), additive_energy(b))
    # sum of squared nonzero-representation counts is dominated by E
    table = representation_counts([a, b])
    counts = table.counts[(table.vectors != 0).all(axis=1)]
    assert int((counts.astype(object) ** 2).sum()) <= e


def test_table_symmetry_and_total():
    rng = np.random.default_rng(3)
    vals1 = np.sort(rng.choice(5000, size=60, replace=False) + 1)
    vals2 = np.sort(rng.choice(9000, size=60, replace=False) + 1)
    t = representation_counts([seq(vals1), seq(vals2)])
    assert int(t.counts.sum()) == 60 * 60
    D = count_of(t)
    assert D.get((0, 0), 0) == 60
    nonzero = [(v, c) for v, c in D.items() if all(v)]
    for row, c in nonzero[:25]:
        assert D.get(tuple(-x for x in row), 0) == c


def test_streaming_matches_direct(monkeypatch):
    rng = np.random.default_rng(7)
    vals1 = np.sort(rng.choice(10 ** 6, size=150, replace=False) + 1)
    vals2 = np.sort(rng.choice(10 ** 6, size=150, replace=False) + 1)
    seqs = [seq(vals1), seq(vals2)]
    direct = representation_counts(seqs)
    direct_energy = additive_energy(seqs[0])
    monkeypatch.setattr(energy, "_PAIR_BUDGET", 777)
    tiny = representation_counts(seqs)   # ~15 first-difference bands
    assert direct.sum_sq() == tiny.sum_sq()
    assert int(tiny.counts.sum()) == 150 * 150
    monkeypatch.setattr(energy, "_PAIR_BUDGET", 523)
    assert direct_energy == additive_energy(seqs[0])


def _full_table_reference(cols):
    """All N^2 ordered difference vectors grouped by np.unique: (rows, counts)."""
    diffs = np.stack([(v[:, None] - v[None, :]).ravel() for v in cols], axis=1)
    return np.unique(diffs, axis=0, return_counts=True)


def test_banded_table_matches_full_unique_sweep(monkeypatch):
    real_encode = energy._group_encode
    fallbacks = []

    def encode(*args):
        enc = real_encode(*args)
        fallbacks.append(enc is None)
        return enc

    monkeypatch.setattr(energy, "_group_encode", encode)
    rng = np.random.default_rng(20261018)
    for trial in range(72):
        d = 1 + trial % 3
        n = int(rng.integers(1, 24))
        kind = (trial // 3) % 4
        if kind == 3:          # near 2^62: the d >= 2 band keys overflow int64
            cols = [np.unique(rng.integers(2 ** 61, 2 ** 62, size=n)) for _ in range(d)]
        else:
            top = (30, 10 ** 4, 10 ** 9)[kind]
            cols = [np.sort(rng.choice(top, size=n, replace=False) + 1) for _ in range(d)]
        if trial % 2:          # identity first component: one lag is one band value
            cols[0] = np.arange(1, n + 1, dtype=np.int64)
        cols = [c.astype(np.int64) for c in cols]
        assert all(c.size == n for c in cols)
        budget = 1 + trial % 5 if trial % 4 else int(rng.integers(1, n * n + 2))
        seqs = [seq(c) for c in cols]

        monkeypatch.setattr(energy, "_PAIR_BUDGET", budget)
        table = representation_counts(seqs)
        rows, counts = _full_table_reference(cols)
        assert table.vectors.dtype == rows.dtype and table.vectors.shape == rows.shape
        assert table.vectors.flags.c_contiguous
        assert table.vectors.tobytes() == rows.tobytes()
        assert table.counts.dtype == np.int64
        assert table.counts.tobytes() == counts.astype(np.int64).tobytes()

        brute = joint_additive_energy_brute(cols)
        assert joint_additive_energy(seqs) == brute
        if d == 1:
            assert additive_energy(seqs[0]) == additive_energy_brute(cols[0])
    assert any(fallbacks) and not all(fallbacks)


def test_bands_in_flight_match_oracles_at_any_worker_count(monkeypatch):
    # a small budget puts ~30 bands per call on the pool, also with more
    # workers than cores and a short switch interval; near 2^62 the d >= 2
    # keys overflow, so those bands take the lexsort path on a worker thread
    rng = np.random.default_rng(19)
    cases = []
    for d in (1, 2, 3):
        cases.append([np.sort(rng.choice(10 ** 5, size=40, replace=False) + 1)
                      for _ in range(d)])
        cases.append([np.sort(rng.choice(2 ** 61, size=40, replace=False) + 2 ** 61)
                      for _ in range(d)])
    real = np.lexsort
    lexsort_threads = []

    def recording(keys, axis=-1):
        lexsort_threads.append(threading.current_thread())
        return real(keys, axis)

    monkeypatch.setattr(np, "lexsort", recording)
    monkeypatch.setattr(energy, "_PAIR_BUDGET", 31)
    tables = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 5):
            monkeypatch.setattr(_parallel, "usable_cores", lambda: workers)
            for i, cols in enumerate(cases):
                seqs = [seq(c) for c in cols]
                assert joint_additive_energy(seqs) == joint_additive_energy_brute(cols)
                if len(cols) == 1:
                    assert additive_energy(seqs[0]) == additive_energy_brute(cols[0])
                t = representation_counts(seqs)
                tables.setdefault(i, []).append((t.vectors.tobytes(), t.counts.tobytes()))
    finally:
        sys.setswitchinterval(interval)
    assert all(len(set(runs)) == 1 for runs in tables.values())
    assert lexsort_threads
    assert threading.main_thread() not in lexsort_threads


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_band_chunk_edges_match_oracles(monkeypatch, chunk):
    # at budget 400 one band holds every pair, so row 19's run of 19 j is
    # longer than a chunk; in the identity sequence the 19 pairs of value 1
    # are one run of equal keys across several chunk edges; near 2^62 the
    # d = 2 band keys overflow and the chunks are copied out and lexsorted
    real_encode = energy._group_encode
    fallbacks = []

    def encode(*args):
        enc = real_encode(*args)
        fallbacks.append(enc is None)
        return enc

    monkeypatch.setattr(energy, "_group_encode", encode)
    monkeypatch.setattr(energy, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    ident = np.arange(1, 21, dtype=np.int64)
    cases = [[ident], [ident, ident ** 2],
             [np.sort(rng.choice(10 ** 4, size=20, replace=False) + 1) for _ in range(2)],
             [np.sort(rng.choice(2 ** 61, size=20, replace=False) + 2 ** 61) for _ in range(2)]]
    for budget in (5, 40, 400):
        monkeypatch.setattr(energy, "_PAIR_BUDGET", budget)
        for workers in (1, 2, 5):
            monkeypatch.setattr(_parallel, "usable_cores", lambda: workers)
            for cols in cases:
                seqs = [seq(c) for c in cols]
                assert joint_additive_energy(seqs) == joint_additive_energy_brute(cols)
                if len(cols) == 1:
                    assert additive_energy(seqs[0]) == additive_energy_brute(cols[0])
                table = representation_counts(seqs)
                rows, counts = _full_table_reference(cols)
                assert table.vectors.tobytes() == rows.tobytes()
                assert table.counts.tobytes() == counts.astype(np.int64).tobytes()
    assert any(fallbacks) and not all(fallbacks)
    # the run walk on its own: runs of 1 to 40 equal keys against np.unique
    keys = np.sort(np.repeat(rng.permutation(50), rng.integers(1, 41, size=50)))
    _, ref = np.unique(keys, return_counts=True)
    assert energy._key_run_squares(keys) == (keys.size, int(ref @ ref))
    for scale in (1, 2 ** 40):          # uint32 and int64 keys
        column = keys * scale
        _, counts = energy._group_rows(lambda: iter([[column]]), _spans_of(column[:, None]))
        assert np.array_equal(counts, ref)


def _counting_probes(monkeypatch, n):
    """Patch np.searchsorted to count its calls into the returned [exact,
    other], the exact ones being those with one query per row of the n[0]
    values."""
    real = np.searchsorted
    counts = [0, 0]

    def counting(a, v, *args, **kwargs):
        counts[0 if np.ndim(v) and np.size(v) == n[0] else 1] += 1
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    return counts


def test_band_edges_stay_in_budget_tile_and_probe_little(monkeypatch):
    rng = np.random.default_rng(29)
    cases = []
    for trial in range(60):
        n = int(rng.integers(2, 50))
        kind = trial % 4
        if kind == 0:
            a = np.sort(rng.choice(10 ** 4, size=n, replace=False))
        elif kind == 1:          # near 2^62
            a = np.sort(rng.choice(2 ** 61, size=n, replace=False) + 2 ** 61)
        elif kind == 2:          # identity: value 1 alone holds n - 1 pairs
            a = np.arange(n, dtype=np.int64)
        else:
            a = np.sort(rng.choice(10 ** 9, size=n, replace=False))
        budget = 1 + trial % 5 if trial % 3 else int(rng.integers(1, n * n + 1))
        cases.append((a - a[0], budget))
    cases.append((np.arange(40, dtype=np.int64), 3))     # every value over budget
    cases += [(np.arange(n, dtype=np.int64) ** 2, 1 << 20) for n in (4096, 8192)]
    found = []
    n = [0]
    probes = _counting_probes(monkeypatch, n)
    for a, budget in cases:
        monkeypatch.setattr(energy, "_PAIR_BUDGET", budget)
        n[0] = a.size
        probes[:] = [0, 0]
        found.append((list(energy._band_edges(a, a.size * (a.size - 1) // 2)), probes[0]))
    monkeypatch.undo()

    for (a, budget), (edges, exact) in zip(cases, found):
        half = a.size * (a.size - 1) // 2
        # the bands tile [1, top) in order: no gap, no overlap, none empty
        assert edges[0][0] == 1 and edges[-1][1] == int(a[-1]) + 1
        assert all(lo < hi for lo, hi in edges)
        assert all(u == l for (_, u), (l, _) in zip(edges, edges[1:]))
        # C(x) = #{i > j : a_i - a_j < x} at every edge
        c = [half - int(np.searchsorted(a, a - x, side="right").sum())
             for x in [1] + [hi for _, hi in edges]]
        held = np.diff(c)
        assert held.min() > 0 and held.sum() == half
        over = held > budget        # only a lone difference value may exceed it
        if a.size > 1000:
            # n^2: the estimate never misses, so one exact count a band
            assert not over.any() and exact < len(edges)
            continue
        diffs = a[:, None] - a[None, :]
        for k in np.flatnonzero(over):
            lo, hi = edges[k]
            inside = diffs[(diffs >= lo) & (diffs < hi)]
            assert inside.min() == inside.max(), (lo, hi)
        # the exact bisection steps onto the data: a few probes a band, not
        # the ~60 of a bisection down to a step of 1 near 2^62
        assert exact <= len(edges) * (2 + half.bit_length())
    assert found[-3][0][:2] == [(1, 2), (2, 3)]     # arange(40), budget 3


def test_exact_band_search_stops_at_the_data(monkeypatch):
    # near 2^62, N = 40, budget 31: bisecting each band's bracket down to a
    # step of 1 took 1 449 probes of all 40 rows
    rng = np.random.default_rng(19)
    rng.choice(10 ** 5, size=40, replace=False)
    a = np.sort(rng.choice(2 ** 61, size=40, replace=False) + 2 ** 61)
    a = a - a[0]
    monkeypatch.setattr(energy, "_PAIR_BUDGET", 31)
    probes = _counting_probes(monkeypatch, [a.size])
    edges = list(energy._band_edges(a, 780))
    assert sum(probes) < 1449 // 3 and probes[0] < 4 * len(edges)
    diffs = (a[:, None] - a[None, :])[np.tril_indices(a.size, -1)]
    assert all(0 < np.count_nonzero((diffs >= lo) & (diffs < hi)) <= 31 for lo, hi in edges)


def _refilled(values, calls):
    """columns() for _group_rows: one chunk, the columns of values written in
    turn into one buffer, as the bands write theirs; each call appends to
    calls."""
    def chunk():
        buf = np.empty(values.shape[0], dtype=np.int64)
        for col in values.T:
            buf[:] = col
            yield buf

    def columns():
        calls.append(1)
        return iter([chunk()])
    return columns


def _spans_of(values):
    """The exact spans of the rows of values: (rows, column mins, column maxes)."""
    return values.shape[0], values.min(axis=0).tolist(), values.max(axis=0).tolist()


@pytest.mark.parametrize("kind", ["uint32", "int64", "overflow"])
def test_group_rows_matches_unique_and_add_at(kind):
    rng = np.random.default_rng(["uint32", "int64", "overflow"].index(kind))
    for trial in range(24):
        d = 1 + trial % 3 if kind != "overflow" else 2 + trial % 2
        span = {"uint32": 40, "int64": 2 ** (47 // d), "overflow": 2 ** 62}[kind]
        pool = rng.integers(-span, span, size=(6, d))
        pick = rng.integers(0, 6, size=(int(rng.integers(1, 300)), d))
        if kind != "uint32":       # span the range that sets the key's kind
            pool[0], pool[1] = -span, span - 1
            pick = rng.permutation(np.vstack([np.zeros(d, int), np.ones(d, int), pick]))
        values = pool[pick, np.arange(d)]
        enc = energy._group_encode(iter([values.T]), _spans_of(values))
        assert (kind == "overflow") == (enc is None)
        assert enc is None or enc[0].dtype == {"uint32": np.uint32, "int64": np.int64}[kind]
        ref_rows, inv, ref_counts = np.unique(values, axis=0, return_inverse=True,
                                              return_counts=True)
        inv = inv.ravel()
        w = rng.normal(size=values.shape[0]) + 1j * rng.normal(size=values.shape[0])
        ref_sums = np.zeros(ref_counts.size, dtype=np.complex128)
        np.add.at(ref_sums, inv, w)
        scale = np.zeros(ref_counts.size)
        np.add.at(scale, inv, np.abs(w))
        for weights in (None, w):
            calls = []
            rows, counts = energy._group_rows(_refilled(values, calls), _spans_of(values),
                                              weights)
            assert len(calls) == (2 if kind == "overflow" else 1)
            assert rows.dtype == np.int64 and np.array_equal(rows, ref_rows)
            if weights is None:
                assert counts.dtype == np.int64 and np.array_equal(counts, ref_counts)
            else:
                assert np.all(np.abs(counts - ref_sums) <= 1e-12 * scale)
        assert energy._group_rows(_refilled(values, []), _spans_of(values), square=True) == (
            int(ref_counts.sum()), int(ref_counts @ ref_counts))


def _watch_spans(monkeypatch):
    """Wrap energy._group_encode so that each call appends (stated, seen, key
    dtype or None on overflow) to the returned list: stated its spans, seen
    the row count and each column's min and max read off the column pieces
    as the chunks stream through.  The pieces are copied, since a buffer may
    be refilled, and replayed into the real encoder."""
    real = energy._group_encode
    calls = []

    def encode(columns, spans):
        chunks = [[np.array(piece) for piece in chunk] for chunk in columns]
        seen = (sum(chunk[0].size for chunk in chunks),
                [min(int(c[k].min()) for c in chunks) for k in range(len(spans[1]))],
                [max(int(c[k].max()) for c in chunks) for k in range(len(spans[1]))])
        enc = real(iter(chunks), spans)
        stated = (int(spans[0]), [int(x) for x in spans[1]], [int(x) for x in spans[2]])
        calls.append((stated, seen, None if enc is None else enc[0].dtype))
        return enc

    monkeypatch.setattr(energy, "_group_encode", encode)
    return calls


def _inexact(calls):
    return [(stated, seen) for stated, seen, _ in calls if stated != seen]


def test_every_caller_states_exact_spans(monkeypatch):
    # a span stated too narrow would silently merge distinct rows, and one
    # too wide could change the key's dtype
    from torusppc import gcdsum
    from torusppc.gcdsum import WeightedSupport, gcd_sum, gcd_sum_from_representations

    calls = _watch_spans(monkeypatch)
    n = np.arange(1, 41, dtype=np.int64)
    gcd_sum_from_representations(representation_counts([seq(n), seq(n ** 2)]), 0.5)
    gcd_sum(WeightedSupport.ones([[1], [12], [30], [97], [360], [720720]]), 0.7)
    # near 2^62 the first expansion's keys overflow into the lexsort; one
    # first divisor a block leaves one wide column, so int64 keys
    monkeypatch.setattr(gcdsum, "_BLOCK_TUPLES", 1)
    near = 2 ** 62
    gcd_sum(WeightedSupport.ones([[near - 1, near - 3], [near - 9, 2 ** 61 + 7],
                                  [2 ** 61 + 3, near - 1], [6, near - 5]]), 0.5)
    for N, d in ((5, 2), (30, 3), (1, 3)):
        vinogradov_J2d(N, d)
    monkeypatch.setattr(energy, "_PAIR_BUDGET", 17)      # several bands
    monkeypatch.setattr(energy, "_CHUNK", 5)             # several chunks a band
    representation_counts([seq([1, 3, 4, 9, 10, 15, 22, 23]), seq([2, 5, 6, 7, 11, 13, 14, 30])])
    assert len(calls) > 20
    assert _inexact(calls) == []
    assert {np.dtype(np.uint32), np.dtype(np.int64), None} <= {kind for *_, kind in calls}
    # the checker can fail: a hand-made call whose stated max is one too low
    calls.clear()
    values = np.array([3, 5, 9], dtype=np.int64)
    energy._group_rows(lambda: iter([[values]]), (3, [3], [8]))
    assert _inexact(calls) == [((3, [3], [8]), (3, [3], [9]))]


BAND_PEAK_BOUNDS = (14 * 2 ** 20, 10 * 2 ** 20)   # bytes: (n, n^2) at N = 2048, n^2 at N = 4096


def _traced_peak(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_band_peak_memory(monkeypatch):
    # one band in flight: its key column (int64, then uint32) and one
    # chunk's scratch, not band-long j, gathers or run arrays (measured 6.2
    # and 5.9 MiB; 18.6 and 16.6 MiB at four times the budget)
    monkeypatch.setattr(_parallel, "usable_cores", lambda: 1)
    cases = [(joint_additive_energy, [generate(SequenceSpec.identity(), 2048),
                                      generate(SequenceSpec.power_of(2), 2048)]),
             (additive_energy, generate(SequenceSpec.power_of(2), 4096))]
    for (fn, arg), bound in zip(cases, BAND_PEAK_BOUNDS):
        assert _traced_peak(fn, arg) < bound, fn.__name__
    # detector: bands four times larger exceed both bounds
    monkeypatch.setattr(energy, "_PAIR_BUDGET", 1 << 22)
    for (fn, arg), bound in zip(cases, BAND_PEAK_BOUNDS):
        assert _traced_peak(fn, arg) > bound, fn.__name__


def test_count_jl_examples():
    ident = generate(SequenceSpec.identity(), 5)
    assert count_Jl(ident, ident, 1) == 6
    assert count_Jl(ident, ident, 5) == 0       # l >= N
    ident200 = generate(SequenceSpec.identity(), 200)
    squares200 = generate(SequenceSpec.power_of(2), 200)
    for l in (1, 2, 3, 50, 199):
        assert count_Jl(ident200, squares200, l) == 0


def test_count_jl_cannot_be_handed_a_non_increasing_f():
    # count_Jl solves for y by binary search on f.  On this f (with
    # g = [1, 4, 4, 8, 6, 10, 5, 10], l = 1) it counted 0 solutions where
    # count_Jl_brute counts 2; no SequenceData can hold it now.
    f = np.array([3, 7, 9, 5, 8, 2, 8, 4], dtype=np.int64)
    with pytest.raises(ValueError, match="not strictly increasing at index 3"):
        count_Jl(SequenceData(values=f, spec=SequenceSpec.explicit("f")), seq(range(1, 9)), 1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(strictly_increasing_sets, strictly_increasing_sets,
       st.integers(min_value=1, max_value=8))
def test_count_jl_matches_brute(va, vb, l):
    n = min(len(va), len(vb))
    if n < 2:
        return
    a = seq(sorted(va)[:n])
    b = seq(sorted(vb)[:n])
    assert count_Jl(a, b, l) == count_Jl_brute(a, b, l)


def test_vinogradov_examples():
    assert vinogradov_J2d(5, 2) == 45
    assert vinogradov_J2d(2, 1) == 6
    assert vinogradov_J2d(1, 3) == 1
    for n in (2, 7, 30):
        assert vinogradov_J2d(n, 2) == 2 * n * n - n


def test_vinogradov_equals_power_family_joint_energy():
    # d = 6 keys overflow int64 on both sides and take the lexsort fallback
    for n, d in ((10, 2), (10, 3), (40, 2), (40, 3), (10, 6)):
        seqs = [generate(SequenceSpec.identity() if l == 1 else SequenceSpec.power_of(l), n)
                for l in range(1, d + 1)]
        assert joint_additive_energy(seqs) == vinogradov_J2d(n, d)


def test_energy_report():
    a = generate(SequenceSpec.power_of(2), 128)
    rep = energy_bound_report([a], ["N^2", "N^3"])
    assert 128 ** 2 <= rep.E <= 128 ** 3
    assert rep.ratios["N^2"] == rep.E / 128 ** 2
    with pytest.raises(InternalError, match="counting bug"):
        EnergyReport(N=10, E=5)


def test_comparison_parser():
    import math

    assert comparison_from_name("N^2")(100) == pytest.approx(10_000)
    assert comparison_from_name("N^3 log^-1")(100) == pytest.approx(10 ** 6 / math.log(100))
    assert comparison_from_name("N^2 log^0.5")(50) == pytest.approx(2500 * math.log(50) ** 0.5)
    with pytest.raises(ValueError):
        comparison_from_name("2^N")
    with pytest.raises(ValueError):
        comparison_from_name("N^2 ln N")
    for name in ("N^2x", "N^2 log^y"):
        with pytest.raises(ValueError, match="cannot parse"):
            comparison_from_name(name)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        vinogradov_J2d(10 ** 7, 3)


def test_energy_lost_pair_is_internal_error(monkeypatch):
    real = energy._key_run_squares

    def dropped(keys):
        held, squares = real(keys)
        return held - 1, squares        # the run walk loses one ordered pair

    monkeypatch.setattr(energy, "_key_run_squares", dropped)
    with pytest.raises(InternalError, match="holds 7 pairs, expected N\\^2 = 9"):
        additive_energy(seq([1, 2, 4]))


def test_representation_counts_lost_pair_is_internal_error(monkeypatch):
    real = energy._group_rows

    def dropped(*args, **kwargs):
        rows, counts = real(*args, **kwargs)
        counts[0] -= 1          # the grouping loses one ordered pair
        return rows, counts

    monkeypatch.setattr(energy, "_group_rows", dropped)
    with pytest.raises(InternalError, match="holds 7 pairs, expected N\\^2 = 9"):
        representation_counts([seq([1, 2, 4])])
