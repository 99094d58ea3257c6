import sys
import threading

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

    def encode(vectors):
        enc = real_encode(vectors)
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
    real = energy._unique_counts_rows
    lexsort_threads = []

    def recording(vectors, weights=None):
        lexsort_threads.append(threading.current_thread())
        return real(vectors, weights)

    monkeypatch.setattr(energy, "_unique_counts_rows", recording)
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


def test_count_jl_examples():
    ident = generate(SequenceSpec.identity(), 5)
    assert count_Jl(ident, ident, 1) == 6
    assert count_Jl(ident, ident, 5) == 0       # l >= N
    ident200 = generate(SequenceSpec.identity(), 200)
    squares200 = generate(SequenceSpec.power_of(2), 200)
    for l in (1, 2, 3, 50, 199):
        assert count_Jl(ident200, squares200, l) == 0


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
    for n in (10, 40):
        for d in (2, 3):
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


def test_representation_counts_lost_pair_is_internal_error(monkeypatch):
    real = energy._key_groups

    def dropped(*args):
        rows, counts = real(*args)
        counts[0] -= 1          # the grouping loses one ordered pair
        return rows, counts

    monkeypatch.setattr(energy, "_key_groups", dropped)
    with pytest.raises(InternalError, match="holds 7 pairs, expected N\\^2 = 9"):
        representation_counts([seq([1, 2, 4])])
