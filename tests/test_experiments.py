import json
import math

import numpy as np
import pytest

from torusppc import _parallel
from torusppc.cli import parse_and_dispatch
from torusppc.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    cell_seed,
    energy_rows_to_csv,
    rows_to_csv,
    run_convergence,
    run_counterexample,
    run_energy_scan,
    run_variance_decay,
)
from torusppc.fixedpoint import sample_alpha
from torusppc.paircorr import NormKind, ppc_grid
from torusppc.sequences import SequenceSpec, generate, orbit

FAMILY = (SequenceSpec.identity(), SequenceSpec.power_of(2))


def small_config(**kw):
    base = dict(family=FAMILY, norm=NormKind.SUP, s_values=(0.5, 1.0),
                N_values=(200, 500), samples=8, seed=4)
    base.update(kw)
    return ExperimentConfig(**base)


def test_cell_seed_deterministic_and_splittable():
    assert cell_seed(1, 100, 0, 3) == cell_seed(1, 100, 0, 3)
    seeds = {cell_seed(1, n, si, k) for n in (100, 200) for si in (0, 1) for k in range(50)}
    assert len(seeds) == 200


def test_convergence_rows_and_determinism():
    cfg = small_config()
    rows = run_convergence(cfg)
    assert len(rows) == 4
    for r in rows:
        assert r.K == 8 and r.var_R >= 0 and r.mean_R >= 0
        assert r.expectation == pytest.approx(r.limit * (r.N - 1) / r.N)
        assert r.seconds == 0.0          # timing is opt-in
    again = run_convergence(cfg)
    assert rows_to_csv(rows) == rows_to_csv(again)


def test_different_seeds_differ():
    a = run_convergence(small_config(seed=1))
    b = run_convergence(small_config(seed=2))
    assert rows_to_csv(a) != rows_to_csv(b)


@pytest.mark.parametrize("workers", [1, 3])
def test_parallel_table_equals_serial_loop(workers, monkeypatch):
    # the table counts its samples on the calling thread, so the core count
    # changes nothing; mean_R and var_R must match an in-order loop bit for bit
    monkeypatch.setattr(_parallel, "usable_cores", lambda: workers)
    cfg = small_config(samples=5, norm=NormKind.TWO)
    rows = run_convergence(cfg)
    assert len(rows) == len(cfg.N_values) * len(cfg.s_values)
    for row in rows:
        s_index = cfg.s_values.index(row.s)
        seqs = [generate(spec, row.N) for spec in cfg.family]
        values = np.array([
            ppc_grid(orbit(seqs, sample_alpha(cell_seed(cfg.seed, row.N, s_index, k),
                                              cfg.dimension)), row.s, cfg.norm).statistic
            for k in range(cfg.samples)])
        want = np.array([np.mean(values), np.var(values, ddof=1)])
        got = np.array([row.mean_R, row.var_R])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (row.N, row.s)


def test_table_starts_no_pool(monkeypatch):
    # a count holds the GIL for most of its run, so the Monte Carlo table
    # counts on the calling thread: with the pool unusable it gives the same CSV
    cfg = small_config(samples=3)
    want = rows_to_csv(run_convergence(cfg))

    def no_pool(*args, **kwargs):
        raise AssertionError("the Monte Carlo table started a thread pool")

    monkeypatch.setattr(_parallel, "ordered_map", no_pool)
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", no_pool)
    assert rows_to_csv(run_convergence(cfg)) == want
    assert run_counterexample(0.25, 0.5, [8]).rows[0].mean_R == pytest.approx(1.0)


def test_csv_shape():
    rows = run_convergence(small_config())
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows) + 1 and lines[-1] == ""
    assert text.endswith("\n") and "\r" not in text


def test_timing_column():
    rows = run_convergence(small_config(timing=True, samples=2))
    assert any(r.seconds > 0 for r in rows)


def test_mean_tracks_expectation():
    # grand mean over alphas stays within 3 standard errors of the exact
    # expectation limit * (N-1)/N
    cfg = ExperimentConfig(family=FAMILY, norm=NormKind.SUP, s_values=(1.0,),
                           N_values=(500,), samples=60, seed=2)
    row = run_convergence(cfg)[0]
    se = math.sqrt(row.var_R / row.K)
    assert abs(row.mean_R - row.expectation) <= 3 * se


def test_degenerate_coincident_orbit():
    # both points on the same torus position: statistic is exactly 1
    from torusppc.fixedpoint import point_of_reals
    from torusppc.paircorr import ppc_grid
    from torusppc.sequences import SequenceData, orbit

    seqs = [SequenceData(values=np.array([2, 4], dtype=np.int64),
                         spec=SequenceSpec.explicit("x"))]
    alpha = point_of_reals([0.5])   # {2 * 0.5} = {4 * 0.5} = 0
    res = ppc_grid(orbit(seqs, alpha), 0.25, NormKind.SUP)
    assert res.statistic == 1.0


def test_counterexample_rational_alpha_saturates():
    # alpha = 1/4, N = 8: the orbit is 4 points hit twice; every coincident
    # ordered pair is within any positive threshold, so R = 8/8 = 1
    res = run_counterexample(0.25, 0.5, [8])
    assert res.rows[0].mean_R == pytest.approx(1.0)


def test_counterexample_small_s_empty():
    res = run_counterexample((math.sqrt(5) - 1) / 2, 1e-6, [1000])
    assert res.rows[0].mean_R == 0.0


def test_counterexample_dispersion_fields():
    res = run_counterexample((math.sqrt(5) - 1) / 2, 0.5, [100, 300, 1000])
    stats = [r.mean_R for r in res.rows]
    assert res.dispersion == pytest.approx(max(stats) - min(stats))
    assert res.max_abs_deviation == pytest.approx(max(abs(x - 1.0) for x in stats))


def test_variance_decay_requires_samples():
    with pytest.raises(ValueError, match="K >= 30"):
        run_variance_decay(small_config())


def test_variance_decay_runs():
    cfg = ExperimentConfig(family=FAMILY, norm=NormKind.SUP, s_values=(1.0,),
                           N_values=(100, 400, 1600), samples=30, seed=0)
    res = run_variance_decay(cfg)
    assert len(res.rows) == 3
    assert math.isfinite(res.slope)


def test_energy_scan():
    rows = run_energy_scan(FAMILY, [32, 64, 128], ["N^2"])
    assert [r.N for r in rows] == [32, 64, 128]
    for r in rows:
        assert r.ratios["N^2"] == r.E / r.N ** 2
    csv_text = energy_rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "N,E,N^2"
    with pytest.raises(ValueError, match="ascending"):
        run_energy_scan(FAMILY, [64, 32], [])


def test_config_validation():
    with pytest.raises(ValueError, match="1/2"):
        ExperimentConfig(family=(SequenceSpec.identity(),), s_values=(1.0,),
                         N_values=(2,), samples=2)
    with pytest.raises(ValueError):
        ExperimentConfig(family=(), s_values=(1.0,), N_values=(100,), samples=2)
    with pytest.raises(ValueError):
        small_config(samples=0)


def test_config_json_roundtrip(capsys, tmp_path):
    # a config's JSON goes back through --config, the one route from JSON to a run
    cfg = ExperimentConfig(
        family=(SequenceSpec.identity(), SequenceSpec.floor_nlog(2.0, start=3)),
        norm=NormKind.TWO, s_values=(0.5,), N_values=(100,), samples=3, seed=11)
    data = json.loads(json.dumps(cfg.to_json_dict()))
    config_path, out_csv = tmp_path / "config.json", tmp_path / "out.csv"
    config_path.write_text(json.dumps({"mode": "convergence", **data}), encoding="utf-8")
    code = parse_and_dispatch(["--config", str(config_path), "experiment",
                               "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    echo = json.loads(captured.out)["config"]
    assert echo["family"] == ["n", "[n log^2 n]"]
    assert echo["floor_start"] == 3
    assert echo["norm"] == "two"
    assert echo["seed"] == 11
    assert {k: echo[k] for k in data} == data
    assert out_csv.read_text(encoding="utf-8") == rows_to_csv(run_convergence(cfg))


def test_single_sample_variance_zero():
    cfg = ExperimentConfig(family=FAMILY, s_values=(1.0,), N_values=(100,), samples=1)
    row = run_convergence(cfg)[0]
    assert row.var_R == 0.0
