import dataclasses
import json
import math

import pytest

from torusppc import cli
from torusppc.cli import parse_and_dispatch


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stat_with_fixed_alpha(capsys):
    code, out, _ = run_cli(capsys, "stat", "--family", "n,n^2", "--norm", "sup",
                           "--s", "1", "--N", "500", "--alpha", "0.123,0.456",
                           "--check-naive")
    assert code == 0
    summary = json.loads(out)
    assert summary["command"] == "stat"
    assert summary["config"]["family"] == ["n", "n^2"]
    assert summary["result"]["limit"] == 4.0
    assert summary["result"]["statistic"] == summary["result"]["near_pairs"] / 500


def test_stat_seeded_alpha_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "stat", "--family", "n", "--N", "100",
                            "--s", "0.4", "--seed", "5")
    assert code == 0
    code, out2, _ = run_cli(capsys, "stat", "--family", "n", "--N", "100",
                            "--s", "0.4", "--seed", "5")
    assert out1 == out2


def test_bessel_command(capsys):
    code, out, _ = run_cli(capsys, "bessel", "--nu", "1", "--t", "1")
    assert code == 0
    summary = json.loads(out)
    assert summary["result"]["value"] == pytest.approx(0.44005058574493355, abs=1e-10)
    assert summary["result"]["method"] == "series"


def test_energy_command_with_csv(capsys, tmp_path):
    out_path = tmp_path / "energy.csv"
    code, out, _ = run_cli(capsys, "energy", "--family", "n,n^2", "--N", "32..128",
                           "--ratios", "N^2", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert [r["N"] for r in summary["rows"]] == [32, 64, 128]
    lines = out_path.read_text().splitlines()
    assert lines[0] == "N,E,N^2"
    assert len(lines) == 4


def test_gcdsum_command(capsys):
    code, out, _ = run_cli(capsys, "gcdsum", "--alpha-exp", "1.0", "--family", "n",
                           "--N", "10")
    assert code == 0
    value = json.loads(out)["result"]["gcd_sum"]
    assert value > 0
    code, out, _ = run_cli(capsys, "gcdsum", "--alpha-exp", "1.0")
    assert code == 3


def test_gcdsum_support_json(capsys, tmp_path):
    path = tmp_path / "support.json"
    path.write_text(json.dumps({"entries": [[1, 1, 0], [2, 1, 0]]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "gcdsum", "--alpha-exp", "1.0",
                           "--support-json", str(path))
    assert code == 0
    assert json.loads(out)["result"]["gcd_sum"] == pytest.approx(3.0)


def test_experiment_convergence_and_replay(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    argv = ["experiment", "--mode", "convergence", "--family", "n,n^2",
            "--norm", "two", "--s", "1", "--N", "200,500", "--K", "4",
            "--seed", "3", "--out", str(csv_path)]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    csv1 = csv_path.read_text()
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(out1, encoding="utf-8")

    code, out2, _ = run_cli(capsys, "--replay", str(summary_path))
    assert code == 0
    assert out1 == out2
    assert csv_path.read_text() == csv1


def test_experiment_worker_counts_identical(capsys, tmp_path):
    outs = []
    csvs = []
    csv_path = tmp_path / "rows.csv"
    for workers in ("1", "3"):
        code, out, _ = run_cli(capsys, "experiment", "--family", "n,n^2",
                               "--s", "0.5", "--N", "300", "--K", "6",
                               "--seed", "8", "--workers", workers,
                               "--out", str(csv_path))
        assert code == 0
        outs.append(out)
        csvs.append(csv_path.read_bytes())
    assert outs[0] == outs[1]
    assert csvs[0] == csvs[1]


def test_experiment_counterexample(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--mode", "counterexample",
                           "--alpha", str((math.sqrt(5) - 1) / 2), "--s", "0.5",
                           "--N", "100,300,1000")
    assert code == 0
    summary = json.loads(out)
    assert "dispersion" in summary and "max_abs_deviation" in summary
    assert len(summary["rows"]) == 3
    # counterexample without alpha is a config error
    code, _, err = run_cli(capsys, "experiment", "--mode", "counterexample",
                           "--s", "0.5", "--N", "100")
    assert code == 3 and "alpha" in err


def test_experiment_energy_scan(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--mode", "energy-scan",
                           "--family", "n,[n log^2 n]", "--floor-start", "3",
                           "--N", "64,128", "--ratios", "N^2")
    assert code == 0
    summary = json.loads(out)
    assert len(summary["rows"]) == 2


def test_verify_eq0_command(capsys):
    code, out, _ = run_cli(capsys, "verify-eq0", "--alpha-exp", "0.75", "--M", "60",
                           "--samples", "400", "--seed", "1")
    assert code == 0
    result = json.loads(out)["result"]
    for key in ("estimate", "std_error", "exact_truncated_rhs", "untruncated_rhs",
                "samples", "M", "alpha", "seed"):
        assert key in result
    assert abs(result["estimate"] - result["exact_truncated_rhs"]) <= 5 * result["std_error"]


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "stat", "--family", "n", "--N", "10", "--s", "9",
                           "--alpha", "0.5")
    assert code == 3 and "1/2" in err

    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2

    code, _, _ = run_cli(capsys, "stat", "--family", "n", "--N", "10", "--bogus-flag")
    assert code == 2

    code, _, err = run_cli(capsys, "gcdsum", "--alpha-exp", "0.5",
                           "--support-json", "/nonexistent/path.json")
    assert code == 4

    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "n", "N": 100, "s": 0.4, "seed": 6}),
                   encoding="utf-8")
    code, out1, _ = run_cli(capsys, "--config", str(cfg), "stat")
    assert code == 0
    assert json.loads(out1)["config"]["N"] == 100
    # explicit flag overrides the file value
    code, out2, _ = run_cli(capsys, "--config", str(cfg), "stat", "--N", "200")
    assert code == 0
    assert json.loads(out2)["config"]["N"] == 200


def test_help_is_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--help")
    assert code == 0


def test_check_naive_mismatch_is_internal_error(capsys, monkeypatch):
    real = cli.ppc_naive

    def off_by_two(*args):
        res = real(*args)
        return dataclasses.replace(res, near_pairs=res.near_pairs + 2)

    monkeypatch.setattr(cli, "ppc_naive", off_by_two)
    code, out, err = run_cli(capsys, "stat", "--family", "n,n^2", "--s", "1",
                             "--N", "300", "--alpha", "0.123,0.456", "--check-naive")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("torusppc: internal error: grid and naive counters disagree")
    assert err.count("\n") == 1
