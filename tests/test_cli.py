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


def test_gcdsum_table_mismatch_is_internal_error(capsys, monkeypatch):
    from torusppc import energy, errors

    real = energy._unique_counts_rows

    def dropped(vectors):
        rows, counts = real(vectors)
        counts[0] -= 1          # the grouping loses one ordered pair
        return rows, counts

    monkeypatch.setattr(energy, "_unique_counts_rows", dropped)
    code, out, err = run_cli(capsys, "gcdsum", "--alpha-exp", "1.0", "--family", "n,n^2",
                             "--N", "10")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("torusppc: internal error: representation table holds 98 pairs")
    assert cli.InternalError is errors.InternalError


def test_energy_out_of_trivial_bounds_is_internal_error(capsys, monkeypatch):
    from torusppc import energy

    monkeypatch.setattr(energy, "_energy", lambda cols, pair_budget: 0)   # below N^2
    code, out, err = run_cli(capsys, "energy", "--family", "n^2", "--N", "8")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("torusppc: internal error: energy outside trivial bounds")


def test_gcdsum_support_json(capsys, tmp_path):
    path = tmp_path / "support.json"
    path.write_text(json.dumps({"entries": [[1, 1, 0], [2, 1, 0]]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "gcdsum", "--alpha-exp", "1.0",
                           "--support-json", str(path))
    assert code == 0
    assert json.loads(out)["result"]["gcd_sum"] == pytest.approx(3.0)


def test_gcdsum_support_too_large_to_expand(capsys, tmp_path):
    path = tmp_path / "support.json"
    path.write_text(json.dumps({"entries": [[720720] * 4 + [1, 0]]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "gcdsum", "--alpha-exp", "0.5",
                           "--support-json", str(path))
    assert code == 3
    assert "divisor tuples" in err


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


# one line per command and per experiment mode, with a non-default --seed and an
# --out wherever the command takes them; {out} and {support} are test paths
REPLAY_LINES = {
    "stat": ["stat", "--family", "n,[n log^1.23456789 n]", "--norm", "two", "--s", "0.7",
             "--N", "600", "--seed", "7", "--check-naive"],
    "stat-alpha": ["stat", "--family", "n,n^2", "--alpha=-0.3,0.456", "--s", "1",
                   "--N", "300"],
    "energy": ["energy", "--family", "n,n^2", "--N", "32..64", "--ratios", "N^2,N^3 log^-1",
               "--out", "{out}"],
    "gcdsum-family": ["gcdsum", "--alpha-exp", "0.5", "--family", "n,n^2", "--N", "12"],
    "gcdsum-support": ["gcdsum", "--alpha-exp", "1.0", "--support-json", "{support}"],
    "bessel": ["bessel", "--nu", "1.5", "--t", "300"],
    "experiment-convergence": ["experiment", "--mode", "convergence",
                               "--family", "n,[n log^2 n]", "--floor-start", "3",
                               "--norm", "two", "--s", "0.5,1", "--N", "200,300", "--K", "3",
                               "--seed", "3", "--out", "{out}"],
    "experiment-variance-decay": ["experiment", "--mode", "variance-decay",
                                  "--family", "n,[n log^1.5 n]", "--s", "1", "--N", "100,200",
                                  "--K", "30", "--seed", "4", "--out", "{out}"],
    "experiment-counterexample": ["experiment", "--mode", "counterexample",
                                  "--alpha", "0.6180339887498949", "--s", "0.5",
                                  "--N", "100,300", "--out", "{out}"],
    "experiment-energy-scan": ["experiment", "--mode", "energy-scan",
                               "--family", "n,[n log^2 n]", "--floor-start", "3",
                               "--N", "64,128", "--ratios", "N^2", "--out", "{out}"],
    "verify-eq0": ["verify-eq0", "--alpha-exp", "0.75", "--M", "40", "--samples", "300",
                   "--seed", "9"],
}


@pytest.mark.parametrize("name", sorted(REPLAY_LINES))
def test_replay_and_config_reproduce_the_run(capsys, tmp_path, name):
    out_csv = tmp_path / "out.csv"
    support = tmp_path / "support.json"
    support.write_text(json.dumps({"entries": [[1, 2, 1, 0], [2, 4, 0.5, -0.25]]}),
                       encoding="utf-8")
    argv = [a.format(out=out_csv, support=support) for a in REPLAY_LINES[name]]
    summary_path = tmp_path / "summary.json"
    config_path = tmp_path / "config.json"
    runs = [argv, ["--replay", str(summary_path)], ["--config", str(config_path), argv[0]]]
    outs, csvs = [], []
    for run in runs:
        out_csv.unlink(missing_ok=True)
        code, out, err = run_cli(capsys, *run)
        assert code == 0, err
        outs.append(out)
        csvs.append(out_csv.read_bytes() if "{out}" in REPLAY_LINES[name] else None)
        if len(outs) == 1:
            summary_path.write_text(out, encoding="utf-8")
            config_path.write_text(json.dumps(json.loads(out)["config"]), encoding="utf-8")
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


def test_replay_refuses_a_command_or_config(capsys, tmp_path):
    summary = tmp_path / "b1.json"
    summary.write_text(run_cli(capsys, "bessel", "--nu", "1", "--t", "1")[1], encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 2, "t": 5}), encoding="utf-8")
    for argv in (["--replay", str(summary), "bessel", "--nu", "2", "--t", "5"],
                 ["--replay", str(summary), "--config", str(cfg)],
                 ["--config", str(cfg), "--replay", str(summary), "bessel"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("torusppc: --replay takes no command and no --config")


def test_malformed_support_json_is_config_error(capsys, tmp_path):
    path = tmp_path / "support.json"
    for bad in ({"entries": []}, [1, 2], {}):
        path.write_text(json.dumps(bad), encoding="utf-8")
        for command in (["gcdsum", "--alpha-exp", "1.0"], ["verify-eq0"]):
            code, out, err = run_cli(capsys, *command, "--support-json", str(path))
            assert code == 3 and out == "", (bad, command)
            assert err.startswith("torusppc: invalid configuration:"), err


def test_config_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for typo in ("sed", "se"):      # not a flag, and not a flag in full
        cfg.write_text(json.dumps({"family": "n", "N": 100, typo: 3}), encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(cfg), "stat")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --{typo}=3" in err


def test_seedless_modes_echo_seed_zero(capsys):
    for argv in (["--mode", "counterexample", "--alpha", "0.3", "--s", "0.5", "--N", "100"],
                 ["--mode", "energy-scan", "--N", "16"]):
        code, out, _ = run_cli(capsys, "experiment", *argv, "--seed", "5")
        assert code == 0
        summary = json.loads(out)
        assert summary["seed"] == 0 and "seed" not in summary["config"]


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
    # it runs the identity sequence, so a family is refused rather than ignored
    code, _, err = run_cli(capsys, "experiment", "--mode", "counterexample", "--alpha", "0.3",
                           "--s", "0.5", "--N", "100", "--family", "n^2")
    assert code == 3 and "family" in err


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
    code, out3, _ = run_cli(capsys, f"--config={cfg}", "stat")
    assert code == 0 and out3 == out1


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
