import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torusppc import cli
from torusppc.cli import parse_and_dispatch


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which strict parsers refuse."""
    return json.loads(text, parse_constant=_refuse_constant)


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
    code, out, err = run_cli(capsys, "gcdsum", "--alpha-exp", "nan", "--family", "n", "--N", "5")
    assert code == 3 and out == ""
    assert "alpha must lie in (0, 1], got nan" in err


def test_gcdsum_table_mismatch_is_internal_error(capsys, monkeypatch):
    from torusppc import energy, errors

    real = energy._key_groups

    def dropped(*args):
        rows, counts = real(*args)
        counts[0] -= 1          # the grouping loses one ordered pair
        return rows, counts

    monkeypatch.setattr(energy, "_key_groups", dropped)
    code, out, err = run_cli(capsys, "gcdsum", "--alpha-exp", "1.0", "--family", "n,n^2",
                             "--N", "10")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("torusppc: internal error: representation table holds 98 pairs")
    assert cli.InternalError is errors.InternalError


def test_energy_out_of_trivial_bounds_is_internal_error(capsys, monkeypatch):
    from torusppc import energy

    monkeypatch.setattr(energy, "_energy", lambda cols: 0)   # below N^2
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


def test_gcdsum_support_json_with_family_is_config_error(capsys, tmp_path):
    path = tmp_path / "support.json"
    path.write_text(json.dumps({"entries": [[1, 1, 0], [2, 1, 0]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "gcdsum", "--alpha-exp", "1", "--support-json", str(path),
                             "--family", "n,n^2", "--N", "10")
    assert code == 3 and out == ""
    assert "--support-json" in err and "--family" in err


def test_gcdsum_floor_start_belongs_to_the_family_source(capsys, tmp_path):
    path = tmp_path / "support.json"
    path.write_text(json.dumps({"entries": [[1, 1, 0], [2, 1, 0]]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "gcdsum", "--alpha-exp", "1.0", "--support-json", str(path))
    assert code == 0
    assert list(json.loads(out)["config"]) == ["alpha_exp", "support_json"]
    # a support summary that still carries floor_start is refused on replay
    old = json.loads(out)
    old["config"] = {"alpha_exp": 1.0, "floor_start": 2, "support_json": str(path)}
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(json.dumps(old), encoding="utf-8")
    code, out, err = run_cli(capsys, "--replay", str(summary_path))
    assert code == 3 and out == ""
    assert "--floor-start belongs to gcdsum without --support-json, not with --support-json" in err
    code, out, _ = run_cli(capsys, "gcdsum", "--alpha-exp", "0.5", "--family", "n,[n log^2 n]",
                           "--N", "12", "--floor-start", "3")
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config) == ["alpha_exp", "floor_start", "family", "N"]
    assert config["floor_start"] == 3
    code, out, _ = run_cli(capsys, "gcdsum", "--alpha-exp", "0.5", "--family", "n,n^2",
                           "--N", "12")
    assert json.loads(out)["config"]["floor_start"] == 2


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
        summary = strict_json(out)
        outs.append(out)
        assert list(summary)[:3] == ["command", "config", "seed"]
        assert summary["seed"] == summary["config"].get("seed", 0)
        csvs.append(out_csv.read_bytes() if "{out}" in REPLAY_LINES[name] else None)
        if len(outs) == 1:
            summary_path.write_text(out, encoding="utf-8")
            config_path.write_text(json.dumps(json.loads(out)["config"]), encoding="utf-8")
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


def test_experiment_echoes_floor_start_without_floor_family(capsys, tmp_path):
    # with no [n log^A n] family the start index changes nothing, but it is
    # echoed as given, as stat and energy do
    code, out, err = run_cli(capsys, "experiment", "--family", "n,n^2", "--floor-start", "5",
                             "--s", "1", "--N", "100", "--K", "2")
    assert code == 0, err
    assert json.loads(out)["config"]["floor_start"] == 5
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(out, encoding="utf-8")
    code, replayed, err = run_cli(capsys, "--replay", str(summary_path))
    assert code == 0, err
    assert replayed == out


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "torusppc", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: torusppc")


def test_cli_import_leaves_mpmath_unloaded():
    # only the 40-digit Bessel series needs mpmath; it is imported there
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, torusppc.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    for bad in ({"entries": []}, [1, 2], {}, {"entries": [[1, 0]]},
                {"entries": [[1, 1, 1, 0], [1, 1, 2, 0]]},    # a point given twice
                {"entries": [[1.5, 1, 1, 0]]},                # a fractional coordinate
                {"entries": [[1, 2, math.nan, 0]]},           # a non-finite weight
                {"entries": [[1, 2, 1e308, 0], [2, 1, 1e308, 0]]}):   # |f|^2 overflows
        path.write_text(json.dumps(bad), encoding="utf-8")
        for command in (["gcdsum", "--alpha-exp", "1.0"], ["verify-eq0"]):
            code, out, err = run_cli(capsys, *command, "--support-json", str(path))
            assert code == 3 and out == "", (bad, command)
            assert err.startswith("torusppc: invalid configuration:"), err


def test_explicit_file_term_too_large_is_config_error(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(f"1\n2\n{2 ** 64}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "stat", "--family", f"file:{path}", "--N", "3")
    assert code == 3 and out == ""
    assert f"{path}:3: " in err and "exceeds 2**63" in err


def test_config_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for typo in ("sed", "se"):      # not a flag, and not a flag in full
        cfg.write_text(json.dumps({"family": "n", "N": 100, typo: 3}), encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(cfg), "stat")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --{typo}=3" in err


def test_seedless_modes_echo_seed_zero(capsys):
    argv = ["experiment", "--mode", "counterexample", "--alpha", "0.3", "--s", "0.5",
            "--N", "100"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    summary = json.loads(out)
    assert summary["seed"] == 0 and "seed" not in summary["config"]
    # the mode draws nothing, so a seed is refused rather than ignored
    code, out, err = run_cli(capsys, *argv, "--seed", "5")
    assert code == 3 and out == ""
    assert ("--seed belongs to experiment --mode convergence or --mode variance-decay, "
            "not --mode counterexample") in err


def test_stat_with_fixed_alpha_echoes_seed_zero(capsys, tmp_path):
    argv = ["stat", "--family", "n", "--alpha", "0.3", "--s", "1", "--N", "50"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    summary = json.loads(out)
    assert summary["seed"] == 0 and "seed" not in summary["config"]
    path = tmp_path / "summary.json"
    path.write_text(out, encoding="utf-8")
    assert run_cli(capsys, "--replay", str(path)) == (0, out, "")
    # a drawn dilation still echoes its seed in both places
    code, out, _ = run_cli(capsys, "stat", "--family", "n", "--s", "1", "--N", "50",
                           "--seed", "5")
    summary = json.loads(out)
    assert summary["seed"] == 5 and summary["config"]["seed"] == 5


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


def test_alpha_outside_counterexample_is_config_error(capsys):
    for mode in ("convergence", "variance-decay"):
        code, out, err = run_cli(capsys, "experiment", "--mode", mode, "--alpha", "0.3",
                                 "--s", "1", "--N", "100", "--K", "30")
        assert code == 3 and out == "", mode
        assert "--alpha belongs to experiment --mode counterexample" in err


# a line each command variant of cli._VARIANT_FLAGS accepts, keyed by a case name,
# and a value for each flag of the table; {support} is a test path
VARIANT_LINES = {
    "stat-alpha": ("stat", "with --alpha",
                   ["stat", "--family", "n", "--N", "50", "--alpha", "0.3"]),
    "stat-seed": ("stat", "without --alpha", ["stat", "--family", "n", "--N", "50"]),
    "gcdsum-support": ("gcdsum", "with --support-json",
                       ["gcdsum", "--alpha-exp", "1.0", "--support-json", "{support}"]),
    "gcdsum-family": ("gcdsum", "without --support-json",
                      ["gcdsum", "--alpha-exp", "1.0", "--family", "n", "--N", "5"]),
    "convergence": ("experiment", "--mode convergence",
                    ["experiment", "--mode", "convergence", "--K", "30", "--s", "0.5",
                     "--N", "100"]),
    "variance-decay": ("experiment", "--mode variance-decay",
                       ["experiment", "--mode", "variance-decay", "--K", "30", "--s", "0.5",
                        "--N", "100"]),
    "counterexample": ("experiment", "--mode counterexample",
                       ["experiment", "--mode", "counterexample", "--alpha", "0.3",
                        "--s", "0.5", "--N", "100"]),
}
FLAG_VALUES = {"family": "n^2", "N": "10", "norm": "two", "K": "7", "floor_start": "5",
               "seed": "5", "alpha": "0.3"}


def _flag(name):
    return "--" + name.replace("_", "-")


def _variant_line(case, tmp_path):
    support = tmp_path / "support.json"
    support.write_text(json.dumps({"entries": [[1, 1, 0], [2, 1, 0]]}), encoding="utf-8")
    command, variant, argv = VARIANT_LINES[case]
    return command, variant, [a.format(support=support) for a in argv]


def _unread_flags():
    """(case, flag, value) for every variant and every table flag it does not read."""
    for case, (command, variant, _) in VARIANT_LINES.items():
        variants = cli._VARIANT_FLAGS[command]
        for name in dict.fromkeys(name for flags in variants.values() for name in flags):
            if name not in variants[variant]:
                yield case, _flag(name), FLAG_VALUES[name]


def _required_flags():
    for case, (command, variant, _) in VARIANT_LINES.items():
        for name, default in cli._VARIANT_FLAGS[command][variant].items():
            if default is None:
                yield case, _flag(name)


def test_variant_table_drift_gate(capsys, tmp_path):
    # every table flag is a flag of its command that argparse leaves at None when
    # not given, since the rule sees a flag as given only when it is not None
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, variants in cli._VARIANT_FLAGS.items():
        defaults = {action.dest: action.default for action in sub.choices[command]._actions}
        for name in {name for flags in variants.values() for name in flags}:
            assert name in defaults and defaults[name] is None, (command, name)
    # the lines below cover every variant of the table, and each is accepted
    assert sorted((c, v) for c, v, _ in VARIANT_LINES.values()) == sorted(
        (c, v) for c, variants in cli._VARIANT_FLAGS.items() for v in variants)
    for case in VARIANT_LINES:
        code, _, err = run_cli(capsys, *_variant_line(case, tmp_path)[2])
        assert code == 0, (case, err)


@pytest.mark.parametrize("mode,flag,value", list(_unread_flags()))
def test_flag_the_mode_does_not_read_is_config_error(capsys, tmp_path, mode, flag, value):
    command, variant, argv = _variant_line(mode, tmp_path)
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 3 and out == ""
    assert f"{flag} belongs to {command} " in err and err.endswith(f", not {variant}\n")


@pytest.mark.parametrize("case,flag", list(_required_flags()))
def test_missing_required_flag_is_config_error(capsys, tmp_path, case, flag):
    command, variant, argv = _variant_line(case, tmp_path)
    i = argv.index(flag)
    code, out, err = run_cli(capsys, *argv[:i], *argv[i + 2:])
    assert code == 3 and out == ""
    assert err.endswith(f"{command} {variant} needs {flag}\n")


def test_variance_decay_slope_is_null_without_a_fit(capsys):
    # one N gives no log-log fit: the summary holds null, not the invalid NaN
    code, out, err = run_cli(capsys, "experiment", "--mode", "variance-decay",
                             "--N", "100", "--K", "30")
    assert code == 0, err
    assert strict_json(out)["slope"] is None


def test_log_ratio_at_n_one_is_config_error(capsys):
    for ratio in ("N^3 log^-1", "N^2 log^1"):      # log 1 = 0: 0^-1 and E / 0
        code, out, err = run_cli(capsys, "energy", "--family", "n", "--N", "1",
                                 "--ratios", ratio)
        assert code == 3 and out == "", ratio
        assert repr(ratio) in err and "N = 1" in err


@pytest.mark.parametrize("family,n,ratio", [
    ("n^2", 512, "N^-400"),             # g(N) underflows to 0
    ("n", 64, "N^2 log^-1000"),
    ("n", 64, "N^nan"),
    ("n", 64, "N^inf"),
    ("n", 1000, "N^-100"),              # g(N) > 0, but E / g(N) overflows
])
def test_vanishing_or_non_finite_ratio_is_config_error(capsys, family, n, ratio):
    code, out, err = run_cli(capsys, "energy", "--family", family, "--N", str(n),
                             "--ratios", ratio)
    assert code == 3 and out == ""
    assert err.startswith("torusppc: invalid configuration:")
    assert repr(ratio) in err and f"N = {n}" in err


def test_verify_eq0_command(capsys):
    code, out, _ = run_cli(capsys, "verify-eq0", "--alpha-exp", "0.75", "--M", "60",
                           "--samples", "400", "--seed", "1")
    assert code == 0
    result = json.loads(out)["result"]
    for key in ("estimate", "std_error", "exact_truncated_rhs", "untruncated_rhs",
                "samples", "M", "alpha", "seed"):
        assert key in result
    assert abs(result["estimate"] - result["exact_truncated_rhs"]) <= 5 * result["std_error"]


def test_verify_eq0_stdout_does_not_depend_on_the_blas_threads():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "torusppc", "verify-eq0", "--alpha-exp", "0.7",
            "--M", "120", "--samples", "1500", "--seed", "9"]
    outs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run(argv, env={**env, **extra}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["result"]["samples"] == 1500


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "stat", "--family", "n", "--N", "10", "--s", "9",
                           "--alpha", "0.5")
    assert code == 3 and "1/2" in err

    code, out, err = run_cli(capsys, "stat", "--alpha", "0.3", "--seed", "7",
                             "--family", "n", "--N", "10")
    assert code == 3 and out == ""
    assert "--seed belongs to stat without --alpha, not with --alpha" in err

    support = tmp_path / "support.json"
    support.write_text(json.dumps({"entries": [[1, 1, 0]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "gcdsum", "--alpha-exp", "0.5",
                             "--support-json", str(support), "--floor-start", "9")
    assert code == 3 and out == ""
    assert "--floor-start belongs to gcdsum without --support-json, not with --support-json" in err

    for command in (["stat", "--family", "n", "--N", "10"], ["experiment", "--N", "100"]):
        code, out, err = run_cli(capsys, *command, "--s", "nan")
        assert code == 3 and out == "", command
        assert "s must be > 0, got nan" in err

    for mode in ("convergence", "variance-decay"):
        for n in ("0", "-5"):
            code, out, err = run_cli(capsys, "experiment", "--mode", mode, "--N", n)
            assert code == 3 and out == "", (mode, n)
            assert f"N must be >= 1, got {n}" in err

    for command in (["stat", "--family", "n", "--N", "10"], ["experiment", "--N", "100"],
                    ["verify-eq0"]):
        code, out, err = run_cli(capsys, *command, "--seed", "-1")
        assert code == 3 and out == "", command
        assert "seed must be a non-negative integer, got -1" in err

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


def test_second_config_is_usage_error(capsys, tmp_path):
    # only one file is spliced in, so a second one would be dropped unread
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"family": "n", "N": 100}), encoding="utf-8")
    b.write_text(json.dumps({"N": 200}), encoding="utf-8")
    for argv in (["--config", str(a), "--config", str(b), "stat"],
                 [f"--config={a}", f"--config={b}", "stat"],
                 ["--config", str(a), "stat", f"--config={b}"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("torusppc: --config takes one file"), err


@pytest.mark.parametrize("exists", [False, True], ids=["missing-file", "existing-file"])
def test_config_after_command_is_usage_error_unread(capsys, tmp_path, monkeypatch, exists):
    # --config is a flag of torusppc, not of a command: one after the command
    # name is refused by argparse (exit 2) and its file is never opened
    reads = []
    real = cli._read_json
    monkeypatch.setattr(cli, "_read_json", lambda path: reads.append(path) or real(path))
    cfg = tmp_path / "cfg.json"
    if exists:
        cfg.write_text(json.dumps({"N": 7}), encoding="utf-8")
    for tail in (["--config", str(cfg)], [f"--config={cfg}"]):
        code, out, err = run_cli(capsys, "stat", "--family", "n", "--N", "5", *tail)
        assert code == 2 and out == "", tail
        assert "unrecognized arguments: --config" in err, err
    assert reads == []


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
