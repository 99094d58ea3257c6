"""Command-line surface.

Every command prints a JSON summary to stdout that echoes the fully
resolved configuration and master seed; tabular results additionally go to
--out as CSV.  A summary written by any command can be re-executed with
``torusppc --replay summary.json`` and reproduces the identical output;
--replay takes no command name and no --config next to it.  Both --replay
and ``--config file.json`` turn a config object into flags by one rule (see
_config_argv); --config puts them right after the command name, so explicit
flags override them, and a key that names no flag of the command is a usage
error.

Exit codes: 0 success, 2 usage error, 3 invalid configuration, 4 I/O error,
5 internal error (a failed self-check, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .bessel import bessel_j
from .experiments import (
    DEFAULT_N_VALUES,
    DEFAULT_S_VALUES,
    ExperimentConfig,
    energy_rows_to_csv,
    rows_to_csv,
    run_convergence,
    run_counterexample,
    run_energy_scan,
    run_variance_decay,
)
from .fixedpoint import TorusPoint, frac_of_real, sample_alpha
from .gcdsum import WeightedSupport, gcd_sum, gcd_sum_from_representations, verify_eq0
from .energy import representation_counts
from .errors import InternalError
from .paircorr import NormKind, ppc_grid, ppc_naive
from .sequences import SequenceSpec, generate, orbit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

DEFAULT_EQ0_SUPPORT = ((1, 1), (1, 2), (2, 1), (2, 2))


class ConfigError(ValueError):
    pass


def _parse_family(text: str, floor_start: int) -> tuple[SequenceSpec, ...]:
    parts = [p for p in (q.strip() for q in text.split(",")) if p]
    if not parts:
        raise ConfigError(f"empty family specification: {text!r}")
    return tuple(SequenceSpec.parse(p, floor_start=floor_start) for p in parts)


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Either a comma list "1000,10000" or a doubling range "512..8192"."""
    text = text.strip()
    if ".." in text:
        lo_txt, hi_txt = text.split("..", 1)
        lo, hi = int(lo_txt), int(hi_txt)
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad range {text!r}")
        vals = []
        n = lo
        while n <= hi:
            vals.append(n)
            n *= 2
        return tuple(vals)
    return tuple(int(p) for p in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _load_support(path: str) -> WeightedSupport:
    data = _read_json(path)
    try:
        entries = {tuple(int(c) for c in coords): complex(float(re_w), float(im_w))
                   for *coords, re_w, im_w in data["entries"]}
    except (KeyError, TypeError) as exc:
        raise ConfigError(f'support file is not {{"entries": [[a1..ad, re, im], ...]}}: '
                          f'{exc!r}') from exc
    return WeightedSupport(d=len(next(iter(entries), ())), entries=entries)


def _emit(summary: dict, out_csv: "str | None" = None, csv_text: "str | None" = None) -> None:
    if out_csv is not None and csv_text is not None:
        Path(out_csv).write_text(csv_text, encoding="utf-8")
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a --config or summary key must name its flag in full
    parser = argparse.ArgumentParser(
        prog="torusppc",
        description="Pair correlation statistics and related counts on the d-torus",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"torusppc {__version__}")
    parser.add_argument("--replay", metavar="SUMMARY_JSON",
                        help="re-run the command captured in a previous JSON summary")
    parser.add_argument("--config", metavar="JSON",
                        help="JSON object of options, keyed like a summary's config "
                             "(flags override)")
    sub = parser.add_subparsers(dest="command")
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("stat", help="one pair correlation statistic")
    p.add_argument("--family", required=True, help="comma list: n, n^l, [n log^A n], file:PATH")
    p.add_argument("--norm", default="sup", help="sup or two")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", default=None, help="comma list of dilation coordinates")
    p.add_argument("--seed", type=int, default=0, help="draw alpha from this seed if --alpha absent")
    p.add_argument("--floor-start", type=int, default=2)
    p.add_argument("--check-naive", action="store_true", help="cross-check with the O(N^2) counter")

    p = add("energy", help="additive/joint additive energy scan")
    p.add_argument("--family", required=True)
    p.add_argument("--N", required=True, help='comma list or doubling range "512..8192"')
    p.add_argument("--ratios", default="", help='comma list like "N^2,N^3 log^-1"')
    p.add_argument("--floor-start", type=int, default=2)
    p.add_argument("--out", default=None, help="CSV output path")

    p = add("gcdsum", help="d-dimensional GCD sum")
    p.add_argument("--alpha-exp", type=float, required=True, help="exponent alpha in (0,1]")
    p.add_argument("--family", default=None, help="build the weight from this family's differences")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--support-json", default=None, help='{"entries": [[a1..ad, re, im], ...]}')
    p.add_argument("--floor-start", type=int, default=2)

    p = add("bessel", help="spot-evaluate the Bessel function")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("experiment", help="Monte Carlo experiment over random alphas")
    p.add_argument("--mode", default="convergence",
                   choices=["convergence", "variance-decay", "counterexample", "energy-scan"])
    p.add_argument("--family", default=None,
                   help="default n,n^2 (counterexample mode takes no family)")
    p.add_argument("--norm", default="sup")
    p.add_argument("--s", default=",".join(str(s) for s in DEFAULT_S_VALUES))
    p.add_argument("--N", default=",".join(str(n) for n in DEFAULT_N_VALUES))
    p.add_argument("--K", type=int, default=20, help="alpha samples per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true",
                   help="record wall time per row (breaks byte reproducibility)")
    p.add_argument("--alpha", type=float, default=None, help="fixed alpha (counterexample mode)")
    p.add_argument("--ratios", default="", help="ratio columns (energy-scan mode)")
    p.add_argument("--floor-start", type=int, default=2)
    p.add_argument("--out", default=None, help="CSV output path")

    p = add("verify-eq0", help="random-model second-moment identity check")
    p.add_argument("--alpha-exp", type=float, default=0.75)
    p.add_argument("--M", type=int, default=200)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--support-json", default=None)

    return parser


def _cmd_stat(args) -> int:
    family = _parse_family(args.family, args.floor_start)
    norm = NormKind.parse(args.norm)
    d = len(family)
    if args.alpha is not None:
        coords = _parse_float_list(args.alpha)
        if len(coords) != d:
            raise ConfigError(f"alpha has {len(coords)} coordinates, family has {d}")
        alpha = TorusPoint(tuple(frac_of_real(c) for c in coords))
        alpha_echo = list(coords)
    else:
        alpha = sample_alpha(args.seed, d)
        alpha_echo = None
    seqs = [generate(spec, args.N) for spec in family]
    res = ppc_grid(orbit(seqs, alpha), args.s, norm)
    if args.check_naive:
        ref = ppc_naive(orbit(seqs, alpha), args.s, norm)
        if ref.near_pairs != res.near_pairs:
            raise InternalError(f"grid and naive counters disagree: "
                                f"{res.near_pairs} != {ref.near_pairs}")
    summary = {
        "command": "stat",
        "config": {
            "family": [f.label() for f in family],
            "floor_start": args.floor_start,
            "norm": norm.value,
            "s": args.s,
            "N": args.N,
            "alpha": alpha_echo,
            "seed": args.seed,
            "check_naive": bool(args.check_naive),
        },
        "seed": args.seed,
        "result": {
            "near_pairs": res.near_pairs,
            "statistic": res.statistic,
            "limit": res.limit,
            "expectation": res.expectation,
        },
    }
    _emit(summary)
    return EXIT_OK


def _cmd_energy(args) -> int:
    family = _parse_family(args.family, args.floor_start)
    n_values = _parse_int_list(args.N)
    ratios = [r.strip() for r in args.ratios.split(",") if r.strip()]
    rows = run_energy_scan(family, n_values, ratios)
    summary = {
        "command": "energy",
        "config": {
            "family": [f.label() for f in family],
            "floor_start": args.floor_start,
            "N": list(n_values),
            "ratios": ratios,
            "out": args.out,
        },
        "seed": 0,
        "rows": [r.to_json_dict() for r in rows],
    }
    _emit(summary, args.out, energy_rows_to_csv(rows))
    return EXIT_OK


def _cmd_gcdsum(args) -> int:
    alpha = args.alpha_exp
    if args.support_json is not None:
        support = _load_support(args.support_json)
        value = gcd_sum(support, alpha)
        source = {"support_json": args.support_json}
    elif args.family is not None and args.N is not None:
        family = _parse_family(args.family, args.floor_start)
        seqs = [generate(spec, args.N) for spec in family]
        table = representation_counts(seqs)
        value = gcd_sum_from_representations(table, alpha)
        source = {"family": [f.label() for f in family], "N": args.N}
    else:
        raise ConfigError("gcdsum needs either --support-json or both --family and --N")
    summary = {
        "command": "gcdsum",
        "config": {"alpha_exp": alpha, "floor_start": args.floor_start, **source},
        "seed": 0,
        "result": {"gcd_sum": value},
    }
    _emit(summary)
    return EXIT_OK


def _cmd_bessel(args) -> int:
    ev = bessel_j(args.nu, args.t)
    summary = {
        "command": "bessel",
        "config": {"nu": args.nu, "t": args.t},
        "seed": 0,
        "result": {
            "value": ev.value,
            "method": ev.method,
            "abs_error_bound": ev.abs_error_bound,
        },
    }
    _emit(summary)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    mode = args.mode
    if mode != "counterexample":
        family = _parse_family("n,n^2" if args.family is None else args.family,
                               args.floor_start)
    elif args.family is not None:
        raise ConfigError("counterexample mode runs the identity sequence; drop --family")
    n_values = _parse_int_list(args.N)
    s_values = _parse_float_list(args.s)
    if mode == "counterexample":
        if args.alpha is None:
            raise ConfigError("counterexample mode needs --alpha")
        if len(s_values) != 1:
            raise ConfigError("counterexample mode takes a single s value")
        result = run_counterexample(args.alpha, s_values[0], n_values, timing=args.timing)
        rows_json = [r.to_json_dict() for r in result.rows]
        extra = {
            "dispersion": result.dispersion,
            "max_abs_deviation": result.max_abs_deviation,
        }
        csv_text = rows_to_csv(result.rows)
        config_echo = {
            "mode": mode, "alpha": args.alpha, "s": list(s_values),
            "N": list(n_values), "timing": bool(args.timing), "out": args.out,
        }
    elif mode == "energy-scan":
        ratios = [r.strip() for r in args.ratios.split(",") if r.strip()]
        scan = run_energy_scan(family, n_values, ratios)
        rows_json = [r.to_json_dict() for r in scan]
        extra = {}
        csv_text = energy_rows_to_csv(scan)
        config_echo = {
            "mode": mode, "family": [f.label() for f in family],
            "floor_start": args.floor_start, "N": list(n_values),
            "ratios": ratios, "out": args.out,
        }
    else:
        config = ExperimentConfig(
            family=family, norm=NormKind.parse(args.norm), s_values=s_values,
            N_values=n_values, samples=args.K, seed=args.seed, timing=args.timing,
        )
        if mode == "variance-decay":
            result = run_variance_decay(config)
            rows = result.rows
            extra = {"slope": result.slope}
        else:
            rows = run_convergence(config)
            extra = {}
        rows_json = [r.to_json_dict() for r in rows]
        csv_text = rows_to_csv(rows)
        config_echo = {"mode": mode, **config.to_json_dict(), "out": args.out}
    summary = {
        "command": "experiment",
        "config": config_echo,
        "seed": config_echo.get("seed", 0),     # counterexample and energy-scan draw nothing
        "rows": rows_json,
        **extra,
    }
    _emit(summary, args.out, csv_text)
    return EXIT_OK


def _cmd_verify_eq0(args) -> int:
    if args.support_json is not None:
        support = _load_support(args.support_json)
    else:
        support = WeightedSupport.ones(DEFAULT_EQ0_SUPPORT)
    record = verify_eq0(support, args.alpha_exp, args.M, args.samples, args.seed)
    summary = {
        "command": "verify-eq0",
        "config": {
            "alpha_exp": args.alpha_exp, "M": args.M, "samples": args.samples,
            "seed": args.seed, "support_json": args.support_json,
        },
        "seed": args.seed,
        "result": record.to_json_dict(),
    }
    _emit(summary)
    return EXIT_OK


_HANDLERS = {
    "stat": _cmd_stat,
    "energy": _cmd_energy,
    "gcdsum": _cmd_gcdsum,
    "bessel": _cmd_bessel,
    "experiment": _cmd_experiment,
    "verify-eq0": _cmd_verify_eq0,
}


# experiment echoes the ExperimentConfig field names of its --s, --N and --K
_ECHO_FLAGS = {"experiment": {"s_values": "s", "N_values": "N", "samples": "K"}}


def _config_argv(command: str, cfg: dict) -> list[str]:
    """Flags for a config object: each key becomes --key-with-dashes, lists are
    joined with commas, true is a bare switch, false and null are left out."""
    names = _ECHO_FLAGS.get(command, {})
    argv = []
    for key, value in cfg.items():
        if value is None or value is False:
            continue
        flag = "--" + names.get(key, key).replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(str(v) for v in value)}")
        else:
            argv.append(f"{flag}={value}")
    return argv


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _insert_config(argv: list[str]) -> list[str]:
    """Put the flags of a --config file right after the command name, so the
    explicit flags that follow override them."""
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path, after = argv[i + 1], i + 2
        elif token.startswith("--config="):
            path, after = token[len("--config="):], i + 1
        else:
            continue
        cfg = _read_json(path)
        if not isinstance(cfg, dict):
            raise ConfigError("a --config file holds one JSON object")
        for k in range(after, len(argv)):
            if argv[k] in _HANDLERS:
                return argv[:k + 1] + _config_argv(argv[k], cfg) + argv[k + 1:]
        break
    return argv


def parse_and_dispatch(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _insert_config(argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else EXIT_OK
        if args.replay:
            if args.command is not None or args.config is not None:
                sys.stderr.write("torusppc: --replay takes no command and no --config; "
                                 "to change a replayed run, give its config to --config\n")
                return EXIT_USAGE
            summary = _read_json(args.replay)
            try:
                command = summary["command"]
                args = parser.parse_args([command, *_config_argv(command, summary["config"])])
            except (KeyError, TypeError, AttributeError, SystemExit) as exc:
                raise ConfigError(f"summary file is not replayable: {exc}") from exc
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"torusppc: invalid configuration: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"torusppc: I/O error: {exc}\n")
        return EXIT_IO
    except InternalError as exc:
        sys.stderr.write(f"torusppc: internal error: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
