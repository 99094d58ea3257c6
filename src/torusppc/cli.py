"""Command-line surface.

Every command prints a JSON summary to stdout that echoes the fully
resolved configuration and master seed; tabular results additionally go to
--out as CSV.  A summary has one route: each handler returns its config
echo, its result keys and its CSV text, and parse_and_dispatch alone writes
the CSV to the config's "out", builds {"command", "config", "seed", ...result}
with seed the config's "seed" (0 for a run that draws nothing) and prints
it.  A summary written by any command can be re-executed with
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
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .bessel import bessel_j
from .experiments import (
    DEFAULT_FAMILY,
    DEFAULT_FLOOR_START,
    DEFAULT_N_VALUES,
    DEFAULT_NORM,
    DEFAULT_S_VALUES,
    DEFAULT_SAMPLES,
    ExperimentConfig,
    energy_rows_to_csv,
    rows_to_csv,
    run_convergence,
    run_counterexample,
    run_energy_scan,
    run_variance_decay,
)
from .fixedpoint import point_of_reals, sample_alpha
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

# The experiment flags only some modes read, and their defaults (None: required).
# Every mode reads --mode, --s, --N, --timing and --out; a flag below that the
# chosen mode does not read is refused.
_RANDOM_ALPHA_FLAGS = {
    "family": ",".join(spec.label() for spec in DEFAULT_FAMILY),
    "norm": DEFAULT_NORM.value,
    "K": DEFAULT_SAMPLES,
    "floor_start": DEFAULT_FLOOR_START,
    "seed": 0,
}
_MODE_FLAGS = {
    "convergence": _RANDOM_ALPHA_FLAGS,
    "variance-decay": _RANDOM_ALPHA_FLAGS,
    "counterexample": {"alpha": None},
}


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
    entries = {}
    try:
        for *coords, re_w, im_w in data["entries"]:
            point = tuple(int(c) for c in coords)
            if point != tuple(coords):
                raise ConfigError(f"support point {coords} has a non-integer coordinate")
            if point in entries:
                raise ConfigError(f"support point {coords} appears more than once")
            entries[point] = complex(float(re_w), float(im_w))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f'support file is not {{"entries": [[a1..ad, re, im], ...]}}: '
                          f'{exc!r}') from exc
    return WeightedSupport(d=len(next(iter(entries), ())), entries=entries)


def _read_by(name: str) -> str:
    return " and ".join(mode for mode, flags in _MODE_FLAGS.items() if name in flags) + " mode"


def _mode_help(name: str, text: str) -> str:
    default = next(flags[name] for flags in _MODE_FLAGS.values() if name in flags)
    return (f"{text}; {_read_by(name)} only, "
            + ("required" if default is None else f"default {default}"))


def _mode_flags(args) -> None:
    """Fill in the defaults of the flags args.mode reads, and refuse a missing
    required one or any other mode-dependent flag given."""
    reads = _MODE_FLAGS[args.mode]
    for name in dict.fromkeys(name for flags in _MODE_FLAGS.values() for name in flags):
        flag, given = "--" + name.replace("_", "-"), getattr(args, name) is not None
        if name not in reads and given:
            raise ConfigError(f"{flag} belongs to {_read_by(name)}, not {args.mode}")
        if name in reads and not given:
            if reads[name] is None:
                raise ConfigError(f"{args.mode} mode needs {flag}")
            setattr(args, name, reads[name])


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
    p.add_argument("--seed", type=int, default=None,
                   help="draw alpha from this seed, default 0 (refused with --alpha)")
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
    p.add_argument("--floor-start", type=int, default=None,
                   help=f"first index of [n log^A n], default {DEFAULT_FLOOR_START} "
                        "(refused with --support-json)")

    p = add("bessel", help="spot-evaluate the Bessel function")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("experiment", help="Monte Carlo experiment over random alphas")
    p.add_argument("--mode", default="convergence",
                   choices=["convergence", "variance-decay", "counterexample"])
    p.add_argument("--family", help=_mode_help("family", "comma list of families"))
    p.add_argument("--norm", help=_mode_help("norm", "sup or two"))
    p.add_argument("--K", type=int, help=_mode_help("K", "alpha samples per cell"))
    p.add_argument("--floor-start", type=int,
                   help=_mode_help("floor_start", "first index of [n log^A n]"))
    p.add_argument("--alpha", type=float, help=_mode_help("alpha", "the fixed dilation"))
    p.add_argument("--s", default=",".join(str(s) for s in DEFAULT_S_VALUES),
                   help="comma list; counterexample mode takes one value")
    p.add_argument("--N", default=",".join(str(n) for n in DEFAULT_N_VALUES), help="comma list")
    p.add_argument("--seed", type=int, help=_mode_help("seed", "master seed"))
    p.add_argument("--timing", action="store_true",
                   help="record wall time per row (breaks byte reproducibility)")
    p.add_argument("--out", default=None, help="CSV output path")

    p = add("verify-eq0", help="random-model second-moment identity check")
    p.add_argument("--alpha-exp", type=float, default=0.75)
    p.add_argument("--M", type=int, default=200)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--support-json", default=None)

    return parser


def _cmd_stat(args):
    family = _parse_family(args.family, args.floor_start)
    norm = NormKind.parse(args.norm)
    d = len(family)
    config = {"family": [f.label() for f in family], "floor_start": args.floor_start,
              "norm": norm.value, "s": args.s, "N": args.N}
    if args.alpha is not None:
        if args.seed is not None:
            raise ConfigError("--alpha fixes the dilation, so stat draws nothing: "
                              "give --alpha or --seed, not both")
        coords = _parse_float_list(args.alpha)
        if len(coords) != d:
            raise ConfigError(f"alpha has {len(coords)} coordinates, family has {d}")
        alpha = point_of_reals(coords)
        config["alpha"] = list(coords)      # a fixed dilation draws nothing: no seed
    else:
        seed = 0 if args.seed is None else args.seed
        alpha = sample_alpha(seed, d)
        config.update(alpha=None, seed=seed)
    config["check_naive"] = bool(args.check_naive)
    seqs = [generate(spec, args.N) for spec in family]
    res = ppc_grid(orbit(seqs, alpha), args.s, norm)
    if args.check_naive:
        ref = ppc_naive(orbit(seqs, alpha), args.s, norm)
        if ref.near_pairs != res.near_pairs:
            raise InternalError(f"grid and naive counters disagree: "
                                f"{res.near_pairs} != {ref.near_pairs}")
    result = {"near_pairs": res.near_pairs, "statistic": res.statistic,
              "limit": res.limit, "expectation": res.expectation}
    return config, {"result": result}, None


def _cmd_energy(args):
    family = _parse_family(args.family, args.floor_start)
    n_values = _parse_int_list(args.N)
    ratios = [r.strip() for r in args.ratios.split(",") if r.strip()]
    rows = run_energy_scan(family, n_values, ratios)
    config = {"family": [f.label() for f in family], "floor_start": args.floor_start,
              "N": list(n_values), "ratios": ratios, "out": args.out}
    return config, {"rows": [asdict(r) for r in rows]}, energy_rows_to_csv(rows)


def _cmd_gcdsum(args):
    alpha = args.alpha_exp
    if args.support_json is not None:
        if args.family is not None or args.N is not None:
            raise ConfigError("gcdsum reads one support: --support-json, or --family "
                              "with --N, not both")
        if args.floor_start is not None:
            raise ConfigError("--floor-start belongs to --family; a --support-json "
                              "support has no family")
        support = _load_support(args.support_json)
        value = gcd_sum(support, alpha)
        config = {"alpha_exp": alpha, "support_json": args.support_json}
    elif args.family is not None and args.N is not None:
        floor_start = DEFAULT_FLOOR_START if args.floor_start is None else args.floor_start
        family = _parse_family(args.family, floor_start)
        seqs = [generate(spec, args.N) for spec in family]
        table = representation_counts(seqs)
        value = gcd_sum_from_representations(table, alpha)
        config = {"alpha_exp": alpha, "floor_start": floor_start,
                  "family": [f.label() for f in family], "N": args.N}
    else:
        raise ConfigError("gcdsum needs either --support-json or both --family and --N")
    return config, {"result": {"gcd_sum": value}}, None


def _cmd_bessel(args):
    ev = bessel_j(args.nu, args.t)
    result = {"value": ev.value, "method": ev.method, "abs_error_bound": ev.abs_error_bound}
    return {"nu": args.nu, "t": args.t}, {"result": result}, None


def _cmd_experiment(args):
    _mode_flags(args)
    n_values = _parse_int_list(args.N)
    s_values = _parse_float_list(args.s)
    if args.mode == "counterexample":
        if len(s_values) != 1:
            raise ConfigError("counterexample mode takes a single s value")
        result = run_counterexample(args.alpha, s_values[0], n_values, timing=args.timing)
        rows = result.rows
        extra = {"dispersion": result.dispersion, "max_abs_deviation": result.max_abs_deviation}
        config = {"mode": args.mode, "alpha": args.alpha, "s": list(s_values),
                  "N": list(n_values), "timing": bool(args.timing), "out": args.out}
    else:
        experiment = ExperimentConfig(
            family=_parse_family(args.family, args.floor_start), norm=NormKind.parse(args.norm),
            s_values=s_values, N_values=n_values, samples=args.K, seed=args.seed,
            timing=args.timing,
        )
        if args.mode == "variance-decay":
            result = run_variance_decay(experiment)
            rows, extra = result.rows, {"slope": result.slope}
        else:
            rows, extra = run_convergence(experiment), {}
        config = {"mode": args.mode, **experiment.to_json_dict(), "out": args.out}
        # the flag as given: the config only knows the start of a floor family
        config["floor_start"] = args.floor_start
    return config, {"rows": [asdict(r) for r in rows], **extra}, rows_to_csv(rows)


def _cmd_verify_eq0(args):
    if args.support_json is not None:
        support = _load_support(args.support_json)
    else:
        support = WeightedSupport.ones(DEFAULT_EQ0_SUPPORT)
    record = verify_eq0(support, args.alpha_exp, args.M, args.samples, args.seed)
    config = {"alpha_exp": args.alpha_exp, "M": args.M, "samples": args.samples,
              "seed": args.seed, "support_json": args.support_json}
    return config, {"result": asdict(record)}, None


# each handler returns (config, body, csv_text), csv_text None for a command
# without --out; parse_and_dispatch turns them into the summary
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
        config, body, csv_text = _HANDLERS[args.command](args)
        if csv_text is not None and config["out"] is not None:
            Path(config["out"]).write_text(csv_text, encoding="utf-8")
        summary = {"command": args.command, "config": config, "seed": config.get("seed", 0),
                   **body}
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
        return EXIT_OK
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
