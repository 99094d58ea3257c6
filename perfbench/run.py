"""Benchmark of the torusppc command line, end to end and per layer.

    python3 perfbench/run.py --workload mc-grid --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7             # the four in turn
    python3 perfbench/run.py --workload all --size smoke --seconds 1   # seconds, not minutes
    python3 perfbench/run.py --self-test                         # checks catch bad output

Run it from the root of a checkout; it imports the package from ``src``.
Each repetition of a workload runs in a fresh interpreter (``child.py``)
that calls ``torusppc.cli.parse_and_dispatch`` once per command, so every
repetition pays the imports a user pays.  Repetitions run one at a time, in a
closed loop, until the next one would end after ``--seconds``; at least one
runs.  Workloads, their argv, why each was chosen and which end-to-end metric
each layer metric should move are in ``workloads.json``; the metric names and
units are those of ``BENCHMARK.json``.

End to end (``--trace 0``), as medians over the run:

* ``setup_s``: fresh interpreter to a ready ``torusppc.cli`` (the imports of
  torusppc, numpy and mpmath), timed by this process from start to the child's
  ``ready`` line, over every repetition and SETUP_PROBES import-only starts
  before and after the repetitions (the machine's speed drifts over a run);
* ``run_s``: wall time of the workload's commands, set-up excluded;
* ``peak_rss_mb``: peak resident set of the workload process (``VmHWM``).

``error_rate`` (failed / attempted commands) is printed too; a command fails
on a non-zero exit, on unparsable JSON or when ``checks.py`` rejects its
output.  The checks run after the timed repetitions.

Per layer (``--trace 1``): untraced and traced repetitions alternate.  In a
traced one, each call into a module's public functions is wrapped where its
caller looks it up, and the spans kept in memory are written to
``perfbench/out`` at the end.  The layer metrics are self times (span minus
child spans), which sum to the traced ``run_s``, and work counts.  They come
from the traced repetition with the median ``run_s``; ``trace.overhead_s`` is
the median traced minus the median untraced ``run_s``.  ``bessel`` is not on
any workload's path and is not traced.

Every result records the environment (cores, CPU, caches, memory, library
versions, BLAS threads, source digest).  The machine's core count is
recorded, not varied: no scaling figures are measured.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 120
SELF_SUM_TOL_S = 1e-6

# span name -> the self-time metric it is charged to; every span is charged,
# so these metrics sum to the traced run_s
SELF_METRICS = {
    "cli.parse_and_dispatch": "cli.self_s",
    "experiments.run_convergence": "experiments.self_s",
    "experiments.run_energy_scan": "experiments.self_s",
    "fixedpoint.sample_alpha": "fixedpoint.sample_alpha_s",
    "sequences.generate": "sequences.generate_s",
    "sequences.orbit": "sequences.orbit_s",
    "paircorr.ppc_grid": "paircorr.ppc_grid_s",
    "energy.energy_bound_report": "energy.report_self_s",
    "energy.joint_additive_energy": "energy.sum_sq_s",
    "energy.representation_counts": "energy.representation_counts_s",
    "energy.additive_energy": "energy.additive_energy_s",
    "gcdsum.support_from_representations": "gcdsum.support_s",
    "gcdsum.gcd_sum": "gcdsum.gcd_sum_s",
    "gcdsum.truncated_rhs": "gcdsum.truncated_rhs_s",
    "gcdsum.verify_eq0": "gcdsum.model_self_s",
}

# work counts that must repeat exactly across repetitions of one seed
EXACT_COUNTS = ("paircorr.calls", "paircorr.points", "paircorr.near_pairs",
                "paircorr.call_samples", "sequences.generate_terms",
                "energy.table_vectors", "gcdsum.support_K")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crashed child)."""


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_child(job: dict) -> "tuple[float, dict | None]":
    """Start child.py on job; return its set-up time and its report."""
    job = {"src": str(SRC), "trace": False, "run_id": "", "commands": [], **job}
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"workload process timed out after {CHILD_TIMEOUT_S} s") from None
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    return setup_s, (json.loads(rest) if rest.strip() else None)


def probe_setup() -> list[float]:
    return [run_child({"setup_only": True})[0] for _ in range(SETUP_PROBES)]


def measure(workload: str, commands: list, seed: int, seconds: float, trace: bool):
    """Set-up samples and (traced, report) repetitions of one workload."""
    run_child({"setup_only": True})     # untimed: byte-compiles src, fills the file cache
    setups = probe_setup()
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        setup_s, report = run_child({"commands": commands, "trace": traced,
                                     "run_id": f"{workload}/s{seed}/r{len(reps)}"})
        last = time.perf_counter() - t0
        setups.append(setup_s)
        reps.append((traced, report))
        enough = not trace or len(reps) >= 2
        if enough and time.perf_counter() - start + last > seconds:
            return setups + probe_setup(), reps


def layer_metrics(report: dict, names: list[str]) -> dict:
    """Per-layer metrics of one traced repetition from its spans."""
    spans = report["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    m = dict.fromkeys(names, 0.0)
    for s, d in zip(spans, own):
        if s["name"] not in SELF_METRICS:
            raise BenchError(f"span {s['name']} has no self-time metric")
        m[SELF_METRICS[s["name"]]] += d

    def named(name):
        return [(s, d) for s, d in zip(spans, dur) if s["name"] == name]

    def count(name, key):
        return sum(s["counts"][key] for s, _ in named(name))

    ppc = named("paircorr.ppc_grid")
    m["sequences.generate_terms"] = count("sequences.generate", "N")
    m["paircorr.calls"] = len(ppc)
    m["paircorr.points"] = count("paircorr.ppc_grid", "N")
    m["paircorr.near_pairs"] = count("paircorr.ppc_grid", "near_pairs")
    if ppc:
        m["paircorr.points_per_s"] = m["paircorr.points"] / m["paircorr.ppc_grid_s"]
        largest = max(s["counts"]["N"] for s, _ in ppc)
        lat = sorted(1000.0 * d for s, d in ppc if s["counts"]["N"] == largest)
        m["paircorr.call_samples"] = len(lat)
        m["paircorr.call_ms_p50"] = statistics.median(lat)
        # highest percentile with at least ten samples above it
        m["paircorr.call_ms_tail"] = lat[-11] if len(lat) >= 11 else 0.0
    else:
        m["paircorr.call_samples"] = 0
    m["energy.table_vectors"] = count("energy.representation_counts", "vectors")
    pairs = sum(s["counts"]["N"] ** 2 for s, _ in named("energy.additive_energy"))
    if pairs:
        m["energy.pairs_per_s"] = pairs / m["energy.additive_energy_s"]
    m["gcdsum.support_K"] = count("gcdsum.support_from_representations", "K")
    m["gcdsum.verify_eq0_s"] = sum((d for _, d in named("gcdsum.verify_eq0")), 0.0)
    samples = count("gcdsum.verify_eq0", "samples")
    if samples:
        m["gcdsum.mc_samples_per_s"] = samples / m["gcdsum.model_self_s"]
    m["trace.run_s"] = report["run_s"]
    self_sum = sum(m[k] for k in set(SELF_METRICS.values()))
    if abs(self_sum - report["run_s"]) > SELF_SUM_TOL_S:
        raise BenchError(f"self times sum to {self_sum} s, traced run_s is {report['run_s']} s")
    return m


def check_reps(workload: str, spec: dict, seed: int, size: str, reps: list) -> list[str]:
    """Failure messages for every failed command of every repetition."""
    import checks

    references = load_json(HERE / "reference.json")
    params = spec.get("check", {})
    verdicts: dict = {}
    failures = []
    for r, (_, report) in enumerate(reps):
        for i, command in enumerate(report["commands"]):
            key = (i, command["exit"], command["stdout"])
            if key not in verdicts:
                verdicts[key] = checks.check_command(
                    workload, i, command, seed, params,
                    checks.reference_for(workload, size, i, references))
            if verdicts[key]:
                failures.append(f"repetition {r} command {i}: {verdicts[key]}")
    return failures


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _blas_threads() -> "int | None":
    """Thread count of the OpenBLAS that numpy loaded, when it is OpenBLAS."""
    import numpy  # noqa: F401  (loads the BLAS library)

    libs = [line.split()[-1] for line in _read(Path("/proc/self/maps")).splitlines()
            if "openblas" in line.lower()]
    for path in libs[:1]:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpuinfo = _read(Path("/proc/cpuinfo")).splitlines()
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    meminfo = _read(Path("/proc/meminfo")).splitlines()
    ram = next((line.split(":", 1)[1].strip() for line in meminfo
                if line.startswith("MemTotal")), None)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "ram": ram,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def bench_workload(workload: str, args, wl: dict, bench: dict, env: dict) -> None:
    spec = wl["workloads"][workload][args.size]
    commands = [[a.format(seed=args.seed) for a in argv] for argv in spec["argv"]]
    trace = bool(args.trace)
    setups, reps = measure(workload, commands, args.seed, args.seconds, trace)
    failures = check_reps(workload, spec, args.seed, args.size, reps)
    attempted = sum(len(rep["commands"]) for _, rep in reps)
    plain = [rep for traced, rep in reps if not traced]
    run_s = statistics.median(rep["run_s"] for rep in plain)
    notes = {}
    if trace:
        wanted = bench["per_layer"]
        names = [m["name"] for m in wanted]
        traced = sorted((rep for t, rep in reps if t), key=lambda rep: rep["run_s"])
        per_rep = [layer_metrics(rep, names) for rep in traced]
        for key in EXACT_COUNTS:
            if len({m[key] for m in per_rep}) > 1:
                failures.append(f"{key} differs between repetitions of one seed")
        values = per_rep[(len(per_rep) - 1) // 2]
        values["proc.cpu_s"] = statistics.median(rep["cpu_s"] for rep in plain)
        values["trace.overhead_s"] = values["trace.run_s"] - run_s
        if values["paircorr.call_samples"]:
            n = values["paircorr.call_samples"]
            notes["paircorr.call_ms_p50"] = f"{n} calls at the largest N"
            notes["paircorr.call_ms_tail"] = (
                f"p{100 * (n - 10) / n:.1f} of {n} calls" if n >= 11 else
                f"undefined with {n} calls (needs 11)")
        spans_path = OUT / f"spans-{workload}-seed{args.seed}-{args.size}.jsonl"
        OUT.mkdir(exist_ok=True)
        with spans_path.open("w", encoding="utf-8") as f:
            for rep in traced:
                for index, s in enumerate(rep["spans"]):
                    f.write(json.dumps({"id": index, **s}) + "\n")
        notes["trace.run_s"] = f"spans in {spans_path.relative_to(ROOT)}"
    else:
        wanted = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(rep["peak_rss_kb"] / 1024.0 for rep in plain),
        }
        notes = {"setup_s": f"median of {len(setups)} starts",
                 "run_s": f"median of {len(plain)} repetitions",
                 "peak_rss_mb": f"median of {len(plain)} repetitions"}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{workload} seed {args.seed} size {args.size}: {len(plain)} untraced and "
          f"{len(reps) - len(plain)} traced repetitions")
    for name, metric in metrics.items():
        print(f"  {name:34s} {_fmt(metric['value']):>14s} {metric['unit']:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':34s} {_fmt(len(failures) / attempted):>14s} {'ratio':6s} "
          f"{len(failures)} failed of {attempted} commands")
    for line in failures:
        print(f"  FAILED {line}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "size": args.size, "trace": args.trace,
              "argv": commands, "env": env, "failures": failures,
              "repetitions": [{"traced": t, "run_s": rep["run_s"], "cpu_s": rep["cpu_s"],
                               "peak_rss_kb": rep["peak_rss_kb"]} for t, rep in reps],
              "setup_samples_s": setups, **result}
    (OUT / f"{workload}-seed{args.seed}-trace{args.trace}-{args.size}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))


def _bump_recount_row(summary: dict) -> None:
    row = next(r for r in summary["rows"] if r["N"] == 1000)
    row["mean_R"] += 2 / (row["N"] * row["K"])      # one sample with near_pairs + 2


def _bump_near_pairs(summary: dict) -> None:
    result = summary["result"]
    result["near_pairs"] += 2
    result["statistic"] = result["near_pairs"] / summary["config"]["N"]


def _bump_last_energy(summary: dict) -> None:
    summary["rows"][-1]["E"] += 1


def _scale_gcd_sum(summary: dict) -> None:
    summary["result"]["gcd_sum"] *= 1 + 1e-6


def _move_estimate(summary: dict) -> None:
    r = summary["result"]
    r["estimate"] = r["exact_truncated_rhs"] + 6 * r["std_error"]


# alterations of genuine output that the checks must reject:
# (workload, command index, label, in-place edit of the parsed summary)
ALTERATIONS = (
    ("mc-grid", 0, "one N=1000 sample near_pairs + 2", _bump_recount_row),
    ("stat-ball3", 0, "near_pairs + 2", _bump_near_pairs),
    ("energy-scan", 0, "joint energy E + 1", _bump_last_energy),
    ("energy-scan", 1, "n^2 energy E + 1", _bump_last_energy),
    ("gcd-model", 0, "gcd_sum x (1 + 1e-6)", _scale_gcd_sum),
    ("gcd-model", 1, "estimate 6 standard errors off", _move_estimate),
)


def self_test(args, wl: dict) -> int:
    """Genuine smoke outputs must pass the checks and altered ones must fail."""
    import checks

    references = load_json(HERE / "reference.json")
    ok = True
    for workload, entry in wl["workloads"].items():
        spec = entry["smoke"]
        commands = [[a.format(seed=args.seed) for a in argv] for argv in spec["argv"]]
        _, report = run_child({"commands": commands})

        def verdict(index, command):
            return checks.check_command(workload, index, command, args.seed,
                                        spec.get("check", {}),
                                        checks.reference_for(workload, "smoke", index, references))

        cases = [("genuine output", i, c, False) for i, c in enumerate(report["commands"])]
        first = report["commands"][0]
        cases.append(("exit code 3", 0, {**first, "exit": 3}, True))
        cases.append(("truncated JSON", 0, {**first, "stdout": first["stdout"][:-20]}, True))
        for name, index, label, edit in ALTERATIONS:
            if name == workload:
                summary = json.loads(report["commands"][index]["stdout"])
                edit(summary)
                altered = {**report["commands"][index], "stdout": json.dumps(summary)}
                cases.append((label, index, altered, True))
        for label, index, command, should_fail in cases:
            message = verdict(index, command)
            good = bool(message) == should_fail
            ok &= good
            outcome = (f"rejected ({message})" if message else "accepted")
            print(f"self-test {workload} command {index} {label}: {outcome}"
                  f"{'' if good else '  <-- WRONG'}")
    print(f"self-test {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "torusppc" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no torusppc sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    wl = load_json(HERE / "workloads.json")
    if args.self_test:
        return self_test(args, wl)
    names = list(wl["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl["workloads"]]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(wl['workloads'])} or all")
    bench = load_json(ROOT / "BENCHMARK.json")
    env = environment()
    print("env " + json.dumps(env))
    try:
        for name in names:
            bench_workload(name, args, wl, bench, env)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
