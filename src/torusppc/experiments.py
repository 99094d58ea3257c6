"""Monte Carlo experiment harness over random dilation vectors.

Each (N, s, sample-index) cell derives its own PCG64 seed from the master
seed, so a table depends only on the configuration and replays byte for
byte.  A fresh alpha is drawn per sample (never reused across N), which
makes the sample variance at each N an estimate of the variance of the
statistic over the dilation measure.
"""

from __future__ import annotations

import io
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .fixedpoint import sample_alpha
from .errors import InternalError
from .paircorr import NormKind, ppc_grid, ppc_limit, ppc_naive, threshold
from .sequences import SequenceData, SequenceSpec, generate, orbit
from . import energy as energy_mod

DEFAULT_N_VALUES = (1_000, 10_000, 100_000)
DEFAULT_S_VALUES = (0.5, 1.0, 2.0)
DEFAULT_SAMPLES = 20

CSV_HEADER = "N,s,K,mean_R,var_R,limit,expectation,seconds"


@dataclass(frozen=True)
class ExperimentConfig:
    family: tuple[SequenceSpec, ...]
    norm: NormKind = NormKind.SUP
    s_values: tuple[float, ...] = DEFAULT_S_VALUES
    N_values: tuple[int, ...] = DEFAULT_N_VALUES
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    timing: bool = False        # measured wall time breaks byte-reproducibility

    def __post_init__(self) -> None:
        if len(self.family) < 1:
            raise ValueError("need at least one sequence family")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        for n in self.N_values:
            for s in self.s_values:
                threshold(s, n, len(self.family))

    @property
    def dimension(self) -> int:
        return len(self.family)

    def to_json_dict(self) -> dict:
        return {
            "family": [spec.label() for spec in self.family],
            "floor_start": max((spec.start for spec in self.family
                                if spec.kind == "floor_nlog"), default=2),
            "norm": self.norm.value,
            "s_values": list(self.s_values),
            "N_values": list(self.N_values),
            "samples": self.samples,
            "seed": self.seed,
            "timing": self.timing,
        }


@dataclass(frozen=True)
class ExperimentRow:
    N: int
    s: float
    K: int
    mean_R: float
    var_R: float                # sample variance across the K alpha draws
    limit: float
    expectation: float          # limit * (N-1)/N
    seconds: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def cell_seed(master: int, N: int, s_index: int, k: int) -> int:
    """Splittable per-cell seed: one derived PCG64 stream per (N, s, sample)."""
    ss = np.random.SeedSequence((int(master), int(N), int(s_index), int(k)))
    return int(ss.generate_state(1, np.uint64)[0])


def _sample_statistic(seqs: Sequence[SequenceData], s: float, norm: NormKind,
                      master: int, N: int, s_index: int, k: int) -> float:
    alpha = sample_alpha(cell_seed(master, N, s_index, k), len(seqs))
    pts = orbit(seqs, alpha)
    return ppc_grid(pts, s, norm).statistic


def _collect_samples(seqs, s, norm, master, N, s_index, samples) -> np.ndarray:
    return np.array([_sample_statistic(seqs, s, norm, master, N, s_index, k)
                     for k in range(samples)], dtype=np.float64)


def _aggregate(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) if values.size >= 2 else 0.0
    return mean, var


def run_convergence(config: ExperimentConfig) -> list[ExperimentRow]:
    """Mean and variance of the statistic over K random alphas per (N, s)."""
    rows = []
    d = config.dimension
    for n in config.N_values:
        seqs = [generate(spec, n) for spec in config.family]
        for s_index, s in enumerate(config.s_values):
            t0 = time.perf_counter()
            values = _collect_samples(seqs, s, config.norm, config.seed, n,
                                      s_index, config.samples)
            elapsed = time.perf_counter() - t0
            mean, var = _aggregate(values)
            limit = ppc_limit(s, d, config.norm)
            rows.append(ExperimentRow(
                N=n, s=s, K=config.samples, mean_R=mean, var_R=var,
                limit=limit, expectation=limit * (n - 1) / n,
                seconds=elapsed if config.timing else 0.0,
            ))
    return rows


@dataclass(frozen=True)
class CounterexampleResult:
    rows: tuple[ExperimentRow, ...]
    dispersion: float           # max - min of the statistic over the N grid
    max_abs_deviation: float    # max |R - limit| over the N grid


def run_counterexample(alpha: float, s: float, N_values: Sequence[int],
                       timing: bool = False) -> CounterexampleResult:
    """Trajectory of the one-dimensional statistic for the fixed dilation alpha.

    The family is the identity sequence; non-convergence to 2s shows up as
    dispersion of the trajectory across the N grid.
    """
    from .fixedpoint import TorusPoint, frac_of_real

    point = TorusPoint((frac_of_real(alpha),))
    rows = []
    stats = []
    for n in N_values:
        seqs = [generate(SequenceSpec.identity(), n)]
        t0 = time.perf_counter()
        res = ppc_grid(orbit(seqs, point), s, NormKind.SUP)
        elapsed = time.perf_counter() - t0
        stats.append(res.statistic)
        rows.append(ExperimentRow(
            N=n, s=s, K=1, mean_R=res.statistic, var_R=0.0,
            limit=res.limit, expectation=res.expectation,
            seconds=elapsed if timing else 0.0,
        ))
    stats_arr = np.array(stats)
    limit = 2.0 * s
    return CounterexampleResult(
        rows=tuple(rows),
        dispersion=float(stats_arr.max() - stats_arr.min()),
        max_abs_deviation=float(np.abs(stats_arr - limit).max()),
    )


@dataclass(frozen=True)
class VarianceDecayResult:
    rows: tuple[ExperimentRow, ...]
    slope: float                # fitted d log(var) / d log(N)


def run_variance_decay(config: ExperimentConfig) -> VarianceDecayResult:
    """Sample variance across alphas at each N plus a log-log decay slope."""
    if config.samples < 30:
        raise ValueError("variance decay needs K >= 30 samples for stable estimates")
    rows = run_convergence(config)
    by_n: dict[int, list[float]] = {}
    for row in rows:
        by_n.setdefault(row.N, []).append(row.var_R)
    ns = sorted(by_n)
    var_means = [float(np.mean(by_n[n])) for n in ns]
    if len(ns) >= 2 and all(v > 0 for v in var_means):
        slope = float(np.polyfit(np.log(ns), np.log(var_means), 1)[0])
    else:
        slope = float("nan")
    return VarianceDecayResult(rows=tuple(rows), slope=slope)


@dataclass(frozen=True)
class EnergyScanRow:
    N: int
    E: int
    ratios: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def run_energy_scan(family: Sequence[SequenceSpec], N_values: Sequence[int],
                    comparisons: Sequence[str] = (),
                    pair_budget: int = energy_mod.DEFAULT_PAIR_BUDGET) -> list[EnergyScanRow]:
    """Energy (joint for d >= 2) and ratio columns along an ascending N grid."""
    if list(N_values) != sorted(N_values):
        raise ValueError("N grid must be ascending")
    rows = []
    for n in N_values:
        seqs = [generate(spec, n) for spec in family]
        report = energy_mod.energy_bound_report(seqs, comparisons, pair_budget=pair_budget)
        rows.append(EnergyScanRow(N=n, E=report.E, ratios=dict(report.ratios)))
    return rows


def spot_check_convergence(config: ExperimentConfig, fraction: float = 0.1,
                           max_naive_n: int = 4000) -> int:
    """Recompute a deterministic subsample of cells with the naive counter.

    Returns the number of cells re-verified; raises InternalError on any
    grid/naive mismatch.  Cells with N above max_naive_n are skipped (the
    O(N^2) oracle is a test tool, not a production path).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0xC0FFEE))))
    checked = 0
    for n in config.N_values:
        if n > max_naive_n:
            continue
        seqs = [generate(spec, n) for spec in config.family]
        for s_index, s in enumerate(config.s_values):
            for k in range(config.samples):
                if rng.uniform() > fraction:
                    continue
                alpha = sample_alpha(cell_seed(config.seed, n, s_index, k), config.dimension)
                pts = orbit(seqs, alpha)
                a = ppc_grid(pts, s, config.norm).near_pairs
                b = ppc_naive(pts, s, config.norm).near_pairs
                if a != b:
                    raise InternalError(
                        f"grid/naive mismatch at N={n} s={s} k={k}: {a} != {b}"
                    )
                checked += 1
    return checked


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    """RFC-4180-style CSV, LF line endings, header row, repr-exact floats."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        buf.write(",".join(_fmt(v) for v in (
            r.N, r.s, r.K, r.mean_R, r.var_R, r.limit, r.expectation, r.seconds)) + "\n")
    return buf.getvalue()


def energy_rows_to_csv(rows: Sequence[EnergyScanRow]) -> str:
    names = list(rows[0].ratios) if rows else []
    buf = io.StringIO()
    buf.write(",".join(["N", "E"] + names) + "\n")
    for r in rows:
        buf.write(",".join([str(r.N), str(r.E)] + [_fmt(r.ratios[n]) for n in names]) + "\n")
    return buf.getvalue()
