"""Monte Carlo experiment harness over random dilation vectors.

Each (N, s, sample-index) cell derives its own PCG64 seed from the master
seed, so a table depends only on the configuration and replays byte for
byte.  A fresh alpha is drawn per sample (never reused across N), which
makes the sample variance at each N an estimate of the variance of the
statistic over the dilation measure.  The random-alpha table and the
fixed-alpha counterexample trajectory come from one loop (_table), which
differs between them only in where the k-th alpha of a cell comes from.
The samples are counted in k order on the calling thread; no pool is
started for a table.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fixedpoint import point_of_reals, sample_alpha
from .paircorr import NormKind, ppc_grid, ppc_limit, threshold
from .sequences import DEFAULT_FLOOR_START, KIND_FLOOR_NLOG, SequenceSpec, generate, orbit
from . import energy as energy_mod

DEFAULT_FAMILY = (SequenceSpec.identity(), SequenceSpec.power_of(2))
DEFAULT_NORM = NormKind.SUP
DEFAULT_N_VALUES = (1_000, 10_000, 100_000)
DEFAULT_S_VALUES = (0.5, 1.0, 2.0)
DEFAULT_SAMPLES = 20

CSV_HEADER = "N,s,K,mean_R,var_R,limit,expectation,seconds"


@dataclass(frozen=True)
class ExperimentConfig:
    family: tuple[SequenceSpec, ...]
    norm: NormKind = DEFAULT_NORM
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
                                if spec.kind == KIND_FLOOR_NLOG), default=DEFAULT_FLOOR_START),
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


def cell_seed(master: int, N: int, s_index: int, k: int) -> int:
    """Splittable per-cell seed: one derived PCG64 stream per (N, s, sample)."""
    if master < 0:
        raise ValueError(f"seed must be a non-negative integer, got {master}")
    ss = np.random.SeedSequence((int(master), int(N), int(s_index), int(k)))
    return int(ss.generate_state(1, np.uint64)[0])


def _aggregate(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) if values.size >= 2 else 0.0
    return mean, var


def _table(family: Sequence[SequenceSpec], norm: NormKind, s_values: Sequence[float],
           N_values: Sequence[int], samples: int, timing: bool,
           alpha_for: Callable[[int, int, int], np.ndarray]) -> list[ExperimentRow]:
    """Mean and variance of the statistic over `samples` dilations per (N, s);
    alpha_for(N, s_index, k) is the k-th dilation of that cell.

    The samples are counted one after another on the calling thread.  A
    count holds the GIL for most of its run (short numpy calls on blocks of
    a few thousand points), so a thread per core bought no time here, only
    memory.
    """
    rows = []
    for n in N_values:
        seqs = [generate(spec, n) for spec in family]
        for s_index, s in enumerate(s_values):
            t0 = time.perf_counter()
            values = np.array([ppc_grid(orbit(seqs, alpha_for(n, s_index, k)), s, norm).statistic
                               for k in range(samples)])
            elapsed = time.perf_counter() - t0
            mean, var = _aggregate(values)
            limit = ppc_limit(s, len(family), norm)
            rows.append(ExperimentRow(
                N=n, s=s, K=samples, mean_R=mean, var_R=var,
                limit=limit, expectation=limit * (n - 1) / n,
                seconds=elapsed if timing else 0.0,
            ))
    return rows


def run_convergence(config: ExperimentConfig) -> list[ExperimentRow]:
    """Mean and variance of the statistic over K random alphas per (N, s)."""
    d, seed = config.dimension, config.seed
    return _table(config.family, config.norm, config.s_values, config.N_values,
                  config.samples, config.timing,
                  lambda n, s_index, k: sample_alpha(cell_seed(seed, n, s_index, k), d))


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
    point = point_of_reals((alpha,))
    rows = _table((SequenceSpec.identity(),), NormKind.SUP, (s,), N_values, 1, timing,
                  lambda n, s_index, k: point)
    stats = np.array([r.mean_R for r in rows])
    return CounterexampleResult(
        rows=tuple(rows),
        dispersion=float(stats.max() - stats.min()),
        max_abs_deviation=float(np.abs(stats - 2.0 * s).max()),
    )


@dataclass(frozen=True)
class VarianceDecayResult:
    rows: tuple[ExperimentRow, ...]
    slope: float | None         # fitted d log(var) / d log(N); None below two N or at var 0


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
    slope = None
    if len(ns) >= 2 and all(v > 0 for v in var_means):
        slope = float(np.polyfit(np.log(ns), np.log(var_means), 1)[0])
    return VarianceDecayResult(rows=tuple(rows), slope=slope)


def run_energy_scan(family: Sequence[SequenceSpec], N_values: Sequence[int],
                    comparisons: Sequence[str] = ()) -> list[energy_mod.EnergyReport]:
    """Energy (joint for d >= 2) and ratio columns along an ascending N grid;
    every g(N) is evaluated at every N before the first count, so a ratio
    that is undefined anywhere on the grid is refused at once."""
    if list(N_values) != sorted(N_values):
        raise ValueError("N grid must be ascending")
    for name in comparisons:
        g = energy_mod.comparison_from_name(name)
        for n in N_values:
            g(n)
    return [energy_mod.energy_bound_report([generate(spec, n) for spec in family], comparisons)
            for n in N_values]


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


def energy_rows_to_csv(rows: Sequence[energy_mod.EnergyReport]) -> str:
    names = list(rows[0].ratios) if rows else []
    buf = io.StringIO()
    buf.write(",".join(["N", "E"] + names) + "\n")
    for r in rows:
        buf.write(",".join([str(r.N), str(r.E)] + [_fmt(r.ratios[n]) for n in names]) + "\n")
    return buf.getvalue()
