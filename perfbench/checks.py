"""Output checks of the benchmark's workloads.

Each check takes one command's parsed JSON summary and returns None when the
output is right, or a message saying what is wrong.  The expected values come
from outside the run that is checked:

* ``mc-grid``: the rows at ``recount_N`` are recounted exactly with the
  O(N^2) ``ppc_naive`` on the same per-cell alphas (public ``cell_seed``,
  ``sample_alpha`` and ``orbit``);
* ``stat-ball3``: the near-pair count must lie in the float bracket that
  ``scipy.spatial.cKDTree`` (periodic box of side 1) counts at radii
  t(1 - 1e-9) and t(1 + 1e-9);
* ``energy-scan`` and ``gcdsum``: the seed-independent outputs are compared
  with ``reference.json``, which ``make_reference.py`` computes with
  algorithms independent of the package and cross-checks against its
  brute-force oracles;
* ``verify-eq0``: the Monte Carlo estimate must lie within ``eq0_sigmas``
  standard errors of the exact truncated right-hand side, which itself must
  match the reference.

The package must be importable (``src`` on ``sys.path``) before the mc-grid
and stat-ball3 checks run.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

BRACKET = 1e-9          # relative radius half-width of the cKDTree bracket
EXACT_FLOAT_REL = 1e-12  # floats the reference computes by the same formula
SUM_REL = 1e-9           # floats summed in another order than the reference


def _rel_close(value, ref, rel) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= rel * abs(ref)


def _config_mismatch(config: dict, expected: dict) -> "str | None":
    for key, want in expected.items():
        if config.get(key) != want:
            return f"config {key} = {config.get(key)!r}, expected {want!r}"
    return None


def check_mc_grid(summary: dict, seed: int, params: dict, reference) -> "str | None":
    from torusppc.experiments import cell_seed
    from torusppc.fixedpoint import sample_alpha
    from torusppc.paircorr import NormKind, ppc_naive
    from torusppc.sequences import SequenceSpec, generate, orbit

    bad = _config_mismatch(summary["config"], {
        "mode": "convergence", "family": params["family"], "norm": params["norm"],
        "s_values": params["s"], "N_values": params["N"], "samples": params["K"],
        "seed": seed,
    })
    if bad:
        return bad
    rows = summary["rows"]
    grid = list(itertools.product(params["N"], enumerate(params["s"])))
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    norm = NormKind.parse(params["norm"])
    d = len(params["family"])
    K = params["K"]
    for row, (n, (s_index, s)) in zip(rows, grid):
        if (row["N"], row["s"], row["K"]) != (n, s, K):
            return f"row {row['N']},{row['s']},{row['K']} out of order"
        limit = (2.0 * s) ** d          # box volume: the workloads use the sup norm
        if not _rel_close(row["limit"], limit, EXACT_FLOAT_REL):
            return f"limit {row['limit']} at s={s}, expected {limit}"
        if n != params["recount_N"]:
            continue
        seqs = [generate(SequenceSpec.parse(f), n) for f in params["family"]]
        values = np.array([
            ppc_naive(orbit(seqs, sample_alpha(cell_seed(seed, n, s_index, k), d)), s, norm).statistic
            for k in range(K)
        ])
        mean = float(np.mean(values))
        var = float(np.var(values, ddof=1)) if K >= 2 else 0.0
        if (row["mean_R"], row["var_R"]) != (mean, var):
            return (f"N={n} s={s}: mean_R, var_R = {row['mean_R']}, {row['var_R']}; "
                    f"naive recount gives {mean}, {var}")
    return None


def check_stat_ball3(summary: dict, seed: int, params: dict, reference) -> "str | None":
    from scipy.spatial import cKDTree
    from torusppc.fixedpoint import sample_alpha
    from torusppc.sequences import SequenceSpec, generate, orbit

    bad = _config_mismatch(summary["config"], {
        "family": params["family"], "norm": "two", "s": params["s"], "N": params["N"],
        "seed": seed,
    })
    if bad:
        return bad
    n, s = params["N"], params["s"]
    d = len(params["family"])
    result = summary["result"]
    near = result["near_pairs"]
    if not isinstance(near, int):
        return f"near_pairs {near!r} is not an integer"
    if result["statistic"] != near / n:
        return f"statistic {result['statistic']} != near_pairs / N = {near / n}"
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * s ** d
    if not _rel_close(result["limit"], ball, EXACT_FLOAT_REL):
        return f"limit {result['limit']}, expected {ball}"
    seqs = [generate(SequenceSpec.parse(f), n) for f in params["family"]]
    pts = orbit(seqs, sample_alpha(seed, d)).astype(np.float64) / 2.0 ** 64
    pts[pts >= 1.0] -= 1.0          # numerators within 2^-53 of 1 round up to 1.0
    tree = cKDTree(pts, boxsize=1.0)
    t = s * n ** (-1.0 / d)
    # ordered pairs within each radius, the n self-pairs included
    lo, hi = tree.count_neighbors(tree, [t * (1 - BRACKET), t * (1 + BRACKET)]) - n
    if not lo <= near <= hi:
        return f"near_pairs {near} outside the cKDTree bracket [{lo}, {hi}]"
    return None


def check_energy(summary: dict, seed: int, params: dict, reference) -> "str | None":
    rows = summary["rows"]
    if len(rows) != len(reference):
        return f"{len(rows)} rows, expected {len(reference)}"
    for row, ref in zip(rows, reference):
        if (row["N"], row["E"]) != (ref["N"], ref["E"]):
            return f"N={row['N']} E={row['E']}, reference N={ref['N']} E={ref['E']}"
        if set(row["ratios"]) != set(ref["ratios"]):
            return f"N={row['N']}: ratio columns {sorted(row['ratios'])}"
        for name, value in ref["ratios"].items():
            if not _rel_close(row["ratios"][name], value, EXACT_FLOAT_REL):
                return f"N={row['N']} ratio {name} = {row['ratios'][name]}, reference {value}"
    return None


def check_gcdsum(summary: dict, seed: int, params: dict, reference) -> "str | None":
    value = summary["result"]["gcd_sum"]
    if not _rel_close(value, reference["gcd_sum"], SUM_REL):
        return f"gcd_sum {value}, reference {reference['gcd_sum']}"
    return None


def check_eq0(summary: dict, seed: int, params: dict, reference) -> "str | None":
    r = summary["result"]
    sig = params["eq0_sigmas"]
    if (r["seed"], r["M"], r["samples"]) != (seed, reference["M"], reference["samples"]):
        return f"echo seed/M/samples = {r['seed']}/{r['M']}/{r['samples']}"
    if not _rel_close(r["exact_truncated_rhs"], reference["exact_truncated_rhs"], SUM_REL):
        return f"exact_truncated_rhs {r['exact_truncated_rhs']}, reference {reference['exact_truncated_rhs']}"
    if not _rel_close(r["untruncated_rhs"], reference["untruncated_rhs"], SUM_REL):
        return f"untruncated_rhs {r['untruncated_rhs']}, reference {reference['untruncated_rhs']}"
    if r["d_sq_exact"] != reference["d_sq_exact"]:
        return f"d_sq_exact {r['d_sq_exact']}, reference {reference['d_sq_exact']}"
    for est, err, exact in (("estimate", "std_error", "exact_truncated_rhs"),
                            ("d_sq_estimate", "d_sq_std_error", "d_sq_exact")):
        if not r[err] > 0 or abs(r[est] - r[exact]) > sig * r[err]:
            return f"{est} {r[est]} not within {sig} x {err} {r[err]} of {exact} {r[exact]}"
    return None


# one check per command of each workload, in command order
CHECKS = {
    "mc-grid": (check_mc_grid,),
    "stat-ball3": (check_stat_ball3,),
    "energy-scan": (check_energy, check_energy),
    "gcd-model": (check_gcdsum, check_eq0),
}


def reference_for(workload: str, size: str, index: int, references: dict):
    """The stored reference of one command, or None where the check needs none."""
    refs = references.get(workload, {}).get(size)
    return refs[index] if refs else None


def check_command(workload: str, index: int, command: dict, seed: int, params: dict,
                  reference) -> "str | None":
    """Failure message for one command's exit code and output, or None."""
    if command["exit"] != 0:
        return f"exit code {command['exit']}"
    try:
        summary = json.loads(command["stdout"])
    except json.JSONDecodeError as exc:
        return f"unparsable JSON: {exc}"
    try:
        return CHECKS[workload][index](summary, seed, params, reference)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed summary: {exc!r}"
