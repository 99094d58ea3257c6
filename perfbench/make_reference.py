"""Write perfbench/reference.json: the seed-independent outputs of the
energy-scan and gcd-model workloads, computed without the package's counters.

    python3 perfbench/make_reference.py

Run it once from the repository root whenever workloads.json changes.  The
references come from algorithms that share no code with the package:

* joint energy of (n, b_n): E = N^2 + 2 sum_{h>=1} sum_w c_h(w)^2 with
  c_h(w) = #{m : b_{m+h} - b_m = w} (the lag form), where
  b_n = floor(n log^A n) is evaluated in mpmath at 50 digits;
* energy of n^2: E = N^2 + 2 sum_{v>0} D(v)^2 over the positive differences
  n^2 - k^2 = h (2k + h), h = n - k;
* GCD sums: gcd(a, b)^(2 alpha) = sum_{e | (a, b)} J_{2 alpha}(e) with
  Jordan's totient, so S_f = sum_e prod_i J(e_i) (sum_{e | a} f(a) a^-alpha)^2;
* the truncated second moment of verify-eq0, E|zeta_X zeta_Y D|^2, by direct
  expansion: sum over (m, m') of |sum_{n1 a = m, n2 b = m'} f(a, b) (n1 n2)^-alpha|^2.

Each algorithm is first checked against the package's brute-force oracles at
sizes they reach, then every reference against the CLI at the benchmark's own
sizes.  The file is written only when all of them agree.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from torusppc.cli import parse_and_dispatch  # noqa: E402
from torusppc.energy import additive_energy_brute, joint_additive_energy_brute  # noqa: E402
from torusppc.gcdsum import WeightedSupport, gcd_sum_enumerate  # noqa: E402

EQ0_SUPPORT = {(1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 1.0}


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def n_grid(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split(".."))
    grid = []
    while lo <= hi:
        grid.append(lo)
        lo *= 2
    return grid


def floor_nlog(start: int, count: int, exponent: int) -> np.ndarray:
    with mpmath.workdps(50):
        return np.array([int(mpmath.floor(n * mpmath.log(n) ** exponent))
                         for n in range(start, start + count)], dtype=np.int64)


def joint_energy_lag(b: np.ndarray) -> int:
    n = b.shape[0]
    total = n * n
    for h in range(1, n):
        _, c = np.unique(b[h:] - b[:-h], return_counts=True)
        total += 2 * int((c * c).sum())
    return total


def square_energy(n: int) -> int:
    k = np.arange(1, n + 1, dtype=np.int64)
    diffs = np.concatenate([h * (2 * k[:n - h] + h) for h in range(1, n)])
    _, c = np.unique(diffs, return_counts=True)
    return n * n + 2 * int((c * c).sum())


def ratio(name: str, e: int, n: int) -> float:
    """E / (N^a log^b N) for a column named "N^a" or "N^a log^b"."""
    parts = name.split()
    a = float(parts[0][2:])
    b = float(parts[1][4:]) if len(parts) == 2 else 0.0
    return e / (n ** a * math.log(n) ** b)


def energy_rows(argv: list[str]) -> list[dict]:
    family = flag(argv, "--family")
    names = [r.strip() for r in flag(argv, "--ratios").split(",")] if "--ratios" in argv else []
    rows = []
    for n in n_grid(flag(argv, "--N")):
        if family == "n,[n log^2 n]":
            e = joint_energy_lag(floor_nlog(int(flag(argv, "--floor-start")), n, 2))
        elif family == "n^2":
            e = square_energy(n)
        else:
            raise ValueError(f"no independent energy for family {family!r}")
        rows.append({"N": n, "E": e, "ratios": {r: ratio(r, e, n) for r in names}})
    return rows


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _jordan(e: int, beta: float) -> float:
    """J_beta(e) = e^beta prod_{p | e} (1 - p^-beta), so sum_{e | n} J_beta(e) = n^beta."""
    value, m, p = float(e) ** beta, e, 2
    while p * p <= m:
        if m % p == 0:
            value *= 1.0 - p ** -beta
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        value *= 1.0 - m ** -beta
    return value


def gcd_sum_divisor(entries: dict, alpha: float) -> float:
    """S_f(2; alpha) for real weights by the divisor expansion of each gcd."""
    acc: dict = defaultdict(float)
    divs: dict = {}
    for (a1, a2), w in entries.items():
        base = w * (a1 * a2) ** -alpha
        for e1 in divs.setdefault(a1, _divisors(a1)):
            for e2 in divs.setdefault(a2, _divisors(a2)):
                acc[e1, e2] += base
    jordan = {e: _jordan(e, 2 * alpha) for ds in divs.values() for e in ds}
    return math.fsum(jordan[e1] * jordan[e2] * g * g for (e1, e2), g in acc.items())


def folded_differences(n: int) -> dict:
    """Weights f(|v|) of the all-nonzero difference vectors of (n, n^2)."""
    entries: dict = defaultdict(float)
    for hi in range(2, n + 1):
        for lo in range(1, hi):
            entries[hi - lo, hi * hi - lo * lo] += 2.0      # (hi, lo) and (lo, hi)
    return dict(entries)


def eq0_truncated_direct(entries: dict, alpha: float, M: int) -> float:
    acc: dict = defaultdict(float)
    for (a, b), w in entries.items():
        for n1 in range(1, M + 1):
            for n2 in range(1, M + 1):
                acc[n1 * a, n2 * b] += w * (n1 * n2) ** -alpha
    return math.fsum(c * c for c in acc.values())


def gcd_model_refs(argvs: list[list[str]]) -> list[dict]:
    gcd_argv, eq0_argv = argvs
    alpha = float(flag(gcd_argv, "--alpha-exp"))
    gcd = gcd_sum_divisor(folded_differences(int(flag(gcd_argv, "--N"))), alpha)
    alpha = float(flag(eq0_argv, "--alpha-exp"))
    M = int(flag(eq0_argv, "--M"))
    zeta = float(mpmath.zeta(2 * alpha))
    return [
        {"gcd_sum": gcd},
        {"M": M, "samples": int(flag(eq0_argv, "--samples")),
         "exact_truncated_rhs": eq0_truncated_direct(EQ0_SUPPORT, alpha, M),
         "untruncated_rhs": zeta * zeta * gcd_sum_divisor(EQ0_SUPPORT, alpha),
         "d_sq_exact": math.fsum(w * w for w in EQ0_SUPPORT.values())},
    ]


def oracle_cross_checks() -> list[str]:
    """Disagreements of the algorithms above with the package's brute-force oracles."""
    bad = []
    for n in (8, 16, 32, 48):
        b = floor_nlog(3, n, 2)
        idx = np.arange(1, n + 1, dtype=np.int64)
        if joint_energy_lag(b) != joint_additive_energy_brute([idx, b]):
            bad.append(f"joint energy lag form, N={n}")
    for n in (8, 16, 32, 64):
        if square_energy(n) != additive_energy_brute(np.arange(1, n + 1) ** 2):
            bad.append(f"n^2 energy difference form, N={n}")
    for n in (5, 8, 12):
        entries = folded_differences(n)
        for alpha in (0.5, 0.75):
            ours = gcd_sum_divisor(entries, alpha)
            oracle = gcd_sum_enumerate(WeightedSupport(d=2, entries=entries), alpha)
            if not abs(ours - oracle) <= 1e-12 * oracle:
                bad.append(f"divisor-expansion GCD sum, N={n}, alpha={alpha}")
    return bad


def main() -> int:
    bad = oracle_cross_checks()
    for line in bad:
        print(f"oracle mismatch: {line}")
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    refs: dict = {"energy-scan": {}, "gcd-model": {}}
    for size in ("smoke", "full"):
        argvs = spec["energy-scan"][size]["argv"]
        refs["energy-scan"][size] = [energy_rows(a) for a in argvs]
        refs["gcd-model"][size] = gcd_model_refs(spec["gcd-model"][size]["argv"])
        for workload in refs:
            params = spec[workload][size].get("check", {})
            for index, argv in enumerate(spec[workload][size]["argv"]):
                argv = [a.format(seed=0) for a in argv]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = parse_and_dispatch(argv)
                message = checks.check_command(
                    workload, index, {"exit": code, "stdout": out.getvalue()}, 0, params,
                    refs[workload][size][index])
                print(f"{size} {workload} {' '.join(argv)}: {message or 'agrees'}")
                if message:
                    bad.append(message)
    if bad:
        print("reference.json not written")
        return 1
    path = HERE / "reference.json"
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
