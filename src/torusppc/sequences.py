"""Integer sequence families and their orbits on the torus.

Supported families: the identity n, pure powers n**l, the floor family
[n * (log n)**A] for A in [1,2], and explicit user-supplied files (one
decimal integer per line).  Generation always validates that the first N
terms are strictly increasing natural numbers below 2**63.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np

from .fixedpoint import TorusPoint

MAX_VALUE = (1 << 63) - 1

KIND_IDENTITY = "identity"
KIND_POWER = "power"
KIND_FLOOR_NLOG = "floor_nlog"
KIND_EXPLICIT = "explicit"

_FLOOR_RE = re.compile(r"^\[\s*n\s*log\^(?P<a>[0-9]+(?:\.[0-9]+)?)\s*n\s*\]$")
_POWER_RE = re.compile(r"^n\^(?P<l>[0-9]+)$")


@dataclass(frozen=True, slots=True)
class SequenceSpec:
    """Declarative description of one strictly increasing integer family."""

    kind: str
    power: int | None = None
    log_exponent: float | None = None
    start: int = 2
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind == KIND_POWER and (self.power is None or self.power < 2):
            raise ValueError("power family needs an integer exponent >= 2")
        if self.kind == KIND_FLOOR_NLOG:
            if self.log_exponent is None or not 1.0 <= self.log_exponent <= 2.0:
                raise ValueError("floor family needs log exponent A in [1, 2]")
            if self.start < 2:
                raise ValueError("floor family start index must be >= 2")
        if self.kind == KIND_EXPLICIT and not self.path:
            raise ValueError("explicit family needs a file path")

    @classmethod
    def identity(cls) -> "SequenceSpec":
        return cls(KIND_IDENTITY)

    @classmethod
    def power_of(cls, l: int) -> "SequenceSpec":
        return cls(KIND_POWER, power=int(l))

    @classmethod
    def floor_nlog(cls, exponent: float, start: int = 2) -> "SequenceSpec":
        return cls(KIND_FLOOR_NLOG, log_exponent=float(exponent), start=int(start))

    @classmethod
    def explicit(cls, path: str) -> "SequenceSpec":
        return cls(KIND_EXPLICIT, path=str(path))

    @classmethod
    def parse(cls, text: str, floor_start: int = 2) -> "SequenceSpec":
        """Parse the family grammar: ``n``, ``n^l``, ``[n log^A n]``, ``file:PATH``."""
        text = text.strip()
        if text == "n":
            return cls.identity()
        if text.startswith("file:"):
            return cls.explicit(text[len("file:"):])
        m = _POWER_RE.match(text)
        if m:
            return cls.power_of(int(m.group("l")))
        m = _FLOOR_RE.match(text)
        if m:
            return cls.floor_nlog(float(m.group("a")), start=floor_start)
        raise ValueError(f"cannot parse sequence family {text!r}")

    def label(self) -> str:
        if self.kind == KIND_IDENTITY:
            return "n"
        if self.kind == KIND_POWER:
            return f"n^{self.power}"
        if self.kind == KIND_FLOOR_NLOG:
            a = self.log_exponent
            a_txt = f"{a:g}"
            return f"[n log^{a_txt} n]"
        return f"file:{self.path}"


@dataclass(frozen=True)
class SequenceData:
    """First N materialized elements of a family (strictly increasing int64)."""

    values: np.ndarray
    spec: SequenceSpec
    N: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", int(self.values.shape[0]))
        self.values.setflags(write=False)


def _floor_nlog_value(n: int, exponent: float) -> int:
    """floor(n * (log n)**A) with an exact-recheck near integer boundaries.

    A plain float evaluation can misfloor when n*(log n)**A sits within
    rounding distance of an integer; those rare cases are settled at 50
    significant digits.
    """
    x = n * math.log(n) ** exponent
    if abs(x - round(x)) < 1e-9 * max(x, 1.0):
        with mpmath.workdps(50):
            x_hi = mpmath.mpf(n) * mpmath.log(n) ** exponent
            return int(mpmath.floor(x_hi))
    return math.floor(x)


def _validate(values: np.ndarray, spec: SequenceSpec) -> None:
    if values.shape[0] == 0:
        raise ValueError("sequence must have at least one element")
    first = int(values[0])
    if first < 1:
        raise ValueError(
            f"element at index 0 is {first}, not a natural number "
            f"(for the floor family, raise the start index)"
        )
    if int(values[-1]) > MAX_VALUE:
        bad = int(np.argmax(values.astype(object) > MAX_VALUE))
        raise OverflowError(f"element at index {bad} exceeds 2**63")
    diffs = np.diff(values)
    if diffs.size and int(diffs.min()) < 1:
        bad = int(np.argmax(diffs < 1))
        raise ValueError(
            f"sequence not strictly increasing at index {bad + 1} "
            f"({int(values[bad])} -> {int(values[bad + 1])})"
        )


def generate(spec: SequenceSpec, N: int) -> SequenceData:
    """Materialize the first N terms of the family described by spec."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if spec.kind == KIND_IDENTITY:
        values = np.arange(1, N + 1, dtype=np.int64)
    elif spec.kind == KIND_POWER:
        if N ** spec.power > MAX_VALUE:
            raise OverflowError(f"n^{spec.power} exceeds 2**63 before n = {N}")
        base = np.arange(1, N + 1, dtype=np.int64)
        values = base ** spec.power
    elif spec.kind == KIND_FLOOR_NLOG:
        a = spec.log_exponent
        ns = range(spec.start, spec.start + N)
        values = np.fromiter((_floor_nlog_value(n, a) for n in ns), dtype=np.int64, count=N)
    elif spec.kind == KIND_EXPLICIT:
        values = _read_explicit(spec.path)
        if values.shape[0] < N:
            raise ValueError(f"file {spec.path} holds {values.shape[0]} < N = {N} integers")
        values = values[:N].copy()
    else:
        raise ValueError(f"unknown sequence kind {spec.kind!r}")
    _validate(values, spec)
    return SequenceData(values=values, spec=spec)


def _read_explicit(path: str) -> np.ndarray:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read sequence file {path}: {exc}") from exc
    out = []
    for lineno, line in enumerate(text.split("\n")[:-1] if text.endswith("\n") else text.split("\n"), 1):
        if line == "":
            raise ValueError(f"{path}:{lineno}: blank line in sequence file")
        try:
            out.append(int(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a decimal integer: {line!r}") from exc
    return np.array(out, dtype=np.int64)


def orbit(seqs: "list[SequenceData] | tuple[SequenceData, ...]", alpha: TorusPoint) -> np.ndarray:
    """Points ({a_n^(1) alpha_1}, ..., {a_n^(d) alpha_d}) for n = 1..N.

    Returned as an (N, d) uint64 numerator array, exact on the fixed-point
    grid: coordinate i of point n is (a_n^(i) * alpha_i.numerator) mod 2**64.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    d = len(seqs)
    if alpha.dimension != d:
        raise ValueError(f"alpha has dimension {alpha.dimension}, expected {d}")
    n = seqs[0].N
    for s in seqs:
        if s.N != n:
            raise ValueError("all sequences must have equal length")
    out = np.empty((n, d), dtype=np.uint64)
    for i, s in enumerate(seqs):
        mult = np.uint64(alpha.coords[i].numerator)
        out[:, i] = s.values.astype(np.uint64) * mult
    return out
