"""One workload repetition in a fresh interpreter.

Started by ``perfbench/run.py`` as ``python3 perfbench/child.py JOB`` where
JOB is a JSON object::

    {"src": "<checkout>/src", "commands": [[argv...], ...],
     "trace": false, "run_id": "mc-grid/s7/r0", "setup_only": false}

The process imports ``torusppc.cli`` and prints ``ready``; the parent times
interpreter start to that line as set-up.  It then runs each command through
``torusppc.cli.parse_and_dispatch`` with stdout captured and prints one JSON
line: every command's exit code, output and duration, the CPU time of the
commands, the peak resident set size of the process and, when tracing, the
spans recorded around the calls into each module's public functions.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
import traceback
from importlib import import_module
from pathlib import Path


def _n(result, args) -> dict:
    return {"N": result.N}


def _ppc(result, args) -> dict:
    return {"N": result.N, "near_pairs": result.near_pairs}


def _vectors(result, args) -> dict:
    return {"vectors": int(result.vectors.shape[0])}


def _support(result, args) -> dict:
    return {"K": result.K}


def _samples(result, args) -> dict:
    return {"samples": result.samples}


def _energy_n(result, args) -> dict:
    return {"N": args[0].N}


# (module, attribute, span name, counter): each public function is wrapped at
# the binding its caller looks it up through, so the program is not edited.
# A counter maps (result, positional arguments) to the span's counts.
TRACE_POINTS = (
    ("torusppc.cli", "run_convergence", "experiments.run_convergence", None),
    ("torusppc.cli", "run_energy_scan", "experiments.run_energy_scan", None),
    ("torusppc.cli", "sample_alpha", "fixedpoint.sample_alpha", None),
    ("torusppc.experiments", "sample_alpha", "fixedpoint.sample_alpha", None),
    ("torusppc.cli", "generate", "sequences.generate", _n),
    ("torusppc.experiments", "generate", "sequences.generate", _n),
    ("torusppc.cli", "orbit", "sequences.orbit", None),
    ("torusppc.experiments", "orbit", "sequences.orbit", None),
    ("torusppc.cli", "ppc_grid", "paircorr.ppc_grid", _ppc),
    ("torusppc.experiments", "ppc_grid", "paircorr.ppc_grid", _ppc),
    ("torusppc.energy", "energy_bound_report", "energy.energy_bound_report", None),
    ("torusppc.energy", "additive_energy", "energy.additive_energy", _energy_n),
    ("torusppc.energy", "joint_additive_energy", "energy.joint_additive_energy", None),
    ("torusppc.energy", "representation_counts", "energy.representation_counts", _vectors),
    ("torusppc.cli", "representation_counts", "energy.representation_counts", _vectors),
    ("torusppc.gcdsum", "support_from_representations", "gcdsum.support_from_representations",
     _support),
    ("torusppc.gcdsum", "gcd_sum", "gcdsum.gcd_sum", None),
    ("torusppc.gcdsum", "truncated_rhs", "gcdsum.truncated_rhs", None),
    ("torusppc.cli", "verify_eq0", "gcdsum.verify_eq0", _samples),
)

ROOT_SPAN = "cli.parse_and_dispatch"


class Tracer:
    """Spans kept in memory: name, start, end, parent index, run id, counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = ""

    def enter(self, name: str, start: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": start, "end": None,
                           "parent": parent, "run": self.run_id, "counts": {}})
        self._stack.append(len(self.spans) - 1)

    def exit(self, end: float) -> int:
        index = self._stack.pop()
        self.spans[index]["end"] = end
        return index

    def wrap(self, module_name: str, attr: str, name: str, counter) -> None:
        module = import_module(module_name)
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                index = self.exit(time.perf_counter())
            if counter is not None:
                self.spans[index]["counts"] = counter(result, args)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        for module_name, attr, name, counter in TRACE_POINTS:
            self.wrap(module_name, attr, name, counter)


def _peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.

    ru_maxrss is not used: Linux carries the parent's peak over exec into it.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import torusppc
    from torusppc.cli import parse_and_dispatch

    if Path(torusppc.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"perfbench: imported torusppc from {torusppc.__file__}, not {src}\n")
        return 3
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if job.get("setup_only"):
        return 0

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    commands = []
    cpu0 = _cpu_s()
    for index, argv in enumerate(job["commands"]):
        out = io.StringIO()
        if tracer is not None:
            tracer.run_id = f"{job['run_id']}/c{index}"
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.enter(ROOT_SPAN, t0)
            try:
                code = parse_and_dispatch(list(argv))
            except Exception:  # an uncaught error is a failed command, not a crash
                traceback.print_exc()
                code = None
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.exit(t1)
        commands.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                         "seconds": t1 - t0})
    cpu_s = _cpu_s() - cpu0
    report = {
        "commands": commands,
        "run_s": sum(c["seconds"] for c in commands),
        "cpu_s": cpu_s,
        "peak_rss_kb": _peak_rss_kb(),
        "spans": tracer.spans if tracer is not None else [],
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
