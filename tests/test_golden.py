"""Committed output bytes: each command variant's stdout and CSV, byte for byte.

golden/cases.json lists one small argv per command variant.  Each runs
through parse_and_dispatch in an empty directory holding a copy of
golden/inputs, so its --out and support paths are relative, once on the
usable cores and once with the core count patched to 1.  Its stdout must
equal golden/<name>.stdout and its CSV golden/<name>.csv, byte for byte.

The float bytes are those of the numpy recorded in golden/numpy-version.txt;
under another numpy the gate skips (the counts keep their oracle tests).  A
change that declares a byte change rewrites the golden files in the same
commit with

    PYTHONPATH=src python tests/test_golden.py

and lists each rewritten file with its reason.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from torusppc import _parallel
from torusppc.cli import parse_and_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
NUMPY = (GOLDEN / "numpy-version.txt").read_text(encoding="utf-8").strip()


def _run(case: dict, workdir: Path) -> tuple[bytes, bytes | None]:
    """stdout and CSV bytes (None without "csv") of the case's argv run in workdir."""
    shutil.copytree(GOLDEN / "inputs", workdir, dirs_exist_ok=True)
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = parse_and_dispatch(case["argv"])
    finally:
        os.chdir(cwd)
    assert code == 0, f"{case['name']} exited {code}"
    csv = (workdir / case["csv"]).read_bytes() if "csv" in case else None
    return out.getvalue().encode("utf-8"), csv


@pytest.mark.parametrize("one_core", [False, True], ids=["usable-cores", "one-core"])
@pytest.mark.parametrize("case", CASES, ids=lambda case: case["name"])
def test_output_bytes_match_golden(case, one_core, tmp_path, monkeypatch):
    if np.__version__ != NUMPY:
        pytest.skip(f"golden bytes are numpy {NUMPY}'s, this is {np.__version__}")
    if one_core:
        monkeypatch.setattr(_parallel, "usable_cores", lambda: 1)
    stdout, csv = _run(case, tmp_path)
    assert stdout == (GOLDEN / f"{case['name']}.stdout").read_bytes()
    if csv is not None:
        assert csv == (GOLDEN / f"{case['name']}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            stdout, csv = _run(case, Path(tmp))
        (GOLDEN / f"{case['name']}.stdout").write_bytes(stdout)
        if csv is not None:
            (GOLDEN / f"{case['name']}.csv").write_bytes(csv)
    (GOLDEN / "numpy-version.txt").write_text(np.__version__ + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES)} cases under numpy {np.__version__}\n")
