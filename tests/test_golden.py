"""Golden CLI reports: every call in tests/golden/manifest.json, byte for byte.

Each call runs in-process through `cli.main` in a temporary directory
holding a copy of the text inputs in tests/golden/inputs. Its exit code,
stdout, stderr and the sha256 of every `--out`/`--svg` file it names
must equal the manifest's. `tests/golden/regen.py` rewrites the
manifest; this test never does.

The harness records, besides what the program prints:
- an exception escaping `main` as exit 1 and one stderr line
  `traceback: <type>: <message>` (Python would print a traceback);
- each distinct warning raised during the call as one stderr line
  `warning: <category>: <message>`, after what the program printed.

Platform rule: the bytes are pinned on the platform named in the
manifest's "platform" object. Calls that carry a "tolerance" write
full-precision values of `np.exp` (the realize bumps, whose SIMD path
depends on the CPU) or of a LAPACK solve (the Moser flow's splines). On
any other platform their stdout is compared number by number at the
stated relative tolerance, and their output files must exist; the exact
comparison stays on for every other call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import warnings
from pathlib import Path

import numpy as np
import scipy

from symplane import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"
OUTPUT_FLAGS = ("--out", "--svg")


def platform_key() -> dict:
    """What the pinned bytes depend on beyond the program's own code."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "avx512f": bool(__cpu_features__.get("AVX512F")),
    }


def run_call(argv) -> dict:
    """Exit code, stdout, stderr and output-file hashes of one CLI call in the cwd."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv), out=out)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded, as the interpreter would report it
            code = 1
            err.write(f"traceback: {type(exc).__name__}: {exc}\n")
    seen = dict.fromkeys(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    files = {}
    for flag in OUTPUT_FLAGS:
        if flag in argv:
            name = argv[argv.index(flag) + 1]
            path = Path(name)
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue() + "".join(seen),
            "files": files}


def same_numbers(expected: str, actual: str, rtol: float) -> bool:
    """Whether two texts agree token by token, numbers within rtol."""
    a, b = expected.split(), actual.split()
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        if not math.isclose(fx, fy, rel_tol=rtol, abs_tol=rtol):
            return False
    return True


def mismatch(entry, got, pinned) -> str | None:
    """Why a call's result differs from its manifest entry, or None."""
    want = {k: entry[k] for k in ("exit", "stdout", "stderr", "files")}
    if pinned or "tolerance" not in entry:
        return None if got == want else f"expected {want!r}, got {got!r}"
    rtol = entry["tolerance"]["rtol"]
    if (got["exit"], got["stderr"]) != (want["exit"], want["stderr"]):
        return f"exit/stderr: expected {want!r}, got {got!r}"
    if not same_numbers(want["stdout"], got["stdout"], rtol):
        return f"stdout beyond rtol {rtol}: expected {want['stdout']!r}, got {got['stdout']!r}"
    if [h is None for h in got["files"].values()] != [h is None for h in want["files"].values()]:
        return f"output files: expected {want['files']!r}, got {got['files']!r}"
    return None


def run_corpus(directory, calls):
    """Results of the calls, run in `directory` on a fresh copy of the inputs."""
    shutil.copytree(INPUTS, directory, dirs_exist_ok=True)
    old = os.getcwd()
    os.chdir(directory)
    try:
        return [run_call(c["argv"]) for c in calls]
    finally:
        os.chdir(old)


def test_golden_cli_reports(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    pinned = manifest["platform"] == platform_key()
    calls = manifest["calls"]
    results = run_corpus(tmp_path, calls)
    failures = [
        f"{c['name']}: {why}"
        for c, got in zip(calls, results)
        if (why := mismatch(c, got, pinned)) is not None
    ]
    assert not failures, "\n".join(failures)


def test_tolerance_applies_only_to_flagged_calls_off_platform():
    entry = {"exit": 0, "stdout": "  1: 2 (target 2)\n", "stderr": "",
             "files": {"a.density": "0" * 64}, "tolerance": {"rtol": 1e-9, "reason": "np.exp"}}
    near = {"exit": 0, "stdout": "  1: 2.0000000000001 (target 2)\n", "stderr": "",
            "files": {"a.density": "f" * 64}}
    assert mismatch(entry, near, pinned=False) is None
    assert mismatch(entry, near, pinned=True) is not None
    exact = {k: v for k, v in entry.items() if k != "tolerance"}
    assert mismatch(exact, near, pinned=False) is not None
    assert mismatch(entry, {**near, "stdout": "  1: 2.001 (target 2)\n"}, pinned=False)
    assert mismatch(entry, {**near, "files": {"a.density": None}}, pinned=False)
    assert mismatch(entry, {**near, "stderr": "error: x\n"}, pinned=False)
