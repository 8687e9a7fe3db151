"""Golden outputs: every byte of a fixed set of CLI calls.

tests/golden/outputs.json holds, for each call, its exit code and the
SHA-256 of its stdout, its stderr, the warnings it raised and each file it
wrote.  The calls cover the nine presets cut to small sizes, the failure
paths (a stage and a growth blow-up in one run, a reference blow-up, a bad
system file, the zero reference), check-system on the three built-ins and
probe-jn.  All of them run in-process, into a temporary directory whose
path is written as <tmp> before hashing; a subprocess would put source
paths on stderr with every numpy RuntimeWarning.  Warnings are recorded
as "Category: message" lines, one per occurrence.

The bytes are compared only where numpy's version, the platform and the
SIMD targets numpy dispatches to match the manifest's.  Elsewhere each
output is compared through its numbers: the text with every number masked
must hash the same, and the count of numbers, of non-finite ones, the sum
of magnitudes and a cosine-weighted sum must agree to NUMBERS_RTOL, and
each call warns that it compared numbers, not bytes.  The sixteen calls
take 0.17-0.18 s in-process after the imports (three runs, a 2-vCPU x86-64 VM).

After a change that moves an output on purpose, re-record with

    PYTHONPATH=src python tests/test_golden.py [CALL ...]

(all calls, or only those named) and list each changed entry in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import platform
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from specwave.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden" / "outputs.json"
NUMBERS_RTOL = 1e-6
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")

SV1D_TEXT = files("specwave").joinpath("sysdefs/saint-venant-1d.txt").read_text(encoding="utf-8")
BLOWUP_CFG = (
    "system = saint-venant-1d\nscheme = sharp smooth-all smooth-nl\ninitial = init1\n"
    "dt = 0.08\nT = 2\nmonitor_stride = 7\nblowup_threshold = 3\n"
)
ZERO_CFG = (
    "system = saint-venant-2d-hamiltonian\ninitial = init2D\n"
    "init.h0 = 1\ninit.u_l = 0\ninit.v_l = 0\ninit.u_h = 0\ninit.v_h = 0\n"
    "M_list = 4 8\nM_ref = 16\ndt = 1e-3\nT = 0.002\n"
)
CONVERGE_1D_CUT = ["--T", "0.002", "--M-list", "8 16", "--M-ref", "32"]
CONVERGE_2D_CUT = ["--T", "0.002", "--M-list", "4 8", "--M-ref", "16"]

# call id -> (argv, input files written into <tmp> first); every output goes to <tmp>/out
CALLS: dict[str, tuple[list[str], dict[str, str]]] = {
    "converge-1d-cavitation-edge": (["converge", "--preset", "converge-1d-cavitation-edge", *CONVERGE_1D_CUT], {}),
    "converge-1d-heap": (["converge", "--preset", "converge-1d-heap", *CONVERGE_1D_CUT], {}),
    "converge-2d-hamiltonian": (["converge", "--preset", "converge-2d-hamiltonian", *CONVERGE_2D_CUT], {}),
    "converge-2d-standard": (["converge", "--preset", "converge-2d-standard", *CONVERGE_2D_CUT], {}),
    "init1-spectrum-decay": (["converge", "--preset", "init1-spectrum-decay", "--M-list", "16 32", "--M-ref", "64"], {}),
    "jn-linear-growth": (["probe-jn", "--preset", "jn-linear-growth"], {}),
    "strict-hyperbolicity-2d": (["run", "--preset", "strict-hyperbolicity-2d", "--M", "8", "--T", "0.002"], {}),
    "zero-depth-1d": (["run", "--preset", "zero-depth-1d", "--M", "32", "--T", "0.001"], {}),
    "zero-depth-2d": (["run", "--preset", "zero-depth-2d", "--M", "8", "--T", "0.002"], {}),
    # sharp blows up on growth at 0.56, smooth-nl on a non-finite stage at 1.12, smooth-all completes
    "run-blowups": (["run", "--config", "<tmp>/blowup.cfg", "--M", "64"], {"blowup.cfg": BLOWUP_CFG}),
    "reference-blowup": (
        ["converge", "--config", "<tmp>/blowup.cfg", "--M-list", "16 32", "--M-ref", "64"],
        {"blowup.cfg": BLOWUP_CFG},
    ),
    "bad-system-file": (
        ["run", "--system", "<tmp>/bad.txt", "--initial", "init1", "--M", "16", "--T", "0.002"],
        {"bad.txt": SV1D_TEXT.replace("SJ0 1 0.0 1.0 1.0 0.0", "SJ0 1 0.0 nan 1.0 0.0")},
    ),
    "zero-reference": (["converge", "--config", "<tmp>/zero.cfg"], {"zero.cfg": ZERO_CFG}),
    "check-saint-venant-1d": (["check-system", "saint-venant-1d"], {}),
    "check-saint-venant-2d-hamiltonian": (["check-system", "saint-venant-2d-hamiltonian"], {}),
    "check-saint-venant-2d-standard": (["check-system", "saint-venant-2d-standard"], {}),
}


def environment() -> dict:
    """What the bytes of the outputs depend on beyond the package."""
    try:
        from numpy._core import _multiarray_umath as umath

        simd = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    except (ImportError, AttributeError):
        simd = None
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}", "simd": simd}


def fingerprint(text: str) -> dict:
    """The SHA-256 of the text, and what NUMBERS_RTOL compares where the bytes are not compared."""
    values = [float(token) for token in NUMBER.findall(text)]
    finite = [v for v in values if math.isfinite(v)]
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "masked_sha256": hashlib.sha256(NUMBER.sub("#", text).encode("utf-8")).hexdigest(),
        "numbers": len(values),
        "nonfinite": len(values) - len(finite),
        "abs_sum": math.fsum(abs(v) for v in finite),
        "cos_sum": math.fsum(v * math.cos(i) for i, v in enumerate(finite)),
    }


def run_call(call_id: str, tmp: Path) -> dict:
    """Run one call in-process in the empty directory tmp: its exit code and the fingerprint of each output."""
    argv, inputs = CALLS[call_id]
    for name, text in inputs.items():
        (tmp / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("<tmp>", str(tmp)) for arg in argv]
    if argv[0] != "check-system":
        argv += ["--out", str(tmp / "out")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    texts = {
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": "".join(f"{w.category.__name__}: {w.message}\n" for w in caught),
    }
    written = sorted(p for p in (tmp / "out").rglob("*") if p.is_file())
    texts.update((p.relative_to(tmp / "out").as_posix(), p.read_text(encoding="utf-8")) for p in written)
    return {"exit": code, "outputs": {key: fingerprint(text.replace(str(tmp), "<tmp>")) for key, text in texts.items()}}


def differences(got: dict, want: dict, by_bytes: bool) -> list[str]:
    """What differs between two records of one call: by the bytes, or by the numbers at NUMBERS_RTOL."""
    found = [] if got["exit"] == want["exit"] else [f"exit {got['exit']} != {want['exit']}"]
    if sorted(got["outputs"]) != sorted(want["outputs"]):
        return found + [f"outputs {sorted(got['outputs'])} != {sorted(want['outputs'])}"]
    for key, w in want["outputs"].items():
        g = got["outputs"][key]
        if by_bytes:
            if g["sha256"] != w["sha256"]:
                found.append(f"{key}: bytes differ")
            continue
        same = [g[k] == w[k] for k in ("masked_sha256", "numbers", "nonfinite")]
        tol = NUMBERS_RTOL * w["abs_sum"]
        same += [math.isclose(g[k], w[k], rel_tol=NUMBERS_RTOL, abs_tol=tol) for k in ("abs_sum", "cos_sum")]
        if not all(same):
            found.append(f"{key}: numbers differ beyond rtol {NUMBERS_RTOL}")
    return found


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_call():
    assert sorted(load_manifest()["calls"]) == sorted(CALLS)


@pytest.mark.parametrize("call_id", sorted(CALLS))
def test_output_matches_manifest(call_id, tmp_path):
    manifest = load_manifest()
    by_bytes = manifest["environment"] == environment()
    if not by_bytes:
        warnings.warn(f"environment {environment()} differs from the manifest's {manifest['environment']}: "
                      f"comparing numbers at rtol {NUMBERS_RTOL}, not bytes")
    want = manifest["calls"][call_id]
    assert [*want["argv"]] == CALLS[call_id][0], "the manifest was recorded from other arguments"
    assert not differences(run_call(call_id, tmp_path), want, by_bytes)


def record(call_ids: list[str]) -> None:
    """Write the manifest for the named calls (all when none is named), keeping the other entries."""
    manifest = load_manifest() if MANIFEST.exists() and call_ids else {"calls": {}}
    if call_ids and manifest["environment"] != environment():
        raise SystemExit("the manifest was recorded in another environment: re-record every call")
    manifest["environment"] = environment()
    for call_id in call_ids or sorted(CALLS):
        with tempfile.TemporaryDirectory() as tmp:
            manifest["calls"][call_id] = {"argv": CALLS[call_id][0], **run_call(call_id, Path(tmp))}
    manifest["calls"] = dict(sorted(manifest["calls"].items()))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:])
