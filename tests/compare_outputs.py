"""Compare every output of the benchmark's CLI calls between two source trees.

    python3 tests/compare_outputs.py TREE_A TREE_B

Writes the inputs of the 16 variants of the run-1d and converge-2d
workloads and of run-2d variant 0 into a temporary directory, through
bench/workloads.write_inputs (bench/ is only read), runs
`python -m specwave.cli COMMAND --config ... --out ...` from each tree's
src/ on each of them, one tree after the other into the same directory,
and compares the SHA-256 of the exit code, stdout, stderr and every output
file.  Each tree's path is written as <tree> before hashing, since numpy's
warnings name source files.  BLAS threads are pinned to 1, as the
benchmark pins them.  Prints one line per call and exits 1 if any call
differs, 0 if none.  pytest does not collect this file; the 33 calls on
two trees take about 30 s on a 2-vCPU x86-64 VM.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import NVARIANTS, WORKLOADS, write_inputs  # noqa: E402

CALLS = [(name, variant) for name in ("run-1d", "converge-2d") for variant in range(NVARIANTS)] + [("run-2d", 0)]
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def digests(tree: Path, spec: dict, out: Path) -> dict[str, str]:
    """SHA-256 of the exit code, stdout, stderr and each output file of one
    CLI call from tree's src/, writing into out (emptied first)."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **THREADS)
    argv = [sys.executable, "-m", "specwave.cli", spec["command"], "--config", spec["config"], "--out", str(out)]
    proc = subprocess.run(argv, cwd=out.parent, env=env, capture_output=True, check=False)
    texts = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    texts.update((p.relative_to(out).as_posix(), p.read_bytes()) for p in sorted(out.rglob("*")) if p.is_file())
    return {key: hashlib.sha256(text.replace(str(tree).encode(), b"<tree>")).hexdigest() for key, text in texts.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare the benchmark's CLI outputs of two source trees.")
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    trees = [tree.resolve() for tree in parser.parse_args(argv).trees]
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name, variant in CALLS:
            workdir = Path(tmp) / f"{name}-{variant}"
            spec = write_inputs(WORKLOADS[name], variant, str(workdir))
            a, b = (digests(tree, spec, workdir / "out") for tree in trees)
            diff = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
            verdict = f"differ: {', '.join(diff)}" if diff else "identical"
            print(f"{name} variant {variant}: {len(a)} outputs, {verdict}")
            differing += bool(diff)
    print(f"{len(CALLS) - differing} of {len(CALLS)} calls identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
