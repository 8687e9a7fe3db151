"""The traced benchmark still counts the transforms of the package as it is.

bench/tracing.py wraps the package's functions and the FFT entry points
from outside; its calibrate() converts a 2D and a 1D state to samples and
back and reports every direction that did not count one transform per
component.  A transform split into per-line calls, or a path that
bypasses the wrapped entry points, would make every traced per-layer
number wrong without failing the untraced benchmark.

The check runs in a fresh interpreter with PYTHONPATH=src:bench, as the
benchmark's trace worker does, since install() rebinds module attributes
of numpy.fft and specwave.  It costs one interpreter start with the numpy,
scipy.fft and specwave imports: 0.4 s on a 2-vCPU Xeon (pytest --durations).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CALIBRATE = """
import json
import tracing
tracer = tracing.Tracer()
replaced = tracing.install(tracer)
print(json.dumps({"replaced": replaced, "problems": tracing.calibrate(tracer)}))
"""


def test_calibration_reports_no_problem():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", CALIBRATE], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["replaced"] > 0
    assert result["problems"] == []
