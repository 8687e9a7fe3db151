"""Span tracing from outside the program, and the per-layer metrics built from the spans.

`install` wraps, without touching the package source:

- every public module-level function of every specwave module, on every
  module attribute that binds it (``from .spectral import to_samples``
  makes a second binding in semidisc, timeint, ...);
- ``Poly.eval_on`` and each monitor returned by ``standard_monitors``;
- the numpy.fft and scipy.fft entry points, so a later switch between
  them or to real-to-complex transforms is still counted.

Spans live in memory as ``[name, start, end, parent, transforms, points]``
and are written out once, when the traced process ends.  A span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import time
from collections import defaultdict

FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

# Per-layer metrics of the traced run: name -> (unit, what it should move).
# Sums are per CLI invocation, "per_rhs" values average over all rhs calls.
LAYER_METRICS = {
    "spectral.fft.s": ("s", "steps_per_s, wall_s on run-2d and the converge-2d reference run"),
    "spectral.fft.transforms_per_rhs": ("count", "steps_per_s on run-2d (18 per 2D rhs, 6 per 1D rhs when the benchmark was added)"),
    "spectral.fft.points_per_rhs": ("count", "steps_per_s, peak_rss_mb on run-2d (computed: transforms x points)"),
    "spectral.to_samples.s": ("s", "steps_per_s on run-2d"),
    "spectral.hermitian_symmetrize.s": ("s", "steps_per_s on run-2d"),
    "spectral.filter_multiplier.calls_per_rhs": ("count", "steps_per_s on run-1d"),
    "poly.eval_on.s": ("s", "steps_per_s on run-1d and converge-2d small grids"),
    "semidisc.rhs.calls": ("count", "steps_per_s on every workload"),
    "semidisc.rhs.ms": ("ms", "steps_per_s on run-1d and converge-2d small grids"),
    "semidisc.rhs.self_s": ("s", "steps_per_s on run-1d and converge-2d small grids"),
    "timeint.rk4_step.self_s": ("s", "steps_per_s on every workload"),
    "timeint.evolve.self_s": ("s", "steps_per_s on every workload"),
    "timeint.monitor.samples": ("count", "steps_per_s on every workload"),
    "timeint.monitor.s": ("s", "steps_per_s on every workload"),
    "systems.hyperbolicity_margin.s": ("s", "wall_s on run-2d"),
    "systems.hamiltonian_energy.s": ("s", "wall_s on run-2d"),
    "analysis.reference.s": ("s", "wall_s on converge-2d"),
    "analysis.relative_error.s": ("s", "wall_s on converge-2d"),
    "initial.build_initial.s": ("s", "setup_s on every workload"),
    "sysio.parse_system.s": ("s", "setup_s on run-1d"),
    "cli.output.s": ("s", "wall_s on run-2d"),
    "cli.output.bytes": ("bytes", "wall_s on run-2d"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_fft = False

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_fft(self, lib: str, name: str, fn):
        """Span an FFT call and count its transforms and real-space points.

        Transforms inside another FFT span (library-internal calls) are not
        counted again.
        """
        is_nd = name.endswith(("n", "2"))
        default_axes = (-2, -1) if name.endswith("2") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_fft:
                return fn(*args, **kwargs)
            self._in_fft = True
            span = self._open(f"fft.{lib}.{name}")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
                self._in_fft = False
            # The real-space side is the input of a forward real transform
            # and the output of an inverse one; both sides agree otherwise.
            real = out if name.startswith(("irfft", "hfft")) else args[0] if args else kwargs["x"]
            shape = getattr(real, "shape", None) or (len(real),)
            if is_nd:
                axes = kwargs.get("axes", args[2] if len(args) > 2 else default_axes)
                axes = range(len(shape)) if axes is None else axes
            else:
                axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
            points = 1
            for n in shape:
                points *= n
            per_transform = 1
            for a in axes:
                per_transform *= shape[a]
            span[4] = points // per_transform
            span[5] = points
            return out

        return traced

    def dump(self, path: str, run_id: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, **extra, "spans": self.spans}, fh)


def install(tracer: Tracer) -> int:
    """Wrap the program's functions and the FFT entry points; return the bindings replaced."""
    import numpy.fft
    import scipy.fft

    import specwave

    wrappers: dict[int, object] = {}  # id(original) -> wrapper, which keeps the original alive
    for lib, mod in (("numpy", numpy.fft), ("scipy", scipy.fft)):
        for name in FFT_ENTRY_POINTS:
            fn = getattr(mod, name, None)
            if fn is not None and id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap_fft(lib, name, fn)

    modules = [specwave] + [
        importlib.import_module(f"specwave.{info.name}")
        for info in pkgutil.iter_modules(specwave.__path__)
    ]
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, val in vars(mod).items():
            if inspect.isfunction(val) and val.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[id(val)] = tracer.wrap(f"{short}.{attr}", val)

    timeint = importlib.import_module("specwave.timeint")
    monitors_orig = timeint.standard_monitors

    def standard_monitors(sys):
        return [(name, tracer.wrap(f"timeint.monitor.{name}", fn)) for name, fn in monitors_orig(sys)]

    wrappers[id(monitors_orig)] = tracer.wrap("timeint.standard_monitors", standard_monitors)
    poly = importlib.import_module("specwave.poly")
    poly.Poly.eval_on = tracer.wrap("poly.eval_on", poly.Poly.eval_on)

    replaced = 0
    for mod in modules + [numpy.fft, scipy.fft]:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
                replaced += 1
    return replaced


def calibrate(tracer: Tracer) -> list[str]:
    """Check that the FFT counters see each transform of a state exactly once.

    Converts a 3-component 2D state and a 2-component 1D state to samples
    and back through the public API; each direction must count one
    transform per component.  Independent of how rhs uses transforms.
    """
    import numpy as np

    from specwave.spectral import make_grid, state_from_samples, to_samples

    problems = []
    for d, n in ((2, 3), (1, 2)):
        grid = make_grid(d, 8)
        samples = np.cos(np.arange(n * grid.npoints, dtype=np.float64)).reshape((n,) + grid.shape)
        mark = len(tracer.spans)
        state = state_from_samples(grid, samples)
        forward = _transforms(tracer.spans[mark:])
        mark = len(tracer.spans)
        to_samples(state)
        inverse = _transforms(tracer.spans[mark:])
        for label, counted in (("state_from_samples", forward), ("to_samples", inverse)):
            if counted != n:
                problems.append(f"{label} on a {d}D {n}-component state counted {counted} transforms, want {n}")
    tracer.spans.clear()
    return problems


def _transforms(spans: list[list]) -> int:
    return sum(s[4] for s in spans)


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark's parent process)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced CLI invocation, keyed as LAYER_METRICS."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    in_rhs = [False] * len(spans)
    for i, s in enumerate(spans):  # a parent precedes its children
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
        in_rhs[i] = s[0] == "semidisc.rhs" or (p >= 0 and in_rhs[p])
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)  # self time
    rhs_own = 0.0  # semidisc's own time inside rhs: pointwise products, masks, allocation
    fft_transforms = fft_points = filter_calls = 0
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        own[s[0]] += dur[i] - child[i]
        if in_rhs[i]:
            rhs_own += dur[i] - child[i] if s[0].startswith("semidisc.") else 0.0
            filter_calls += s[0] == "spectral.filter_multiplier"
            fft_transforms += s[4]
            fft_points += s[5]
    rhs_ms = [dur[i] * 1e3 for i, s in enumerate(spans) if s[0] == "semidisc.rhs"]
    n_rhs = max(len(rhs_ms), 1)
    monitors = [s[0] for s in spans if s[0].startswith("timeint.monitor.")]
    # convergence_study evolves the reference before any case
    study = {i for i, s in enumerate(spans) if s[0] == "analysis.convergence_study"}
    reference = [dur[i] for i, s in enumerate(spans) if s[0] == "timeint.evolve" and s[3] in study]
    # The command function's own time is CSV formatting and writes; the
    # public formatters it calls are spans of their own and are added back.
    output = own["cli.cmd_run"] + own["cli.cmd_converge"] + sum(
        total[f] for f in ("timeint.monitor_csv", "analysis.report_csv", "analysis.report_table")
    )
    return {
        "spectral.fft.s": sum(v for k, v in total.items() if k.startswith("fft.")),
        "spectral.fft.transforms_per_rhs": fft_transforms / n_rhs,
        "spectral.fft.points_per_rhs": fft_points / n_rhs,
        "spectral.to_samples.s": total["spectral.to_samples"],
        "spectral.hermitian_symmetrize.s": total["spectral.hermitian_symmetrize"],
        "spectral.filter_multiplier.calls_per_rhs": filter_calls / n_rhs,
        "poly.eval_on.s": total["poly.eval_on"],
        "semidisc.rhs.calls": len(rhs_ms),
        "semidisc.rhs.ms": statistics.median(rhs_ms) if rhs_ms else 0.0,
        "semidisc.rhs.self_s": rhs_own,
        "timeint.rk4_step.self_s": own["timeint.rk4_step"],
        "timeint.evolve.self_s": own["timeint.evolve"],
        "timeint.monitor.samples": len(monitors) // max(len(set(monitors)), 1),
        "timeint.monitor.s": sum(v for k, v in total.items() if k.startswith("timeint.monitor.")),
        "systems.hyperbolicity_margin.s": total["systems.hyperbolicity_margin"],
        "systems.hamiltonian_energy.s": total["systems.hamiltonian_energy"],
        "analysis.reference.s": reference[0] if reference else 0.0,
        "analysis.relative_error.s": total["analysis.relative_error"],
        "initial.build_initial.s": total["initial.build_initial"],
        "sysio.parse_system.s": total["sysio.parse_system"],
        "cli.output.s": output,
    }
