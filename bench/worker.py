"""Child processes of the benchmark, one fresh interpreter each.

    python3 bench/worker.py setup  SPEC.json
    python3 bench/worker.py evolve SPEC.json   (one pass per line read on stdin)
    python3 bench/worker.py probe  SPEC.json
    python3 bench/worker.py trace  SPANS.json RUN_ID CLI-ARGS...

setup and probe print one JSON object on stdout, evolve one JSON line per
pass, and trace prints what the CLI prints and writes its spans to
SPANS.json.  SPEC.json is the job spec written by workloads.write_inputs.
Only the standard library is imported before the setup clock starts.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


# speed_probe_s() on an unslowed vCPU of the 2-vCPU Xeon host described in
# run.py; it only sets the scale of the timings, which stay comparable
# between commits.
SPEED_PROBE_REF_S = 0.030


def speed_probe_s() -> float:
    """Seconds of a fixed piece of work mixing numpy transforms on a 256x256
    grid with a pure-Python loop, as the program mixes them."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    t0 = time.perf_counter()
    for _ in range(4):
        a = a * 0.999 + np.fft.ifft2(np.fft.fft2(a) * 0.5).real * 0.001
    total = 0
    for i in range(300_000):
        total += i % 7
    return time.perf_counter() - t0


def _build(spec: dict):
    """The workload's system and initial state on each grid, through the public API."""
    from specwave.initial import build_initial
    from specwave.spectral import make_grid

    if spec["system_is_file"]:
        from specwave.sysio import parse_system

        system = parse_system(spec["system"])
    else:
        from specwave.systems import builtin_system

        system = builtin_system(spec["system"])
    states = {M: build_initial(spec["initial"], spec["params"], make_grid(system.d, M)) for M in spec["grids"]}
    return system, states


def setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    import specwave.cli

    t1 = time.perf_counter()
    _build(spec)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "setup_s": t2 - t0, "specwave": specwave.cli.__file__}


def evolve_passes(spec: dict) -> None:
    """Time the public evolve() over every run of the workload, one pass per stdin line.

    Prints "ready" once built and warmed up, then one JSON line per pass, so
    the benchmark can interleave passes with CLI invocations.
    """
    from specwave.semidisc import SchemeSpec, rhs
    from specwave.timeint import EvolveConfig, evolve

    from workloads import step_count

    system, states = _build(spec)
    cfg = EvolveConfig(dt=spec["dt"], T=spec["T"])
    for kind, M in spec["runs"]:  # first-call costs stay out of the timed passes
        rhs(SchemeSpec(kind), system, states[M])
    full = step_count(cfg.T, cfg.dt)
    print("ready", flush=True)
    for _ in sys.stdin:
        seconds, steps, statuses, speed = [], 0, [], []
        for kind, M in spec["runs"]:
            speed.append(speed_probe_s())
            t0 = time.perf_counter()
            result = evolve(SchemeSpec(kind), system, states[M], cfg)
            seconds.append(time.perf_counter() - t0)
            statuses.append(result.status)
            steps += full if result.completed else int(result.blowup_time / cfg.dt)
        print(json.dumps({"seconds": seconds, "steps": steps, "statuses": statuses, "speed_probe_s": speed}), flush=True)


def probe(spec: dict) -> dict:
    """Warmed-up medians of single public calls on the workload's finest grid."""
    from specwave.semidisc import SCHEME_KINDS, SchemeSpec, rhs
    from specwave.spectral import (
        FilterSpec,
        apply_filter,
        hermitian_symmetrize,
        state_from_samples,
        to_samples,
    )
    from specwave.timeint import rk4_step, standard_monitors

    system, states = _build(spec)
    M = max(spec["grids"])
    grid = states[M].grid
    state = apply_filter(states[M], FilterSpec("sharp", SchemeSpec("sharp").cutoff(grid)))
    samples = to_samples(state)
    out: dict[str, float] = {}

    def timed(name: str, call) -> None:
        call()
        times: list[float] = []
        while len(times) < 3 or (sum(times) < 0.3 and len(times) < 200):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = out.get(name, 0.0) + statistics.median(times) * 1e3

    for kind in SCHEME_KINDS:
        timed(f"probe.rhs.{kind}.ms", lambda: rhs(SchemeSpec(kind), system, state))
    sharp = SchemeSpec("sharp")
    timed("probe.rk4_step.ms", lambda: rk4_step(lambda st: rhs(sharp, system, st), state, spec["dt"]))
    timed("probe.to_samples.ms", lambda: to_samples(state))
    timed("probe.state_from_samples.ms", lambda: state_from_samples(grid, samples))
    timed("probe.hermitian_symmetrize.ms", lambda: hermitian_symmetrize(state.coeffs, grid.d))
    for name, fn in standard_monitors(system):
        # one margin monitor per predicate: their per-sample costs add up
        timed(f"probe.monitor.{'margin' if name.startswith('margin_') else name}.ms", lambda: fn(state))
    return out


def trace(spans_path: str, run_id: str, argv: list[str]) -> int:
    import tracing

    tracer = tracing.Tracer()
    bindings = tracing.install(tracer)
    problems = tracing.calibrate(tracer)
    import specwave.cli

    code = 2
    try:
        code = specwave.cli.main(argv)
    finally:
        tracer.dump(spans_path, run_id, {"bindings": bindings, "calibration": problems, "exit": code})
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "trace":
        return trace(sys.argv[2], sys.argv[3], sys.argv[4:])
    with open(sys.argv[2], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        result = setup(spec)
    elif mode == "evolve":
        evolve_passes(spec)
        return 0
    elif mode == "probe":
        result = probe(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
