"""specwave benchmark: CLI workloads, end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload run-1d --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --record-reference

Run from the root of a source checkout; the program is imported from
./src.  One client runs in a closed loop, one child process at a time, with
the thread variables in PINNED_THREADS set to 1.  BENCHMARK.json gates
run-1d and converge-2d; run-2d (see workloads.py) runs by name.

--trace 0 measures, with no tracing:
  setup_s      time in a fresh interpreter to import specwave.cli and build the
               workload's system, grids and initial data
  wall_s       wall time of the workload's CLI command in a fresh process
               (includes interpreter start and output writing)
  steps_per_s  RK4 steps of one pass over the workload's runs, divided by the
               seconds of the benchmark's own calls to evolve() in that pass
  peak_rss_mb  median peak resident memory of the CLI process
The three timings are means over the run at a reference speed: each is
multiplied by SPEED_PROBE_REF_S / (mean of the worker.speed_probe_s() samples
taken before every timed operation, or, for steps_per_s, before every
evolve() call).  On a shared Intel Xeon host with 2 vCPUs, each virtual
CPU switches, every second or so, between its normal speed and one about 45%
slower, and the slow share varies from one minute to the next: whole 60 s
runs read 25-45% slower than others.  A mean of samples spread evenly over a
run is linear in that share, so the ratio of two such means cancels it.  In
sets of ten 60 s runs there, the quartile spread of the scaled wall_s was
0.02-0.07 of its median, against 0.07-0.25 for the raw median, mean or
shortest sample of the same runs.  The raw samples are printed and saved
with the result.
--trace 1 runs the layer probes, then alternates untraced and traced CLI
invocations and reports the per-layer metrics (see tracing.LAYER_METRICS)
with trace.overhead_frac, the relative wall-time cost of tracing.

Every CLI invocation's outputs are checked against reference.json, the
outputs of every input variant recorded when the benchmark was added
(--record-reference rewrites it).  The last line of stdout is the JSON
result; fail_frac, printed above it, is failed / attempted.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from tracing import LAYER_METRICS, layer_metrics
from worker import SPEED_PROBE_REF_S, speed_probe_s
from workloads import (
    ATOL,
    NVARIANTS,
    RTOL,
    WORKLOADS,
    check_outputs,
    parse_report,
    parse_summary,
    read_csv,
    write_inputs,
)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_REPEATS = 3
# One round of the untraced run; wall_s, whose samples are the longest,
# gets two samples per round.
SCHEDULE = ("setup", "cli", "pass", "cli")
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150


class ChildResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINNED_THREADS)


def run_child(argv: list[str], workdir: str) -> ChildResult:
    """Run one child to completion; wall time and peak RSS are its own (wait4)."""
    out_path, err_path = os.path.join(workdir, "child.out"), os.path.join(workdir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return ChildResult(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024.0)


class Bench:
    """One benchmark run: counts attempts and failures and keeps the samples."""

    def __init__(self, spec: dict, workdir: str, reference: dict | None):
        self.spec, self.workdir, self.reference = spec, workdir, reference
        self.spec_path = os.path.join(workdir, "spec.json")
        with open(self.spec_path, "w") as fh:
            json.dump(spec, fh)
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.start = time.perf_counter()
        self._cli_index = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def attempt(self, problems: list[str]) -> None:
        """Count one attempted operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def worker(self, *args: str) -> dict | None:
        res = run_child([os.path.join(BENCH, "worker.py"), *args], self.workdir)
        if res.code != 0:
            self.attempt([f"worker {args[0]} exited {res.code}: {res.stderr.strip()[-400:]}"])
            return None
        return json.loads(res.stdout.strip().splitlines()[-1])

    def setup_probe(self) -> dict | None:
        result = self.worker("setup", self.spec_path)
        if result is not None:
            src = os.path.join(ROOT, "src") + os.sep
            self.attempt([] if result["specwave"].startswith(src) else [f"specwave imported from {result['specwave']}"])
        return result

    def cli(self, traced: bool) -> tuple[ChildResult, int]:
        """One CLI invocation in a fresh process; returns it and the bytes it wrote."""
        self._cli_index += 1
        outdir = os.path.join(self.workdir, f"out{self._cli_index}")
        args = [self.spec["command"], "--config", self.spec["config"], "--out", outdir]
        if traced:
            spans = os.path.join(self.workdir, "spans.json")
            res = run_child([os.path.join(BENCH, "worker.py"), "trace", spans, f"cli{self._cli_index}", *args], self.workdir)
        else:
            res = run_child(["-m", "specwave.cli", *args], self.workdir)
        problems = [] if res.code == 0 else [f"CLI exited {res.code}: {res.stderr.strip()[-400:]}"]
        if not problems:
            problems = check_outputs(self.spec, outdir, self.reference)
        self.attempt(problems)
        written = sum(os.path.getsize(p) for p in glob.glob(os.path.join(outdir, "**"), recursive=True) if os.path.isfile(p))
        shutil.rmtree(outdir, ignore_errors=True)
        return res, written


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = {}
        for key in ("level", "type", "size"):
            with open(os.path.join(index, key)) as fh:
                fields[key] = fh.read().strip()
        caches[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "pinned_threads": PINNED_THREADS,
    }


class EvolveWorker:
    """A long-lived worker that runs one pass of evolve() calls per request."""

    def __init__(self, bench: Bench):
        self.err = open(os.path.join(bench.workdir, "evolve.err"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), "evolve", bench.spec_path],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err, text=True,
        )
        self.ready = self._reply() == "ready"

    def _reply(self) -> str:
        killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            return self.proc.stdout.readline().strip()
        finally:
            killer.cancel()

    def run_pass(self) -> dict | None:
        if not self.ready or self.proc.poll() is not None:
            return None
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self._reply()
        return json.loads(line) if line else None

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off.

    After one untimed set-up probe (it warms the page cache and the
    bytecode cache), the operations of SCHEDULE repeat until the run is
    over, an operation that would overrun it being skipped, so that every
    metric samples the whole run: the speed of a shared virtual machine
    drifts by tens of percent over tens of seconds.
    """
    bench.setup_probe()
    worker = EvolveWorker(bench)
    setup, walls, rss, passes = [], [], [], []

    def setup_probe() -> bool:
        r = bench.setup_probe()
        if r:
            setup.append(r["setup_s"])
        return True

    def evolve_pass() -> bool:
        p = worker.run_pass()
        bad = ["no reply"] if p is None else [s for s in p["statuses"] if s != "completed"]
        bench.attempt([f"evolve pass failed: {bad}"] if bad else [])
        if p is not None:
            passes.append(p)
        return p is not None

    def cli() -> bool:
        res, _ = bench.cli(traced=False)
        walls.append(res.wall)
        rss.append(res.rss_mb)
        return True

    ops = {"setup": setup_probe, "cli": cli, "pass": evolve_pass}
    took: dict[str, list[float]] = {op: [] for op in ops}
    speed = []
    try:
        for i in itertools.count():
            op = SCHEDULE[i % len(SCHEDULE)]
            if i >= MIN_ROUNDS * len(SCHEDULE):
                fits = {o for o in ops if bench.elapsed() + statistics.median(took[o]) <= seconds}
                if not fits:
                    break
                if op not in fits:
                    continue
            speed.append(speed_probe_s())
            t0 = time.perf_counter()
            if not ops[op]():  # the evolve worker is gone; the failure is counted
                break
            took[op].append(time.perf_counter() - t0)
    finally:
        worker.close()
    scale = SPEED_PROBE_REF_S / statistics.mean(speed)
    nan = float("nan")
    pass_s = [sum(p["seconds"]) for p in passes]
    pass_speed = [s for p in passes for s in p["speed_probe_s"]]
    metrics = {
        "wall_s": (statistics.mean(walls) * scale, "s"),
        "setup_s": (statistics.mean(setup) * scale if setup else nan, "s"),
        "steps_per_s": (passes[0]["steps"] / statistics.mean(pass_s) * statistics.mean(pass_speed) / SPEED_PROBE_REF_S
                        if passes else nan, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": walls, "setup_s": setup, "evolve_pass_s": pass_s, "peak_rss_mb": rss,
               "speed_probe_s": speed, "pass_speed_probe_s": pass_speed}
    return metrics, samples


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: layer probes, then untraced/traced CLI pairs."""
    setups = [r for r in (bench.setup_probe() for _ in range(SETUP_REPEATS)) if r]
    probes = bench.worker("probe", bench.spec_path) or {}
    spans_path = os.path.join(bench.workdir, "spans.json")
    plain, traced, layers, written = [], [], [], []
    while not traced or bench.elapsed() + statistics.median(plain) + statistics.median(traced) <= seconds:
        plain.append(bench.cli(traced=False)[0].wall)
        res, nbytes = bench.cli(traced=True)
        traced.append(res.wall)
        if not os.path.exists(spans_path):
            bench.attempt(["traced CLI wrote no spans"])
            continue
        with open(spans_path) as fh:
            dump = json.load(fh)
        bench.attempt([f"trace calibration: {p}" for p in dump["calibration"]])
        layers.append({**layer_metrics(dump["spans"]), "cli.output.bytes": nbytes})
        os.makedirs(WORK, exist_ok=True)
        shutil.move(spans_path, os.path.join(WORK, f"spans-{bench.spec['workload']}.json"))
    nan = float("nan")
    metrics = {
        name: (statistics.median(l[name] for l in layers) if layers else nan, unit)
        for name, (unit, _) in LAYER_METRICS.items()
    }
    metrics["setup.import_s"] = (statistics.median(r["import_s"] for r in setups) if setups else nan, "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics.update((name, (value, "ms")) for name, value in probes.items())
    return metrics, {"plain_wall_s": plain, "traced_wall_s": traced, "layers": layers}


def record_reference() -> int:
    """Run every variant of every workload once and store its outputs as the reference."""
    workloads: dict = {}
    worst = float("inf")
    for wl in WORKLOADS.values():
        workloads[wl.name] = {}
        for variant in range(NVARIANTS):
            workdir = os.path.join(WORK, f"record-{wl.name}-{variant}")
            spec = write_inputs(wl, variant, workdir)
            outdir = os.path.join(workdir, "out")
            res = run_child(["-m", "specwave.cli", spec["command"], "--config", spec["config"], "--out", outdir], workdir)
            problems = check_outputs(spec, outdir, None) if res.code == 0 else [res.stderr]
            if problems:
                print(f"{wl.name} variant {variant}: {problems}", file=sys.stderr)
                return 1
            if spec["command"] == "run":
                rows = parse_summary(outdir)
                entry = {
                    "summary": rows,
                    "monitor_rows": {
                        kind: len(read_csv(os.path.join(outdir, kind, "monitors.csv"))[1]) for kind in spec["schemes"]
                    },
                }
                groups = [[r[3:] for r in rows]]
            else:
                rows = parse_report(outdir)
                entry = {"report": rows}
                groups = [[r[2:6] for r in rows if r[0] == two_m] for two_m in sorted({r[0] for r in rows})]
            # a swapped scheme must move some recorded number far beyond the tolerance
            for group in groups:
                for a in group:
                    for b in group:
                        if a is not b:
                            gaps = [abs(x - y) / (ATOL + RTOL * abs(y)) for x, y in zip(a, b)
                                    if x is not None and y is not None]
                            worst = min(worst, max(gaps))
            workloads[wl.name][str(variant)] = entry
            print(f"{wl.name} variant {variant}: {res.wall:.1f} s", file=sys.stderr)
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"smallest scheme-swap gap: {worst:.3g} x tolerance", file=sys.stderr)
    if worst < 100:
        return 1
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        json.dump({"rtol": RTOL, "atol": ATOL, "workloads": workloads}, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "specwave", "__init__.py")):
        print(f"error: no specwave source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(BENCH, "reference.json")) as fh:
        references = json.load(fh)["workloads"]

    # the speed probes and the children they scale run on the same vCPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload]
    variant = args.seed % NVARIANTS
    workdir = os.path.join(WORK, f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
    try:
        spec = write_inputs(wl, variant, workdir)
        bench = Bench(spec, workdir, references[wl.name][str(variant)])
        metrics, samples = (measure_traced if args.trace else measure)(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    env = environment()
    print(f"environment: {json.dumps(env)}")
    print(f"workload {wl.name}, seed {args.seed} (variant {variant}), {args.seconds:g} s, trace {args.trace},"
          f" {bench.elapsed():.1f} s elapsed")
    for name, values in samples.items():
        if name != "layers":
            print(f"  samples {name} (n={len(values)}, median {statistics.median(values) if values else float('nan'):.4g}):"
                  f" {[round(v, 4) for v in values]}")
    for name, (value, unit) in metrics.items():
        moves = LAYER_METRICS[name][1] if name in LAYER_METRICS else ""
        print(f"  {name:44} {value:14.6g} {unit:6} {moves}")
    print(f"  {'fail_frac':44} {bench.failed / max(bench.attempted, 1):14.6g} ({bench.failed}/{bench.attempted})")
    for problem in bench.problems[:20]:
        print(f"  FAILED: {problem}")
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, "workload": wl.name, "seed": args.seed, "variant": variant,
                   "metrics": metrics, "samples": samples, "problems": bench.problems}, fh, indent=1)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
