"""Benchmark workloads: seed-drawn inputs for the specwave CLI and checks of its outputs.

Each workload is one CLI command on a config file (and, for run-1d, a
system definition file) generated from the benchmark seed.  Seeds map onto
NVARIANTS shipped variants; the CLI outputs of every variant were recorded
in reference.json when the benchmark was added, and every run is compared
against them.  A variant only changes initial-data parameters, never the grid,
the schemes or the step plan, so every seed does the same amount of work.

This module imports only the standard library: the setup worker must not
pull numpy in before it starts its clock.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

NVARIANTS = 16

# Loose enough for a reordered or real-to-complex FFT (those move the
# recorded numbers by ~1e-13 relative), tight enough for a wrong scheme:
# max_d2u and the convergence errors of different schemes differ by >= 1e-5.
RTOL = 1e-8
ATOL = 1e-12

SV1D_TEXT = """\
name saint-venant-1d
dim 1
size 2
A 1 1 1 (0 1) 1.0
A 1 1 2 (0 0) 1.0 (1 0) 1.0
A 1 2 1 (0 0) 1.0
A 1 2 2 (0 1) 1.0
S 1 1 (0 0) 1.0
S 1 2 (0 1) 1.0
S 2 1 (0 1) 1.0
S 2 2 (0 0) 1.0 (1 0) 1.0
SJ0 1 0.0 1.0 1.0 0.0
pred U (0 0) 1.0 (1 0) 1.0
pred UH (0 0) 1.0 (1 0) 1.0 (0 2) -1.0
"""


def _draw_2d_velocity(rng: random.Random) -> dict[str, float]:
    return {
        "init.u_l": rng.uniform(0.4, 0.6),
        "init.v_l": rng.uniform(-0.6, -0.4),
        "init.u_h": rng.uniform(0.8, 1.2),
        "init.v_h": rng.uniform(-1.2, -0.8),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: run | converge
    d: int  # spatial dimension
    why: str
    config: dict[str, str]  # fixed config keys
    draw: Callable[[random.Random], dict[str, float]]  # seed-drawn init.* values
    system_file: str | None = None  # definition text written next to the config


# run-2d is not listed in BENCHMARK.json: its 10 s CLI invocation (5 s of it
# CSV output) leaves two samples per gated run, too few to keep its wall_s
# steady on a machine whose speed drifts; run it by name to measure the 2D
# output path and the standard 2D system.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "run-2d",
            "run",
            2,
            "zero-depth-2d at M=128: transform-bound 2D rhs, monitors every step, largest CSVs;"
            " spectral.fft, hermitian_symmetrize, monitors and cli.output move wall_s/steps_per_s",
            {
                "system": "saint-venant-2d-standard",
                "scheme": "sharp smooth-nl",
                "initial": "init2D",
                "init.h0": "-0.1",
                "init.s": "2",
                "M": "128",
                "dt": "1e-3",
                "T": "0.005",
            },
            _draw_2d_velocity,
        ),
        Workload(
            "run-1d",
            "run",
            1,
            "saint-venant-1d from a definition file, 3 schemes, M=1024: overhead-bound 0.6 ms rhs;"
            " semidisc/poly/timeint self time and filter_multiplier move steps_per_s, sysio setup_s",
            {
                "scheme": "sharp smooth-all smooth-nl",
                "initial": "init1",
                "M": "1024",
                "dt": "1e-4",
                "T": "0.02",
            },
            lambda rng: {"init.alpha": rng.uniform(1.0, 2.0)},
            system_file=SV1D_TEXT,
        ),
        Workload(
            "converge-2d",
            "converge",
            2,
            "converge-2d-hamiltonian, jobs=1: an FFT-bound M_ref=128 run beside six overhead-bound small"
            " grids; spectral.fft, monitors and analysis.reference/relative_error move wall_s, steps_per_s",
            {
                "system": "saint-venant-2d-hamiltonian",
                "scheme": "sharp smooth-nl",
                "initial": "init2D",
                "init.s": "2",
                "M_list": "16 32 64",
                "M_ref": "128",
                "dt": "1e-3",
                "T": "0.003",
                "jobs": "1",
            },
            lambda rng: {"init.h0": rng.uniform(0.4, 0.6), **_draw_2d_velocity(rng)},
        ),
    ]
}


def write_inputs(wl: Workload, variant: int, workdir: str) -> dict:
    """Write the workload's input files; return the job spec the workers and checks use."""
    os.makedirs(workdir, exist_ok=True)
    cfg = dict(wl.config)
    cfg.update({k: repr(round(v, 6)) for k, v in wl.draw(random.Random(variant)).items()})
    if wl.system_file is not None:
        system_path = os.path.join(workdir, "system.txt")
        with open(system_path, "w", encoding="utf-8") as fh:
            fh.write(wl.system_file)
        cfg["system"] = system_path
    config_path = os.path.join(workdir, f"{wl.name}.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))

    schemes = cfg["scheme"].split()
    if wl.command == "run":
        grids = [int(cfg["M"])]
        runs = [(kind, grids[0]) for kind in schemes]
    else:
        m_list = [int(m) for m in cfg["M_list"].split()]
        grids = m_list + [int(cfg["M_ref"])]
        # convergence_study evolves the sharp reference first, then every case
        runs = [("sharp", grids[-1])] + [(kind, m) for m in m_list for kind in schemes]
    return {
        "workload": wl.name,
        "command": wl.command,
        "d": wl.d,
        "config": config_path,
        "system": cfg["system"],
        "system_is_file": wl.system_file is not None,
        "initial": cfg["initial"],
        "params": {k[5:]: float(v) for k, v in cfg.items() if k.startswith("init.")},
        "schemes": schemes,
        "grids": grids,
        "runs": runs,
        "dt": float(cfg["dt"]),
        "T": float(cfg["T"]),
    }


def step_count(T: float, dt: float) -> int:
    """RK4 steps evolve() takes to reach T: whole dt steps plus a final partial one."""
    n_full = int(math.floor(T / dt + 1e-9))
    return n_full + (1 if T - n_full * dt > 1e-9 * dt else 0)


def dealias_cutoff(M: int) -> int:
    """Retained cutoff N of the 2M-point grid (two-thirds rule)."""
    two_m = 2 * M
    return (two_m - 1) // 3 if two_m % 3 == 0 else two_m // 3


# ---------------------------------------------------------------------------
# Output checks


# Under numpy 2 the CLI writes numpy scalars as 'np.float64(x)' in
# snapshots.csv and spectrum.csv; the wrapper is stripped before parsing.
_NUMPY_REPR = "np.float64("


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().replace(_NUMPY_REPR, "").replace(")", "").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _all_finite_numbers(path: str) -> tuple[int, bool]:
    """(data rows, every cell a finite float) of a numeric CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        body = fh.read().replace(_NUMPY_REPR, "").replace(")", "")
    rows = body.count("\n")
    try:
        cells = [float(c) for c in body.replace("\n", ",").split(",") if c]
    except ValueError:
        return rows, False
    return rows, all(math.isfinite(c) for c in cells)


def _close(got: str, want) -> bool:
    if want is None or want == "":
        return got == ""
    try:
        g = float(got)
    except ValueError:
        return False
    return math.isfinite(g) and abs(g - want) <= ATOL + RTOL * abs(want)


def parse_summary(outdir: str) -> list[list]:
    """summary.csv rows as [scheme, status, blowup_time, Hs0, Hs1, max_d2u]."""
    _, rows = read_csv(os.path.join(outdir, "summary.csv"))
    return [[r[0], r[1]] + [float(c) if c else None for c in r[2:]] for r in rows]


def parse_report(outdir: str) -> list[list]:
    """report.csv rows as [two_M, scheme, E0, E1, EOC0, EOC1, status]."""
    _, rows = read_csv(os.path.join(outdir, "report.csv"))
    return [[int(r[0]), r[1]] + [float(c) if c else None for c in r[2:-1]] + [r[-1]] for r in rows]


def check_outputs(spec: dict, outdir: str, reference: dict | None) -> list[str]:
    """Problems found in one CLI invocation's outputs (empty list: correct).

    With reference=None only the structural checks run (used while recording).
    """
    try:
        if spec["command"] == "run":
            return _check_run(spec, outdir, reference)
        return _check_converge(spec, outdir, reference)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]


def _check_run(spec: dict, outdir: str, reference: dict | None) -> list[str]:
    problems = []
    M, d = spec["grids"][0], spec["d"]
    n_cut = dealias_cutoff(M)
    header, rows = read_csv(os.path.join(outdir, "summary.csv"))
    if [r[0] for r in rows] != spec["schemes"]:
        problems.append(f"summary.csv schemes {[r[0] for r in rows]} != {spec['schemes']}")
    for row in rows:
        if row[1] != "completed":
            problems.append(f"{row[0]}: status {row[1]!r}, expected 'completed'")
    if reference is not None:
        for row, want in zip(rows, reference["summary"]):
            for col, got, exp in zip(header[2:], row[2:], want[2:]):
                if not _close(got, exp):
                    problems.append(f"{row[0]}: {col}={got} differs from seed reference {exp!r}")
    for kind in spec["schemes"]:
        sub = os.path.join(outdir, kind)
        n, finite = _all_finite_numbers(os.path.join(sub, "monitors.csv"))
        want_rows = n if reference is None else reference["monitor_rows"][kind]
        if not finite or n != want_rows:
            problems.append(f"{kind}/monitors.csv: {n} rows (want {want_rows}), finite={finite}")
        n, finite = _all_finite_numbers(os.path.join(sub, "snapshots.csv"))
        if not finite or n != 2 * (2 * M) ** d:
            problems.append(f"{kind}/snapshots.csv: {n} rows, finite={finite}")
        _, spec_rows = read_csv(os.path.join(sub, "spectrum.csv"))
        out_of_band = [r for r in spec_rows if any(abs(int(k)) > n_cut for k in r[:d])]
        if out_of_band:
            problems.append(f"{kind}/spectrum.csv: {len(out_of_band)} modes with |k| > N={n_cut}")
        cells = [float(c) for r in spec_rows for c in r[d:]]
        if len(spec_rows) != (2 * n_cut + 1) ** d or not all(math.isfinite(c) for c in cells):
            problems.append(f"{kind}/spectrum.csv: {len(spec_rows)} modes or non-finite values")
    return problems


def _check_converge(spec: dict, outdir: str, reference: dict | None) -> list[str]:
    problems = []
    header, rows = read_csv(os.path.join(outdir, "report.csv"))
    want_keys = [(str(2 * m), k) for m in spec["grids"][:-1] for k in spec["schemes"]]
    if [(r[0], r[1]) for r in rows] != want_keys:
        problems.append(f"report.csv rows {[(r[0], r[1]) for r in rows]} != {want_keys}")
    for row in rows:
        if row[-1] != "completed":
            problems.append(f"{row[0]} {row[1]}: status {row[-1]!r}, expected 'completed'")
        for col, cell in zip(header[2:-1], row[2:-1]):
            if cell and not math.isfinite(float(cell)):
                problems.append(f"{row[0]} {row[1]}: {col} not finite")
    if reference is not None:
        for row, want in zip(rows, reference["report"]):
            for col, got, exp in zip(header[2:-1], row[2:-1], want[2:-1]):
                if not _close(got, exp):
                    problems.append(f"{row[0]} {row[1]}: {col}={got} differs from seed reference {exp!r}")
    if not os.path.getsize(os.path.join(outdir, "report.txt")):
        problems.append("report.txt is empty")
    return problems
