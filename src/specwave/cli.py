"""Command-line front end.

Subcommands: run, converge, check-system, probe-jn, list-presets.
Configuration is flat key-value text (see README); command-line flags
override config-file values, which override preset values.  Exit codes:
0 success (a detected blow-up is still success), 1 usage or configuration
error, 2 unexpected numerical fault.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
from dataclasses import dataclass, field

import numpy as np

from .analysis import convergence_study, jn_study, report_csv, report_table
from .initial import build_initial
from .presets import CONFIG_KEYS, ConfigError, get_preset, parse_config_text, preset_names
from .semidisc import SCHEME_KINDS, SchemeSpec
from .spectral import StateField, coefficients_at, dealias, linf, make_grid, sobolev_norm, to_samples
from .sysio import SystemFormatError, parse_system
from .systems import (
    BUILTIN_SYSTEMS,
    SystemDef,
    builtin_system,
    check_compatibility_AS,
    check_factorization,
    check_symmetrizer,
)
from .timeint import EvolveConfig, csv_table, curvature, evolve, monitor_csv

__all__ = ["main"]


@dataclass
class ExperimentConfig:
    system: str = "saint-venant-1d"
    schemes: list[str] = field(default_factory=lambda: ["sharp"])
    initial: str = "init1"
    init_params: dict = field(default_factory=dict)
    M: int | None = None
    M_list: list[int] | None = None
    M_ref: int | None = None
    dt: float = 1e-4
    T: float = 0.1
    s_norms: tuple[float, ...] = (0.0, 1.0)
    out: str = "out"
    jobs: int = 1
    blowup_threshold: float = 1e6
    monitor_stride: int | None = None
    N_list: list[int] | None = None
    p: int = 1
    q: int = 0


def _build_config(raw: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in raw.items():
        try:
            if key.startswith("init."):
                cfg.init_params[key[5:]] = float(value)
            else:
                name, parse = CONFIG_KEYS[key]
                setattr(cfg, name, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    _validate(cfg)
    return cfg


def _evolve_config(cfg: ExperimentConfig) -> EvolveConfig:
    try:
        return EvolveConfig(
            dt=cfg.dt,
            T=cfg.T,
            monitor_stride=cfg.monitor_stride,
            blowup_threshold=cfg.blowup_threshold,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _validate(cfg: ExperimentConfig) -> None:
    for key, values in (("scheme", cfg.schemes), ("s_norms", cfg.s_norms)):
        if not values:
            raise ConfigError(f"{key} is empty")
    for kind in cfg.schemes:
        if kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme {kind!r}; choices: {', '.join(SCHEME_KINDS)}")
    _evolve_config(cfg)
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {cfg.jobs}")
    for s in cfg.s_norms:
        if not 0.0 <= s < math.inf:  # NaN fails both bounds
            raise ConfigError(f"s_norms entries must be finite and nonnegative, got {s}")
    lists = (("scheme", cfg.schemes), ("M_list", cfg.M_list or []), ("N_list", cfg.N_list or []))
    for key, values in lists:
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigError(f"{key} repeats {', '.join(map(str, repeated))}")
    for m in [cfg.M, cfg.M_ref, *(cfg.M_list or [])]:
        if m is None:
            continue
        if m < 4:
            raise ConfigError(f"M must be >= 4, got {m}")
        if m & (m - 1):
            print(f"warning: M={m} is not a power of two", file=_sys.stderr)


def _resolve_system(name_or_path: str) -> SystemDef:
    if name_or_path in BUILTIN_SYSTEMS:
        return builtin_system(name_or_path)
    if os.path.exists(name_or_path):
        return parse_system(name_or_path)
    known = ", ".join(sorted(BUILTIN_SYSTEMS))
    raise ConfigError(f"{name_or_path!r} is neither a built-in system ({known}) nor a file")


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _spectrum_csv(state: StateField) -> str:
    """Final coefficients on the retained band, modes ascending (row-major in 2D)."""
    grid = state.grid
    band = np.arange(-grid.dealias_N, grid.dealias_N + 1)
    kept = coefficients_at(state, band).reshape(state.n, -1)
    ks = [k.ravel() for k in np.meshgrid(*[band] * grid.d, indexing="ij")]
    header = ["k"] if grid.d == 1 else ["k1", "k2"]
    header += [f"c{i}_{part}" for i in range(state.n) for part in ("re", "im")]
    return csv_table(header, [*ks, *(part for c in kept for part in (c.real, c.imag))])


def _snapshot_csv(snapshots: list[tuple[float, StateField, StateField]]) -> str:
    """Collocation values of each (t, state, curvature(state)), one row per point and time."""
    grid, n = snapshots[0][1].grid, snapshots[0][1].n
    coord_cols = ["x"] if grid.d == 1 else ["x", "y"]
    header = ["time", *coord_cols, *(f"comp{i}" for i in range(n)), "d2_comp1"]
    times = np.repeat([t for t, _, _ in snapshots], grid.npoints)
    # row-major: the last axis varies fastest
    coords = [np.tile(x.ravel(), len(snapshots)) for x in grid.mesh]
    values = np.concatenate(
        [np.concatenate([to_samples(st), to_samples(d2)]).reshape(n + 1, -1) for _, st, d2 in snapshots],
        axis=1,
    )
    return csv_table(header, [times, *coords, *values])


def cmd_run(cfg: ExperimentConfig) -> int:
    if cfg.M is None:
        raise ConfigError("run requires M")
    system = _resolve_system(cfg.system)
    grid = make_grid(system.d, cfg.M)
    state0 = build_initial(cfg.initial, cfg.init_params, grid)
    evolve_cfg = _evolve_config(cfg)
    projected0 = dealias(state0)  # the data as evolve projects them
    initial = (0.0, projected0, curvature(projected0))
    summary = []
    for kind in cfg.schemes:
        result = evolve(SchemeSpec(kind), system, state0, evolve_cfg)
        outdir = os.path.join(cfg.out, kind)
        final = result.final_state
        d2 = curvature(final)
        _write(os.path.join(outdir, "monitors.csv"), monitor_csv(result))
        _write(os.path.join(outdir, "spectrum.csv"), _spectrum_csv(final))
        snapshots = [initial, (result.final_time, final, d2)]
        _write(os.path.join(outdir, "snapshots.csv"), _snapshot_csv(snapshots))
        summary.append((kind, result.status, result.blowup_time,
                        sobolev_norm(final, 0), sobolev_norm(final, 1), linf(d2)))
        print(f"{kind}: {result.status}"
              + (f" at t={result.blowup_time}" if result.blowup_time is not None else ""))
    header = ["scheme", "status", "blowup_time", "Hs0", "Hs1", "max_d2u"]
    _write(os.path.join(cfg.out, "summary.csv"), csv_table(header, list(zip(*summary))))
    return 0


def cmd_converge(cfg: ExperimentConfig) -> int:
    if not cfg.M_list or cfg.M_ref is None:
        raise ConfigError("converge requires M_list and M_ref")
    system = _resolve_system(cfg.system)
    report = convergence_study(
        system,
        cfg.schemes,
        cfg.initial,
        cfg.init_params,
        cfg.M_list,
        cfg.M_ref,
        _evolve_config(cfg),
        s_norms=cfg.s_norms,
        jobs=cfg.jobs,
    )
    _write(os.path.join(cfg.out, "report.csv"), report_csv(report))
    table = report_table(report)
    _write(os.path.join(cfg.out, "report.txt"), table)
    print(table, end="")
    return 0


def cmd_check_system(cfg: ExperimentConfig) -> int:
    system = _resolve_system(cfg.system)
    failed = False

    degree = max(Aj.max_degree() for Aj in system.A)
    print(f"polynomial-entries: PASS (max degree {degree})")

    if system.S is None:
        print("symmetrizer: SKIP (none registered)")
        print("compatibility-split: SKIP (none registered)")
    else:
        rep = check_symmetrizer(system)
        _print_report("symmetrizer", rep, f"symmetry exact; positive definite at {rep.n_samples} samples")
        failed |= not rep.passed
        rep = check_compatibility_AS(system)
        _print_report("compatibility-split", rep, "exact")
        failed |= not rep.passed

    if system.SJ0 is None:
        print("constant-factorization: SKIP (no factor matrices registered)")
    else:
        rep = check_factorization(system)
        _print_report("constant-factorization", rep, "exact")
        failed |= not rep.passed

    if system.S is None:
        print("energy-density: SKIP (none registered)")
    elif system.H is None:
        print("energy-density: SKIP (S is not a Hessian)")
    else:
        print("energy-density: PASS (exact: S = D^2 H)")
    return 1 if failed else 0


def _print_report(label: str, rep, how: str) -> None:
    status = "PASS" if rep.passed else "FAIL"
    print(f"{label}: {status} ({how})")
    for msg in rep.failures[:5]:
        print(f"  {msg}")
    if len(rep.failures) > 5:
        print(f"  ... {len(rep.failures) - 5} more failures")


def cmd_probe_jn(cfg: ExperimentConfig) -> int:
    if not cfg.N_list:
        raise ConfigError("probe-jn requires N_list")
    system = _resolve_system(cfg.system)
    study = jn_study(system, cfg.N_list, p=cfg.p, q=cfg.q)
    _write(os.path.join(cfg.out, "jn.csv"), csv_table(["N", "J"], [study["N"], study["J"]]))
    if study["slope"] is not None:
        _write(os.path.join(cfg.out, "slope.txt"), repr(study["slope"]) + "\n")
        print(f"fitted slope: {study['slope']}")
    for n_val, j_val in zip(study["N"], study["J"]):
        print(f"N={n_val}  J={j_val}")
    return 0


def cmd_list_presets() -> int:
    for name in preset_names():
        preset = get_preset(name)
        print(f"{name:28} [{preset.kind}]  {preset.description}")
    return 0


def _gather_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if getattr(args, "preset", None):
        preset = get_preset(args.preset)
        if preset.kind != args.command:
            raise ConfigError(
                f"preset {preset.name!r} belongs to subcommand {preset.kind!r}"
            )
        raw.update(preset.config)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw.update(parse_config_text(fh.read(), source=args.config))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    for key in CONFIG_KEYS:  # each flag's dest is its config key; its text goes to the key's parser
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return _build_config(raw)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key-value config file")
    sub.add_argument("--preset", help="named preset from the catalog")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--jobs", help="worker processes for independent runs")
    sub.add_argument("--system", help="built-in system name or definition file path")
    sub.add_argument("--scheme", help="scheme(s): sharp | smooth-all | smooth-nl")
    sub.add_argument("--initial", help="initial data catalog name")
    sub.add_argument("--M", help="grid half-resolution (2M points per axis)")
    sub.add_argument("--M-ref", dest="M_ref", help="reference half-resolution")
    sub.add_argument("--M-list", dest="M_list", help="space/comma separated half-resolutions")
    sub.add_argument("--dt", help="time step")
    sub.add_argument("--T", help="final time")


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors: exit 1, as documented (argparse exits 2)."""

    def error(self, message: str):
        self.print_usage(_sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specwave",
        description="pseudospectral experiments for quasilinear hyperbolic systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub_run = subs.add_parser("run", help="single evolution with monitors")
    _add_common(sub_run)
    sub_conv = subs.add_parser("converge", help="convergence/EOC study")
    _add_common(sub_conv)
    sub_check = subs.add_parser("check-system", help="verify structural assumptions")
    sub_check.add_argument("system", help="built-in name or definition file path")
    sub_probe = subs.add_parser("probe-jn", help="sharp-projection pairing growth probe")
    _add_common(sub_probe)
    sub_probe.add_argument("--N-list", dest="N_list", help="ascending cutoffs")
    sub_probe.add_argument("--p", help="bandwidth of the background state")
    sub_probe.add_argument("--q", help="offset of the probe mode (0 <= q < p)")
    subs.add_parser("list-presets", help="show the experiment catalog")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            return cmd_list_presets()
        if args.command == "check-system":
            cfg = ExperimentConfig(system=args.system)
            return cmd_check_system(cfg)
        cfg = _gather_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "converge":
            return cmd_converge(cfg)
        if args.command == "probe-jn":
            return cmd_probe_jn(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, SystemFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except Exception as exc:  # numerical faults outside the detector
        print(f"internal error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
