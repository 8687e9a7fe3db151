"""Fixed-step RK4 evolution with blow-up detection and trajectory monitors."""

from __future__ import annotations

import itertools
import math
import sys as _sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .semidisc import SchemeSpec, rhs, rhs_plan
from .spectral import StateField, dealias, differentiate, linf, sobolev_norm, to_samples
from .systems import SystemDef, hamiltonian_energy

__all__ = [
    "BlowUpError",
    "EvolveConfig",
    "EvolveResult",
    "rk4_step",
    "evolve",
    "standard_monitors",
    "curvature",
    "second_derivative_max",
    "csv_table",
    "monitor_csv",
]

Monitor = tuple[str, Callable[[StateField], float]]


class BlowUpError(RuntimeError):
    """Raised when an RK4 stage produces non-finite coefficients."""

    def __init__(self, stage: str):
        super().__init__(f"non-finite values in RK4 stage {stage}")
        self.stage = stage


def _check_finite(state: StateField, stage: str) -> StateField:
    """Raise BlowUpError(stage) on a non-finite coefficient.  A non-finite
    entry makes the sum of squared moduli non-finite, so the entrywise test
    runs only when that sum is not finite: a non-finite entry, or finite
    entries whose squares overflow.  The sum is np.vdot, which raises no
    floating-point warnings and takes half the time of half.sum()."""
    half = state.half
    if not np.isfinite(np.vdot(half, half)) and not np.all(np.isfinite(half)):
        raise BlowUpError(stage)
    return state


def rk4_step(rhs_fn: Callable[[StateField], StateField], state: StateField, dt: float) -> StateField:
    """One classical Runge-Kutta 4 update.

    The stages are summed in one fresh accumulator in the operation order of
    u + dt/6 (k1 + 2 k2 + 2 k3 + k4), which gives the same bits; no stage
    result is written to, since rhs_fn may return one object twice.
    """
    k1 = _check_finite(rhs_fn(state), "k1")
    k2 = _check_finite(rhs_fn(state + (0.5 * dt) * k1), "k2")
    k3 = _check_finite(rhs_fn(state + (0.5 * dt) * k2), "k3")
    k4 = _check_finite(rhs_fn(state + dt * k3), "k4")
    acc = k2.half * 2.0
    acc += k1.half
    acc += k3.half * 2.0
    acc += k4.half
    acc *= dt / 6.0
    acc += state.half
    return StateField(state.grid, acc)


@dataclass(frozen=True)
class EvolveConfig:
    """Time-stepping parameters and runtime diagnostics."""

    dt: float
    T: float
    monitor_stride: int | None = None  # default: about 200 samples per run
    blowup_threshold: float = 1e6  # L-infinity growth factor

    def __post_init__(self) -> None:
        # chained comparisons: NaN fails each, infinity the upper bound
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0.0 <= self.T < math.inf:
            raise ValueError(f"final time T must be finite and nonnegative, got {self.T}")
        if self.T / self.dt >= _sys.maxsize:
            raise ValueError(f"T/dt = {self.T / self.dt:.3g} steps exceed the largest step count {_sys.maxsize}")
        if not 0.0 < self.blowup_threshold < math.inf:
            raise ValueError(f"blowup_threshold must be finite and positive, got {self.blowup_threshold}")
        if self.monitor_stride is not None and self.monitor_stride < 1:
            raise ValueError(f"monitor_stride must be a positive integer, got {self.monitor_stride}")


@dataclass
class EvolveResult:
    final_state: StateField
    final_time: float  # time of final_state: T when completed
    status: str  # 'completed' | 'blowup'
    blowup_time: float | None
    monitor_names: list[str]
    monitor_rows: list[tuple[float, ...]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def standard_monitors(sys: SystemDef) -> list[Monitor]:
    """Default diagnostics: Sobolev norms, domain margins, energy, curvature.

    The energy column is present when the system has a density H, i.e. when
    its symmetrizer is a Hessian (see SystemDef), and the curvature column
    when the system has a component 1, the velocity it reads.

    The norms sum the half spectrum and need no transform.  The margins
    and the energy read the state's cached samples, so with the blow-up
    check and the first RK4 stage of the next step they share one inverse
    transform (n real ones) of each sampled state; max_d2u adds one of the
    curvature.
    """
    monitors: list[Monitor] = [
        ("Hs0", lambda st: sobolev_norm(st, 0)),
        ("Hs1", lambda st: sobolev_norm(st, 1)),
    ]
    for name, p in sys.predicates:
        monitors.append(
            (f"margin_{name}", lambda st, _p=p: float(np.min(_p.eval_on(to_samples(st)))))
        )
    if sys.H is not None:
        monitors.append(("hamiltonian", lambda st: hamiltonian_energy(sys, st)))
    if sys.n >= 2:
        monitors.append(("max_d2u", second_derivative_max))
    return monitors


def curvature(state: StateField) -> StateField:
    """The second spectral x-derivative of component 1 (the velocity), a scalar field."""
    return differentiate(differentiate(state.component(1), 0), 0)


def second_derivative_max(state: StateField) -> float:
    """Max over collocation points of the curvature."""
    return linf(curvature(state))


def _step_plan(T: float, dt: float) -> tuple[int, list[float]]:
    """Steps covering [0, T] exactly: the count of full dt steps and the
    final partial step, if any, as a list of at most one size."""
    n_full = int(math.floor(T / dt + 1e-9))
    remainder = T - n_full * dt
    return n_full, [remainder] if remainder > 1e-9 * dt else []


def evolve(
    scheme: SchemeSpec,
    sys: SystemDef,
    state0: StateField,
    cfg: EvolveConfig,
) -> EvolveResult:
    """March the semi-discrete system from the projected initial data to T.

    The initial state is projected onto the retained mode cube (all schemes
    start from the sharp projection of the data).  Monitors are sampled at
    t=0, every stride steps and at the final time; blow-up is declared on
    non-finite stage values or when the max-norm exceeds the configured
    growth factor.  The first RK4 stage reads the samples of the current
    state, cached by the blow-up check when the state was sampled; with
    monitor_stride > 1 an unsampled state gets them from that stage, and
    keeps them through the step.
    """
    if state0.n != sys.n:  # rhs's check, made before the t=0 monitors read the components
        raise ValueError(f"state has {state0.n} components, system expects {sys.n}")
    plan = rhs_plan(scheme, sys, state0.grid)
    state = dealias(state0)
    n_full, partial = _step_plan(cfg.T, cfg.dt)
    n_steps = n_full + len(partial)
    if cfg.monitor_stride is not None:
        stride = cfg.monitor_stride
    else:
        stride = max(1, math.ceil(n_steps / 200))
    monitors = standard_monitors(sys)
    names = [name for name, _ in monitors]
    rows: list[tuple[float, ...]] = []

    linf0 = linf(state)
    rhs_fn = lambda st: rhs(scheme, sys, st, plan)

    def sample(t: float, st: StateField) -> None:
        rows.append((t, *(fn(st) for _, fn in monitors)))

    def exploded(st: StateField) -> bool:
        peak = linf(st)  # NaN or inf when any sample is
        return not math.isfinite(peak) or (linf0 > 0.0 and peak > cfg.blowup_threshold * linf0)

    sample(0.0, state)
    t = 0.0
    for i, h in enumerate(itertools.chain(itertools.repeat(cfg.dt, n_full), partial)):
        try:
            new_state = rk4_step(rhs_fn, state, h)
        except BlowUpError:
            return EvolveResult(state, t, "blowup", t + h, names, rows)
        t = t + h
        state = new_state
        last = i == n_steps - 1
        if (i + 1) % stride == 0 or last:
            if exploded(state):
                return EvolveResult(state, t, "blowup", t, names, rows)
            sample(t, state)
    return EvolveResult(state, cfg.T, "completed", None, names, rows)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return repr(v.item() if isinstance(v, np.generic) else v)  # numpy 2 would write np.float64(x)


def csv_table(header: Sequence[str], columns: Sequence) -> str:
    """CSV text of whole columns (deterministic byte-for-byte).

    A column is a numeric array or a sequence, all of one length (else
    ValueError).  Numbers are written with repr, numpy scalars as the
    Python number they hold, text as it is and None as an empty cell.
    """
    cells = [
        # np.float64 is a float: float.__repr__ writes its plain digits, one
        # scalar at a time (tolist() would hold every column's floats at once)
        map(float.__repr__, c) if isinstance(c, np.ndarray) and c.dtype == np.float64 else map(_cell, c)
        for c in columns
    ]
    return "\n".join([",".join(header), *map(",".join, zip(*cells, strict=True))]) + "\n"


def monitor_csv(result: EvolveResult) -> str:
    """Monitor series as CSV text (deterministic byte-for-byte)."""
    return csv_table(["time", *result.monitor_names], list(zip(*result.monitor_rows)))
