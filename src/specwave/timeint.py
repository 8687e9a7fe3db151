"""Fixed-step RK4 evolution with blow-up detection and trajectory monitors.

The schemes of one run evolve in lockstep as one stack of states (a leading
scheme axis): each right-hand side, RK4 combine, finiteness check and
monitor sample acts on the whole stack at once, and a scheme that blows up
leaves the stack while the others go on.  The march computes on the
retained mode cube |k_j| <= N only (spectral.to_cube): it crops the
projected stack once, runs every RK4 stage, finiteness check and growth
check on the cube, and hands the monitors and each EvolveResult the half
spectrum back (spectral.to_half, zeros outside the cube), so the norms
sum in their usual order and every output keeps its bits.

On glibc the step loop runs under one heap policy (_march_heap), and
rk4_step frees each stage result once its sum holds it, so each stage
reuses the heap blocks the one before freed instead of faulting in fresh
pages.
"""

from __future__ import annotations

import itertools
import math
import os
import sys as _sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .semidisc import SchemeSpec, rhs, rhs_plan
from .spectral import StateField, dealias, differentiate, linf, sobolev_norm, to_cube, to_half
from .systems import SystemDef, hamiltonian_energy

__all__ = [
    "BlowUpError",
    "EvolveConfig",
    "EvolveResult",
    "rk4_step",
    "evolve",
    "evolve_lockstep",
    "standard_monitors",
    "curvature",
    "second_derivative_max",
    "csv_table",
    "monitor_csv",
]

Monitor = tuple[str, Callable[[StateField], float]]


class BlowUpError(RuntimeError):
    """Raised when an RK4 stage produces non-finite coefficients; states
    lists the positions in the stack of the states that did (0 for one state)."""

    def __init__(self, stage: str, states: tuple[int, ...]):
        super().__init__(f"non-finite values in RK4 stage {stage}")
        self.stage = stage
        self.states = states


def _check_finite(state: StateField, stage: str) -> StateField:
    """Raise BlowUpError(stage) on a non-finite coefficient, naming the
    states of a stack that hold one.  A non-finite entry makes the sum of
    all real and imaginary parts non-finite (inf - inf is NaN), so the
    entrywise test runs only when that sum is not finite: a non-finite
    entry, or finite entries whose sum overflows.  The sum is an einsum on
    the float64 view, which raises no floating-point warnings and, unlike
    np.vdot, calls no BLAS: BLAS threads would outnumber the CPUs when
    worker processes evolve side by side."""
    half = state.half
    if not math.isfinite(np.einsum("i->", np.ravel(half).view(np.float64))):
        finite = state.per_state(np.logical_and, np.isfinite(half))
        if not finite.all():
            raise BlowUpError(stage, tuple(np.flatnonzero(~finite).tolist()))
    return state


def rk4_step(rhs_fn: Callable[[StateField], StateField], state: StateField, dt: float) -> StateField:
    """One classical Runge-Kutta 4 update, of one state or a stack of them.

    The stages are summed in one fresh accumulator in the operation order of
    u + dt/6 (k1 + 2 k2 + 2 k3 + k4), which gives the same bits; no stage
    result is written to, since rhs_fn may return one object twice.  Each
    stage result is dropped as soon as the accumulator holds it, before the
    next rhs_fn call, so besides the accumulator at most one stage result is
    alive and the arrays of the others return to the heap for the next
    stage to reuse.
    """
    k1 = _check_finite(rhs_fn(state), "k1")
    k2 = _check_finite(rhs_fn(state + (0.5 * dt) * k1), "k2")
    acc = k2.half * 2.0
    acc += k1.half
    stage = state + (0.5 * dt) * k2
    del k1, k2
    k3 = _check_finite(rhs_fn(stage), "k3")
    stage = state + dt * k3
    acc += k3.half * 2.0
    del k3
    k4 = _check_finite(rhs_fn(stage), "k4")
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
    when the system has a component 1, the velocity it reads.  Each monitor
    reduces with StateField.per_state: a numpy scalar on one state, one
    value per state on a stack.

    The norms sum the half spectrum and need no transform.  The margins
    and the energy read the state's cached samples, so with the blow-up
    check and the first RK4 stage of the next step they share one inverse
    transform call (n real transforms per state) of each sampled state or
    stack; max_d2u adds one of the curvature.
    """
    monitors: list[Monitor] = [
        ("Hs0", lambda st: sobolev_norm(st, 0)),
        ("Hs1", lambda st: sobolev_norm(st, 1)),
    ]
    for name, p in sys.predicates:
        monitors.append(
            (f"margin_{name}", lambda st, _p=p: st.per_state(np.minimum, _p.eval_on(st.variables)))
        )
    if sys.H is not None:
        monitors.append(("hamiltonian", lambda st: hamiltonian_energy(sys, st)))
    if sys.n >= 2:
        monitors.append(("max_d2u", second_derivative_max))
    return monitors


def curvature(state: StateField) -> StateField:
    """The second spectral x-derivative of component 1 (the velocity), a
    scalar field (of each state of a stack)."""
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
    monitors: Sequence[Monitor] | None = None,
) -> EvolveResult:
    """evolve_lockstep of one scheme: a stack of one, which holds views of
    the arrays of one state."""
    return evolve_lockstep((scheme,), sys, state0, cfg, monitors)[0]


# mallopt(3) parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _glibc():
    """The C library's malloc tuning calls through ctypes when os.confstr
    names glibc, else None."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return None
    if not version.startswith("glibc"):
        return None
    import ctypes  # loaded by the first march, not by every command

    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.malloc_trim.restype = ctypes.c_int
    return libc


@contextmanager
def _march_heap():
    """Keep the blocks an RK4 march frees on the glibc heap for the next
    stage to reuse, and give the heap back when the march ends.

    glibc returns a free heap top above its trim threshold to the system
    and maps each block above its mmap threshold on its own; both start at
    128 KiB and move with what the process freed before, so without a
    policy whether every stage faults its temporaries in afresh depends on
    the process's earlier allocations.  During the march the trim
    threshold is 1 GiB and the mmap threshold glibc's maximum, 32 MiB; on
    exit the free heap top is trimmed and both go back to glibc's
    documented defaults, 128 KiB each.  Where os.confstr names no glibc
    this does nothing.
    """
    libc = _glibc()
    if libc is None:
        yield
        return
    libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    try:
        yield
    finally:
        libc.malloc_trim(0)
        libc.mallopt(_M_TRIM_THRESHOLD, 128 << 10)
        libc.mallopt(_M_MMAP_THRESHOLD, 128 << 10)


def evolve_lockstep(
    schemes: Sequence[SchemeSpec],
    sys: SystemDef,
    state0: StateField,
    cfg: EvolveConfig,
    monitors: Sequence[Monitor] | None = None,
) -> list[EvolveResult]:
    """March the semi-discrete system from the projected initial data to T
    under each scheme, all in one stack of states; one result per scheme.

    The initial state is projected onto the retained mode cube (all schemes
    start from the sharp projection of the data); already projected data
    are used as they are, with their samples.  Monitors (None: the
    standard_monitors of sys; () records only the times) are sampled at
    t=0 (once: every scheme starts from the same state), every stride steps
    and at the final time.  Blow-up is declared on non-finite stage values
    or when the max-norm, checked at those samples with or without
    monitors, exceeds the configured growth factor; the scheme that
    blows up leaves the stack with the time, state and monitor rows of a
    run of its own, and the others go on.  Each step is one RK4 step of
    the stack: a stage that is non-finite in some states is computed again
    without them, which gives the others the same bits.  The first RK4
    stage reads the samples of the current stack, cached by the blow-up
    check when the stack was sampled; with monitor_stride > 1 an unsampled
    stack gets them from that stage, and keeps them through the step.  The
    stack marches on the cube; the monitors and every final_state read the
    half spectrum.
    """
    if state0.n != sys.n:  # rhs's check, made before the t=0 monitors read the components
        raise ValueError(f"state has {state0.n} components, system expects {sys.n}")
    schemes = tuple(schemes)
    grid = state0.grid
    plan = rhs_plan(schemes, sys, grid)
    n_full, partial = _step_plan(cfg.T, cfg.dt)
    n_steps = n_full + len(partial)
    if cfg.monitor_stride is not None:
        stride = cfg.monitor_stride
    else:
        stride = max(1, math.ceil(n_steps / 200))
    if monitors is None:
        monitors = standard_monitors(sys)
    names = [name for name, _ in monitors]

    projected = dealias(state0)
    first = (0.0, *(fn(projected).tolist() for _, fn in monitors))  # Python numbers, as in the later rows
    rows = [[first] for _ in schemes]
    linf0 = linf(projected)
    state = to_cube(projected).view(lambda a: np.broadcast_to(a, (len(schemes),) + a.shape))
    del projected  # the stack's views hold its arrays until the first step replaces them
    live = list(range(len(schemes)))  # the scheme of each state of the stack
    results: list[EvolveResult | None] = [None] * len(schemes)

    def leave(out: list[int], st: StateField, t: float, blowup_time: float) -> StateField:
        """Record the states at positions out as blown up and drop them from the stack."""
        nonlocal plan, live
        for k in out:
            final = to_half(st.view(lambda a: a[k]))
            results[live[k]] = EvolveResult(final, t, "blowup", blowup_time, names, rows[live[k]])
        keep = [k for k in range(len(live)) if k not in out]
        live = [live[k] for k in keep]
        if live:
            plan = rhs_plan(tuple(schemes[j] for j in live), sys, grid)
        return st.view(lambda a: a[keep])

    rhs_fn = lambda st: rhs(plan.scheme, sys, st, plan)
    t = 0.0
    with _march_heap():
        for i, h in enumerate(itertools.chain(itertools.repeat(cfg.dt, n_full), partial)):
            while True:
                try:
                    new_state = rk4_step(rhs_fn, state, h)
                    break
                except BlowUpError as err:
                    state = leave(list(err.states), state, t, t + h)
                    if not live:
                        return results
            t = t + h
            state = new_state
            if (i + 1) % stride == 0 or i == n_steps - 1:
                exploded = [
                    k for k, peak in enumerate(linf(state).tolist())  # NaN or inf where any sample is
                    if not math.isfinite(peak) or (linf0 > 0.0 and peak > cfg.blowup_threshold * linf0)
                ]
                if exploded:
                    state = leave(exploded, state, t, t)
                    if not live:
                        return results
                on_half = to_half(state) if monitors else state  # the monitors read the half spectrum
                values = [fn(on_half).tolist() for _, fn in monitors]
                for k, j in enumerate(live):
                    rows[j].append((t, *(v[k] for v in values)))
    state = to_half(state)
    for k, j in enumerate(live):
        results[j] = EvolveResult(state.view(lambda a: a[k]), cfg.T, "completed", None, names, rows[j])
    return results


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
