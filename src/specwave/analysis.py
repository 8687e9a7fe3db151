"""Error metrics, convergence studies, the energy symmetrizer and probes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .initial import build_initial
from .poly import Poly, PolyMatrix
from .semidisc import SchemeSpec, collocated_sum, entry_terms
from .spectral import (
    FilterSpec,
    StateField,
    apply_filter,
    differentiate,
    embed,
    l2_inner,
    make_grid,
    max_mode_support,
    samples_to_half,
    sobolev_norm,
    state_from_samples,
)
from .systems import SystemDef
from .timeint import EvolveConfig, csv_table, evolve, evolve_lockstep

__all__ = [
    "eoc",
    "energy_symmetrizer",
    "jn_probe",
    "jn_counterexample_states",
    "jn_study",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_study",
    "report_csv",
    "report_table",
]


def eoc(error_coarse: float, error_fine: float) -> float | None:
    """Experimental order of convergence under resolution doubling."""
    if error_coarse <= 0.0 or error_fine <= 0.0:
        return None
    return math.log(error_coarse / error_fine) / math.log(2.0)


# ---------------------------------------------------------------------------
# Energy symmetrizer


def energy_symmetrizer(sys: SystemDef) -> PolyMatrix:
    """The standard symmetrizer of the energy functional (the functional itself
    lives in tests/oracles.py: only tests evaluate it).

    S when the system has no factorization; otherwise the diagonal part of S,
    when it symmetrizes every A_j on its own (for the 1D shallow-water system,
    diag(1, 1+eta)).
    """
    if sys.S is None:
        raise ValueError(f"system {sys.name!r} has no symmetrizer")
    if sys.SJ0 is None:
        return sys.S
    rows = [[p if i == j else Poly.zero(sys.n) for j, p in enumerate(row)]
            for i, row in enumerate(sys.S.entries)]
    diag = PolyMatrix.build(sys.n, rows)
    if all((diag @ Aj).is_symmetric() for Aj in sys.A):
        return diag
    raise ValueError(f"system {sys.name!r} has no standard symmetrizer")


# ---------------------------------------------------------------------------
# Counterexample probe


def jn_probe(sys: SystemDef, U: StateField, V: StateField, N: int) -> float:
    """Pairing that measures how the sharp projection defeats the standard symmetrizer.

    Computes the inner product of P_N(S(U) (Id-P_N)(A_j(U) d_j P_N V))
    with V, for j the first axis (x), all products evaluated exactly (the working grid must resolve
    the full mode content, 2M >= 3(N + p) for data of bandwidth p).  The products are rhs's collocated
    ones: an entry of degree above one is re-projected after each pairwise product, as in rhs.
    """
    grid = U.grid
    if V.grid != grid:
        raise ValueError("probe states must share one grid")
    S = energy_symmetrizer(sys)
    for st in (U, V):
        if st.grid.d != sys.d or st.n != sys.n:
            raise ValueError(f"probe state has d={st.grid.d}, n={st.n}; system {sys.name!r} has d={sys.d}, n={sys.n}")
    p = max(max_mode_support(U), 1)
    if 2 * grid.M < 3 * (N + p):
        raise ValueError(
            f"working grid too coarse for exact products: need 2M >= {3 * (N + p)}, have {2 * grid.M}"
        )
    pn = FilterSpec("sharp", N)
    w = apply_filter(V, pn)
    t = _matvec_exact(sys.A[0], U, differentiate(w, 0))
    t2 = t - apply_filter(t, pn)
    t3 = _matvec_exact(S, U, t2)
    t4 = apply_filter(t3, pn)
    return l2_inner(t4, V)


def _matvec_exact(P: PolyMatrix, coeff_state: StateField, vec: StateField) -> StateField:
    """P(U) applied pointwise to a vector field, no projection."""
    grid = coeff_state.grid
    rows = collocated_sum(grid, coeff_state.variables, [vec.variables], *entry_terms([P]))
    return StateField(grid, samples_to_half(grid, rows))


def jn_counterexample_states(N: int, p: int, q: int) -> tuple[StateField, StateField]:
    """Single-mode data for the probe: U = (-cos(px)/2, sin(px)), V = (0, sin((N-q)x)),
    on a working grid fine enough for exact products.
    """
    if not 0 <= q < p:
        raise ValueError(f"need 0 <= q < p, got q={q}, p={p}")
    if p >= N:
        raise ValueError(f"need p << N, got p={p}, N={N}")
    m_work = 1 << max(4, math.ceil(math.log2(3.0 * (N + p) / 2.0)))
    grid = make_grid(1, m_work)
    x = grid.axis_points
    U = state_from_samples(grid, np.stack([-0.5 * np.cos(p * x), np.sin(p * x)]))
    V = state_from_samples(grid, np.stack([np.zeros_like(x), np.sin((N - q) * x)]))
    return U, V


def jn_study(sys: SystemDef, N_list: list[int], p: int = 1, q: int = 0) -> dict:
    """Probe values over a range of cutoffs plus the fitted linear slope."""
    if any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly ascending")
    values = []
    for N in N_list:
        U, V = jn_counterexample_states(N, p, q)
        values.append(jn_probe(sys, U, V, N))
    slope = None
    if len(N_list) >= 2:
        A = np.vstack([np.asarray(N_list, dtype=np.float64), np.ones(len(N_list))]).T
        slope = float(np.linalg.lstsq(A, np.asarray(values), rcond=None)[0][0])
    return {"N": list(N_list), "J": values, "slope": slope, "p": p, "q": q}


# ---------------------------------------------------------------------------
# Convergence studies


@dataclass
class ConvergenceRow:
    M: int
    scheme: str
    status: str
    errors: dict[float, float] = field(default_factory=dict)
    eocs: dict[float, float | None] = field(default_factory=dict)

    @property
    def two_m(self) -> int:
        return 2 * self.M


@dataclass
class ConvergenceReport:
    rows: list[ConvergenceRow]  # resolutions ascending, each in the study's scheme order
    s_norms: tuple[float, ...]
    reference: str


def _run_case(args) -> list[tuple[int, str, str, np.ndarray | None]]:
    """The study's schemes at one resolution, evolved in lockstep: (M,
    scheme, status, final half spectrum or None) for each scheme."""
    sys, schemes, initial_name, params, M, cfg = args
    grid = make_grid(sys.d, M)
    state0 = build_initial(initial_name, params, grid)
    results = evolve_lockstep([SchemeSpec(kind) for kind in schemes], sys, state0, cfg, ())  # the report reads no monitor
    return [(M, kind, r.status, r.final_state.half if r.completed else None) for kind, r in zip(schemes, results)]


def convergence_study(
    sys: SystemDef,
    schemes: list[str],
    initial_name: str,
    initial_params: dict | None,
    M_list: list[int],
    M_ref: int,
    cfg: EvolveConfig,
    s_norms: tuple[float, ...] = (0.0, 1.0),
    jobs: int = 1,
) -> ConvergenceReport:
    """Errors and convergence orders against a fine sharp-filter reference.

    Each resolution is one case, which evolves every scheme in lockstep.
    Every run, the reference included, evolves under ``cfg``, so its
    blow-up threshold and monitor stride apply throughout; the runs record
    no monitor rows, and the stride sets where the growth check runs.  The
    reference's H^s norms are taken once, and each completed state is
    zero-padded and subtracted once for all s.  If the reference run blows
    up, or one of its norms is zero so that no relative error is defined,
    no case is run: every row gets status 'reference-blowup' or
    'reference-zero', and the report's reference line says why.
    """
    if M_ref <= max(M_list):
        raise ValueError("reference resolution must exceed every tested resolution")
    ref_grid = make_grid(sys.d, M_ref)
    ref0 = build_initial(initial_name, initial_params, ref_grid)
    ref_result = evolve(SchemeSpec("sharp"), sys, ref0, cfg, ())
    reference = f"sharp filter, 2M={2 * M_ref}, dt={cfg.dt}, T={cfg.T}"

    def without_cases(status: str, note: str) -> ConvergenceReport:  # every row with one status, in report order
        rows = [ConvergenceRow(M=M, scheme=kind, status=status) for M in sorted(M_list) for kind in schemes]
        return ConvergenceReport(rows=rows, s_norms=tuple(s_norms), reference=f"{reference}; {note}")

    if not ref_result.completed:
        return without_cases("reference-blowup", f"the reference run blew up at t={ref_result.blowup_time}")
    ref = ref_result.final_state
    ref_norms = [sobolev_norm(ref, s) for s in s_norms]
    if 0.0 in ref_norms:
        return without_cases("reference-zero", "the reference state has zero norm")

    cases = [(sys, schemes, initial_name, initial_params, M, cfg) for M in sorted(M_list)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # on demand: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_case, cases))
    else:
        outcomes = [_run_case(c) for c in cases]

    grids = {M: make_grid(sys.d, M) for M in M_list}  # _run_case builds its own: it may run in another process
    rows = []
    for M, kind, status, half in (row for case in outcomes for row in case):  # report order
        row = ConvergenceRow(M=M, scheme=kind, status=status)
        if half is not None:
            gap = embed(StateField(grids[M], half), ref.grid) - ref
            row.errors = {s: sobolev_norm(gap, s) / norm for s, norm in zip(s_norms, ref_norms)}
        rows.append(row)

    # a row's EOC pairs it with the same scheme at the next resolution, len(schemes) rows on
    for cur, nxt in zip(rows, rows[len(schemes):]):
        for s in s_norms:
            if s in cur.errors and s in nxt.errors:
                cur.eocs[s] = eoc(cur.errors[s], nxt.errors[s])
    return ConvergenceReport(rows=rows, s_norms=tuple(s_norms), reference=reference)


def _fmt_s(s: float) -> str:
    return str(int(s)) if float(s).is_integer() else str(s)


def report_csv(report: ConvergenceReport) -> str:
    s_norms = report.s_norms
    header = ["two_M", "scheme", *(f"{col}{_fmt_s(s)}" for col in ("E", "EOC") for s in s_norms), "status"]
    rows = [
        (r.two_m, r.scheme, *(r.errors.get(s) for s in s_norms), *(r.eocs.get(s) for s in s_norms), r.status)
        for r in report.rows
    ]
    return csv_table(header, list(zip(*rows)))


def report_table(report: ConvergenceReport) -> str:
    """Aligned text table: one line per resolution, one block of columns per scheme."""
    schemes = list(dict.fromkeys(row.scheme for row in report.rows))  # the rows come in report order
    header = ["2M", *(f"{kind} EOC{_fmt_s(s)}" for kind in schemes for s in report.s_norms)]
    lines = ["  ".join(f"{h:>16}" for h in header)]
    for i in range(0, len(report.rows), len(schemes)):
        line = report.rows[i : i + len(schemes)]
        cells = [2 * line[0].M]
        for row in line:
            for s in report.s_norms:
                v = row.eocs.get(s)
                cells.append(row.status if row.status != "completed" else "-" if v is None else f"{v:.2f}")
        lines.append("  ".join(f"{c:>16}" for c in cells))
    lines.append(f"reference: {report.reference}")
    return "\n".join(lines) + "\n"
