"""Error metrics, convergence studies, the energy symmetrizer and probes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .initial import build_initial
from .poly import Poly, PolyMatrix
from .semidisc import SchemeSpec, collocated_half, entry_terms
from .spectral import (
    FilterSpec,
    StateField,
    apply_filter,
    differentiate,
    embed,
    l2_inner,
    make_grid,
    max_mode_support,
    sobolev_norm,
    state_from_samples,
    to_samples,
)
from .systems import SystemDef
from .timeint import EvolveConfig, csv_table, evolve

__all__ = [
    "relative_error",
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


def relative_error(u: StateField, ref: StateField, s: float) -> float:
    """Relative H^s gap to a reference on a finer (or equal) grid.

    The coarse state is zero-padded onto the reference mode set and the
    norms are taken directly on the Fourier coefficients.
    """
    if ref.grid.M < u.grid.M:
        raise ValueError("reference grid must be at least as fine as the candidate")
    padded = embed(u, ref.grid)
    denom = sobolev_norm(ref, s)
    if denom == 0.0:
        raise ValueError("reference state has zero norm")
    return sobolev_norm(padded - ref, s) / denom


def eoc(error_coarse: float, error_fine: float) -> float | None:
    """Experimental order of convergence under resolution doubling."""
    if error_coarse <= 0.0 or error_fine <= 0.0:
        return None
    return math.log(error_coarse / error_fine) / math.log(2.0)


# ---------------------------------------------------------------------------
# Energy symmetrizer


def energy_symmetrizer(sys: SystemDef, variant: str) -> PolyMatrix:
    """Resolve the symmetrizer backing an energy functional variant (the
    functional itself lives in tests/oracles.py: only tests evaluate it).

    'hamiltonian' needs the factorized structure, and uses the registered S.
    'standard' uses S when the system has no factorization; otherwise the
    diagonal part of S, when it symmetrizes every A_j on its own (for the 1D
    shallow-water system, diag(1, 1+eta)).
    """
    if sys.S is None:
        raise ValueError(f"system {sys.name!r} has no symmetrizer")
    if variant == "hamiltonian":
        if sys.SJ0 is None:
            raise ValueError(f"system {sys.name!r} has no factorized (Hamiltonian) symmetrizer")
        return sys.S
    if variant == "standard":
        if sys.SJ0 is None:
            return sys.S
        rows = [[p if i == j else Poly.zero(sys.n) for j, p in enumerate(row)]
                for i, row in enumerate(sys.S.entries)]
        diag = PolyMatrix.build(sys.n, rows)
        if all((diag @ Aj).is_symmetric() for Aj in sys.A):
            return diag
        raise ValueError(f"system {sys.name!r} has no standard symmetrizer")
    raise ValueError(f"variant must be 'standard' or 'hamiltonian', got {variant!r}")


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
    S = energy_symmetrizer(sys, "standard")
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
    return StateField(grid, collocated_half(grid, to_samples(coeff_state), [to_samples(vec)], *entry_terms([P])))


def jn_counterexample_states(N: int, p: int, q: int) -> tuple[StateField, StateField, int]:
    """Single-mode data for the probe: U = (-cos(px)/2, sin(px)), V = (0, sin((N-q)x)).

    Returns the states on a working grid fine enough for exact products,
    together with the grid half-resolution used.
    """
    if not 0 <= q < p:
        raise ValueError(f"need 0 <= q < p, got q={q}, p={p}")
    if p >= N:
        raise ValueError(f"need p << N, got p={p}, N={N}")
    m_work = 1 << max(4, math.ceil(math.log2(3.0 * (N + p) / 2.0)))
    grid = make_grid(1, m_work)
    x = grid.mesh[0]
    U = state_from_samples(grid, np.stack([-0.5 * np.cos(p * x), np.sin(p * x)]))
    V = state_from_samples(grid, np.stack([np.zeros_like(x), np.sin((N - q) * x)]))
    return U, V, m_work


def jn_study(sys: SystemDef, N_list: list[int], p: int = 1, q: int = 0) -> dict:
    """Probe values over a range of cutoffs plus the fitted linear slope."""
    if any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly ascending")
    values = []
    for N in N_list:
        U, V, _ = jn_counterexample_states(N, p, q)
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
    rows: list[ConvergenceRow]
    s_norms: tuple[float, ...]
    reference: str


def _run_case(args) -> tuple[int, str, str, np.ndarray | None]:
    sys, scheme_kind, initial_name, params, M, cfg = args
    grid = make_grid(sys.d, M)
    state0 = build_initial(initial_name, params, grid)
    result = evolve(SchemeSpec(scheme_kind), sys, state0, cfg)
    half = result.final_state.half if result.completed else None
    return (M, scheme_kind, result.status, half)


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

    Every run, the reference included, evolves under ``cfg``, so its
    blow-up threshold and monitor stride apply throughout.  If the reference
    run blows up, no case is run: every row gets status 'reference-blowup'
    and the report's reference line gives the time.
    """
    if M_ref <= max(M_list):
        raise ValueError("reference resolution must exceed every tested resolution")
    ref_grid = make_grid(sys.d, M_ref)
    ref0 = build_initial(initial_name, initial_params, ref_grid)
    ref_result = evolve(SchemeSpec("sharp"), sys, ref0, cfg)
    reference = f"sharp filter, 2M={2 * M_ref}, dt={cfg.dt}, T={cfg.T}"
    if not ref_result.completed:
        rows = [
            ConvergenceRow(M=M, scheme=kind, status="reference-blowup")
            for M in sorted(M_list)
            for kind in schemes
        ]
        reference += f"; the reference run blew up at t={ref_result.blowup_time}"
        return ConvergenceReport(rows=rows, s_norms=tuple(s_norms), reference=reference)
    ref = ref_result.final_state

    cases = [
        (sys, kind, initial_name, initial_params, M, cfg)
        for M in M_list
        for kind in schemes
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # on demand: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_case, cases))
    else:
        outcomes = [_run_case(c) for c in cases]

    rows = []
    for M, kind, status, half in outcomes:
        row = ConvergenceRow(M=M, scheme=kind, status=status)
        if half is not None:
            state = StateField(make_grid(sys.d, M), half)
            for s in s_norms:
                row.errors[s] = relative_error(state, ref, s)
        rows.append(row)

    # EOC pairs successive resolutions within one scheme
    by_scheme: dict[str, list[ConvergenceRow]] = {}
    for row in rows:
        by_scheme.setdefault(row.scheme, []).append(row)
    for scheme_rows in by_scheme.values():
        scheme_rows.sort(key=lambda r: r.M)
        for cur, nxt in zip(scheme_rows, scheme_rows[1:]):
            for s in s_norms:
                if s in cur.errors and s in nxt.errors:
                    cur.eocs[s] = eoc(cur.errors[s], nxt.errors[s])

    rows.sort(key=lambda r: (r.M, schemes.index(r.scheme)))
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
    """Aligned text table with one block of columns per scheme."""
    schemes = []
    for row in report.rows:
        if row.scheme not in schemes:
            schemes.append(row.scheme)
    ms = sorted({row.M for row in report.rows})
    lookup = {(row.M, row.scheme): row for row in report.rows}
    header = ["2M"]
    for kind in schemes:
        for s in report.s_norms:
            header.append(f"{kind} EOC{_fmt_s(s)}")
    lines = ["  ".join(f"{h:>16}" for h in header)]
    for M in ms:
        cells = [f"{2 * M:>16}"]
        for kind in schemes:
            row = lookup.get((M, kind))
            for s in report.s_norms:
                v = row.eocs.get(s) if row is not None else None
                if row is not None and row.status != "completed":
                    cells.append(f"{row.status:>16}")
                elif v is None:
                    cells.append(f"{'-':>16}")
                else:
                    cells.append(f"{v:>16.2f}")
        lines.append("  ".join(cells))
    lines.append(f"reference: {report.reference}")
    return "\n".join(lines) + "\n"
