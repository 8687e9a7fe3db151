"""Spatial right-hand sides of the filtered semi-discretizations.

All three schemes share one formula,

    rhs = -(m_lin * sum_j A0_j d_j U^ + m_nl * F[sum_j A1_j(U) d_j U]),

with the multiplier pair (m_lin, m_nl) = (P_N, P_N) for 'sharp',
(sigma_N, sigma_N) for 'smooth-all' and (1, sigma_N) for 'smooth-nl'
(P_N the sharp cutoff, sigma_N the smooth filter).  The constant part
acts exactly in Fourier space (a product with a constant does not alias,
so this equals its collocation value for any state), through a table of
(row, column, m_lin * sum_j A0_j[row, column] i k_j) built once per plan.
The varying part is evaluated on the 2M-point grid and dealiased by
zeroing the top third of the modes, which is exact for quadratic
products, in one of two forms:

- flux form, for a system with the structure A_j = SJ0_j D^2 H(U) (proved
  on coefficients) and a cubic H: A1_j(U) d_j U = SJ0_j d_j Q(U) with the
  quadratic Q = DH(U) - S(0) U, so m_nl F of the sum is the table of
  m_nl * sum_j SJ0_j (i k_j), built by the same helper, applied to F[Q(U)];
- collocated form otherwise: A1_j(U) d_j U at the collocation points;
  coefficient polynomials of degree above one are multiplied pairwise
  with a re-projection after every product.

On a state supported in |k| <= N, which every state evolve makes is,
both forms are exact on the retained modes, so they agree there to
rounding.  The flux form needs 2n real transforms per call, the
collocated form n(d+2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Poly
from .spectral import (
    FilterSpec,
    Grid,
    StateField,
    filter_multiplier,
    half_to_samples,
    samples_to_half,
)
from .systems import SystemDef

__all__ = [
    "SchemeSpec",
    "SCHEME_KINDS",
    "RhsPlan",
    "poly_coefficient_samples",
    "entry_terms",
    "collocated_half",
    "rhs_plan",
    "rhs",
]

SCHEME_KINDS = ("sharp", "smooth-all", "smooth-nl")


@dataclass(frozen=True)
class SchemeSpec:
    """Semi-discretization choice: where the filters act.  Every scheme
    cuts off at the grid's N = floor(2M/3) (Grid.dealias_N)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"scheme kind must be one of {SCHEME_KINDS}, got {self.kind!r}")

    def cutoff(self, grid: Grid) -> int:
        return grid.dealias_N


def poly_coefficient_samples(poly: Poly, comp_samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Collocation values of a polynomial coefficient field.

    Degree <= 1 entries are evaluated directly (exact on the grid).  Higher
    degrees are built monomial by monomial with a projection onto modes
    <= grid.dealias_N after each pairwise product.
    """
    if poly.degree() <= 1:
        return poly.eval_on(comp_samples)
    out = np.zeros(grid.shape)
    for expo, coeff in poly.terms:
        cur = None
        for i, p in enumerate(expo):
            for _ in range(p):
                if cur is None:
                    cur = comp_samples[i]
                else:
                    cur = half_to_samples(grid, samples_to_half(grid, cur * comp_samples[i]) * grid.dealias_mask)
        out = out + (coeff if cur is None else coeff * cur)
    return out


def entry_terms(mats) -> tuple[tuple[Poly, ...], tuple[tuple[int, int, int, int], ...]]:
    """Distinct nonzero entries of the matrices P_j, and (row, j, column,
    index into the distinct entries) for every nonzero entry."""
    polys: list[Poly] = []
    terms = []
    for j, P in enumerate(mats):
        for i, row in enumerate(P.entries):
            for c, entry in enumerate(row):
                if entry.terms:
                    if entry not in polys:
                        polys.append(entry)
                    terms.append((i, j, c, polys.index(entry)))
    return tuple(polys), tuple(terms)


def collocated_half(grid: Grid, u: np.ndarray, du, polys, terms) -> np.ndarray:
    """Half spectrum of sum over terms (i, j, c, p) of polys[p](U) * du[j][c] into row i."""
    coeff = [poly_coefficient_samples(p, u, grid) for p in polys]
    rows = np.zeros_like(u)
    for i, j, c, p in terms:
        rows[i] += coeff[p] * du[j][c]
    return samples_to_half(grid, rows)


def _multiplier_table(grid: Grid, mats, m, shared: dict) -> tuple[tuple[int, int, np.ndarray], ...]:
    """(row, column, m * sum_j P_j[row, column] i k_j) for every (row, column)
    where some P_j is nonzero.  Equal multipliers are one array: shared maps
    (m, the P_j[row, column]) to the arrays already built."""
    table = []
    for i, c in zip(*np.nonzero(sum(np.abs(P) for P in mats))):
        key = (id(m),) + tuple(float(P[i, c]) for P in mats)
        if key not in shared:
            shared[key] = m * sum(a * dk for a, dk in zip(key[1:], grid.diff_mult) if a)
        table.append((int(i), int(c), shared[key]))
    return tuple(table)


def _apply_table(table, half: np.ndarray) -> np.ndarray:
    """Sum over the terms (i, c, mult) of mult * half[c] into row i."""
    out = np.zeros_like(half)
    for i, c, mult in table:
        out[i] += mult * half[c]
    return out


@dataclass(frozen=True, eq=False)
class RhsPlan:
    """What rhs needs for one (scheme, system, grid), built once by rhs_plan.

    lin_terms holds (row, column, m_lin * sum_j A0_j[row, column] i k_j).
    On the flux path, flux holds the components of sys.Q and flux_terms
    (row, column, m_nl * sum_j SJ0_j[row, column] i k_j); polys and terms
    are then empty.  On the collocated path flux and flux_terms are empty,
    and polys and terms list the distinct nonzero entries of the A1_j and
    where each acts (row, axis, column, index into polys).  Equal
    multipliers of the two tables are one array.
    """

    scheme: SchemeSpec
    sys: SystemDef
    grid: Grid
    m_nl: np.ndarray
    lin_terms: tuple[tuple[int, int, np.ndarray], ...]
    polys: tuple[Poly, ...]
    terms: tuple[tuple[int, int, int, int], ...]
    flux: tuple[Poly, ...]
    flux_terms: tuple[tuple[int, int, np.ndarray], ...]


def rhs_plan(scheme: SchemeSpec, sys: SystemDef, grid: Grid) -> RhsPlan:
    """Build the multiplier tables and entry lists of a scheme's right-hand
    side on a grid; the flux path is taken whenever the system has a flux sys.Q."""
    if grid.d != sys.d:
        raise ValueError(f"grid dimension {grid.d} does not match system d={sys.d}")
    sharp = scheme.kind == "sharp"  # the sharp filter at the cutoff is the grid's one mask
    m_nl = grid.dealias_mask if sharp else filter_multiplier(FilterSpec("smooth", scheme.cutoff(grid)), grid)
    shared: dict = {}
    lin_terms = _multiplier_table(grid, sys.A0, 1.0 if scheme.kind == "smooth-nl" else m_nl, shared)
    if sys.Q is None:
        return RhsPlan(scheme, sys, grid, m_nl, lin_terms, *entry_terms(sys.A1), (), ())
    return RhsPlan(scheme, sys, grid, m_nl, lin_terms, (), (), sys.Q, _multiplier_table(grid, sys.SJ0, m_nl, shared))


def rhs(
    scheme: SchemeSpec,
    sys: SystemDef,
    state: StateField,
    plan: RhsPlan | None = None,
) -> StateField:
    """Right-hand side of the chosen semi-discretization at a state.

    A plan from rhs_plan(scheme, sys, state.grid) saves rebuilding the
    multipliers on every call.  U is read from the state's cached samples,
    so a state already sampled (by the blow-up check and the monitors) is
    not transformed again.  Per call on a fresh state on the flux path: one
    inverse transform of U and one forward transform of Q(U), 2n real
    transforms.  On the collocated path: one inverse transform of U and of
    each d_j U and one forward transform of the nonlinear sum, n(d+2).  A
    sampled state costs n inverse transforms fewer.
    """
    grid = state.grid
    if state.n != sys.n:
        raise ValueError(f"state has {state.n} components, system expects {sys.n}")
    if plan is None:
        plan = rhs_plan(scheme, sys, grid)
    elif plan.scheme != scheme or plan.sys is not sys or plan.grid != grid:
        raise ValueError("plan was built for another scheme, system or grid")
    half = state.half
    u = state.samples
    if plan.flux:
        nl = _apply_table(plan.flux_terms, samples_to_half(grid, np.stack([p.eval_on(u) for p in plan.flux])))
    else:
        du = [half_to_samples(grid, half * dk) for dk in grid.diff_mult]
        nl = plan.m_nl * collocated_half(grid, u, du, plan.polys, plan.terms)
    return StateField(grid, -(_apply_table(plan.lin_terms, half) + nl))
