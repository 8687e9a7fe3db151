"""Spatial right-hand sides of the filtered semi-discretizations.

All three schemes share one formula,

    rhs = -(m_lin * sum_j A0_j d_j U^ + m_nl * F[sum_j A1_j(U) d_j U]),

with the multiplier pair (m_lin, m_nl) = (P_N, P_N) for 'sharp',
(sigma_N, sigma_N) for 'smooth-all' and (1, sigma_N) for 'smooth-nl'
(P_N the sharp cutoff, sigma_N the smooth filter).  The constant part
A0_j acts exactly in Fourier space (a product with a constant does not
alias, so this equals its collocation value for any state).  The varying
part is evaluated on the 2M-point grid and dealiased by zeroing the top
third of the modes, which is exact for quadratic products, in one of two
forms:

- flux form, for a system with the structure A_j = SJ0_j D^2 H(U) (proved
  on coefficients) and a cubic H: A1_j(U) d_j U = SJ0_j d_j Q(U) with the
  quadratic Q = DH(U) - S(0) U, so F of the sum is
  sum_j SJ0_j (i k_j) F[Q(U)];
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
    mask = filter_multiplier(FilterSpec("sharp", grid.dealias_N), grid)
    out = np.zeros(grid.shape)
    for expo, coeff in poly.terms:
        cur = None
        for i, p in enumerate(expo):
            for _ in range(p):
                if cur is None:
                    cur = comp_samples[i]
                else:
                    cur = half_to_samples(grid, samples_to_half(grid, cur * comp_samples[i]) * mask)
        out = out + (coeff if cur is None else coeff * cur)
    return out


def _entry_terms(mats) -> tuple[tuple[Poly, ...], tuple[tuple[int, int, int, int], ...]]:
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


def _collocated_half(grid: Grid, u: np.ndarray, du, polys, terms) -> np.ndarray:
    """Half spectrum of sum over terms (i, j, c, p) of polys[p](U) * du[j][c] into row i."""
    coeff = [poly_coefficient_samples(p, u, grid) for p in polys]
    rows = np.zeros_like(u)
    for i, j, c, p in terms:
        rows[i] += coeff[p] * du[j][c]
    return samples_to_half(grid, rows)


@dataclass(frozen=True, eq=False)
class RhsPlan:
    """What rhs needs for one (scheme, system, grid), built once by rhs_plan.

    lin_terms lists the nonzero constant entries (row, axis, column,
    value) of the A0_j.  On the flux path, flux holds the components of
    sys.Q and flux_terms (row, column, m_nl * sum_j SJ0_j[row, column] i k_j)
    for every nonzero (row, column); polys and terms are then empty.  On
    the collocated path flux is empty, and polys and terms list the
    distinct nonzero entries of the A1_j and where each acts (row, axis,
    column, index into polys).
    """

    scheme: SchemeSpec
    sys: SystemDef
    grid: Grid
    m_lin: np.ndarray | float
    m_nl: np.ndarray
    lin_terms: tuple[tuple[int, int, int, float], ...]
    polys: tuple[Poly, ...]
    terms: tuple[tuple[int, int, int, int], ...]
    flux: tuple[Poly, ...]
    flux_terms: tuple[tuple[int, int, np.ndarray], ...]


def rhs_plan(scheme: SchemeSpec, sys: SystemDef, grid: Grid) -> RhsPlan:
    """Build the multipliers and entry lists of a scheme's right-hand side on a
    grid; the flux path is taken whenever the system has a flux sys.Q."""
    if grid.d != sys.d:
        raise ValueError(f"grid dimension {grid.d} does not match system d={sys.d}")
    spec = FilterSpec("sharp" if scheme.kind == "sharp" else "smooth", scheme.cutoff(grid))
    m_nl = filter_multiplier(spec, grid)
    m_lin = 1.0 if scheme.kind == "smooth-nl" else m_nl
    lin_terms = tuple(
        (i, j, c, float(A0j[i, c]))
        for j, A0j in enumerate(sys.A0)
        for i, c in zip(*np.nonzero(A0j))
    )
    if sys.Q is None:
        return RhsPlan(scheme, sys, grid, m_lin, m_nl, lin_terms, *_entry_terms(sys.A1), (), ())
    flux_terms = []
    for i, c in zip(*np.nonzero(sum(np.abs(sj) for sj in sys.SJ0))):
        ik = sum(sj[i, c] * dk for sj, dk in zip(sys.SJ0, grid.diff_mult) if sj[i, c])
        flux_terms.append((i, c, m_nl * ik))
    return RhsPlan(scheme, sys, grid, m_lin, m_nl, lin_terms, (), (), sys.Q, tuple(flux_terms))


def rhs(
    scheme: SchemeSpec,
    sys: SystemDef,
    state: StateField,
    plan: RhsPlan | None = None,
) -> StateField:
    """Right-hand side of the chosen semi-discretization at a state.

    A plan from rhs_plan(scheme, sys, state.grid) saves rebuilding the
    multipliers on every call.  Per call on the flux path: one inverse
    transform of U and one forward transform of Q(U), 2n real transforms.
    On the collocated path: one inverse transform of U and of each d_j U and
    one forward transform of the nonlinear sum, n(d+2).
    """
    grid = state.grid
    if state.n != sys.n:
        raise ValueError(f"state has {state.n} components, system expects {sys.n}")
    if plan is None:
        plan = rhs_plan(scheme, sys, grid)
    elif plan.scheme != scheme or plan.sys is not sys or plan.grid != grid:
        raise ValueError("plan was built for another scheme, system or grid")
    half = state.half
    dhat = [half * dk for dk in grid.diff_mult]
    lin = np.zeros_like(half)
    for i, j, c, a in plan.lin_terms:
        lin[i] += a * dhat[j][c]
    u = half_to_samples(grid, half)
    if plan.flux:
        q = samples_to_half(grid, np.stack([p.eval_on(u) for p in plan.flux]))
        nl = np.zeros_like(half)
        for i, c, mult in plan.flux_terms:
            nl[i] += mult * q[c]
    else:
        du = [half_to_samples(grid, dj) for dj in dhat]
        nl = plan.m_nl * _collocated_half(grid, u, du, plan.polys, plan.terms)
    return StateField(grid, -(plan.m_lin * lin + nl))
