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
rounding.  The flux form needs 2n real transforms per state, the
collocated form n(d+2).  A call on a stack of S states, one per scheme,
makes them in the same number of transform calls as one state: each call
transforms the whole stack, 2nS (flux) or n(d+2)S real transforms; the
collocated form's d derivatives go through one inverse call.

rhs works on the grid of the state it is given (see spectral): the half
spectrum, which bench/worker.py and most tests pass, or the retained cube
Grid.cube, on which timeint.evolve_lockstep marches.  A plan reads only
its grid's arrays, so on the cube every multiplier is the half's cropped
to it (the sharp filter is 1 there), and the result is the crop of the
result on the half, with its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
    "PlanTables",
    "poly_coefficient_samples",
    "entry_terms",
    "collocated_sum",
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
    """Collocation values of a polynomial coefficient field, variable i at
    comp_samples[i]: a state's samples, or a stack's with the component
    axis first.

    Degree <= 1 entries are evaluated directly (exact on the grid).  Higher
    degrees are built monomial by monomial with a projection onto modes
    <= grid.dealias_N after each pairwise product: its transform to the
    retained cube (grid.cube) and back.
    """
    if poly.degree() <= 1:
        return poly.eval_on(comp_samples)
    out = np.zeros(comp_samples[0].shape)
    for expo, coeff in poly.terms:
        cur = None
        for i, p in enumerate(expo):
            for _ in range(p):
                if cur is None:
                    cur = comp_samples[i]
                else:
                    cur = half_to_samples(grid.cube, samples_to_half(grid.cube, cur * comp_samples[i]))
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


def collocated_sum(grid: Grid, u: np.ndarray, du, polys, terms) -> np.ndarray:
    """Samples of the sum over terms (i, j, c, p) of polys[p](U) * du[j][c]
    into row i, variables first: u and each du[j] hold component c at [c]
    (a state's samples, or a stack's with the component axis first), and
    row i of the result is at [i]."""
    coeff = [poly_coefficient_samples(p, u, grid) for p in polys]
    rows = np.zeros_like(u)
    for i, j, c, p in terms:
        rows[i] += coeff[p] * du[j][c]
    return rows


def _scheme_axis(arrays: list) -> np.ndarray:
    """Per-scheme arrays along a leading scheme axis: a view of the one array
    for one scheme, else a stack of them broadcast to one shape (a scalar
    multiplier leaves a broadcast vector, with the bits of the full array)."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(np.broadcast_arrays(*arrays))


def _multiplier_table(dks, mats, ms, shared: dict) -> tuple[tuple[int, int, np.ndarray], ...]:
    """(row, column, m * sum_j P_j[row, column] i k_j along the scheme axis,
    one m per scheme) for every (row, column) where some P_j is nonzero,
    with the i k_j given by dks.  Equal multipliers are one array: shared
    maps (the ms, the P_j[row, column]) to the arrays already built."""
    table = []
    for i, c in zip(*np.nonzero(sum(np.abs(P) for P in mats))):
        entries = tuple(float(P[i, c]) for P in mats)
        key = tuple(map(id, ms)) + entries
        if key not in shared:
            ik = sum(a * dk for a, dk in zip(entries, dks) if a)
            shared[key] = _scheme_axis([m * ik for m in ms])
        table.append((int(i), int(c), shared[key]))
    return tuple(table)


def _apply_table(table, half: np.ndarray) -> np.ndarray:
    """Sum over the terms (i, c, mult) of mult * half[:, c] into row i of a
    stack, in table order; a row's first product is written, not added to
    zeros, and a row with no term is zero."""
    out = np.empty_like(half, order="C")
    rows, comps = out.swapaxes(0, 1), half.swapaxes(0, 1)  # rows[i] is out[:, i]
    written = [False] * len(comps)
    for i, c, mult in table:
        if written[i]:
            rows[i] += mult * comps[c]
        else:
            np.multiply(mult, comps[c], out=rows[i])
            written[i] = True
    for i, w in enumerate(written):
        if not w:
            rows[i] = 0.0
    return out


class PlanTables(NamedTuple):
    """The multipliers of a plan: lin_terms (row, column,
    m_lin * sum_j A0_j[row, column] i k_j) and nl_terms, on the flux path
    (row, column, m_nl * sum_j SJ0_j[row, column] i k_j) and on the
    collocated path (row, row, m_nl) for every row.  Every multiplier has a
    leading scheme axis (of one for one scheme); equal multipliers of the
    two tables are one array."""

    lin_terms: tuple[tuple[int, int, np.ndarray], ...]
    nl_terms: tuple[tuple[int, int, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class RhsPlan:
    """What rhs needs for one (scheme, system, grid), built once by rhs_plan;
    scheme is one SchemeSpec, or a tuple of S of them for a stack of states.

    On the flux path, flux holds the components of sys.Q; polys and terms
    are then empty.  On the collocated path flux is empty, and polys and
    terms list the distinct nonzero entries of the A1_j and where each acts
    (row, axis, column, index into polys).  The multipliers (tables) are
    built on the plan's first call and kept.
    """

    scheme: SchemeSpec | tuple[SchemeSpec, ...]
    sys: SystemDef
    grid: Grid
    polys: tuple[Poly, ...]
    terms: tuple[tuple[int, int, int, int], ...]
    flux: tuple[Poly, ...]

    @cached_property
    def tables(self) -> PlanTables:
        """Every filter is filter_multiplier at the cutoff on the plan's grid."""
        grid = self.grid
        schemes = (self.scheme,) if isinstance(self.scheme, SchemeSpec) else self.scheme
        m_nl = [filter_multiplier(FilterSpec("sharp" if s.kind == "sharp" else "smooth", s.cutoff(grid)), grid)
                for s in schemes]
        m_lin = [1.0 if s.kind == "smooth-nl" else m for s, m in zip(schemes, m_nl)]
        shared: dict = {}
        lin_terms = _multiplier_table(grid.diff_mult, self.sys.A0, m_lin, shared)
        if self.flux:
            return PlanTables(lin_terms, _multiplier_table(grid.diff_mult, self.sys.SJ0, m_nl, shared))
        m_nl = _scheme_axis(m_nl)
        return PlanTables(lin_terms, tuple((i, i, m_nl) for i in range(self.sys.n)))


def rhs_plan(scheme: SchemeSpec | tuple[SchemeSpec, ...], sys: SystemDef, grid: Grid) -> RhsPlan:
    """The plan of a scheme's right-hand side on a grid, or of a tuple of
    schemes' on a stack of states; the flux path is taken whenever the
    system has a flux sys.Q."""
    if grid.d != sys.d:
        raise ValueError(f"grid dimension {grid.d} does not match system d={sys.d}")
    if sys.Q is None:
        return RhsPlan(scheme, sys, grid, *entry_terms(sys.A1), ())
    return RhsPlan(scheme, sys, grid, (), (), sys.Q)


def rhs(
    scheme: SchemeSpec | tuple[SchemeSpec, ...],
    sys: SystemDef,
    state: StateField,
    plan: RhsPlan | None = None,
) -> StateField:
    """Right-hand side of the chosen semi-discretization at a state, or of
    a tuple of schemes at a stack of states, the i-th scheme at the i-th
    state (the stack's leading axis), on the state's grid: the half
    spectrum, or its retained cube Grid.cube (on which evolve marches).  On
    the cube the result is the crop of the result on the half, with its bits.

    A plan from rhs_plan(scheme, sys, state.grid) saves rebuilding the
    multipliers on every call.  U is read from the state's cached samples,
    so a state already sampled (by the blow-up check and the monitors) is
    not transformed again.  Per call on a fresh state on the flux path: one
    inverse transform call of U and one forward transform call of Q(U), 2n
    real transforms per state.  On the collocated path: one inverse
    transform call of U, one of the d derivatives d_j U stacked and one
    forward transform call of the nonlinear sum, n(d+2) per state.  A
    sampled state or stack costs the inverse transform call of U less.
    """
    grid = state.grid
    if state.n != sys.n:
        raise ValueError(f"state has {state.n} components, system expects {sys.n}")
    stacked = not isinstance(scheme, SchemeSpec)
    half, u = state.half, state.samples
    if (half.ndim == grid.d + 2) != stacked or (stacked and len(half) != len(scheme)):
        raise ValueError("a stack of states needs one scheme per state, one state one scheme")
    if plan is None:
        plan = rhs_plan(scheme, sys, grid)
    elif plan.scheme != scheme or plan.sys is not sys or plan.grid != grid:
        raise ValueError("plan was built for another scheme, system or grid")
    tables = plan.tables
    if not stacked:  # a stack of one
        half, u = half[None], u[None]
    u = u.swapaxes(0, 1)  # variables first
    # the samples of the nonlinear term, Q(U) or the collocated sum, are
    # freed once transformed, before its table is applied
    if plan.flux:
        # Q(U) joined along the component axis (np.stack(axis=1) without its wrapper's cost)
        nl = samples_to_half(grid, np.concatenate([p.eval_on(u)[:, None] for p in plan.flux], axis=1))
    else:
        # d_j of component c at [j][c]
        du = half_to_samples(grid, np.stack([half * dk for dk in grid.diff_mult])).swapaxes(1, 2)
        nl = samples_to_half(grid, collocated_sum(grid, u, du, plan.polys, plan.terms)).swapaxes(0, 1)
    nl = _apply_table(tables.nl_terms, nl)
    out = _apply_table(tables.lin_terms, half)
    out += nl
    # -(lin + nl) with the bits of a table sum that starts from zeros: + 0.0
    # makes every exact zero +0.0 whatever the signs of its products.  Both
    # act on the real and imaginary parts as one float array, which gives
    # the bits of the complex operations several times faster.
    parts = out.view(np.float64)
    np.add(parts, 0.0, out=parts)
    np.negative(parts, out=parts)
    return StateField(grid, out if stacked else out[0])
