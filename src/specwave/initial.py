"""Catalog of initial data for the shallow-water experiments.

Resolution-dependent entries receive the grid's retained cutoff
N = floor(2M/3), so the injected high mode sits exactly at the edge of
the retained band.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .spectral import Grid, StateField, state_from_samples

__all__ = ["build_initial", "INITIAL_NAMES"]


def _init1(grid: Grid, alpha: float) -> StateField:
    """Localized heap of water: eta = exp(-|x|^alpha) exp(-4 x^2) / 2, u = 0 (alpha > 0)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x = grid.axis_points
    eta = 0.5 * np.exp(-np.abs(x) ** alpha) * np.exp(-4.0 * x**2)
    return state_from_samples(grid, np.stack([eta, np.zeros_like(x)]))


def _init_dip(grid: Grid, depth: float) -> StateField:
    """eta = -depth cos(x), u = sin(x) + sin(Nx)/N^2.

    With depth 1/2 (init2) the data lie inside 1+eta>0 and outside
    1+eta-u^2>0; with depth 1 (init_zero_depth) they touch zero depth at x=0.
    """
    x = grid.axis_points
    n = grid.dealias_N
    eta = -depth * np.cos(x)
    u = np.sin(x) + np.sin(n * x) / n**2
    return state_from_samples(grid, np.stack([eta, u]))


def _init2d(
    grid: Grid,
    h0: float,
    u_l: float,
    v_l: float,
    u_h: float,
    v_h: float,
    s: float,
) -> StateField:
    """Separable 2D data with an N-mode perturbation of amplitude N^-s.

    Each factor is evaluated on the axis points and broadcast: the same
    products, entry by entry, as on the full mesh."""
    x, y = grid.axis_points[:, None], grid.axis_points[None, :]
    n = grid.dealias_N
    eta = (h0 - 1.0) * np.cos(x) * np.cos(y)
    u = u_l * np.sin(x) * np.cos(y) + u_h * np.sin(n * x) * np.cos(n * y) / n**s
    v = v_l * np.cos(x) * np.sin(y) + v_h * np.cos(n * x) * np.sin(n * y) / n**s
    return state_from_samples(grid, np.stack([eta, u, v]))


# name -> (grid dimension, the function that makes the data, its parameters with their defaults)
_CATALOG = {
    "init1": (1, _init1, {"alpha": 1.5}),
    "init2": (1, partial(_init_dip, depth=0.5), {}),
    "init_zero_depth": (1, partial(_init_dip, depth=1.0), {}),
    "init2D": (2, _init2d, {"h0": 0.5, "u_l": 0.5, "v_l": -0.5, "u_h": 1.0, "v_h": -1.0, "s": 2.0}),
}
INITIAL_NAMES = tuple(_CATALOG)


def build_initial(name: str, params: dict | None, grid: Grid) -> StateField:
    """Build a catalog entry on the given grid; params override its defaults."""
    if name not in _CATALOG:
        known = ", ".join(INITIAL_NAMES)
        raise ValueError(f"unknown initial data {name!r}; catalog: {known}")
    want_d, make, defaults = _CATALOG[name]
    if grid.d != want_d:
        raise ValueError(f"{name} requires a {want_d}-dimensional grid, got d={grid.d}")
    params = params or {}
    unused = sorted(set(params) - set(defaults))
    if unused:
        raise ValueError(f"unused parameters for {name}: {unused}")
    return make(grid, **{key: float(params.get(key, value)) for key, value in defaults.items()})
