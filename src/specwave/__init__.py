"""Fourier pseudospectral solver for quasilinear hyperbolic systems on periodic domains."""

from .spectral import (
    FilterSpec,
    Grid,
    StateField,
    apply_filter,
    apply_lambda,
    dealias,
    differentiate,
    filter_multiplier,
    filter_symbol,
    from_function,
    l2_inner,
    linf,
    make_grid,
    sobolev_norm,
    state_from_samples,
    to_samples,
)

__version__ = "0.1.0"
