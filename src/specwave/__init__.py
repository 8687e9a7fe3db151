"""Fourier pseudospectral solver for quasilinear hyperbolic systems on periodic domains."""

__version__ = "0.1.0"
