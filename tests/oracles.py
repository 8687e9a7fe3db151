"""Independent brute-force oracles used to freeze expected values, and test helpers.

The oracles are deliberately naive (dense sums, dict-based convolutions)
and share no code path with the package internals.  The helpers, unlike
the oracles, go through the package's public API: they build states,
evaluate a filter symbol and the energy functional, count transforms and
compare two right-hand sides.  No command calls any of them, so they live
here rather than in the package.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from specwave.analysis import energy_symmetrizer
from specwave.semidisc import SchemeSpec, poly_coefficient_samples, rhs
from specwave.spectral import (
    FilterSpec,
    Grid,
    StateField,
    dealias,
    l2_inner,
    smooth_ramp,
    state_from_samples,
    to_samples,
)
from specwave.systems import SystemDef, saint_venant_2d_hamiltonian, saint_venant_2d_standard


def zero_state(grid: Grid, n: int) -> StateField:
    return StateField(grid, np.zeros((n,) + grid.shape[:-1] + (grid.M + 1,), dtype=np.complex128))


def from_function(grid: Grid, f: Callable[..., np.ndarray]) -> StateField:
    """Sample a real function of d coordinates at the collocation points (n=1)."""
    values = np.asarray(f(*grid.mesh), dtype=np.float64)
    return state_from_samples(grid, np.broadcast_to(values, grid.shape)[None])


def apply_lambda(x: StateField, s: float):
    """Apply the Bessel multiplier (1 + |k|^2)^(s/2)."""
    grid = x.grid
    return replace(x, half=x.half * (1.0 + grid.k_sq[..., : grid.M + 1]) ** (s / 2.0))


def sobolev_norm_full(x: StateField, s: float) -> float:
    """H^s norm summed over the full spectrum StateField.coeffs:
    ((2pi)^d * sum_k (1+|k|^2)^s sum_components |c_k|^2)^(1/2)."""
    grid = x.grid
    w = (1.0 + grid.k_sq) ** s if s != 0 else 1.0
    total = np.sum(w * np.abs(x.coeffs) ** 2)
    return float(np.sqrt(total * (2.0 * np.pi) ** grid.d))


def l2_inner_full(a: StateField, b: StateField) -> float:
    """L^2 inner product on the torus, summed over components and over the full spectrum StateField.coeffs."""
    if a.grid != b.grid:
        raise ValueError("inner product requires a shared grid")
    if a.coeffs.shape != b.coeffs.shape:
        raise ValueError("inner product requires matching component counts")
    total = np.sum(a.coeffs * np.conj(b.coeffs))
    return float(np.real(total) * (2.0 * np.pi) ** a.grid.d)


def embed_full(x: StateField, fine: Grid) -> StateField:
    """Zero-pad a state onto a finer grid's mode set (same d) through the full
    spectrum StateField.coeffs of both grids."""
    grid = x.grid
    if fine.d != grid.d:
        raise ValueError("grids must share the spatial dimension")
    if fine.M < grid.M:
        raise ValueError("target grid must be at least as fine")
    if fine.M == grid.M:
        return x
    tgt = np.zeros((x.n,) + fine.shape, dtype=np.complex128)
    idx = np.mod(grid.modes, fine.two_m)
    tgt[np.ix_(np.arange(x.n), *[idx] * grid.d)] = x.coeffs
    # A mode with a component at the coarse Nyquist +M stands for +M and -M
    # together; on the fine grid these are distinct, so split it evenly.
    nyq = grid.k_inf == grid.M
    k = [km[nyq].astype(np.int64) for km in grid.kmesh]
    split = 0.5 * x.coeffs[:, nyq]
    tgt[(slice(None), *[np.mod(ka, fine.two_m) for ka in k])] = split
    tgt[(slice(None), *[np.mod(-ka, fine.two_m) for ka in k])] = np.conj(split)
    return StateField(fine, tgt[..., : fine.M + 1])


def filter_symbol(spec: FilterSpec, k: Sequence[float]) -> float:
    """Exact Fourier multiplier of the filter at mode tuple k."""
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    if spec.kind == "sharp":
        return float(np.max(np.abs(k)) <= spec.N)
    return float(np.prod(smooth_ramp(k / spec.N)))


def energy_functional(sys: SystemDef, state: StateField, s: float, variant: str = "standard") -> float:
    """Quadratic form of the symmetrizer applied to the Bessel-smoothed state.

    Products are dealiased pairwise so the collocation quadrature is exact
    for the trigonometric polynomials involved.
    """
    S = energy_symmetrizer(sys, variant)
    grid = state.grid
    n = state.n
    v = apply_lambda(state, s)
    v_samp = to_samples(v)
    u_samp = to_samples(state)
    total = 0.0
    for a in range(n):
        for b in range(n):
            entry = S.entries[a][b]
            if not entry.terms:
                continue
            w_ab = dealias(state_from_samples(grid, (v_samp[a] * v_samp[b])[None]))
            coeff = poly_coefficient_samples(entry, u_samp, grid)
            total += l2_inner(state_from_samples(grid, coeff[None]), w_ab)
    return total


def from_coeffs(grid, c: np.ndarray) -> StateField:
    """State from full FFT-ordered Hermitian coefficients (n, *grid.shape): keeps their half spectrum."""
    return StateField(grid, np.asarray(c)[..., : grid.M + 1])


def phase_conj(grid) -> np.ndarray:
    """Full-size factor exp(i k.x_1) turning true coefficients into FFT input on the
    shifted grid (the Nyquist slot exact, as for real data)."""
    axis = np.conj(np.exp(-1j * grid.modes * grid.axis_points[0]))
    axis[grid.M] = (-1.0) ** (grid.M + 1)
    out = axis
    for _ in range(grid.d - 1):
        out = np.multiply.outer(out, axis)
    return out


def count_transforms(monkeypatch, npoints: int) -> Counter:
    """Count transforms by component, whichever library performs them.

    Wraps the FFT entry points of both numpy.fft and scipy.fft; the
    returned counter gains 'forward' (rfft, rfftn) and 'inverse' (irfft,
    irfftn) entries as transforms of fields with npoints collocation points
    run.  Any other entry point counts under its own name.
    """
    counts: Counter = Counter()
    kinds = {"rfft": "forward", "rfftn": "forward", "irfft": "inverse", "irfftn": "inverse"}
    for lib in (np.fft, scipy.fft):
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):

            def counted(*args, _fn=getattr(lib, name), _name=name, **kwargs):
                out = _fn(*args, **kwargs)
                real = out if _name.startswith("i") else args[0]
                counts[kinds.get(_name, _name)] += real.size // npoints  # one transform per component
                return out

            monkeypatch.setattr(lib, name, counted)
    return counts


def irrotational_equivalence_check(state: StateField) -> float:
    """Max coefficient gap between the two 2D shallow-water sharp-scheme right-hand sides.

    The advective forms (u.grad)u and grad(|u|^2)/2 agree exactly when the
    velocity is curl-free, so the gap measures how far the given state is
    from that regime.
    """
    if state.grid.d != 2 or state.n != 3:
        raise ValueError("equivalence check expects a 2D three-component state")
    scheme = SchemeSpec("sharp")
    r_std = rhs(scheme, saint_venant_2d_standard(), state)
    r_ham = rhs(scheme, saint_venant_2d_hamiltonian(), state)
    return float(np.max(np.abs(r_std.half - r_ham.half)))


def naive_dft(samples: np.ndarray, points: np.ndarray, modes: np.ndarray) -> dict[int, complex]:
    """O(M^2) direct Fourier sum: c_k = (1/2M) sum_n f(x_n) exp(-i k x_n)."""
    n = len(samples)
    return {
        int(k): complex(np.sum(samples * np.exp(-1j * k * points)) / n)
        for k in modes
    }


def naive_inverse(coeffs: dict[int, complex], points: np.ndarray) -> np.ndarray:
    """Direct summation of sum_k c_k exp(i k x) at the given points."""
    out = np.zeros(len(points), dtype=complex)
    for k, c in coeffs.items():
        out += c * np.exp(1j * k * points)
    return np.real_if_close(out, tol=1e6).real


def dict_from_coeffs(coeffs: np.ndarray, modes: np.ndarray, tol: float = 0.0) -> dict:
    """Mode->coefficient map for a 1D or 2D coefficient array."""
    out = {}
    if coeffs.ndim == 1:
        for idx, k in enumerate(modes):
            if abs(coeffs[idx]) > tol:
                out[int(k)] = complex(coeffs[idx])
    else:
        for i1, k1 in enumerate(modes):
            for i2, k2 in enumerate(modes):
                if abs(coeffs[i1, i2]) > tol:
                    out[(int(k1), int(k2))] = complex(coeffs[i1, i2])
    return out


def convolve_dicts(a: dict, b: dict) -> dict:
    """Exact convolution of two mode->coefficient maps (1D ints or 2D tuples)."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if isinstance(ka, tuple):
                key = (ka[0] + kb[0], ka[1] + kb[1])
            else:
                key = ka + kb
            out[key] = out.get(key, 0.0) + va * vb
    return out


def truncate_dict(d: dict, cutoff: int) -> dict:
    """Keep modes with max_j |k_j| <= cutoff."""
    def inside(k):
        if isinstance(k, tuple):
            return max(abs(k[0]), abs(k[1])) <= cutoff
        return abs(k) <= cutoff

    return {k: v for k, v in d.items() if inside(k)}


def coeffs_from_dict(d: dict, modes: np.ndarray, ndim: int) -> np.ndarray:
    """Dense coefficient array from a mode map, folding nothing (exact support)."""
    two_m = len(modes)
    index = {int(k): i for i, k in enumerate(modes)}
    if ndim == 1:
        out = np.zeros(two_m, dtype=complex)
        for k, v in d.items():
            if int(k) in index:
                out[index[int(k)]] += v
        return out
    out = np.zeros((two_m, two_m), dtype=complex)
    for (k1, k2), v in d.items():
        if int(k1) in index and int(k2) in index:
            out[index[int(k1)], index[int(k2)]] += v
    return out


def sobolev_from_dict(d: dict, s: float, ndim: int) -> float:
    """Term-by-term H^s norm of a mode map on the 2pi-torus."""
    total = 0.0
    for k, v in d.items():
        k2 = (k[0] ** 2 + k[1] ** 2) if isinstance(k, tuple) else k**2
        total += (1.0 + k2) ** s * abs(v) ** 2
    return float(np.sqrt(total * (2.0 * np.pi) ** ndim))


def random_band_limited(rng: np.random.Generator, two_m: int, support: int, ndim: int = 1) -> dict:
    """Random Hermitian-symmetric mode map supported on max|k_j| <= support."""
    out: dict = {}
    if ndim == 1:
        for k in range(1, support + 1):
            v = complex(rng.normal(), rng.normal())
            out[k] = v
            out[-k] = np.conj(v)
        out[0] = complex(rng.normal(), 0.0)
        return out
    for k1 in range(-support, support + 1):
        for k2 in range(-support, support + 1):
            if (k1, k2) in out or (k1, k2) == (0, 0):
                continue
            v = complex(rng.normal(), rng.normal())
            out[(k1, k2)] = v
            out[(-k1, -k2)] = np.conj(v)
    out[(0, 0)] = complex(rng.normal(), 0.0)
    return out


def quadrature_inner(f_samples: np.ndarray, g_samples: np.ndarray, ndim: int) -> float:
    """Trapezoid-on-torus quadrature of the product of two sample arrays."""
    n_points = f_samples.size
    return float(np.sum(f_samples * g_samples) * (2.0 * np.pi) ** ndim / n_points)


def csv_cell(v) -> str:
    """One CSV cell formatted value by value: None empty, text as it is,
    integers in decimal and every other number as repr(float(v))."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def in_domain(sys: SystemDef, point: Sequence[float]) -> bool:
    """Whether every hyperbolicity predicate of the system is positive at one point."""
    return all(p(point) > 0.0 for _, p in sys.predicates)


def hyperbolic_points_by_point(sys, count: int) -> np.ndarray:
    """Reference for systems.sample_hyperbolic_points: the same Halton draws
    (box [-0.9, 0.9]^n, batches of 256, at most 20000 drawn), each point
    accepted on its own through in_domain."""
    from scipy.stats import qmc

    sampler = qmc.Halton(d=sys.n, scramble=False)
    lo, hi = -0.9, 0.9
    accepted: list[np.ndarray] = []
    drawn = 0
    while len(accepted) < count and drawn < 20000:
        batch = sampler.random(256)
        drawn += 256
        pts = lo + (hi - lo) * batch
        for p in pts:
            if in_domain(sys, p):
                accepted.append(p)
                if len(accepted) == count:
                    break
    return np.array(accepted)
