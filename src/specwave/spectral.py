"""Periodic spectral substrate: grids, fields, transforms, filters, norms.

Everything works on the torus [-pi, pi)^d with 2M uniformly spaced
collocation points per axis and integer wavenumbers k in {-M+1, ..., M}.
A field is a StateField of n real components; a scalar field is one with
n=1.  Its true Fourier coefficients (the c_k with f(x) = sum_k c_k
exp(i k.x)) are Hermitian, c_{-k} = conj(c_k), so a state stores only the
half spectrum: last-axis modes 0..M (the rfft layout), leading axes in FFT
index order, the Nyquist slot read as +M.  Everything the commands call
acts on that half; a sum over it (the H^s norms, the L^2 inner product)
counts each coefficient with its multiplicity in the full spectrum
(Grid.half_multiplicity), and coefficients_at gathers the coefficients at
given modes.  No other module knows the layout, and no command reads the
full spectrum StateField.coeffs.  The transforms run through
numpy.fft.rfft/irfft on 1D grids and scipy.fft.rfftn/irfftn on 2D grids,
chosen in _fft.

In 2D the last-axis columns 0 and M hold both k and -k.  The forward
transform leaves them Hermitian only to rounding (at most 2.8e-17 measured
on unit-variance samples), and the inverse transform reads them through
their Hermitian part.  Fields are treated as immutable; each one keeps its
samples after first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

__all__ = [
    "Grid",
    "StateField",
    "FilterSpec",
    "make_grid",
    "state_from_samples",
    "to_samples",
    "samples_to_half",
    "half_to_samples",
    "differentiate",
    "filter_multiplier",
    "apply_filter",
    "dealias",
    "smooth_ramp",
    "hermitian_symmetrize",
    "sobolev_norm",
    "l2_inner",
    "linf",
    "max_mode_support",
    "coefficients_at",
    "embed",
]


def _mode_values(two_m: int) -> np.ndarray:
    """Integer wavenumbers in FFT index order, with the Nyquist slot as +M."""
    m = two_m // 2
    k = np.rint(np.fft.fftfreq(two_m, d=1.0 / two_m)).astype(np.int64)
    k[m] = m
    return k


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-pi, pi)^d with 2M collocation points per axis.

    Collocation points are x_n = -pi + pi*n/M for n = 1..2M (the grid
    excludes -pi and includes +pi); the represented mode set is
    {-M+1, ..., M}^d.  Derived arrays (meshes, wavenumber grids, the phase
    factors, derivative multipliers and multiplicities on the half spectrum)
    and the dealiasing cutoff dealias_N with its sharp mask dealias_mask are
    precomputed once.  half_multiplicity counts how often each last-axis
    column of the half occurs in the full spectrum: once for columns 0 and
    M, twice (as k and -k) for the others.
    """

    d: int
    M: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.d}")
        if self.M < 4:
            raise ValueError(f"half-resolution M must be >= 4, got {self.M}")
        two_m = 2 * self.M
        axis_points = -np.pi + np.pi * np.arange(1, two_m + 1) / self.M
        modes = _mode_values(two_m)
        mesh = np.meshgrid(*([axis_points] * self.d), indexing="ij")
        kmesh = np.meshgrid(*([modes.astype(np.float64)] * self.d), indexing="ij")
        k_inf = np.maximum.reduce([np.abs(km) for km in kmesh])
        k_sq = sum(km**2 for km in kmesh)
        # Phase factor translating FFT output on the shifted grid into true
        # Fourier coefficients: c_k = FFT(y)_k / (2M)^d * exp(-i k . x_1).
        x0 = axis_points[0]
        axis_phase = np.exp(-1j * modes * x0)
        axis_phase[self.M] = (-1.0) ** (self.M + 1)  # exact: real data keep a real Nyquist mode
        half_phase = axis_phase[: self.M + 1].copy()
        for _ in range(self.d - 1):
            half_phase = np.multiply.outer(axis_phase, half_phase)
        diff_mult = []
        for a in range(self.d):
            dk = 1j * modes.astype(np.float64)
            dk[self.M] = 0.0  # Nyquist plane carries no data; avoid ik*M artifact
            shape = [1] * self.d
            shape[a] = two_m
            diff_mult.append(dk.reshape(shape)[..., : self.M + 1])
        # Orszag two-thirds cutoff; when 3 | 2M the floor would let the top
        # product mode fold exactly onto the retained edge, so step back one.
        n_dealias = (two_m - 1) // 3 if two_m % 3 == 0 else two_m // 3
        object.__setattr__(self, "two_m", two_m)
        object.__setattr__(self, "shape", (two_m,) * self.d)
        object.__setattr__(self, "npoints", two_m**self.d)
        object.__setattr__(self, "axis_points", axis_points)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "mesh", tuple(mesh))
        object.__setattr__(self, "kmesh", tuple(kmesh))
        object.__setattr__(self, "k_inf", k_inf)
        object.__setattr__(self, "k_sq", k_sq)
        object.__setattr__(self, "diff_mult", tuple(diff_mult))
        object.__setattr__(self, "half_phase", half_phase)
        object.__setattr__(self, "half_phase_conj", np.conj(half_phase))
        object.__setattr__(self, "half_multiplicity", np.r_[1.0, np.full(self.M - 1, 2.0), 1.0])
        object.__setattr__(self, "dealias_N", n_dealias)
        object.__setattr__(self, "cell_volume", (2.0 * np.pi / two_m) ** self.d)
        object.__setattr__(self, "dealias_mask", filter_multiplier(FilterSpec("sharp", n_dealias), self))
        self.dealias_mask.flags.writeable = False  # every sharp rhs plan on this grid shares it


def make_grid(d: int, M: int) -> Grid:
    """Build a periodic grid with 2M collocation points per axis."""
    return Grid(d=d, M=M)


@dataclass(frozen=True)
class StateField:
    """Vector of n real periodic fields on one shared grid, stored as the half
    spectrum of each component stacked along axis 0, shape (n, ..., M+1);
    a scalar field has n=1.
    """

    grid: Grid
    half: np.ndarray

    @property
    def n(self) -> int:
        return self.half.shape[0]

    @cached_property
    def samples(self) -> np.ndarray:
        """Read-only values at the collocation points, transformed on first use and kept."""
        out = half_to_samples(self.grid, self.half)
        out.flags.writeable = False
        return out

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Read-only full spectrum in FFT order, gathered on first use and kept.
        No command reads it; it stays only for the probe in bench/worker.py."""
        full = coefficients_at(self, self.grid.modes)
        full.flags.writeable = False
        return full

    def component(self, i: int) -> "StateField":
        """Component i as a one-component state."""
        return StateField(self.grid, self.half[i][None])

    def __add__(self, other: "StateField") -> "StateField":
        return StateField(self.grid, self.half + other.half)

    def __sub__(self, other: "StateField") -> "StateField":
        return StateField(self.grid, self.half - other.half)

    def __mul__(self, a: float) -> "StateField":
        return StateField(self.grid, self.half * a)

    __rmul__ = __mul__

    def __neg__(self) -> "StateField":
        return StateField(self.grid, -self.half)


def hermitian_symmetrize(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Project onto Hermitian-symmetric coefficients (real-valued field).
    No command calls it; it stays only for the probe in bench/worker.py."""
    rev = coeffs
    for ax in range(-d, 0):
        rev = np.flip(np.roll(rev, -1, axis=ax), axis=ax)
    return 0.5 * (coeffs + np.conj(rev))


def _fft(grid: Grid):
    """The forward and inverse real transforms of a grid's sample stacks,
    normalised forward: numpy.fft.rfft/irfft in 1D, where they give the same
    bits as scipy.fft and as the n-dimensional wrappers, with less call
    overhead, and load in a fraction of scipy's time; scipy.fft.rfftn/irfftn
    over the two grid axes in 2D, where numpy's forward transform is about 2x
    slower."""
    if grid.d == 1:
        return partial(np.fft.rfft, norm="forward"), partial(np.fft.irfft, n=grid.two_m, norm="forward")
    import scipy.fft

    return (
        partial(scipy.fft.rfftn, axes=(-2, -1), norm="forward"),
        partial(scipy.fft.irfftn, s=grid.shape, axes=(-2, -1), norm="forward"),
    )


def samples_to_half(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of real samples (the one forward transform).

    No finiteness check: non-finite samples give non-finite coefficients.
    """
    forward, _ = _fft(grid)
    return forward(samples) * grid.half_phase


def half_to_samples(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Real values at the collocation points of Hermitian coefficients given by their half spectrum."""
    _, inverse = _fft(grid)
    return inverse(half * grid.half_phase_conj)


def state_from_samples(grid: Grid, values: np.ndarray) -> StateField:
    """Transform a stack of real sample arrays (n, *grid.shape) into a state."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != grid.d + 1 or values.shape[1:] != grid.shape:
        raise ValueError(f"sample shape {values.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite sample values")
    return StateField(grid, samples_to_half(grid, values))


def to_samples(x: StateField) -> np.ndarray:
    """Real values at the collocation points: the field's one read-only sample array."""
    return x.samples


def differentiate(x: StateField, axis: int = 0):
    """Spectral derivative along a grid axis (0-based); Nyquist plane zeroed."""
    grid = x.grid
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for d={grid.d}")
    return replace(x, half=x.half * grid.diff_mult[axis])


# ---------------------------------------------------------------------------
# Low-pass filters


def smooth_ramp(xi) -> np.ndarray:
    """1D smooth cutoff profile: equals 1 for |xi|<=1/2, 0 for |xi|>=1."""
    return np.clip(2.0 - 2.0 * np.abs(xi), 0.0, 1.0) ** 2


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass filter acting in Fourier space.

    kind 'sharp' is the indicator of the cube max_j |k_j| <= N; kind
    'smooth' is the tensor product of the 1D ramp evaluated at k_j/N.
    """

    kind: str
    N: int

    def __post_init__(self) -> None:
        if self.kind not in ("sharp", "smooth"):
            raise ValueError(f"filter kind must be 'sharp' or 'smooth', got {self.kind!r}")
        if self.N < 1:
            raise ValueError(f"filter cutoff must be positive, got {self.N}")


def filter_multiplier(spec: FilterSpec, grid: Grid) -> np.ndarray:
    """Multiplier array of the filter on the grid's half spectrum."""
    if spec.N > grid.M:
        raise ValueError(f"filter cutoff N={spec.N} exceeds resolved modes M={grid.M}")
    half = (..., slice(grid.M + 1))
    if spec.kind == "sharp":
        return (grid.k_inf[half] <= spec.N).astype(np.float64)
    mult = 1.0
    for km in grid.kmesh:
        mult = mult * smooth_ramp(km[half] / spec.N)
    return mult


def apply_filter(x: StateField, spec: FilterSpec):
    return replace(x, half=x.half * filter_multiplier(spec, x.grid))


def dealias(x: StateField):
    """Zero the top third of modes: the sharp filter at the grid's cutoff dealias_N."""
    return replace(x, half=x.half * x.grid.dealias_mask)


# ---------------------------------------------------------------------------
# Norms and inner products


def sobolev_norm(x: StateField, s: float) -> float:
    """H^s norm, matching the continuous norm on the 2pi-periodic torus.

    Computed from the coefficients as
    ((2pi)^d * sum_k (1+|k|^2)^s sum_components |c_k|^2)^(1/2), summed over
    the half spectrum with each column weighted by its multiplicity in the
    full one (Parseval for real fields).
    """
    if s < 0:
        raise ValueError(f"regularity index must be >= 0, got {s}")
    grid = x.grid
    w = grid.half_multiplicity
    if s != 0:
        w = w * (1.0 + grid.k_sq[..., : grid.M + 1]) ** s
    h = x.half
    total = np.sum(w * (h.real**2 + h.imag**2))
    return float(np.sqrt(total * (2.0 * np.pi) ** grid.d))


def l2_inner(a: StateField, b: StateField) -> float:
    """L^2 inner product on the torus, summed over components (Parseval on the half spectrum)."""
    if a.grid != b.grid:
        raise ValueError("inner product requires a shared grid")
    if a.half.shape != b.half.shape:
        raise ValueError("inner product requires matching component counts")
    total = np.sum(a.grid.half_multiplicity * (a.half * np.conj(b.half)).real)
    return float(total * (2.0 * np.pi) ** a.grid.d)


def linf(x: StateField) -> float:
    """Max absolute value over collocation points and components."""
    return float(np.max(np.abs(to_samples(x))))


def max_mode_support(x: StateField) -> int:
    """Largest max_j|k_j| carrying a coefficient above 1e-13 of the largest."""
    mag = np.abs(x.half).max(axis=0)
    active = mag > 1e-13 * mag.max()  # none for a zero state
    return int(np.max(x.grid.k_inf[..., : x.grid.M + 1][active], initial=0))


def coefficients_at(x: StateField, ks) -> np.ndarray:
    """Coefficients c_k, shape (n, len(ks), ...), at the modes k in ks^d (ks
    integers in -M+1..M).  A mode with a negative last component is the
    conjugate of the stored -k, plus 0.0 so that an exact +0.0 imaginary
    part does not become -0.0."""
    grid = x.grid
    ks = np.asarray(ks, dtype=np.int64)
    if np.any((ks <= -grid.M) | (ks > grid.M)):
        raise ValueError(f"modes must lie in {-grid.M + 1}..{grid.M}")
    kk = np.meshgrid(*[ks] * grid.d, indexing="ij")
    neg = kk[-1] < 0
    sign = np.where(neg, -1, 1)
    comp = np.arange(x.n).reshape((-1,) + (1,) * grid.d)  # an index array too, so out is C-ordered
    out = x.half[(comp, *[np.mod(sign * k, grid.two_m) for k in kk[:-1]], sign * kk[-1])]
    out[:, neg] = np.conj(out[:, neg]) + 0.0
    return out


def embed(x: StateField, fine: Grid) -> StateField:
    """Zero-pad a state onto a finer grid's mode set (same d)."""
    grid = x.grid
    if fine.d != grid.d:
        raise ValueError("grids must share the spatial dimension")
    if fine.M < grid.M:
        raise ValueError("target grid must be at least as fine")
    if fine.M == grid.M:
        return x
    m = grid.M
    # A mode with a component at the coarse Nyquist +M stands for +M and -M
    # together; on the fine grid these are distinct, so split it evenly.
    block = x.half.copy()
    block[:, grid.k_inf[..., : m + 1] == m] *= 0.5
    tgt = np.zeros((x.n,) + fine.shape[:-1] + (fine.M + 1,), dtype=np.complex128)
    tgt[(slice(None), *[np.mod(grid.modes, fine.two_m)] * (grid.d - 1), slice(m + 1))] = block
    if grid.d == 2:  # row -M: mirrors conj(0.5 c_(M,-k2)), k2 = 0..M-1, with c_(M,-k2) = conj(stored) for k2 > 0
        tgt[:, fine.two_m - m, :m] = block[:, m, :m]
        tgt[:, fine.two_m - m, 0] = np.conj(block[:, m, 0])
    return StateField(fine, tgt)
