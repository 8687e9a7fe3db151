"""Periodic spectral substrate: grids, fields, transforms, filters, norms.

Everything works on the torus [-pi, pi)^d with 2M uniformly spaced
collocation points per axis and integer wavenumbers k in {-M+1, ..., M}.
A field is a StateField of n real components; a scalar field is one with
n=1.  Its true Fourier coefficients (the c_k with f(x) = sum_k c_k
exp(i k.x)) are Hermitian, c_{-k} = conj(c_k), so a state stores only the
half spectrum: last-axis modes 0..M (the rfft layout), leading axes in FFT
index order, the Nyquist slot read as +M.  Everything the commands call
acts on that half, the RK4 march aside (below); a sum over it (the H^s norms, the L^2 inner product)
counts each coefficient with its multiplicity in the full spectrum
(Grid.half_multiplicity), and coefficients_at gathers the coefficients at
given modes.  No other module knows the layout, and no command reads the
full spectrum StateField.coeffs.  A stack of states, one per scheme evolved
in lockstep, has a leading scheme axis; the transforms, the arithmetic and
the norms act on every state of a stack at once, and a norm of a stack is
one value per state.  StateField owns the two layout rules the layers above
it need: variables first (StateField.variables puts the component axis in
front, so variable i is at [i], the layout Poly.eval_on reads), and one
value per state (StateField.per_state reduces over each state's axes).  The
transforms run through numpy.fft:
rfft/irfft on 1D grids, rfftn/irfftn over the two grid axes on 2D grids.
The 2D forward transform writes into one preallocated array (out=);
without it numpy allocates a second full-size output, and that allocation,
not the FFT, made it about 2x slower than scipy.fft.  With out= the two
take the same time and give the same bits, so no module imports scipy.

The RK4 march stores its states on a grid of their own, Grid.cube: the
retained cube |k_j| <= N (N = Grid.dealias_N, the Orszag two-thirds
cutoff) of the half, last-axis columns 0..N and, in 2D, rows k_0 = 0..N
and -N..-1 in FFT order (Grid.crop), 44.5% of the half's modes at 2D
M=128.  A state's layout is its grid.  The cube carries the crops of the
half's wavenumber, derivative and phase arrays, with their bits, so the
transforms, filters, derivatives and the arithmetic give a cube state the
crop of the half's result; it carries none of the half-only arrays, so
the norms, the gathers and embed raise on it.  to_cube and to_half move a
state between a grid and its cube.

In 2D the last-axis columns 0 and M hold both k and -k.  The forward
transform leaves them Hermitian only to rounding (at most 2.8e-17 measured
on unit-variance samples), and the inverse transform reads them through
their Hermitian part.  Fields are treated as immutable; each one keeps its
samples after first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

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
    "to_cube",
    "to_half",
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
    {-M+1, ..., M}^d.  Derived arrays are precomputed once: axis_points (the
    collocation coordinates of one axis, the same on every axis) and the
    wavenumber arrays, which live on the half spectrum (shape
    (2M,)*(d-1) + (M+1,)) or broadcast to it: kmesh is one vector per axis
    (the leading axes all 2M modes in FFT order, the last axis modes
    0..M), and k_inf, k_sq, diff_mult, the phase factors,
    the multiplicities and the sharp mask dealias_mask (at the cutoff
    dealias_N) derive from it.  half_multiplicity counts how often each
    last-axis column of the half occurs in the full spectrum: once for
    columns 0 and M, twice (as k and -k) for the others.  cube is the
    retained cube (crop) as a grid of its own, the layout of the RK4 march.
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
        k = modes.astype(np.float64)
        kmesh = np.meshgrid(*[k] * (self.d - 1), k[: self.M + 1], indexing="ij", sparse=True)
        k_inf = reduce(np.maximum, [np.abs(km) for km in kmesh])
        k_sq = sum(km**2 for km in kmesh)
        # Phase factor translating FFT output on the shifted grid into true
        # Fourier coefficients: c_k = FFT(y)_k / (2M)^d * exp(-i k . x_1).
        x0 = axis_points[0]
        axis_phase = np.exp(-1j * modes * x0)
        axis_phase[self.M] = (-1.0) ** (self.M + 1)  # exact: real data keep a real Nyquist mode
        half_phase = axis_phase[: self.M + 1].copy()
        for _ in range(self.d - 1):
            half_phase = np.multiply.outer(axis_phase, half_phase)
        # The Nyquist plane carries no data; zero it to avoid an ik*M artifact.
        diff_mult = [1j * np.where(km == self.M, 0.0, km) for km in kmesh]
        # Orszag two-thirds cutoff; when 3 | 2M the floor would let the top
        # product mode fold exactly onto the retained edge, so step back one.
        n_dealias = (two_m - 1) // 3 if two_m % 3 == 0 else two_m // 3
        object.__setattr__(self, "two_m", two_m)
        object.__setattr__(self, "shape", (two_m,) * self.d)
        object.__setattr__(self, "npoints", two_m**self.d)
        object.__setattr__(self, "axis_points", axis_points)
        object.__setattr__(self, "modes", modes)
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
        self.dealias_mask.flags.writeable = False  # one array, read by every dealias on this grid
        object.__setattr__(self, "cube", _Cube(self))

    def crop(self, a: np.ndarray) -> np.ndarray:
        """A copy of the retained cube |k_j| <= N (N = dealias_N) of values
        on the half spectrum, or of an array that broadcasts to it: last-axis
        columns 0..N and, in 2D, rows k_0 = 0..N and -N..-1 in FFT order."""
        n = self.dealias_N
        a = a[..., : n + 1]
        if self.d == 1:
            return a.copy()
        return np.concatenate((a[..., : n + 1, :], a[..., self.two_m - n :, :]), axis=-2)


class _Cube:
    """The retained cube (Grid.crop) of the grid full as a grid of its own:
    full's points and cutoff, the crops of its kmesh, diff_mult and phase
    factors, with their bits, and none of its half-only arrays (modes,
    k_inf, k_sq, half_multiplicity, dealias_mask).  Its cube is itself."""

    def __init__(self, full: Grid):
        for name in ("d", "M", "two_m", "shape", "npoints", "axis_points", "dealias_N", "cell_volume"):
            setattr(self, name, getattr(full, name))
        self.full, self.cube = full, self
        self.kmesh = tuple(full.crop(km) for km in full.kmesh)
        self.diff_mult = tuple(full.crop(dk) for dk in full.diff_mult)
        self.half_phase = full.crop(full.half_phase)
        self.half_phase_conj = np.conj(self.half_phase)


def make_grid(d: int, M: int) -> Grid:
    """Build a periodic grid with 2M collocation points per axis."""
    return Grid(d=d, M=M)


@dataclass(frozen=True)
class StateField:
    """Vector of n real periodic fields on one shared grid, stored as the half
    spectrum of each component stacked along axis 0, shape (n, ..., M+1);
    a scalar field has n=1.  A stack of S such states, one per scheme of a
    lockstep evolution, has shape (S, n, ..., M+1).  On a grid's cube
    (Grid.cube, the layout of the RK4 march) half holds the retained cube
    instead, shape (n, ..., N+1) with 2N+1 rows in 2D.
    """

    grid: Grid
    half: np.ndarray

    @property
    def n(self) -> int:
        return self.half.shape[-self.grid.d - 1]

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

    @property
    def variables(self) -> np.ndarray:
        """The samples with the component axis in front, a view: variable i
        (of each state of a stack) at [i], as Poly.eval_on reads it.  At
        most the scheme axis precedes the component axis, so a swap moves
        it (np.moveaxis took 3.7 us a call against 0.2 us, 2-vCPU Xeon)."""
        return self.samples.swapaxes(0, -self.grid.d - 1)

    def per_state(self, ufunc: np.ufunc, values: np.ndarray):
        """Reduce values, laid out like this state or stack with or without
        its component axis, with ufunc (np.add for a sum) over each state's
        axes: a numpy scalar for one state, one value per state for a stack;
        the bits of np.sum or np.max of each state."""
        lead = self.half.ndim - self.grid.d - 1
        return ufunc.reduce(values.reshape(values.shape[:lead] + (-1,)), axis=-1)[()]

    def view(self, fn) -> "StateField":
        """The state (or stack) fn(half), with samples fn(samples) when this
        one has sampled already, so that they are not transformed again."""
        st = StateField(self.grid, fn(self.half))
        if "samples" in self.__dict__:  # where cached_property keeps them
            st.__dict__["samples"] = fn(self.__dict__["samples"])
        return st

    def component(self, i: int) -> "StateField":
        """Component i as a one-component state (of each state of a stack)."""
        return StateField(self.grid, self.half[(..., slice(i, i + 1)) + (slice(None),) * self.grid.d])

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


def _rfft(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """The one forward transform call, before the phase factor.
    One rfftn call for both d: same bits, slower 1D (8 -> 14 us at M=64, 27 -> 32 us at M=1024)."""
    if grid.d == 1:
        return np.fft.rfft(samples, norm="forward")
    out = np.empty(samples.shape[:-1] + (grid.M + 1,), dtype=np.complex128)
    np.fft.rfftn(samples, axes=(-2, -1), norm="forward", out=out)
    return out


def samples_to_half(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of real samples, or on a Grid.cube their
    retained cube, gathered from the same transform before the phase factor
    and so with the bits of the half.

    No finiteness check: non-finite samples give non-finite coefficients.
    """
    out = _rfft(grid, samples)
    if isinstance(grid, _Cube):
        out = grid.full.crop(out)
    out *= grid.half_phase
    return out


def _widen(grid: Grid, cube: np.ndarray, width: int, factor: np.ndarray | None) -> np.ndarray:
    """Zeros of last-axis width `width` (>= N+1) and, in 2D, all 2M rows,
    holding cube (times factor, laid out like it, unless None) at its modes."""
    n = grid.dealias_N
    out = np.zeros(cube.shape[: cube.ndim - grid.d] + grid.shape[:-1] + (width,), dtype=np.complex128)
    blocks = [(np.s_[..., : n + 1], np.s_[...])] if grid.d == 1 else [
        (np.s_[..., : n + 1, : n + 1], np.s_[..., : n + 1, :]),  # rows k_0 = 0..N
        (np.s_[..., grid.two_m - n :, : n + 1], np.s_[..., n + 1 :, :]),  # rows k_0 = -N..-1
    ]
    for dst, src in blocks:
        if factor is None:
            out[dst] = cube[src]
        else:
            np.multiply(cube[src], factor[src], out=out[dst])
    return out


def half_to_samples(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Real values at the collocation points of Hermitian coefficients given
    by their half spectrum, or on a Grid.cube by their retained cube, in one
    inverse transform call.  From the cube the last axis is zero-padded by
    the transform itself (irfft's n, irfftn's s); in 2D its rows enter a
    zeroed (2M, N+1) buffer first, so the column pass runs on N+1 columns."""
    if isinstance(grid, _Cube) and grid.d == 2:
        spec = _widen(grid, half, grid.dealias_N + 1, grid.half_phase_conj)
    else:
        spec = half * grid.half_phase_conj
    if grid.d == 1:
        return np.fft.irfft(spec, n=grid.two_m, norm="forward")
    return np.fft.irfftn(spec, s=grid.shape, axes=(-2, -1), norm="forward")


def _zero_outside_cube(x: StateField) -> bool:
    """Whether a state (or stack) on the half spectrum is zero outside the cube."""
    grid, n = x.grid, x.grid.dealias_N
    beyond = [x.half[..., n + 1 :]]  # last axis: modes N+1..M
    if grid.d == 2:  # leading axis in FFT order: N < |k| rows
        beyond.append(x.half[..., n + 1 : grid.two_m - n, :])
    return not any(np.any(part) for part in beyond)


def to_cube(x: StateField) -> StateField:
    """The state (or stack) on its grid's cube (Grid.cube), the layout of
    an RK4 march, with its samples when it has sampled and is zero outside
    the cube (every state evolve makes is)."""
    grid = x.grid
    cube = StateField(grid.cube, grid.crop(x.half))
    return _with_samples_of(x, cube) if _zero_outside_cube(x) else cube


def to_half(x: StateField) -> StateField:
    """A state (or stack) on a cube back on the half spectrum of its grid,
    zeros outside the cube, with its samples when it has sampled."""
    grid = x.grid
    return _with_samples_of(x, StateField(grid.full, _widen(grid, x.half, grid.M + 1, None)))


def _with_samples_of(x: StateField, st: StateField) -> StateField:
    """st, the same field as x, with the samples of x when it has sampled."""
    if "samples" in x.__dict__:  # where cached_property keeps them
        st.__dict__["samples"] = x.__dict__["samples"]
    return st


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
    return StateField(grid, x.half * grid.diff_mult[axis])


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
    if spec.kind == "sharp":
        return reduce(np.logical_and, [np.abs(km) <= spec.N for km in grid.kmesh]).astype(np.float64)
    mult = 1.0
    for km in grid.kmesh:
        mult = mult * smooth_ramp(km / spec.N)
    return mult


def apply_filter(x: StateField, spec: FilterSpec):
    return StateField(x.grid, x.half * filter_multiplier(spec, x.grid))


def dealias(x: StateField):
    """Zero the top third of modes: the sharp filter at the grid's cutoff
    dealias_N.  A state already zero there is returned as it is, with its
    samples: the product would give the same bits."""
    if _zero_outside_cube(x):
        return x
    return StateField(x.grid, x.half * x.grid.dealias_mask)


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
        w = w * (1.0 + grid.k_sq) ** s
    h = x.half
    total = x.per_state(np.add, w * (h.real**2 + h.imag**2))
    return np.sqrt(total * (2.0 * np.pi) ** grid.d)


def l2_inner(a: StateField, b: StateField) -> float:
    """L^2 inner product on the torus, summed over components (Parseval on the half spectrum)."""
    if a.grid != b.grid:
        raise ValueError("inner product requires a shared grid")
    if a.half.shape != b.half.shape:
        raise ValueError("inner product requires matching component counts")
    total = np.sum(a.grid.half_multiplicity * (a.half * np.conj(b.half)).real)
    return float(total * (2.0 * np.pi) ** a.grid.d)


def linf(x: StateField) -> float:
    """Max absolute value over collocation points and components (of each state of a stack)."""
    return x.per_state(np.maximum, np.abs(to_samples(x)))


def max_mode_support(x: StateField) -> int:
    """Largest max_j|k_j| carrying a coefficient above 1e-13 of the largest."""
    mag = np.abs(x.half).max(axis=0)
    active = mag > 1e-13 * mag.max()  # none for a zero state
    return int(np.max(x.grid.k_inf[active], initial=0))


def coefficients_at(x: StateField, ks) -> np.ndarray:
    """Coefficients c_k, shape (n, len(ks), ...), at the modes k in ks^d (ks
    integers in -M+1..M).  A mode with a negative last component is the
    conjugate of the stored -k, plus 0.0 so that an exact +0.0 imaginary
    part does not become -0.0."""
    grid = x.grid
    ks = np.asarray(ks, dtype=np.int64)
    if not np.isin(ks, grid.modes).all():
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
    if fine == grid:
        return x
    m = grid.M
    # A mode with a component at the coarse Nyquist +M stands for +M and -M
    # together; on the fine grid these are distinct, so split it evenly.
    block = x.half.copy()
    block[:, grid.k_inf == m] *= 0.5
    tgt = np.zeros((x.n,) + fine.shape[:-1] + (fine.M + 1,), dtype=np.complex128)
    tgt[(slice(None), *[np.mod(grid.modes, fine.two_m)] * (grid.d - 1), slice(m + 1))] = block
    if grid.d == 2:  # row -M: mirrors conj(0.5 c_(M,-k2)), k2 = 0..M-1, with c_(M,-k2) = conj(stored) for k2 > 0
        tgt[:, fine.two_m - m, :m] = block[:, m, :m]
        tgt[:, fine.two_m - m, 0] = np.conj(block[:, m, 0])
    return StateField(fine, tgt)
