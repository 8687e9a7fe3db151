"""Property tests over random states: transform round trips, the inverse
transform against the complex-FFT formula, dealiased products against the
truncated convolution, and the reality and band support of every scheme's
right-hand side."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specwave.semidisc import SCHEME_KINDS, SchemeSpec, rhs
from specwave.spectral import dealias, make_grid, state_from_samples, to_samples

from oracles import (
    coeffs_from_dict,
    convolve_dicts,
    dict_from_coeffs,
    from_coeffs,
    full_wavenumbers,
    phase_conj,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    saint_venant_2d_standard,
    truncate_dict,
)

FEW = settings(max_examples=15, deadline=None)
grids = st.tuples(st.sampled_from([1, 2]), st.sampled_from([4, 6, 8, 16]))
seeds = st.integers(0, 2**32 - 1)


def reflected(c, d):
    """c at -k for every k, in FFT index order."""
    idx = (-np.arange(c.shape[-1])) % c.shape[-1]
    return c[..., idx] if d == 1 else c[..., idx[:, None], idx]


def random_hermitian(rng, grid, n, support=None):
    c = rng.normal(size=(n,) + grid.shape) + 1j * rng.normal(size=(n,) + grid.shape)
    if support is not None:
        c = c * (full_wavenumbers(grid).k_inf <= support)
    return from_coeffs(grid, 0.5 * (c + np.conj(reflected(c, grid.d))))


@FEW
@given(grids, st.integers(1, 3), seeds)
def test_samples_round_trip(dm, n, seed):
    g = make_grid(*dm)
    values = np.random.default_rng(seed).normal(size=(n,) + g.shape)
    back = to_samples(state_from_samples(g, values))
    assert np.max(np.abs(back - values)) <= 1e-13 * np.max(np.abs(values))


@FEW
@given(grids, st.integers(1, 3), seeds)
def test_to_samples_matches_complex_formula(dm, n, seed):
    g = make_grid(*dm)
    state = random_hermitian(np.random.default_rng(seed), g, n)
    axes = tuple(range(-g.d, 0))
    oracle = np.real(np.fft.ifftn(state.coeffs * phase_conj(g), axes=axes)) * g.npoints
    assert np.max(np.abs(to_samples(state) - oracle)) <= 1e-13 * max(1.0, np.max(np.abs(oracle)))


@FEW
@given(grids, seeds)
def test_dealiased_product_is_truncated_convolution(dm, seed):
    g = make_grid(*dm)
    n = g.dealias_N
    rng = np.random.default_rng(seed)
    a, b = (random_hermitian(rng, g, 1, n) for _ in range(2))
    prod = dealias(state_from_samples(g, to_samples(a) * to_samples(b)))
    exact = convolve_dicts(dict_from_coeffs(a.coeffs[0], g.modes), dict_from_coeffs(b.coeffs[0], g.modes))
    expected = coeffs_from_dict(truncate_dict(exact, n), g.modes, g.d)
    assert np.max(np.abs(prod.coeffs - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))


@FEW
@given(
    st.sampled_from([(saint_venant_1d, 16), (saint_venant_2d_standard, 8), (saint_venant_2d_hamiltonian, 8)]),
    st.sampled_from(SCHEME_KINDS),
    seeds,
)
def test_rhs_is_real_and_band_limited(case, kind, seed):
    make_sys, M = case
    sysd = make_sys()
    g = make_grid(sysd.d, M)
    state = random_hermitian(np.random.default_rng(seed), g, sysd.n, g.dealias_N) * 0.1
    out = rhs(SchemeSpec(kind), sysd, state).coeffs
    scale = np.max(np.abs(out))
    assert np.max(np.abs(out - np.conj(reflected(out, g.d)))) <= 1e-14 * scale
    assert np.all(out[:, full_wavenumbers(g).k_inf > g.dealias_N] == 0.0)
