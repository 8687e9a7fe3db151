"""Initial-data catalog formulas and regularity."""

import numpy as np
import pytest

from specwave.initial import INITIAL_NAMES, build_initial
from specwave.spectral import make_grid, sobolev_norm, state_from_samples, to_samples

from oracles import from_coeffs, full_wavenumbers, mesh


def test_catalog_names():
    assert set(INITIAL_NAMES) == {"init1", "init2", "init_zero_depth", "init2D"}


def test_init1_at_origin():
    g = make_grid(1, 64)
    st = build_initial("init1", {"alpha": 1.5}, g)
    samples = to_samples(st)
    i0 = np.argmin(np.abs(g.axis_points))
    assert abs(g.axis_points[i0]) < 1e-12
    assert np.isclose(samples[0][i0], 0.5, atol=1e-12)
    assert np.max(np.abs(samples[1])) < 1e-14


def test_init1_alpha_validation():
    g = make_grid(1, 16)
    with pytest.raises(ValueError):
        build_initial("init1", {"alpha": -1.0}, g)


def test_unknown_name_lists_catalog():
    g = make_grid(1, 16)
    with pytest.raises(ValueError, match="catalog"):
        build_initial("no-such", {}, g)


def test_unused_params_rejected():
    g = make_grid(1, 16)
    with pytest.raises(ValueError, match="unused"):
        build_initial("init2", {"alpha": 1.0}, g)


def test_init2_high_mode():
    g = make_grid(1, 64)
    n = g.dealias_N
    st = build_initial("init2", {}, g)
    x = g.axis_points
    expected_u = np.sin(x) + np.sin(n * x) / n**2
    assert np.max(np.abs(to_samples(st)[1] - expected_u)) < 1e-13
    assert np.max(np.abs(to_samples(st)[0] + 0.5 * np.cos(x))) < 1e-13


def test_init_zero_depth_touches_zero():
    g = make_grid(1, 128)
    st = build_initial("init_zero_depth", {}, g)
    depth = 1.0 + to_samples(st)[0]
    assert np.min(depth) < 1e-6  # 1 - cos(x) vanishes at x = 0


def test_init2d_formulas():
    g = make_grid(2, 16)
    n = g.dealias_N
    params = dict(h0=0.5, u_l=2, v_l=-2, u_h=1, v_h=-1, s=2)
    st = build_initial("init2D", params, g)
    x, y = mesh(g)
    eta = (0.5 - 1.0) * np.cos(x) * np.cos(y)
    u = 2 * np.sin(x) * np.cos(y) + np.sin(n * x) * np.cos(n * y) / n**2
    v = -2 * np.cos(x) * np.sin(y) - np.cos(n * x) * np.sin(n * y) / n**2
    samples = to_samples(st)
    assert np.max(np.abs(samples[0] - eta)) < 1e-13
    assert np.max(np.abs(samples[1] - u)) < 1e-13
    assert np.max(np.abs(samples[2] - v)) < 1e-13


@pytest.mark.parametrize("M", [16, 128])
def test_init2d_separable_matches_full_mesh(M):
    # the factors on the axis points, broadcast, give the full mesh formula's bits
    g = make_grid(2, M)
    n = g.dealias_N
    params = dict(h0=0.7, u_l=0.3, v_l=-0.2, u_h=1.5, v_h=-0.5, s=1.5)
    x, y = mesh(g)
    eta = (0.7 - 1.0) * np.cos(x) * np.cos(y)
    u = 0.3 * np.sin(x) * np.cos(y) + 1.5 * np.sin(n * x) * np.cos(n * y) / n**1.5
    v = -0.2 * np.cos(x) * np.sin(y) + -0.5 * np.cos(n * x) * np.sin(n * y) / n**1.5
    want = state_from_samples(g, np.stack([eta, u, v]))
    got = build_initial("init2D", params, g)
    assert to_samples(got).tobytes() == to_samples(want).tobytes()
    assert got.half.tobytes() == want.half.tobytes()


def test_init2d_requires_2d_grid():
    with pytest.raises(ValueError):
        build_initial("init2D", {}, make_grid(1, 16))
    with pytest.raises(ValueError):
        build_initial("init1", {}, make_grid(2, 16))


def test_init1_projection_slope():
    # tail of the heap data decays ~ N^-2 in L2 and ~ N^-1 in H1
    g = make_grid(1, 2048)
    st = build_initial("init1", {"alpha": 1.5}, g)
    ns = [64, 128, 256, 512]
    for s_norm, slope_expected in [(0.0, -2.0), (1.0, -1.0)]:
        errs = []
        for n in ns:
            tail = st.coeffs * (np.abs(full_wavenumbers(g).kmesh[0]) > n)
            errs.append(
                sobolev_norm(from_coeffs(g, tail), s_norm) / sobolev_norm(st, s_norm)
            )
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope - slope_expected) < 0.25
