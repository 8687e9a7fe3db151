"""Spectral substrate: grids, transforms, filters, norms and their invariants."""

import numpy as np
import pytest
import scipy.fft

from specwave.spectral import (
    FilterSpec,
    StateField,
    apply_filter,
    coefficients_at,
    dealias,
    differentiate,
    embed,
    filter_multiplier,
    half_to_samples,
    hermitian_symmetrize,
    l2_inner,
    make_grid,
    max_mode_support,
    samples_to_cube,
    samples_to_half,
    smooth_ramp,
    sobolev_norm,
    state_from_samples,
    to_cube,
    to_half,
    to_samples,
)

from oracles import (
    apply_lambda,
    coeffs_from_dict,
    convolve_dicts,
    count_transforms,
    dict_from_coeffs,
    embed_full,
    filter_symbol,
    from_coeffs,
    from_function,
    full_wavenumbers,
    l2_inner_full,
    mesh,
    naive_dft,
    naive_inverse,
    phase_conj,
    quadrature_inner,
    random_band_limited,
    sobolev_from_dict,
    sobolev_norm_full,
    truncate_dict,
)


class TestGrid:
    def test_make_grid_points(self):
        g = make_grid(1, 4)
        assert g.two_m == 8
        assert np.isclose(g.axis_points[0], -3 * np.pi / 4)
        assert np.isclose(g.axis_points[-1], np.pi)
        assert np.allclose(np.diff(g.axis_points), np.pi / 4)

    def test_2d_grid_point_count(self):
        g = make_grid(2, 8)
        assert g.npoints == 256
        assert g.shape == (16, 16)

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            make_grid(3, 8)
        with pytest.raises(ValueError):
            make_grid(1, 3)

    def test_mode_set(self):
        g = make_grid(1, 8)
        assert sorted(g.modes) == list(range(-7, 9))

    def test_dealias_cutoff(self):
        assert make_grid(1, 512).dealias_N == 341
        assert make_grid(1, 8).dealias_N == 5
        # 3 | 2M: cutoff steps back one so quadratic products stay exact
        assert make_grid(1, 12).dealias_N == 7

    @pytest.mark.parametrize("d, m", [(1, 8), (1, 1024), (2, 5), (2, 8), (2, 128)])
    def test_wavenumber_arrays_live_on_the_half_spectrum(self, d, m):
        g = make_grid(d, m)
        half = (2 * m,) * (d - 1) + (m + 1,)
        assert len(g.kmesh) == len(g.diff_mult) == d
        arrays = {"k_inf": g.k_inf, "k_sq": g.k_sq, "dealias_mask": g.dealias_mask,
                  "half_phase": g.half_phase, "half_multiplicity": g.half_multiplicity}
        arrays.update({f"kmesh[{a}]": km for a, km in enumerate(g.kmesh)})
        arrays.update({f"diff_mult[{a}]": dk for a, dk in enumerate(g.diff_mult)})
        for name, arr in arrays.items():
            assert np.broadcast_shapes(arr.shape, half) == half, name
            assert arr.size <= np.prod(half), name

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [4, 5, 8, 128])
    def test_diff_mult_matches_per_axis_construction(self, d, m):
        g = make_grid(d, m)
        modes = np.r_[0 : m + 1, -m + 1 : 0]  # FFT order, Nyquist slot as +M
        for a in range(d):
            dk = 1j * modes.astype(np.float64)
            dk[m] = 0.0
            shape = [1] * d
            shape[a] = 2 * m
            expected = dk.reshape(shape)[..., : m + 1]
            got = g.diff_mult[a]
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got.real), np.signbit(expected.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(expected.imag))


class TestTransforms:
    def test_constant_field(self):
        g = make_grid(1, 8)
        f = from_function(g, lambda x: np.ones_like(x))
        assert np.isclose(f.coeffs[0, 0], 1.0)
        assert np.max(np.abs(f.coeffs[0, 1:])) < 1e-14

    def test_single_mode(self):
        g = make_grid(1, 8)
        f = from_function(g, lambda x: np.sin(3 * x))
        assert np.allclose(f.coeffs[0, 3], -0.5j, atol=1e-14)
        assert np.allclose(f.coeffs[0, -3], 0.5j, atol=1e-14)

    def test_gaussian_matches_direct_sum(self):
        g = make_grid(1, 64)
        f = from_function(g, lambda x: np.exp(-4 * x**2))
        oracle = naive_dft(to_samples(f)[0], g.axis_points, g.modes)
        scale = max(abs(v) for v in oracle.values())
        for idx, k in enumerate(g.modes):
            assert abs(f.coeffs[0, idx] - oracle[int(k)]) < 1e-12 * scale

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        g = make_grid(1, 16)
        vals = rng.normal(size=g.shape)
        f = state_from_samples(g, vals[None])
        assert np.max(np.abs(to_samples(f) - vals)) < 1e-12 * np.max(np.abs(vals))

    def test_roundtrip_2d(self):
        rng = np.random.default_rng(1)
        g = make_grid(2, 8)
        vals = rng.normal(size=g.shape)
        f = state_from_samples(g, vals[None])
        assert np.max(np.abs(to_samples(f) - vals)) < 1e-12

    def test_1d_transforms_match_nd_wrappers_bit_for_bit(self):
        # 1D grids call rfft/irfft; the n-dimensional wrappers give the same bits
        g = make_grid(1, 16)
        vals = np.random.default_rng(4).normal(size=(2,) + g.shape)
        half = samples_to_half(g, vals)
        assert np.array_equal(half, np.fft.rfftn(vals, axes=(-1,), norm="forward") * g.half_phase)
        back = np.fft.irfftn(half * g.half_phase_conj, s=g.shape, axes=(-1,), norm="forward")
        assert np.array_equal(half_to_samples(g, half), back)

    @pytest.mark.parametrize("m", [8, 16, 64, 128])
    @pytest.mark.parametrize("n", [1, 3])
    def test_2d_transforms_match_scipy_fft_bit_for_bit(self, n, m):
        # 2D grids call numpy.fft.rfftn (into a preallocated output) and irfftn;
        # scipy.fft, which they replaced, gives the same bits.  Both wrap a
        # pocketfft of their own; the identity was established on numpy 2.4.6
        # with scipy 1.17.1, so a red test after an upgrade of either means the
        # two builds diverged, and the outputs are then no longer those of the
        # scipy-based program
        g = make_grid(2, m)
        rng = np.random.default_rng(10 * m + n)
        vals = rng.normal(size=(n,) + g.shape)
        half = samples_to_half(g, vals)
        assert np.array_equal(half, scipy.fft.rfftn(vals, axes=(-2, -1), norm="forward") * g.half_phase)
        # the inverse reads columns 0 and M through their Hermitian part, so try non-Hermitian ones too
        for c in (half, rng.normal(size=half.shape) + 1j * rng.normal(size=half.shape)):
            back = scipy.fft.irfftn(c * g.half_phase_conj, s=g.shape, axes=(-2, -1), norm="forward")
            assert np.array_equal(half_to_samples(g, c), back)
        # each forward call returns its own writable array: no two states share a buffer
        again = samples_to_half(g, vals)
        assert np.array_equal(again, half) and not np.shares_memory(again, half)
        assert half.flags.writeable and again.flags.writeable

    def test_inverse_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        g = make_grid(1, 8)
        spec = random_band_limited(rng, g.two_m, 5)
        f = state_from_samples(g, naive_inverse(spec, g.axis_points)[None])
        recon = naive_inverse(dict_from_coeffs(f.coeffs[0], g.modes), g.axis_points)
        assert np.max(np.abs(to_samples(f) - recon)) < 1e-12

    def test_nonfinite_rejected(self):
        g = make_grid(1, 8)
        bad = np.full(g.shape, np.nan)
        with pytest.raises(ValueError):
            state_from_samples(g, bad[None])

    def test_hermitian_symmetry_enforced(self):
        rng = np.random.default_rng(3)
        g = make_grid(1, 8)
        f = state_from_samples(g, rng.normal(size=(1,) + g.shape))
        c = f.coeffs[0]
        for idx, k in enumerate(g.modes):
            if abs(k) < g.M:
                assert np.isclose(c[idx], np.conj(c[(-idx) % g.two_m]), atol=1e-14)


class TestDifferentiate:
    def test_sin3x(self):
        g = make_grid(1, 8)
        f = from_function(g, lambda x: np.sin(3 * x))
        d = differentiate(f, 0)
        assert np.max(np.abs(to_samples(d) - 3 * np.cos(3 * mesh(g)[0]))) < 1e-12

    def test_constant_derivative_zero(self):
        g = make_grid(1, 8)
        f = from_function(g, lambda x: np.ones_like(x))
        assert np.max(np.abs(differentiate(f, 0).coeffs)) < 1e-14

    def test_2d_cross_derivative(self):
        g = make_grid(2, 16)
        f = from_function(g, lambda x, y: np.sin(2 * x) * np.cos(5 * y))
        d = differentiate(f, 1)
        exact = -5 * np.sin(2 * mesh(g)[0]) * np.sin(5 * mesh(g)[1])
        assert np.max(np.abs(to_samples(d) - exact)) < 1e-12

    def test_axis_out_of_range(self):
        g = make_grid(1, 8)
        f = from_function(g, np.sin)
        with pytest.raises(ValueError):
            differentiate(f, 1)

    def test_nyquist_plane_zeroed(self):
        g = make_grid(1, 8)
        c = np.zeros(g.shape, dtype=complex)
        c[g.M] = 1.0
        d = differentiate(from_coeffs(g, c[None]), 0)
        assert np.max(np.abs(d.coeffs)) == 0.0


class TestFilters:
    def test_sharp_keeps_inside(self):
        g = make_grid(1, 8)
        f = from_function(g, lambda x: np.sin(3 * x))
        out = apply_filter(f, FilterSpec("sharp", 4))
        assert np.allclose(out.coeffs, f.coeffs)

    def test_smooth_scales_by_ramp(self):
        g = make_grid(1, 8)
        f = from_function(g, lambda x: np.sin(3 * x))
        out = apply_filter(f, FilterSpec("smooth", 4))
        assert np.isclose(abs(out.coeffs[0, 3]) / abs(f.coeffs[0, 3]), 0.25)

    def test_symbol_values(self):
        smooth = FilterSpec("smooth", 8)
        assert filter_symbol(smooth, (4,)) == 1.0
        assert filter_symbol(smooth, (3, -4)) == 1.0
        assert filter_symbol(smooth, (8, 0)) == 0.0
        assert filter_symbol(smooth, (1, 9)) == 0.0
        sharp = FilterSpec("sharp", 8)
        assert filter_symbol(sharp, (8, 0)) == 1.0
        assert filter_symbol(sharp, (9, 0)) == 0.0

    def test_symbol_even(self):
        spec = FilterSpec("smooth", 7)
        for k in range(-10, 11):
            assert filter_symbol(spec, (k,)) == filter_symbol(spec, (-k,))

    def test_cutoff_wider_than_grid_rejected(self):
        g = make_grid(1, 8)
        f = from_function(g, np.sin)
        with pytest.raises(ValueError):
            apply_filter(f, FilterSpec("sharp", 9))

    def test_sharp_idempotent(self):
        rng = np.random.default_rng(4)
        g = make_grid(1, 16)
        f = state_from_samples(g, rng.normal(size=(1,) + g.shape))
        spec = FilterSpec("sharp", 9)
        once = apply_filter(f, spec)
        twice = apply_filter(once, spec)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_smooth_not_idempotent_but_supported_inside_sharp(self):
        rng = np.random.default_rng(5)
        g = make_grid(1, 16)
        f = state_from_samples(g, rng.normal(size=(1,) + g.shape))
        n = 10
        smooth = apply_filter(f, FilterSpec("smooth", n))
        # S_N o S_N != S_N in general
        twice = apply_filter(smooth, FilterSpec("smooth", n))
        assert not np.allclose(twice.coeffs, smooth.coeffs)
        # (Id - P_N) o S_N = 0 exactly
        sharp = apply_filter(smooth, FilterSpec("sharp", n))
        assert np.array_equal(sharp.coeffs, smooth.coeffs)

    def test_halfband_annihilates_smooth_complement(self):
        # S_{N/2} o (Id - S_N) = 0 exactly for the tensor profile
        rng = np.random.default_rng(6)
        g = make_grid(2, 8)
        f = state_from_samples(g, rng.normal(size=(1,) + g.shape))
        n = 8
        comp = f.half - apply_filter(f, FilterSpec("smooth", n)).half
        killed = comp * filter_multiplier(FilterSpec("smooth", n // 2), g)
        assert np.max(np.abs(killed)) == 0.0

    def test_dealias_matches_sharp_two_thirds(self):
        rng = np.random.default_rng(7)
        g = make_grid(1, 16)
        f = state_from_samples(g, rng.normal(size=(1,) + g.shape))
        manual = apply_filter(f, FilterSpec("sharp", 10))
        assert np.array_equal(dealias(f).coeffs, manual.coeffs)

    def test_dealias_idempotent(self):
        g = make_grid(1, 12)
        f = from_function(g, lambda x: np.sin(7 * x) + np.cos(3 * x))
        once = dealias(f)
        assert np.array_equal(dealias(once).coeffs, once.coeffs)
        assert np.allclose(once.coeffs, f.coeffs, atol=1e-14)

    @pytest.mark.parametrize("d, M", [(1, 16), (2, 8)])
    def test_dealias_returns_a_projected_state_as_it_is(self, d, M):
        # the projection of projected data is the data, samples included;
        # a coefficient beyond the cutoff on either axis is projected away
        g = make_grid(d, M)
        once = dealias(state_from_samples(g, np.random.default_rng(d).normal(size=(2,) + g.shape)))
        once.samples
        assert dealias(once) is once
        for beyond in ((0,) * (d - 1) + (g.dealias_N + 1,), (g.dealias_N + 1,) + (0,) * (d - 1)):
            half = once.half.copy()
            half[(1, *beyond)] = 1.0
            projected = dealias(StateField(g, half))
            assert projected.half.tobytes() == (half * g.dealias_mask).tobytes()
            assert projected.half[(1, *beyond)] == 0.0

    def test_ramp_profile_values(self):
        assert smooth_ramp(0.5) == 1.0
        assert smooth_ramp(0.75) == 0.25
        assert smooth_ramp(1.0) == 0.0
        assert smooth_ramp(-0.75) == 0.25


class TestNorms:
    def test_sin_mode_l2(self):
        g = make_grid(1, 8)
        st = from_function(g, lambda x: np.sin(4 * x))
        assert np.isclose(sobolev_norm(st, 0), np.sqrt(np.pi))

    def test_sin_mode_hs(self):
        g = make_grid(1, 8)
        for k in (1, 3, 5):
            st = from_function(g, lambda x, k=k: np.sin(k * x))
            for s in (0.5, 1, 2):
                assert np.isclose(sobolev_norm(st, s), (1 + k * k) ** (s / 2) * np.sqrt(np.pi))

    def test_multimode_matches_term_sum(self):
        rng = np.random.default_rng(8)
        g = make_grid(1, 16)
        spec = random_band_limited(rng, g.two_m, 9)
        st = state_from_samples(g, naive_inverse(spec, g.axis_points)[None])
        expected = sobolev_from_dict(dict_from_coeffs(st.coeffs[0], g.modes), 1.5, 1)
        assert np.isclose(sobolev_norm(st, 1.5), expected, rtol=1e-12)

    def test_negative_index_rejected(self):
        g = make_grid(1, 8)
        st = from_function(g, np.sin)
        with pytest.raises(ValueError):
            sobolev_norm(st, -1)

    def test_parseval(self):
        rng = np.random.default_rng(9)
        for d, m in [(1, 16), (2, 8)]:
            g = make_grid(d, m)
            vals = rng.normal(size=(2,) + g.shape)
            st = state_from_samples(g, vals)
            direct = np.sqrt(np.sum(vals**2) * (2 * np.pi) ** d / g.npoints)
            assert np.isclose(sobolev_norm(st, 0), direct, rtol=1e-12)

    @pytest.mark.parametrize("s", [0, 1, 2.5])
    @pytest.mark.parametrize("d, m", [(1, 16), (2, 8)])
    def test_half_spectrum_sum_matches_full(self, d, m, s):
        g = make_grid(d, m)
        rng = np.random.default_rng(70 + d)
        real = state_from_samples(g, rng.normal(size=(2,) + g.shape))
        shape = real.half.shape
        # random halves: in 2D the columns 0 and M are not Hermitian
        raw = StateField(g, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        if d == 2:
            for col in (0, m):
                assert not np.allclose(raw.half[:, 1:, col], np.conj(raw.half[:, :0:-1, col]))
        for st in (real, raw):
            full = sobolev_norm_full(st, s)
            assert abs(sobolev_norm(st, s) - full) <= 1e-14 * full

    def test_inner_product_orthogonality(self):
        g = make_grid(1, 8)
        a = from_function(g, np.sin)
        b = from_function(g, np.cos)
        assert abs(l2_inner(a, b)) < 1e-14
        assert np.isclose(l2_inner(a, a), np.pi)

    def test_inner_product_matches_quadrature(self):
        rng = np.random.default_rng(10)
        g = make_grid(1, 8)
        fa = rng.normal(size=g.shape)
        fb = rng.normal(size=g.shape)
        a = state_from_samples(g, fa[None])
        b = state_from_samples(g, fb[None])
        assert np.isclose(l2_inner(a, b), quadrature_inner(fa, fb, 1), rtol=1e-12)

    def test_inner_product_grid_mismatch(self):
        a = from_function(make_grid(1, 8), np.sin)
        b = from_function(make_grid(1, 16), np.sin)
        with pytest.raises(ValueError):
            l2_inner(a, b)


class TestDealiasedProducts:
    """Pointwise products plus top-third zeroing equal exact truncated convolution."""

    @pytest.mark.parametrize("m", [8, 12, 16])
    def test_quadratic_products_1d(self, m):
        rng = np.random.default_rng(100 + m)
        g = make_grid(1, m)
        n = g.dealias_N
        for _ in range(20):
            a = random_band_limited(rng, g.two_m, n)
            b = random_band_limited(rng, g.two_m, n)
            fa = state_from_samples(g, naive_inverse(a, g.axis_points)[None])
            fb = state_from_samples(g, naive_inverse(b, g.axis_points)[None])
            prod = dealias(state_from_samples(g, to_samples(fa) * to_samples(fb)))
            expected = coeffs_from_dict(truncate_dict(convolve_dicts(a, b), n), g.modes, 1)
            scale = max(np.max(np.abs(expected)), 1.0)
            assert np.max(np.abs(prod.coeffs - expected)) < 1e-11 * scale

    def test_quadratic_products_2d(self):
        rng = np.random.default_rng(200)
        g = make_grid(2, 6)
        n = g.dealias_N
        xs = mesh(g)[0].ravel() + 1j * 0

        x, y = mesh(g)

        def sample_2d(spec):
            out = np.zeros(g.shape, dtype=complex)
            for (k1, k2), v in spec.items():
                out += v * np.exp(1j * (k1 * x + k2 * y))
            return out.real

        for _ in range(5):
            a = random_band_limited(rng, g.two_m, n, ndim=2)
            b = random_band_limited(rng, g.two_m, n, ndim=2)
            prod = dealias(state_from_samples(g, (sample_2d(a) * sample_2d(b))[None]))
            expected = coeffs_from_dict(truncate_dict(convolve_dicts(a, b), n), g.modes, 2)
            scale = max(np.max(np.abs(expected)), 1.0)
            assert np.max(np.abs(prod.coeffs - expected)) < 1e-11 * scale

    def test_squared_edge_mode_aliases_away(self):
        # sin(Nx)^2 on 2M = 3N points: the 2N mode folds onto -N, outside
        # the retained band, and is removed; the constant 1/2 survives
        n = 8
        g = make_grid(1, 12)
        f = from_function(g, lambda x: np.sin(n * x))
        sq = dealias(state_from_samples(g, to_samples(f) ** 2))
        assert np.isclose(sq.coeffs[0, 0].real, 0.5)
        rest = sq.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-13


class TestProjectionDecay:
    def test_projection_error_rate(self):
        # coefficients ~ <k>^(-s-1/2-eps): measured H^r tail decays like N^(r-s)
        s, eps = 2.0, 0.05
        g = make_grid(1, 2048)
        c = np.zeros(g.shape, dtype=complex)
        for k in range(1, g.M):
            amp = (1.0 + k * k) ** (-(s + 0.5 + eps) / 2.0)
            c[k] = -0.5j * amp
            c[-k] = 0.5j * amp
        st = from_coeffs(g, c[None])
        ns = [32, 64, 128, 256, 512]
        for r in (0.0, 1.0):
            ratios = []
            for n in ns:
                tail = st.coeffs * (np.abs(full_wavenumbers(g).kmesh[0]) > n)
                e = sobolev_norm(from_coeffs(g, tail), r) / sobolev_norm(st, s)
                ratios.append(e * n ** (s - r))
            # compensated error varies by less than a factor 3 over the range
            assert max(ratios) / min(ratios) < 3.0


class TestCommutatorScaling:
    def test_smooth_commutator_bounded(self):
        # |[S_N, f] g|_{H^s} stays bounded (no growth) as N doubles
        g = make_grid(1, 256)
        f_samp = np.exp(np.cos(mesh(g)[0]))
        g_samp = np.sin(mesh(g)[0]) * np.exp(np.sin(mesh(g)[0]))
        vals = self._commutator_norms(g, f_samp, g_samp, "smooth")
        assert max(vals) <= 2.0 * vals[0]

    def test_sharp_commutator_recorded(self):
        g = make_grid(1, 256)
        f_samp = np.exp(np.cos(mesh(g)[0]))
        g_samp = np.sin(mesh(g)[0]) * np.exp(np.sin(mesh(g)[0]))
        vals = self._commutator_norms(g, f_samp, g_samp, "sharp")
        assert all(np.isfinite(v) for v in vals)

    @staticmethod
    def _commutator_norms(g, f_samp, g_samp, kind):
        s = 2.0
        out = []
        for n in (8, 16, 32, 64, 128):
            spec = FilterSpec(kind, n)
            fg = state_from_samples(g, (f_samp * g_samp)[None])
            sn_fg = apply_filter(fg, spec)
            sn_g = apply_filter(state_from_samples(g, g_samp[None]), spec)
            f_sng = state_from_samples(g, f_samp * to_samples(sn_g))
            comm = state_from_samples(g, to_samples(sn_fg) - to_samples(f_sng))
            out.append(sobolev_norm(comm, s))
        return out


class TestCachedSamples:
    def test_one_read_only_array_per_field(self):
        g = make_grid(2, 8)
        st = state_from_samples(g, np.random.default_rng(3).normal(size=(3,) + g.shape))
        for field in (st, st.component(1)):
            first = to_samples(field)
            assert to_samples(field) is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[..., 0, 0] = 1.0

    def test_operations_build_fields_with_their_own_samples(self):
        g = make_grid(1, 16)
        st = from_function(g, np.sin)
        base = to_samples(st)
        doubled = to_samples(st * 2.0)
        assert doubled is not base
        assert np.max(np.abs(doubled - 2.0 * base)) < 1e-15
        assert np.max(np.abs(to_samples(differentiate(st, 0))[0] - np.cos(mesh(g)[0]))) < 1e-13


    def test_view_carries_cached_samples(self, monkeypatch):
        g = make_grid(2, 8)
        st = state_from_samples(g, np.random.default_rng(4).normal(size=(3,) + g.shape))
        stack = st.view(lambda a: np.broadcast_to(a, (2,) + a.shape))
        assert "samples" not in st.__dict__ and "samples" not in stack.__dict__
        first = to_samples(st)
        counts = count_transforms(monkeypatch, g.npoints)
        stack = st.view(lambda a: np.broadcast_to(a, (2,) + a.shape))
        assert stack.half.shape == (2, 3, 16, 9) and np.shares_memory(stack.half, st.half)
        assert np.shares_memory(to_samples(stack), first) and to_samples(stack).shape == (2,) + first.shape
        assert to_samples(stack.view(lambda a: a[1])).tobytes() == first.tobytes()
        assert counts["inverse"] == 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_variables_put_the_component_axis_first(self, d):
        g = make_grid(d, 8)
        rng = np.random.default_rng(5)
        one = state_from_samples(g, rng.normal(size=(2,) + g.shape))
        assert one.variables.shape == one.samples.shape and np.shares_memory(one.variables, one.samples)
        stack = StateField(g, np.stack([one.half, 2.0 * one.half, -one.half]))
        assert stack.variables.shape == (2, 3) + g.shape and np.shares_memory(stack.variables, stack.samples)
        for i in range(2):
            assert np.array_equal(stack.variables[i], stack.samples[:, i])
            assert stack.component(i).half.shape == (3, 1) + g.shape[:-1] + (g.M + 1,)
            assert np.array_equal(stack.component(i).half[:, 0], stack.half[:, i])


CUBE_GRIDS = [(1, 16), (1, 4), (2, 8), (2, 9)]  # 2M = 18: 3 | 2M, so N = 5, not 6


def projected_state(d: int, m: int, seed: int, lead=(2,)) -> StateField:
    """A state (or stack) as evolve makes them: random samples, projected."""
    g = make_grid(d, m)
    return dealias(StateField(g, samples_to_half(g, np.random.default_rng(seed).normal(size=lead + g.shape))))


class TestRetainedCube:
    """The march's layout: the cube |k_j| <= N of the half, which every
    transform reads and writes with the bits of the half (compared by
    tobytes, which tells -0.0 from +0.0)."""

    @pytest.mark.parametrize("d, m", CUBE_GRIDS)
    def test_crop_keeps_the_retained_modes_in_fft_order(self, d, m):
        g = make_grid(d, m)
        n = g.dealias_N
        assert g.crop(g.kmesh[-1]).ravel().tolist() == list(range(n + 1))
        if d == 2:
            assert g.crop(g.kmesh[0]).ravel().tolist() == list(range(n + 1)) + list(range(-n, 0))
        st = projected_state(d, m, 70 + d)
        cube = to_cube(st)
        assert cube.on_cube and not st.on_cube
        assert cube.half.shape == (2,) + (2 * n + 1,) * (d - 1) + (n + 1,) and cube.half.flags.c_contiguous
        assert np.count_nonzero(cube.half) == np.count_nonzero(st.half)  # nothing outside the cube
        assert g.crop(g.k_inf).max() == n and g.crop(g.dealias_mask).min() == 1.0

    @pytest.mark.parametrize("d, m", CUBE_GRIDS)
    def test_to_half_embeds_with_zeros(self, d, m):
        st = projected_state(d, m, 72 + d)
        back = to_half(to_cube(st))
        assert not back.on_cube and back.half.shape == st.half.shape
        assert np.array_equal(back.half, st.half)
        assert not np.signbit(back.half[back.half == 0.0].view(np.float64)).any()  # +0.0 outside the cube
        assert st.grid.crop(back.half).tobytes() == to_cube(st).half.tobytes()

    @pytest.mark.parametrize("lead", [(2,), (3, 2)], ids=["state", "stack"])
    @pytest.mark.parametrize("d, m", CUBE_GRIDS)
    def test_samples_of_a_cube_are_those_of_its_embedding(self, monkeypatch, d, m, lead):
        st = projected_state(d, m, 74 + d, lead)
        g = st.grid
        cube = to_cube(st).half  # no samples yet
        want = half_to_samples(g, to_half(StateField(g, cube)).half)
        counts = count_transforms(monkeypatch, g.npoints)
        for lib in (scipy.fft, np.fft):
            for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
                monkeypatch.setattr(lib, name, None)
        got = half_to_samples(g, cube)
        assert counts == {"inverse": int(np.prod(lead))}  # one call, one transform per component
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == half_to_samples(g, st.half).tobytes()

    @pytest.mark.parametrize("d, m", CUBE_GRIDS)
    def test_forward_transform_gathers_the_cube(self, d, m):
        g = make_grid(d, m)
        samples = np.random.default_rng(76 + d).normal(size=(3, 2) + g.shape)
        assert samples_to_cube(g, samples).tobytes() == g.crop(samples_to_half(g, samples)).tobytes()

    def test_cube_factors_are_the_crop_of_the_half_ones(self):
        for d, m in CUBE_GRIDS:
            g = make_grid(d, m)
            assert g.cube_phase.tobytes() == g.crop(g.half_phase).tobytes()
            assert g.cube_phase_conj.tobytes() == g.crop(g.half_phase_conj).tobytes()
            for dk, cube_dk in zip(g.diff_mult, g.cube_diff_mult):
                assert cube_dk.tobytes() == g.crop(dk).tobytes()

    def test_layout_changes_carry_the_samples(self, monkeypatch):
        st = projected_state(2, 8, 78)
        first = to_samples(st)
        counts = count_transforms(monkeypatch, st.grid.npoints)
        cube = to_cube(st)
        assert to_samples(cube) is first and to_samples(to_half(cube)) is first
        assert counts == {}
        assert "samples" not in to_cube(StateField(st.grid, st.half)).__dict__


class TestStoredHalf:
    @pytest.mark.parametrize("d, m", [(1, 8), (2, 6)])
    def test_full_spectrum_is_the_exact_reflection(self, d, m):
        g = make_grid(d, m)
        rng = np.random.default_rng(60 + d)
        c = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)
        k, minus_k = (0,) + (1,) * d, (0,) + (-1,) * d
        c[k], c[minus_k] = c[k].real, c[minus_k].real  # exact zero imaginary part at k and -k
        sym = hermitian_symmetrize(c, d)
        assert sym[minus_k].imag == 0.0 and not np.signbit(sym[minus_k].imag)
        st = from_coeffs(g, sym)
        assert st.half.shape == (2,) + g.shape[:-1] + (m + 1,)
        assert np.array_equal(st.coeffs.view(np.int64), sym.view(np.int64))  # bit for bit
        assert not np.signbit(st.coeffs[minus_k].imag)
        assert st.coeffs is st.coeffs and not st.coeffs.flags.writeable
        with pytest.raises(ValueError):
            st.coeffs[minus_k] = 1.0


class TestHelpers:
    def test_embed_preserves_content(self):
        g = make_grid(1, 8)
        fine = make_grid(1, 32)
        st = from_function(g, lambda x: np.sin(3 * x) + np.cos(5 * x))
        up = embed(st, fine)
        assert np.isclose(sobolev_norm(up, 0), sobolev_norm(st, 0), rtol=1e-13)
        x = mesh(fine)[0]
        assert np.max(np.abs(to_samples(up)[0] - (np.sin(3 * x) + np.cos(5 * x)))) < 1e-12

    @pytest.mark.parametrize("d, m, fine_m", [(1, 8, 16), (1, 6, 32), (2, 4, 8), (2, 6, 16)])
    def test_embed_matches_symmetrized_padding(self, d, m, fine_m):
        def former_embed(x, fine):
            # zero-pad, then project the whole fine array onto Hermitian coefficients
            tgt = np.zeros((x.n,) + fine.shape, dtype=np.complex128)
            idx = np.mod(x.grid.modes, fine.two_m)
            tgt[np.ix_(np.arange(x.n), *[idx] * d)] = x.coeffs
            return hermitian_symmetrize(tgt, d)

        rng = np.random.default_rng(30 + 10 * d + m)
        g, fine = make_grid(d, m), make_grid(d, fine_m)
        for _ in range(5):
            c = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)
            st = from_coeffs(g, hermitian_symmetrize(c, d))
            assert np.all(st.coeffs[:, full_wavenumbers(g).k_inf == g.M] != 0.0)
            assert np.array_equal(embed(st, fine).coeffs, former_embed(st, fine))

    @pytest.mark.parametrize("d, m", [(1, 8), (1, 5), (2, 6), (2, 4)])
    def test_embed_matches_full_spectrum_oracle(self, d, m):
        # real-field states: in 2D their columns 0 and M are Hermitian only to rounding
        g = make_grid(d, m)
        rng = np.random.default_rng(70 + 10 * d + m)
        st = state_from_samples(g, rng.normal(size=(3,) + g.shape))
        assert np.all(st.half[:, full_wavenumbers(g).k_inf[..., : m + 1] == m] != 0.0)
        for fine_m in (m, 2 * m, 4 * m):
            fine = make_grid(d, fine_m)
            assert np.array_equal(embed(st, fine).half, embed_full(st, fine).half)

    @pytest.mark.parametrize("d, m", [(1, 16), (2, 8)])
    def test_l2_inner_matches_full_spectrum_oracle(self, d, m):
        g = make_grid(d, m)
        rng = np.random.default_rng(80 + d)
        a = state_from_samples(g, rng.normal(size=(2,) + g.shape))
        for b in (a, state_from_samples(g, to_samples(a) + rng.normal(size=(2,) + g.shape))):
            assert abs(l2_inner(a, b) - l2_inner_full(a, b)) <= 1e-13 * abs(l2_inner_full(a, b))

    def test_max_mode_support_2d_along_each_axis(self):
        g = make_grid(2, 16)
        assert max_mode_support(from_function(g, lambda x, y: np.cos(5 * x))) == 5
        assert max_mode_support(from_function(g, lambda x, y: np.sin(6 * y) + np.cos(2 * y))) == 6
        assert max_mode_support(from_function(g, lambda x, y: 0.0 * x)) == 0

    @pytest.mark.parametrize("d, m", [(1, 8), (2, 6)])
    def test_coefficients_at_reads_modes_in_the_given_order(self, d, m):
        g = make_grid(d, m)
        rng = np.random.default_rng(90 + d)
        c = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)
        k, minus_k = (0,) + (1,) * d, (0,) + (-1,) * d
        c[k], c[minus_k] = c[k].real, c[minus_k].real  # exact zero imaginary part at k and -k
        sym = hermitian_symmetrize(c, d)
        band = np.arange(-m + 1, m + 1)
        expected = np.ascontiguousarray(sym[(slice(None), *np.ix_(*[np.mod(band, g.two_m)] * d))])
        got = coefficients_at(from_coeffs(g, sym), band)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))  # bit for bit, +0.0 kept
        with pytest.raises(ValueError):
            coefficients_at(from_coeffs(g, sym), [-m])

    def test_max_mode_support(self):
        g = make_grid(1, 16)
        st = from_function(g, lambda x: np.sin(7 * x))
        assert max_mode_support(st) == 7

    def test_hermitian_symmetrize_projects(self):
        rng = np.random.default_rng(11)
        c = rng.normal(size=16) + 1j * rng.normal(size=16)
        sym = hermitian_symmetrize(c, 1)
        again = hermitian_symmetrize(sym, 1)
        assert np.allclose(sym, again)
        # symmetric arrays invert to real samples
        g = make_grid(1, 8)
        z = (sym * phase_conj(g))
        vals = np.fft.ifft(z) * g.two_m
        assert np.max(np.abs(vals.imag)) < 1e-12 * max(np.max(np.abs(vals.real)), 1.0)
