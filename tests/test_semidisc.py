"""Semi-discrete right-hand sides: schemes, dealiasing exactness, invariants."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from specwave import semidisc, spectral
from specwave.initial import build_initial
from specwave.poly import Poly, PolyMatrix
from specwave.semidisc import (
    SCHEME_KINDS,
    SchemeSpec,
    rhs,
    rhs_plan,
)
from specwave.spectral import (
    FilterSpec,
    StateField,
    apply_filter,
    dealias,
    differentiate,
    l2_inner,
    make_grid,
    smooth_ramp,
    state_from_samples,
    to_cube,
    to_samples,
)
from specwave.sysio import parse_system_text
from specwave.systems import SystemDef
from specwave.timeint import rk4_step

from oracles import (
    coeffs_from_dict,
    convolve_dicts,
    count_transforms,
    dict_from_coeffs,
    from_coeffs,
    full_wavenumbers,
    irrotational_equivalence_check,
    mesh,
    naive_inverse,
    phase_conj,
    poly_var,
    quartic_energy_system,
    random_band_limited,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    saint_venant_2d_standard,
    truncate_dict,
    zero_state,
)


def random_state(rng, grid, n, support):
    comps = []
    x = mesh(grid)
    for _ in range(n):
        spec = random_band_limited(rng, grid.two_m, support, ndim=grid.d)
        if grid.d == 1:
            comps.append(naive_inverse(spec, grid.axis_points))
        else:
            out = np.zeros(grid.shape, dtype=complex)
            for (k1, k2), v in spec.items():
                out += v * np.exp(1j * (k1 * x[0] + k2 * x[1]))
            comps.append(out.real)
    return state_from_samples(grid, np.array(comps))


def rhs_oracle_1d(sys, state, kind):
    """Exact convolution evaluation of the 1D semi-discrete right-hand side."""
    g = state.grid
    n_cut = g.dealias_N
    comps = [dict_from_coeffs(state.coeffs[i], g.modes) for i in range(state.n)]
    derivs = [{k: 1j * k * v for k, v in c.items() if abs(k) < g.M} for c in comps]

    def entry_times(entry_poly, deriv):
        total: dict = {}
        for expo, coeff in entry_poly.terms:
            term = {k: coeff * v for k, v in deriv.items()}
            for i, p in enumerate(expo):
                for _ in range(p):
                    term = truncate_dict(convolve_dicts(comps[i], term), n_cut)
            for k, v in term.items():
                total[k] = total.get(k, 0.0) + v
        return total

    out = np.zeros_like(state.coeffs)
    for i in range(sys.n):
        lin: dict = {}
        nl: dict = {}
        for c in range(sys.n):
            a0 = sys.A0[0][i, c]
            if a0 != 0.0:
                for k, v in derivs[c].items():
                    lin[k] = lin.get(k, 0.0) + a0 * v
            entry = sys.A1[0].entries[i][c]
            if entry.terms:
                part = entry_times(entry, derivs[c])
                for k, v in part.items():
                    nl[k] = nl.get(k, 0.0) + v
        nl = truncate_dict(nl, n_cut)
        if kind == "sharp":
            full = truncate_dict({k: lin.get(k, 0.0) + nl.get(k, 0.0) for k in set(lin) | set(nl)}, n_cut)
        elif kind == "smooth-all":
            full = {
                k: (lin.get(k, 0.0) + nl.get(k, 0.0)) * smooth_ramp(k / n_cut)
                for k in set(lin) | set(nl)
            }
        else:  # smooth-nl
            full = {k: lin.get(k, 0.0) + nl.get(k, 0.0) * smooth_ramp(k / n_cut) for k in set(lin) | set(nl)}
        out[i] = -coeffs_from_dict(full, g.modes, 1)
    return out


class TestAdvectiveTerm:
    """The dealiased advective term P_N(A(U) d_x U), read as -rhs of the sharp scheme."""

    def test_sv1d_single_mode(self):
        g = make_grid(1, 32)
        x = mesh(g)[0]
        sv = saint_venant_1d()
        st = state_from_samples(g, np.stack([np.zeros_like(x), np.sin(x)]))
        adv = to_samples(-rhs(SchemeSpec("sharp"), sv, st))
        assert np.max(np.abs(adv[0] - np.cos(x))) < 1e-12
        assert np.max(np.abs(adv[1] - np.sin(x) * np.cos(x))) < 1e-12

    def test_zero_state(self):
        g = make_grid(1, 16)
        sv = saint_venant_1d()
        adv = -rhs(SchemeSpec("sharp"), sv, zero_state(g, 2))
        assert np.max(np.abs(adv.coeffs)) == 0.0

    def test_constant_state(self):
        g = make_grid(1, 16)
        x = mesh(g)[0]
        sv = saint_venant_1d()
        st = state_from_samples(g, np.stack([0.3 * np.ones_like(x), np.zeros_like(x)]))
        adv = -rhs(SchemeSpec("sharp"), sv, st)
        assert np.max(np.abs(adv.coeffs)) < 1e-14


class TestRhsSchemes:
    @pytest.mark.parametrize("kind", ["sharp", "smooth-all", "smooth-nl"])
    def test_zero_state_zero_rhs(self, kind):
        g = make_grid(1, 16)
        sv = saint_venant_1d()
        out = rhs(SchemeSpec(kind), sv, zero_state(g, 2))
        assert np.max(np.abs(out.coeffs)) == 0.0

    @pytest.mark.parametrize("kind", ["sharp", "smooth-all", "smooth-nl"])
    @pytest.mark.parametrize("m", [8, 16])
    def test_rhs_matches_convolution_oracle_1d(self, kind, m):
        rng = np.random.default_rng(10 * m + hash(kind) % 97)
        g = make_grid(1, m)
        sv = saint_venant_1d()
        st = random_state(rng, g, 2, g.dealias_N)
        out = rhs(SchemeSpec(kind), sv, st)
        expected = rhs_oracle_1d(sv, st, kind)
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(out.coeffs - expected)) < 1e-11 * scale

    def test_support_invariance(self):
        # states the stepper produces are exactly supported on the kept cube
        rng = np.random.default_rng(3)
        g = make_grid(1, 16)
        sv = saint_venant_1d()
        from specwave.spectral import dealias

        st = dealias(random_state(rng, g, 2, g.dealias_N))
        for kind in ("sharp", "smooth-all", "smooth-nl"):
            out = rhs(SchemeSpec(kind), sv, st)
            outside = np.abs(full_wavenumbers(g).kmesh[0]) > g.dealias_N
            assert np.max(np.abs(out.coeffs[:, outside])) == 0.0

    def test_support_invariance_2d(self):
        rng = np.random.default_rng(4)
        g = make_grid(2, 8)
        sv = saint_venant_2d_standard()
        from specwave.spectral import dealias

        st = dealias(random_state(rng, g, 3, g.dealias_N))
        for kind in ("sharp", "smooth-all", "smooth-nl"):
            out = rhs(SchemeSpec(kind), sv, st)
            outside = full_wavenumbers(g).k_inf > g.dealias_N
            assert np.max(np.abs(out.coeffs[:, outside])) == 0.0

    def test_reality_preserved(self):
        rng = np.random.default_rng(5)
        g = make_grid(1, 16)
        sv = saint_venant_1d()
        st = random_state(rng, g, 2, g.dealias_N)
        for kind in ("sharp", "smooth-all", "smooth-nl"):
            out = rhs(SchemeSpec(kind), sv, st)
            samples = np.fft.ifftn(out.coeffs * phase_conj(g), axes=(-1,)) * g.npoints
            assert np.max(np.abs(samples.imag)) < 1e-12 * max(np.max(np.abs(samples.real)), 1e-30)

    def test_sharp_equals_smooth_on_low_modes(self):
        # advective term of a state supported <= N/4 lives inside <= N/2,
        # where the smooth symbol is one
        rng = np.random.default_rng(6)
        g = make_grid(1, 64)
        sv = saint_venant_1d()
        st = random_state(rng, g, 2, g.dealias_N // 4)
        sharp = rhs(SchemeSpec("sharp"), sv, st)
        smooth = rhs(SchemeSpec("smooth-all"), sv, st)
        scale = np.max(np.abs(sharp.coeffs))
        assert np.max(np.abs(sharp.coeffs - smooth.coeffs)) < 1e-13 * scale

    def test_blowup_propagates_as_nonfinite(self):
        g = make_grid(1, 16)
        sv = saint_venant_1d()
        c = np.zeros((2,) + g.shape, dtype=complex)
        c[0, 1] = np.nan
        out = rhs(SchemeSpec("sharp"), sv, from_coeffs(g, c))
        assert not np.all(np.isfinite(out.coeffs))

    def test_dimension_mismatch_rejected(self):
        g = make_grid(1, 16)
        with pytest.raises(ValueError):
            rhs(SchemeSpec("sharp"), saint_venant_2d_standard(), zero_state(g, 3))
        with pytest.raises(ValueError):
            rhs(SchemeSpec("sharp"), saint_venant_1d(), zero_state(g, 3))


def scalar_2d_system():
    """n=1, d=2 with S = 1 + u and SJ0 = (1, 0.5), A_j = SJ0_j S: the flux
    path with Q = u^2/2, where the one A0 entry and the one SJ0 entry act
    on both axes and one coefficient is not +-1."""
    one, u = Poly.const(1, 1.0), poly_var(1, 0)
    S = PolyMatrix.build(1, [[one + u]])
    SJ0 = (np.eye(1), 0.5 * np.eye(1))
    A = tuple(PolyMatrix.from_constant(sj, 1) @ S for sj in SJ0)
    return SystemDef(name="scalar-2d", d=2, n=1, A=A, S=S, SJ0=SJ0)


def scalar_2d_state(g):
    return random_state(np.random.default_rng(15), g, 1, g.dealias_N)


class TestTransformBudget:
    """One rhs call on a reused plan and a fresh state: on the flux path n
    inverse (U) and n forward (Q(U)) real transforms; on the collocated path
    n(d+1) inverse (U and each d_j U) and n forward, plus one each way per
    projected product of a coefficient of degree above one.  A state whose
    samples are cached costs n inverse transforms fewer."""

    CASES = pytest.mark.parametrize(
        "make_sys, M, flux, projected",
        [
            pytest.param(saint_venant_1d, 16, True, 0, id="saint_venant_1d-16"),
            pytest.param(saint_venant_2d_standard, 8, False, 0, id="saint_venant_2d_standard-8"),
            pytest.param(saint_venant_2d_hamiltonian, 8, True, 0, id="saint_venant_2d_hamiltonian-8"),
            pytest.param(quartic_energy_system, 16, False, 1, id="quartic_energy-16"),
        ],
    )

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @CASES
    def test_transforms_per_call(self, monkeypatch, kind, make_sys, M, flux, projected):
        self.check_budget(monkeypatch, kind, make_sys, M, flux, projected, on_cube=False)

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @CASES
    def test_transforms_per_call_on_the_cube(self, monkeypatch, kind, make_sys, M, flux, projected):
        # the march's layout costs the same transforms, in the same calls
        self.check_budget(monkeypatch, kind, make_sys, M, flux, projected, on_cube=True)

    @staticmethod
    def check_budget(monkeypatch, kind, make_sys, M, flux, projected, on_cube):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        st = random_state(np.random.default_rng(12), g, sysd.n, g.dealias_N)
        if on_cube:
            st = to_cube(dealias(st))
        scheme = SchemeSpec(kind)
        plan = rhs_plan(scheme, sysd, st.grid)
        expected = rhs(scheme, sysd, st, plan).half  # the plan's first call builds its tables
        counts = count_transforms(monkeypatch, g.npoints)

        def forbidden(*args, **kwargs):
            raise AssertionError("not expected in rhs on a reused plan")

        for lib in (scipy.fft, np.fft):
            for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
                monkeypatch.setattr(lib, name, forbidden)
        for mod in (spectral, semidisc):
            for name in ("hermitian_symmetrize", "filter_multiplier"):
                monkeypatch.setattr(mod, name, forbidden, raising=False)
        fresh = StateField(st.grid, st.half)
        out = rhs(scheme, sysd, fresh, plan)
        # 2D: 3 + 3 = 6 real transforms on the flux path, 9 + 3 = 12 collocated
        inverse = sysd.n if flux else sysd.n * (sysd.d + 1)
        assert counts == {"inverse": inverse + projected, "forward": sysd.n + projected}
        assert out.grid is st.grid
        assert out.half.tobytes() == expected.tobytes()
        # the call cached the samples of U on fresh: the next one reads them
        counts.clear()
        again = rhs(scheme, sysd, fresh, plan)
        assert counts == Counter(inverse=inverse - sysd.n + projected, forward=sysd.n + projected)
        assert again.half.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize("make_sys, M", [(saint_venant_1d, 16), (saint_venant_2d_hamiltonian, 8)])
    def test_flux_path_reads_no_derivative_multipliers(self, monkeypatch, kind, make_sys, M):
        # the plan's multiplier tables stand in for every i k_j product
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        st = random_state(np.random.default_rng(16), g, sysd.n, g.dealias_N)
        scheme = SchemeSpec(kind)
        plan = rhs_plan(scheme, sysd, g)
        expected = rhs(scheme, sysd, st, plan).half

        def forbidden(self):
            raise AssertionError("grid.diff_mult read")

        monkeypatch.setattr(spectral.Grid, "diff_mult", property(forbidden), raising=False)
        assert np.array_equal(rhs(scheme, sysd, st, plan).half, expected)

    def test_equal_multipliers_are_one_array(self):
        # A0_j = SJ0_j for this system, one nonzero axis per entry: i k_x P_N and i k_y P_N
        sysd = saint_venant_2d_hamiltonian()
        plan = rhs_plan(SchemeSpec("sharp"), sysd, make_grid(2, 8))
        assert len({id(m) for _, _, m in plan.tables.lin_terms + plan.tables.nl_terms}) == 2

    def test_plan_for_another_scheme_rejected(self):
        g = make_grid(1, 16)
        sv = saint_venant_1d()
        plan = rhs_plan(SchemeSpec("sharp"), sv, g)
        with pytest.raises(ValueError, match="plan"):
            rhs(SchemeSpec("smooth-nl"), sv, zero_state(g, 2), plan)
        with pytest.raises(ValueError, match="plan"):
            rhs(SchemeSpec("sharp"), sv, zero_state(make_grid(1, 8), 2), plan)


# saint-venant-1d as a user would write it, with an SJ0 that does not factorize A
SV1D_WRONG_SJ0 = """\
name sv1d-wrong-sj0
dim 1
size 2
A 1 1 1 (0 1) 1.0
A 1 1 2 (0 0) 1.0 (1 0) 1.0
A 1 2 1 (0 0) 1.0
A 1 2 2 (0 1) 1.0
S 1 1 (0 0) 1.0
S 1 2 (0 1) 1.0
S 2 1 (0 1) 1.0
S 2 2 (0 0) 1.0 (1 0) 1.0
SJ0 1 1.0 0.0 0.0 1.0
"""


class TestFluxPath:
    """The flux form SJ0_j d_j Q(U) against the collocated A1_j(U) d_j U."""

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize(
        "make_sys, make_state, M",
        [
            pytest.param(saint_venant_1d, lambda g: build_initial("init1", None, g), 64, id="saint_venant_1d-init1-64"),
            pytest.param(
                saint_venant_2d_hamiltonian,
                lambda g: build_initial("init2D", None, g),
                16,
                id="saint_venant_2d_hamiltonian-init2D-16",
            ),
            pytest.param(scalar_2d_system, scalar_2d_state, 16, id="scalar_2d-16"),
        ],
    )
    def test_agrees_with_collocated_path(self, kind, make_sys, make_state, M):
        # states three RK4 steps from the projected data are supported in |k| <= N,
        # where both forms are exact
        sysd = make_sys()
        collocated = replace(sysd, SJ0=None)
        g = make_grid(sysd.d, M)
        scheme = SchemeSpec(kind)
        plan, plan_c = rhs_plan(scheme, sysd, g), rhs_plan(scheme, collocated, g)
        assert plan.flux and not plan_c.flux
        st = dealias(make_state(g))
        for _ in range(3):
            st = rk4_step(lambda s: rhs(scheme, sysd, s, plan), st, 1e-3)
        out = rhs(scheme, sysd, st, plan).half
        expected = rhs(scheme, collocated, st, plan_c).half
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_scalar_2d_matches_componentwise_oracle(self, kind):
        # -(m_lin (d_x u + 0.5 d_y u) + m_nl P_N(u d_x u + 0.5 u d_y u)), each
        # derivative taken per axis, summed, then filtered
        sysd = scalar_2d_system()
        g = make_grid(2, 16)
        st = scalar_2d_state(g)
        assert rhs_plan(SchemeSpec(kind), sysd, g).flux
        dx, dy = differentiate(st, 0), differentiate(st, 1)
        u = to_samples(st)[0]
        lin = dx + 0.5 * dy
        nl = dealias(state_from_samples(g, (u * to_samples(dx)[0] + 0.5 * u * to_samples(dy)[0])[None]))
        smooth = FilterSpec("smooth", g.dealias_N)
        if kind == "sharp":
            expected = dealias(lin) + nl
        elif kind == "smooth-all":
            expected = apply_filter(lin + nl, smooth)
        else:
            expected = lin + apply_filter(nl, smooth)
        out = rhs(SchemeSpec(kind), sysd, st).half
        assert np.max(np.abs(out + expected.half)) <= 1e-13 * np.max(np.abs(expected.half))

    # the quartic system's A1 = u^2 is built with one projected product, one
    # more transform each way on top of the collocated path's n(d+2)
    @pytest.mark.parametrize(
        "make_sys, projected",
        [(lambda: parse_system_text(SV1D_WRONG_SJ0), 0), (quartic_energy_system, 1)],
        ids=["sj0", "degree"],
    )
    def test_no_flux_path_without_structure(self, monkeypatch, make_sys, projected):
        sysd = make_sys()
        assert sysd.H is not None and sysd.SJ0 is not None and sysd.Q is None
        g = make_grid(1, 16)
        st = random_state(np.random.default_rng(14), g, sysd.n, g.dealias_N)
        counts = count_transforms(monkeypatch, g.npoints)
        for kind in SCHEME_KINDS:
            scheme = SchemeSpec(kind)
            expected = rhs(scheme, replace(sysd, SJ0=None), st).half
            plan = rhs_plan(scheme, sysd, g)
            counts.clear()
            out = rhs(scheme, sysd, StateField(g, st.half), plan).half
            assert counts == {"inverse": sysd.n * (sysd.d + 1) + projected, "forward": sysd.n + projected}
            assert np.array_equal(out, expected)


SYSTEM_CASES = [  # flux, collocated, flux, collocated with a projected product
    (saint_venant_1d, 16), (saint_venant_2d_standard, 8), (saint_venant_2d_hamiltonian, 8), (quartic_energy_system, 16),
]


class TestRetainedCube:
    """On the retained cube, the march's layout, rhs and RK4 give the crop of
    what they give on the half, to the bit (tobytes tells -0.0 from +0.0)."""

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize("make_sys, M", SYSTEM_CASES)
    def test_rhs_and_rk4_step_on_the_cube_are_the_crop(self, kind, make_sys, M):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        st = dealias(random_state(np.random.default_rng(30), g, sysd.n, g.dealias_N))  # as evolve makes them
        scheme = SchemeSpec(kind)
        plans = {grid: rhs_plan(scheme, sysd, grid) for grid in (g, g.cube)}  # one plan per grid
        step = lambda s: rhs(scheme, sysd, s, plans[s.grid])
        cube = StateField(g.cube, to_cube(st).half)  # unsampled: its U comes from the cube
        got = step(cube)
        assert got.grid is g.cube and got.half.tobytes() == g.crop(step(st).half).tobytes()
        got = rk4_step(step, StateField(g.cube, cube.half), 1e-3)
        assert got.grid is g.cube and got.half.tobytes() == g.crop(rk4_step(step, st, 1e-3).half).tobytes()

    @pytest.mark.parametrize("make_sys, M", SYSTEM_CASES)
    def test_stack_on_the_cube_is_the_crop(self, make_sys, M):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        rng = np.random.default_rng(31)
        states = [dealias(random_state(rng, g, sysd.n, g.dealias_N)) for _ in SCHEME_KINDS]
        stack = StateField(g, np.stack([st.half for st in states]))
        schemes = tuple(SchemeSpec(kind) for kind in SCHEME_KINDS)
        got = rhs(schemes, sysd, StateField(g.cube, g.crop(stack.half)), rhs_plan(schemes, sysd, g.cube))
        assert got.half.tobytes() == g.crop(rhs(schemes, sysd, stack, rhs_plan(schemes, sysd, g)).half).tobytes()

    @pytest.mark.parametrize("make_sys, M", SYSTEM_CASES)
    def test_tables_are_built_on_first_use(self, make_sys, M):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        schemes = tuple(SchemeSpec(kind) for kind in SCHEME_KINDS)
        plan = rhs_plan(schemes, sysd, g.cube)
        assert "tables" not in plan.__dict__
        st = dealias(random_state(np.random.default_rng(32), g, sysd.n, g.dealias_N))
        rhs(schemes, sysd, to_cube(st).view(lambda a: np.broadcast_to(a, (3,) + a.shape)), plan)
        cube_shape = (2 * g.dealias_N + 1,) * (g.d - 1) + (g.dealias_N + 1,)
        tables = plan.__dict__["tables"]  # a march on the cube holds no half-size multiplier
        assert all(m.shape == (3,) + cube_shape for _, _, m in tables.lin_terms + tables.nl_terms)
        if not plan.flux:  # the collocated filter, one diagonal term per row; sharp: 1 on the cube
            assert [(i, c) for i, c, _ in tables.nl_terms] == [(i, i) for i in range(sysd.n)]
            assert np.all(tables.nl_terms[0][2][0] == 1.0)

    @pytest.mark.parametrize("on_cube", [False, True], ids=["half", "cube"])
    def test_collocated_derivatives_are_one_inverse_call(self, monkeypatch, on_cube):
        sysd = saint_venant_2d_standard()
        g = make_grid(2, 8)
        st = dealias(random_state(np.random.default_rng(33), g, sysd.n, g.dealias_N))
        if on_cube:
            st = to_cube(st)
        plan = rhs_plan(SchemeSpec("smooth-nl"), sysd, st.grid)
        want = rhs(SchemeSpec("smooth-nl"), sysd, st, plan).half
        calls = Counter()
        for name in ("rfftn", "irfftn"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        got = rhs(SchemeSpec("smooth-nl"), sysd, StateField(st.grid, st.half), plan)
        assert calls == {"irfftn": 2, "rfftn": 1}  # U; d_x U and d_y U; the nonlinear sum
        assert got.half.tobytes() == want.tobytes()


class TestStoredHalf:
    """rhs and RK4 work on the stored half spectrum: neither completes the full one."""

    @pytest.mark.parametrize(
        "make_sys, M",
        [(saint_venant_1d, 16), (saint_venant_2d_standard, 8), (saint_venant_2d_hamiltonian, 8)],
    )
    def test_stored_half_only(self, monkeypatch, make_sys, M):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        st = random_state(np.random.default_rng(13), g, sysd.n, g.dealias_N)

        def forbidden(self):
            raise AssertionError("full spectrum completed")

        monkeypatch.setattr(StateField, "coeffs", property(forbidden))
        for kind in SCHEME_KINDS:
            rhs(SchemeSpec(kind), sysd, st)
        sharp = SchemeSpec("sharp")
        rk4_step(lambda s: rhs(sharp, sysd, s), st, 1e-3)


class TestMultiplierTables:
    @pytest.mark.parametrize("flux", [True, False])
    def test_row_without_terms_is_exactly_zero(self, flux):
        # A = SJ0 S with the 1D shallow-water S and SJ0 = diag(1, 0):
        # A = [[1, u], [0, 0]], so no term of any table acts on row 2 but
        # the collocated filter, on a zero row of the collocated sum, and
        # that row of rhs is zero whatever the state.  The tables start
        # from an unfilled array, which on the flux path reuses the freed
        # transform of Q(U), both of whose rows hold other values.
        sv = saint_venant_1d()
        sj0 = np.diag([1.0, 0.0])
        sysd = SystemDef(name="row-test", d=1, n=2, A=(PolyMatrix.from_constant(sj0, 2) @ sv.S,), S=sv.S, SJ0=(sj0,))
        if not flux:
            sysd = replace(sysd, SJ0=None)
        assert (sysd.Q is not None) == flux
        rng = np.random.default_rng(21)
        g = make_grid(1, 16)
        for kind in SCHEME_KINDS:
            plan = rhs_plan(SchemeSpec(kind), sysd, g)
            tables = plan.tables
            assert [i for i, _, _ in tables.lin_terms + tables.nl_terms] == ([0, 0] if flux else [0, 0, 1])
            for _ in range(4):
                out = rhs(SchemeSpec(kind), sysd, random_state(rng, g, 2, g.dealias_N), plan).half
                assert np.array_equal(out[1], np.zeros_like(out[1]))
                assert np.any(out[0] != 0.0)


class TestHigherDegreeCoefficients:
    def test_pairwise_projection_chain(self):
        # entry u^2 with re-projection after each product, against the oracle
        g = make_grid(1, 12)
        n_cut = g.dealias_N
        x = poly_var(1, 0)
        P = PolyMatrix.build(1, [[x * x]])
        rng = np.random.default_rng(7)
        spec = random_band_limited(rng, g.two_m, n_cut)
        st = state_from_samples(g, naive_inverse(spec, g.axis_points)[None])
        sysd = SystemDef(name="square-test", d=1, n=1, A=(P,))
        out = -rhs(SchemeSpec("sharp"), sysd, st)

        # the coefficient field u*u is assembled first (projected), then
        # multiplied with the derivative and projected again
        comp = dict_from_coeffs(st.coeffs[0], g.modes)
        deriv = {k: 1j * k * v for k, v in comp.items() if abs(k) < g.M}
        step1 = truncate_dict(convolve_dicts(comp, comp), n_cut)
        step2 = truncate_dict(convolve_dicts(step1, deriv), n_cut)
        expected = coeffs_from_dict(step2, g.modes, 1)
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(out.coeffs[0] - expected)) < 1e-11 * scale


class TestEnergyCancellation:
    def test_symmetric_system_pairing_identity(self):
        # For the symmetric test system A(U) = [[u, 1], [1, u]] the projected
        # advective pairing reduces to minus half the derivative-commutator
        # pairing: (P_N(A(U) dx U), U) = -1/2 ((dx A(U)) U, U).
        one = Poly.const(2, 1.0)
        u = poly_var(2, 1)
        a = PolyMatrix.build(2, [[u, one], [one, u]])
        sysd = SystemDef(name="symmetric-test", d=1, n=2, A=(a,))
        rng = np.random.default_rng(8)
        g = make_grid(1, 32)
        for _ in range(10):
            st = random_state(rng, g, 2, g.dealias_N // 3)
            lhs = l2_inner(-rhs(SchemeSpec("sharp"), sysd, st), st)
            du = to_samples(differentiate(st, 0))
            samp = to_samples(st)
            # (dx A) U = dx(u) * U entrywise through the matrix structure
            rows = np.stack([du[1] * samp[0], du[1] * samp[1]])
            comm = state_from_samples(g, rows)
            rhs_val = -0.5 * l2_inner(comm, st)
            assert abs(lhs - rhs_val) < 1e-11 * max(abs(lhs), 1.0)


class TestIrrotationalEquivalence:
    def test_curl_free_states_agree(self):
        g = make_grid(2, 16)
        x, y = mesh(g)
        eta = 0.2 * np.cos(x) * np.cos(y)
        u = np.sin(x) * np.cos(y)
        v = np.cos(x) * np.sin(y)
        st = state_from_samples(g, np.stack([eta, u, v]))
        assert irrotational_equivalence_check(st) < 1e-12

    def test_rotational_states_differ(self):
        g = make_grid(2, 16)
        x, y = mesh(g)
        st = state_from_samples(
            g, np.stack([np.zeros_like(x), np.sin(y), np.zeros_like(x)])
        )
        assert irrotational_equivalence_check(st) > 1e-3

    def test_zero_velocity(self):
        g = make_grid(2, 8)
        x, y = mesh(g)
        st = state_from_samples(
            g, np.stack([0.3 * np.cos(x), np.zeros_like(x), np.zeros_like(y)])
        )
        assert irrotational_equivalence_check(st) < 1e-14

    def test_rhs_2d_matches_componentwise_construction(self):
        # standard system rhs row for u: -(d_x eta + u d_x u + v d_y u), dealiased
        rng = np.random.default_rng(9)
        g = make_grid(2, 8)
        sv = saint_venant_2d_standard()
        st = random_state(rng, g, 3, g.dealias_N)
        out = rhs(SchemeSpec("sharp"), sv, st)
        samp = to_samples(st)
        dx = to_samples(differentiate(st, 0))
        dy = to_samples(differentiate(st, 1))
        eta, u, v = samp
        rows = np.stack(
            [
                u * dx[0] + (1 + eta) * dx[1] + v * dy[0] + (1 + eta) * dy[2],
                dx[0] + u * dx[1] + v * dy[1],
                u * dx[2] + dy[0] + v * dy[2],
            ]
        )
        from specwave.spectral import dealias

        expected = dealias(state_from_samples(g, rows))
        assert np.max(np.abs(out.coeffs + expected.coeffs)) < 1e-12
