"""Error metrics, EOC, energy functionals, probes and the study driver."""

import math

import numpy as np
import pytest

from specwave import analysis, timeint
from specwave.analysis import (
    ConvergenceReport,
    convergence_study,
    eoc,
    jn_counterexample_states,
    jn_probe,
    jn_study,
    report_csv,
    report_table,
)
from specwave.spectral import (
    FilterSpec,
    apply_filter,
    embed,
    make_grid,
    sobolev_norm,
    state_from_samples,
    to_samples,
)
from specwave.initial import build_initial
from specwave.semidisc import SchemeSpec
from specwave.timeint import EvolveConfig, evolve, second_derivative_max

from oracles import (
    apply_lambda,
    convolve_dicts,
    dict_from_coeffs,
    energy_functional,
    from_coeffs,
    from_function,
    full_wavenumbers,
    mesh,
    quadrature_inner,
    relative_error,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    sobolev_from_dict,
    truncate_dict,
)


class TestRelativeError:
    def test_identical_states(self):
        g = make_grid(1, 32)
        st = from_function(g, np.sin)
        assert relative_error(st, st, 0) == 0.0

    def test_projection_tail(self):
        g = make_grid(1, 256)
        fine = from_function(g, lambda x: np.exp(np.cos(x)) - 1.0)
        n_cut = 20
        coarse_grid = make_grid(1, 64)
        # coarse state = truncation of the fine one onto the coarse mode set
        idx = [np.where(g.modes == k)[0][0] for k in coarse_grid.modes]
        coarse = from_coeffs(coarse_grid, fine.coeffs[:, idx] * (np.abs(full_wavenumbers(coarse_grid).kmesh[0]) <= n_cut))
        err = relative_error(coarse, fine, 0)
        tail = dict_from_coeffs(fine.coeffs[0], g.modes)
        tail = {k: v for k, v in tail.items() if abs(k) > n_cut}
        expected = sobolev_from_dict(tail, 0, 1) / sobolev_norm(fine, 0)
        assert np.isclose(err, expected, rtol=1e-12)

    def test_single_mode_weighting(self):
        g = make_grid(1, 32)
        ref = from_function(g, lambda x: np.sin(x) + np.sin(5 * x))
        cand = from_function(g, np.sin)
        r0 = relative_error(cand, ref, 0)
        r1 = relative_error(cand, ref, 1)
        # the difference lives on mode 5 only
        w = math.sqrt(1 + 25)
        norm_ratio = sobolev_norm(ref, 0) / sobolev_norm(ref, 1)
        assert np.isclose(r1 / r0, w * norm_ratio, rtol=1e-12)

    def test_coarser_reference_rejected(self):
        fine = from_function(make_grid(1, 64), np.sin)
        coarse = from_function(make_grid(1, 32), np.sin)
        with pytest.raises(ValueError):
            relative_error(fine, coarse, 0)

    def test_zero_iff_padded_equal(self):
        g = make_grid(1, 16)
        fine = make_grid(1, 64)
        st = from_function(g, lambda x: np.cos(3 * x))
        padded_ref = embed(st, fine)
        assert relative_error(st, padded_ref, 0) == 0.0
        bumped = padded_ref.coeffs.copy()
        i30 = np.where(fine.modes == 30)[0][0]
        bumped[0, i30] += 1e-3
        bumped[0, np.where(fine.modes == -30)[0][0]] += 1e-3
        assert relative_error(st, from_coeffs(fine, bumped), 0) > 0.0


class TestEOC:
    def test_exact_ratio(self):
        assert np.isclose(eoc(4e-3, 1e-3), 2.0)

    def test_undefined_on_nonpositive(self):
        assert eoc(0.0, 1e-3) is None
        assert eoc(1e-3, 0.0) is None

    def test_telescoping(self):
        errors = [3.2e-2, 7.5e-3, 1.9e-3, 5.1e-4]
        total = sum(eoc(a, b) * math.log(2.0) for a, b in zip(errors, errors[1:]))
        assert np.isclose(total, math.log(errors[0] / errors[-1]), rtol=1e-12)


class TestEnergyFunctional:
    def test_zero_state(self):
        g = make_grid(1, 16)
        sv = saint_venant_1d()
        st = state_from_samples(g, np.zeros((2,) + g.shape))
        assert energy_functional(sv, st, 0, "standard") == 0.0

    def test_flat_depth_matches_l2(self):
        g = make_grid(1, 32)
        sv = saint_venant_1d()
        x = mesh(g)[0]
        st = state_from_samples(g, np.stack([np.zeros_like(x), np.sin(x)]))
        assert np.isclose(energy_functional(sv, st, 0, "standard"), np.pi)

    def test_hamiltonian_form_quadrature(self):
        g = make_grid(1, 64)
        sv = saint_venant_1d()
        x = mesh(g)[0]
        eta, u = -0.5 * np.cos(x), np.sin(x)
        st = state_from_samples(g, np.stack([eta, u]))
        val = energy_functional(sv, st, 0, "hamiltonian")
        direct = (
            quadrature_inner(eta, eta, 1)
            + quadrature_inner((1 + eta) * u, u, 1)
            + 2 * quadrature_inner(u * eta, u, 1)
        )
        assert np.isclose(val, direct, rtol=1e-12)

    def test_sobolev_weighting(self):
        g = make_grid(1, 64)
        sv = saint_venant_1d()
        x = mesh(g)[0]
        st = state_from_samples(g, np.stack([np.zeros_like(x), np.sin(3 * x)]))
        # flat depth: F_s = |Lambda^s u|_L2^2 = (1+9)^s * pi
        for s in (0, 1, 2):
            assert np.isclose(energy_functional(sv, st, s, "standard"), 10.0**s * np.pi)

    def test_equivalence_with_eigenvalue_bounds(self):
        g = make_grid(1, 64)
        sv = saint_venant_1d()
        x = mesh(g)[0]
        eta, u = -0.3 * np.cos(x), 0.4 * np.sin(x)
        st = state_from_samples(g, np.stack([eta, u]))
        samples = to_samples(st)
        mats = np.zeros(g.shape + (2, 2))
        mats[..., 0, 0] = 1.0
        mats[..., 0, 1] = samples[1]
        mats[..., 1, 0] = samples[1]
        mats[..., 1, 1] = 1.0 + samples[0]
        eigs = np.linalg.eigvalsh(mats)
        alpha, beta = eigs[..., 0].min(), eigs[..., 1].max()
        for s in (0.0, 1.0):
            f = energy_functional(sv, st, s, "hamiltonian")
            hs2 = sobolev_norm(st, s) ** 2
            assert alpha * hs2 - 1e-10 <= f <= beta * hs2 + 1e-10

    def test_variant_availability(self):
        ham = saint_venant_2d_hamiltonian()
        with pytest.raises(ValueError):
            energy_functional(ham, None, 0, "standard")


class TestJnProbe:
    def test_constant_background_vanishes(self):
        sv = saint_venant_1d()
        g = make_grid(1, 64)
        x = mesh(g)[0]
        U = state_from_samples(g, np.stack([0.2 * np.ones_like(x), 0.1 * np.ones_like(x)]))
        V = state_from_samples(g, np.stack([np.zeros_like(x), np.sin(16 * x)]))
        assert abs(jn_probe(sv, U, V, N=16)) < 1e-12

    def test_cutoffs_must_strictly_ascend(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            jn_study(saint_venant_1d(), [32, 32])

    def test_linear_growth_and_slope(self):
        sv = saint_venant_1d()
        study = jn_study(sv, [32, 64, 128, 256], p=1, q=0)
        slope = study["slope"]
        assert abs(slope - (-np.pi / 8)) < 0.1 * np.pi / 8
        for n_val, j_val in zip(study["N"], study["J"]):
            assert np.isclose(j_val, -np.pi * n_val / 8, rtol=1e-10)

    def test_small_case_brute_force(self):
        # N=8, p=1, q=0: every intermediate via exact convolution
        sv = saint_venant_1d()
        U, V = jn_counterexample_states(8, 1, 0)
        g = U.grid
        val = jn_probe(sv, U, V, N=8)

        comps = [dict_from_coeffs(U.coeffs[i], g.modes, tol=1e-14) for i in range(2)]
        vdict = dict_from_coeffs(V.coeffs[1], g.modes, tol=1e-14)
        dv = {k: 1j * k * v for k, v in vdict.items() if abs(k) <= 8}
        one_plus_eta = dict(comps[0]); one_plus_eta[0] = one_plus_eta.get(0, 0) + 1.0
        t1 = convolve_dicts(one_plus_eta, dv)          # (1+eta) d(PV)_u
        t2 = convolve_dicts(comps[1], dv)              # u d(PV)_u
        r1 = {k: v for k, v in t1.items() if abs(k) > 8}
        r2 = {k: v for k, v in t2.items() if abs(k) > 8}
        s1 = r1                                         # standard symmetrizer row 1
        s2 = convolve_dicts(one_plus_eta, r2)           # (1+eta) row 2
        p2 = {k: v for k, v in s2.items() if abs(k) <= 8}
        expected = 0.0
        for k, v in p2.items():
            expected += (v * np.conj(vdict.get(k, 0.0))).real * 2 * np.pi
        assert abs(val - expected) < 1e-12 * max(abs(expected), 1.0)

    def test_insufficient_resolution_rejected(self):
        sv = saint_venant_1d()
        g = make_grid(1, 32)
        x = mesh(g)[0]
        U = state_from_samples(g, np.stack([-0.5 * np.cos(x), np.sin(x)]))
        V = state_from_samples(g, np.stack([np.zeros_like(x), np.sin(30 * x)]))
        with pytest.raises(ValueError):
            jn_probe(sv, U, V, N=30)

    def test_degenerate_offsets_rejected(self):
        with pytest.raises(ValueError):
            jn_counterexample_states(64, 1, 1)  # q must be < p
        with pytest.raises(ValueError):
            jn_counterexample_states(64, 0, 0)


class TestSecondDerivativeMax:
    def test_sine(self):
        g = make_grid(1, 32)
        st = state_from_samples(g, np.stack([np.cos(mesh(g)[0]), np.sin(mesh(g)[0])]))
        assert np.isclose(second_derivative_max(st), 1.0)

    def test_scaled_high_mode(self):
        g = make_grid(1, 64)
        n = g.dealias_N
        st = state_from_samples(
            g,
            np.stack([np.zeros(g.shape), np.sin(n * mesh(g)[0]) / n**2]),
        )
        assert np.isclose(second_derivative_max(st), 1.0)


@pytest.fixture(scope="module")
def small_study():
    sv = saint_venant_1d()
    return convergence_study(
        sv,
        ["sharp", "smooth-nl"],
        "init1",
        {"alpha": 1.5},
        M_list=[8, 16, 32],
        M_ref=128,
        cfg=EvolveConfig(dt=1e-3, T=0.02),
    )


class TestConvergenceStudy:

    def test_rows_and_eocs(self, small_study):
        rows = small_study.rows
        assert len(rows) == 6
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row.scheme, []).append(row)
        for scheme_rows in by_scheme.values():
            ms = [r.M for r in scheme_rows]
            assert ms == sorted(ms)
            assert all(r.status == "completed" for r in scheme_rows)
            # last row has no EOC, earlier rows do
            assert scheme_rows[-1].eocs == {}
            assert 0.0 in scheme_rows[0].eocs

    def test_errors_decrease(self, small_study):
        for kind in ("sharp", "smooth-nl"):
            errs = [r.errors[0.0] for r in small_study.rows if r.scheme == kind]
            assert errs == sorted(errs, reverse=True)

    def test_csv_schema(self, small_study):
        csv = report_csv(small_study)
        header = csv.splitlines()[0]
        assert header == "two_M,scheme,E0,E1,EOC0,EOC1,status"
        assert len(csv.splitlines()) == 7

    def test_table_renders(self, small_study):
        table = report_table(small_study)
        assert "2M" in table
        assert "sharp EOC0" in table
        assert "reference:" in table

    def test_parallel_matches_serial(self):
        sv = saint_venant_1d()
        kwargs = dict(
            schemes=["sharp"],
            initial_name="init1",
            initial_params={"alpha": 1.5},
            M_list=[8, 16],
            M_ref=64,
            cfg=EvolveConfig(dt=1e-3, T=0.01),
        )
        serial = convergence_study(sv, **kwargs, jobs=1)
        parallel = convergence_study(sv, **kwargs, jobs=2)
        assert report_csv(serial) == report_csv(parallel)

    def test_study_evaluates_no_monitor(self, monkeypatch):
        # the report reads no monitor row, so neither the reference nor any
        # case builds the standard monitors
        def never(sys):
            raise AssertionError("standard monitors built")

        monkeypatch.setattr(timeint, "standard_monitors", never)
        report = convergence_study(
            saint_venant_1d(), ["sharp", "smooth-nl"], "init1", {"alpha": 1.5}, [8, 16], 64,
            EvolveConfig(dt=1e-3, T=0.005, monitor_stride=2), jobs=1,
        )
        assert [r.status for r in report.rows] == ["completed"] * 4
        assert all(set(r.errors) == {0.0, 1.0} for r in report.rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_case_per_resolution_matches_one_scheme_runs(self, jobs, monkeypatch):
        # each resolution evolves the study's schemes in lockstep, and every
        # row's errors are those of the scheme's own evolve, to the bit
        sv = saint_venant_1d()
        cfg = EvolveConfig(dt=1e-3, T=0.01)
        schemes, M_list = ["smooth-nl", "sharp"], [16, 8]
        cases = []
        lockstep = analysis.evolve_lockstep

        def counted(schemes, *args):
            cases.append(schemes)
            return lockstep(schemes, *args)

        if jobs == 1:  # the cases run in this process
            monkeypatch.setattr(analysis, "evolve_lockstep", counted)
        report = convergence_study(sv, schemes, "init1", {"alpha": 1.5}, M_list, 64, cfg, jobs=jobs)
        if jobs == 1:
            assert [[s.kind for s in case] for case in cases] == [schemes, schemes]
        ref = evolve(SchemeSpec("sharp"), sv, build_initial("init1", {"alpha": 1.5}, make_grid(1, 64)), cfg)
        rows = [(r.M, r.scheme, r.status, r.errors) for r in report.rows]
        want = []
        for M in sorted(M_list):
            for kind in schemes:
                alone = evolve(SchemeSpec(kind), sv, build_initial("init1", {"alpha": 1.5}, make_grid(1, M)), cfg)
                errors = {s: relative_error(alone.final_state, ref.final_state, s) for s in (0.0, 1.0)}
                want.append((M, kind, alone.status, errors))
        assert rows == want

    def test_reference_must_be_finer(self):
        sv = saint_venant_1d()
        with pytest.raises(ValueError):
            convergence_study(
                sv, ["sharp"], "init1", {}, M_list=[16], M_ref=16,
                cfg=EvolveConfig(dt=1e-3, T=0.01),
            )
