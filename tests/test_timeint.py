"""RK4 stepping, evolution loop, monitors and blow-up detection."""

import math
from collections import Counter

import numpy as np
import pytest

from specwave.initial import build_initial
from specwave.semidisc import SchemeSpec, rhs, rhs_plan
from specwave.spectral import (
    differentiate,
    make_grid,
    sobolev_norm,
    state_from_samples,
)
from specwave.systems import saint_venant_1d, saint_venant_2d_hamiltonian
from specwave.timeint import (
    BlowUpError,
    EvolveConfig,
    EvolveResult,
    csv_table,
    evolve,
    monitor_csv,
    rk4_step,
    _step_plan,
)

from oracles import count_transforms, csv_cell, from_coeffs, from_function, zero_state


class TestRK4Step:
    def test_zero_rhs_identity(self):
        g = make_grid(1, 8)
        st = from_function(g, np.sin)
        out = rk4_step(lambda s: zero_state(g, 1), st, 0.1)
        assert np.allclose(out.coeffs, st.coeffs)

    def test_linear_advection_amplification(self):
        # one step of du/dt = -du/dx multiplies mode k by the degree-4
        # Taylor polynomial of exp(-ik dt)
        g = make_grid(1, 8)
        st = from_function(g, np.sin)
        dt = 0.1
        out = rk4_step(lambda s: -differentiate(s, 0), st, dt)
        amp = out.coeffs[0][1] / st.coeffs[0][1]
        expected = sum((-1j * dt) ** m / math.factorial(m) for m in range(5))
        assert abs(amp - expected) < 1e-14

    def test_step_doubling_order(self):
        # |one step dt - two steps dt/2| = O(dt^5)
        sv = saint_venant_1d()
        g = make_grid(1, 64)
        st0 = build_initial("init1", {"alpha": 1.5}, g)
        scheme = SchemeSpec("sharp")
        from specwave.semidisc import rhs

        rhs_fn = lambda s: rhs(scheme, sv, s)

        def defect(dt):
            one = rk4_step(rhs_fn, st0, dt)
            half = rk4_step(rhs_fn, rk4_step(rhs_fn, st0, dt / 2), dt / 2)
            return sobolev_norm(one - half, 0)

        d1, d2 = defect(2e-2), defect(1e-2)
        assert d1 / d2 > 16.0  # at least 4th order locally

    def test_nonfinite_stage_raises(self):
        g = make_grid(1, 8)
        st = from_function(g, np.sin)

        def bad_rhs(s):
            c = np.full_like(s.coeffs, np.nan)
            return from_coeffs(g, c)

        with pytest.raises(BlowUpError) as err:
            rk4_step(bad_rhs, st, 0.1)
        assert err.value.stage == "k1"


    @pytest.mark.parametrize("make_sys, M", [(saint_venant_1d, 32), (saint_venant_2d_hamiltonian, 8)])
    def test_combine_matches_expression_bit_for_bit(self, make_sys, M):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        rng = np.random.default_rng(M)
        st = state_from_samples(g, 0.1 * rng.normal(size=(sysd.n,) + g.shape))
        scheme = SchemeSpec("smooth-nl")
        plan = rhs_plan(scheme, sysd, g)
        rhs_fn = lambda s: rhs(scheme, sysd, s, plan)
        dt = 1e-3
        k1 = rhs_fn(st)
        k2 = rhs_fn(st + (0.5 * dt) * k1)
        k3 = rhs_fn(st + (0.5 * dt) * k2)
        k4 = rhs_fn(st + dt * k3)
        expected = st + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(rk4_step(rhs_fn, st, dt).coeffs, expected.coeffs)

    def test_shared_stage_result_is_not_written(self):
        # a constant rhs_fn returns one object for all four stages
        g = make_grid(1, 8)
        st = from_function(g, np.sin)
        k = from_function(g, np.cos)
        k_before, st_before = k.coeffs.copy(), st.coeffs.copy()
        out = rk4_step(lambda s: k, st, 0.1)
        assert np.array_equal(k.coeffs, k_before)
        assert np.array_equal(st.coeffs, st_before)
        assert np.max(np.abs(out.coeffs - (st_before + 0.1 * k_before))) < 1e-15


class TestMonitorTransformBudget:
    """Monitors and the blow-up check share one inverse transform of each sampled state."""

    @pytest.mark.parametrize("make_sys, M", [(saint_venant_1d, 32), (saint_venant_2d_hamiltonian, 8)])
    def test_transforms_per_monitored_step(self, monkeypatch, make_sys, M):
        sysd = make_sys()
        n, d = sysd.n, sysd.d
        g = make_grid(d, M)
        st0 = state_from_samples(g, 0.1 * np.random.default_rng(M).normal(size=(n,) + g.shape))
        counts = count_transforms(monkeypatch, g.npoints)

        def transforms(steps):
            counts.clear()
            cfg = EvolveConfig(dt=1e-3, T=steps * 1e-3, monitor_stride=1)
            assert evolve(SchemeSpec("sharp"), sysd, st0, cfg).completed
            return Counter(counts)

        one_step = transforms(2) - transforms(1)
        # four rhs calls on the flux path make n inverse and n forward
        # transforms each; the sample adds the state (n components) and
        # max_d2u's derivative (1)
        assert one_step == {"inverse": 4 * n + n + 1, "forward": 4 * n}


class TestEvolve:
    def test_zero_data_completes(self):
        sv = saint_venant_1d()
        g = make_grid(1, 16)
        res = evolve(SchemeSpec("sharp"), sv, zero_state(g, 2), EvolveConfig(dt=1e-3, T=0.01))
        assert res.completed
        assert np.max(np.abs(res.final_state.coeffs)) == 0.0

    def test_init1_bounded_h1(self):
        sv = saint_venant_1d()
        g = make_grid(1, 128)
        st0 = build_initial("init1", {"alpha": 1.5}, g)
        res = evolve(SchemeSpec("sharp"), sv, st0, EvolveConfig(dt=1e-4, T=0.1))
        assert res.completed
        h1_initial = sobolev_norm(st0, 1)
        assert sobolev_norm(res.final_state, 1) <= 2.0 * h1_initial

    def test_monitor_schema(self):
        sv = saint_venant_1d()
        g = make_grid(1, 32)
        st0 = build_initial("init1", {"alpha": 1.5}, g)
        res = evolve(SchemeSpec("sharp"), sv, st0, EvolveConfig(dt=1e-3, T=0.01))
        csv = monitor_csv(res)
        assert csv.splitlines()[0] == "time,Hs0,Hs1,margin_U,margin_UH,hamiltonian,max_d2u"
        assert res.monitor_rows[0][0] == 0.0
        assert np.isclose(res.monitor_rows[-1][0], 0.01)

    def test_partial_final_step_lands_on_T(self):
        sv = saint_venant_1d()
        g = make_grid(1, 16)
        st0 = build_initial("init1", {"alpha": 1.5}, g)
        res = evolve(SchemeSpec("sharp"), sv, st0, EvolveConfig(dt=3e-4, T=0.001))
        assert res.completed
        assert np.isclose(res.monitor_rows[-1][0], 0.001, atol=1e-15)
        assert res.final_time == 0.001

    def test_determinism(self):
        sv = saint_venant_1d()
        g = make_grid(1, 64)
        st0 = build_initial("init2", {}, g)
        cfg = EvolveConfig(dt=1e-3, T=0.05)
        r1 = evolve(SchemeSpec("smooth-nl"), sv, st0, cfg)
        r2 = evolve(SchemeSpec("smooth-nl"), sv, st0, cfg)
        assert np.array_equal(r1.final_state.coeffs, r2.final_state.coeffs)
        assert monitor_csv(r1) == monitor_csv(r2)

    def test_time_step_convergence_order(self):
        # halving dt changes the final state at 4th order (>= 3.7 measured)
        sv = saint_venant_1d()
        g = make_grid(1, 32)
        st0 = build_initial("init1", {"alpha": 1.5}, g)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            finals[dt] = evolve(SchemeSpec("sharp"), sv, st0, EvolveConfig(dt=dt, T=0.08)).final_state
        d1 = sobolev_norm(finals[4e-3] - finals[2e-3], 0)
        d2 = sobolev_norm(finals[2e-3] - finals[1e-3], 0)
        order = math.log2(d1 / d2)
        assert order >= 3.7

    def test_linf_detector_wiring(self):
        # a sub-unity growth threshold must trip at the first monitor sample
        sv = saint_venant_1d()
        g = make_grid(1, 32)
        st0 = build_initial("init1", {"alpha": 1.5}, g)
        res = evolve(
            SchemeSpec("sharp"), sv, st0, EvolveConfig(dt=1e-3, T=0.01, blowup_threshold=0.5)
        )
        assert res.status == "blowup"
        assert res.blowup_time is not None
        assert res.final_time == res.blowup_time  # the state that tripped the detector
        assert np.all(np.isfinite(res.final_state.coeffs))

    def test_hamiltonian_drift_sharp_scheme(self, drift_run_1d):
        # semi-discrete energy is conserved up to integrator error
        # (sharp, init1 alpha=1.5, 2M=256, dt=1e-5, T=0.1; see conftest)
        res = drift_run_1d
        assert res.completed
        i_h = res.monitor_names.index("hamiltonian")
        h0 = res.monitor_rows[0][1 + i_h]
        hT = res.monitor_rows[-1][1 + i_h]
        assert abs(hT - h0) / abs(h0) <= 1e-8

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EvolveConfig(dt=0.0, T=1.0)
        with pytest.raises(ValueError):
            EvolveConfig(dt=1e-3, T=-1.0)
        for stride in (0, -2):
            with pytest.raises(ValueError, match="monitor_stride"):
                EvolveConfig(dt=1e-3, T=1.0, monitor_stride=stride)
        for dt in (1e-300, 5e-324):  # T/dt = 1e299 and inf
            with pytest.raises(ValueError, match="step count"):
                EvolveConfig(dt=dt, T=0.1)

    def test_step_plan_counts_full_steps(self):
        # a count of full steps, not a list of T/dt step sizes
        assert _step_plan(0.001, 3e-4) == (3, [0.001 - 3 * 3e-4])
        assert _step_plan(0.05, 1e-5) == (5000, [])
        assert _step_plan(0.0, 1e-3) == (0, [])


class TestCsvTable:
    def test_cells_match_reference(self):
        columns = [
            np.array([0.1, -0.0, 1e-300, np.pi]),
            np.array([3, -7, 0, 2**40]),
            [np.float64(2.5), np.float64(-0.0), np.float32(0.1), np.float64(1.0) / 3],
            [np.int64(5), 1, -2, np.int32(0)],
            ["sharp", "smooth-nl", "", "reference-blowup"],
            [None, 1.5, None, -0.0],
            (1.0 / 3, 2, None, "completed"),
        ]
        header = [f"col{j}" for j in range(len(columns))]
        text = csv_table(header, columns)
        assert text.endswith("\n")
        lines = text[:-1].split("\n")
        assert lines[0] == ",".join(header)
        assert [line.split(",") for line in lines[1:]] == [
            [csv_cell(column[i]) for column in columns] for i in range(4)
        ]
        assert "np." not in text

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            csv_table(["a", "b"], [[1.0, 2.0], [1.0]])
