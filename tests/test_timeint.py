"""RK4 stepping, evolution loop, monitors and blow-up detection."""

import math
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from specwave import timeint
from specwave.initial import build_initial
from specwave.poly import Poly, PolyMatrix
from specwave.semidisc import SCHEME_KINDS, SchemeSpec, rhs, rhs_plan
from specwave.spectral import (
    StateField,
    dealias,
    differentiate,
    linf,
    make_grid,
    sobolev_norm,
    state_from_samples,
)
from specwave.timeint import (
    BlowUpError,
    EvolveConfig,
    EvolveResult,
    csv_table,
    evolve,
    evolve_lockstep,
    monitor_csv,
    rk4_step,
    standard_monitors,
    _step_plan,
)

from specwave.systems import SystemDef

from oracles import (
    count_transforms,
    csv_cell,
    from_coeffs,
    from_function,
    mesh,
    poly_var,
    quartic_energy_system,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    saint_venant_2d_standard,
    zero_state,
)


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

    @pytest.mark.parametrize("stage", ["k1", "k2", "k3", "k4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_nonfinite_entry_names_its_stage(self, stage, bad):
        g = make_grid(1, 8)
        st = from_function(g, np.sin)
        calls = []

        def rhs_fn(s):
            calls.append(s)
            half = np.zeros_like(s.half)
            if len(calls) == int(stage[1]):
                half[0, 3] = bad
            return StateField(g, half)

        with pytest.raises(BlowUpError) as err:
            rk4_step(rhs_fn, st, 0.1)
        assert err.value.stage == stage

    def test_finite_stage_whose_sum_overflows_is_not_a_blowup(self):
        g = make_grid(1, 8)
        big = StateField(g, np.full((1, g.M + 1), 1e308 + 0j))
        with np.errstate(over="ignore", invalid="ignore"):  # the combine overflows
            assert not np.isfinite(big.half.sum())
            out = rk4_step(lambda s: big, zero_state(g, 1), 1e-300)  # no BlowUpError
        assert out.half.shape == big.half.shape

    def test_check_names_nonfinite_states_without_warnings(self):
        # states 1, 4 and 5 are finite, but the square of 1e200 and the sum
        # of state 4's 1e308s overflow
        g = make_grid(1, 8)
        half = np.zeros((6, 2, g.M + 1), dtype=complex)
        half[:, 1, 3] = [np.inf, 1e200, -np.inf, complex(0.0, np.nan), 1.0, 2.0]
        half[4] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                timeint._check_finite(StateField(g, half), "k3")
            for k in (1, 4, 5):
                timeint._check_finite(StateField(g, half[k : k + 1]), "k3")
        assert (err.value.stage, err.value.states) == ("k3", (0, 2, 3))

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


    def test_stage_results_are_dropped_once_summed(self):
        # besides the accumulator, rk4_step holds at most one stage result:
        # k1 and k2 are gone at the third rhs_fn call, k3 at the fourth
        g = make_grid(1, 8)
        st = from_function(g, np.sin)
        made, alive = [], []

        def rhs_fn(s):
            alive.append([ref() is not None for ref in made])
            k = StateField(g, np.cos(len(made)) * s.half)
            made.append(weakref.ref(k))
            return k

        rk4_step(rhs_fn, st, 0.1)
        assert alive == [[], [True], [False, False], [False, False, False]]


class TestMonitorTransformBudget:
    """Monitors, the blow-up check and the next step's first RK4 stage share
    one inverse transform of each sampled state."""

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
        # four rhs calls on the flux path make n forward transforms each and
        # n inverse each but the first, which reads the samples of the state
        # sampled after the previous step; the sample adds the new state
        # (n components) and max_d2u's derivative (1)
        assert one_step == {"inverse": 3 * n + n + 1, "forward": 4 * n}


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
        # every row holds Python numbers, the t=0 row of one state as the rows of the stack
        assert {type(v) for row in res.monitor_rows for v in row} == {float}

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

    def test_component_count_checked_before_first_sample(self, monkeypatch):
        # the t=0 monitors evaluate the predicates on the state's components
        sampled = []
        monkeypatch.setattr(timeint, "standard_monitors", lambda sys: [("probe", sampled.append)])
        g = make_grid(1, 16)
        with pytest.raises(ValueError, match="^state has 3 components, system expects 2$"):
            evolve(SchemeSpec("sharp"), saint_venant_1d(), zero_state(g, 3), EvolveConfig(dt=1e-3, T=0.01))
        assert sampled == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_end_as_blowup(self, monkeypatch, bad):
        # zero data disable the growth test (linf0 = 0), so only the
        # finiteness of the step's samples can end the run
        g = make_grid(1, 16)

        def poisoned_step(rhs_fn, state, dt):
            half = state.half.copy()
            half[0, 1] = bad
            return StateField(g, half)

        monkeypatch.setattr(timeint, "rk4_step", poisoned_step)
        with np.errstate(invalid="ignore"):
            res = evolve(SchemeSpec("sharp"), saint_venant_1d(), zero_state(g, 2), EvolveConfig(dt=1e-3, T=0.01))
        assert res.status == "blowup"
        assert res.final_time == res.blowup_time == 1e-3

    def test_nonfinite_stage_ends_as_blowup(self):
        # A = diag(1e300 u): the first stage's coefficients overflow, so the
        # run stops before its first step with the t=0 sample only
        x, y = poly_var(2, 0), poly_var(2, 1)
        zero = Poly.zero(2)
        a = PolyMatrix.build(2, [[1e300 * x, zero], [zero, 1e300 * y]])
        sysd = SystemDef(name="overflow", d=1, n=2, A=(a,))
        g = make_grid(1, 16)
        st0 = state_from_samples(g, np.stack([np.sin(mesh(g)[0]), np.cos(mesh(g)[0])]))
        with np.errstate(over="ignore", invalid="ignore"):
            res = evolve(SchemeSpec("sharp"), sysd, st0, EvolveConfig(dt=1e-3, T=0.01, monitor_stride=100))
        assert res.status == "blowup"
        assert res.final_time == 0.0 and res.blowup_time == 1e-3
        assert len(res.monitor_rows) == 1

    def test_scalar_system_has_no_curvature_column(self):
        # the curvature reads component 1, which a scalar system lacks
        u = poly_var(1, 0)
        burgers = SystemDef(name="burgers", d=1, n=1, A=(PolyMatrix.build(1, [[u]]),))
        g = make_grid(1, 16)
        st0 = state_from_samples(g, 0.1 * np.sin(mesh(g)[0])[None])
        res = evolve(SchemeSpec("sharp"), burgers, st0, EvolveConfig(dt=1e-3, T=0.01))
        assert res.completed
        assert res.monitor_names == ["Hs0", "Hs1"]

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


def assert_same_run(got: EvolveResult, want: EvolveResult) -> None:
    """The same outcome to the bit: status, times, final state and monitor rows."""
    assert (got.status, got.final_time, got.blowup_time) == (want.status, want.final_time, want.blowup_time)
    assert got.final_state.half.shape == want.final_state.half.shape
    assert got.final_state.half.tobytes() == want.final_state.half.tobytes()
    assert got.monitor_names == want.monitor_names
    assert np.array(got.monitor_rows).tobytes() == np.array(want.monitor_rows).tobytes()


class TestLockstep:
    """evolve_lockstep gives each scheme of the stack the run evolve gives it alone."""

    @pytest.mark.parametrize(
        "make_sys, initial, M",
        [
            (saint_venant_1d, "init1", 32),  # flux path
            (saint_venant_2d_hamiltonian, "init2D", 8),  # flux path
            (saint_venant_2d_standard, "init2D", 8),  # collocated path
            (quartic_energy_system, None, 16),  # collocated, with a projected product
        ],
        ids=["sv1d", "sv2d-hamiltonian", "sv2d-standard", "quartic"],
    )
    def test_stack_matches_one_scheme_runs(self, make_sys, initial, M):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        if initial is None:
            st0 = state_from_samples(g, 0.3 * np.sin(mesh(g)[0])[None])
        else:
            st0 = build_initial(initial, {}, g)
        # 5 steps, the last one partial, sampled after steps 2 and 4 and at T
        cfg = EvolveConfig(dt=1e-3, T=0.0045, monitor_stride=2)
        kinds = ("smooth-nl", "sharp", "smooth-all")
        results = evolve_lockstep([SchemeSpec(k) for k in kinds], sysd, st0, cfg)
        assert [r.status for r in results] == ["completed"] * 3
        for kind, res in zip(kinds, results):
            assert_same_run(res, evolve(SchemeSpec(kind), sysd, st0, cfg))

    @pytest.mark.parametrize("threshold, sharp_by_growth", [(1e6, False), (3.0, True)], ids=["stages", "growth"])
    def test_scheme_that_blows_up_leaves_the_stack(self, threshold, sharp_by_growth):
        # dt = 0.08 at 2M = 128 is beyond the RK4 stability limit of the sharp
        # and smooth-nl schemes, whose linear parts reach |k| = N, but not of
        # smooth-all, which filters the linear part too: sharp and smooth-nl
        # blow up at different steps and smooth-all completes.  smooth-nl
        # ends on a non-finite stage, and sharp too unless the growth
        # threshold stops it first, at a monitor sample
        sv = saint_venant_1d()
        st0 = build_initial("init1", {}, make_grid(1, 64))
        cfg = EvolveConfig(dt=0.08, T=2.0, monitor_stride=7, blowup_threshold=threshold)
        kinds = SCHEME_KINDS

        def run(call):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = call()
            return out, [str(w.message) for w in caught]

        results, stacked_warnings = run(lambda: evolve_lockstep([SchemeSpec(k) for k in kinds], sv, st0, cfg))
        assert [r.status for r in results] == ["blowup", "completed", "blowup"]
        assert (results[0].final_time == results[0].blowup_time) == sharp_by_growth
        assert results[2].final_time < results[2].blowup_time
        alone_warnings = []
        for kind, res in zip(kinds, results):
            alone, caught = run(lambda: evolve(SchemeSpec(kind), sv, st0, cfg))
            assert_same_run(res, alone)
            alone_warnings += caught
        assert results[0].blowup_time != results[2].blowup_time
        # the stack warns where the schemes alone warn, not for the states that left it
        assert sorted(stacked_warnings) == sorted(alone_warnings)

    def test_no_monitors_record_the_times_of_the_same_run(self):
        # the runs of test_scheme_that_blows_up_leaves_the_stack with the
        # growth threshold: sharp blows up on growth at a stride sample,
        # smooth-all completes and smooth-nl ends on a non-finite stage.
        # Without monitors the growth check runs at the same samples, and
        # they feed the next step's first stage as before
        sv = saint_venant_1d()
        st0 = build_initial("init1", {}, make_grid(1, 64))
        cfg = EvolveConfig(dt=0.08, T=2.0, monitor_stride=7, blowup_threshold=3.0)
        schemes = [SchemeSpec(k) for k in SCHEME_KINDS]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            monitored = evolve_lockstep(schemes, sv, st0, cfg)
            bare = evolve_lockstep(schemes, sv, st0, cfg, ())
        assert [r.status for r in bare] == ["blowup", "completed", "blowup"]
        assert bare[0].final_time == bare[0].blowup_time
        assert bare[2].final_time < bare[2].blowup_time
        for got, want in zip(bare, monitored):
            assert (got.status, got.final_time, got.blowup_time) == (want.status, want.final_time, want.blowup_time)
            assert got.final_state.half.tobytes() == want.final_state.half.tobytes()
            assert got.monitor_names == []
            assert got.monitor_rows == [row[:1] for row in want.monitor_rows]
            assert monitor_csv(got).splitlines()[1:] == [repr(row[0]) for row in want.monitor_rows]

    def test_no_monitors_on_one_scheme(self, monkeypatch):
        # evolve passes the monitors on; with none, standard_monitors is not called
        def never(sys):
            raise AssertionError("standard monitors built")

        sv = saint_venant_1d()
        st0 = build_initial("init1", {}, make_grid(1, 16))
        cfg = EvolveConfig(dt=1e-3, T=0.0045, monitor_stride=2)
        want = evolve(SchemeSpec("smooth-nl"), sv, st0, cfg)
        monkeypatch.setattr(timeint, "standard_monitors", never)
        got = evolve(SchemeSpec("smooth-nl"), sv, st0, cfg, ())
        assert got.final_state.half.tobytes() == want.final_state.half.tobytes()
        assert got.monitor_rows == [(0.0,), (0.002,), (0.004,), (0.0045,)] == [row[:1] for row in want.monitor_rows]

    @pytest.mark.parametrize("make_sys, initial", [
        (saint_venant_1d, "init1"), (saint_venant_2d_hamiltonian, "init2D"), (saint_venant_2d_standard, "init2D"),
    ])
    def test_steps_make_no_blas_call(self, monkeypatch, make_sys, initial):
        # BLAS runs threads of its own, which outnumber the CPUs when worker
        # processes evolve side by side
        sysd = make_sys()
        st0 = build_initial(initial, {}, make_grid(sysd.d, 8))

        def blas(*args, **kwargs):
            raise AssertionError("BLAS call on the run path")

        for name in ("vdot", "dot", "inner", "tensordot"):
            monkeypatch.setattr(np, name, blas)
        results = evolve_lockstep([SchemeSpec(k) for k in SCHEME_KINDS], sysd, st0, EvolveConfig(dt=1e-3, T=0.003))
        assert [r.status for r in results] == ["completed"] * 3

    @pytest.mark.skipif(timeint._glibc() is None, reason="the march's heap policy acts on glibc only")
    def test_steps_fault_no_page_twice(self):
        # the stages' temporaries stay on the heap through the march, so,
        # after a warm-up, 18 more steps fault in (almost) no more pages
        import resource

        sysd = saint_venant_2d_hamiltonian()
        st0 = build_initial("init2D", {}, make_grid(2, 64))
        schemes = [SchemeSpec("sharp"), SchemeSpec("smooth-nl")]
        dt = 1e-3

        def faults(T):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            evolve_lockstep(schemes, sysd, st0, EvolveConfig(dt=dt, T=T))
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(2 * dt)
        assert faults(20 * dt) - faults(2 * dt) < 1000

    def test_one_scheme_is_a_stack_of_views(self):
        # evolve holds the arrays of one state: its result's final state is
        # a view of the stack of one, not a copy
        sv = saint_venant_1d()
        st0 = build_initial("init1", {}, make_grid(1, 16))
        res = evolve(SchemeSpec("sharp"), sv, st0, EvolveConfig(dt=1e-3, T=0.002))
        assert res.final_state.half.shape == (2, 17)
        assert res.final_state.half.base is not None and res.final_state.half.base.shape == (1, 2, 17)


def three_states(make_sys):
    """A system, three different states of it and the stack of the three."""
    sysd = make_sys()
    base = build_initial("init2", {}, make_grid(1, 16)) if sysd.d == 1 else build_initial("init2D", {}, make_grid(2, 8))
    states = [base * c for c in (0.5, 1.0, 1.5)]
    return sysd, states, StateField(states[0].grid, np.stack([st.half for st in states]))


MARCH_CASES = [(saint_venant_1d, 32, "init1"), (saint_venant_2d_hamiltonian, 8, "init2D"),
               (saint_venant_2d_standard, 8, "init2D")]


class TestCubeMarch:
    """evolve_lockstep marches on the retained cube and hands back the half."""

    @pytest.mark.parametrize("make_sys, M, initial", MARCH_CASES)
    def test_rhs_sees_only_cube_stacks(self, monkeypatch, make_sys, M, initial):
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        shapes, plans = [], []

        def recording_rhs(scheme, sys, state, plan):
            shapes.append(state.half.shape)
            return rhs(scheme, sys, state, plan)

        def recording_plan(*args):
            plans.append(rhs_plan(*args))
            return plans[-1]

        monkeypatch.setattr(timeint, "rhs", recording_rhs)
        monkeypatch.setattr(timeint, "rhs_plan", recording_plan)
        results = evolve_lockstep([SchemeSpec(k) for k in SCHEME_KINDS], sysd, build_initial(initial, {}, g),
                                  EvolveConfig(dt=1e-3, T=0.005, monitor_stride=2))
        n = g.dealias_N
        assert len(shapes) == 20 and set(shapes) == {(3, sysd.n) + (2 * n + 1,) * (g.d - 1) + (n + 1,)}
        assert plans and all("half_tables" not in plan.__dict__ for plan in plans)  # no half-size multiplier
        for res in results:
            assert res.completed and res.final_state.half.shape == (sysd.n,) + g.shape[:-1] + (M + 1,)

    @pytest.mark.parametrize("make_sys, M, initial", MARCH_CASES)
    def test_march_gives_the_bits_of_a_march_on_the_half(self, make_sys, M, initial):
        # the march as it was before the cube: RK4 on the projected half
        sysd = make_sys()
        g = make_grid(sysd.d, M)
        st0 = build_initial(initial, {}, g)
        cfg = EvolveConfig(dt=1e-3, T=0.005, monitor_stride=2)
        results = evolve_lockstep([SchemeSpec(k) for k in SCHEME_KINDS], sysd, st0, cfg)
        for kind, res in zip(SCHEME_KINDS, results):
            plan = rhs_plan(SchemeSpec(kind), sysd, g)
            state, rows = dealias(st0), []
            for i in range(5):
                state = rk4_step(lambda s: rhs(SchemeSpec(kind), sysd, s, plan), state, cfg.dt)
                if i % 2 == 1 or i == 4:
                    rows.append([fn(state).tolist() for _, fn in standard_monitors(sysd)])
            assert res.final_state.half.tobytes() == state.half.tobytes()
            assert res.final_state.samples.tobytes() == state.samples.tobytes()
            assert np.array(res.monitor_rows)[1:, 1:].tobytes() == np.array(rows).tobytes()


class TestOneStateAgainstStack:
    """Each per-state reduction gives every state of a stack the bits of that
    state alone: a numpy scalar for one state, one value per state for a stack."""

    @pytest.mark.parametrize("make_sys", [saint_venant_1d, saint_venant_2d_hamiltonian, saint_venant_2d_standard])
    def test_norms_and_monitors(self, make_sys):
        sysd, states, stack = three_states(make_sys)
        reductions = [("linf", linf), *standard_monitors(sysd)]  # Hs0, Hs1: sobolev_norm at s = 0 and 1
        names = [name for name, _ in reductions]
        assert {"Hs0", "Hs1", "max_d2u"} <= set(names)
        assert sum(name.startswith("margin_") for name in names) == len(sysd.predicates) > 0
        assert ("hamiltonian" in names) == (sysd.H is not None)
        for name, fn in reductions:
            alone = [fn(st) for st in states]
            assert all(isinstance(v, np.float64) for v in alone), name
            assert len(set(alone)) == 3, name  # the states differ in every reduction
            got = fn(stack)
            assert got.shape == (3,), name
            assert got.tobytes() == np.array(alone).tobytes(), name

    def test_check_finite(self):
        # state 1 overflows the sum of all parts but is finite; state 2 holds a NaN
        _, states, stack = three_states(saint_venant_1d)
        g = stack.grid
        half = stack.half.copy()
        half[1, 0, 2] = half[1, 1, 2] = 1e308
        half[2, 1, 3] = np.nan
        check = timeint._check_finite
        assert check(stack, "k1") is stack
        assert all(check(st, "k1") is st for st in states)
        with np.errstate(over="ignore"), pytest.raises(BlowUpError) as err:
            check(StateField(g, half), "k2")
        assert err.value.states == (2,)
        for k in (0, 1):
            alone = StateField(g, half[k])
            with np.errstate(over="ignore"):
                assert check(alone, "k2") is alone
        with pytest.raises(BlowUpError) as err:
            check(StateField(g, half[2]), "k2")
        assert err.value.states == (0,)


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
