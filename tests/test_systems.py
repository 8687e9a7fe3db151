"""Built-in shallow-water systems, structural checks, margins and energy."""

from dataclasses import replace

import numpy as np
import pytest

from specwave.poly import Poly, PolyMatrix
from specwave.spectral import (
    dealias,
    hermitian_symmetrize,
    l2_inner,
    make_grid,
    state_from_samples,
    to_samples,
)
from specwave.systems import (
    builtin_names,
    builtin_system,
    check_compatibility_AS,
    check_factorization,
    check_symmetrizer,
    check_system,
    hamiltonian_energy,
    sample_hyperbolic_points,
)
from specwave.analysis import energy_symmetrizer
from specwave.timeint import standard_monitors

from oracles import (
    from_coeffs,
    full_wavenumbers,
    hyperbolic_points_by_point,
    in_domain,
    matrix_at,
    mesh,
    poly_var,
    quadrature_inner,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    saint_venant_2d_standard,
    zero_matrix,
)

ALL_SYSTEMS = [saint_venant_1d, saint_venant_2d_standard, saint_venant_2d_hamiltonian]


class TestEvalMatrix:
    def test_sv1d_at_origin(self):
        sv = saint_venant_1d()
        assert np.allclose(matrix_at(sv.A[0], [0, 0]), [[0, 1], [1, 0]])

    def test_sv1d_at_point(self):
        sv = saint_venant_1d()
        assert np.allclose(matrix_at(sv.A[0], [0.5, 0.2]), [[0.2, 1.5], [1.0, 0.2]])

    def test_zero_matrix(self):
        z = zero_matrix(2, 2)
        assert np.allclose(matrix_at(z, [3.0, -1.0]), np.zeros((2, 2)))


class TestSaintVenant1D:
    def test_symmetrizer_at_origin_is_identity(self):
        sv = saint_venant_1d()
        assert np.allclose(matrix_at(sv.S, [0, 0]), np.eye(2))

    def test_factorization_exact(self):
        assert check_factorization(saint_venant_1d()) == []

    def test_factorization_sampled(self):
        sv = saint_venant_1d()
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.normal(size=2)
            assert np.allclose(sv.SJ0[0] @ matrix_at(sv.S, p), matrix_at(sv.A[0], p), atol=1e-14)

    def test_sa_symmetric_in_domain(self):
        sv = saint_venant_1d()
        rng = np.random.default_rng(1)
        count = 0
        while count < 100:
            p = rng.uniform(-0.9, 0.9, size=2)
            if not in_domain(sv, p):
                continue
            count += 1
            sa = matrix_at(sv.S, p) @ matrix_at(sv.A[0], p)
            assert np.max(np.abs(sa - sa.T)) < 1e-14

    def test_both_predicates_registered(self):
        names = [n for n, _ in saint_venant_1d().predicates]
        assert names == ["U", "UH"]


class TestSaintVenant2D:
    def test_standard_a1_at_origin(self):
        sv = saint_venant_2d_standard()
        assert np.allclose(matrix_at(sv.A[0], [0, 0, 0]), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_standard_compatibility(self):
        assert check_compatibility_AS(saint_venant_2d_standard()) == []

    def test_standard_predicate_violation(self):
        sv = saint_venant_2d_standard()
        assert not in_domain(sv, [-1.1, 0.0, 0.0])

    def test_hamiltonian_factorization_exact(self):
        assert check_factorization(saint_venant_2d_hamiltonian()) == []

    def test_hamiltonian_spd_at_origin(self):
        sv = saint_venant_2d_hamiltonian()
        assert np.allclose(np.linalg.eigvalsh(matrix_at(sv.S, [0, 0, 0])), [1, 1, 1])

    def test_hamiltonian_not_spd_outside_domain(self):
        sv = saint_venant_2d_hamiltonian()
        lam = np.linalg.eigvalsh(matrix_at(sv.S, [0.0, 0.8, 0.8]))
        assert lam[0] < 0  # 1 + eta - |u|^2 = -0.28

    def test_strict_domain_inside_standard_domain(self):
        ham = saint_venant_2d_hamiltonian()
        std = saint_venant_2d_standard()
        pts = sample_hyperbolic_points(ham)[:100]
        assert all(in_domain(std, p) for p in pts)


class TestStructuralChecks:
    @pytest.mark.parametrize("factory", ALL_SYSTEMS)
    def test_symmetrizer_check_passes(self, factory):
        sysd = factory()
        samples = sample_hyperbolic_points(sysd)
        assert check_symmetrizer(sysd, samples) == []
        assert len(samples) == 200

    @pytest.mark.parametrize("factory", ALL_SYSTEMS)
    def test_compatibility_check_passes(self, factory):
        assert check_compatibility_AS(factory()) == []

    def test_symmetrizer_failure_reported_outside_domain(self):
        sv = saint_venant_2d_standard()
        failures = check_symmetrizer(sv, np.array([[-1.5, 0.0, 0.0]]))
        assert failures
        assert any("positive definite" in msg for msg in failures)

    def test_hamiltonian_failure_outside_strict_domain(self):
        ham = saint_venant_2d_hamiltonian()
        assert check_symmetrizer(ham, np.array([[0.0, 0.9, 0.9]]))

    def test_asymmetry_proved_without_samples(self):
        # S = [[1, x], [0, 1]] is not symmetric, and with A = [[0, 0], [x, 0]]
        # neither is S*A = [[x^2, 0], [x, 0]]
        x = poly_var(2, 0)
        zero, one = Poly.zero(2), Poly.const(2, 1.0)
        s = PolyMatrix.build(2, [[one, x], [zero, one]])
        a = PolyMatrix.build(2, [[zero, zero], [x, zero]])
        from specwave.systems import SystemDef

        sysd = SystemDef(name="synthetic", d=1, n=2, A=(a,), S=s)
        assert check_symmetrizer(sysd, np.empty((0, 2))) == ["S not symmetric", "S*A_0 not symmetric"]

    def test_synthetic_asymmetric_system_fails_third_condition(self):
        # A = [[0, x], [x, 0]], S = diag(1+x, 1): A0 = 0 and A1 symmetric keep
        # the first two conditions, while S1*A1 = [[0, x^2], [0, 0]] is not
        x = poly_var(2, 0)
        zero, one = Poly.zero(2), Poly.const(2, 1.0)
        a = PolyMatrix.build(2, [[zero, x], [x, zero]])
        s = PolyMatrix.build(2, [[one + x, zero], [zero, one]])
        from specwave.systems import SystemDef

        sysd = SystemDef(name="synthetic", d=1, n=2, A=(a,), S=s)
        assert check_compatibility_AS(sysd) == ["S1*A1_0 not symmetric"]  # proved on coefficients, no samples

    def test_zero_system_passes(self):
        from specwave.systems import SystemDef

        sysd = SystemDef(
            name="zero",
            d=1,
            n=2,
            A=(zero_matrix(2, 2),),
            S=PolyMatrix.from_constant(np.eye(2), 2),
        )
        assert check_compatibility_AS(sysd) == []

    @pytest.mark.parametrize("count", [0, 1, 200])
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_batched_definiteness_matches_point_loop(self, make, count):
        # one batched eigvalsh fails the points a one-by-one loop fails, in
        # sample order and with the same eigenvalues; the points fill twice
        # the sampled box, where every S is indefinite at some
        sysd = make()
        samples = 2.0 * sample_hyperbolic_points(replace(sysd, predicates=()))[:count]
        want = [
            f"S not positive definite at {tuple(p)} (min eig {lam:.3e})"
            for p in samples
            if (lam := np.linalg.eigvalsh(matrix_at(sysd.S, p))[0]) <= 0.0
        ]
        assert check_symmetrizer(sysd, samples) == want
        assert count < 200 or want

    def test_no_point_in_domain_leaves_no_samples(self):
        sysd = replace(saint_venant_1d(), predicates=(("never", Poly.const(2, -1.0)),))
        samples = sample_hyperbolic_points(sysd)
        assert samples.shape == (0, 2)
        assert check_symmetrizer(sysd, samples) == []
        untested = ["S positive definiteness untested: no sample point satisfies the predicates"]
        how = "symmetry exact; positive definite at 0 samples"
        assert check_system(sysd)[1] == ("symmetrizer", "FAIL", how, untested)

    def test_split_exactness(self):
        for factory in ALL_SYSTEMS:
            sysd = factory()
            for j in range(sysd.d):
                recon = PolyMatrix.from_constant(sysd.A0[j], sysd.n) + sysd.A1[j]
                assert recon.equals(sysd.A[j])

    def test_missing_symmetrizer_rejected(self):
        from specwave.systems import SystemDef

        sysd = SystemDef(name="bare", d=1, n=2, A=(zero_matrix(2, 2),))
        with pytest.raises(ValueError):
            check_symmetrizer(sysd, np.empty((0, 2)))

    def test_factorization_needs_factors_and_symmetrizer(self):
        sv = saint_venant_1d()
        for sysd in (replace(sv, SJ0=None), replace(sv, S=None)):
            with pytest.raises(ValueError, match="no factorization"):
                check_factorization(sysd)

    def test_sample_points_deterministic(self):
        sv = saint_venant_1d()
        a = sample_hyperbolic_points(sv)
        b = sample_hyperbolic_points(sv)
        assert np.array_equal(a, b)
        assert all(in_domain(sv, p) for p in a)

    @pytest.mark.parametrize("count", [1, 50, 200])
    @pytest.mark.parametrize("make", [*ALL_SYSTEMS, None], ids=[f.__name__ for f in ALL_SYSTEMS] + ["no-predicates"])
    def test_batched_sampler_matches_point_loop(self, make, count):
        # the batch keeps exactly the points a one-by-one in_domain loop keeps
        sysd = replace(saint_venant_1d(), predicates=()) if make is None else make()
        got = sample_hyperbolic_points(sysd)[:count]
        want = hyperbolic_points_by_point(sysd, count)
        assert got.shape == want.shape == (count, sysd.n)
        assert np.array_equal(got, want)


def margins(sys, state):
    """The margin_<name> monitors of a state, keyed by predicate name."""
    return {name[len("margin_"):]: fn(state) for name, fn in standard_monitors(sys) if name.startswith("margin_")}


class TestMargins:
    def test_init1_margins(self):
        from specwave.initial import build_initial

        g = make_grid(1, 64)
        st = build_initial("init1", {"alpha": 1.5}, g)
        m = margins(saint_venant_1d(), st)
        assert m["U"] >= 0.5
        assert m["UH"] >= 0.5

    def test_init2_margins(self):
        from specwave.initial import build_initial

        g = make_grid(1, 64)
        st = build_initial("init2", {}, g)
        m = margins(saint_venant_1d(), st)
        assert m["U"] > 0.49
        assert m["UH"] <= 0.0

    def test_flat_negative_depth(self):
        g = make_grid(1, 8)
        x = mesh(g)[0]
        st = state_from_samples(g, np.stack([-np.ones_like(x), np.zeros_like(x)]))
        m = margins(saint_venant_1d(), st)
        assert abs(m["U"]) < 1e-12


SV1D, SV2D = saint_venant_1d(), saint_venant_2d_hamiltonian()


class TestHamiltonianEnergy:
    def test_zero_state(self):
        g = make_grid(1, 8)
        st = state_from_samples(g, np.zeros((2,) + g.shape))
        assert hamiltonian_energy(SV1D, st) == 0.0

    def test_flat_depth_sine_velocity(self):
        g = make_grid(1, 32)
        x = mesh(g)[0]
        st = state_from_samples(g, np.stack([np.zeros_like(x), np.sin(x)]))
        assert np.isclose(hamiltonian_energy(SV1D, st), 0.5 * np.pi)

    def test_cubic_term_against_quadrature(self):
        g = make_grid(1, 64)
        x = mesh(g)[0]
        eta = -0.5 * np.cos(x)
        u = np.sin(x)
        st = state_from_samples(g, np.stack([eta, u]))
        assert np.isclose(hamiltonian_energy(SV1D, st), 5 * np.pi / 8)
        direct = 0.5 * quadrature_inner(eta, eta, 1) + 0.5 * quadrature_inner(
            (1 + eta) * u, u, 1
        )
        assert np.isclose(hamiltonian_energy(SV1D, st), direct, rtol=1e-12)

    def test_2d_energy(self):
        g = make_grid(2, 16)
        x, y = mesh(g)
        eta = 0.1 * np.cos(x) * np.cos(y)
        u = np.sin(x) * np.cos(y)
        v = -np.cos(x) * np.sin(y)
        st = state_from_samples(g, np.stack([eta, u, v]))
        direct = 0.5 * quadrature_inner(eta, eta, 2)
        direct += 0.5 * quadrature_inner((1 + eta) * u, u, 2)
        direct += 0.5 * quadrature_inner((1 + eta) * v, v, 2)
        assert np.isclose(hamiltonian_energy(SV2D, st), direct, rtol=1e-12)


    @pytest.mark.parametrize("d, m", [(1, 16), (1, 48), (2, 8), (2, 24)])
    def test_collocation_sum_matches_coefficient_formula(self, d, m):
        def former_energy(state):
            # Parseval on the coefficients, the cubic term through a dealiased square
            eta = state.component(0)
            samp = to_samples(state)
            total = l2_inner(eta, eta)
            for i in range(1, state.n):
                ui = state.component(i)
                sq = dealias(state_from_samples(state.grid, (samp[i] * samp[i])[None]))
                total += l2_inner(ui, ui) + l2_inner(eta, sq)
            return 0.5 * total

        g = make_grid(d, m)
        rng = np.random.default_rng(50 + 10 * d + m)
        for _ in range(5):
            c = rng.normal(size=(d + 1,) + g.shape) + 1j * rng.normal(size=(d + 1,) + g.shape)
            c = hermitian_symmetrize(c, d) * (full_wavenumbers(g).k_inf <= g.dealias_N) / g.two_m
            st = from_coeffs(g, c)
            sysd = SV1D if d == 1 else SV2D
            assert np.isclose(hamiltonian_energy(sysd, st), former_energy(st), rtol=1e-13, atol=0.0)


class TestDerivedEnergyDensity:
    @pytest.mark.parametrize("factory", [saint_venant_1d, saint_venant_2d_hamiltonian])
    def test_shallow_water_density(self, factory):
        # H = (eta^2 + (1+eta)|u|^2) / 2, coefficient by coefficient
        sysd = factory()
        eta = poly_var(sysd.n, 0)
        speed2 = Poly.zero(sysd.n)
        for i in range(1, sysd.n):
            speed2 = speed2 + poly_var(sysd.n, i) * poly_var(sysd.n, i)
        expected = 0.5 * (eta * eta + (Poly.const(sysd.n, 1.0) + eta) * speed2)
        assert sysd.H.terms == expected.terms

    def test_standard_2d_symmetrizer_is_no_hessian(self):
        assert saint_venant_2d_standard().H is None

    def test_no_symmetrizer_no_density(self):
        from specwave.systems import SystemDef

        assert SystemDef(name="bare", d=1, n=2, A=(zero_matrix(2, 2),)).H is None


class TestDerivedFlux:
    @pytest.mark.parametrize("factory", [saint_venant_1d, saint_venant_2d_hamiltonian])
    def test_shallow_water_flux(self, factory):
        # Q = DH - S(0) U = (|u|^2 / 2, eta u_1, ..., eta u_{n-1}), coefficient by coefficient
        sysd = factory()
        eta = poly_var(sysd.n, 0)
        vel = [poly_var(sysd.n, i) for i in range(1, sysd.n)]
        speed2 = Poly.zero(sysd.n)
        for u in vel:
            speed2 = speed2 + u * u
        expected = [0.5 * speed2] + [eta * u for u in vel]
        assert [q.terms for q in sysd.Q] == [e.terms for e in expected]

    def test_no_factorization_no_flux(self):
        assert saint_venant_2d_standard().Q is None
        assert replace(saint_venant_1d(), SJ0=None).Q is None


class TestStandardSymmetrizer1D:
    def test_diagonal_form(self):
        s = energy_symmetrizer(saint_venant_1d())
        assert np.allclose(matrix_at(s, [0.3, 0.7]), [[1.0, 0.0], [0.0, 1.3]])

    def test_same_entries_as_diag(self):
        one, eta, zero = Poly.const(2, 1.0), poly_var(2, 0), Poly.zero(2)
        expected = PolyMatrix.build(2, [[one, zero], [zero, one + eta]])
        assert energy_symmetrizer(saint_venant_1d()) == expected

    def test_symmetrizes_a(self):
        sv = saint_venant_1d()
        s = energy_symmetrizer(sv)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(-0.5, 0.5, size=2)
            sa = matrix_at(s, p) @ matrix_at(sv.A[0], p)
            assert np.max(np.abs(sa - sa.T)) < 1e-14


def test_builtin_lookup():
    assert builtin_system("saint-venant-1d").n == 2
    with pytest.raises(ValueError):
        builtin_system("no-such-system")


@pytest.mark.parametrize("factory", ALL_SYSTEMS)
def test_builtin_file_equals_reference_builder(factory):
    expected = factory()
    parsed = builtin_system(expected.name)
    assert (parsed.name, parsed.d, parsed.n) == (expected.name, expected.d, expected.n)
    assert parsed.A == expected.A
    assert parsed.S == expected.S
    assert parsed.predicates == expected.predicates
    if expected.SJ0 is None:
        assert parsed.SJ0 is None
    else:
        assert len(parsed.SJ0) == len(expected.SJ0)
        for a, b in zip(parsed.SJ0, expected.SJ0):
            assert np.array_equal(a, b) and a.dtype == b.dtype


def test_builtin_files_are_named_after_their_systems():
    assert builtin_names() == sorted(f().name for f in ALL_SYSTEMS)
    for name in builtin_names():
        assert builtin_system(name).name == name
