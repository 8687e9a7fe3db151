"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a pass/fail line (visible with -s or in failure output).
One check is known to fail at its stated parameters: test_c01b, whose
smooth-nl EOC leaves the bracket on the middle rows because its error in
the filter's transition band is still pre-asymptotic at T = 0.1; its
docstring carries the measured band decomposition.
"""

import math

import numpy as np
import pytest

from specwave.analysis import (
    convergence_study,
    jn_study,
    relative_error,
)
from specwave.cli import main
from specwave.initial import build_initial
from specwave.semidisc import SchemeSpec, rhs
from specwave.spectral import (
    dealias,
    make_grid,
    sobolev_norm,
    state_from_samples,
    to_samples,
)
from specwave.systems import (
    check_compatibility_AS,
    check_factorization,
    check_symmetrizer,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    saint_venant_2d_standard,
)
from specwave.timeint import EvolveConfig, evolve, monitor_csv, rk4_step, second_derivative_max

from oracles import (
    coeffs_from_dict,
    convolve_dicts,
    from_coeffs,
    naive_inverse,
    phase_conj,
    random_band_limited,
    truncate_dict,
)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Shared expensive runs


@pytest.fixture(scope="session")
def study_1d():
    """Criterion 1/2 study: init1, both filters, 2M = 2^5..2^9 vs 2M = 2^11."""
    return convergence_study(
        saint_venant_1d(),
        ["sharp", "smooth-nl"],
        "init1",
        {"alpha": 1.5},
        M_list=[16, 32, 64, 128, 256],
        M_ref=1024,
        cfg=EvolveConfig(dt=1e-4, T=0.1),
    )


@pytest.fixture(scope="session")
def zero_depth_runs():
    """Criterion 7 runs: init_zero_depth at 2M = 2^10 and 2^11, T = 0.1."""
    sv = saint_venant_1d()
    out = {}
    for M in (512, 1024):
        grid = make_grid(1, M)
        st0 = build_initial("init_zero_depth", {}, grid)
        for kind in ("sharp", "smooth-nl"):
            res = evolve(SchemeSpec(kind), sv, st0, EvolveConfig(dt=1e-4, T=0.1))
            assert res.completed
            out[(2 * M, kind)] = second_derivative_max(res.final_state)
    return out


@pytest.fixture(scope="session")
def strict_hyperbolicity_runs():
    """Criterion 8 runs: init2D with u_l = -v_l = 2, dt = 1e-3, T = 0.1.

    Keys are (system, scheme, 2M).  The Hamiltonian system runs with the
    sharp and the smooth-nl filter at 2M = 2^7 and 2^8, so that c08a can
    measure how the sharp/smooth-nl gap grows with resolution; the
    standard system runs with the sharp filter at 2M = 2^8 for c08b.

    These data leave the strict hyperbolicity domain (|u|^2 reaches 4
    while 1 + eta stays in [0.5, 1.5]) but not the hyperbolic one: on the initial
    data at 2M = 2^8 every xi.A(U) (181 directions, all grid points) has
    real eigenvalues, the smallest gap between two of them is 1.4e-6, and
    the Hamiltonian symmetrizer S(U) = D^2 H is indefinite (smallest
    eigenvalue -1.02).  Nothing bounds the sharp scheme's energy, so its
    instability grows algebraically, faster at higher N, instead of
    blowing up.  The 2^7 pair costs about 13 s beside the 2^8 runs.
    """
    params = dict(h0=0.5, u_l=2, v_l=-2, u_h=1, v_h=-1, s=2)
    cfg = EvolveConfig(dt=1e-3, T=0.1)
    ham = saint_venant_2d_hamiltonian()
    out = {}
    for M in (64, 128):
        st0 = build_initial("init2D", params, make_grid(2, M))
        for kind in ("sharp", "smooth-nl"):
            out[("hamiltonian", kind, 2 * M)] = evolve(SchemeSpec(kind), ham, st0, cfg)
    # st0 is left at the 2M = 2^8 data by the last pass
    out[("standard", "sharp", 256)] = evolve(
        SchemeSpec("sharp"), saint_venant_2d_standard(), st0, cfg
    )
    return out


def middle_rows(study, scheme):
    """EOC rows of one scheme excluding the first and the last."""
    rows = sorted((r for r in study.rows if r.scheme == scheme and r.eocs), key=lambda r: r.M)
    return rows[1:-1]


# ---------------------------------------------------------------------------
# Criteria


def test_c01a_eoc_reproduction_sharp(study_1d):
    """Criterion 1, sharp filter: middle-row EOC0 in [1.8, 2.2], EOC1 in [0.85, 1.15]."""
    rows = middle_rows(study_1d, "sharp")
    assert rows, "study produced no middle rows"
    ok = True
    for row in rows:
        ok &= 1.8 <= row.eocs[0.0] <= 2.2
        ok &= 0.85 <= row.eocs[1.0] <= 1.15
    detail = ", ".join(
        f"2M={row.two_m}: EOC0={row.eocs[0.0]:.2f} EOC1={row.eocs[1.0]:.2f}" for row in rows
    )
    report("criterion 1 sharp", ok, detail)
    assert ok, detail


def test_c01b_eoc_reproduction_smooth_nl(study_1d):
    """Criterion 1, smooth filter on nonlinear terms: same brackets.

    Known red at T = 0.1: the middle rows measure EOC0/EOC1 = 2.11/1.04
    at 2M = 64 and 1.36/0.53 at 2M = 128.  The cause is a pre-asymptotic
    error in the filter's transition band N/2 < |k| <= N.  Relative H^0
    error at 2M = 128/256/512/1024 against a 2M = 2^12 reference, split
    by band:

    - |k| <= N/2: 9.9e-5, 2.4e-5, 6.7e-6, 1.6e-6 (second order);
    - N/2 < |k| <= N: 6.3e-4, 2.7e-4, 1.05e-4, 2.9e-5 (EOC 1.21, 1.38,
      1.85), which dominates the total; the total EOC0 returns to 1.86
      at 512 -> 1024.

    Ruled out: the filter profile (a cos^2 or a C-infinity transition on
    the same band gives EOC0 1.45 / 1.43 on the failing row) and the
    reference (the study's 2M = 2^11 reference and a 2^12 one give every
    EOC to the same two digits).  On the same data the sharp and
    smooth-all schemes pass the bracket, and the right-hand side matches
    an exact convolution oracle for all three schemes.  At T = 0.5 the
    total EOC0 on 2M = 128 -> 256 -> 512 -> 1024 is 1.95/1.96/1.95, but
    the |k| <= N/2 part decays at only 1.67/1.42/1.63: the later time
    hides the slower part behind a larger transition-band error, it does
    not remove it.  Whether this bracket at this final time is one the
    smooth-nl scheme promises rests on the paper's smooth-filter
    convergence table, which PAPER.md does
    not hold; the study and the bracket below are asserted as specified.
    """
    rows = middle_rows(study_1d, "smooth-nl")
    assert rows
    ok = True
    for row in rows:
        ok &= 1.8 <= row.eocs[0.0] <= 2.2
        ok &= 0.85 <= row.eocs[1.0] <= 1.15
    detail = ", ".join(
        f"2M={row.two_m}: EOC0={row.eocs[0.0]:.2f} EOC1={row.eocs[1.0]:.2f}" for row in rows
    )
    report("criterion 1 smooth-nl", ok, detail)
    assert ok, detail


def test_c02_smooth_error_offset(study_1d):
    """Criterion 2: smooth-filter E0 >= sharp-filter E0 on every row."""
    sharp = {r.M: r.errors[0.0] for r in study_1d.rows if r.scheme == "sharp"}
    smooth = {r.M: r.errors[0.0] for r in study_1d.rows if r.scheme == "smooth-nl"}
    ratios = {m: smooth[m] / sharp[m] for m in sharp}
    ok = all(ratio >= 1.0 for ratio in ratios.values())
    detail = ", ".join(f"2M={2*m}: {r:.2f}" for m, r in sorted(ratios.items()))
    report("criterion 2", ok, f"smooth/sharp E0 ratios {detail}")
    assert ok, detail


def test_c03_jn_linear_growth():
    """Criterion 3: probe slope within 10% of -pi/8; residual bounded in N."""
    study = jn_study(saint_venant_1d(), [32, 64, 128, 256], p=1, q=0)
    slope = study["slope"]
    slope_ok = abs(slope - (-math.pi / 8)) <= 0.1 * math.pi / 8
    residuals = [abs(j + math.pi * n / 8) for n, j in zip(study["N"], study["J"])]
    # single-mode backgrounds make the pairing exactly linear, so the
    # residuals are pure round-off; the absolute floor keeps the 3x ratio
    # test meaningful at machine precision
    resid_ok = max(residuals) <= max(3.0 * residuals[0], 1e-8)
    ok = slope_ok and resid_ok
    report(
        "criterion 3",
        ok,
        f"slope={slope:.6f} (target {-math.pi/8:.6f}), residuals={residuals}",
    )
    assert ok


def test_c04_projection_error_law():
    """Criterion 4: tail slopes match r - s within 0.15 for (r,s) in {(0,2),(1,2)}."""
    s, eps = 2.0, 0.05
    grid = make_grid(1, 2048)
    coeffs = np.zeros(grid.shape, dtype=complex)
    for k in range(1, grid.M):
        amp = (1.0 + k * k) ** (-(s + 0.5 + eps) / 2.0)
        coeffs[k] = -0.5j * amp
        coeffs[-k] = 0.5j * amp
    st = from_coeffs(grid, coeffs[None])
    ns = [64, 128, 256, 512]
    ok = True
    details = []
    for r in (0.0, 1.0):
        errs = []
        for n in ns:
            tail = st.coeffs * (np.abs(grid.kmesh[0]) > n)
            errs.append(sobolev_norm(from_coeffs(grid, tail), r) / sobolev_norm(st, s))
        slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
        ok &= abs(slope - (r - s)) <= 0.15
        details.append(f"(r={r:g},s={s:g}): slope={slope:.3f}")
    report("criterion 4", ok, "; ".join(details))
    assert ok


def test_c05_dealiasing_oracle_equivalence():
    """Criterion 5: 100 random quadratic products match brute-force convolution."""
    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    for m in (8, 12, 16):
        grid = make_grid(1, m)
        n_cut = grid.dealias_N
        for _ in range(20):
            a = random_band_limited(rng, grid.two_m, n_cut)
            b = random_band_limited(rng, grid.two_m, n_cut)
            fa = state_from_samples(grid, naive_inverse(a, grid.axis_points)[None])
            fb = state_from_samples(grid, naive_inverse(b, grid.axis_points)[None])
            prod = dealias(state_from_samples(grid, to_samples(fa) * to_samples(fb)))
            expected = coeffs_from_dict(truncate_dict(convolve_dicts(a, b), n_cut), grid.modes, 1)
            scale = max(np.max(np.abs(expected)), 1.0)
            worst = max(worst, np.max(np.abs(prod.coeffs - expected)) / scale)
            checked += 1
    for m in (6, 8):
        grid = make_grid(2, m)
        n_cut = grid.dealias_N

        def sample_2d(spec):
            out = np.zeros(grid.shape, dtype=complex)
            for (k1, k2), v in spec.items():
                out += v * np.exp(1j * (k1 * grid.mesh[0] + k2 * grid.mesh[1]))
            return out.real

        for _ in range(20):
            a = random_band_limited(rng, grid.two_m, n_cut, ndim=2)
            b = random_band_limited(rng, grid.two_m, n_cut, ndim=2)
            prod = dealias(state_from_samples(grid, (sample_2d(a) * sample_2d(b))[None]))
            expected = coeffs_from_dict(truncate_dict(convolve_dicts(a, b), n_cut), grid.modes, 2)
            scale = max(np.max(np.abs(expected)), 1.0)
            worst = max(worst, np.max(np.abs(prod.coeffs - expected)) / scale)
            checked += 1
    ok = checked == 100 and worst < 1e-11
    report("criterion 5", ok, f"{checked} products, worst relative gap {worst:.2e}")
    assert ok


def test_c06_structural_checks():
    """Criterion 6: all applicable structural checks pass for the built-ins."""
    systems = [saint_venant_1d(), saint_venant_2d_standard(), saint_venant_2d_hamiltonian()]
    ok = True
    details = []
    for sysd in systems:
        sym = check_symmetrizer(sysd)
        compat = check_compatibility_AS(sysd)
        parts = [f"symmetrizer={'ok' if sym.passed else 'FAIL'}",
                 f"compat={'ok' if compat.passed else 'FAIL'}"]
        ok &= sym.passed and compat.passed
        if sysd.SJ0 is not None:
            fact = check_factorization(sysd)
            ok &= fact.passed
            parts.append(f"factorization={'ok' if fact.passed else 'FAIL'}")
        details.append(f"{sysd.name}: {', '.join(parts)}")
    # exact coefficient-level factorization must hold for the two systems
    assert check_factorization(saint_venant_1d()).passed
    assert check_factorization(saint_venant_2d_hamiltonian()).passed
    for name in ("saint-venant-1d", "saint-venant-2d-standard", "saint-venant-2d-hamiltonian"):
        ok &= main(["check-system", name]) == 0
    report("criterion 6", ok, "; ".join(details))
    assert ok


def test_c07_zero_depth_contrast(zero_depth_runs):
    """Criterion 7: sharp curvature exceeds smooth by >= 5x, growing with 2M."""
    r10 = zero_depth_runs[(1024, "sharp")] / zero_depth_runs[(1024, "smooth-nl")]
    r11 = zero_depth_runs[(2048, "sharp")] / zero_depth_runs[(2048, "smooth-nl")]
    ok = r10 >= 5.0 and r11 > r10
    # regression values pinned from the first run of this configuration
    pinned = {
        (1024, "sharp"): 22.4989,
        (1024, "smooth-nl"): 1.47077,
        (2048, "sharp"): 46.0242,
        (2048, "smooth-nl"): 1.40933,
    }
    for key, expected in pinned.items():
        ok &= abs(zero_depth_runs[key] - expected) <= 0.10 * expected
    report(
        "criterion 7",
        ok,
        f"ratio(2M=1024)={r10:.2f}, ratio(2M=2048)={r11:.2f}, values={zero_depth_runs}",
    )
    assert ok


def test_c08a_hamiltonian_sharp_instability_contrast(strict_hyperbolicity_runs):
    """Criterion 8, first half: the sharp filter is not uniformly stable in N.

    Outside the strict hyperbolicity domain the sharp run at 2M = 2^8
    either blows up, or its u-curvature gap to smooth-nl grows with
    resolution while smooth-nl stays put: ratio(2^8) / ratio(2^7) >= 1.25
    and the smooth-nl curvature moves by at most 25% from 2^7 to 2^8.

    Measured at T = 0.1 (max|d^2u/dx^2|, sharp / smooth-nl): 3.835 / 2.893
    = 1.33 at 2M = 2^7 and 6.726 / 3.266 = 2.06 at 2^8, i.e. growth 1.55
    and smooth-nl +13%.  At 2^9 with dt = 5e-4 it is 14.23 / 2.893 = 4.9,
    growth 2.4, and an earlier 2^10 run gave 14, growth 2.9: the ratio
    rises faster the finer the grid.  Against time the ratio is not
    monotone: it peaks near t = 0.3 (2.3 at 2^7, 4.5 at 2^8) and falls to
    1.2 at t = 0.45 at 2^7, where both schemes steepen and both
    curvatures grow by orders of magnitude; no run at 2^7 blows up up to
    T = 1.  T = 0.1 stays before that steepening.  The floors 1.25 and
    25% are conservative lower bounds below the measured trend (growth
    1.55, 2.4, 2.9 per doubling; smooth-nl +13%), not values pinned from
    one run, and a uniformly stable pair does not reach them.  Control,
    same data and measure on saint-venant-2d-standard: the ratio goes
    0.97 -> 0.88 (sharp 2.81 -> 2.86, smooth-nl 2.89 -> 3.27), growth
    0.90, and this assertion fails there.
    """
    runs = strict_hyperbolicity_runs
    blew_up = runs[("hamiltonian", "sharp", 256)].status == "blowup"
    d2 = {
        (kind, two_m): second_derivative_max(runs[("hamiltonian", kind, two_m)].final_state)
        for kind in ("sharp", "smooth-nl")
        for two_m in (128, 256)
    }
    ratio = {two_m: d2[("sharp", two_m)] / d2[("smooth-nl", two_m)] for two_m in (128, 256)}
    growth = ratio[256] / ratio[128]
    smooth_drift = abs(d2[("smooth-nl", 256)] / d2[("smooth-nl", 128)] - 1.0)
    ok = blew_up or (growth >= 1.25 and smooth_drift <= 0.25)
    report(
        "criterion 8a",
        ok,
        f"sharp status={runs[('hamiltonian', 'sharp', 256)].status}, "
        f"curvature ratio {ratio[128]:.2f} (2M=128) -> {ratio[256]:.2f} (2M=256), "
        f"growth {growth:.2f}, smooth-nl drift {smooth_drift:.2f}, values={d2}",
    )
    assert ok


def test_c08b_standard_system_completes(strict_hyperbolicity_runs):
    """Criterion 8, second half: the standard system completes on the same data."""
    res = strict_hyperbolicity_runs[("standard", "sharp", 256)]
    ok = res.completed
    report("criterion 8b", ok, f"standard sharp status={res.status}")
    assert ok


def test_c09_hamiltonian_drift(drift_run_1d):
    """Criterion 9: relative energy drift <= 1e-8 (sharp, 2M=2^8, dt=1e-5, T=0.05).

    The run is the first 5000 steps of the shared drift_run_1d (see conftest).
    """
    res = drift_run_1d
    assert res.completed
    i_h = res.monitor_names.index("hamiltonian")
    h0 = res.monitor_rows[0][1 + i_h]
    t_final, h_final = res.monitor_rows[1][0], res.monitor_rows[1][1 + i_h]
    assert math.isclose(t_final, 0.05)
    drift = abs(h_final - h0) / abs(h0)
    ok = drift <= 1e-8
    report("criterion 9", ok, f"relative drift {drift:.3e}")
    assert ok


def test_c10_property_suites():
    """Criterion 10: spot-check of the invariant suites (full detail in the
    dedicated test modules for the spectral core, systems, semi-discrete
    operators, time integration and analysis)."""
    rng = np.random.default_rng(0)
    sv = saint_venant_1d()
    grid = make_grid(1, 32)

    # round trip and Parseval
    vals = rng.normal(size=(2,) + grid.shape)
    st = state_from_samples(grid, vals)
    ok = np.max(np.abs(to_samples(st) - vals)) < 1e-12
    direct = np.sqrt(np.sum(vals**2) * 2 * np.pi / grid.npoints)
    ok &= np.isclose(sobolev_norm(st, 0), direct, rtol=1e-12)

    # support invariance and reality of the rhs
    st = dealias(st)
    out = rhs(SchemeSpec("sharp"), sv, st)
    ok &= np.max(np.abs(out.coeffs[:, np.abs(grid.kmesh[0]) > grid.dealias_N])) == 0.0
    samp = np.fft.ifft(out.coeffs * phase_conj(grid)) * grid.npoints
    ok &= np.max(np.abs(samp.imag)) < 1e-12

    # determinism of evolution
    st0 = build_initial("init1", {"alpha": 1.5}, grid)
    cfg = EvolveConfig(dt=1e-3, T=0.02)
    r1 = evolve(SchemeSpec("smooth-nl"), sv, st0, cfg)
    r2 = evolve(SchemeSpec("smooth-nl"), sv, st0, cfg)
    ok &= np.array_equal(r1.final_state.coeffs, r2.final_state.coeffs)
    ok &= monitor_csv(r1) == monitor_csv(r2)

    # measured RK4 order >= 3.7
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        finals[dt] = evolve(SchemeSpec("sharp"), sv, st0, EvolveConfig(dt=dt, T=0.08)).final_state
    order = math.log2(
        sobolev_norm(finals[4e-3] - finals[2e-3], 0)
        / sobolev_norm(finals[2e-3] - finals[1e-3], 0)
    )
    ok &= order >= 3.7
    report("criterion 10", bool(ok), f"spot checks ok, RK4 order {order:.2f}")
    assert ok
