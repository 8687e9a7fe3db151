"""Sparse polynomial and polynomial-matrix arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwave.poly import Poly, PolyMatrix

from oracles import (
    eval_on_zero_filled,
    matrix_at,
    poly_at,
    poly_equals,
    poly_var,
    saint_venant_1d,
    saint_venant_2d_hamiltonian,
    saint_venant_2d_standard,
    zero_matrix,
)


def test_from_terms_merges_and_drops_zeros():
    p = Poly.from_terms(2, [((1, 0), 1.0), ((1, 0), 2.0), ((0, 1), 0.0)])
    assert p.terms == (((1, 0), 3.0),)


def test_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Poly.from_terms(2, [((1,), 1.0)])
    with pytest.raises(ValueError):
        Poly.from_terms(2, [((-1, 0), 1.0)])


def test_evaluation():
    # 2 + 3*x0*x1^2
    p = Poly.from_terms(2, [((0, 0), 2.0), ((1, 2), 3.0)])
    assert poly_at(p, (1.0, 2.0)) == 14.0
    assert poly_at(p, (0.0, 5.0)) == 2.0


def test_diff():
    # d/dx0 of 2 + 3*x0*x1^2 - x0^3 is 3*x1^2 - 3*x0^2; d/dx1 is 6*x0*x1
    p = Poly.from_terms(2, [((0, 0), 2.0), ((1, 2), 3.0), ((3, 0), -1.0)])
    assert p.diff(0).terms == (((0, 2), 3.0), ((2, 0), -3.0))
    assert p.diff(1).terms == (((1, 1), 6.0),)
    assert Poly.const(2, 5.0).diff(0).is_zero()


def test_eval_on_arrays():
    p = Poly.from_terms(2, [((1, 0), 1.0), ((0, 2), -1.0)])
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 0.0, 2.0])
    assert np.allclose(p.eval_on(np.stack([a, b])), a - b**2)


@st.composite
def polys_and_samples(draw):
    """A polynomial in 1-3 variables (constant terms, coefficient 1.0 and
    others, powers up to 3, possibly no term at all) and a stack of samples
    that holds +0.0 and -0.0 among other values."""
    nvars = draw(st.integers(1, 3))
    coeffs = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -2.0]), st.floats(-10.0, 10.0))
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), coeffs), max_size=4))
    size = draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(-100.0, 100.0), min_size=nvars * size, max_size=nvars * size))
    return Poly.from_terms(nvars, terms), np.array(values).reshape(nvars, size)


@settings(max_examples=300, deadline=None)
@given(polys_and_samples())
def test_eval_on_matches_zero_filled_sum_bit_for_bit(case):
    p, samples = case
    got, want = p.eval_on(samples), eval_on_zero_filled(p, samples)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("make_sys", [saint_venant_1d, saint_venant_2d_hamiltonian, saint_venant_2d_standard])
def test_eval_on_point_columns_match_poly_at(make_sys):
    # a point set goes in as columns, points.T: variable i of every point at [i]
    sysd = make_sys()
    points = np.random.default_rng(7).uniform(-0.9, 0.9, size=(9, sysd.n))
    polys = [p for _, p in sysd.predicates] + [p for row in sysd.S.entries for p in row]
    for p in polys + ([sysd.H] if sysd.H is not None else []):
        want = np.array([poly_at(p, point) for point in points])
        assert p.eval_on(points.T).tobytes() == want.tobytes()


def test_eval_on_zero_signs():
    # a sum from zeros never ends in -0.0; a product that is -0.0 stays out of it
    x = np.array([-0.0, 0.0, 2.0])
    for p in (poly_var(1, 0), Poly.from_terms(1, [((1,), -1.0)]), Poly.from_terms(1, [((2,), -3.0)])):
        assert not np.any(np.signbit(p.eval_on(x[None])[:2]))
    assert np.array_equal(Poly.zero(1).eval_on(x[None]), np.zeros(3))


def test_arithmetic():
    x = poly_var(2, 0)
    y = poly_var(2, 1)
    one = Poly.const(2, 1.0)
    q = (x + y) * (x - y) + one
    expected = Poly.from_terms(2, [((2, 0), 1.0), ((0, 2), -1.0), ((0, 0), 1.0)])
    assert poly_equals(q, expected)
    assert q.degree() == 2
    assert q.constant() == 1.0


def test_matrix_eval_and_split():
    x = poly_var(2, 0)
    one = Poly.const(2, 1.0)
    m = PolyMatrix.build(2, [[one + x, one], [Poly.zero(2), x]])
    assert np.allclose(matrix_at(m, [2.0, 0.0]), [[3.0, 1.0], [0.0, 2.0]])
    assert np.allclose(m.constant_part(), [[1.0, 1.0], [0.0, 0.0]])
    recon = PolyMatrix.from_constant(m.constant_part(), 2) + m.minus_constant()
    assert recon.equals(m)


def test_matrix_product_matches_pointwise():
    rng = np.random.default_rng(0)
    x, y = poly_var(2, 0), poly_var(2, 1)
    one = Poly.const(2, 1.0)
    a = PolyMatrix.build(2, [[x, one], [y, x * y]])
    b = PolyMatrix.build(2, [[one + y, x], [x, one]])
    prod = a @ b
    for _ in range(10):
        pt = rng.normal(size=2)
        assert np.allclose(matrix_at(prod, pt), matrix_at(a, pt) @ matrix_at(b, pt), atol=1e-12)


@st.composite
def poly_matrix_pairs(draw):
    """Two n x n polynomial matrices (n <= 4) in 1-3 variables, coefficients
    of either sign from 1e-8 to 1e8, so that products cancel and round."""
    n, nvars = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    coeffs = st.builds(lambda sign, mag: sign * 10.0**mag, st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 8.0))
    polys = st.builds(
        lambda terms: Poly.from_terms(nvars, terms),
        st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), coeffs), max_size=4),
    )
    return [PolyMatrix.build(n, draw(st.lists(st.lists(polys, min_size=n, max_size=n), min_size=n, max_size=n)))
            for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(poly_matrix_pairs())
def test_matrix_product_is_the_fold_over_k(pair):
    # one merge per entry adds each exponent's coefficients in k order,
    # as the sum acc + a[i][k] * b[k][j] over k does, so the bits agree
    a, b = pair
    prod = a @ b
    for i in range(a.n):
        for j in range(a.n):
            acc = Poly.zero(a.nvars)
            for k in range(a.n):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            assert prod.entries[i][j] == acc


def test_symmetry_check():
    x = poly_var(2, 0)
    one = Poly.const(2, 1.0)
    sym = PolyMatrix.build(2, [[one, x], [x, one]])
    asym = PolyMatrix.build(2, [[one, x], [Poly.zero(2), one]])
    assert sym.is_symmetric()
    assert not asym.is_symmetric()


def test_zero_matrix_eval():
    z = zero_matrix(3, 3)
    assert np.allclose(matrix_at(z, [1.0, 2.0, 3.0]), np.zeros((3, 3)))
    assert z.is_zero()
