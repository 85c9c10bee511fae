"""Exact linear algebra: frozen small cases plus seeded randomized laws."""

import random
from fractions import Fraction

import pytest

from preproj.fields import QQ, Field, is_prime, primes
from preproj.linalg import (
    LagrangeWeights,
    Matrix,
    Polynomial,
    Subspace,
    column_echelon,
    hstack,
    interpolate,
    kernel_basis,
    lagrange_weights,
    rank,
    rref,
    solve,
)


def test_is_prime_small_table():
    hits = [n for n in range(40) if is_prime(n)]
    assert hits == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_primes_stream():
    it = primes()
    assert [next(it) for _ in range(6)] == [2, 3, 5, 7, 11, 13]
    it = primes(start=10)
    assert next(it) == 11


def test_field_rejects_composite_order():
    with pytest.raises(ValueError):
        Field(6)


def test_field_f3_inverse():
    f3 = Field(3)
    # 2 * 2 = 4 = 1 mod 3, so the inverse of 2 is 2
    assert f3.inv(2) == 2
    assert f3.of(Fraction(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        f3.of(Fraction(1, 3))


def test_rational_entries_stay_in_lowest_terms():
    m = Matrix.from_rows(QQ, [["2/4", "-3/6"]])
    assert m.entries[0] == (Fraction(1, 2), Fraction(-1, 2))


def test_matrix_product_convention():
    # a 2x3 matrix sends a length-3 column to a length-2 column
    a = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    v = Matrix.from_cols(QQ, [[1, 0, -1]])
    assert a.mul(v) == Matrix.from_cols(QQ, [[-2, -2]])


def test_block_assembly():
    a = Matrix.from_rows(QQ, [[1]])
    z = Matrix.zeros(QQ, 1, 2)
    d = Matrix.from_rows(QQ, [[5], [6]])
    x = Matrix.identity(QQ, 2)
    e = Matrix.block([[a, z], [d, x]])
    assert e == Matrix.from_rows(QQ, [[1, 0, 0], [5, 1, 0], [6, 0, 1]])


def test_rref_rank_kernel_frozen():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    reduced, pivots = rref(m)
    assert pivots == (0,)
    assert reduced == Matrix.from_rows(QQ, [[1, 2], [0, 0]])
    assert rank(m) == 1
    k = kernel_basis(m)
    assert k == Matrix.from_cols(QQ, [[-2, 1]])


def test_solve_over_f3():
    f3 = Field(3)
    a = Matrix.from_rows(f3, [[2]])
    b = Matrix.from_rows(f3, [[1]])
    x = solve(a, b)
    assert x == Matrix.from_rows(f3, [[2]])


def test_solve_distinguishes_zero_solution_from_no_solution():
    a = Matrix.from_rows(QQ, [[1], [0]])
    assert solve(a, Matrix.from_cols(QQ, [[0, 0]])) == Matrix.zeros(QQ, 1, 1)
    assert solve(a, Matrix.from_cols(QQ, [[0, 1]])) is None


def test_empty_shapes():
    a = Matrix.zeros(QQ, 2, 0)
    b = Matrix.zeros(QQ, 0, 3)
    assert a.mul(b) == Matrix.zeros(QQ, 2, 3)
    assert rank(a) == 0
    assert kernel_basis(b).ncols == 3


def test_column_echelon_is_canonical():
    m1 = Matrix.from_cols(QQ, [[1, 2], [2, 4], [0, 1]])
    m2 = Matrix.from_cols(QQ, [[0, 1], [1, 2]])
    assert column_echelon(m1) == column_echelon(m2)
    assert column_echelon(m1).ncols == 2


def test_subspace_equality_and_sum():
    s1 = Subspace.span(Matrix.from_cols(QQ, [[1, 2]]))
    s2 = Subspace.span(Matrix.from_cols(QQ, [[2, 4]]))
    assert s1 == s2
    assert s1.dim == 1
    full = Subspace.span(Matrix.from_cols(QQ, [[1, 2], [1, 0]]))
    assert full == Subspace.full(QQ, 2)
    assert Subspace.zero(QQ, 2).dim == 0


def test_rank_nullity_seeded(rng_seed):
    rng = random.Random(rng_seed + 2)
    for field in (QQ, Field(5)):
        for _ in range(30):
            r = rng.randrange(0, 5)
            c = rng.randrange(0, 5)
            m = Matrix.from_rows(
                field,
                [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)],
                ncols=c,
            )
            assert rank(m) + kernel_basis(m).ncols == c
            assert rank(m) == rank(m.transpose())
            assert column_echelon(m).ncols == rank(m)


def test_mat_pow_and_trace():
    assert Matrix.from_rows(QQ, [[3, 1], [0, 4]]).trace() == 7


def test_interpolate_frozen_quadratic():
    # the unique quadratic through (2,7), (3,13), (5,31) is X^2 + X + 1
    poly = interpolate([(2, 7), (3, 13), (5, 31)])
    assert poly.coeffs == (Fraction(1), Fraction(1), Fraction(1))
    assert poly(1) == 3
    assert poly(7) == 57


def test_interpolate_through_gapped_primes():
    # 2X^3 - X + 5 sampled at primes that are not consecutive
    poly = interpolate([(2, 19), (7, 684), (13, 4386), (23, 24316)])
    assert poly.coeffs == (Fraction(5), Fraction(-1), Fraction(0), Fraction(2))
    assert poly(1) == 6


def test_interpolate_rejects_repeated_abscissa():
    with pytest.raises(ValueError, match="repeated abscissa"):
        interpolate([(2, 1), (2, 2)])
    with pytest.raises(ValueError, match="repeated abscissa"):
        lagrange_weights((3, 5, 3), (1,))


def test_lagrange_weights_frozen():
    # the inverse Vandermonde matrix of (2, 3, 5) has denominators 3, 2, 6
    w = lagrange_weights((2, 3, 5), (1, 7))
    assert w.denominator == 6
    assert w.rows == ((30, -30, 6), (-16, 21, -5), (2, -3, 1))
    assert w.at == ((16, -12, 2), (16, -30, 20))
    # X^2 + X + 1 through (2, 7), (3, 13), (5, 31): 3 at 1, 57 at 7
    ys = (7, 13, 31)
    assert [sum(a * y for a, y in zip(row, ys)) for row in w.rows] == [6, 6, 6]
    assert [sum(a * y for a, y in zip(row, ys)) for row in w.at] == [18, 342]
    assert lagrange_weights((), ()) == LagrangeWeights(1, (), ())


def test_interpolate_roundtrip_seeded(rng_seed):
    rng = random.Random(rng_seed + 3)
    for _ in range(25):
        deg = rng.randrange(0, 5)
        coeffs = [rng.randrange(-9, 10) for _ in range(deg + 1)]
        poly = Polynomial.from_coeffs(coeffs)
        xs = rng.sample(range(-10, 11), deg + 1)
        recovered = interpolate([(x, poly(x)) for x in xs])
        assert recovered == poly


def test_polynomial_degree_and_zero():
    assert Polynomial.from_coeffs([0, 0]).degree == -1
    assert Polynomial.from_coeffs([5]).degree == 0
    assert Polynomial.from_coeffs([1, 2, 0]).coeffs == (Fraction(1), Fraction(2))


def test_hstack_width():
    a = Matrix.identity(QQ, 2)
    b = Matrix.zeros(QQ, 2, 1)
    assert hstack([a, b]).ncols == 3
