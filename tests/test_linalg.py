"""Exact linear algebra: frozen small cases plus seeded randomized laws."""

import random
from fractions import Fraction

import pytest

from preproj.fields import QQ, Field, is_prime, primes
from preproj.linalg import (
    LagrangeWeights,
    Matrix,
    Polynomial,
    column_echelon,
    echelon,
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


def test_field_rejects_composite_order():
    with pytest.raises(ValueError):
        Field(6)


def test_field_f3_inverse():
    f3 = Field(3)
    # 2 * 2 = 4 = 1 mod 3, so the inverse of 2 is 2
    assert rref(Matrix.from_rows(f3, [[2, 1]]))[0] == Matrix.from_rows(f3, [[1, 2]])
    assert f3.of(Fraction(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        f3.of(Fraction(1, 3))


def test_rational_entries_stay_in_lowest_terms():
    m = Matrix.from_rows(QQ, [["2/4", "-3/6"]])
    assert m.entries[0] == (Fraction(1, 2), Fraction(-1, 2))
    assert Matrix.from_cols(QQ, [["2/4"], ["-3/6"]]) == m


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
    assert Matrix.from_cols(QQ, [], nrows=2) == a
    with pytest.raises(ValueError, match="nrows required"):
        Matrix.from_cols(QQ, [])


def test_column_echelon_is_canonical():
    m1 = Matrix.from_cols(QQ, [[1, 2], [2, 4], [0, 1]])
    m2 = Matrix.from_cols(QQ, [[0, 1], [1, 2]])
    assert column_echelon(m1) == column_echelon(m2)
    assert column_echelon(m1).ncols == 2


def test_subspace_equality_and_sum():
    # a subspace is its reduced column echelon basis, equal exactly when
    # the spans are
    s1 = column_echelon(Matrix.from_cols(QQ, [[1, 2]]))
    s2 = column_echelon(Matrix.from_cols(QQ, [[2, 4]]))
    assert s1 == s2
    assert s1.ncols == 1
    full = column_echelon(Matrix.from_cols(QQ, [[1, 2], [1, 0]]))
    assert full == Matrix.identity(QQ, 2)
    assert column_echelon(Matrix.zeros(QQ, 2, 3)) == Matrix.zeros(QQ, 2, 0)


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


def reference_rref(m):
    """Gauss-Jordan elimination column by column with every operation
    dispatched through the Field, the reference for linalg.echelon."""
    f = m.field
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = next((i for i in range(r, m.nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        a = rows[r][c]
        inv = Fraction(1) / a if f.p is None else pow(int(a), -1, f.p)
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Matrix(f, m.nrows, m.ncols, tuple(map(tuple, rows))), tuple(pivots)


def reference_column_echelon(m):
    reduced, pivots = reference_rref(m.transpose())
    cols = [reduced.entries[i] for i in range(len(pivots))]
    return Matrix.from_cols(m.field, cols, nrows=m.nrows)


def reference_kernel_basis(m):
    f = m.field
    reduced, pivots = reference_rref(m)
    cols = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        vec = [f.zero()] * m.ncols
        vec[fc] = f.one()
        for i, pc in enumerate(pivots):
            vec[pc] = f.neg(reduced.entries[i][fc])
        cols.append(vec)
    return Matrix.from_cols(f, cols, nrows=m.ncols)


def reference_solve(a, b):
    f = a.field
    reduced, pivots = reference_rref(hstack([a, b]))
    if any(c >= a.ncols for c in pivots):
        return None
    cols = []
    for j in range(b.ncols):
        vec = [f.zero()] * a.ncols
        for i, pc in enumerate(pivots):
            vec[pc] = reduced.entries[i][a.ncols + j]
        cols.append(vec)
    return Matrix.from_cols(f, cols, nrows=a.ncols)


def typed(m):
    """A matrix's shape and entries with their types, so that 1 and
    Fraction(1) differ."""
    if m is None:
        return None
    return m.nrows, m.ncols, tuple(tuple((type(x), x) for x in r) for r in m.entries)


def random_matrix(rng, field, nrows, ncols):
    """Small entries (fractions over Q), with some rows zeroed and some
    rows repeated so that ranks drop."""
    values = [-3, -2, -1, 0, 0, 0, 1, 2, 3]
    if field.is_rational:
        values += [Fraction(1, 2), Fraction(-2, 3)]
    rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            rows[i] = [0] * ncols
        elif roll < 0.3 and i:
            j = rng.randrange(i)
            c = rng.choice(values)
            rows[i] = [c * x + y for x, y in zip(rows[j], rows[i - 1])]
    return Matrix.from_rows(field, rows, ncols=ncols)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_single_echelon_agrees_with_gauss_jordan_reference(p, rng_seed):
    field = Field(p)
    rng = random.Random(rng_seed + 4 + (p or 0))
    for _ in range(60):
        m = random_matrix(rng, field, rng.randrange(0, 6), rng.randrange(0, 7))
        reduced, pivots = rref(m)
        want, want_pivots = reference_rref(m)
        assert pivots == want_pivots
        assert typed(reduced) == typed(want)
        rows = echelon(m.entries, p)
        assert sorted(rows) == list(pivots)
        got_rows = tuple(tuple(rows[c]) for c in pivots)
        assert typed(Matrix(field, len(pivots), m.ncols, got_rows)) == typed(
            Matrix(field, len(pivots), m.ncols, want.entries[: len(pivots)])
        )
        assert rank(m) == len(want_pivots)
        assert typed(column_echelon(m)) == typed(reference_column_echelon(m))
        assert typed(kernel_basis(m)) == typed(reference_kernel_basis(m))
        for _ in range(2):
            if rng.random() < 0.5:
                x = random_matrix(rng, field, m.ncols, rng.randrange(0, 3))
                b = m.mul(x)
            else:
                b = random_matrix(rng, field, m.nrows, rng.randrange(0, 3))
            got = solve(m, b)
            assert typed(got) == typed(reference_solve(m, b))
            if got is not None:
                assert m.mul(got) == b



def heavy_rational_matrix(rng, nrows, ncols):
    """Entries with large and mixed denominators, with zero rows and rows
    that are rational multiples or rational combinations of earlier ones,
    so that ranks drop and the integer rows of echelon grow."""
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 7), Fraction(-5, 12)]
    values += [Fraction(10**6, 3), Fraction(-9, 8), Fraction(3, 11), Fraction(22, 13)]
    rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        roll = rng.random()
        if roll < 0.1:
            rows[i] = [0] * ncols
        elif roll < 0.3:
            c = rng.choice([Fraction(-7, 5), Fraction(1, 6), Fraction(10**6, 7), 3])
            rows[i] = [c * x for x in rows[rng.randrange(i)]]
        elif roll < 0.45:
            j, k = rng.randrange(i), rng.randrange(i)
            a, b = rng.choice(values[3:]), rng.choice(values[3:])
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return Matrix.from_rows(QQ, rows, ncols=ncols)


def test_rational_echelon_agrees_with_reference_on_large_denominators(rng_seed):
    # the rational branch eliminates over integer rows and makes Fractions
    # only at the end; the reference works with Fractions throughout
    rng = random.Random(rng_seed + 5)
    for _ in range(25):
        m = heavy_rational_matrix(rng, rng.randrange(1, 13), rng.randrange(1, 17))
        reduced, pivots = rref(m)
        want, want_pivots = reference_rref(m)
        assert pivots == want_pivots
        assert typed(reduced) == typed(want)
        rows = echelon(m.entries)
        assert sorted(rows) == list(pivots)
        got_rows = tuple(tuple(rows[c]) for c in pivots)
        assert typed(Matrix(QQ, len(pivots), m.ncols, got_rows)) == typed(
            Matrix(QQ, len(pivots), m.ncols, want.entries[: len(pivots)])
        )
        assert rank(m) == len(want_pivots)
        assert typed(column_echelon(m)) == typed(reference_column_echelon(m))
        assert typed(kernel_basis(m)) == typed(reference_kernel_basis(m))
        for b in (
            m.mul(heavy_rational_matrix(rng, m.ncols, rng.randrange(1, 4))),
            heavy_rational_matrix(rng, m.nrows, rng.randrange(1, 4)),
        ):
            got = solve(m, b)
            assert typed(got) == typed(reference_solve(m, b))
            if got is not None:
                assert m.mul(got) == b


def test_rational_echelon_of_plain_int_vectors():
    # ints in, the reduced row echelon form with Fraction entries out
    vectors = [[2, 4, 6, 0], [3, 6, 9, 0], [0, 0, 0, 0], [1, -1, 0, 5]]
    vectors.append([0, 3, 4, -7])
    rows = echelon(vectors)
    want, pivots = reference_rref(Matrix.from_rows(QQ, vectors))
    assert sorted(rows) == list(pivots) == [0, 1, 2]
    for i, c in enumerate(pivots):
        assert [(type(x), x) for x in rows[c]] == [(Fraction, x) for x in want.entries[i]]
    assert echelon([[0, 0], [0, 0]]) == {}
    assert echelon([]) == {}
    assert [(type(x), x) for x in echelon([[0, -4, 6]])[1]] == [
        (Fraction, 0), (Fraction, 1), (Fraction, Fraction(-3, 2))
    ]


def reference_product(a, b):
    """The matrix product with every operation dispatched through the Field."""
    f = a.field
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = f.zero()
            for k in range(a.ncols):
                acc = f.add(acc, f.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return Matrix(f, a.nrows, b.ncols, tuple(rows))


@pytest.mark.parametrize("p", [None, 5, 7])
def test_matrix_product_agrees_with_field_reference(p, rng_seed):
    field = Field(p)
    rng = random.Random(rng_seed + 6 + (p or 0))
    for _ in range(40):
        r, k, c = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 5)
        if p is None:
            a, b = heavy_rational_matrix(rng, r, k), heavy_rational_matrix(rng, k, c)
        else:
            a, b = random_matrix(rng, field, r, k), random_matrix(rng, field, k, c)
        assert typed(a.mul(b)) == typed(reference_product(a, b))
