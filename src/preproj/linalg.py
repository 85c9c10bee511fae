"""Exact linear algebra over the rationals and prime fields, where one
integer core, :func:`_echelon_ints`, does every row reduction for both
kinds of field.

Everything here follows the column-coordinate convention: an r x c matrix
represents a linear map from a c-dimensional space to an r-dimensional space,
acting on column vectors.  A subspace is held as its basis matrix in
reduced column echelon form, the result of :func:`column_echelon`, which
is unique for a given subspace, so two such matrices are equal exactly
when they span the same subspace.

Rational entries are ``Fraction`` values, but the inner loops do not
compute with them.  The core eliminates over F_p on rows normalized mod
p, and over Q fraction-free on integer rows kept primitive;
:func:`_kernel_rows` reads null space vectors off its rows, scaled by an
lcm over Q rather than divided.  :func:`_divide` makes the field
elements, once per returned entry, every zero over Q the one shared
``Fraction(0)``: in :func:`echelon` and :func:`kernel_basis`, which clear
denominators before calling the core, and in ``homext`` (the
presentation, ``apply_d1``, ``inner_derivation`` and the middle-term
builder ``_extension``) and ``module.validate``, which stay on integer
rows until they build their result.  :meth:`Matrix.mul` takes integer
dot products of denominator-cleared factors and divides each entry once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .fields import Field, Scalar


@dataclass(frozen=True)
class Matrix:
    """An immutable exact matrix over a :class:`Field`.

    Args:
        field: the scalar field.
        nrows: number of rows (target dimension).
        ncols: number of columns (source dimension).
        entries: row-major tuple of tuples, entries already normalized.
    """

    field: Field
    nrows: int
    ncols: int
    entries: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.nrows:
            raise ValueError(
                f"expected {self.nrows} rows, got {len(self.entries)}"
            )
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError(
                    f"expected {self.ncols} columns, got a row of length {len(row)}"
                )

    @classmethod
    def from_rows(
        cls,
        field: Field,
        rows: Sequence[Sequence[Union[int, Fraction, str]]],
        ncols: Optional[int] = None,
    ) -> "Matrix":
        """Build a matrix from row data, coercing entries into the field.

        ``ncols`` is only required when ``rows`` is empty.
        """
        rows = [list(r) for r in rows]
        if not rows:
            if ncols is None:
                raise ValueError("ncols required for a matrix with no rows")
            return cls(field, 0, ncols, ())
        width = len(rows[0]) if ncols is None else ncols
        return cls(
            field,
            len(rows),
            width,
            tuple(tuple(field.of(x) for x in row) for row in rows),
        )

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return cls(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(
            field,
            n,
            n,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
        )

    @classmethod
    def from_cols(
        cls,
        field: Field,
        cols: Sequence[Sequence[Union[int, Fraction, str]]],
        nrows: Optional[int] = None,
    ) -> "Matrix":
        """Build a matrix whose columns are the given vectors, as the
        transpose of :meth:`from_rows`.

        ``nrows`` is only required when ``cols`` is empty.
        """
        if not cols and nrows is None:
            raise ValueError("nrows required for a matrix with no columns")
        return cls.from_rows(field, cols, ncols=nrows).transpose()

    @classmethod
    def block(cls, blocks: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a block matrix from a grid of compatible blocks."""
        if not blocks or not blocks[0]:
            raise ValueError("empty block grid")
        field = blocks[0][0].field
        rows: List[Tuple[Scalar, ...]] = []
        width = sum(b.ncols for b in blocks[0])
        for block_row in blocks:
            height = block_row[0].nrows
            for b in block_row:
                if b.nrows != height:
                    raise ValueError("ragged block row heights")
                if b.field != field:
                    raise ValueError("mixed fields in block matrix")
            if sum(b.ncols for b in block_row) != width:
                raise ValueError("ragged block row widths")
            for i in range(height):
                rows.append(
                    tuple(chain.from_iterable(b.entries[i] for b in block_row))
                )
        return cls(field, len(rows), width, tuple(rows))

    def col(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.ncols,
            self.nrows,
            tuple(self.col(j) for j in range(self.ncols)),
        )

    def add(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def sub(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def scale(self, s: Union[int, Fraction]) -> "Matrix":
        """s times every entry; a zero entry stays zero unmultiplied."""
        p, s = self.field.p, self.field.of(s)
        if p is None:
            entries = tuple(tuple(s * a if a else _ZERO for a in r) for r in self.entries)
        else:
            entries = tuple(tuple(s * a % p if a else 0 for a in r) for r in self.entries)
        return Matrix(self.field, self.nrows, self.ncols, entries)

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self * other.

        Over Q both factors are scaled to integer matrices, so each entry
        is an integer dot product divided into a Fraction once.
        """
        if self.field != other.field:
            raise ValueError("matrix product over mixed fields")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = list(zip(*other.entries)) if other.nrows else [()] * other.ncols
        return Matrix(
            self.field,
            self.nrows,
            other.ncols,
            _products(self.field.p, self.entries, cols),
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        """op of the entries of two matrices of one shape, place by place."""
        if self.field != other.field:
            raise ValueError("mixed fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        rows, p = zip(self.entries, other.entries), self.field.p
        # a zero entry of other leaves the entry of self as it is
        if p is None:
            entries = tuple(tuple(op(a, b) if b else a for a, b in zip(*r)) for r in rows)
        else:
            entries = tuple(tuple(op(a, b) % p if b else a for a, b in zip(*r)) for r in rows)
        return Matrix(self.field, self.nrows, self.ncols, entries)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    if not mats:
        raise ValueError("hstack of nothing")
    return Matrix.block([list(mats)])


def _products(
    p: Optional[int],
    rows: Sequence[Sequence[Scalar]],
    cols: Sequence[Sequence[Scalar]],
) -> Tuple[Tuple[Scalar, ...], ...]:
    """The dot product of every row with every column, one result row
    per row: over F_p reduced mod p, over Q an integer dot product of
    denominator-cleared factors divided into a Fraction once."""
    if p is None:
        rows, d = clear_denominators(rows)
        cols, e = clear_denominators(cols)
        return tuple(
            tuple(Fraction(sum(map(mul, r, c)), d * e) for c in cols) for r in rows
        )
    return tuple(tuple(sum(map(mul, r, c)) % p for c in cols) for r in rows)


def echelon(
    vectors: Iterable[Sequence[Scalar]], p: Optional[int] = None
) -> Dict[int, List[Scalar]]:
    """Reduced row echelon basis of the span of the vectors, each row
    keyed by its leading position: over F_p for a prime p, over the
    rationals when p is None.

    The rows are those of :func:`_echelon_ints`.  Over the rationals
    each vector has its denominators cleared first, whether it holds
    ints or Fractions, and each integer row is divided by its leading
    entry into ``Fraction`` entries only at the end.
    """
    if p is not None:
        return _echelon_ints(vectors, p)
    rows = _echelon_ints((clear_denominators([v])[0][0] for v in vectors), None)
    return {q: _divide(row, row[q], None) for q, row in rows.items()}


def _echelon_ints(
    vectors: Iterable[Sequence[int]], p: Optional[int]
) -> Dict[int, Sequence[int]]:
    """The elimination core: an echelon basis of the span of int
    vectors, each row keyed by its leading position and zero at every
    other row's.

    Each vector is cleared against the rows found so far, and the rows
    are cleared at its leading position.  Over F_p (entries normalized
    mod p) each row is scaled to a leading 1, so the rows are the
    nonzero rows of the reduced row echelon form.  Over Q (p None) rows
    are combined by cross-multiplication and kept primitive (entries
    divided by their gcd, leading entry positive), so each row is the
    reduced row echelon row times its leading entry, whatever multiples
    of the vectors come in.  Only the reduction step differs.
    """
    rows: Dict[int, Sequence[int]] = {}
    if p is None:
        for vec in vectors:
            for q, row in rows.items():
                f = vec[q]
                if f:
                    c = row[q]
                    g = gcd(c, f)
                    c, f = c // g, f // g
                    vec = [c * x - f * y for x, y in zip(vec, row)]
            lead = next((j for j, x in enumerate(vec) if x), None)
            if lead is None:
                continue
            vec = _primitive(vec, vec[lead])
            c = vec[lead]
            for q, row in rows.items():
                f = row[lead]
                if f:
                    rows[q] = _primitive([c * x - f * y for x, y in zip(row, vec)], 1)
            rows[lead] = vec
        return rows
    for vec in vectors:
        for q, row in rows.items():
            f = vec[q]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, row)]
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        inv = pow(vec[lead], -1, p)
        vec = [x * inv % p for x in vec]
        for q, row in rows.items():
            f = row[lead]
            if f:
                rows[q] = [(x - f * y) % p for x, y in zip(row, vec)]
        rows[lead] = vec
    return rows


def _kernel_rows(
    rows: Dict[int, Sequence[int]], ncols: int, p: Optional[int]
) -> List[List[int]]:
    """The null space of the core's echelon rows, one vector per free
    column fc in increasing order.

    Over F_p it is the canonical vector: 1 at fc and -row[fc] at each
    row's leading position.  Over Q it is that vector times the lcm L of
    the leading entries c of the rows with row[fc] != 0: L at fc and
    -row[fc] * (L // c) at each leading position, all ints.
    """
    out: List[List[int]] = []
    for fc in range(ncols):
        if fc in rows:
            continue
        hits = [(q, row[fc], row[q]) for q, row in rows.items() if row[fc]]
        vec = [0] * ncols
        if p is None:
            scale = lcm(*(c for _, _, c in hits))
            vec[fc] = scale
            for q, f, c in hits:
                vec[q] = -f * (scale // c)
        else:
            vec[fc] = 1
            for q, f, _ in hits:
                vec[q] = -f % p
        out.append(vec)
    return out


_ZERO = Fraction(0)


def _divide(row: Sequence[int], d: int, p: Optional[int]) -> List[Scalar]:
    """The entries of an int row divided by d as field elements: over Q
    Fractions, every zero the one shared Fraction(0); over F_p ints mod p."""
    if p is None:
        return [Fraction(x, d) if x else _ZERO for x in row]
    inv = pow(d, -1, p)
    return [x * inv % p for x in row]


def _reduced_rows(
    rows: Dict[int, Sequence[int]], p: Optional[int]
) -> List[Sequence[Scalar]]:
    """The core's rows in order of their leading positions, as the
    reduced row echelon rows over the field: divided by the leading
    entry into Fractions over Q, as they are over F_p."""
    return [_divide(rows[q], rows[q][q], p) for q in sorted(rows)]


def clear_denominators(
    rows: Sequence[Sequence[Scalar]],
) -> Tuple[List[List[int]], int]:
    """Integer rows and the least positive d such that each given row of
    ints and Fractions is its integer row divided by d."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


def _primitive(vec: List[int], sign: int) -> List[int]:
    """vec divided by the gcd of its entries, negated if sign < 0."""
    g = gcd(*vec)
    if sign < 0:
        g = -g
    return vec if g == 1 else [x // g for x in vec]


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot column indices."""
    rows = echelon(m.entries, m.field.p)
    pivots = tuple(sorted(rows))
    entries = [tuple(rows[c]) for c in pivots]
    entries += [(m.field.zero(),) * m.ncols] * (m.nrows - len(pivots))
    return Matrix(m.field, m.nrows, m.ncols, tuple(entries)), pivots


def rank(m: Matrix) -> int:
    return len(_echelon_ints(clear_denominators(m.entries)[0], m.field.p))


def kernel_basis(m: Matrix) -> Matrix:
    """A basis of the null space, returned as the columns of a matrix.

    The basis is the canonical one read off the reduced row echelon form:
    one vector per free column, with a 1 in the free coordinate.
    """
    p = m.field.p
    rows = _echelon_ints(clear_denominators(m.entries)[0], p)
    vecs = _kernel_rows(rows, m.ncols, p)
    free = [c for c in range(m.ncols) if c not in rows]
    vecs = [_divide(v, v[c], p) for v, c in zip(vecs, free)]
    return _from_columns(m.field, m.ncols, vecs)


def column_echelon(m: Matrix) -> Matrix:
    """Reduced column echelon form with zero columns dropped.

    This is the canonical basis matrix of the column space: two matrices have
    the same column space exactly when their reduced column echelon forms are
    identical.
    """
    rows = echelon(zip(*m.entries), m.field.p)
    return _from_columns(m.field, m.nrows, [rows[c] for c in sorted(rows)])


def _from_columns(
    field: Field, nrows: int, cols: Sequence[Sequence[Scalar]]
) -> Matrix:
    """The matrix with the given columns, whose entries are already
    normalized field elements, so unlike Matrix.from_cols nothing is
    coerced."""
    entries = tuple(zip(*cols)) if cols else ((),) * nrows
    return Matrix(field, nrows, len(cols), entries)


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a X = b exactly, columnwise.

    Returns:
        A matrix X with a.mul(X) == b, or None when no solution exists.
        The zero solution comes back as an actual zero matrix, never None.
    """
    if a.field != b.field:
        raise ValueError("mixed fields")
    if a.nrows != b.nrows:
        raise ValueError("right hand side has wrong height")
    f = a.field
    reduced, pivots = rref(hstack([a, b]))
    for c in pivots:
        if c >= a.ncols:
            return None
    cols: List[List[Scalar]] = []
    for j in range(b.ncols):
        vec = [f.zero()] * a.ncols
        for i, pc in enumerate(pivots):
            vec[pc] = reduced.entries[i][a.ncols + j]
        cols.append(vec)
    return _from_columns(f, a.ncols, cols)


@dataclass(frozen=True)
class Polynomial:
    """A rational polynomial, coefficients stored from degree 0 upward."""

    coeffs: Tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Union[int, Fraction]]) -> "Polynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Union[int, Fraction]) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class LagrangeWeights(NamedTuple):
    """Interpolation through fixed abscissae as integer linear forms.

    For values y at the abscissae, the interpolating polynomial P has
    ``denominator * (coefficient of X^k) == dot(rows[k], y)`` and
    ``denominator * P(x_i) == dot(at[i], y)`` at the i-th evaluation
    point x_i; ``rows`` is the inverse Vandermonde matrix times
    ``denominator``, the least positive integer that makes every entry
    of ``rows`` and ``at`` integral.
    """

    denominator: int
    rows: Tuple[Tuple[int, ...], ...]
    at: Tuple[Tuple[int, ...], ...]

    def polynomial(self, ys: Sequence[Union[int, Fraction]]) -> Polynomial:
        """The interpolating polynomial of the values ys."""
        return Polynomial.from_coeffs(
            [Fraction(sum(map(mul, row, ys)), self.denominator) for row in self.rows]
        )


@lru_cache(maxsize=256)
def lagrange_weights(
    xs: Tuple[Scalar, ...], points: Tuple[Scalar, ...] = ()
) -> LagrangeWeights:
    """The integer interpolation data of the abscissae xs, evaluated at
    the given points; cached, since fits reuse a few windows of primes.

    Raises:
        ValueError: on a repeated abscissa.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("repeated abscissa in interpolation data")
    # column i of the inverse Vandermonde matrix holds the coefficients of
    # the Lagrange basis polynomial prod_{j != i} (X - x_j) / (x_i - x_j)
    cols: List[List[Fraction]] = []
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [a - xj * b for a, b in zip([0, *basis], [*basis, 0])]
                den *= xi - xj
        cols.append([c / den for c in basis])
    rows = [[col[k] for col in cols] for k in range(len(xs))]
    at = [[Polynomial(tuple(col))(x) for col in cols] for x in points]
    d = lcm(*(c.denominator for row in rows + at for c in row))
    return LagrangeWeights(
        d,
        tuple(tuple(int(c * d) for c in row) for row in rows),
        tuple(tuple(int(c * d) for c in row) for row in at),
    )


def interpolate(points: Sequence[Tuple[Union[int, Fraction], Union[int, Fraction]]]) -> Polynomial:
    """Lagrange interpolation through exact points.

    Args:
        points: (x, y) pairs with pairwise distinct x.

    Raises:
        ValueError: on a repeated abscissa.
    """
    weights = lagrange_weights(tuple(x for x, _ in points))
    return weights.polynomial([Fraction(y) for _, y in points])
