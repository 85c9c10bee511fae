"""Finite dimensional nilpotent modules over a preprojective algebra.

A module assigns to every vertex v a space k^{d_v} and to every doubled arrow
``b`` a matrix ``x(b)`` of shape d_{target} x d_{source}.  It is a module over
the preprojective algebra when at every vertex i

    sum over arrows b of the double with source i of
        (-1)^{sign(b)} x(bar b) x(b)  =  0,

and it is nilpotent when the chain of graded subspaces
W_0 = everything, W_{k+1} = span of all x(b)(W_k) reaches zero.

:func:`validate` checks both on int rows, the actions times one common
denominator D (:func:`_int_actions`, which ``homext`` and ``verify``
share); each module clears its own actions once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from math import lcm
from operator import mul
from typing import Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .fields import Field, Scalar
from .linalg import Matrix, _divide, _echelon_ints, clear_denominators, echelon
from .quiver import DimVector, DoubleQuiver, Quiver

Rows = Tuple[Tuple[Scalar, ...], ...]
IntRows = Sequence[Sequence[int]]


class BadPrime(ValueError):
    """A rational module cannot be reduced at this prime."""


def _arrow_shapes(
    dq: DoubleQuiver, source_dim: DimVector, target_dim: DimVector
) -> Tuple[Tuple[int, int], ...]:
    """The shape dim N_{e(b)} x dim M_{s(b)} of each doubled arrow b's
    block, for blocks from M (``source_dim``) to N (``target_dim``)."""
    idx = dq.base.vertex_index
    return tuple(
        (target_dim[idx[a.target]], source_dim[idx[a.source]]) for a in dq.arrows
    )


def _check_blocks(
    blocks: Sequence[Matrix],
    shapes: Sequence[Tuple[int, int]],
    field: Field,
    what: str,
    names: Iterable[str],
) -> None:
    """Check one block per shape, each of that shape and over ``field``; a
    failure names the block by ``what`` (as "action of arrow") and name."""
    if len(blocks) != len(shapes):
        raise ValueError(
            f"expected {len(shapes)} blocks, one per {what.split()[-1]}, "
            f"got {len(blocks)}"
        )
    for name, block, (r, c) in zip(names, blocks, shapes):
        if block.nrows != r or block.ncols != c:
            raise ValueError(
                f"{what} {name} has shape {block.nrows}x{block.ncols}, "
                f"expected {r}x{c}"
            )
        if block.field != field:
            raise ValueError(f"{what} {name} is over the wrong field")


def _arrow_blocks(
    dq: DoubleQuiver,
    field: Field,
    shapes: Sequence[Tuple[int, int]],
    given: Mapping[str, Union[Matrix, Sequence[Sequence[Union[int, Fraction, str]]]]],
) -> Tuple[Matrix, ...]:
    """One block per doubled arrow from a partial mapping by arrow name:
    zeros where omitted, ``Matrix`` values as given (left to
    :func:`_check_blocks`), row data coerced into the field.

    Raises:
        ValueError: an unknown arrow name, or row data that cannot be
            coerced (a ragged row, a row given as a string, an unparsable
            scalar, a denominator divisible by p), naming the arrow.
    """
    for name in given:
        if name not in dq.arrow_index:
            raise ValueError(f"unknown arrow {name!r}")
    blocks: List[Matrix] = []
    for name, (r, c) in zip(dq.arrow_index, shapes):
        data = given.get(name)
        if data is None:
            blocks.append(Matrix.zeros(field, r, c))
        elif isinstance(data, Matrix):
            blocks.append(data)
        else:
            try:
                rows = list(data)
                if any(isinstance(row, str) for row in rows):
                    raise TypeError("a row is a string, not a sequence of scalars")
                blocks.append(Matrix.from_rows(field, rows, ncols=c))
            except (ValueError, ZeroDivisionError, TypeError) as err:
                raise ValueError(f"bad matrix for arrow {name!r}: {err}") from None
    return tuple(blocks)


@dataclass(frozen=True)
class LambdaModule:
    """A graded space with doubled-arrow actions.

    The action tuple is aligned with ``dq.arrows``.  Construction checks the
    matrix shapes only; call :func:`validate` for the relations and
    nilpotency.
    """

    dq: DoubleQuiver
    field: Field
    dim: DimVector
    action: Tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.dim) != len(self.dq.base.vertices):
            raise ValueError("dimension vector length differs from vertex count")
        if any(d < 0 for d in self.dim):
            raise ValueError("negative dimension")
        shapes = _arrow_shapes(self.dq, self.dim, self.dim)
        _check_blocks(
            self.action, shapes, self.field, "action of arrow", self.dq.arrow_index
        )

    @classmethod
    def build(
        cls,
        dq: DoubleQuiver,
        field: Field,
        dim: Union[DimVector, Mapping[str, int]],
        action: Mapping[str, Union[Matrix, Sequence[Sequence[Union[int, Fraction, str]]]]],
    ) -> "LambdaModule":
        """Build a module, filling omitted arrows with zero matrices.

        Module files are read through this method; ``serialize`` checks
        only their JSON layout.

        Args:
            dim: dimension vector as tuple (vertex order) or mapping by name.
            action: matrices (or row data) keyed by doubled-arrow name;
                row data is coerced into the field.

        Raises:
            ValueError: unknown vertex or arrow names, a dimension tuple
                of the wrong length, a dimension that is not a whole number
                (a non-negative int), row data that cannot be coerced
                (ragged rows, rows given as strings, unparsable scalars, a
                denominator divisible by p), or a matrix of the wrong
                shape or field; the message names the vertex or arrow.
        """
        verts = dq.base.vertices
        idx = dq.base.vertex_index
        if isinstance(dim, Mapping):
            for v in dim:
                if v not in idx:
                    raise ValueError(f"dimension given for unknown vertex {v!r}")
            dim_vec = tuple(dim.get(v, 0) for v in verts)
        else:
            dim_vec = tuple(dim)
            if len(dim_vec) != len(verts):
                raise ValueError(
                    f"dimension vector has {len(dim_vec)} entries, "
                    f"expected {len(verts)}, one per vertex"
                )
        for v, d in zip(verts, dim_vec):
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ValueError(
                    f"dimension {d!r} at vertex {v!r} must be a whole number"
                )
        shapes = _arrow_shapes(dq, dim_vec, dim_vec)
        return cls(dq, field, dim_vec, _arrow_blocks(dq, field, shapes, action))

    def x(self, arrow_name: str) -> Matrix:
        """The action matrix of a doubled arrow."""
        return self.action[self.dq.arrow_index[arrow_name]]

    def dim_of(self, v: str) -> int:
        return self.dim[self.dq.base.vertex_index[v]]

    @property
    def quiver(self) -> Quiver:
        return self.dq.base

    @cached_property
    def _int_rows(self) -> Tuple[Tuple[IntRows, ...], int]:
        """The action matrices as int rows times D, and D: the least
        common denominator of their entries, 1 over F_p; cleared once
        per module, read through :func:`_int_actions`, and held as
        tuples, since every caller reads the same rows."""
        flat, scale = clear_denominators([r for x in self.action for r in x.entries])
        rows = map(tuple, flat)
        return tuple(tuple(islice(rows, x.nrows)) for x in self.action), scale


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: offending residuals and nilpotency."""

    residuals: Tuple[Tuple[str, Matrix], ...]
    nilpotent: bool

    @property
    def ok(self) -> bool:
        return not self.residuals and self.nilpotent


def _int_actions(*modules: LambdaModule) -> Tuple[List[Sequence[IntRows]], int]:
    """Each module's action matrices as int rows, all times one common
    denominator D, and D: the least one over Q, 1 over F_p.

    D is the lcm of the modules' own least denominators, so each
    module's own rows (``LambdaModule._int_rows``, cleared once per
    module) are read as they are when its denominator is D, and else
    multiplied by D over it.
    """
    scale = lcm(*(m._int_rows[1] for m in modules))
    out: List[Sequence[IntRows]] = []
    for m in modules:
        rows, own = m._int_rows
        k = scale // own
        out.append(rows if k == 1 else [[[k * x for x in r] for r in x] for x in rows])
    return out, scale


def _identity_rows(d: int) -> IntRows:
    """The d x d identity matrix as int rows."""
    return [[int(i == j) for j in range(d)] for i in range(d)]


def relation_residual(m: LambdaModule, v: str) -> Matrix:
    """The preprojective relation at vertex v, as a d_v x d_v matrix: the
    signed sum of int products of the actions times D, divided by D^2."""
    (x,), scale = _int_actions(m)
    return _residual(m, x, scale, v)


def _residual(m: LambdaModule, x: List[IntRows], scale: int, v: str) -> Matrix:
    """:func:`relation_residual` from the actions' int rows times D."""
    aidx, d = m.dq.arrow_index, m.dim_of(v)
    acc = [[0] * d for _ in range(d)]
    for a in m.dq.arrows_from(v):
        right = x[aidx[a.name]]
        cols = list(zip(*right)) if right else [()] * d
        for row, left in zip(acc, x[aidx[a.bar]]):
            for j, col in enumerate(cols):
                row[j] += (-1) ** a.sign * sum(map(mul, left, col))
    entries = tuple(tuple(_divide(r, scale * scale, m.field.p)) for r in acc)
    return Matrix(m.field, d, d, entries)


def is_nilpotent(m: LambdaModule) -> bool:
    """Whether the chain V = W_0 > W_1 > ..., with W_{k+1} spanned by all
    x(b)(W_k), reaches zero.

    The chain is followed until its dimensions stop falling (scaling the
    actions by D moves no span); the module is nilpotent exactly when the
    last term is zero.
    """
    (x,), _ = _int_actions(m)
    return _nilpotent(m, x)


def _nilpotent(m: LambdaModule, x: List[IntRows]) -> bool:
    """:func:`is_nilpotent` from the actions' int rows times D."""
    p, idx = m.field.p, m.quiver.vertex_index
    arrows = [(idx[a.source], idx[a.target]) for a in m.dq.arrows]
    current = [_identity_rows(d) for d in m.dim]
    while True:
        images: List[List[List[int]]] = [[] for _ in m.dim]
        for (s, e), mat in zip(arrows, x):
            for w in current[s]:
                image = [sum(map(mul, row, w)) for row in mat]
                images[e].append(image if p is None else [y % p for y in image])
        pieces = [list(_echelon_ints(vecs, p).values()) for vecs in images]
        if list(map(len, pieces)) == list(map(len, current)):
            return not any(pieces)
        current = pieces


def validate(m: LambdaModule) -> ValidationReport:
    """Check the preprojective relations and nilpotency on shared int rows.

    Returns:
        A report listing every vertex with a nonzero relation residual,
        plus the nilpotency verdict.
    """
    (x,), scale = _int_actions(m)
    residuals = ((v, _residual(m, x, scale, v)) for v in m.quiver.vertices)
    bad = tuple((v, r) for v, r in residuals if not r.is_zero())
    return ValidationReport(bad, _nilpotent(m, x))


def simple(dq: DoubleQuiver, v: str, field: Field) -> LambdaModule:
    """The one dimensional simple module concentrated at vertex v."""
    return LambdaModule.build(dq, field, dq.base.unit_vector(v), {})


def direct_sum(m: LambdaModule, n: LambdaModule) -> LambdaModule:
    """Blockwise direct sum; both summands first, per vertex, in order.

    Raises:
        ValueError: when the quivers or fields differ.
    """
    if m.dq != n.dq:
        raise ValueError("direct sum over different quivers")
    if m.field != n.field:
        raise ValueError("direct sum over different fields")
    return _module_of_rows(m.dq, _glue(m, n, None))


def _glue(
    m: LambdaModule, n: LambdaModule, lower: Optional[Sequence[Scalar]]
) -> RowModule:
    """The module x(b) = [[m(b), 0], [lower(b), n(b)]] on the spaces
    M_v + N_v, M's coordinates first, as the count rows flag counting
    reads; ``lower`` packs the blocks row-major in arrow order, and None
    stands for zero (the direct sum)."""
    z = m.field.zero()
    flat = repeat(z) if lower is None else iter(lower)
    rows = []
    for a, b in zip(m.action, n.action):
        right = (z,) * b.ncols
        top = tuple(row + right for row in a.entries)
        rows.append(top + tuple(tuple(islice(flat, a.ncols)) + r for r in b.entries))
    dim = tuple(x + y for x, y in zip(m.dim, n.dim))
    return RowModule(m.field, dim, tuple(rows), _ends(m.dq))


class RowModule(NamedTuple):
    """A module with each arrow's matrix held as a tuple of rows.

    Flag counting works in this form: no Matrix or Field dispatch, and
    (field.p, dim, rows) is a hashable key of the module data.
    ``arrows`` gives each doubled arrow's name, source index and target
    index; every module restricted from this one shares it.
    """

    field: Field
    dim: DimVector
    rows: Tuple[Rows, ...]
    arrows: Tuple[Tuple[str, int, int], ...]

    @classmethod
    def of(cls, m: LambdaModule) -> "RowModule":
        return cls(m.field, m.dim, tuple(mat.entries for mat in m.action), _ends(m.dq))


def _ends(dq: DoubleQuiver) -> Tuple[Tuple[str, int, int], ...]:
    """Each doubled arrow's name, source index and target index."""
    idx = dq.base.vertex_index
    return tuple((a.name, idx[a.source], idx[a.target]) for a in dq.arrows)


def _module_of_rows(dq: DoubleQuiver, r: RowModule) -> LambdaModule:
    """The module whose action matrices hold the rows of r."""
    shapes = _arrow_shapes(dq, r.dim, r.dim)
    mats = tuple(
        Matrix(r.field, nrows, ncols, entries)
        for (nrows, ncols), entries in zip(shapes, r.rows)
    )
    return LambdaModule(dq, r.field, r.dim, mats)


def restrict_rows(
    m: RowModule, v: int, kept: Rows, pivots: Tuple[int, ...]
) -> RowModule:
    """The restriction to the piece spanned by ``kept`` at vertex index v
    and whole at every other vertex.

    ``kept`` is the piece's reduced row echelon basis and ``pivots`` its
    leading positions.  In the result a vector at v is written by its
    entries at the pivots.  Entries are reduced mod p, or stay rational
    over the rationals.

    The zero piece (``kept`` empty, a step that peels the whole v-piece)
    takes a branch of its own: the arrows out of v lose their columns,
    and the arrows into v must be zero.

    Raises:
        ValueError: when some arrow into v leaves the piece; the message
            names the witnessing arrow.
    """
    p = m.field.p
    out = list(m.rows)
    for a, (name, source, target) in enumerate(m.arrows):
        mat = m.rows[a]
        if source == v:
            if not kept:
                out[a] = ((),) * len(mat)
            elif p is None:
                out[a] = tuple(
                    tuple(Fraction(sum(map(mul, row, k))) for k in kept) for row in mat
                )
            else:
                out[a] = tuple(
                    tuple(sum(map(mul, row, k)) % p for k in kept) for row in mat
                )
        elif target == v:
            if not kept:
                # entries are normalized, so the piece is stable iff all are 0
                if any(map(any, mat)):
                    raise ValueError(f"subspace is not stable under arrow {name}")
                out[a] = ()
                continue
            coords = tuple(mat[i] for i in pivots)
            cols = tuple(zip(*coords))
            # multiply back; rows at the pivots agree by construction
            for i, row in enumerate(mat):
                if i in pivots:
                    continue
                coeffs = [k[i] for k in kept]
                off = (sum(map(mul, coeffs, col)) - x for col, x in zip(cols, row))
                if any(off) if p is None else any(y % p for y in off):
                    raise ValueError(f"subspace is not stable under arrow {name}")
            out[a] = coords
    dim = m.dim[:v] + (len(kept),) + m.dim[v + 1 :]
    return RowModule(m.field, dim, tuple(out), m.arrows)


def restrict(m: LambdaModule, v: str, kept: Matrix) -> LambdaModule:
    """The module structure on the graded subspace that is spanned by the
    columns of ``kept`` at v and whole at every other vertex.

    ``kept`` may be any matrix whose columns span the piece.  The result
    is written in the piece's canonical basis, the reduced column echelon
    form of ``kept``, in which a vector's coordinates are its entries at
    the pivot rows; so any two spanning matrices of one piece give the
    same module.

    Raises:
        ValueError: when some x(b) does not preserve the subspace; the
            message names the witnessing arrow.
    """
    if kept.nrows != m.dim_of(v):
        raise ValueError(f"piece at vertex {v} has wrong ambient dimension")
    rows = echelon(zip(*kept.entries), m.field.p)
    pivots = tuple(sorted(rows))
    r = restrict_rows(
        RowModule.of(m),
        m.quiver.vertex_index[v],
        tuple(tuple(rows[c]) for c in pivots),
        pivots,
    )
    return _module_of_rows(m.dq, r)


def _reduce_rows(m: LambdaModule, p: int) -> RowModule:
    """A rational module modulo p, in the row form flag counting uses:
    each entry n/d becomes n * d^-1 mod p.

    Raises:
        BadPrime: when p divides some denominator in the action data.
        ValueError: when the module is not rational or p is not prime.
    """
    if not m.field.is_rational:
        raise ValueError("only rational modules can be reduced")
    target = Field(p)
    rows = []
    for arrow, mat in zip(m.dq.arrows, m.action):
        try:
            rows.append(
                tuple(
                    tuple(x.numerator * pow(x.denominator, -1, p) % p for x in row)
                    for row in mat.entries
                )
            )
        except ValueError:
            # pow found no inverse: p divides the denominator of some entry
            bad = next(x for row in mat.entries for x in row if x.denominator % p == 0)
            raise BadPrime(
                f"arrow {arrow.name}: denominator of {bad} vanishes in F_{p} "
                f"while reducing mod {p}"
            ) from None
    return RowModule(target, m.dim, tuple(rows), _ends(m.dq))


def reduce_mod_p(m: LambdaModule, p: int) -> LambdaModule:
    """Reduce a rational module modulo p: the rows of
    :func:`_reduce_rows`, the one reduction, held as matrices.

    Raises:
        BadPrime: when p divides some denominator in the action data.
        ValueError: when the module is not rational.
    """
    return _module_of_rows(m.dq, _reduce_rows(m, p))
