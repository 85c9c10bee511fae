"""Hom spaces, extension spaces, middle terms, and the trace pairing.

For modules M (written x') and N (written x'') the three-term complex

    C0 = sum_v Hom(M_v, N_v)
    C1 = sum_b Hom(M_{s(b)}, N_{e(b)})    (b over the doubled arrows)
    C2 = sum_v Hom(M_v, N_v)

has differentials

    d0(f)_b   = N(b) f_{s(b)} - f_{e(b)} M(b)
    d1(g)_v   = sum over b with s(b) = v of
                (-1)^{sign(b)} ( N(bar b) g_b + g_{bar b} M(b) ).

Hom(M, N) is the kernel of d0.  The kernel of d1 is the space of derivations,
its subspace im(d0) the inner ones, and the quotient is Ext^1(M, N).  The
cokernel of d1 equals Ext^2(M, N) exactly when no component of the quiver is
Dynkin; the presentation records that flag rather than guessing.

Coordinates of C0/C1/C2 vectors are the row-major entries of the per-vertex
(per-arrow) blocks, blocks in vertex (arrow) order.

Both formulas are written once, in :func:`_differential`, as int rows
times one common denominator D of both modules' actions (1 over F_p).
:func:`ext_presentation` eliminates each of d0 and d1 once, with its
columns reversed, and keeps the rows: its dimensions come from the
ranks, Hom and the derivations are read off those two echelons, and
the chosen Ext^1 classes, found by one more elimination, are int rows
too, which :func:`cy_gram` and the stratifier of :mod:`verify` read as
they are.  Two facts make that enough:

- the leads of a null space are the columns that are not trailing
  pivots of the row space, since a kernel vector that leads at j and a
  row that ends at j have a nonzero dot product;
- a derivation's coordinates in the derivation echelon basis are its
  entries at the leads over the leading entries, and a lead q is a
  pivot column of [inner | derivations] unless some inner derivation
  has its last nonzero coordinate at q, since then the basis row at q
  is an inner derivation minus earlier basis rows.

A basis, with the ``Matrix``, ``Derivation`` and ``Fraction`` objects
that hold it, is made only when it is first read.  :func:`apply_d1`,
:func:`inner_derivation` (which is -d0), :func:`hom_basis` (on the
presentation's rows) and :func:`_extension`, the count rows of the
middle term of packed class coordinates (:func:`middle_term` holds
them as matrices), apply them with :func:`_apply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .fields import Field, Scalar
from .linalg import (
    Matrix,
    _divide,
    _echelon_ints,
    _from_columns,
    _kernel_rows,
    _primitive,
    _reduced_rows,
    clear_denominators,
)
from .module import (
    IntRows,
    LambdaModule,
    RowModule,
    _arrow_blocks,
    _arrow_shapes,
    _check_blocks,
    _glue,
    _identity_rows,
    _int_actions,
    _module_of_rows,
)
from .quiver import has_dynkin_component, symmetric_form


def _pack(mats: Sequence[Matrix]) -> List[Scalar]:
    """Flatten matrices into one coordinate list, row-major per block."""
    return [x for m in mats for row in m.entries for x in row]


def _unpack(
    field: Field, flat: Sequence[Scalar], shapes: Sequence[Tuple[int, int]]
) -> List[Matrix]:
    """Cut packed coordinates, already normalized field elements, back
    into blocks of the given shapes."""
    if len(flat) != sum(r * c for r, c in shapes):
        raise ValueError("coordinate column length differs from block shapes")
    entries = iter(flat)
    return [
        Matrix(field, r, c, tuple(tuple(islice(entries, c)) for _ in range(r)))
        for r, c in shapes
    ]


def _c0_shapes(m: LambdaModule, n: LambdaModule) -> List[Tuple[int, int]]:
    return [(dn, dm) for dm, dn in zip(m.dim, n.dim)]


def _c1_shapes(m: LambdaModule, n: LambdaModule) -> Tuple[Tuple[int, int], ...]:
    return _arrow_shapes(m.dq, m.dim, n.dim)


def _check_pair(m: LambdaModule, n: LambdaModule) -> None:
    if m.dq != n.dq:
        raise ValueError("modules over different quivers")
    if m.field != n.field:
        raise ValueError("modules over different fields")


@dataclass(frozen=True)
class Intertwiner:
    """A module map: per-vertex matrices commuting with every arrow action."""

    source: LambdaModule
    target: LambdaModule
    components: Tuple[Matrix, ...]

    @classmethod
    def build(
        cls,
        source: LambdaModule,
        target: LambdaModule,
        components: Sequence[Matrix],
    ) -> "Intertwiner":
        """Build and verify the commuting condition: the inner derivation
        of the components, b -> phi_{e(b)} x'(b) - x''(b) phi_{s(b)},
        is zero.

        Raises:
            ValueError: a component of the wrong shape or field (the
                message names the vertex), or an arrow where the map
                fails to commute.
        """
        comps = tuple(components)
        inner = inner_derivation(source, target, comps)
        for a, block in zip(source.dq.arrows, inner.maps):
            if not block.is_zero():
                raise ValueError(f"map does not commute with arrow {a.name}")
        return cls(source, target, comps)

    @classmethod
    def identity(cls, m: LambdaModule) -> "Intertwiner":
        return cls(
            m, m, tuple(Matrix.identity(m.field, d) for d in m.dim)
        )

    def component(self, v: str) -> Matrix:
        return self.components[self.source.quiver.vertex_index[v]]

    def add(self, other: "Intertwiner") -> "Intertwiner":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("adding maps between different modules")
        comps = tuple(
            a.add(b) for a, b in zip(self.components, other.components)
        )
        return Intertwiner(self.source, self.target, comps)

    def scale(self, s: Union[int, Fraction]) -> "Intertwiner":
        return Intertwiner(
            self.source, self.target, tuple(c.scale(s) for c in self.components)
        )


@dataclass(frozen=True)
class Derivation:
    """An arrow-indexed tuple of maps d(b): M_{s(b)} -> N_{e(b)}.

    Construction checks each map's shape and field, naming the arrow.
    Solutions of the derivation equation are exactly the kernel of d1;
    :func:`is_derivation` and :func:`middle_term` check it on d1's rows.
    """

    source: LambdaModule
    target: LambdaModule
    maps: Tuple[Matrix, ...]

    def __post_init__(self) -> None:
        m, n = self.source, self.target
        _check_pair(m, n)
        _check_blocks(
            self.maps, _c1_shapes(m, n), m.field, "map of arrow", m.dq.arrow_index
        )

    @classmethod
    def build(
        cls,
        source: LambdaModule,
        target: LambdaModule,
        maps: Mapping[str, Union[Matrix, Sequence[Sequence[Union[int, Fraction, str]]]]],
    ) -> "Derivation":
        """Build from a partial mapping by arrow name, zero-filling the
        rest; the rules and errors are those of :meth:`LambdaModule.build`."""
        shapes = _c1_shapes(source, target)
        return cls(source, target, _arrow_blocks(source.dq, source.field, shapes, maps))

    def map_of(self, arrow_name: str) -> Matrix:
        return self.maps[self.source.dq.arrow_index[arrow_name]]

    def add(self, other: "Derivation") -> "Derivation":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("adding derivations between different modules")
        return Derivation(
            self.source,
            self.target,
            tuple(a.add(b) for a, b in zip(self.maps, other.maps)),
        )

    def scale(self, s: Union[int, Fraction]) -> "Derivation":
        return Derivation(
            self.source, self.target, tuple(m.scale(s) for m in self.maps)
        )


def apply_d1(
    m: LambdaModule, n: LambdaModule, g: Sequence[Matrix]
) -> List[Matrix]:
    """The image d1(g) of an arrow-indexed tuple g of maps M_{s(b)} ->
    N_{e(b)}, one block per vertex in vertex order (module docstring); a
    map of the wrong shape or field raises ValueError naming its arrow."""
    _check_blocks(g, _c1_shapes(m, n), m.field, "map of arrow", m.dq.arrow_index)
    (d1,), scale = _differential(m, n, 1)
    return _unpack(m.field, _apply(d1, scale, _pack(g), m.field.p), _c0_shapes(m, n))


def is_derivation(d: Derivation) -> bool:
    return all(r.is_zero() for r in apply_d1(d.source, d.target, d.maps))


def _offsets(shapes: Sequence[Tuple[int, int]]) -> List[int]:
    """Where each block starts in the packed coordinates, then the total."""
    out = [0]
    for r, c in shapes:
        out.append(out[-1] + r * c)
    return out


def _operator_rows(
    in_shapes: Sequence[Tuple[int, int]],
    out_shapes: Sequence[Tuple[int, int]],
    terms: Sequence[Tuple[int, int, int, IntRows, IntRows]],
    p: Optional[int],
) -> List[List[int]]:
    """The int rows of a sum of block maps X -> sign * left X right,
    reduced mod p over F_p.

    A term (sign, out_block, in_block, left, right) reads input block
    ``in_block`` and adds into output block ``out_block``; ``left`` and
    ``right`` are int rows, so ``right`` has as many rows as the input
    block has columns and as many columns as the output block.  Only
    pairs of nonzero entries of ``left`` and ``right`` are visited.
    """
    in_at, out_at = _offsets(in_shapes), _offsets(out_shapes)
    rows = [[0] * in_at[-1] for _ in range(out_at[-1])]
    for sign, out_block, in_block, left, right in terms:
        width, height = out_shapes[out_block][1], in_shapes[in_block][1]
        nonzero = [
            (k, c, sign * b)
            for k, right_row in enumerate(right)
            for c, b in enumerate(right_row)
            if b
        ]
        for r, left_row in enumerate(left):
            row = out_at[out_block] + r * width
            for i, a in enumerate(left_row):
                if a:
                    col = in_at[in_block] + i * height
                    for k, c, b in nonzero:
                        rows[row + c][col + k] += a * b
    if p is not None:
        rows = [[x % p for x in r] for r in rows]
    return rows


def _differential(m: LambdaModule, n: LambdaModule, *ks: int) -> Tuple[list, int]:
    """d_k for each given k (0 or 1) of the pair's complex from its
    formula (module docstring), as int rows times D, and D: the common
    denominator of both modules' actions, converted once, 1 over F_p."""
    (xm, xn), scale = _int_actions(m, n)
    idx, aidx = m.quiver.vertex_index, m.dq.arrow_index
    one_m, one_n = ([_identity_rows(d) for d in x.dim] for x in (m, n))
    terms: Tuple[list, list] = ([], [])
    for j, a in enumerate(m.dq.arrows):
        s, e, bar = idx[a.source], idx[a.target], aidx[a.bar]
        sign = -1 if a.sign else 1
        terms[0].extend([(1, j, s, xn[j], one_m[s]), (-1, j, e, one_n[e], xm[j])])
        terms[1].append((sign, s, j, xn[bar], one_m[s]))
        terms[1].append((sign, s, bar, one_n[s], xm[j]))
    shapes = (_c0_shapes(m, n), _c1_shapes(m, n))
    p = m.field.p
    return [_operator_rows(shapes[k], shapes[1 - k], terms[k], p) for k in ks], scale


def _apply(rows: IntRows, d: int, coords: Sequence[Scalar], p: Optional[int]) -> list:
    """The int rows times packed coordinates as field elements: one int
    product per row with the cleared coordinates, divided by d once."""
    (flat,), e = clear_denominators([coords])
    return _divide([sum(map(mul, r, flat)) for r in rows], d * e, p)


@dataclass(frozen=True)
class ExtPresentation:
    """Every space the complex of a module pair yields, with chosen bases.

    Built at the call: d0 and d1 as int rows times one denominator D,
    the echelon rows of each with its columns reversed, and from the
    two ranks ``hom_dim`` = dim C0 -
    rank d0, ``ext1_dim`` = dim C1 - rank d1 - rank d0 and
    ``ext2_cokernel`` = dim C0 - rank d1, which is dim Ext^2 exactly
    when ``ext2_exact`` is True.  Built from those rows on first read,
    once per object: the differentials ``d0`` and ``d1``; ``hom``,
    ``derivations`` and ``inner``, the reduced column echelon bases that
    :func:`column_echelon` gives, unique for the subspace, the first two
    read off the reversed echelons (:func:`_kernel_echelon`); and
    ``ext1_basis``, the columns of ``derivations`` that are pivot
    columns of [inner | derivations], a complement of the inner ones,
    as the ``Derivation`` objects that ``random_combination`` and
    :func:`middle_term` take.  They are the derivation rows at the
    leads where no inner derivation has its last nonzero coordinate,
    found by one elimination of d0's columns at those leads; ``inner``
    is eliminated only for ``inner`` and :func:`is_inner`.  :func:`cy_gram` and the stratifier read
    those classes off the int rows they are made from.  Over Q every
    entry is a ``Fraction``, every zero the one shared ``Fraction(0)``;
    over F_p entries are ints in 0..p-1.
    """

    source: LambdaModule
    target: LambdaModule
    c0_dim: int
    c1_dim: int
    hom_dim: int
    ext1_dim: int
    ext2_cokernel: int
    ext2_exact: bool
    _d0: IntRows = field(repr=False, compare=False)
    _d1: IntRows = field(repr=False, compare=False)
    _scale: int = field(repr=False, compare=False)
    _echelon_d0: Dict[int, Sequence[int]] = field(repr=False, compare=False)
    _echelon_d1: Dict[int, Sequence[int]] = field(repr=False, compare=False)

    def _divided(self, rows: IntRows, ncols: int) -> Matrix:
        p, d = self.source.field.p, self._scale
        entries = tuple(tuple(_divide(r, d, p)) for r in rows)
        return Matrix(self.source.field, len(entries), ncols, entries)

    def _basis(self, rows: Dict[int, Sequence[int]], nrows: int) -> Matrix:
        columns = _reduced_rows(rows, self.source.field.p)
        return _from_columns(self.source.field, nrows, columns)

    @cached_property
    def d0(self) -> Matrix:
        return self._divided(self._d0, self.c0_dim)

    @cached_property
    def d1(self) -> Matrix:
        return self._divided(self._d1, self.c1_dim)

    @cached_property
    def hom(self) -> Matrix:
        rows = _kernel_echelon(self._echelon_d0, self.c0_dim, self.source.field.p)
        return self._basis(rows, self.c0_dim)

    @cached_property
    def derivations(self) -> Matrix:
        return self._basis(self._derivations, self.c1_dim)

    @cached_property
    def inner(self) -> Matrix:
        return self._basis(self._inner, self.c1_dim)

    @cached_property
    def _inner(self) -> Dict[int, Sequence[int]]:
        return _echelon_ints(zip(*self._d0), self.source.field.p)

    @cached_property
    def _derivations(self) -> Dict[int, Sequence[int]]:
        return _kernel_echelon(self._echelon_d1, self.c1_dim, self.source.field.p)

    @cached_property
    def _ext1_rows(self) -> Dict[int, Sequence[int]]:
        """The chosen Ext^1 classes as the core's derivation rows, keyed
        by leading position in increasing order: each is the class's
        reduced row times its leading entry, which is 1 over F_p."""
        ders = self._derivations
        # the columns of d0 span the inner derivations; read at the leads
        # from the last down, the core leads at their trailing pivots
        leads = list(ders)[::-1]
        ends = _echelon_ints(zip(*(self._d0[q] for q in leads)), self.source.field.p)
        inner = {leads[j] for j in ends}
        return {q: r for q, r in ders.items() if q not in inner}

    @cached_property
    def ext1_basis(self) -> Tuple[Derivation, ...]:
        m, n = self.source, self.target
        rows = _reduced_rows(self._ext1_rows, m.field.p)
        shapes = _c1_shapes(m, n)
        return tuple(Derivation(m, n, tuple(_unpack(m.field, r, shapes))) for r in rows)


def ext_presentation(m: LambdaModule, n: LambdaModule) -> ExtPresentation:
    """Present Hom, derivations, inner derivations and the Ext^1 complement.

    The elimination core of :mod:`linalg` runs once on each of d0 and
    d1, as the int rows of :func:`_differential` with their columns
    reversed; neither the scaling by D nor the reversal moves a kernel,
    image or rank, and the kernels are read off these echelons.  The
    bases are made when first read (class docstring).
    """
    _check_pair(m, n)
    (d0, d1), scale = _differential(m, n, 0, 1)
    # d0 maps C0 to C1 and d1 maps C1 to C2, which has the blocks of C0
    c0, c1 = len(d1), len(d0)
    # columns reversed, so the core's leads are the rows' trailing pivots
    p = m.field.p
    echelon_d0, echelon_d1 = (_echelon_ints([r[::-1] for r in d], p) for d in (d0, d1))
    rank_d0, rank_d1 = len(echelon_d0), len(echelon_d1)
    return ExtPresentation(
        m, n, c0, c1,
        hom_dim=c0 - rank_d0,
        ext1_dim=c1 - rank_d1 - rank_d0,
        ext2_cokernel=c0 - rank_d1,
        ext2_exact=not has_dynkin_component(m.quiver),
        _d0=d0, _d1=d1, _scale=scale, _echelon_d0=echelon_d0, _echelon_d1=echelon_d1,
    )


def _kernel_echelon(
    reversed_rows: Dict[int, Sequence[int]], ncols: int, p: Optional[int]
) -> Dict[int, List[int]]:
    """The core's echelon rows of the null space of a matrix, keyed by
    lead in increasing order, read off the core's rows of the matrix
    with its columns reversed.

    Those rows lead at the matrix rows' trailing pivots, and the null
    space leads at every other column: a kernel vector that leads at j
    and a row that ends at j have a nonzero dot product.  So the vector
    :func:`_kernel_rows` gives at a free column, reversed back, leads
    there and is zero at every other lead: the reduced row, times its
    leading entry, which is 1 over F_p and made primitive over Q.
    """
    out: Dict[int, List[int]] = {}
    for vec in reversed(_kernel_rows(reversed_rows, ncols, p)):
        vec.reverse()
        lead = next(j for j, x in enumerate(vec) if x)
        out[lead] = vec if p is not None else _primitive(vec, 1)
    return out


def hom_basis(m: LambdaModule, n: LambdaModule) -> Tuple[Intertwiner, ...]:
    """A basis of Hom(M, N) as intertwiners, each checked on the
    presentation's d0 rows; the message names an arrow it fails on."""
    pres, shapes = ext_presentation(m, n), _c0_shapes(m, n)
    basis = tuple(zip(*pres.hom.entries))
    for coords in basis:
        image = _apply(pres._d0, pres._scale, coords, m.field.p)
        a = _first_nonzero(image, _c1_shapes(m, n), m.dq.arrows)
        if a is not None:
            raise ValueError(f"map does not commute with arrow {a.name}")
    return tuple(Intertwiner(m, n, tuple(_unpack(m.field, c, shapes))) for c in basis)


def derivation_basis(pres: ExtPresentation) -> Tuple[Derivation, ...]:
    """A basis of the full derivation space of a presentation."""
    m, n, ders = pres.source, pres.target, pres.derivations
    shapes = _c1_shapes(m, n)
    return tuple(
        Derivation(m, n, tuple(_unpack(m.field, ders.col(j), shapes)))
        for j in range(ders.ncols)
    )


def inner_derivation(
    m: LambdaModule, n: LambdaModule, phis: Sequence[Matrix]
) -> Derivation:
    """The inner derivation b -> phi_{e(b)} x'(b) - x''(b) phi_{s(b)},
    which is -d0(phi); a component of the wrong shape or field raises
    ValueError naming its vertex."""
    _check_pair(m, n)
    _check_blocks(
        phis, _c0_shapes(m, n), m.field, "component at vertex", m.quiver.vertices
    )
    (d0,), scale = _differential(m, n, 0)
    image = _apply(d0, -scale, _pack(phis), m.field.p)
    return Derivation(m, n, tuple(_unpack(m.field, image, _c1_shapes(m, n))))


def is_inner(pres: ExtPresentation, d: Derivation) -> bool:
    """Whether d lies in the image of d0."""
    if (d.source, d.target) != (pres.source, pres.target):
        raise ValueError("derivation belongs to a different pair")
    (flat,), _ = clear_denominators([_pack(d.maps)])
    inner = pres._inner
    return len(_echelon_ints([*inner.values(), flat], pres.source.field.p)) == len(inner)


@dataclass(frozen=True)
class MiddleTerm:
    """The extension module E_d with its exact-sequence bookkeeping.

    Per vertex the coordinates of E are the x' part first, then the x''
    part; ``inclusion`` embeds x'' and ``projection`` maps onto x', so
    0 -> x'' -> E_d -> x' -> 0 is exact by construction.
    """

    module: LambdaModule
    inclusion: Tuple[Matrix, ...]
    projection: Tuple[Matrix, ...]


def middle_term(d: Derivation) -> MiddleTerm:
    """The module E_d(b) = [[x'(b), 0], [d(b), x''(b)]].

    Raises:
        ValueError: when the derivation equation fails; the message names
            a witnessing vertex.
    """
    m, n = d.source, d.target
    (d1,), _ = _differential(m, n, 1)
    module = _module_of_rows(m.dq, _extension(m, n, d1, _pack(d.maps)))
    inclusion: List[Matrix] = []
    projection: List[Matrix] = []
    for dm, dn in zip(m.dim, n.dim):
        rows = Matrix.identity(m.field, dm + dn).entries
        inclusion.append(Matrix(m.field, dm + dn, dn, tuple(r[dm:] for r in rows)))
        projection.append(Matrix(m.field, dm, dm + dn, rows[:dm]))
    return MiddleTerm(module, tuple(inclusion), tuple(projection))


def _extension(
    m: LambdaModule, n: LambdaModule, d1: IntRows, coords: Sequence[Scalar]
) -> RowModule:
    """The count rows of the module [[x'(b), 0], [d(b), x''(b)]] of the
    class d with packed coordinates ``coords`` once the int rows ``d1``
    of a multiple of d1 kill them; else ValueError naming the first
    vertex where they do not."""
    image = _apply(d1, 1, coords, m.field.p)
    v = _first_nonzero(image, _c0_shapes(m, n), m.quiver.vertices)
    if v is not None:
        raise ValueError(f"derivation equation violated at vertex {v}")
    return _glue(m, n, coords)


def _first_nonzero(image: list, shapes: Sequence[Tuple[int, int]], names: Sequence):
    """The first of ``names`` whose block of the packed image is not zero."""
    at = _offsets(shapes)
    return next((v for v, i, j in zip(names, at, at[1:]) if any(image[i:j])), None)


def pullback(d: Derivation, rho: Intertwiner) -> Derivation:
    """Precompose an extension class with a map into its source: d . rho."""
    if rho.target != d.source:
        raise ValueError("pullback map does not land in the derivation source")
    idx = d.source.quiver.vertex_index
    maps = tuple(
        mat.mul(rho.components[idx[a.source]])
        for a, mat in zip(d.source.dq.arrows, d.maps)
    )
    return Derivation(rho.source, d.target, maps)


def pushout(d: Derivation, lam: Intertwiner) -> Derivation:
    """Postcompose an extension class with a map out of its target: lam . d."""
    if lam.source != d.target:
        raise ValueError("pushout map does not start at the derivation target")
    idx = d.source.quiver.vertex_index
    maps = tuple(
        lam.components[idx[a.target]].mul(mat)
        for a, mat in zip(d.source.dq.arrows, d.maps)
    )
    return Derivation(d.source, lam.target, maps)


def cy_pairing(d: Derivation, g: Derivation) -> Scalar:
    """The trace pairing sum_b (-1)^{sign(b)} Tr( d(bar b) g(b) ).

    Each trace is evaluated entrywise as
    Tr( d(bar b) g(b) ) = sum_{i,k} d(bar b)[i][k] g(b)[k][i],
    without forming the product.  ``d`` runs M -> N and ``g`` runs
    N -> M.  The pairing descends to Ext^1 x Ext^1 and is nondegenerate
    there; those facts are certified by the test suite rather than assumed.
    """
    if d.source != g.target or d.target != g.source:
        raise ValueError("pairing requires opposite derivation directions")
    (left,), c = clear_denominators([_pack(d.maps)])
    (right,), e = clear_denominators([_pack(g.maps)])
    return _pairings(d.source, d.target, [(left, c)], [(right, e)])[0][0]


def cy_gram(pres_mn: ExtPresentation, pres_nm: ExtPresentation) -> Matrix:
    """The pairing matrix between the two chosen Ext^1 complement bases,
    from both presentations' chosen rows (each class times its leading
    entry): one int dot product per entry, divided by both leads."""
    m, n = pres_mn.source, pres_mn.target
    ds = [(r, r[q]) for q, r in pres_mn._ext1_rows.items()]
    gs = [(r, r[q]) for q, r in pres_nm._ext1_rows.items()]
    return Matrix(m.field, len(ds), len(gs), _pairings(m, n, ds, gs))


def _pairings(m: LambdaModule, n: LambdaModule, ds: Sequence, gs: Sequence) -> tuple:
    """The values cy_pairing(d, g), one row per d and one column per g,
    of classes given as packed int coordinates and a divisor (1 over
    F_p): d's coordinates permuted to (-1)^{sign(b)} d(bar b) row-major,
    arrow after arrow, dotted with g's permuted to g(b) column-major."""
    at_mn, at_nm = _offsets(_c1_shapes(m, n)), _offsets(_c1_shapes(n, m))
    idx, aidx = m.quiver.vertex_index, m.dq.arrow_index
    left_at: List[Tuple[int, int]] = []
    right_at: List[int] = []
    for a, start in zip(m.dq.arrows, at_nm):
        # d(bar b) is n_{s(b)} x m_{e(b)}, and g(b) is its transpose's shape
        rows, cols, bar = n.dim[idx[a.source]], m.dim[idx[a.target]], at_mn[aidx[a.bar]]
        sign = -1 if a.sign else 1
        left_at += [(bar + i, sign) for i in range(rows * cols)]
        right_at += [start + k * rows + i for i in range(rows) for k in range(cols)]
    lefts = [([s * d[i] for i, s in left_at], c) for d, c in ds]
    rights = [([g[i] for i in right_at], e) for g, e in gs]
    p = m.field.p
    if p is None:
        return tuple(
            tuple(Fraction(sum(map(mul, x, y)), c * e) for y, e in rights)
            for x, c in lefts
        )
    return tuple(tuple(sum(map(mul, x, y)) % p for y, _ in rights) for x, _ in lefts)


@dataclass(frozen=True)
class DimensionReport:
    """The two dimension formulas for a module pair.

    The reflexive formula dim Ext^1 = hom_mn + hom_nm - (dim M, dim N) holds
    for every nilpotent pair; the Euler formula
    hom - ext1 + ext2 = (dim M, dim N) is only asserted when the degree-2
    cokernel really is Ext^2 (no Dynkin component).
    """

    hom_mn: int
    hom_nm: int
    ext1_mn: int
    ext1_nm: int
    ext2_cokernel: int
    form: int
    ext2_exact: bool

    @property
    def reflexive_ok(self) -> bool:
        return self.ext1_mn == self.hom_mn + self.hom_nm - self.form

    @property
    def symmetric_ok(self) -> bool:
        return self.ext1_mn == self.ext1_nm

    @property
    def euler_ok(self) -> Optional[bool]:
        if not self.ext2_exact:
            return None
        return self.hom_mn - self.ext1_mn + self.ext2_cokernel == self.form

    @property
    def ok(self) -> bool:
        return (
            self.reflexive_ok
            and self.symmetric_ok
            and self.euler_ok is not False
        )


def dimension_checks(m: LambdaModule, n: LambdaModule) -> DimensionReport:
    """Evaluate both dimension formulas for the pair (M, N)."""
    pres_mn = ext_presentation(m, n)
    pres_nm = ext_presentation(n, m)
    return DimensionReport(
        hom_mn=pres_mn.hom_dim,
        hom_nm=pres_nm.hom_dim,
        ext1_mn=pres_mn.ext1_dim,
        ext1_nm=pres_nm.ext1_dim,
        ext2_cokernel=pres_mn.ext2_cokernel,
        form=symmetric_form(m.quiver, m.dim, n.dim),
        ext2_exact=pres_mn.ext2_exact,
    )
