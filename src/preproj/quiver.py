"""Quivers, their doubles, words of vertices, and the symmetric form.

A quiver here is always loop free, and so is its double.  Its double carries
one reversed arrow ``a*`` for every original arrow ``a``, together with the
sign that weights the preprojective relations: original arrows have sign 0,
reversed arrows sign 1.  Flag counting relies on the absence of loops: an
automorphism of a module that is the identity off one vertex v is then any
invertible I + h on the v-piece that kills the incoming images and maps into
the common kernel of the outgoing arrows, and :mod:`preproj.flags` counts the
hyperplane pieces at v by the orbits of these.

Dimension vectors, word contents, and fingerprint coordinates are all indexed
by the position of a vertex in ``Quiver.vertices``; that ordering also fixes
the lexicographic order in which words are enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

Word = Tuple[str, ...]
DimVector = Tuple[int, ...]


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """A finite loop-free quiver.

    Args:
        vertices: vertex names, in the order that fixes all indexing.
        arrows: the arrows; names must be unique, must not contain ``*``
            (reserved for the double), and endpoints must be vertices.

    Raises:
        ValueError: on duplicate names, unknown endpoints, or a loop.
    """

    vertices: Tuple[str, ...]
    arrows: Tuple[Arrow, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if "*" in a.name:
                raise ValueError(
                    f"arrow name {a.name!r} contains '*', reserved for the double"
                )
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.name} has an endpoint outside the quiver")
            if a.source == a.target:
                raise ValueError(f"arrow {a.name} is a loop at vertex {a.source}")

    @classmethod
    def build(
        cls, vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]
    ) -> "Quiver":
        """Convenience constructor from (name, source, target) triples."""
        return cls(tuple(vertices), tuple(Arrow(*a) for a in arrows))

    @cached_property
    def vertex_index(self) -> Dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def unit_vector(self, v: str) -> DimVector:
        """The dimension vector of the simple at vertex v."""
        i = self.vertex_index[v]
        return tuple(1 if j == i else 0 for j in range(len(self.vertices)))


@dataclass(frozen=True)
class DArrow:
    """An arrow of the doubled quiver.

    ``sign`` is 0 on original arrows and 1 on reversed ones; ``bar`` is the
    name of the opposite arrow.
    """

    name: str
    source: str
    target: str
    sign: int
    bar: str


@dataclass(frozen=True)
class DoubleQuiver:
    base: Quiver
    arrows: Tuple[DArrow, ...]

    @cached_property
    def arrow_index(self) -> Dict[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

    @cached_property
    def _from(self) -> Dict[str, Tuple[DArrow, ...]]:
        table: Dict[str, List[DArrow]] = {v: [] for v in self.base.vertices}
        for a in self.arrows:
            table[a.source].append(a)
        return {v: tuple(lst) for v, lst in table.items()}

    @cached_property
    def _into(self) -> Dict[str, Tuple[DArrow, ...]]:
        table: Dict[str, List[DArrow]] = {v: [] for v in self.base.vertices}
        for a in self.arrows:
            table[a.target].append(a)
        return {v: tuple(lst) for v, lst in table.items()}

    def arrows_from(self, v: str) -> Tuple[DArrow, ...]:
        return self._from[v]

    def arrows_into(self, v: str) -> Tuple[DArrow, ...]:
        return self._into[v]


def double(q: Quiver) -> DoubleQuiver:
    """The doubled quiver, with ``a*`` reversing ``a``."""
    darrows: List[DArrow] = []
    for a in q.arrows:
        darrows.append(DArrow(a.name, a.source, a.target, 0, a.name + "*"))
    for a in q.arrows:
        darrows.append(DArrow(a.name + "*", a.target, a.source, 1, a.name))
    return DoubleQuiver(q, tuple(darrows))


def _gram(q: Quiver) -> List[List[int]]:
    """The Gram matrix of the symmetric form on the unit vectors."""
    n = len(q.vertices)
    idx = q.vertex_index
    gram = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for a in q.arrows:
        s, t = idx[a.source], idx[a.target]
        gram[s][t] -= 1
        gram[t][s] -= 1
    return gram


def symmetric_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """The symmetric bilinear form (d, e) attached to the underlying graph.

    (d, e) = 2 sum_i d_i e_i - sum_{arrows a} (d_{s(a)} e_{t(a)} + d_{t(a)} e_{s(a)})
    """
    n = len(q.vertices)
    if len(d) != n or len(e) != n:
        raise ValueError("dimension vector length differs from vertex count")
    return sum(di * sum(map(mul, row, e)) for di, row in zip(d, _gram(q)))


def word_content(
    q: Quiver, word: Word, coeffs: Optional[Sequence[int]] = None
) -> DimVector:
    """The dimension vector sum_k c_k * unit(i_k) of a coefficient word."""
    if coeffs is None:
        coeffs = [1] * len(word)
    if len(coeffs) != len(word):
        raise ValueError("coefficient list length differs from word length")
    counts = [0] * len(q.vertices)
    idx = q.vertex_index
    for v, c in zip(word, coeffs):
        if c < 0:
            raise ValueError("negative coefficient in word")
        if v not in idx:
            raise ValueError(f"word names unknown vertex {v!r}")
        counts[idx[v]] += c
    return tuple(counts)


def enumerate_words(q: Quiver, d: DimVector) -> Tuple[Word, ...]:
    """All words with content d, in lexicographic order of the vertex order.

    The empty dimension vector yields the single empty word.
    """
    if len(d) != len(q.vertices):
        raise ValueError("dimension vector length differs from vertex count")
    if any(x < 0 for x in d):
        raise ValueError("negative dimension vector entry")
    remaining = list(d)
    total = sum(d)
    out: List[Word] = []
    word: List[str] = []

    def descend() -> None:
        if len(word) == total:
            out.append(tuple(word))
            return
        for i, v in enumerate(q.vertices):
            if remaining[i] > 0:
                remaining[i] -= 1
                word.append(v)
                descend()
                word.pop()
                remaining[i] += 1

    descend()
    return tuple(out)


def enumerate_splittings(
    q: Quiver,
    word: Word,
    coeffs: Optional[Sequence[int]],
    d1: DimVector,
    d2: DimVector,
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """All coefficient splittings c = c' + c'' with contents d1 and d2.

    Args:
        word: the letters i_k.
        coeffs: the coefficients c_k (all 1 when None).
        d1, d2: target contents of the two parts.

    Raises:
        ValueError: when content(word, coeffs) != d1 + d2.
    """
    if coeffs is None:
        coeffs = [1] * len(word)
    content = word_content(q, word, coeffs)
    if content != tuple(a + b for a, b in zip(d1, d2)):
        raise ValueError("word content differs from d1 + d2")
    idx = q.vertex_index
    rem1 = list(d1)
    rem2 = list(d2)
    first: List[int] = []
    out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []

    def descend(k: int) -> None:
        if k == len(word):
            out.append(
                (tuple(first), tuple(c - a for c, a in zip(coeffs, first)))
            )
            return
        i = idx[word[k]]
        for a in range(min(coeffs[k], rem1[i]) + 1):
            b = coeffs[k] - a
            if b > rem2[i]:
                continue
            rem1[i] -= a
            rem2[i] -= b
            first.append(a)
            descend(k + 1)
            first.pop()
            rem1[i] += a
            rem2[i] += b

    descend(0)
    return tuple(out)


def has_dynkin_component(q: Quiver) -> bool:
    """Whether some connected component of the underlying graph is Dynkin.

    A connected loop-free graph is Dynkin (type A, D or E) exactly when
    its Tits form d -> (d, d)/2, with (-, -) the form of
    :func:`symmetric_form`, is positive definite; this is tested on the
    component's Gram matrix.  Components of this kind make the standard
    three-term complex inexact in degree 2, so the cokernel there
    overestimates Ext^2.
    """
    gram = _gram(q)
    left = set(range(len(gram)))
    while left:
        component = [left.pop()]
        for i in component:  # the list grows while it is walked
            near = [j for j in left if gram[i][j]]
            left.difference_update(near)
            component += near
        if _positive_definite([[gram[i][j] for j in component] for i in component]):
            return True
    return False


def _positive_definite(a: List[List[int]]) -> bool:
    """Sylvester's criterion by fraction-free (Bareiss) elimination of the
    integer symmetric matrix ``a``, in place: the k-th pivot is the k-th
    leading principal minor, and every division is exact."""
    n = len(a)
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True
