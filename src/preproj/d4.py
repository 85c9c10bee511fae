"""The worked example over the 4-subspace star quiver.

Three sources 1, 2, 3 each send one arrow into the central vertex 4.  The
modules built here all live over the rationals and are the cast of the
flagship verification: the two simples-adjacent modules T and S4, the
one-parameter family M(lam) of middle terms of extensions of S4 by T with its
three degenerate companions, and the middle terms R, A, B, C, F, G, H of the
opposite extensions.  Every action matrix below has been checked against the
vertex relations by hand before being frozen here.

Basis convention at the central vertex for the dimension (1,1,1,2) modules:
coordinates are written (top, bottom).  Apart from R, each such module
belongs to one of three families, built from one pattern each.  The M
family is given by its bar scalars; M(inf) has bar scalars (-1, 0, 1).  A,
B, C are given by the lone arrow that lands in the top coordinate: A is the
a-string plus the (b,c)-fork.  F, G, H are given by the top arrow, whose two
companions fold back through their bars: F has top the simple at 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Union

from .fields import QQ
from .module import LambdaModule
from .quiver import DoubleQuiver, Quiver, double

Rational = Union[int, Fraction]


def star_quiver() -> Quiver:
    return Quiver.build(
        ["1", "2", "3", "4"],
        [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")],
    )


def star_double() -> DoubleQuiver:
    return double(star_quiver())


def t_module(dq: DoubleQuiver = None) -> LambdaModule:
    """T: dimension (1,1,1,1), all three arrows act by 1, bars by 0."""
    dq = dq or star_double()
    return LambdaModule.build(
        dq, QQ, (1, 1, 1, 1), {"a": [[1]], "b": [[1]], "c": [[1]]}
    )


def s4_module(dq: DoubleQuiver = None) -> LambdaModule:
    """The simple at the central vertex."""
    dq = dq or star_double()
    return LambdaModule.build(dq, QQ, (0, 0, 0, 1), {})


def m_family(lam: Rational, dq: DoubleQuiver = None) -> LambdaModule:
    """M(lam): dimension (1,1,1,2) middle terms of extensions of S4 by T.

    The bars act through the top coordinate by the scalars
    (-1-lam, 1, lam), which sum to zero as the central relation demands.
    The members lam = 0 and lam = -1 are the degenerate ones; every other
    value gives the generic member.
    """
    lam = Fraction(lam)
    return _bar_scalars((-1 - lam, 1, lam), dq)


def r_module(dq: DoubleQuiver = None) -> LambdaModule:
    """R: the three arrows hit three pairwise distinct lines; bars act by 0."""
    return _central_two(dq, {"a": [[1], [0]], "b": [[0], [1]], "c": [[1], [1]]})


def _central_two(dq: DoubleQuiver, action: Dict) -> LambdaModule:
    """The dimension (1,1,1,2) module with the given action data."""
    return LambdaModule.build(dq or star_double(), QQ, (1, 1, 1, 2), action)


def _bar_scalars(scalars: Sequence[Rational], dq: DoubleQuiver) -> LambdaModule:
    """a, b, c land in the bottom coordinate and a*, b*, c* read the top
    coordinate times the given scalars, which must sum to zero."""
    action = {x: [[0], [1]] for x in "abc"}
    action.update({x + "*": [[s, 0]] for x, s in zip("abc", scalars)})
    return _central_two(dq, action)


def _lone_arrow(lone: str, dq: DoubleQuiver) -> LambdaModule:
    """The ``lone`` arrow lands in the top coordinate, the other two in
    the bottom one; the bars act by 0."""
    return _central_two(dq, {x: [[1], [0]] if x == lone else [[0], [1]] for x in "abc"})


def _top_arrow(top: str, dq: DoubleQuiver) -> LambdaModule:
    """The ``top`` arrow lands in the top coordinate; the other two land
    in the bottom one with signs +1 and -1 (in the order a, b, c), and
    their bars read the top coordinate."""
    first, second = (x for x in "abc" if x != top)
    action = {top: [[1], [0]], first: [[0], [1]], second: [[0], [-1]]}
    action.update({first + "*": [[1, 0]], second + "*": [[1, 0]]})
    return _central_two(dq, action)


def zoo(lam: Rational = 1) -> Dict[str, LambdaModule]:
    """Every module of the worked example, over one shared double quiver.

    The generic family member is built at the given parameter value,
    which must avoid the degenerate values 0 and -1.
    """
    if Fraction(lam) in (Fraction(0), Fraction(-1)):
        raise ValueError(f"lambda = {lam} is degenerate, pick a generic value")
    dq = star_double()
    return {
        "T": t_module(dq),
        "S4": s4_module(dq),
        "M(lam)": m_family(lam, dq),
        "M(0)": m_family(0, dq),
        "M(-1)": m_family(-1, dq),
        "M(inf)": _bar_scalars((-1, 0, 1), dq),
        "R": r_module(dq),
        "A": _lone_arrow("a", dq),
        "B": _lone_arrow("b", dq),
        "C": _lone_arrow("c", dq),
        "F": _top_arrow("a", dq),
        "G": _top_arrow("b", dq),
        "H": _top_arrow("c", dq),
    }
